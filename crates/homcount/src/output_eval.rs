//! Bag-semantics evaluation of non-boolean (output) queries.
//!
//! The answer of an [`OutputQuery`] on `D` is a *multirelation*: each
//! output tuple is mapped to the number of homomorphisms producing it.
//! Bag containment of non-boolean queries is pointwise multiplicity
//! comparison — the `⊆` of the QCP statement read as multiset inclusion.
//!
//! The module also mechanizes the paper's Section 2.3 observation: for a
//! boolean query with constants `a⃗` and its freed non-boolean variant,
//! the multiplicity of the answer tuple `v⃗` equals the boolean count
//! under the constant interpretation `a⃗ ↦ v⃗` — pointwise, on every
//! database (tested exhaustively on samples), which is exactly why the
//! two containment statements coincide.

use crate::naive::for_each_hom_limited;
use bagcq_arith::Nat;
use bagcq_query::OutputQuery;
use bagcq_structure::Structure;
use std::collections::BTreeMap;

/// The bag of answers: output tuple → multiplicity.
pub type AnswerBag = BTreeMap<Vec<u32>, Nat>;

/// Evaluates an output query to its answer bag.
///
/// Uses exhaustive homomorphism enumeration grouped by the output
/// projection; intended for the moderate sizes of the verification
/// harness (the boolean fast path is [`crate::CountRequest`]).
pub fn answer_bag(oq: &OutputQuery, d: &Structure) -> AnswerBag {
    let mut out: AnswerBag = BTreeMap::new();
    for_each_hom_limited(&oq.query, d, 0, |assign| {
        let tuple: Vec<u32> = oq.outputs.iter().map(|v| assign[v.0 as usize]).collect();
        out.entry(tuple).and_modify(|n| n.add_assign_u64(1)).or_insert_with(Nat::one);
        true
    });
    out
}

/// Multiset inclusion of answer bags: every tuple's multiplicity in `a`
/// is at most its multiplicity in `b`.
pub fn answer_bag_contained(a: &AnswerBag, b: &AnswerBag) -> bool {
    a.iter().all(|(t, m)| b.get(t).is_some_and(|mb| m <= mb))
}

/// Bag containment of two output queries on one database.
pub fn output_contained_on(s: &OutputQuery, b: &OutputQuery, d: &Structure) -> bool {
    assert_eq!(s.output_arity(), b.output_arity(), "containment needs equal output arities");
    answer_bag_contained(&answer_bag(s, d), &answer_bag(b, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendChoice, CountRequest};
    use bagcq_query::{free_constants, OutputQuery, Query};
    use bagcq_structure::{SchemaBuilder, StructureGen, Vertex};
    use std::sync::Arc;

    fn schema() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        b.build()
    }

    #[test]
    fn answer_bag_of_edges() {
        let s = schema();
        let e = s.relation_by_name("E").unwrap();
        let mut d = bagcq_structure::Structure::new(Arc::clone(&s));
        d.add_vertices(2);
        // Edges 1→2, 1→2 is deduped; add 1→2 and 2→1 and loop 1→1.
        d.add_atom(e, &[Vertex(1), Vertex(2)]);
        d.add_atom(e, &[Vertex(2), Vertex(1)]);
        d.add_atom(e, &[Vertex(1), Vertex(1)]);

        // q(x) := E(x, y): out-degree per vertex.
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]);
        let q = qb.build();
        let x_id = bagcq_query::VarId(0);
        let oq = OutputQuery::new(q, vec![x_id]);
        let bag = answer_bag(&oq, &d);
        assert_eq!(bag.get(&vec![1]).cloned(), Some(Nat::from_u64(2)));
        assert_eq!(bag.get(&vec![2]).cloned(), Some(Nat::one()));
        assert_eq!(bag.get(&vec![0]), None);
    }

    #[test]
    fn boolean_answer_bag_is_total_count() {
        let s = schema();
        let gen = StructureGen { extra_vertices: 3, density: 0.5, ..Default::default() };
        let d = gen.sample(&s, 4);
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]);
        let q = qb.build();
        let oq = OutputQuery::boolean(q.clone());
        let bag = answer_bag(&oq, &d);
        let total = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();
        if total.is_zero() {
            assert!(bag.is_empty());
        } else {
            assert_eq!(bag.get(&Vec::new()).cloned(), Some(total));
        }
    }

    /// The Section 2.3 pointwise identity: the multiplicity of answer
    /// tuple `v` of the freed query equals the boolean count with the
    /// constant reinterpreted at `v`.
    #[test]
    fn section_2_3_pointwise_identity() {
        let s = schema();
        let ca = s.constant_by_name("a").unwrap();
        let mut qb = Query::builder(Arc::clone(&s));
        let a = qb.constant("a");
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[a, x]).atom_named("E", &[x, y]).atom_named("E", &[y, a]);
        let boolean_q = qb.build();
        let freed = free_constants(&boolean_q, &[ca]);

        let gen = StructureGen { extra_vertices: 4, density: 0.45, ..Default::default() };
        for seed in 0..8u64 {
            let d = gen.sample(&s, seed);
            let bag = answer_bag(&freed, &d);
            for v in 0..d.vertex_count() {
                let mut dv = d.clone();
                dv.set_constant_vertex(ca, Vertex(v));
                let boolean_count =
                    CountRequest::new(&boolean_q, &dv).backend(BackendChoice::Naive).count();
                let mult = bag.get(&vec![v]).cloned().unwrap_or_else(Nat::zero);
                assert_eq!(boolean_count, mult, "seed {seed}, v {v}");
            }
        }
    }

    /// Section 2.3's containment equivalence, sampled: on every database,
    /// the boolean containments over all constant placements agree with
    /// the non-boolean answer-bag containment.
    #[test]
    fn section_2_3_containment_equivalence_sampled() {
        let s = schema();
        let ca = s.constant_by_name("a").unwrap();
        // φ_s(a) := E(a, x); φ_b(a) := E(a, x) ∧ E(x, y)  — 1-walks vs
        // 2-walks from a: containment fails (dead ends).
        let mut qb = Query::builder(Arc::clone(&s));
        let a = qb.constant("a");
        let x = qb.var("x");
        qb.atom_named("E", &[a, x]);
        let phi_s = qb.build();
        let mut qb = Query::builder(Arc::clone(&s));
        let a = qb.constant("a");
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[a, x]).atom_named("E", &[x, y]);
        let phi_b = qb.build();
        let free_s = free_constants(&phi_s, &[ca]);
        let free_b = free_constants(&phi_b, &[ca]);

        let gen = StructureGen { extra_vertices: 4, density: 0.4, ..Default::default() };
        for seed in 0..8u64 {
            let d = gen.sample(&s, seed);
            // Boolean side: containment under every placement of 'a'.
            let boolean_all = (0..d.vertex_count()).all(|v| {
                let mut dv = d.clone();
                dv.set_constant_vertex(ca, Vertex(v));
                CountRequest::new(&phi_s, &dv).backend(BackendChoice::Naive).count()
                    <= CountRequest::new(&phi_b, &dv).backend(BackendChoice::Naive).count()
            });
            // Non-boolean side: answer-bag inclusion on d... with empty
            // s-multiplicities allowed (0 ≤ anything): adapt inclusion to
            // treat missing b-tuples as 0.
            let bag_s = answer_bag(&free_s, &d);
            let bag_b = answer_bag(&free_b, &d);
            let nonboolean = bag_s.iter().all(|(t, m)| bag_b.get(t).is_some_and(|mb| m <= mb));
            assert_eq!(boolean_all, nonboolean, "seed {seed}");
        }
    }

    #[test]
    fn answer_bag_inclusion() {
        let mut a: AnswerBag = BTreeMap::new();
        let mut b: AnswerBag = BTreeMap::new();
        a.insert(vec![0], Nat::from_u64(2));
        b.insert(vec![0], Nat::from_u64(3));
        b.insert(vec![1], Nat::one());
        assert!(answer_bag_contained(&a, &b));
        assert!(!answer_bag_contained(&b, &a));
    }
}
