//! The "multiplying by `q`" framework of Definition 3.
//!
//! A pair of queries `(ϱ_s, ϱ_b)` *multiplies by* a positive rational `q`
//! when (=) some non-trivial database achieves `ϱ_s(D) = q·ϱ_b(D) ≠ 0` and
//! (≤) every non-trivial database satisfies `ϱ_s(D) ≤ q·ϱ_b(D)`.
//!
//! A [`MultiplyGadget`] packages the query pair, the exact rational, the
//! witness structure for (=), and the non-triviality constants; the
//! verification harness checks (=) exactly and falsifies (≤) over sampled
//! structures. Lemma 4's composition (product of disjoint-schema gadgets
//! multiplies by the product of the ratios) is [`MultiplyGadget::compose`].

use crate::counting::naive_count;
use bagcq_arith::{Nat, Rat};
use bagcq_query::Query;
use bagcq_structure::{ConstId, Schema, Structure, StructureGen};
use std::sync::Arc;

/// A query pair claimed to multiply by an exact rational (Definition 3).
#[derive(Clone)]
pub struct MultiplyGadget {
    /// The s-query `ϱ_s`.
    pub q_s: Query,
    /// The b-query `ϱ_b`.
    pub q_b: Query,
    /// The claimed exact ratio `q`.
    pub ratio: Rat,
    /// A witness database for condition (=).
    pub witness: Structure,
    /// The `♂` constant (non-triviality marker).
    pub mars: ConstId,
    /// The `♀` constant.
    pub venus: ConstId,
}

/// Result of checking the (≤) condition on one structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeCheck {
    /// The structure is trivial (`♂ = ♀`); Definition 3 does not apply.
    Trivial,
    /// `ϱ_s(D) ≤ q·ϱ_b(D)` holds; counts attached.
    Holds {
        /// `ϱ_s(D)`.
        s: Nat,
        /// `ϱ_b(D)`.
        b: Nat,
    },
    /// Violation found — the claimed ratio is wrong.
    Violated {
        /// `ϱ_s(D)`.
        s: Nat,
        /// `ϱ_b(D)`.
        b: Nat,
    },
}

impl MultiplyGadget {
    /// Checks condition (=) on the stored witness: non-trivial and
    /// `ϱ_s(W) = q·ϱ_b(W) ≠ 0`.
    pub fn check_witness(&self) -> Result<(Nat, Nat), String> {
        if !self.witness.is_nontrivial(self.mars, self.venus) {
            return Err("witness is trivial".into());
        }
        let s = naive_count(&self.q_s, &self.witness);
        let b = naive_count(&self.q_b, &self.witness);
        if s.is_zero() {
            return Err("witness gives ϱ_s = 0".into());
        }
        if !self.ratio.eq_scaled(&s, &b) {
            return Err(format!(
                "witness ratio mismatch: s = {s}, b = {b}, expected s = {}·b",
                self.ratio
            ));
        }
        Ok((s, b))
    }

    /// Checks condition (≤) on one structure.
    pub fn check_le_on(&self, d: &Structure) -> LeCheck {
        if !d.is_nontrivial(self.mars, self.venus) {
            return LeCheck::Trivial;
        }
        let s = naive_count(&self.q_s, d);
        let b = naive_count(&self.q_b, d);
        if self.ratio.le_scaled(&s, &b) {
            LeCheck::Holds { s, b }
        } else {
            LeCheck::Violated { s, b }
        }
    }

    /// Falsification sweep: samples `rounds` random structures over the
    /// gadget schema and returns the first violation of (≤), if any.
    pub fn falsify(&self, gen: &StructureGen, rounds: u64, seed0: u64) -> Option<Structure> {
        let schema: &Arc<Schema> = self.q_s.schema();
        for seed in seed0..seed0 + rounds {
            let d = gen.sample(schema, seed);
            if let LeCheck::Violated { .. } = self.check_le_on(&d) {
                return Some(d);
            }
        }
        None
    }

    /// Lemma 4: two gadgets over disjoint schemas compose into one that
    /// multiplies by the product of the ratios. Queries are transported to
    /// the disjoint-union schema (same-named constants — `♂`, `♀` — are
    /// identified) and the witnesses are unioned.
    pub fn compose(&self, other: &MultiplyGadget) -> MultiplyGadget {
        let (merged, ea, eb) = Schema::disjoint_union(self.q_s.schema(), other.q_s.schema());
        let q_s = self
            .q_s
            .transport(Arc::clone(&merged), &ea)
            .disjoint_conj(&other.q_s.transport(Arc::clone(&merged), &eb));
        let q_b = self
            .q_b
            .transport(Arc::clone(&merged), &ea)
            .disjoint_conj(&other.q_b.transport(Arc::clone(&merged), &eb));

        // Transport the witnesses into the merged schema and union them.
        let w1 = transport_structure(&self.witness, &merged, &ea);
        let w2 = transport_structure(&other.witness, &merged, &eb);
        let witness = w1.union(&w2);

        let mars = ea.constant(self.mars);
        let venus = ea.constant(self.venus);
        MultiplyGadget { q_s, q_b, ratio: &self.ratio * &other.ratio, witness, mars, venus }
    }
}

/// Rebuilds a structure over a disjoint-union schema through an embedding.
/// Constants of the target schema that do not come from the source get
/// fresh default vertices only if they are not already covered — this
/// helper requires the source structure to interpret all of its own
/// constants, and leaves target-only constants at the vertices created by
/// [`Structure::new`]-style defaulting (handled by re-adding all atoms).
pub(crate) fn transport_structure(
    src: &Structure,
    target_schema: &Arc<Schema>,
    emb: &bagcq_structure::SchemaEmbedding,
) -> Structure {
    let mut out = Structure::new(Arc::clone(target_schema));
    // Map src vertices: constants to the target's constant vertices,
    // other vertices to fresh ones.
    let mut map: Vec<Option<u32>> = vec![None; src.vertex_count() as usize];
    for c in src.schema().constants() {
        let sv = src.constant_vertex(c);
        let tv = out.constant_vertex(emb.constant(c));
        if let Some(prev) = map[sv.0 as usize] {
            // Source identified two constants; the target must agree —
            // union the interpretations by reusing the previous vertex.
            out.set_constant_vertex(emb.constant(c), bagcq_structure::Vertex(prev));
        } else {
            map[sv.0 as usize] = Some(tv.0);
        }
    }
    for slot in map.iter_mut() {
        if slot.is_none() {
            *slot = Some(out.add_vertex().0);
        }
    }
    let mut buf = Vec::new();
    for r in src.schema().relations() {
        for t in src.tuples(r) {
            buf.clear();
            buf.extend(t.iter().map(|&v| bagcq_structure::Vertex(map[v as usize].unwrap())));
            out.add_atom(emb.rel(r), &buf);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_query::Term;
    use bagcq_structure::{SchemaBuilder, MARS, VENUS};

    /// A trivial gadget multiplying by 1: identical queries.
    fn unit_gadget(rel_name: &str) -> MultiplyGadget {
        let mut b = SchemaBuilder::default();
        let e = b.relation(rel_name, 2);
        let mars = b.constant(MARS);
        let venus = b.constant(VENUS);
        let schema = b.build();
        let mut qb = Query::builder(Arc::clone(&schema));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom(e, &[x, y]);
        let q = qb.build();
        let mut witness = Structure::new(Arc::clone(&schema));
        let m = witness.constant_vertex(mars);
        witness.add_atom(e, &[m, m]);
        MultiplyGadget { q_s: q.clone(), q_b: q, ratio: Rat::one(), witness, mars, venus }
    }

    #[test]
    fn unit_gadget_checks() {
        let g = unit_gadget("E");
        g.check_witness().unwrap();
        assert!(g.falsify(&StructureGen::default(), 10, 0).is_none());
    }

    #[test]
    fn composition_multiplies_ratios() {
        let g1 = unit_gadget("E1");
        let g2 = unit_gadget("E2");
        let c = g1.compose(&g2);
        assert_eq!(c.ratio, Rat::one());
        c.check_witness().unwrap();
    }

    #[test]
    fn wrong_ratio_detected_on_witness() {
        let mut g = unit_gadget("E");
        g.ratio = Rat::from_u64s(1, 2);
        assert!(g.check_witness().is_err());
    }

    #[test]
    fn violation_detected() {
        // q_s = E(x,y), q_b = E(x,y) ∧ E(y,z) with ratio 1 is violated by
        // a structure with one edge and no 2-paths.
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let mars = b.constant(MARS);
        let venus = b.constant(VENUS);
        let schema = b.build();
        let mk = |atoms: &[(&str, &str)]| {
            let mut qb = Query::builder(Arc::clone(&schema));
            let mut terms: std::collections::HashMap<String, Term> = Default::default();
            for (a, bb) in atoms {
                let ta = *terms.entry(a.to_string()).or_insert_with(|| qb.var(a));
                let tb = *terms.entry(bb.to_string()).or_insert_with(|| qb.var(bb));
                qb.atom(e, &[ta, tb]);
            }
            qb.build()
        };
        let q_s = mk(&[("x", "y")]);
        let q_b = mk(&[("x", "y"), ("y", "z")]);
        let mut w = Structure::new(Arc::clone(&schema));
        let m = w.constant_vertex(mars);
        let v = w.constant_vertex(venus);
        w.add_atom(e, &[m, v]); // one edge, no 2-path
        let g = MultiplyGadget { q_s, q_b, ratio: Rat::one(), witness: w.clone(), mars, venus };
        assert!(matches!(g.check_le_on(&w), LeCheck::Violated { .. }));
    }

    #[test]
    fn trivial_structures_skipped() {
        let g = unit_gadget("E");
        let trivial = {
            let d = Structure::new(Arc::clone(g.q_s.schema()));
            let m = d.constant_vertex(g.mars);
            let v = d.constant_vertex(g.venus);
            d.identify(m, v)
        };
        assert_eq!(g.check_le_on(&trivial), LeCheck::Trivial);
    }
}
