//! The two set-semantics procedures: Chandra–Merlin (1977) for CQ pairs
//! and the Sagiv–Yannakakis all/any reduction for unions.
//!
//! For boolean CQs under **set** semantics, `ψ_s ⊑ ψ_b` (every database
//! satisfying `ψ_s` satisfies `ψ_b`) holds iff there is a homomorphism
//! from `ψ_b` into the canonical structure of `ψ_s`. This is the result
//! whose proof "does not survive in the bag-semantics world"
//! (Chaudhuri–Vardi) — which is the paper's whole story — but it remains
//! useful here in two ways:
//!
//! * as the historical *baseline* the benchmarks compare against, and
//! * as a sound **refuter** for bag containment: if set containment
//!   already fails, the canonical structure of `ψ_s` is a bag-semantics
//!   counterexample (`ψ_s` counts ≥ 1 on it while `ψ_b` counts 0).

use crate::checker::{union_count, PreparedCountFn};
use crate::verdict::{Certificate, Counterexample, Provenance, Verdict};
use bagcq_arith::Nat;
use bagcq_homcount::{NaiveCounter, PreparedQuery};
use bagcq_query::Query;

/// Decides set-semantics containment `ψ_s ⊑^set ψ_b` for boolean CQs by
/// the Chandra–Merlin homomorphism criterion.
///
/// This is the independent reference the oracles compare the procedures
/// against: it asks [`NaiveCounter::exists`] directly, so it cannot be
/// cancelled and is not on the engine path — every procedure counts
/// through its injected counter instead.
///
/// Both queries should be pure CQs (no inequalities); with inequalities
/// the criterion is neither sound nor complete, and this function panics
/// rather than return a wrong answer.
pub fn set_contained(q_s: &Query, q_b: &Query) -> bool {
    assert!(q_s.is_pure() && q_b.is_pure(), "Chandra-Merlin applies to pure CQs only");
    let (canonical, _) = q_s.canonical_structure();
    NaiveCounter.exists(q_b, &canonical)
}

/// The Chandra–Merlin refuter, counted through `counter`: when `q_b` has
/// no homomorphism into `canonical(q_s)`, that structure is a
/// counterexample under both semantics (`q_s` counts ≥ 1 on it, `q_b`
/// counts 0).
pub(crate) fn canonical_refutation<E>(
    q_s: &PreparedQuery<'_>,
    q_b: &PreparedQuery<'_>,
    counter: &PreparedCountFn<'_, E>,
) -> Result<Option<Counterexample>, E> {
    let database = q_s.query().canonical_structure().0;
    let count_b = counter(q_b, &database)?;
    if !count_b.is_zero() {
        return Ok(None);
    }
    let count_s = counter(q_s, &database)?;
    Ok(Some(Counterexample {
        database,
        count_s,
        count_b,
        provenance: Provenance::CanonicalStructure,
    }))
}

/// Chandra–Merlin set containment for a pure CQ pair: complete, so never
/// `Unknown`.
pub(crate) fn set_chandra_merlin<E>(
    q_s: &PreparedQuery<'_>,
    q_b: &PreparedQuery<'_>,
    counter: &PreparedCountFn<'_, E>,
) -> Result<Verdict, E> {
    Ok(match canonical_refutation(q_s, q_b, counter)? {
        Some(ce) => Verdict::Refuted(ce),
        None => Verdict::Proved(Certificate::SetHomomorphism),
    })
}

/// Sagiv–Yannakakis all/any set containment for pure UCQs: `U₁ ⊑set U₂`
/// iff every `p ∈ U₁` is Chandra–Merlin-contained in some `q ∈ U₂`.
/// Exact: on canonical(p), p is satisfied, so some disjunct of `U₂` must
/// map in; conversely CM containment of every disjunct gives containment
/// pointwise.
pub(crate) fn set_ucq<E>(
    u_s: &[PreparedQuery<'_>],
    u_b: &[PreparedQuery<'_>],
    counter: &PreparedCountFn<'_, E>,
) -> Result<Verdict, E> {
    let mut pairs = Vec::with_capacity(u_s.len());
    'disjuncts: for p in u_s {
        let database = p.query().canonical_structure().0;
        for (j, q) in u_b.iter().enumerate() {
            if !counter(q, &database)?.is_zero() {
                pairs.push(j);
                continue 'disjuncts;
            }
        }
        // canonical(p) satisfies U₁ (via p) but no disjunct of U₂ — the
        // witness, with union counts attached.
        let count_s = union_count(u_s, &database, counter)?;
        return Ok(Verdict::Refuted(Counterexample {
            database,
            count_s,
            count_b: Nat::zero(),
            provenance: Provenance::CanonicalStructure,
        }));
    }
    Ok(Verdict::Proved(Certificate::SetAllAny(pairs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_query::{cycle_query, path_query};
    use bagcq_structure::SchemaBuilder;
    use std::sync::Arc;

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    #[test]
    fn longer_paths_are_contained_in_shorter() {
        let s = digraph();
        // Under set semantics: a database with a 3-path has a 2-path, so
        // P3 ⊑ P2 (hom from P2 into canonical P3 exists).
        let p3 = path_query(&s, "E", 3);
        let p2 = path_query(&s, "E", 2);
        assert!(set_contained(&p3, &p2));
        assert!(!set_contained(&p2, &p3));
    }

    #[test]
    fn cycles_and_paths() {
        let s = digraph();
        // A 3-cycle contains arbitrarily long walks: Ck ⊑ P_j for all j.
        let c3 = cycle_query(&s, "E", 3);
        let p5 = path_query(&s, "E", 5);
        assert!(set_contained(&c3, &p5));
        // But paths don't contain cycles.
        assert!(!set_contained(&p5, &c3));
    }

    #[test]
    #[should_panic(expected = "pure CQs")]
    fn rejects_inequalities() {
        let s = digraph();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        let q = qb.build();
        let _ = set_contained(&q, &q);
    }
}
