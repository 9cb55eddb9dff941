//! Property tests for the counting backends: differential agreement of
//! the backtracker, the tree-decomposition DP and `Auto`, each kernel
//! checked against the closed form `2^(8k)` on inputs straddling the
//! `u64`/`u128` overflow boundaries, and the paper's algebraic counting
//! laws (Lemma 1, Definition 2, Lemma 22).

use bagcq_arith::{acc_promotions, Nat};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{path_query, Query, QueryGen};
use bagcq_structure::{Schema, SchemaBuilder, Structure, StructureGen, Vertex};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    let mut b = SchemaBuilder::default();
    b.relation("E", 2);
    b.relation("R", 3);
    b.constant("a");
    b.build()
}

fn small_query(seed: u64, vars: u32, atoms: usize, ineqs: usize) -> Query {
    let qg = QueryGen { variables: vars, atoms, constant_prob: 0.1, inequalities: ineqs };
    qg.sample(&schema(), seed)
}

fn small_structure(seed: u64, extra: u32, density: f64) -> Structure {
    let sg = StructureGen {
        extra_vertices: extra,
        density,
        max_tuples_per_relation: 300,
        diagonal_density: 0.4,
    };
    sg.sample(&schema(), seed)
}

/// The backtracking count the algebraic laws are checked on.
fn naive_count(q: &Query, d: &Structure) -> Nat {
    CountRequest::new(q, d).backend(BackendChoice::Naive).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test: the two independent algorithms and `Auto`
    /// return the same count on arbitrary queries (with inequalities and
    /// constants) and databases.
    #[test]
    fn all_backends_bit_identical(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        vars in 2u32..6,
        atoms in 1usize..7,
        ineqs in 0usize..3,
        extra in 1u32..5,
    ) {
        let q = small_query(qseed, vars, atoms, ineqs);
        let d = small_structure(dseed, extra, 0.35);
        let reference = naive_count(&q, &d);
        for choice in BackendChoice::ALL {
            let got = CountRequest::new(&q, &d).backend(choice).count();
            prop_assert_eq!(&got, &reference, "backend {} on query {}", choice, q);
        }
    }

    /// Lemma 1: (ρ ∧̄ ρ')(D) = ρ(D) · ρ'(D).
    #[test]
    fn lemma1_disjoint_conjunction_multiplies(
        s1 in 0u64..10_000,
        s2 in 0u64..10_000,
        dseed in 0u64..10_000,
    ) {
        let q1 = small_query(s1, 3, 3, 0);
        let q2 = small_query(s2, 3, 3, 0);
        let d = small_structure(dseed, 3, 0.4);
        let lhs = naive_count(&q1.disjoint_conj(&q2), &d);
        let rhs = naive_count(&q1, &d).mul_ref(&naive_count(&q2, &d));
        prop_assert_eq!(lhs, rhs);
    }

    /// Definition 2: (θ↑k)(D) = θ(D)^k — holds with inequalities too.
    #[test]
    fn definition2_power(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        k in 0u32..4,
        ineqs in 0usize..2,
    ) {
        let q = small_query(qseed, 3, 3, ineqs);
        let d = small_structure(dseed, 3, 0.4);
        let single = naive_count(&q, &d);
        prop_assert_eq!(naive_count(&q.power(k), &d), single.pow_u64(k as u64));
    }

    /// Lemma 22 (i): φ(blowup(D,k)) = k^j · φ(D) for pure CQs without
    /// constants, where j = number of variables.
    #[test]
    fn lemma22_blowup(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        k in 1u32..4,
    ) {
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
        let q = qg.sample(&schema(), qseed);
        let d = small_structure(dseed, 3, 0.35);
        let base = naive_count(&q, &d);
        let blown = naive_count(&q, &d.blowup(k));
        let factor = Nat::from_u64(k as u64).pow_u64(q.var_count() as u64);
        prop_assert_eq!(blown, factor.mul_ref(&base));
    }

    /// Lemma 22 (ii): φ(D^×k) = φ(D)^k for pure CQs without constants.
    #[test]
    fn lemma22_product_power(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        k in 1u32..4,
    ) {
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
        let q = qg.sample(&schema(), qseed);
        let d = small_structure(dseed, 2, 0.4);
        let base = naive_count(&q, &d);
        let powered = naive_count(&q, &d.power(k));
        prop_assert_eq!(powered, base.pow_u64(k as u64));
    }

    /// Counts are monotone under adding atoms to the database
    /// (for pure queries: more facts, at least as many homs).
    #[test]
    fn monotone_in_database(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
    ) {
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
        let q = qg.sample(&schema(), qseed);
        let d1 = small_structure(dseed, 3, 0.25);
        // d2 = d1 plus extra random atoms (union with another sample is
        // awkward because vertices differ; instead resample denser over the
        // same seed base and union explicitly).
        let mut d2 = d1.clone();
        let extra = small_structure(dseed.wrapping_add(1), 3, 0.25);
        d2 = d2.union(&extra);
        let c1 = naive_count(&q, &d1);
        let c2 = naive_count(&q, &d2);
        prop_assert!(c1 <= c2, "{c1} > {c2}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counts are isomorphism-invariant: permuting the database's vertex
    /// ids never changes any count, on any backend.
    #[test]
    fn counts_invariant_under_vertex_permutation(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        pseed in 0u64..10_000,
    ) {
        let q = small_query(qseed, 3, 4, 1);
        let d = small_structure(dseed, 4, 0.35);
        // Build a deterministic permutation of the vertex ids.
        let n = d.vertex_count();
        let mut perm: Vec<u32> = (0..n).collect();
        let mut state = pseed | 1;
        for i in (1..n as usize).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let permuted = d.quotient(&perm, n);
        prop_assert!(bagcq_structure::isomorphic(&d, &permuted));
        for choice in BackendChoice::REGISTERED {
            prop_assert_eq!(
                CountRequest::new(&q, &d).backend(choice).count(),
                CountRequest::new(&q, &permuted).backend(choice).count(),
                "backend {}",
                choice
            );
        }
    }

    /// The enumerative ablation counter agrees with the optimized one on
    /// random inputs (slow path, fewer cases).
    #[test]
    fn enumerative_ablation_agrees(qseed in 0u64..3000, dseed in 0u64..3000) {
        let q = small_query(qseed, 3, 3, 1);
        let d = small_structure(dseed, 2, 0.3);
        prop_assert_eq!(
            bagcq_homcount::NaiveCounter.count_enumerative(&q, &d),
            naive_count(&q, &d)
        );
    }
}

/// Adversarial overflow-boundary cases for the widening accumulators.
///
/// `E(x,y)` into the complete 16-vertex digraph (loops included) has
/// exactly 16² = 2⁸ homomorphisms, so `E(x,y)↑k` has exactly `2^(8k)`:
/// picking `k` dials the true count to either side of the `u64` and
/// `u128` boundaries. Lemma 1's component factorization keeps every run
/// cheap (k components × 256 steps) — all the work is in the cross-
/// component multiplications, exactly where the widening fires.
mod overflow_boundaries {
    use super::*;

    fn edge_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    fn complete_digraph(n: u32) -> Structure {
        let schema = edge_schema();
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&schema));
        d.add_vertices(n);
        for a in 0..n {
            for b in 0..n {
                d.add_atom(e, &[Vertex(a), Vertex(b)]);
            }
        }
        d
    }

    /// Runs `E(x,y)↑k` on both kernels against the closed form `2^(8k)`
    /// and returns how many promotions the whole workload performed.
    fn check_power(k: u32) -> (Nat, u64) {
        let schema = edge_schema();
        let q = path_query(&schema, "E", 1).power(k);
        let d = complete_digraph(16);
        let want = Nat::pow2(8 * k as u64);
        let before = acc_promotions();
        for choice in BackendChoice::REGISTERED {
            let got = CountRequest::new(&q, &d).backend(choice).count();
            assert_eq!(got, want, "{choice} wrong at k = {k}");
        }
        (want, acc_promotions() - before)
    }

    /// 2⁵⁶ — comfortably inside `u64`: both kernels are exact.
    #[test]
    fn just_below_u64_boundary() {
        let (n, _) = check_power(7);
        assert_eq!(n.bits(), 57);
    }

    /// 2⁶⁴ — one past `u64::MAX`: the forced promotion fires and the
    /// result is still exact. (The counter is process-global and other
    /// tests run concurrently, so only a lower bound is asserted.)
    #[test]
    fn just_above_u64_boundary_promotes_and_stays_exact() {
        let (n, promoted) = check_power(8);
        assert_eq!(n.bits(), 65);
        assert!(promoted >= 1, "crossing u64 must promote at least once");
    }

    /// 2¹²⁰ — inside `u128` after one widening.
    #[test]
    fn just_below_u128_boundary() {
        let (n, _) = check_power(15);
        assert_eq!(n.bits(), 121);
    }

    /// 2¹²⁸ — one past `u128::MAX`: both widenings fire (u64 → u128 →
    /// `Nat`) on each kernel, and the result is still exact.
    #[test]
    fn just_above_u128_boundary_promotes_twice_and_stays_exact() {
        let (n, promoted) = check_power(16);
        assert_eq!(n.bits(), 129);
        assert!(promoted >= 2, "crossing u128 widens twice per backend, saw {promoted}");
    }

    /// Saturating a `u64` by pure increments (no multiplication): a star
    /// of loops query whose count is near-boundary via repeated add_one.
    /// Cheap variant: the increment path is exercised by counting 2⁸ homs
    /// per component with the accumulator pre-seeded by earlier factors —
    /// here we instead check a single huge component product chain:
    /// (2⁸)¹⁷ = 2¹³⁶ forces Small → Wide → Big inside one chain.
    #[test]
    fn one_chain_through_all_three_tiers() {
        let (n, promoted) = check_power(17);
        assert_eq!(n.bits(), 137);
        assert!(promoted >= 2, "chain must pass through u128 into Nat, saw {promoted}");
    }
}
