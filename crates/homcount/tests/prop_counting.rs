//! Property tests for the counting backends: differential agreement of
//! the backtracker, the tree-decomposition DP and `Auto`, each kernel
//! checked against the closed form `2^(8k)` on inputs straddling the
//! `u64`/`u128` overflow boundaries, and the paper's algebraic counting
//! laws (Lemma 1, Definition 2, Lemma 22).

use bagcq_arith::{acc_promotions, Nat};
use bagcq_homcount::{BackendChoice, CountRequest, PreparedQuery};
use bagcq_query::{path_query, Query, QueryGen, Term};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A query prepared once counts, on every structure and under every
    /// backend, exactly what a request that prepares its own query
    /// counts, and `Auto` resolves the same way from both.
    #[test]
    fn prepared_counts_equal_unprepared(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        vars in 2u32..6,
        atoms in 2usize..6,
        ineqs in 1usize..3,
    ) {
        let qg = QueryGen { variables: vars, atoms, constant_prob: 0.3, inequalities: ineqs };
        let q = qg.sample(&schema(), qseed);
        prop_assume!(q.atoms().iter().any(|a| a.args.iter().any(|t| matches!(t, Term::Const(_)))));
        let p = PreparedQuery::new(&q);
        for i in 0..12u64 {
            let d = small_structure(dseed.wrapping_add(i), 1 + (i % 4) as u32, 0.2 + 0.05 * i as f64);
            prop_assert_eq!(
                BackendChoice::Auto.resolve_prepared(&p, &d),
                BackendChoice::Auto.resolve(&q, &d)
            );
            for choice in BackendChoice::ALL {
                prop_assert_eq!(
                    CountRequest::prepared(&p, &d).backend(choice).count(),
                    CountRequest::new(&q, &d).backend(choice).count(),
                    "backend {} on query {}",
                    choice,
                    q
                );
            }
        }
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

/// Differential traps for the tree-decomposition DP: query shapes where
/// taking a variable's candidates from an index bucket, or checking a
/// constraint as soon as it is bound, could go wrong. Every case compares
/// the pinned DP with the pinned backtracker.
mod dp_traps {
    use super::*;
    use bagcq_query::{cycle_query, grid_query, parse_query, star_query};
    use bagcq_structure::{MARS, VENUS};

    fn assert_dp_agrees(q: &Query, d: &Structure) {
        let naive = CountRequest::new(q, d).backend(BackendChoice::Naive).count();
        let dp = CountRequest::new(q, d).backend(BackendChoice::Treewidth).count();
        assert_eq!(dp, naive, "DP and backtracker disagree on {q}");
    }

    fn trap_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.relation("R", 3);
        b.constant("a");
        b.constant("b");
        b.build()
    }

    /// Constants `a = 0`, `b = 1`, vertices `2..8`. The `R(a, u, ·)`
    /// tuples share their first two positions: a bucket on position 0
    /// filtered on `a` alone yields `u` once per tuple.
    fn trap_structure(schema: &Arc<Schema>) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let r = schema.relation_by_name("R").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(6);
        for t in [[0, 2, 3], [0, 2, 4], [0, 2, 5], [0, 5, 3], [0, 3, 2], [0, 2, 2], [1, 2, 3]] {
            d.add_atom(r, &t.map(Vertex));
        }
        for t in [[2, 2, 2], [3, 2, 3], [4, 4, 4], [2, 3, 0]] {
            d.add_atom(r, &t.map(Vertex));
        }
        for t in [[3, 4], [4, 3], [2, 2], [5, 2], [3, 3], [0, 2], [2, 5]] {
            d.add_atom(e, &t.map(Vertex));
        }
        d
    }

    fn check_all(queries: &[&str]) {
        let schema = trap_schema();
        let mut structures = vec![trap_structure(&schema)];
        let gen = StructureGen {
            extra_vertices: 4,
            density: 0.45,
            max_tuples_per_relation: 120,
            diagonal_density: 0.5,
        };
        structures.extend((0..12).map(|seed| gen.sample(&schema, seed)));
        for text in queries {
            let q = parse_query(&schema, text).unwrap_or_else(|e| panic!("{text}: {e}"));
            for d in &structures {
                assert_dp_agrees(&q, d);
            }
        }
    }

    /// A ternary atom with a constant and a bound variable closes on the
    /// new variable: its candidates must agree with every bound position.
    #[test]
    fn bucket_on_a_constant_does_not_duplicate_candidates() {
        check_all(&[
            "R('a', x, y)",
            "R('a', x, y), E(y, z)",
            "R('a', x, y), E(x, y)",
            "R('a', x, y), E(y, y)",
            "R('a', x, y), R('a', y, x)",
            "R('a', x, y), R(y, x, z)",
            "E(y, w), R('a', x, y), E(x, v)",
            "R(x, y, z), R('a', x, z)",
            "R('b', x, y), R('a', x, y)",
        ]);
    }

    /// Atoms that repeat a variable cannot hand out that variable's
    /// candidates; they are checked instead.
    #[test]
    fn repeated_variable_atoms() {
        check_all(&[
            "E(x, x)",
            "E(x, x), E(x, y)",
            "R(x, y, x)",
            "R(x, y, x), E(y, z)",
            "R(x, x, x)",
            "R(x, y, x), R(y, x, y)",
            "E(x, y), E(y, y), R(y, x, y)",
        ]);
    }

    /// A variable occurring only in an inequality has no atom to draw
    /// candidates from.
    #[test]
    fn variable_only_in_an_inequality() {
        check_all(&[
            "E(x, y), y != z",
            "E(x, y), x != z, z != y",
            "E(x, y), E(y, w), w != z, z != 'a'",
            "R('a', x, y), x != z",
        ]);
    }

    /// Inequalities between variables of one bag prune inside the bag.
    #[test]
    fn inequalities_inside_a_bag() {
        check_all(&[
            "E(x, y), E(y, z), E(z, x), x != y",
            "E(x, y), E(y, z), E(z, w), E(w, x), x != z, y != w",
            "E(x, y), E(y, z), x != z",
            "R(x, y, z), x != y, y != z, x != z",
            "E(x, y), x != 'a'",
            "E(x, y), x != x",
        ]);
    }

    /// The seven E-PERF1 families over seeded digraphs from the
    /// `count-cold` generator range (10–16 vertices, density 0.20–0.45).
    /// Draws whose expected homomorphism count would make the backtracker
    /// crawl in a debug build are skipped; every family keeps at least
    /// four digraphs.
    #[test]
    fn eperf1_families_on_count_cold_digraphs() {
        let mut b = SchemaBuilder::default();
        b.relation("e", 2);
        let schema = b.build();
        let families: [(&str, Query, u32); 7] = [
            ("path-4", path_query(&schema, "e", 4), 4),
            ("path-8", path_query(&schema, "e", 8), 8),
            ("cycle-4", cycle_query(&schema, "e", 4), 4),
            ("cycle-6", cycle_query(&schema, "e", 6), 6),
            ("star-6", star_query(&schema, "e", 6), 6),
            ("grid-3x2", grid_query(&schema, "e", 3, 2), 7),
            ("grid-3x3", grid_query(&schema, "e", 3, 3), 12),
        ];
        for (name, q, edges) in &families {
            let mut checked = 0;
            for seed in 0..24u64 {
                let n = 10 + (seed % 7) as u32;
                let density = 0.20 + 0.25 * ((seed * 37 % 24) as f64 / 23.0);
                let expected = (n as f64).powi(q.var_count() as i32) * density.powi(*edges as i32);
                if expected > 2e5 {
                    continue;
                }
                let d = StructureGen {
                    extra_vertices: n,
                    density,
                    max_tuples_per_relation: ((n * n) as f64 * density) as usize,
                    diagonal_density: 0.1,
                }
                .sample(&schema, seed);
                assert_dp_agrees(q, &d);
                checked += 1;
            }
            assert!(checked >= 4, "{name}: only {checked} digraphs checked");
        }
    }

    /// `β` at p = 3 (Lemma 5): two `CYCLIQ` triples over the ternary `R`,
    /// the ground cycliques of `♂`/`♀` on the small side and `x₁ ≠ y₁`
    /// on the big side.
    #[test]
    fn beta_cyclique_gadget_at_p3() {
        let mut b = SchemaBuilder::default();
        let r = b.relation("R", 3);
        b.constant(MARS);
        b.constant(VENUS);
        let schema = b.build();
        let cycliq = |args: [&str; 3]| -> String {
            (0..3)
                .map(|s| format!("R({}, {}, {})", args[s], args[(s + 1) % 3], args[(s + 2) % 3]))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let (m, v) = (format!("'{MARS}'"), format!("'{VENUS}'"));
        let beta_s = [
            cycliq(["x1", "x2", "x3"]),
            cycliq(["y1", "y2", "y3"]),
            cycliq([&m, &v, &v]),
            cycliq([&v, &v, &v]),
        ]
        .join(", ");
        let beta_b =
            format!("{}, {}, x1 != y1", cycliq(["x1", "x2", "x3"]), cycliq(["y1", "y2", "y3"]));

        let mut witness = Structure::new(Arc::clone(&schema));
        let mars = witness.constant_vertex(schema.constant_by_name(MARS).unwrap());
        let venus = witness.constant_vertex(schema.constant_by_name(VENUS).unwrap());
        for t in [[mars, venus, venus], [venus, mars, venus], [venus, venus, mars]] {
            witness.add_atom(r, &t);
        }
        witness.add_atom(r, &[venus; 3]);
        let mut structures = vec![witness.blowup(2), witness];
        let gen = StructureGen {
            extra_vertices: 3,
            density: 0.6,
            max_tuples_per_relation: 80,
            diagonal_density: 0.7,
        };
        structures.extend((0..16).map(|seed| gen.sample(&schema, seed)));
        for text in [&beta_s, &beta_b] {
            let q = parse_query(&schema, text).unwrap_or_else(|e| panic!("{text}: {e}"));
            for d in &structures {
                assert_dp_agrees(&q, d);
            }
        }
    }
}
