//! Cross-crate property tests: invariants that tie the query algebra,
//! the structure operations, and the counting engines together.

use bagcq_core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    let mut b = Schema::builder();
    b.relation("E", 2);
    b.relation("T", 3);
    b.build()
}

fn rand_query(seed: u64, vars: u32, atoms: usize) -> Query {
    QueryGen { variables: vars, atoms, constant_prob: 0.0, inequalities: 0 }.sample(&schema(), seed)
}

fn rand_structure(seed: u64) -> Structure {
    StructureGen {
        extra_vertices: 4,
        density: 0.3,
        max_tuples_per_relation: 150,
        diagonal_density: 0.3,
    }
    .sample(&schema(), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Counts are invariant under blow-up/product *recombination*:
    /// φ(blowup(D,k)^×2) = φ(blowup(D^×2, k)) for pure constant-free CQs.
    /// (Both equal k^{2j}... no — blowup(D,k)^×2 has (nk)² vertices while
    /// blowup(D^×2,k) has n²k; the *counts* coincide at k^{2j}·φ(D)² vs
    /// k^j·φ(D)² — they differ! The real law is associativity-style:
    /// φ(blowup(D,k)·count) = k^j·φ(D); check the composition laws
    /// individually instead.)
    #[test]
    fn blowup_and_product_compose(qseed in 0u64..5000, dseed in 0u64..5000, k in 1u32..3) {
        let q = rand_query(qseed, 3, 3);
        let d = rand_structure(dseed);
        let j = q.var_count() as u64;
        let base = CountRequest::new(&q, &d).count();
        // blowup then product.
        let bp = CountRequest::new(&q, &d.blowup(k).product(&d.blowup(k))).count();
        // Lemma 22 i and ii composed: (k^j·φ(D))² = k^{2j}·φ(D)².
        let expect = Nat::from_u64(k as u64).pow_u64(2 * j).mul_ref(&base.mul_ref(&base));
        prop_assert_eq!(bp, expect);
    }

    /// Disjoint union with itself: counts of connected pure CQs satisfy
    /// φ(D ⊎ D) ≥ 2·φ(D) when φ has at least one hom (each copy hosts the
    /// image... only when the canonical image is connected; our random
    /// queries may be disconnected, so test with the path family).
    #[test]
    fn union_superadditive_for_paths(dseed in 0u64..5000, len in 1u32..4) {
        let s = schema();
        let q = path_query(&s, "E", len);
        let d = rand_structure(dseed);
        let c1 = CountRequest::new(&q, &d).count();
        let cu = CountRequest::new(&q, &d.union(&d)).count();
        prop_assert!(cu >= c1.mul_ref(&Nat::from_u64(2)) || c1.is_zero());
    }

    /// The onto-hom certificate, whenever found, is numerically sound:
    /// small(D) ≤ big(D) on sampled structures.
    #[test]
    fn onto_certificate_sound(s1 in 0u64..2000, s2 in 0u64..2000, dseed in 0u64..2000) {
        let small = rand_query(s1, 3, 3);
        let big = rand_query(s2, 4, 4);
        if let Some(h) = find_onto_hom(&big, &small) {
            prop_assert!(verify_onto_hom(&big, &small, &h));
            let d = rand_structure(dseed);
            let cs = CountRequest::new(&small, &d).count();
            let cb = CountRequest::new(&big, &d).count();
            prop_assert!(cs <= cb, "certificate unsound: {} > {}", cs, cb);
        }
    }

    /// Chandra–Merlin is reflexive and transitive on random pure CQs.
    #[test]
    fn chandra_merlin_preorder(s1 in 0u64..2000, s2 in 0u64..2000, s3 in 0u64..2000) {
        let a = rand_query(s1, 3, 3);
        let b = rand_query(s2, 3, 3);
        let c = rand_query(s3, 3, 3);
        prop_assert!(set_contained(&a, &a));
        if set_contained(&a, &b) && set_contained(&b, &c) {
            prop_assert!(set_contained(&a, &c));
        }
    }

    /// Bag containment implies set containment on samples: if the harness
    /// proves q_s ⊑bag q_b, then any sampled D with a q_s-hom has a
    /// q_b-hom.
    #[test]
    fn bag_proof_implies_set_behaviour(s1 in 0u64..500, s2 in 0u64..500, dseed in 0u64..500) {
        let q_s = rand_query(s1, 3, 3);
        let q_b = rand_query(s2, 3, 3);
        let verdict = CheckRequest::new(&q_s, &q_b)
            .budget(SearchBudget { random_rounds: 3, ..SearchBudget::default() })
            .check()
            .expect("CQ pairs are supported");
        if verdict.is_proved() {
            let d = rand_structure(dseed);
            let cs = CountRequest::new(&q_s, &d).count();
            let cb = CountRequest::new(&q_b, &d).count();
            prop_assert!(cs <= cb);
        }
    }

    /// Differential: counts routed through the batched evaluation engine
    /// are bit-identical to a direct naive count — with the tracer
    /// *enabled*, so the span-instrumented code paths (process → execute
    /// → count → publish, plus both homcount engines under
    /// cross-validation) are exactly the paths being exercised.
    #[test]
    fn engine_batched_counts_match_naive(qseed in 0u64..3000, dseed in 0u64..3000) {
        bagcq_core::obs::enable();
        let q = rand_query(qseed, 3, 3);
        let d = Arc::new(rand_structure(dseed));
        let direct = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();
        let engine = EvalEngine::new(EngineConfig {
            cross_validate: true,
            ..EngineConfig::default()
        });
        // Submitted twice: one computed, one answered by the
        // single-flight memo cache; both must equal the direct count.
        let handles = engine.submit_batch(vec![
            Job::count(q.clone(), Arc::clone(&d)),
            Job::count(q.clone(), Arc::clone(&d)),
        ]);
        for h in &handles {
            let out = h.wait();
            prop_assert_eq!(out.as_count(), Some(&direct), "engine diverges from naive");
        }
        prop_assert!(engine.metrics().cross_validations > 0);
    }

    /// Refuted verdicts always carry verified counts.
    #[test]
    fn refutations_verified(s1 in 0u64..500, s2 in 0u64..500) {
        let q_s = rand_query(s1, 3, 3);
        let q_b = rand_query(s2, 3, 4);
        let verdict = CheckRequest::new(&q_s, &q_b)
            .budget(SearchBudget { random_rounds: 3, ..SearchBudget::default() })
            .check()
            .expect("CQ pairs are supported");
        if let Verdict::Refuted(ce) = verdict {
            // Recount independently with the other engine.
            let cs = CountRequest::new(&q_s, &ce.database).backend(BackendChoice::Naive).count();
            let cb = CountRequest::new(&q_b, &ce.database).backend(BackendChoice::Naive).count();
            prop_assert_eq!(&cs, &ce.count_s);
            prop_assert_eq!(&cb, &ce.count_b);
            prop_assert!(ce.count_s > ce.count_b);
        }
    }
}
