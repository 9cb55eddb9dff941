//! Property tests: the concurrent, memoized engine is extensionally
//! identical to the sequential evaluation functions — bit-identical
//! `Nat`s, identical verdict shapes — across random databases, and
//! repeated submissions are answered by the cache with equal results.

use bagcq_containment::{CheckRequest, Verdict};
use bagcq_engine::{EvalEngine, Job, Outcome};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{cycle_query, path_query, Query};
use bagcq_structure::{Schema, Structure, StructureGen};
use proptest::prelude::*;
use std::sync::Arc;

fn digraph(extra_vertices: u32, density_pct: u8, seed: u64) -> (Arc<Schema>, Arc<Structure>) {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();
    let gen = StructureGen {
        extra_vertices,
        density: f64::from(density_pct) / 100.0,
        ..StructureGen::default()
    };
    let d = Arc::new(gen.sample(&schema, seed));
    (schema, d)
}

fn small_queries(schema: &Arc<Schema>) -> Vec<Query> {
    vec![
        path_query(schema, "E", 1),
        path_query(schema, "E", 2),
        path_query(schema, "E", 3),
        cycle_query(schema, "E", 3),
    ]
}

fn verdict_shape(v: &Verdict) -> String {
    match v {
        Verdict::Proved(c) => format!("proved:{c:?}"),
        Verdict::Refuted(c) => format!("refuted:{}:{}", c.count_s, c.count_b),
        Verdict::Unknown { candidates_checked } => format!("unknown:{candidates_checked}"),
    }
}

proptest! {
    /// Concurrent batched counts are bit-identical to direct calls, on
    /// both engines, over random databases.
    #[test]
    fn batched_counts_bit_identical(
        seed in 0u64..1_000_000,
        extra in 3u32..7,
        density in 20u8..70,
    ) {
        let (schema, d) = digraph(extra, density, seed);
        let engine = EvalEngine::with_workers(4);
        let jobs: Vec<Job> = small_queries(&schema)
            .into_iter()
            .flat_map(|q| {
                [
                    Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)),
                    Job::count_with(BackendChoice::Treewidth, q, Arc::clone(&d)),
                ]
            })
            .collect();
        let handles = engine.submit_batch(jobs.clone());
        for (job, h) in jobs.iter().zip(&handles) {
            let (query, backend) = match &job.spec {
                bagcq_engine::JobSpec::Count { query, backend, .. } => (query, *backend),
                _ => unreachable!(),
            };
            let want = CountRequest::new(query, &d).backend(backend).count();
            prop_assert_eq!(h.wait().as_count(), Some(&want));
        }
    }

    /// Resubmitting the same workload is answered from the cache with
    /// equal `Nat`s and equal verdict shapes, and the hit counter moves.
    #[test]
    fn cache_returns_equal_results(seed in 0u64..1_000_000, extra in 3u32..6) {
        let (schema, d) = digraph(extra, 40, seed);
        let engine = EvalEngine::with_workers(2);
        let q2 = path_query(&schema, "E", 2);
        let q3 = path_query(&schema, "E", 3);
        let jobs = vec![
            Job::count(q2.clone(), Arc::clone(&d)),
            Job::check(CheckRequest::new(&q2, &q3).into_spec()),
        ];
        let first: Vec<Outcome> =
            engine.submit_batch(jobs.clone()).iter().map(|h| h.wait()).collect();
        let second: Vec<Outcome> =
            engine.submit_batch(jobs).iter().map(|h| h.wait()).collect();
        match (&first[0], &second[0]) {
            (Outcome::Count(a), Outcome::Count(b)) => prop_assert_eq!(a, b),
            other => prop_assert!(false, "unexpected outcomes: {:?}", other),
        }
        match (&first[1], &second[1]) {
            (Outcome::Verdict(a), Outcome::Verdict(b)) => {
                prop_assert_eq!(verdict_shape(a), verdict_shape(b))
            }
            other => prop_assert!(false, "unexpected outcomes: {:?}", other),
        }
        prop_assert!(engine.metrics().cache_hits > 0);
    }
}
