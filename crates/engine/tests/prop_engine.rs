//! Property tests: the concurrent, memoized engine is extensionally
//! identical to the sequential evaluation functions — bit-identical
//! `Nat`s, identical verdicts — across random databases and random query
//! pairs, and repeated submissions are answered by the cache with equal
//! results.

use bagcq_containment::{CheckRequest, ContainmentChoice, Semantics, Verdict};
use bagcq_engine::{EvalEngine, Job, Outcome};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{cycle_query, path_query, Query, QueryGen, UnionGen};
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

/// Every observable bit of a verdict: its certificate, or the
/// counterexample's provenance, counts and database fingerprint, or the
/// candidates an `Unknown` examined.
fn render(v: &Verdict) -> String {
    match v {
        Verdict::Proved(c) => format!("proved:{c:?}"),
        Verdict::Refuted(ce) => {
            let fp = ce.database.fingerprint();
            let (s, b) = (&ce.count_s, &ce.count_b);
            format!("refuted:{:?}:{s}:{b}:{:016x}{:016x}", ce.provenance, fp.hi, fp.lo)
        }
        Verdict::Unknown { candidates_checked } => format!("unknown:{candidates_checked}"),
    }
}

/// One request per procedure: a `QueryGen` pair for the two CQ-pair
/// procedures, a `UnionGen` pair for the two union procedures, each under
/// the semantics its procedure decides.
fn requests(seed: u64) -> Vec<CheckRequest> {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    sb.relation("F", 1);
    let s = sb.build();
    let cq = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
    let ucq =
        UnionGen { disjuncts_min: 1, disjuncts_max: 3, query: QueryGen { atoms: 2, ..cq.clone() } };
    let (at, at_b) = (2 * seed, 2 * seed + 1);
    [
        (ContainmentChoice::BagSearch, Semantics::Bag),
        (ContainmentChoice::SetChandraMerlin, Semantics::Set),
        (ContainmentChoice::SetUcq, Semantics::Set),
        (ContainmentChoice::BagUcq, Semantics::Bag),
    ]
    .into_iter()
    .map(|(choice, semantics)| {
        let request = match choice {
            ContainmentChoice::BagSearch | ContainmentChoice::SetChandraMerlin => {
                CheckRequest::new(&cq.sample(&s, at), &cq.sample(&s, at_b))
            }
            _ => CheckRequest::union(ucq.sample(&s, at), ucq.sample(&s, at_b)),
        };
        request.semantics(semantics).containment(choice)
    })
    .collect()
}

/// The `(procedure, verdict)` of every request for `seed`, checked
/// through an engine and directly, which must agree bit for bit.
fn engine_and_direct_verdicts(seed: u64) -> Vec<(String, String, String)> {
    let engine = EvalEngine::with_workers(1);
    requests(seed)
        .into_iter()
        .map(|request| {
            let label = request.resolved_choice().label().to_string();
            let want = render(&request.check().expect("each request suits its procedure"));
            let got = match engine.run(Job::check(request.into_spec())) {
                Outcome::Verdict(v) => render(&v),
                other => format!("{other:?}"),
            };
            (label, got, want)
        })
        .collect()
}

/// The same property over seeds 0..24, whose bag-UCQ verdicts reach all
/// three classes, `Unknown` included: the property is not vacuous on any
/// of the search's outcomes.
#[test]
fn engine_checks_reach_unknown_and_refutations() {
    let bag_ucq: Vec<String> = (0..24)
        .flat_map(engine_and_direct_verdicts)
        .filter(|(label, ..)| label == "bag-ucq")
        .map(|(_, got, want)| {
            assert_eq!(got, want);
            got
        })
        .collect();
    for class in ["proved", "refuted", "unknown"] {
        assert!(bag_ucq.iter().any(|v| v.starts_with(class)), "no {class} verdict: {bag_ucq:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A check through the engine returns exactly the verdict
    /// `CheckRequest::check` returns — certificate, counterexample
    /// database and counts, or `candidates_checked` — under each of the
    /// four procedures.
    #[test]
    fn engine_checks_match_direct_checks(seed in 0u64..1_000_000) {
        for (label, got, want) in engine_and_direct_verdicts(seed) {
            prop_assert_eq!(got, want, "{}", label);
        }
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
                prop_assert_eq!(render(a), render(b))
            }
            other => prop_assert!(false, "unexpected outcomes: {:?}", other),
        }
        prop_assert!(engine.metrics().cache_hits > 0);
    }
}
