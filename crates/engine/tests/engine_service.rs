//! Integration tests for the evaluation service: a large mixed batch is
//! bit-identical to the sequential baseline, repeated workloads hit the
//! memo cache, a check's internal counts bypass it, deadlines isolate
//! only the doomed job, and a panicking evaluation never stops the engine
//! from serving.

use bagcq_arith::{Nat, Rat};
use bagcq_containment::{CheckRequest, CheckSpec, ContainmentChoice, Semantics, Verdict};
use bagcq_engine::{
    EngineConfig, EvalEngine, FaultInjector, FaultKind, FaultPlan, Job, JobSpec, MemoStore, Outcome,
};
use bagcq_homcount::{eval_power_query, BackendChoice, CountRequest, EvalOptions};
use bagcq_query::{
    cycle_query, parse_query, path_query, star_query, PowerQuery, Query, UnionQuery,
};
use bagcq_structure::{Schema, Structure, StructureGen, Vertex};
use std::cell::Cell;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

fn digraph_schema() -> Arc<Schema> {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    sb.build()
}

fn databases(schema: &Arc<Schema>, n: usize) -> Vec<Arc<Structure>> {
    (0..n)
        .map(|i| {
            let gen = StructureGen {
                extra_vertices: 4 + (i as u32 % 3),
                density: 0.35,
                ..StructureGen::default()
            };
            Arc::new(gen.sample(schema, 1000 + i as u64))
        })
        .collect()
}

fn queries(schema: &Arc<Schema>) -> Vec<Query> {
    vec![
        path_query(schema, "E", 1),
        path_query(schema, "E", 2),
        path_query(schema, "E", 3),
        cycle_query(schema, "E", 3),
        star_query(schema, "E", 3),
    ]
}

/// The sequential reference result for a spec.
fn sequential(spec: &JobSpec) -> Outcome {
    match spec {
        JobSpec::Count { query, database, backend } => {
            Outcome::Count(CountRequest::new(query, database).backend(*backend).count())
        }
        JobSpec::EvalPower { query, database, exact_bits } => {
            let opts = EvalOptions { exact_bits: *exact_bits, ..EvalOptions::default() };
            Outcome::Power(eval_power_query(query, database, &opts))
        }
        JobSpec::Check { spec } => {
            let v = CheckRequest::union(spec.q_s.clone(), spec.q_b.clone())
                .semantics(spec.semantics)
                .containment(spec.choice)
                .multiplier(spec.multiplier.clone())
                .budget(spec.budget.clone())
                .check()
                .expect("workload specs are supported");
            Outcome::Verdict(Arc::new(v))
        }
    }
}

/// Structural equality for verdicts (they carry non-`Eq` certificates).
fn verdict_shape(v: &Verdict) -> String {
    match v {
        Verdict::Proved(c) => format!("proved:{c:?}"),
        Verdict::Refuted(c) => format!("refuted@{}", c.database.vertex_count()),
        Verdict::Unknown { candidates_checked } => format!("unknown:{candidates_checked}"),
    }
}

fn assert_same(got: &Outcome, want: &Outcome, label: &str) {
    match (got, want) {
        (Outcome::Count(a), Outcome::Count(b)) => assert_eq!(a, b, "{label}: count mismatch"),
        (Outcome::Power(a), Outcome::Power(b)) => {
            assert_eq!(a.as_exact(), b.as_exact(), "{label}: power mismatch");
            assert_eq!(a.log2_approx(), b.log2_approx(), "{label}: power enclosure mismatch");
        }
        (Outcome::Verdict(a), Outcome::Verdict(b)) => {
            assert_eq!(verdict_shape(a), verdict_shape(b), "{label}: verdict mismatch")
        }
        other => panic!("{label}: outcome kind mismatch: {other:?}"),
    }
}

/// A mixed workload of well over 100 jobs: counts on both engines, power
/// queries, and containment checks.
fn mixed_jobs(schema: &Arc<Schema>) -> Vec<Job> {
    let dbs = databases(schema, 6);
    let qs = queries(schema);
    let mut jobs = Vec::new();
    for d in &dbs {
        for q in &qs {
            jobs.push(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(d)));
            jobs.push(Job::count_with(BackendChoice::Treewidth, q.clone(), Arc::clone(d)));
            jobs.push(Job::eval_power(
                PowerQuery::power(q.clone(), Nat::from_u64(3)),
                Arc::clone(d),
            ));
        }
    }
    for (i, q_s) in qs.iter().enumerate() {
        for q_b in qs.iter().skip(i) {
            jobs.push(Job::check(CheckRequest::new(q_s, q_b).into_spec()));
            jobs.push(Job::check(
                CheckRequest::new(q_s, q_b).semantics(Semantics::Set).into_spec(),
            ));
        }
    }
    // Real unions exercise the UCQ backends through the same job path.
    let u1 = UnionQuery::new(vec![qs[0].clone(), qs[1].clone()]);
    let u2 = UnionQuery::new(vec![qs[0].clone(), qs[1].clone(), qs[3].clone()]);
    jobs.push(Job::check(CheckRequest::union(u1.clone(), u2.clone()).into_spec()));
    jobs.push(Job::check(CheckRequest::union(u1, u2).semantics(Semantics::Set).into_spec()));
    jobs
}

#[test]
fn mixed_batch_matches_sequential_baseline() {
    let schema = digraph_schema();
    let jobs = mixed_jobs(&schema);
    assert!(jobs.len() >= 100, "workload has only {} jobs", jobs.len());

    let engine = EvalEngine::with_workers(4);
    let handles = engine.submit_batch(jobs.clone());
    for (job, handle) in jobs.iter().zip(&handles) {
        let got = handle.wait();
        let want = sequential(&job.spec);
        assert_same(&got, &want, job.spec.kind());
    }
    let m = engine.metrics();
    assert_eq!(m.jobs_submitted, jobs.len() as u64);
    assert_eq!(m.jobs_completed, jobs.len() as u64);
    assert_eq!(m.jobs_panicked, 0);
    assert_eq!(m.jobs_timed_out, 0);
    assert_eq!(m.latency_count(), jobs.len() as u64);
}

#[test]
fn repeated_submissions_hit_cache_with_equal_results() {
    let schema = digraph_schema();
    let d = databases(&schema, 1).remove(0);
    let q = path_query(&schema, "E", 2);
    let engine = EvalEngine::with_workers(2);

    let jobs = vec![
        Job::count(q.clone(), Arc::clone(&d)),
        Job::check(CheckRequest::new(&q, &path_query(&schema, "E", 3)).into_spec()),
    ];
    let first: Vec<Outcome> = engine.submit_batch(jobs.clone()).iter().map(|h| h.wait()).collect();
    let second: Vec<Outcome> = engine.submit_batch(jobs.clone()).iter().map(|h| h.wait()).collect();

    for ((a, b), job) in first.iter().zip(&second).zip(&jobs) {
        assert_same(a, b, job.spec.kind());
    }
    let m = engine.metrics();
    assert!(m.cache_hits >= 2, "expected cached answers, metrics: {m}");
    assert!(engine.cache_entries() > 0);
}

#[test]
fn deadline_times_out_doomed_job_while_others_complete() {
    let schema = digraph_schema();
    // Dense 9-vertex digraph + 12-step path: ~9^13 naive enumeration steps,
    // effectively unbounded without cancellation.
    let gen = StructureGen { extra_vertices: 9, density: 0.9, ..StructureGen::default() };
    let dense = Arc::new(gen.sample(&schema, 7));
    let doomed_q = path_query(&schema, "E", 12);

    // One batch on two slots: the doomed job and the fine ones run side
    // by side.
    let engine = EvalEngine::with_workers(2);
    let mut jobs = vec![Job::count_with(BackendChoice::Naive, doomed_q, Arc::clone(&dense))
        .with_timeout(Duration::from_millis(30))];
    jobs.extend((1..=3).map(|k| Job::count(path_query(&schema, "E", k), Arc::clone(&dense))));
    let handles = engine.submit_batch(jobs);

    assert!(matches!(handles[0].wait(), Outcome::TimedOut), "doomed job must time out");
    for h in &handles[1..] {
        assert!(h.wait().as_count().is_some(), "unrelated jobs must complete");
    }
    let m = engine.metrics();
    assert_eq!(m.jobs_timed_out, 1);
    assert_eq!(m.jobs_completed, 4);
}

#[test]
fn step_budget_times_out_without_wall_clock() {
    let schema = digraph_schema();
    let gen = StructureGen { extra_vertices: 8, density: 0.8, ..StructureGen::default() };
    let dense = Arc::new(gen.sample(&schema, 11));
    let engine = EvalEngine::with_workers(1);
    let out = engine
        .submit(
            Job::count_with(BackendChoice::Naive, path_query(&schema, "E", 10), dense)
                .with_step_budget(2_000),
        )
        .wait();
    assert!(matches!(out, Outcome::TimedOut), "budget exhaustion must surface as TimedOut");
}

#[test]
fn panicking_job_is_isolated_and_the_engine_keeps_serving() {
    // A query over a *different* (larger) schema than the database: the
    // counting engines index relations positionally, so evaluating it
    // panics — the canonical "pathological evaluation".
    let small = digraph_schema();
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    sb.relation("F", 2);
    let big = sb.build();
    let mut qb = Query::builder(Arc::clone(&big));
    let x = qb.var("x");
    let y = qb.var("y");
    qb.atom_named("F", &[x, y]);
    let bad_query = qb.build();

    let mut d = Structure::new(Arc::clone(&small));
    d.add_vertices(2);
    d.add_atom(small.relation_by_name("E").unwrap(), &[Vertex(0), Vertex(1)]);
    let d = Arc::new(d);

    let engine = EvalEngine::with_workers(1);
    let bad = engine.submit(Job::count(bad_query, Arc::clone(&d))).wait();
    assert!(matches!(bad, Outcome::Panicked(_)), "got {bad:?}");

    // The engine's one slot was returned and still serves.
    let ok = engine.submit(Job::count(path_query(&small, "E", 1), d)).wait();
    assert_eq!(ok.as_count(), Some(&Nat::one()));
    let m = engine.metrics();
    assert_eq!(m.jobs_panicked, 1);
    assert_eq!(m.jobs_completed, 2);
}

#[test]
fn cross_validation_runs_and_agrees() {
    let schema = digraph_schema();
    let d = databases(&schema, 1).remove(0);
    let engine =
        EvalEngine::new(EngineConfig { cross_validate: true, workers: 2, ..Default::default() });
    for q in queries(&schema) {
        let out = engine.submit(Job::count(q.clone(), Arc::clone(&d))).wait();
        assert_eq!(out.as_count(), Some(&CountRequest::new(&q, &d).count()));
    }
    let m = engine.metrics();
    assert!(m.cross_validations >= 5);
    assert_eq!(m.jobs_panicked, 0);
}

/// A bag-UCQ pair that no certificate proves and no candidate refutes:
/// twice the edges equal the edges counted in both directions, but the
/// multiplier 2 rules out every certificate, so the search examines every
/// structured and random candidate and ends `Unknown`.
fn unknown_ucq_spec(schema: &Arc<Schema>) -> CheckSpec {
    let q = |src| parse_query(schema, src).expect("the test queries parse");
    let u_s = UnionQuery::new(vec![q("E(x,y)")]);
    let u_b = UnionQuery::new(vec![q("E(x,y)"), q("E(y,x)")]);
    CheckRequest::union(u_s, u_b)
        .containment(ContainmentChoice::BagUcq)
        .multiplier(Rat::from_u64s(2, 1))
        .into_spec()
}

/// The spec's verdict counted directly, and how many counts it took.
fn direct_check(spec: &CheckSpec) -> (Verdict, u64) {
    let counts = Cell::new(0u64);
    let verdict = spec
        .try_check_prepared::<Infallible>(&|p, d| {
            counts.set(counts.get() + 1);
            Ok(CountRequest::prepared(p, d).count())
        })
        .expect("the spec is supported");
    (verdict, counts.get())
}

#[test]
fn a_check_counts_on_the_kernels_and_memoizes_only_its_verdict() {
    let spec = unknown_ucq_spec(&digraph_schema());
    let (want, counts) = direct_check(&spec);
    assert!(matches!(want, Verdict::Unknown { .. }), "the search must run dry: {want}");

    let dir = std::env::temp_dir().join(format!("bagcq-check-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(MemoStore::open(&dir).expect("open the store"));
    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        cross_validate: true,
        store: Some(Arc::clone(&store)),
        ..EngineConfig::default()
    });
    let got = engine.run(Job::check(spec));
    assert_eq!(got.as_verdict().map(verdict_shape), Some(verdict_shape(&want)));
    let m = engine.metrics();
    // The verdict is the memo's one entry; its counts left none behind.
    assert_eq!((engine.cache_entries(), m.cache_misses, m.cache_hits), (1, 1, 0), "{m}");
    // Only counts are persisted, and the job's one outcome is a verdict.
    assert_eq!(store.stats().appends, 0);
    // Every count the search made ran on both kernels.
    assert_eq!(m.cross_validations, counts);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checks_counts_pass_the_engine_count_checkpoint() {
    // Every checkpoint fires a panic until the plan's cap is spent. A
    // check's first checkpoint is its first count's `engine/count`: one
    // fault is absorbed by the hop to the backtracker, and two fail the
    // job with that site's panic.
    let spec = unknown_ucq_spec(&digraph_schema());
    let (want, _) = direct_check(&spec);
    for max_faults in [1, 2] {
        let plan = FaultPlan::seeded(42)
            .with_kinds(&[FaultKind::Panic])
            .with_rate_per_mille(1000)
            .with_max_faults(max_faults);
        let injector = FaultInjector::new(plan);
        let engine = EvalEngine::new(EngineConfig {
            workers: 1,
            fault: Some(Arc::clone(&injector)),
            ..EngineConfig::default()
        });
        match (max_faults, engine.run(Job::check(spec.clone()))) {
            (1, Outcome::Verdict(v)) => assert_eq!(verdict_shape(&v), verdict_shape(&want)),
            (2, Outcome::Panicked(msg)) => assert!(msg.contains("engine/count"), "{msg}"),
            (_, other) => panic!("{max_faults} faults: unexpected outcome {other:?}"),
        }
        assert_eq!(injector.injected(), max_faults);
        assert_eq!(engine.cache_entries(), usize::from(max_faults == 1));
    }
}
