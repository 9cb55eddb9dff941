//! Supervision suite: worker threads die mid-job and the engine recovers.
//!
//! [`FaultKind::WorkerKill`] is the opt-in chaos kind whose marker panic
//! the engine deliberately re-raises past its `catch_unwind`, so the
//! worker *thread* dies while holding a job. The properties:
//!
//! 1. the supervisor notices the death, restarts the worker within its
//!    budget, and the pool returns to full strength and `Healthy`;
//! 2. the job the dead worker held is requeued and re-run — its count is
//!    bit-identical to a sequential evaluation (a kill never corrupts or
//!    loses an answer);
//! 3. with requeueing disabled, the job fails *typed* (`Panicked`) instead
//!    of hanging its waiter;
//! 4. with a zero restart budget, the pool degrades but keeps serving on
//!    the surviving workers.

use bagcq_engine::{
    BreakerConfig, EngineConfig, EngineHealth, EvalEngine, FaultInjector, FaultKind, FaultPlan,
    Job, Outcome, SupervisorConfig,
};
use bagcq_homcount::BackendChoice;
use bagcq_query::{path_query, Query};
use bagcq_structure::{Schema, Structure, StructureGen};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn digraph(extra_vertices: u32, seed: u64) -> (Arc<Schema>, Arc<Structure>) {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();
    let gen = StructureGen { extra_vertices, density: 0.4, ..StructureGen::default() };
    let d = Arc::new(gen.sample(&schema, seed));
    (schema, d)
}

/// A plan that kills worker threads and nothing else. The cap bounds how
/// many workers can die, so capped plans always let the workload finish.
fn kill_plan(seed: u64, max_kills: u64) -> Arc<FaultInjector> {
    FaultInjector::new(
        FaultPlan::seeded(seed)
            .with_kinds(&[FaultKind::WorkerKill])
            .with_rate_per_mille(1000)
            .with_max_faults(max_kills),
    )
}

fn supervisor(restart_budget: u32, requeue_on_death: bool) -> SupervisorConfig {
    SupervisorConfig {
        restart_budget,
        requeue_on_death,
        restart_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        poll_interval: Duration::from_millis(2),
    }
}

/// Polls until `pred` holds or the deadline passes; supervision acts on
/// its own thread, so tests observe it rather than drive it.
fn eventually(what: &str, deadline: Duration, mut pred: impl FnMut() -> bool) {
    let started = Instant::now();
    while !pred() {
        assert!(started.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Properties 1 + 2: a kill storm is survived — every job still resolves
/// to the sequential count, the deaths/restarts/requeues are accounted,
/// and the pool heals. The storm is capped at the engine's per-job death
/// budget (2): under an adversarial interleaving every kill can land on
/// re-runs of the *same* job, and a job that dies more often than that
/// deliberately fails typed instead of requeueing forever.
#[test]
fn worker_kills_are_survived_bit_identically() {
    let seed: u64 =
        std::env::var("BAGCQ_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let (schema, d) = digraph(5, seed);
    let queries: Vec<Query> = (1..=3).map(|k| path_query(&schema, "E", k)).collect();
    let want: Vec<_> =
        queries.iter().map(|q| bagcq_homcount::CountRequest::new(q, &d).count()).collect();

    let injector = kill_plan(seed, 2);
    let engine = EvalEngine::new(EngineConfig {
        workers: 3,
        supervisor: supervisor(8, true),
        breaker: BreakerConfig::disabled(),
        fault: Some(Arc::clone(&injector)),
        ..EngineConfig::default()
    });

    // Distinct fingerprints per submission (engine alternates) so kills
    // cannot hide behind cache hits.
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let backend = if i % 2 == 0 { BackendChoice::Naive } else { BackendChoice::Treewidth };
            engine.submit(Job::count_with(backend, queries[i % 3].clone(), Arc::clone(&d)))
        })
        .collect();
    for (i, handle) in handles.iter().enumerate() {
        assert_eq!(
            handle.wait().as_count(),
            Some(&want[i % 3]),
            "job {i} not bit-identical after worker kills"
        );
    }
    assert_eq!(injector.injected_of(FaultKind::WorkerKill), 2, "the kill storm never fired");

    let m = engine.metrics();
    assert_eq!(m.jobs_completed, m.jobs_submitted, "a kill lost a job: {m}");
    assert!(m.jobs_requeued >= 1, "a killed job must be requeued: {m}");
    eventually("the pool to heal", Duration::from_secs(10), || {
        engine.live_workers() == engine.worker_count() && engine.health() == EngineHealth::Healthy
    });
    let m = engine.metrics();
    assert!(m.worker_deaths >= 2, "deaths unaccounted: {m}");
    assert!(m.worker_restarts >= 2, "restarts unaccounted: {m}");
}

/// Property 3: with requeueing disabled the killed job's waiter is not
/// hung and not silently dropped — it gets a typed `Panicked` outcome.
#[test]
fn requeue_disabled_fails_the_killed_job_typed() {
    let (schema, d) = digraph(5, 7);
    let q = path_query(&schema, "E", 2);
    let want = bagcq_homcount::CountRequest::new(&q, &d).count();

    let engine = EvalEngine::new(EngineConfig {
        workers: 2,
        supervisor: supervisor(8, false),
        breaker: BreakerConfig::disabled(),
        fault: Some(kill_plan(7, 1)),
        ..EngineConfig::default()
    });

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let backend = if i % 2 == 0 { BackendChoice::Naive } else { BackendChoice::Treewidth };
            engine.submit(Job::count_with(backend, q.clone(), Arc::clone(&d)))
        })
        .collect();
    let mut died = 0u64;
    for handle in &handles {
        match handle.wait() {
            Outcome::Count(n) => assert_eq!(n, want),
            Outcome::Panicked(msg) => {
                assert!(msg.contains("worker died"), "untyped death message: {msg}");
                died += 1;
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(died, 1, "exactly the killed job must fail");
    let m = engine.metrics();
    assert_eq!(m.jobs_requeued, 0, "requeueing was disabled: {m}");
    assert_eq!(m.jobs_completed, m.jobs_submitted);
    eventually("the replacement worker", Duration::from_secs(10), || {
        engine.live_workers() == engine.worker_count()
    });
}

/// Property 4: a zero restart budget means a death permanently shrinks
/// the pool — the engine degrades (and says so) but keeps serving.
#[test]
fn exhausted_restart_budget_degrades_but_keeps_serving() {
    let (schema, d) = digraph(5, 11);
    let q = path_query(&schema, "E", 2);
    let want = bagcq_homcount::CountRequest::new(&q, &d).count();

    let engine = EvalEngine::new(EngineConfig {
        workers: 2,
        supervisor: supervisor(0, true),
        breaker: BreakerConfig::disabled(),
        fault: Some(kill_plan(11, 1)),
        ..EngineConfig::default()
    });

    // The first processed job draws the kill; it is requeued and re-run
    // by the surviving worker.
    let first = engine.submit(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)));
    assert_eq!(first.wait().as_count(), Some(&want));

    eventually("the death to be reaped", Duration::from_secs(10), || {
        let m = engine.metrics();
        m.worker_deaths >= 1 && m.health == EngineHealth::Degraded
    });
    let m = engine.metrics();
    assert_eq!(m.worker_restarts, 0, "restart budget was zero: {m}");
    assert_eq!(engine.live_workers(), 1);

    // Still serving, still correct, on the surviving worker.
    for k in 1..=3 {
        let q = path_query(&schema, "E", k);
        let want = bagcq_homcount::CountRequest::new(&q, &d).count();
        assert_eq!(
            engine
                .submit(Job::count_with(BackendChoice::Naive, q, Arc::clone(&d)))
                .wait()
                .as_count(),
            Some(&want)
        );
    }
}

/// Kills mixed into the full chaos cocktail: the chaos suite's core
/// property (completed outcomes bit-identical to a clean run) holds when
/// worker threads are dying too. Runs under the CI seed matrix via
/// `BAGCQ_CHAOS_SEED`.
#[test]
fn kills_mixed_with_chaos_keep_outcomes_clean() {
    let seed: u64 =
        std::env::var("BAGCQ_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let (schema, d) = digraph(5, seed);
    let queries: Vec<Query> = (1..=3).map(|k| path_query(&schema, "E", k)).collect();
    let want: Vec<_> =
        queries.iter().map(|q| bagcq_homcount::CountRequest::new(q, &d).count()).collect();

    let plan = FaultPlan::seeded(seed)
        .with_kinds(&[
            FaultKind::Panic,
            FaultKind::Latency,
            FaultKind::SpuriousCancel,
            FaultKind::TransientError,
            FaultKind::WorkerKill,
        ])
        .with_rate_per_mille(100)
        .with_max_faults(24);
    let engine = EvalEngine::new(EngineConfig {
        workers: 3,
        supervisor: supervisor(16, true),
        breaker: BreakerConfig::disabled(),
        fault: Some(FaultInjector::new(plan)),
        ..EngineConfig::default()
    });

    let handles: Vec<_> = (0..18)
        .map(|i| {
            let backend = if i % 2 == 0 { BackendChoice::Naive } else { BackendChoice::Treewidth };
            engine.submit(Job::count_with(backend, queries[i % 3].clone(), Arc::clone(&d)))
        })
        .collect();
    for (i, handle) in handles.iter().enumerate() {
        match handle.wait() {
            Outcome::Count(n) => assert_eq!(
                n,
                want[i % 3],
                "seed {seed}: completed outcome {i} not bit-identical under chaos"
            ),
            // Retries absorb most faults; what they cannot absorb must
            // still resolve typed, never hang or vanish.
            Outcome::TimedOut | Outcome::Panicked(_) => {}
            other => panic!("seed {seed}: unexpected outcome: {other:?}"),
        }
    }
    let m = engine.metrics();
    assert_eq!(m.jobs_completed, m.jobs_submitted, "seed {seed}: lost a job: {m}");
}
