//! Overload suite: the serving layer under burst load.
//!
//! The properties, per the E-OVERLOAD experiment:
//!
//! 1. submitting far more work than the bounded queue holds neither hangs
//!    nor grows memory without bound — the excess is shed with a typed
//!    [`Outcome::Shed`], and every shed is accounted in the metrics;
//! 2. every job the engine *does* admit produces a count bit-identical to
//!    a sequential evaluation — load shedding never corrupts answers;
//! 3. the byte budget fails `Nat`-heavy evaluations with a typed error
//!    (never an allocator abort), and releases its reservations;
//! 4. `drain(deadline)` resolves every submitted job to exactly one
//!    outcome and returns by its deadline, under fault injection too.

use bagcq_engine::{
    AdmissionConfig, AdmissionPolicy, BreakerConfig, EngineConfig, EngineHealth, EvalEngine,
    FaultInjector, FaultKind, FaultPlan, Job, Outcome, ShedReason, SupervisorConfig,
};
use bagcq_homcount::BackendChoice;
use bagcq_query::{cycle_query, grid_query, path_query, Query};
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

/// A fault plan whose only effect is to stall the first worker checkpoint
/// for `stall` — a deterministic way to keep the (single) worker busy
/// while the test floods the queue.
fn stall_plan(stall: Duration) -> Arc<FaultInjector> {
    FaultInjector::new(FaultPlan {
        latency: stall,
        ..FaultPlan::seeded(0)
            .with_kinds(&[FaultKind::Latency])
            .with_rate_per_mille(1000)
            .with_max_faults(1)
    })
}

/// Fast supervision timings so tests never wait on default polling.
fn quick_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        poll_interval: Duration::from_millis(2),
        restart_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        ..SupervisorConfig::default()
    }
}

/// Property 1 + 2: a 10×-capacity burst of deadline-carrying jobs
/// terminates, sheds the excess with typed outcomes, accounts every shed,
/// and the admitted jobs' counts are bit-identical to a sequential run.
#[test]
fn burst_of_ten_times_capacity_sheds_and_stays_correct() {
    const CAPACITY: usize = 8;
    let (schema, d) = digraph(5, 42);
    let q = path_query(&schema, "E", 2);
    let want = bagcq_homcount::CountRequest::new(&q, &d).count();

    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        admission: AdmissionConfig { capacity: CAPACITY, policy: AdmissionPolicy::RejectNewest },
        supervisor: quick_supervisor(),
        breaker: BreakerConfig::disabled(),
        fault: Some(stall_plan(Duration::from_millis(80))),
        ..EngineConfig::default()
    });

    // The plug job occupies the worker for the stall; everything after it
    // competes for the CAPACITY queue slots.
    let plug = engine.submit(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)));
    let burst: Vec<_> = (0..10 * CAPACITY)
        .map(|_| {
            engine.submit(
                Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d))
                    .with_timeout(Duration::from_secs(30)),
            )
        })
        .collect();

    assert_eq!(plug.wait().as_count(), Some(&want));
    let mut shed = 0u64;
    for handle in &burst {
        match handle.wait() {
            Outcome::Count(n) => assert_eq!(n, want, "admitted job corrupted under overload"),
            Outcome::Shed(ShedReason::QueueFull) => shed += 1,
            other => panic!("unexpected outcome under RejectNewest burst: {other:?}"),
        }
    }
    assert!(
        shed >= (9 * CAPACITY) as u64,
        "a single stalled worker cannot have served the burst: shed={shed}"
    );

    let m = engine.metrics();
    assert_eq!(m.jobs_submitted, 1 + 10 * CAPACITY as u64);
    assert_eq!(m.jobs_completed, m.jobs_submitted, "every job must resolve");
    assert_eq!(m.jobs_shed, shed, "metrics must account every shed");
    assert!(
        m.queue_high_water <= CAPACITY as u64,
        "bounded queue exceeded its capacity: {}",
        m.queue_high_water
    );
}

/// [`AdmissionPolicy::Block`] pushes back on the submitter and resolves a
/// hopeless wait as a typed [`ShedReason::AdmissionTimeout`].
#[test]
fn block_policy_backpressures_then_times_out() {
    let (schema, d) = digraph(5, 7);
    let q = path_query(&schema, "E", 2);
    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        admission: AdmissionConfig {
            capacity: 1,
            policy: AdmissionPolicy::Block { max_wait: Duration::from_millis(40) },
        },
        supervisor: quick_supervisor(),
        breaker: BreakerConfig::disabled(),
        fault: Some(stall_plan(Duration::from_millis(300))),
        ..EngineConfig::default()
    });

    // Worker stalls on the plug; the queue holds one more; the third
    // submission blocks for its max_wait and gets the typed timeout.
    let plug = engine.submit(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)));
    let queued = engine.submit(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)));
    let started = Instant::now();
    let refused = engine.submit(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)));
    let waited = started.elapsed();
    assert_eq!(
        refused.wait().as_shed(),
        Some(ShedReason::AdmissionTimeout),
        "a full queue under Block must shed with the typed timeout"
    );
    assert!(waited >= Duration::from_millis(30), "Block must actually wait: {waited:?}");

    // Once the stall clears, a blocking submission waits and succeeds —
    // counted as backpressure, not a shed.
    assert!(!plug.wait().is_failure());
    assert!(!queued.wait().is_failure());
    let m = engine.metrics();
    assert_eq!(m.jobs_shed, 1);
}

/// [`AdmissionPolicy::ShedExpired`] drops jobs whose deadline passed
/// while they sat queued, at dequeue, without burning the worker on them.
#[test]
fn shed_expired_drops_stale_queued_jobs() {
    let (schema, d) = digraph(5, 11);
    let q = path_query(&schema, "E", 2);
    let want = bagcq_homcount::CountRequest::new(&q, &d).count();
    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        admission: AdmissionConfig { capacity: 0, policy: AdmissionPolicy::ShedExpired },
        supervisor: quick_supervisor(),
        breaker: BreakerConfig::disabled(),
        fault: Some(stall_plan(Duration::from_millis(120))),
        ..EngineConfig::default()
    });

    let plug = engine.submit(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)));
    // These expire long before the stall clears.
    let stale: Vec<_> = (0..4)
        .map(|_| {
            engine.submit(
                Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d))
                    .with_timeout(Duration::from_millis(5)),
            )
        })
        .collect();
    // A fresh job behind them still gets served.
    let fresh = engine.submit(Job::count_with(BackendChoice::Naive, q.clone(), Arc::clone(&d)));

    assert_eq!(plug.wait().as_count(), Some(&want));
    for handle in &stale {
        assert_eq!(
            handle.wait().as_shed(),
            Some(ShedReason::ExpiredAtDequeue),
            "a queued job past its deadline must be shed at dequeue"
        );
    }
    assert_eq!(fresh.wait().as_count(), Some(&want));
    assert_eq!(engine.metrics().jobs_shed, 4);
}

/// Property 3: a starved byte budget fails the evaluation with the typed
/// `MemoryBudgetExceeded` cancellation, which surfaces as
/// [`Outcome::Panicked`] with a budget message after the fallback hop —
/// on a caller of `run` and through the pool alike — and the denials show
/// up in the metrics.
#[test]
fn starved_memory_budget_fails_typed() {
    let (schema, d) = digraph(5, 3);
    let q = path_query(&schema, "E", 2);

    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        memory_budget_bytes: 1, // any component count (≥ 8 bytes) is refused
        supervisor: quick_supervisor(),
        breaker: BreakerConfig::disabled(),
        ..EngineConfig::default()
    });
    let job = Job::count(q, d);
    for out in [engine.run(job.clone()), engine.submit(job).wait()] {
        match out {
            Outcome::Panicked(msg) => {
                assert!(msg.contains("memory budget"), "untyped failure message: {msg}")
            }
            other => panic!("expected a typed budget failure, got {other:?}"),
        }
    }
    let m = engine.metrics();
    assert!(m.mem_denials > 0, "denials must be accounted: {m}");
    assert_eq!(m.fallbacks_taken, 2, "each evaluation takes the naive fallback hop once");
}

/// A generous byte budget changes nothing about the answers, and every
/// reservation is released once the work is done.
#[test]
fn generous_memory_budget_is_transparent_and_released() {
    let (schema, d) = digraph(5, 3);
    let engine = EvalEngine::new(EngineConfig {
        workers: 2,
        memory_budget_bytes: 1 << 20,
        supervisor: quick_supervisor(),
        ..EngineConfig::default()
    });
    for k in 1..=3 {
        let q = path_query(&schema, "E", k);
        let want = bagcq_homcount::CountRequest::new(&q, &d).count();
        assert_eq!(engine.submit(Job::count(q, Arc::clone(&d))).wait().as_count(), Some(&want));
    }
    let m = engine.metrics();
    assert!(m.mem_high_water_bytes > 0, "the budget was never charged: {m}");
    assert_eq!(m.mem_used_bytes, 0, "scopes must release what they charged: {m}");
    assert_eq!(m.mem_denials, 0);
}

/// The treewidth DP charges its tables to the byte budget as they grow,
/// so a count whose tables outgrow a small budget takes the fallback hop
/// to the backtracker, which holds no tables, and still answers exactly.
#[test]
fn dp_tables_are_charged_and_outgrowing_the_budget_falls_back() {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();
    let gen = StructureGen {
        extra_vertices: 16,
        density: 0.2,
        max_tuples_per_relation: 256,
        diagonal_density: 0.1,
    };
    let d = Arc::new(gen.sample(&schema, 7));
    let q = grid_query(&schema, "E", 3, 3);
    let want = bagcq_homcount::CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();

    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        memory_budget_bytes: 16 << 10,
        supervisor: quick_supervisor(),
        breaker: BreakerConfig::disabled(),
        ..EngineConfig::default()
    });
    let out = engine.run(Job::count_with(BackendChoice::Treewidth, q, d));
    assert_eq!(out.as_count(), Some(&want), "the fallback must answer exactly");
    let m = engine.metrics();
    assert_eq!(m.fallbacks_taken, 1, "the DP's tables must outgrow the budget: {m}");
    assert!(m.mem_denials > 0, "denials must be accounted: {m}");
    assert_eq!(m.mem_used_bytes, 0, "scopes must release what they charged: {m}");
}

/// Property 4, clean half: drain resolves everything, meets its
/// deadline, and leaves the engine terminally draining.
#[test]
fn drain_resolves_every_job_and_meets_its_deadline() {
    let (schema, d) = digraph(5, 42);
    let engine = EvalEngine::new(EngineConfig {
        workers: 2,
        admission: AdmissionConfig { capacity: 4, policy: AdmissionPolicy::RejectNewest },
        supervisor: quick_supervisor(),
        breaker: BreakerConfig::disabled(),
        ..EngineConfig::default()
    });
    let handles: Vec<_> = (0..40)
        .map(|i| {
            let q = path_query(&schema, "E", 1 + (i % 3));
            engine.submit(Job::count(q, Arc::clone(&d)))
        })
        .collect();
    let timeout = Duration::from_secs(5);
    let report = engine.drain(timeout);

    assert!(report.met_deadline, "drain blew its deadline: {report:?}");
    assert!(report.elapsed <= timeout);
    assert_eq!(report.stragglers, 0, "drain lost jobs: {report:?}");
    assert_eq!(engine.health(), EngineHealth::Draining);

    // Exactly-one-outcome: every handle is resolved (shed or completed).
    for handle in &handles {
        assert!(handle.try_wait().is_some(), "drain left a job unresolved");
    }
    let m = engine.metrics();
    assert_eq!(m.jobs_completed, m.jobs_submitted);

    // Terminal: post-drain submissions shed immediately with Draining.
    let late = engine.submit(Job::count(path_query(&schema, "E", 1), Arc::clone(&d)));
    assert_eq!(late.wait().as_shed(), Some(ShedReason::Draining));
}

/// Property 4, chaos half: under deterministic fault injection (the CI
/// matrix pins seeds 1/7/42 via `BAGCQ_CHAOS_SEED`), a drain mid-burst
/// still resolves every job to exactly one outcome and returns by its
/// deadline.
#[test]
fn drain_never_loses_jobs_under_chaos() {
    let seed: u64 =
        std::env::var("BAGCQ_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    for round_seed in [seed, seed.wrapping_add(1)] {
        let (schema, d) = digraph(5, round_seed);
        let injector = FaultInjector::new(FaultPlan::seeded(round_seed).with_rate_per_mille(120));
        let engine = EvalEngine::new(EngineConfig {
            workers: 3,
            admission: AdmissionConfig { capacity: 6, policy: AdmissionPolicy::ShedExpired },
            supervisor: quick_supervisor(),
            breaker: BreakerConfig::disabled(),
            fault: Some(injector),
            ..EngineConfig::default()
        });
        let mut handles = Vec::new();
        for i in 0..30 {
            let q: Query = if i % 4 == 3 {
                cycle_query(&schema, "E", 3)
            } else {
                path_query(&schema, "E", 1 + (i % 3))
            };
            handles.push(
                engine.submit(Job::count(q, Arc::clone(&d)).with_timeout(Duration::from_secs(10))),
            );
        }
        let timeout = Duration::from_secs(10);
        let report = engine.drain(timeout);
        assert!(report.met_deadline, "seed {round_seed}: drain blew its deadline: {report:?}");
        assert_eq!(report.stragglers, 0, "seed {round_seed}: drain lost jobs: {report:?}");
        for (i, handle) in handles.iter().enumerate() {
            let outcome = handle
                .try_wait()
                .unwrap_or_else(|| panic!("seed {round_seed}: job {i} left unresolved by drain"));
            // Exactly one of the typed terminal states; the content of
            // completed outcomes is covered by the chaos suite.
            match outcome {
                Outcome::Count(_)
                | Outcome::Power(_)
                | Outcome::Verdict(_)
                | Outcome::TimedOut
                | Outcome::Panicked(_)
                | Outcome::FailedFast(_)
                | Outcome::Shed(_) => {}
            }
        }
        let m = engine.metrics();
        assert_eq!(
            m.jobs_completed, m.jobs_submitted,
            "seed {round_seed}: accounting imbalance: {m}"
        );
    }
}
