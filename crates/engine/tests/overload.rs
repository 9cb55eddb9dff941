//! Overload suite: the engine's byte budget and its drain.
//!
//! The properties, per the E-OVERLOAD experiment:
//!
//! 1. the byte budget fails `Nat`-heavy evaluations with a typed error
//!    (never an allocator abort), and releases its reservations; one
//!    caller's denials never fail another caller's job that fits;
//! 2. `drain(deadline)`, started while some callers evaluate and others
//!    wait for a slot, resolves every job to exactly one outcome and
//!    returns by its deadline, under fault injection too.

use bagcq_engine::{
    EngineConfig, EngineHealth, EvalEngine, FaultInjector, FaultKind, FaultPlan, Job, Outcome,
    ShedReason,
};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{cycle_query, grid_query, path_query, Query};
use bagcq_structure::{Schema, Structure, StructureGen};
use std::sync::Arc;
use std::time::Duration;

fn digraph(extra_vertices: u32, seed: u64) -> (Arc<Schema>, Arc<Structure>) {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();
    let gen = StructureGen { extra_vertices, density: 0.4, ..StructureGen::default() };
    let d = Arc::new(gen.sample(&schema, seed));
    (schema, d)
}

/// A fault plan whose only faults are `n` stalls of `latency`, at the
/// first checkpoints it sees.
fn stalls(n: u64, latency: Duration) -> Arc<FaultInjector> {
    FaultInjector::new(FaultPlan {
        latency,
        ..FaultPlan::seeded(0)
            .with_kinds(&[FaultKind::Latency])
            .with_rate_per_mille(1000)
            .with_max_faults(n)
    })
}

/// Property 1: a starved byte budget fails the evaluation with the typed
/// `MemoryBudgetExceeded` cancellation, which surfaces as
/// [`Outcome::MemoryBudgetExceeded`] after the fallback hop — on a caller
/// of `run` and in a batch alike — and the denials show up in the
/// metrics, counted apart from panics.
#[test]
fn starved_memory_budget_fails_typed() {
    let (schema, d) = digraph(5, 3);
    let q = path_query(&schema, "E", 2);

    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        memory_budget_bytes: 1, // any component count (≥ 8 bytes) is refused
        ..EngineConfig::default()
    });
    let job = Job::count(q, d);
    for out in [engine.run(job.clone()), engine.submit_batch([job]).remove(0).wait()] {
        match out {
            Outcome::MemoryBudgetExceeded => {}
            other => panic!("expected a typed budget failure, got {other:?}"),
        }
    }
    let m = engine.metrics();
    assert!(m.mem_denials > 0, "denials must be accounted: {m}");
    assert_eq!((m.jobs_over_budget, m.jobs_panicked), (2, 0), "{m}");
    assert_eq!(m.fallbacks_taken, 2, "each evaluation takes the naive fallback hop once");
}

/// Property 1 across callers: the engine keeps no failure state between
/// jobs, so five counts that overflow a 64-byte budget leave the next
/// caller's count, which fits it, to answer exactly.
#[test]
fn a_budget_denial_cannot_deny_anyone_else() {
    let (schema, d) = digraph(5, 3);
    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        memory_budget_bytes: 64,
        ..EngineConfig::default()
    });
    // `(one edge)↑k` has k components, each charging 8 bytes in both
    // kernels, so k ≥ 9 overflows 64 bytes, also after the hop.
    let edge = path_query(&schema, "E", 1);
    for k in 9..=13 {
        match engine.run(Job::count(edge.power(k), Arc::clone(&d))) {
            Outcome::MemoryBudgetExceeded => {}
            other => panic!("k={k}: expected a typed budget failure, got {other:?}"),
        }
    }
    let q = path_query(&schema, "E", 2);
    let want = CountRequest::new(&q, &d).count();
    let out = engine.run(Job::count(q, d));
    assert_eq!(out.as_count(), Some(&want), "another caller's denials failed this count: {out:?}");
}

/// A generous byte budget changes nothing about the answers, and every
/// reservation is released once the work is done.
#[test]
fn generous_memory_budget_is_transparent_and_released() {
    let (schema, d) = digraph(5, 3);
    let engine = EvalEngine::new(EngineConfig {
        workers: 2,
        memory_budget_bytes: 1 << 20,
        ..EngineConfig::default()
    });
    for k in 1..=3 {
        let q = path_query(&schema, "E", k);
        let want = CountRequest::new(&q, &d).count();
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
    let want = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();

    let engine = EvalEngine::new(EngineConfig {
        workers: 1,
        memory_budget_bytes: 16 << 10,
        ..EngineConfig::default()
    });
    let out = engine.run(Job::count_with(BackendChoice::Treewidth, q, d));
    assert_eq!(out.as_count(), Some(&want), "the fallback must answer exactly");
    let m = engine.metrics();
    assert_eq!(m.fallbacks_taken, 1, "the DP's tables must outgrow the budget: {m}");
    assert!(m.mem_denials > 0, "denials must be accounted: {m}");
    assert_eq!(m.mem_used_bytes, 0, "scopes must release what they charged: {m}");
}

/// Property 2, clean half: a drain started while both slots are held by
/// 200 ms stalls and the other callers wait for one finishes the stalled
/// evaluations, sheds the waiting callers, meets its deadline, and leaves
/// the engine terminally draining.
#[test]
fn drain_resolves_every_job_and_meets_its_deadline() {
    let (schema, d) = digraph(5, 42);
    let engine = EvalEngine::new(EngineConfig {
        workers: 2,
        fault: Some(stalls(2, Duration::from_millis(200))),
        ..EngineConfig::default()
    });
    let queries: Vec<Query> = (0..40).map(|i| path_query(&schema, "E", 1 + (i % 3))).collect();
    let timeout = Duration::from_secs(5);
    let (outcomes, report) = std::thread::scope(|s| {
        let engine = &engine;
        let callers: Vec<_> = queries
            .iter()
            .map(|q| {
                let job = Job::count(q.clone(), Arc::clone(&d));
                s.spawn(move || engine.run(job))
            })
            .collect();
        while engine.metrics().queue_depth == 0 {
            std::thread::yield_now();
        }
        let report = engine.drain(timeout);
        let outcomes: Vec<Outcome> =
            callers.into_iter().map(|c| c.join().expect("caller returns")).collect();
        (outcomes, report)
    });

    assert!(report.met_deadline, "drain blew its deadline: {report:?}");
    assert!(report.elapsed <= timeout);
    assert_eq!(report.stragglers, 0, "drain lost jobs: {report:?}");
    assert_eq!(engine.health(), EngineHealth::Draining);

    // Exactly one outcome per job: a served count is the direct count,
    // and every other job is shed as draining.
    let (mut served, mut shed) = (0u64, 0u64);
    for (q, out) in queries.iter().zip(&outcomes) {
        match out {
            Outcome::Count(n) => {
                assert_eq!(n, &CountRequest::new(q, &d).count(), "a served count is wrong");
                served += 1;
            }
            Outcome::Shed(ShedReason::Draining) => shed += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(served > 0 && shed > 0, "the drain finished or shed nothing: {report:?}");
    assert_eq!(report.shed, shed, "{report:?}");
    let m = engine.metrics();
    assert_eq!(m.jobs_completed, m.jobs_submitted);

    // Terminal: post-drain submissions shed immediately with Draining.
    let late = engine.submit(Job::count(path_query(&schema, "E", 1), Arc::clone(&d)));
    assert_eq!(late.wait().as_shed(), Some(ShedReason::Draining));
}

/// Property 2, chaos half: under deterministic fault injection (the CI
/// matrix pins seeds 1/7/42 via `BAGCQ_CHAOS_SEED`), a drain started
/// mid-burst still resolves every job to exactly one outcome and returns
/// by its deadline. The plan's own stalls are short and seeded, so doomed
/// counts fill the slots instead: each holds one until a panic frees it
/// or the drain hard-stops it.
#[test]
fn drain_never_loses_jobs_under_chaos() {
    let seed: u64 =
        std::env::var("BAGCQ_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    for round_seed in [seed, seed.wrapping_add(1)] {
        let (schema, d) = digraph(5, round_seed);
        // Dense 9-vertex digraph + 12-step path on the backtracker: ~9^13
        // steps, effectively unbounded without cancellation.
        let gen = StructureGen { extra_vertices: 9, density: 0.9, ..StructureGen::default() };
        let dense = Arc::new(gen.sample(&schema, round_seed));
        let doomed = Job::count_with(BackendChoice::Naive, path_query(&schema, "E", 12), dense);
        let injector = FaultInjector::new(FaultPlan::seeded(round_seed).with_rate_per_mille(120));
        let engine = EvalEngine::new(EngineConfig {
            workers: 3,
            fault: Some(injector),
            ..EngineConfig::default()
        });
        let timeout = Duration::from_secs(2);
        let (outcomes, report) = std::thread::scope(|s| {
            let engine = &engine;
            let mut callers: Vec<_> = (0..30)
                .map(|i| {
                    let q: Query = if i % 4 == 3 {
                        cycle_query(&schema, "E", 3)
                    } else {
                        path_query(&schema, "E", 1 + (i % 3))
                    };
                    let job = Job::count(q, Arc::clone(&d)).with_timeout(Duration::from_secs(10));
                    s.spawn(move || engine.run(job))
                })
                .collect();
            // One doomed caller at a time until one has to wait for a
            // slot; the plan's fault cap bounds how many panics free one.
            while engine.metrics().queue_depth == 0 {
                let accepted = engine.metrics().jobs_submitted;
                let job = doomed.clone();
                callers.push(s.spawn(move || engine.run(job)));
                while engine.metrics().jobs_submitted == accepted {
                    std::thread::yield_now();
                }
            }
            let report = engine.drain(timeout);
            let outcomes: Vec<Outcome> =
                callers.into_iter().map(|c| c.join().expect("caller returns")).collect();
            (outcomes, report)
        });
        assert!(report.met_deadline, "seed {round_seed}: drain blew its deadline: {report:?}");
        assert_eq!(report.stragglers, 0, "seed {round_seed}: drain lost jobs: {report:?}");
        assert!(report.shed > 0, "seed {round_seed}: no caller waited for a slot: {report:?}");
        for outcome in &outcomes {
            // Exactly one of the typed terminal states; the content of
            // completed outcomes is covered by the chaos suite.
            match outcome {
                Outcome::Count(_)
                | Outcome::Power(_)
                | Outcome::Verdict(_)
                | Outcome::TimedOut
                | Outcome::Panicked(_)
                | Outcome::MemoryBudgetExceeded
                | Outcome::Shed(_) => {}
            }
        }
        let m = engine.metrics();
        assert_eq!(
            m.jobs_completed, m.jobs_submitted,
            "seed {round_seed}: accounting imbalance: {m}"
        );
        let late = engine.run(Job::count(path_query(&schema, "E", 1), Arc::clone(&d)));
        assert_eq!(late.as_shed(), Some(ShedReason::Draining), "seed {round_seed}");
    }
}
