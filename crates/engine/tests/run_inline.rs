//! `EvalEngine::run`: a job evaluated on the calling thread.
//!
//! The properties:
//!
//! 1. `run` and `submit(..).wait()` give identical outcomes and identical
//!    job and memo accounting (`submit` evaluates through `run`'s path);
//! 2. at most `workers` evaluations run at once, whether their callers
//!    use `run` or `submit_batch`, and a caller blocked on a slot counts
//!    in `queue_depth` and `queue_high_water`;
//! 3. a drain sheds callers without a slot and waits for callers with
//!    one;
//! 4. an evaluation panic gets one attempt per rung — one on the job's
//!    kernel, one after the hop to the naive engine — on a caller of
//!    `run` and in a batch alike, and never unwinds into the caller.

use bagcq_arith::Nat;
use bagcq_containment::{CheckRequest, Semantics, Verdict};
use bagcq_engine::{
    EngineConfig, EvalEngine, FaultInjector, FaultKind, FaultPlan, Job, Outcome, ShedReason,
};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{cycle_query, path_query, PowerQuery, Query};
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

fn outcome_key(o: &Outcome) -> String {
    match o {
        Outcome::Count(n) => format!("count:{n:?}"),
        Outcome::Power(m) => format!("power:{m:?}"),
        Outcome::Verdict(v) => match v.as_ref() {
            Verdict::Proved(c) => format!("proved:{c:?}"),
            Verdict::Refuted(c) => format!("refuted:{:?}:{:?}", c.count_s, c.count_b),
            Verdict::Unknown { candidates_checked } => format!("unknown:{candidates_checked}"),
        },
        fail => format!("fail:{fail:?}"),
    }
}

/// A fault plan that fires `faults` faults of `kind` at the first
/// checkpoints it sees.
fn plan(kind: FaultKind, faults: u64, latency: Duration) -> Arc<FaultInjector> {
    FaultInjector::new(FaultPlan {
        latency,
        ..FaultPlan::seeded(0).with_kinds(&[kind]).with_rate_per_mille(1000).with_max_faults(faults)
    })
}

fn engine_with(workers: usize, fault: Option<Arc<FaultInjector>>) -> EvalEngine {
    EvalEngine::new(EngineConfig { workers, fault, ..EngineConfig::default() })
}

#[test]
fn run_matches_submit_in_outcomes_and_accounting() {
    let (schema, d) = digraph(5, 42);
    let p2 = path_query(&schema, "E", 2);
    let p3 = path_query(&schema, "E", 3);
    let c3 = cycle_query(&schema, "E", 3);
    let jobs = vec![
        Job::count(p2.clone(), Arc::clone(&d)),
        Job::count_with(BackendChoice::Naive, c3.clone(), Arc::clone(&d)),
        Job::eval_power(PowerQuery::power(p2.clone(), Nat::from_u64(3)), Arc::clone(&d)),
        Job::check(CheckRequest::new(&p2, &p3).into_spec()),
        Job::check(CheckRequest::new(&c3, &p2).semantics(Semantics::Set).into_spec()),
        // A repeat: answered from the memo on both paths.
        Job::count(p2, Arc::clone(&d)),
    ];
    let inline = engine_with(2, None);
    let submitted = engine_with(2, None);
    for job in &jobs {
        let a = inline.run(job.clone());
        let b = submitted.submit(job.clone()).wait();
        assert!(!a.is_failure(), "{} failed: {a:?}", job.spec.kind());
        assert_eq!(outcome_key(&a), outcome_key(&b), "{} diverges", job.spec.kind());
    }
    let (a, b) = (inline.metrics(), submitted.metrics());
    assert_eq!(a.jobs_submitted, jobs.len() as u64);
    assert_eq!(
        (a.jobs_submitted, a.jobs_completed, a.cache_hits, a.cache_misses),
        (b.jobs_submitted, b.jobs_completed, b.cache_hits, b.cache_misses),
        "run must account exactly as submit does"
    );
    assert!(a.cache_hits > 0, "the repeated job must hit the memo: {a}");
    assert_eq!(a.latency_count(), jobs.len() as u64);
}

/// One slot and two 100 ms stalls: two concurrent callers can only take
/// the stalls one after the other, whether the second caller runs its job
/// or submits it as a one-job batch, and the one that waits for the slot
/// shows in `queue_high_water`. Given a second slot the stalls would
/// overlap and finish in about one stall.
#[test]
fn one_slot_serializes_concurrent_callers() {
    let stall = Duration::from_millis(100);
    let (schema, d) = digraph(5, 7);
    let queries: Vec<Query> = (1..=2).map(|k| path_query(&schema, "E", k)).collect();
    for batch in [false, true] {
        let engine = engine_with(1, Some(plan(FaultKind::Latency, 2, stall)));
        let job = |q: &Query| Job::count(q.clone(), Arc::clone(&d));
        let started = Instant::now();
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let first = s.spawn(|| engine.run(job(&queries[0])));
            let second = s.spawn(|| {
                if batch {
                    engine.submit_batch([job(&queries[1])]).remove(0).wait()
                } else {
                    engine.run(job(&queries[1]))
                }
            });
            [first, second].into_iter().map(|c| c.join().expect("caller returns")).collect()
        });
        let elapsed = started.elapsed();
        for (q, out) in queries.iter().zip(&outcomes) {
            assert_eq!(out.as_count(), Some(&CountRequest::new(q, &d).count()), "batch={batch}");
        }
        assert!(
            elapsed >= 2 * stall,
            "batch={batch}: two stalls overlapped in {elapsed:?}: more than one evaluation at once"
        );
        let m = engine.metrics();
        assert_eq!(m.queue_high_water, 1, "batch={batch}: one caller waited for the slot: {m}");
        assert_eq!(m.queue_depth, 0, "batch={batch}: {m}");
    }
}

#[test]
fn drain_sheds_callers_without_a_slot_and_waits_for_the_rest() {
    let (schema, d) = digraph(5, 1);
    // The stall keeps the first caller in its slot while the second
    // arrives and the drain starts.
    let injector = plan(FaultKind::Latency, 1, Duration::from_millis(300));
    let engine = engine_with(1, Some(Arc::clone(&injector)));
    let q = path_query(&schema, "E", 2);
    let want = CountRequest::new(&q, &d).count();
    let (in_flight, waiting, report) = std::thread::scope(|s| {
        let in_flight = s.spawn(|| engine.run(Job::count(q.clone(), Arc::clone(&d))));
        // The stall has fired: the first caller holds the only slot.
        while injector.injected() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waiting =
            s.spawn(|| engine.run(Job::count(cycle_query(&schema, "E", 3), Arc::clone(&d))));
        // The second caller is blocked on the slot.
        while engine.metrics().queue_depth == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = engine.drain(Duration::from_secs(5));
        (in_flight.join().expect("returns"), waiting.join().expect("returns"), report)
    });
    assert_eq!(in_flight.as_count(), Some(&want), "the evaluating caller finishes");
    assert_eq!(waiting.as_shed(), Some(ShedReason::Draining));
    assert_eq!((report.completed, report.shed, report.stragglers), (2, 1, 0), "{report:?}");

    let late = engine.run(Job::count(q, d));
    assert_eq!(late.as_shed(), Some(ShedReason::Draining), "a run after drain is shed");
    let m = engine.metrics();
    assert_eq!(m.jobs_shed, 2);
    assert_eq!(m.jobs_completed, m.jobs_submitted);
}

#[test]
fn a_panic_gets_one_attempt_per_rung_and_never_unwinds_into_the_caller() {
    let (schema, d) = digraph(5, 3);
    let q = path_query(&schema, "E", 2);
    let want = CountRequest::new(&q, &d).count();
    // (panics allowed, 0 = uncapped; backend; faults fired; hops taken)
    let cases = [
        (0, BackendChoice::Naive, 1, 0),
        (0, BackendChoice::Auto, 2, 1),
        (1, BackendChoice::Auto, 1, 1),
    ];
    for batch in [false, true] {
        for (cap, backend, fired, hops) in cases {
            let injector = plan(FaultKind::Panic, cap, Duration::ZERO);
            let engine = engine_with(1, Some(Arc::clone(&injector)));
            let job = Job::count_with(backend, q.clone(), Arc::clone(&d));
            let out = if batch {
                engine.submit_batch([job]).remove(0).wait()
            } else {
                std::thread::scope(|s| s.spawn(|| engine.run(job)).join())
                    .expect("the calling thread returns")
            };
            let case = format!("batch={batch} cap={cap} {backend:?}");
            if cap == 0 {
                assert!(matches!(out, Outcome::Panicked(_)), "{case}: {out:?}");
            } else {
                assert_eq!(out.as_count(), Some(&want), "{case}");
            }
            assert_eq!(injector.injected(), fired, "{case}: one attempt per rung");
            let m = engine.metrics();
            assert_eq!(m.fallbacks_taken, hops, "{case}: {m}");
            assert_eq!(m.jobs_panicked, u64::from(cap == 0), "{case}: {m}");
        }
    }
}
