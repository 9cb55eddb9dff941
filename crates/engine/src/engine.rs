//! The one evaluation path, the worker pool, the serving layer, and
//! failure classification.
//!
//! [`EvalEngine::run`] takes a job through its whole life on the calling
//! thread. [`EvalEngine::submit`] queues it instead for a fixed pool of
//! named worker threads, started by the first submission, which run the
//! same private evaluation and publish the outcome to a [`JobHandle`].
//! Each evaluation:
//!
//! 1. resolves a job whose deadline already passed (while it sat queued
//!    or waited for a slot) as [`Outcome::TimedOut`] without evaluating;
//! 2. consults the sharded single-flight [`MemoCache`] under the job's
//!    content fingerprint (hit → answer immediately; in-flight → join the
//!    existing computation, bounded by this job's *own* deadline);
//! 3. otherwise leads: runs the evaluation through the **resilience
//!    ladder** below and publishes the outcome — failures
//!    ([`Outcome::TimedOut`], [`Outcome::Panicked`]) reach current
//!    waiters but are never cached; a panicking evaluation neither kills
//!    a pool worker nor unwinds into a caller of [`EvalEngine::run`].
//!
//! # The serving layer
//!
//! At most [`EngineConfig::workers`] callers of [`EvalEngine::run`]
//! evaluate at once; the rest wait for a slot. Submission pushes onto an
//! unbounded queue; a pool worker handles every fault exactly as a caller
//! of `run` does, so no worker dies and the pool never shrinks. Big
//! integer evaluation state is debited against
//! [`EngineConfig::memory_budget_bytes`] through `homcount`'s
//! [`MemoryGauge`](bagcq_homcount::MemoryGauge) hook, so an evaluation
//! that would dwarf memory fails with a typed error instead of taking the
//! process down. [`EvalEngine::drain`] closes the queue and the slots and
//! winds the engine down by a caller-supplied deadline, shedding what
//! cannot finish as [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)`.
//!
//! # The resilience ladder
//!
//! For a fixed kernel and input an evaluation fails every time or never,
//! so the ladder makes one attempt per rung, never sleeps, and keeps no
//! state between jobs. Each attempt's failure is one of two kinds:
//!
//! * **terminal** — the job's own wall-clock deadline tripped, a
//!   dual-engine cross-validation mismatch was detected, or the engine is
//!   hard-stopping a drain. Deadline/drain → [`Outcome::TimedOut`],
//!   mismatch → [`Outcome::Panicked`].
//! * **hop-eligible** — the evaluation panicked, the cooperative step
//!   budget ran out, or the memory budget refused a reservation. Another
//!   attempt on the same kernel would fail the same way, but the naive
//!   backtracker may not (it holds less intermediate state than the
//!   treewidth DP), so a job not pinned to it hops there once, then gives
//!   up — a panic as [`Outcome::Panicked`], step exhaustion as
//!   [`Outcome::TimedOut`], memory exhaustion as [`Outcome::Panicked`]
//!   with a budget message.
//!
//! Counts performed *inside* a containment check are routed through the
//! same cache under the same key a direct [`JobSpec::Count`] job would
//! use, so mixed workloads share work across job kinds.

use crate::budget::MemoryBudget;
use crate::cache::{Flight, Lookup, MemoCache};
use crate::fault::FaultInjector;
use crate::job::{count_fingerprint, Job, JobHandle, JobSpec, Outcome, ShedReason};
use crate::metrics::{EngineHealth, Metrics, MetricsSnapshot};
use crate::trace::{fp_bits, outcome_label};
use bagcq_arith::{Magnitude, Nat};
use bagcq_containment::CheckError;
use bagcq_homcount::{
    BackendChoice, CancelReason, CancelToken, Cancelled, CheckpointHook, CountError, CountRequest,
    Engine, EvalControl,
};
use bagcq_obs as obs;
use bagcq_query::Query;
use bagcq_structure::Structure;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Memo-cache shards (lock granularity).
const CACHE_SHARDS: usize = 16;

/// Configuration for an [`EvalEngine`]. The default picks one worker per
/// core (at most 8) and has no cross-validation, fault injector, byte
/// budget or store.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Worker threads. `0` picks `available_parallelism` (capped at 8).
    /// The same number bounds how many callers of [`EvalEngine::run`]
    /// evaluate at once.
    pub workers: usize,
    /// When `true`, every raw count is computed by **both** counting
    /// algorithms (the resolved backend plus the kernel of the *other*
    /// [`BackendChoice::family`]) and compared; a mismatch surfaces as
    /// [`Outcome::Panicked`] instead of silently returning a wrong
    /// number.
    pub cross_validate: bool,
    /// Deterministic fault injector threaded through every evaluation
    /// (chaos testing). `None` in production.
    pub fault: Option<Arc<FaultInjector>>,
    /// Byte budget for big-integer evaluation state, shared by every
    /// worker (`0` = no budget). Charged through `homcount`'s
    /// [`MemoryGauge`](bagcq_homcount::MemoryGauge) hook; an evaluation
    /// that would exceed it fails with a typed error instead of aborting
    /// the process.
    pub memory_budget_bytes: u64,
    /// Persistent memo store under the in-memory cache
    /// ([`crate::MemoStore`]): misses read through to disk, successful
    /// counts are written behind, and [`EvalEngine::drain`] flushes the
    /// write-behind buffer. `None` (the default) keeps the cache purely
    /// in-memory.
    pub store: Option<Arc<crate::MemoStore>>,
}

/// One attempt's failure, classified for the resilience ladder.
enum JobFailure {
    Cancelled(CancelReason),
    Mismatch(String),
    Panic(String),
}

/// The checkpoint hook every evaluation runs under: a drain hard-stop
/// check first, then the configured fault injector (if any).
struct EngineHook {
    drain_stop: Arc<AtomicBool>,
    fault: Option<Arc<FaultInjector>>,
}

impl CheckpointHook for EngineHook {
    fn checkpoint(&self, site: &'static str) -> Result<(), Cancelled> {
        if self.drain_stop.load(Ordering::Relaxed) {
            return Err(Cancelled(CancelReason::ShuttingDown));
        }
        if let Some(injector) = &self.fault {
            injector.fire(site);
        }
        Ok(())
    }
}

/// State shared by the public handle and every pool worker.
pub(crate) struct Shared {
    cache: MemoCache,
    metrics: Arc<Metrics>,
    config: EngineConfig,
    queue: JobQueue<(WorkItem, Arc<Flight>)>,
    budget: Option<Arc<MemoryBudget>>,
    drain_stop: Arc<AtomicBool>,
    hook: Arc<EngineHook>,
    /// Free evaluation slots for callers of [`EvalEngine::run`]; `None`
    /// once a drain has closed them.
    free_slots: Mutex<Option<usize>>,
    slot_freed: Condvar,
}

impl Shared {
    /// Takes an evaluation slot for a caller of [`EvalEngine::run`],
    /// waiting while every slot is taken; `None` once a drain closed them.
    fn acquire_slot(&self) -> Option<EvalSlot<'_>> {
        // A free count is valid at every step, so a poisoned lock is safe
        // to recover.
        let mut free = self.free_slots.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match *free {
                None => return None,
                Some(0) => free = self.slot_freed.wait(free).unwrap_or_else(|p| p.into_inner()),
                Some(n) => {
                    *free = Some(n - 1);
                    return Some(EvalSlot(self));
                }
            }
        }
    }

    /// A raw count with optional cross-family validation.
    fn count_direct(
        &self,
        backend: BackendChoice,
        q: &Query,
        d: &Structure,
        ctl: &EvalControl,
    ) -> Result<Nat, CountError> {
        // The engine-level checkpoint: fires before every raw count.
        self.hook.checkpoint("engine/count")?;
        let resolved = backend.resolve(q, d);
        let _span = obs::span("engine.count", resolved.label());
        let n = CountRequest::new(q, d).backend(resolved).control(ctl.clone()).run()?;
        if self.config.cross_validate {
            // Validate against the *other* algorithm: two independent
            // counting algorithms must agree.
            let other = match resolved.family() {
                Engine::Naive => BackendChoice::Treewidth,
                Engine::Treewidth => BackendChoice::Naive,
            };
            let m = CountRequest::new(q, d).backend(other).control(ctl.clone()).run()?;
            self.metrics.cross_validation();
            if n != m {
                return Err(CountError::Mismatch(format!(
                    "backends disagree on {q}: {resolved} and {other} returned different counts"
                )));
            }
        }
        Ok(n)
    }

    /// A raw count through the memo cache (the same key a direct
    /// [`JobSpec::Count`] job uses). Joiners wait bounded by `deadline`;
    /// if a leader fails, the joiner recomputes directly rather than
    /// inheriting the failure.
    fn count_cached(
        &self,
        backend: BackendChoice,
        q: &Query,
        d: &Structure,
        ctl: &EvalControl,
        deadline: Option<Instant>,
    ) -> Result<Nat, CountError> {
        let key = count_fingerprint(q, d, backend);
        match self.cache.begin(key) {
            Lookup::Hit(Outcome::Count(n)) => Ok(n),
            Lookup::Hit(_) => self.count_direct(backend, q, d, ctl),
            Lookup::Join(flight) => match flight.wait(deadline) {
                Some(Outcome::Count(n)) => Ok(n),
                Some(_) => self.count_direct(backend, q, d, ctl),
                // Our own deadline expired while waiting on the leader.
                None => Err(Cancelled(CancelReason::DeadlineExceeded).into()),
            },
            Lookup::Lead(token) => {
                // If count_direct panics, the token's Drop evicts the
                // in-flight slot and wakes joiners, so nobody hangs.
                let result = self.count_direct(backend, q, d, ctl);
                let outcome = match &result {
                    Ok(n) => Outcome::Count(n.clone()),
                    Err(_) => Outcome::TimedOut,
                };
                self.cache.complete(token, outcome);
                result
            }
        }
    }

    /// Evaluates a spec once; `Err` carries the typed failure. Counts the
    /// spec does not pin (power-query factors, containment-internal
    /// counts) use [`BackendChoice::Auto`]; `backend_override` is the
    /// ladder's backend substitution for its one hop.
    fn run_spec(
        &self,
        spec: &JobSpec,
        ctl: &EvalControl,
        deadline: Option<Instant>,
        backend_override: Option<BackendChoice>,
    ) -> Result<Outcome, CountError> {
        match spec {
            JobSpec::Count { query, database, backend } => {
                // The job-level cache already keys this spec; compute directly.
                let backend = backend_override.unwrap_or(*backend);
                Ok(Outcome::Count(self.count_direct(backend, query, database, ctl)?))
            }
            JobSpec::EvalPower { query, database, exact_bits } => {
                // Mirrors `try_eval_power_query`, but routes every factor
                // count through the memo cache (φ_s and φ_b share factor
                // counts on the same database) and cross-validation.
                let backend = backend_override.unwrap_or(BackendChoice::Auto);
                let mut acc = Magnitude::exact_with_budget(Nat::one(), *exact_bits);
                for f in query.factors() {
                    let base = self.count_cached(backend, &f.base, database, ctl, deadline)?;
                    let m = Magnitude::exact_with_budget(base, *exact_bits).pow(&f.exponent);
                    acc = acc.mul(&m);
                }
                Ok(Outcome::Power(acc))
            }
            JobSpec::Check { spec } => {
                let backend = backend_override.unwrap_or(BackendChoice::Auto);
                let counter = |q: &Query, d: &Structure| -> Result<Nat, CountError> {
                    self.count_cached(backend, q, d, ctl, deadline)
                };
                match spec.try_check_with_counter(&counter) {
                    Ok(verdict) => Ok(Outcome::Verdict(Arc::new(verdict))),
                    Err(CheckError::Counter(e)) => Err(e),
                    // A spec outside the resolved backend's fragment is a
                    // request error that no kernel hop cures: publish it
                    // terminally instead of entering the ladder.
                    // (The serve layer pre-validates and turns this into
                    // a typed 400 before a job is ever submitted.)
                    Err(CheckError::Unsupported(u)) => {
                        Ok(Outcome::Panicked(format!("unsupported check spec: {u}")))
                    }
                }
            }
        }
    }

    /// The evaluation controls for one attempt: deadline token, step
    /// budget, the engine checkpoint hook (drain stop + fault injection),
    /// and a fresh per-attempt memory scope when a byte budget is
    /// configured (scopes release what they charged when the attempt
    /// ends, so a failed giant gives its bytes back).
    fn controls(&self, deadline: Option<Instant>, step_budget: u64) -> EvalControl {
        let token = deadline.map(CancelToken::with_deadline);
        let hook = Some(Arc::clone(&self.hook) as Arc<dyn CheckpointHook>);
        let mut ctl = EvalControl::with_hook(step_budget, token, hook);
        if let Some(budget) = &self.budget {
            ctl = ctl.with_memory_gauge(Arc::new(budget.scope()));
        }
        ctl
    }

    /// Runs one attempt with panic isolation and classifies the result.
    fn execute_once(
        &self,
        item: &WorkItem,
        backend_override: Option<BackendChoice>,
    ) -> Result<Outcome, JobFailure> {
        let ctl = self.controls(item.deadline, item.step_budget);
        let run = || self.run_spec(&item.spec, &ctl, item.deadline, backend_override);
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(CountError::Cancelled(Cancelled(reason)))) => Err(JobFailure::Cancelled(reason)),
            Ok(Err(CountError::Mismatch(msg))) => Err(JobFailure::Mismatch(msg)),
            Err(payload) => Err(JobFailure::Panic(panic_message(payload))),
        }
    }

    /// Runs a spec through the resilience ladder: deadline check, one
    /// attempt, at most one hop to the backtracker, typed terminal
    /// outcome. Never sleeps and never panics outward.
    fn execute_resilient(&self, item: &WorkItem) -> Outcome {
        let fp = item.spec.fingerprint();
        let _span = obs::span_fp("engine.execute", item.spec.kind(), fp_bits(&fp));
        let mut backend_override: Option<BackendChoice> = None;
        loop {
            if item.deadline.is_some_and(|d| Instant::now() >= d) {
                return Outcome::TimedOut;
            }
            let failure = match self.execute_once(item, backend_override) {
                Ok(outcome) => return outcome,
                Err(f) => f,
            };
            // What a hop-eligible failure resolves as when no hop is left.
            let terminal = match failure {
                // Nothing cancels a token but its own deadline, which the
                // token latches as a plain `Cancelled`; a drain hard stop
                // means the engine is going away.
                JobFailure::Cancelled(
                    CancelReason::DeadlineExceeded
                    | CancelReason::Cancelled
                    | CancelReason::ShuttingDown,
                ) => return Outcome::TimedOut,
                JobFailure::Mismatch(msg) => {
                    // Both kernels would disagree again.
                    return Outcome::Panicked(format!("cross-validation mismatch: {msg}"));
                }
                JobFailure::Panic(msg) => Outcome::Panicked(msg),
                JobFailure::Cancelled(CancelReason::BudgetExhausted) => Outcome::TimedOut,
                JobFailure::Cancelled(CancelReason::MemoryBudgetExceeded) => Outcome::Panicked(
                    "memory budget exceeded: the evaluation's big-integer state does not fit \
                     the engine's byte budget"
                        .to_string(),
                ),
            };
            match item.fallback_for(backend_override) {
                Some(backend) => {
                    backend_override = Some(backend);
                    self.metrics.fallback_taken();
                }
                None => return terminal,
            }
        }
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "evaluation panicked".to_string()
    }
}

/// A job with its deadline fixed, as [`evaluate`] takes it.
struct WorkItem {
    spec: JobSpec,
    deadline: Option<Instant>,
    step_budget: u64,
    submitted: Instant,
}

impl WorkItem {
    fn new(job: Job) -> Self {
        let submitted = Instant::now();
        WorkItem {
            deadline: job.timeout.map(|t| submitted + t),
            step_budget: job.step_budget,
            spec: job.spec,
            submitted,
        }
    }

    /// The backend of this job's one hop, or `None` when it already
    /// hopped or is pinned to naive. The hop goes to the backtracker, which holds
    /// less intermediate state than the treewidth DP: treewidth → naive,
    /// auto → naive (in case `Auto`'s pick is what fails).
    fn fallback_for(&self, current: Option<BackendChoice>) -> Option<BackendChoice> {
        if current.is_some() {
            return None;
        }
        let pinned = match &self.spec {
            JobSpec::Count { backend, .. } => *backend,
            _ => BackendChoice::Auto,
        };
        match pinned {
            BackendChoice::Treewidth | BackendChoice::Auto => Some(BackendChoice::Naive),
            BackendChoice::Naive => None,
        }
    }
}

/// One evaluation slot held by a caller of [`EvalEngine::run`]. Dropping
/// it, also while unwinding, returns the slot.
struct EvalSlot<'a>(&'a Shared);

impl Drop for EvalSlot<'_> {
    fn drop(&mut self) {
        let mut free = self.0.free_slots.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(n) = free.as_mut() {
            *n += 1;
        }
        self.0.slot_freed.notify_one();
    }
}

/// Resolves a job the serving layer refused to evaluate: publishes the
/// typed [`Outcome::Shed`] (if nothing was published yet) and keeps the
/// submitted/completed accounting balanced.
fn publish_shed(shared: &Shared, flight: &Flight, reason: ShedReason) {
    flight.publish_if_pending_with(Outcome::Shed(reason), || {
        shared.metrics.job_shed(reason);
        shared.metrics.job_completed();
    });
}

/// The one evaluation every job gets, on a pool worker or on a caller of
/// [`EvalEngine::run`]: deadline, single-flight memo, the resilience
/// ladder, and the job's accounting.
fn evaluate(shared: &Shared, item: &WorkItem) -> Outcome {
    // The start → count → publish span; on a pool worker, enqueue time is
    // the gap between the `engine.enqueue` instant with the same
    // fingerprint and this.
    let _span = if obs::enabled() {
        obs::span_fp("engine.process", item.spec.kind(), fp_bits(&item.spec.fingerprint()))
    } else {
        None
    };
    let expired = item.deadline.is_some_and(|d| Instant::now() >= d);
    let outcome = if expired {
        Outcome::TimedOut
    } else {
        // Looped for one reason: a joiner whose leader unwound before
        // completing wakes with the `LEAD_DIED` poison after the slot was
        // evicted — it retries the lookup (becoming the new leader, or
        // joining one) instead of failing a job that merely shared the
        // dead leader's flight.
        loop {
            match shared.cache.begin(item.spec.fingerprint()) {
                Lookup::Hit(outcome) => break outcome,
                Lookup::Join(flight) => match flight.wait(item.deadline) {
                    None => break Outcome::TimedOut,
                    Some(Outcome::Panicked(msg)) if msg == crate::cache::LEAD_DIED => continue,
                    Some(outcome) => break outcome,
                },
                Lookup::Lead(token) => {
                    let outcome = shared.execute_resilient(item);
                    shared.cache.complete(token, outcome.clone());
                    break outcome;
                }
            }
        }
    };
    match &outcome {
        Outcome::TimedOut => shared.metrics.job_timed_out(),
        Outcome::Panicked(_) => shared.metrics.job_panicked(),
        Outcome::Shed(reason) => shared.metrics.job_shed(*reason),
        _ => {}
    }
    shared.metrics.job_completed();
    shared.metrics.observe_latency(item.submitted.elapsed());
    obs::instant("engine.publish", outcome_label(&outcome));
    outcome
}

/// One pool worker's life: evaluate queued jobs until the queue is closed
/// *and* empty. A panic that escapes the evaluation (nothing inside it
/// runs caller code, so none is expected) resolves its job as
/// [`Outcome::Panicked`] and the worker lives on: a waiter never hangs
/// and the pool never shrinks.
fn worker_loop(shared: &Shared) {
    while let Some((item, flight)) = shared.queue.pop() {
        match catch_unwind(AssertUnwindSafe(|| evaluate(shared, &item))) {
            Ok(outcome) => flight.publish(outcome),
            Err(payload) => {
                flight.publish_if_pending_with(Outcome::Panicked(panic_message(payload)), || {
                    shared.metrics.job_panicked();
                    shared.metrics.job_completed();
                });
            }
        }
    }
}

/// A closable FIFO for the pool: one `Mutex<VecDeque>` and one `Condvar`.
///
/// Lock poisoning is ignored (`into_inner` on a poisoned guard): no code
/// that can panic runs while the lock is held, and every update leaves
/// the queue valid.
struct JobQueue<T> {
    inner: Mutex<QueueState<T>>,
    not_empty: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

impl<T> JobQueue<T> {
    fn new() -> Self {
        JobQueue {
            inner: Mutex::new(QueueState { items: VecDeque::new(), closed: false, high_water: 0 }),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues `item`, or hands it back once the queue is closed (the
    /// caller sheds it as [`ShedReason::Draining`]).
    fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// empty (workers finish what was queued before exiting).
    fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Refuses further pushes and wakes every blocked popper. Idempotent.
    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns everything currently queued (the drain
    /// deadline's shed step).
    fn drain_now(&self) -> Vec<T> {
        std::mem::take(&mut self.lock().items).into()
    }

    /// Items currently queued.
    fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// The deepest the queue has ever been.
    fn high_water(&self) -> usize {
        self.lock().high_water
    }
}

/// What [`EvalEngine::drain`] did, and whether it met its deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that resolved (any outcome) during the drain window.
    pub completed: u64,
    /// Jobs the drain shed with [`ShedReason::Draining`]: queued work
    /// flushed, and submissions and callers of [`EvalEngine::run`]
    /// refused, in the window.
    pub shed: u64,
    /// Jobs still unresolved when the drain returned — `0` unless an
    /// evaluation ignored the cooperative hard stop past the deadline.
    pub stragglers: u64,
    /// Whether the drain returned within its timeout.
    pub met_deadline: bool,
    /// Wall-clock time the drain took.
    pub elapsed: Duration,
}

/// A concurrent, memoizing, fault-tolerant evaluation service.
///
/// ```
/// use bagcq_engine::{EvalEngine, Job, Outcome};
/// use bagcq_query::{path_query, Query};
/// use bagcq_structure::{Schema, Structure, Vertex};
/// use bagcq_arith::{Magnitude, Nat};
/// use std::sync::Arc;
///
/// let mut sb = Schema::builder();
/// let e = sb.relation("E", 2);
/// let schema = sb.build();
/// let mut d = Structure::new(Arc::clone(&schema));
/// d.add_vertices(3);
/// d.add_atom(e, &[Vertex(0), Vertex(1)]);
/// d.add_atom(e, &[Vertex(1), Vertex(2)]);
/// let d = Arc::new(d);
///
/// let engine = EvalEngine::with_workers(2);
/// let handles: Vec<_> = (1..=2)
///     .map(|k| engine.submit(Job::count(path_query(&schema, "E", k), Arc::clone(&d))))
///     .collect();
/// let counts: Vec<_> = handles.iter().map(|h| h.wait()).collect();
/// assert_eq!(counts[0].as_count(), Some(&Nat::from_u64(2)));
/// assert_eq!(counts[1].as_count(), Some(&Nat::one()));
/// ```
pub struct EvalEngine {
    shared: Arc<Shared>,
    /// The pool, spawned by the first [`EvalEngine::submit`].
    pool: OnceLock<Vec<thread::JoinHandle<()>>>,
    worker_target: usize,
}

impl EvalEngine {
    /// Builds an engine with the given configuration. It spawns no
    /// thread: the worker pool starts with the first
    /// [`EvalEngine::submit`].
    pub fn new(config: EngineConfig) -> Self {
        let worker_count = if config.workers == 0 {
            thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
        } else {
            config.workers
        };
        let metrics = Arc::new(Metrics::new());
        let drain_stop = Arc::new(AtomicBool::new(false));
        let hook = Arc::new(EngineHook {
            drain_stop: Arc::clone(&drain_stop),
            fault: config.fault.clone(),
        });
        let budget =
            (config.memory_budget_bytes > 0).then(|| MemoryBudget::new(config.memory_budget_bytes));
        let shared = Arc::new(Shared {
            cache: MemoCache::new(CACHE_SHARDS, Arc::clone(&metrics))
                .with_store(config.store.clone()),
            metrics,
            config,
            queue: JobQueue::new(),
            budget,
            drain_stop,
            hook,
            free_slots: Mutex::new(Some(worker_count)),
            slot_freed: Condvar::new(),
        });
        EvalEngine { shared, pool: OnceLock::new(), worker_target: worker_count }
    }

    /// An engine with `n` workers and default everything else.
    pub fn with_workers(n: usize) -> Self {
        EvalEngine::new(EngineConfig { workers: n, ..EngineConfig::default() })
    }

    /// Size of the worker pool, and the number of evaluation slots for
    /// callers of [`EvalEngine::run`].
    pub fn worker_count(&self) -> usize {
        self.worker_target
    }

    /// Pool worker threads currently alive: `0` until the first
    /// [`EvalEngine::submit`], then [`EvalEngine::worker_count`] until a
    /// drain closes the queue and the workers finish what it held.
    pub fn live_workers(&self) -> usize {
        self.pool.get().map_or(0, |pool| pool.iter().filter(|h| !h.is_finished()).count())
    }

    /// The engine's current health state.
    pub fn health(&self) -> EngineHealth {
        self.shared.metrics.health()
    }

    /// Submits one job to the worker pool, starting the pool on first
    /// use, and returns a waitable handle at once. Once a drain has
    /// begun, the handle yields
    /// [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)`.
    pub fn submit(&self, job: Job) -> JobHandle {
        let flight = Arc::new(Flight::default());
        let item = WorkItem::new(job);
        self.shared.metrics.job_submitted();
        if obs::enabled() {
            obs::instant_fp("engine.enqueue", item.spec.kind(), fp_bits(&item.spec.fingerprint()));
        }
        match self.shared.queue.push((item, Arc::clone(&flight))) {
            Ok(()) => {
                self.pool.get_or_init(|| {
                    (0..self.worker_target)
                        .map(|i| {
                            let shared = Arc::clone(&self.shared);
                            thread::Builder::new()
                                .name(format!("bagcq-engine-{i}"))
                                .spawn(move || worker_loop(&shared))
                                .expect("failed to spawn engine worker")
                        })
                        .collect()
                });
            }
            Err(_) => publish_shed(&self.shared, &flight, ShedReason::Draining),
        }
        JobHandle { flight }
    }

    /// Submits a batch; handles are returned in submission order.
    pub fn submit_batch(&self, jobs: impl IntoIterator<Item = Job>) -> Vec<JobHandle> {
        jobs.into_iter().map(|j| self.submit(j)).collect()
    }

    /// Takes one job through its whole life on the calling thread — the
    /// same evaluation a pool worker runs, with the same accounting — and
    /// returns its outcome. At most [`EngineConfig::workers`] callers
    /// evaluate at once; the rest wait for a slot with no deadline of
    /// their own (a job whose deadline passes meanwhile resolves as
    /// [`Outcome::TimedOut`]). Once a drain has begun, the job resolves as
    /// [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)` without evaluating.
    /// No evaluation panic unwinds into the caller.
    pub fn run(&self, job: Job) -> Outcome {
        let item = WorkItem::new(job);
        self.shared.metrics.job_submitted();
        let Some(_slot) = self.shared.acquire_slot() else {
            self.shared.metrics.job_shed(ShedReason::Draining);
            self.shared.metrics.job_completed();
            return Outcome::Shed(ShedReason::Draining);
        };
        evaluate(&self.shared, &item)
    }

    /// Jobs submitted but not yet resolved.
    fn outstanding(&self) -> u64 {
        self.shared.metrics.submitted_count().saturating_sub(self.shared.metrics.completed_count())
    }

    /// Gracefully winds the engine down, returning by `timeout`:
    ///
    /// 1. the queue and the evaluation slots close — new submissions, and
    ///    callers of [`EvalEngine::run`] without a slot, resolve as
    ///    [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)` — and only then
    ///    health → [`EngineHealth::Draining`] (terminal);
    /// 2. in-flight and queued work gets most of the timeout to finish
    ///    normally;
    /// 3. whatever is still queued near the deadline is flushed and shed;
    ///    still-running evaluations are hard-stopped through the
    ///    cooperative checkpoint hook (they resolve as
    ///    [`Outcome::TimedOut`]);
    /// 4. the persistent store's write-behind buffer is flushed.
    ///
    /// Every job submitted before or during the drain resolves to exactly
    /// one outcome; none is lost or left hanging. Draining is terminal —
    /// the engine does not serve again afterwards (submissions and runs
    /// shed).
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let started = Instant::now();
        let deadline = started + timeout;
        obs::instant("engine.drain", "begin");
        let completed_before = self.shared.metrics.completed_count();
        let shed_before = self.shared.metrics.shed_count();
        self.shared.queue.close();
        *self.shared.free_slots.lock().unwrap_or_else(|p| p.into_inner()) = None;
        self.shared.slot_freed.notify_all();
        self.shared.metrics.begin_draining();
        // Most of the timeout goes to letting work finish; a margin is
        // reserved for the shed + hard-stop + flush steps.
        let margin = (timeout / 10)
            .clamp(Duration::from_millis(2), Duration::from_millis(100))
            .min(timeout / 2);
        let soft_deadline = deadline - margin;
        while self.outstanding() > 0 && Instant::now() < soft_deadline {
            thread::sleep(Duration::from_micros(200));
        }
        for (_, flight) in self.shared.queue.drain_now() {
            publish_shed(&self.shared, &flight, ShedReason::Draining);
        }
        if self.outstanding() > 0 {
            self.shared.drain_stop.store(true, Ordering::Relaxed);
            obs::instant("engine.drain", "hard_stop");
            while self.outstanding() > 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_micros(200));
            }
        }
        // A drain must leave every completed count on disk.
        if let Some(store) = &self.shared.config.store {
            if store.flush().is_err() {
                obs::instant("engine.store", "flush_error");
            }
        }
        obs::instant("engine.drain", "end");
        let elapsed = started.elapsed();
        DrainReport {
            completed: self.shared.metrics.completed_count() - completed_before,
            shed: self.shared.metrics.shed_count() - shed_before,
            stragglers: self.outstanding(),
            met_deadline: elapsed <= timeout,
            elapsed,
        }
    }

    /// A point-in-time copy of the engine's metrics, including the
    /// serving-layer gauges (queue depth, memory budget account).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        snap.queue_depth = self.shared.queue.len() as u64;
        snap.queue_high_water = self.shared.queue.high_water() as u64;
        if let Some(budget) = &self.shared.budget {
            snap.mem_used_bytes = budget.used();
            snap.mem_high_water_bytes = budget.high_water();
            snap.mem_denials = budget.denials();
        }
        if let Some(store) = &self.shared.config.store {
            snap.store = Some(store.stats());
        }
        snap
    }

    /// Completed (`Ready`) memo-cache entries.
    pub fn cache_entries(&self) -> usize {
        self.shared.cache.ready_len()
    }
}

impl Drop for EvalEngine {
    fn drop(&mut self) {
        // Closing the queue lets workers finish what is left and exit.
        self.shared.queue.close();
        for handle in self.pool.take().into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::JobQueue;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn unbounded_always_admits() {
        let q = JobQueue::new();
        for i in 0..1000 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.high_water(), 1000);
    }

    #[test]
    fn close_refuses_pushes_and_drains_pops() {
        let q = JobQueue::new();
        assert!(q.push(1).is_ok());
        q.close();
        q.close(); // idempotent
        assert_eq!(q.push(2), Err(2), "a closed queue hands the item back");
        // Queued items still drain before pop reports closure.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_popper() {
        let q = Arc::new(JobQueue::<u32>::new());
        let popper = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn drain_now_empties_the_queue() {
        let q = JobQueue::new();
        for i in 0..5 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.drain_now(), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 0);
        q.close();
        assert_eq!(q.pop(), None);
    }
}
