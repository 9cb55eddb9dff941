//! The one evaluation path, the serving layer, and failure
//! classification.
//!
//! [`EvalEngine::run`] takes a job through its whole life on the calling
//! thread. [`EvalEngine::submit`] does the same and wraps the outcome in
//! a resolved [`JobHandle`]; [`EvalEngine::submit_batch`] spreads a batch
//! over scoped threads that each call the same evaluation. Each
//! evaluation:
//!
//! 1. resolves a job whose deadline already passed (while it waited for a
//!    slot) as [`Outcome::TimedOut`] without evaluating;
//! 2. consults the sharded single-flight [`MemoCache`] under the job's
//!    content fingerprint (hit → answer immediately; in-flight → join the
//!    existing computation, bounded by this job's *own* deadline);
//! 3. otherwise leads: runs the evaluation through the **resilience
//!    ladder** below and publishes the outcome — failures
//!    ([`Outcome::TimedOut`], [`Outcome::Panicked`],
//!    [`Outcome::MemoryBudgetExceeded`]) reach current waiters but are
//!    never cached; a panicking evaluation never unwinds into its caller.
//!
//! # The serving layer
//!
//! At most [`EngineConfig::workers`] evaluations run at once, whoever
//! calls them; the rest wait for a slot, and the callers waiting are the
//! engine's only queue ([`MetricsSnapshot::queue_depth`]). Big integer
//! evaluation state is debited against
//! [`EngineConfig::memory_budget_bytes`] through `homcount`'s
//! [`MemoryGauge`](bagcq_homcount::MemoryGauge) hook, so an evaluation
//! that would dwarf memory fails with a typed error instead of taking the
//! process down. [`EvalEngine::drain`] closes the slots and winds the
//! engine down by a caller-supplied deadline, shedding callers without a
//! slot as [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)`.
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
//!   [`Outcome::TimedOut`], memory exhaustion as
//!   [`Outcome::MemoryBudgetExceeded`].
//!
//! The memo holds one entry per job, plus one per factor count of a
//! [`JobSpec::EvalPower`] job (φ_s and φ_b share factors on the same
//! database), under the key a [`JobSpec::Count`] job for that factor
//! would have. The counts *inside* a containment check bypass it: its
//! refutation search counts on fresh candidate databases, which almost
//! never repeat, so each count goes straight to the kernels — through the
//! `engine/count` checkpoint, under the attempt's controls, and
//! cross-validated when that is on — and only the verdict is memoized.
//! The check prepares each disjunct once ([`PreparedQuery`]) and resolves
//! and counts from its components and decompositions.

use crate::budget::MemoryBudget;
use crate::cache::{Lookup, MemoCache};
use crate::fault::FaultInjector;
use crate::job::{count_fingerprint, Job, JobHandle, JobSpec, Outcome, ShedReason};
use crate::metrics::{EngineHealth, Metrics, MetricsSnapshot};
use crate::trace::{fp_bits, outcome_label};
use bagcq_arith::Nat;
use bagcq_containment::CheckError;
use bagcq_homcount::{
    eval_power_query_with, BackendChoice, CancelReason, Cancelled, CheckpointHook, CountError,
    CountRequest, Engine, EvalControl, PreparedQuery,
};
use bagcq_obs as obs;
use bagcq_query::Query;
use bagcq_structure::{Fingerprint, Structure};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Memo-cache shards (lock granularity).
const CACHE_SHARDS: usize = 16;

/// Configuration for an [`EvalEngine`]. The default picks one evaluation
/// slot per core (at most 8) and has no cross-validation, fault injector,
/// byte budget or store.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Evaluation slots: how many evaluations run at once, and how many
    /// threads [`EvalEngine::submit_batch`] starts at most. `0` picks
    /// `available_parallelism` (capped at 8).
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
    /// evaluation (`0` = no budget). Charged through `homcount`'s
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

/// The engine's state behind [`EvalEngine`]'s public methods.
struct Shared {
    cache: MemoCache,
    metrics: Arc<Metrics>,
    config: EngineConfig,
    budget: Option<Arc<MemoryBudget>>,
    drain_stop: Arc<AtomicBool>,
    hook: Arc<EngineHook>,
    slots: Mutex<Slots>,
    slot_freed: Condvar,
}

/// The evaluation slots, and the callers waiting for one.
struct Slots {
    /// Free slots; `None` once a drain has closed them.
    free: Option<usize>,
    /// Callers blocked until a slot frees or the drain closes them.
    waiting: usize,
    /// The most callers ever blocked at once.
    high_water: usize,
}

impl Shared {
    /// Takes an evaluation slot, waiting while every slot is taken;
    /// `None` once a drain closed them. Only a caller that has to wait
    /// counts in [`Slots::waiting`].
    fn acquire_slot(&self) -> Option<EvalSlot<'_>> {
        // The counts are valid at every step, so a poisoned lock is safe
        // to recover.
        let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        if slots.free == Some(0) {
            slots.waiting += 1;
            slots.high_water = slots.high_water.max(slots.waiting);
            while slots.free == Some(0) {
                slots = self.slot_freed.wait(slots).unwrap_or_else(|p| p.into_inner());
            }
            slots.waiting -= 1;
        }
        let free = slots.free?;
        slots.free = Some(free - 1);
        Some(EvalSlot(self))
    }

    /// Stamps a job's deadline and counts it as submitted.
    fn accept(&self, job: Job) -> WorkItem {
        self.metrics.job_submitted();
        WorkItem::new(job)
    }

    /// Evaluates an accepted job once it holds a slot, or sheds it as
    /// [`ShedReason::Draining`] once a drain has closed the slots.
    fn run_item(&self, item: &WorkItem) -> Outcome {
        let Some(_slot) = self.acquire_slot() else {
            self.metrics.job_shed(ShedReason::Draining);
            self.metrics.job_completed();
            return Outcome::Shed(ShedReason::Draining);
        };
        evaluate(self, item)
    }

    /// A raw count with optional cross-family validation; both kernels
    /// count from the same prepared query.
    fn count_direct(
        &self,
        backend: BackendChoice,
        p: &PreparedQuery<'_>,
        d: &Structure,
        ctl: &EvalControl,
    ) -> Result<Nat, CountError> {
        // The engine-level checkpoint: fires before every raw count.
        self.hook.checkpoint("engine/count")?;
        let resolved = backend.resolve_prepared(p, d);
        let _span = obs::span("engine.count", resolved.label());
        let n = CountRequest::prepared(p, d).backend(resolved).control(ctl.clone()).run()?;
        if self.config.cross_validate {
            // Validate against the *other* algorithm: two independent
            // counting algorithms must agree.
            let other = match resolved.family() {
                Engine::Naive => BackendChoice::Treewidth,
                Engine::Treewidth => BackendChoice::Naive,
            };
            let m = CountRequest::prepared(p, d).backend(other).control(ctl.clone()).run()?;
            self.metrics.cross_validation();
            if n != m {
                return Err(CountError::Mismatch(format!(
                    "backends disagree on {}: {resolved} and {other} returned different counts",
                    p.query()
                )));
            }
        }
        Ok(n)
    }

    /// A raw count through the memo cache (the same key a direct
    /// [`JobSpec::Count`] job uses); the query is prepared only when this
    /// caller computes the count. Joiners wait bounded by `deadline`; if a
    /// leader fails, the joiner recomputes directly rather than inheriting
    /// the failure.
    fn count_cached(
        &self,
        backend: BackendChoice,
        q: &Query,
        d: &Structure,
        ctl: &EvalControl,
        deadline: Option<Instant>,
    ) -> Result<Nat, CountError> {
        let direct = || self.count_direct(backend, &PreparedQuery::new(q), d, ctl);
        match self.cache.begin(count_fingerprint(q, d, backend)) {
            Lookup::Hit(Outcome::Count(n)) => Ok(n),
            Lookup::Hit(_) => direct(),
            Lookup::Join(flight) => match flight.wait(deadline) {
                Some(Outcome::Count(n)) => Ok(n),
                Some(_) => direct(),
                // Our own deadline expired while waiting on the leader.
                None => Err(Cancelled(CancelReason::DeadlineExceeded).into()),
            },
            Lookup::Lead(token) => {
                // If count_direct panics, the token's Drop evicts the
                // in-flight slot and wakes joiners, so nobody hangs.
                let result = direct();
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
    /// ladder's backend substitution for its one hop. Only power-query
    /// factors are counted through the memo: a count job is the memo's
    /// own entry, and a check's counts go straight to the kernels.
    fn run_spec(
        &self,
        spec: &JobSpec,
        ctl: &EvalControl,
        deadline: Option<Instant>,
        backend_override: Option<BackendChoice>,
    ) -> Result<Outcome, CountError> {
        match spec {
            JobSpec::Count { query, database, backend } => {
                // The job-level cache already keys this spec; compute
                // directly, resolving and counting from one preparation.
                let backend = backend_override.unwrap_or(*backend);
                let p = PreparedQuery::new(query);
                Ok(Outcome::Count(self.count_direct(backend, &p, database, ctl)?))
            }
            JobSpec::EvalPower { query, database, exact_bits } => {
                // Every factor count goes through the memo cache (φ_s and
                // φ_b share factor counts on the same database) and
                // cross-validation.
                let backend = backend_override.unwrap_or(BackendChoice::Auto);
                let power = eval_power_query_with(query, *exact_bits, |q| {
                    self.count_cached(backend, q, database, ctl, deadline)
                })?;
                Ok(Outcome::Power(power))
            }
            JobSpec::Check { spec } => {
                // Candidate databases almost never repeat: count each on
                // the kernels, not through the memo.
                let backend = backend_override.unwrap_or(BackendChoice::Auto);
                let counter = |p: &PreparedQuery<'_>, d: &Structure| -> Result<Nat, CountError> {
                    self.count_direct(backend, p, d, ctl)
                };
                match spec.try_check_prepared(&counter) {
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

    /// The evaluation controls for one attempt: the job's deadline, step
    /// budget, the engine checkpoint hook (drain stop + fault injection),
    /// and a fresh per-attempt memory scope when a byte budget is
    /// configured (scopes release what they charged when the attempt
    /// ends, so a failed giant gives its bytes back).
    fn controls(&self, deadline: Option<Instant>, step_budget: u64) -> EvalControl {
        let hook = Some(Arc::clone(&self.hook) as Arc<dyn CheckpointHook>);
        let mut ctl = EvalControl::with_hook(step_budget, deadline, hook);
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
    /// outcome. Never sleeps and never panics outward. `fp` is the
    /// spec's fingerprint, which the caller already computed.
    fn execute_resilient(&self, item: &WorkItem, fp: Fingerprint) -> Outcome {
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
                // The job's own deadline passed, or a drain hard stop means
                // the engine is going away.
                JobFailure::Cancelled(
                    CancelReason::DeadlineExceeded | CancelReason::ShuttingDown,
                ) => return Outcome::TimedOut,
                JobFailure::Mismatch(msg) => {
                    // Both kernels would disagree again.
                    return Outcome::Panicked(format!("cross-validation mismatch: {msg}"));
                }
                JobFailure::Panic(msg) => Outcome::Panicked(msg),
                JobFailure::Cancelled(CancelReason::BudgetExhausted) => Outcome::TimedOut,
                JobFailure::Cancelled(CancelReason::MemoryBudgetExceeded) => {
                    Outcome::MemoryBudgetExceeded
                }
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

/// One evaluation slot held by a caller. Dropping it, also while
/// unwinding, returns the slot.
struct EvalSlot<'a>(&'a Shared);

impl Drop for EvalSlot<'_> {
    fn drop(&mut self) {
        let mut slots = self.0.slots.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(n) = slots.free.as_mut() {
            *n += 1;
        }
        self.0.slot_freed.notify_one();
    }
}

/// The one evaluation every job gets, on a thread holding an evaluation
/// slot: deadline, single-flight memo, the resilience ladder, and the
/// job's accounting.
fn evaluate(shared: &Shared, item: &WorkItem) -> Outcome {
    // The job's one fingerprint: the memo key, and the trace's job id.
    let fp = item.spec.fingerprint();
    // The start → count → publish span.
    let _span = if obs::enabled() {
        obs::span_fp("engine.process", item.spec.kind(), fp_bits(&fp))
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
            match shared.cache.begin(fp) {
                Lookup::Hit(outcome) => break outcome,
                Lookup::Join(flight) => match flight.wait(item.deadline) {
                    None => break Outcome::TimedOut,
                    Some(Outcome::Panicked(msg)) if msg == crate::cache::LEAD_DIED => continue,
                    Some(outcome) => break outcome,
                },
                Lookup::Lead(token) => {
                    let outcome = shared.execute_resilient(item, fp);
                    shared.cache.complete(token, outcome.clone());
                    break outcome;
                }
            }
        }
    };
    match &outcome {
        Outcome::TimedOut => shared.metrics.job_timed_out(),
        Outcome::Panicked(_) => shared.metrics.job_panicked(),
        Outcome::MemoryBudgetExceeded => shared.metrics.job_over_budget(),
        Outcome::Shed(reason) => shared.metrics.job_shed(*reason),
        _ => {}
    }
    shared.metrics.job_completed();
    shared.metrics.observe_latency(item.submitted.elapsed());
    obs::instant("engine.publish", outcome_label(&outcome));
    outcome
}

/// What [`EvalEngine::drain`] did, and whether it met its deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that resolved (any outcome) during the drain window.
    pub completed: u64,
    /// Jobs the drain shed with [`ShedReason::Draining`] in the window:
    /// callers still waiting for a slot, and later ones.
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
/// let jobs = (1..=2).map(|k| Job::count(path_query(&schema, "E", k), Arc::clone(&d)));
/// let counts: Vec<_> = engine.submit_batch(jobs).iter().map(|h| h.wait()).collect();
/// assert_eq!(counts[0].as_count(), Some(&Nat::from_u64(2)));
/// assert_eq!(counts[1].as_count(), Some(&Nat::one()));
/// ```
pub struct EvalEngine {
    shared: Shared,
    worker_target: usize,
}

impl EvalEngine {
    /// Builds an engine with the given configuration. It spawns no
    /// thread.
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
        let shared = Shared {
            cache: MemoCache::new(CACHE_SHARDS, Arc::clone(&metrics))
                .with_store(config.store.clone()),
            metrics,
            config,
            budget,
            drain_stop,
            hook,
            slots: Mutex::new(Slots { free: Some(worker_count), waiting: 0, high_water: 0 }),
            slot_freed: Condvar::new(),
        };
        EvalEngine { shared, worker_target: worker_count }
    }

    /// An engine with `n` evaluation slots and default everything else.
    pub fn with_workers(n: usize) -> Self {
        EvalEngine::new(EngineConfig { workers: n, ..EngineConfig::default() })
    }

    /// The number of evaluation slots.
    pub fn worker_count(&self) -> usize {
        self.worker_target
    }

    /// The engine's current health state.
    pub fn health(&self) -> EngineHealth {
        self.shared.metrics.health()
    }

    /// Evaluates one job exactly as [`EvalEngine::run`] does and returns
    /// a handle that is already resolved.
    pub fn submit(&self, job: Job) -> JobHandle {
        JobHandle { outcome: self.run(job) }
    }

    /// Evaluates a batch on `min(workers, n)` scoped threads, each taking
    /// an evaluation slot per job as a caller of [`EvalEngine::run`]
    /// does, and returns resolved handles in submission order. Every
    /// job's deadline is stamped at this call, so time spent waiting for
    /// a thread or a slot counts against it.
    pub fn submit_batch(&self, jobs: impl IntoIterator<Item = Job>) -> Vec<JobHandle> {
        let work: Vec<(WorkItem, OnceLock<Outcome>)> =
            jobs.into_iter().map(|job| (self.shared.accept(job), OnceLock::new())).collect();
        let next = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..self.worker_target.min(work.len()) {
                s.spawn(|| {
                    while let Some((item, outcome)) = work.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let _ = outcome.set(self.shared.run_item(item));
                    }
                });
            }
        });
        work.into_iter()
            .map(|(_, outcome)| JobHandle {
                outcome: outcome.into_inner().expect("every batch job was evaluated"),
            })
            .collect()
    }

    /// Takes one job through its whole life on the calling thread and
    /// returns its outcome. At most [`EngineConfig::workers`] evaluations
    /// run at once; the rest wait for a slot with no deadline of their own
    /// (a job whose deadline passes meanwhile resolves as
    /// [`Outcome::TimedOut`]). Once a drain has begun, the job resolves as
    /// [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)` without evaluating.
    /// No evaluation panic unwinds into the caller.
    pub fn run(&self, job: Job) -> Outcome {
        let item = self.shared.accept(job);
        self.shared.run_item(&item)
    }

    /// Jobs submitted but not yet resolved.
    fn outstanding(&self) -> u64 {
        self.shared.metrics.submitted_count().saturating_sub(self.shared.metrics.completed_count())
    }

    /// Gracefully winds the engine down, returning by `timeout`:
    ///
    /// 1. the evaluation slots close — callers still waiting for one, and
    ///    later ones, resolve as
    ///    [`Outcome::Shed`]`(`[`ShedReason::Draining`]`)` — and only then
    ///    health → [`EngineHealth::Draining`] (terminal);
    /// 2. evaluations in flight get most of the timeout to finish
    ///    normally;
    /// 3. those still running near the deadline are hard-stopped through
    ///    the cooperative checkpoint hook (they resolve as
    ///    [`Outcome::TimedOut`]);
    /// 4. the persistent store's write-behind buffer is flushed.
    ///
    /// Every job submitted before or during the drain resolves to exactly
    /// one outcome; none is lost or left hanging. Draining is terminal —
    /// the engine does not serve again afterwards (every later job is
    /// shed).
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let started = Instant::now();
        let deadline = started + timeout;
        obs::instant("engine.drain", "begin");
        let completed_before = self.shared.metrics.completed_count();
        let shed_before = self.shared.metrics.shed_count();
        self.shared.slots.lock().unwrap_or_else(|p| p.into_inner()).free = None;
        self.shared.slot_freed.notify_all();
        self.shared.metrics.begin_draining();
        // Most of the timeout goes to letting work finish; a margin is
        // reserved for the hard-stop + flush steps.
        let margin = (timeout / 10)
            .clamp(Duration::from_millis(2), Duration::from_millis(100))
            .min(timeout / 2);
        let soft_deadline = deadline - margin;
        while self.outstanding() > 0 && Instant::now() < soft_deadline {
            thread::sleep(Duration::from_micros(200));
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
    /// serving-layer gauges (callers waiting for a slot, memory budget
    /// account).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        {
            let slots = self.shared.slots.lock().unwrap_or_else(|p| p.into_inner());
            snap.queue_depth = slots.waiting as u64;
            snap.queue_high_water = slots.high_water as u64;
        }
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
