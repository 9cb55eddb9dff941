//! # bagcq-engine
//!
//! A concurrent, batched evaluation service for the bag-semantics CQ
//! toolkit. The rest of the workspace exposes *synchronous* primitives —
//! `count`, `eval_power_query`, `CheckSpec::try_check_with_counter` —
//! whose costs range from microseconds to "effectively forever" (bag
//! containment is a 30-year-open problem; the counting loops are
//! exponential in the worst case). This crate wraps them in an
//! [`EvalEngine`]:
//!
//! * **Fixed worker pool** (`std::thread` + channels, no external
//!   dependencies): submit a [`Job`] or a batch, get [`JobHandle`]s,
//!   `wait()` for [`Outcome`]s.
//! * **Single-flight memo cache**, sharded and keyed by stable 128-bit
//!   content fingerprints of queries and structures
//!   ([`bagcq_structure::Fingerprint`]): structurally equal jobs are
//!   computed once; concurrent duplicates join the in-flight computation
//!   instead of repeating it.
//! * **Deadlines and step budgets** via the cooperative
//!   [`bagcq_homcount::CancelToken`] machinery: a pathological count
//!   returns [`Outcome::TimedOut`] while unrelated jobs in the same batch
//!   complete normally.
//! * **Panic isolation**: evaluations run under `catch_unwind`, so a
//!   panicking job yields [`Outcome::Panicked`] without poisoning the
//!   pool.
//! * **Dual-engine cross-validation** ([`EngineConfig::cross_validate`]):
//!   every count is computed by both the naive backtracking engine and
//!   the treewidth DP and compared — the workspace-wide soundness story
//!   (two independent implementations of Section 2.1's `|Hom(ψ, D)|`)
//!   applied continuously instead of only in tests. A disagreement is a
//!   typed [`CountError::Mismatch`], never a silently wrong number.
//! * **Resilience**: transient failures (spurious cancellations, typed
//!   transient errors, panics) are retried under a [`RetryPolicy`] with
//!   exponential backoff and deterministic jitter; a treewidth evaluation
//!   that keeps failing or exhausts its step budget falls back to the
//!   naive engine once; per-job-kind circuit breakers ([`BreakerConfig`])
//!   fail fast ([`Outcome::FailedFast`]) when a kind keeps failing.
//! * **Deterministic fault injection** ([`FaultPlan`], [`FaultInjector`]):
//!   a seeded chaos harness threaded through every evaluation checkpoint,
//!   driving the chaos test suite's core property — under any fault
//!   schedule, completed outcomes are bit-identical to a clean run and
//!   the cache never stores a faulty result.
//! * **Overload-safe serving** ([`AdmissionConfig`]): submission passes
//!   through a bounded queue with a pluggable [`AdmissionPolicy`]
//!   (blocking backpressure, reject-newest, shed-expired-at-dequeue); a
//!   refused job resolves to a typed [`Outcome::Shed`] instead of
//!   hanging, vanishing, or growing the queue without bound.
//! * **Worker supervision** ([`SupervisorConfig`]): a supervisor thread
//!   reaps dead worker threads and restarts them within a capped,
//!   backoff-governed budget, requeueing the job a dead worker was
//!   holding; pool state is exposed as an [`EngineHealth`] machine
//!   (`Healthy → Degraded → Draining`).
//! * **Memory budgeting** ([`EngineConfig::memory_budget_bytes`]): the
//!   `Nat`-heavy counting loops debit an engine-wide byte account through
//!   `homcount`'s [`bagcq_homcount::MemoryGauge`] hook; an evaluation
//!   that would dwarf memory fails with a typed error instead of taking
//!   the process down.
//! * **Graceful drain** ([`EvalEngine::drain`]): stops admission,
//!   finishes or sheds in-flight work, runs registered flush hooks, and
//!   returns by a caller-supplied deadline with a [`DrainReport`] —
//!   every job resolves to exactly one outcome.
//! * **Crash-safe sweeps** ([`SweepJournal`]): experiment drivers commit
//!   each completed sweep point with an atomic write-temp-then-rename, so
//!   a killed sweep resumes where it stopped.
//! * **Persistent memo store** ([`MemoStore`],
//!   [`EngineConfig::store`]): completed counts are appended to
//!   disk-backed, CRC-framed segment files keyed by the same 128-bit
//!   fingerprints, and the memo cache reads through to them — a warm
//!   restart (or a sibling worker process sharing the directory) skips
//!   recomputation entirely. Recovery truncates torn tails, quarantines
//!   corrupt records ([`RecoveryReport`]), and compacts dead bytes.
//! * **Metrics**: atomic job/cache/resilience counters plus a log₂
//!   latency histogram, snapshot-able as text
//!   ([`MetricsSnapshot::render`]).
//!
//! [`CachedCounter`] exposes the cache/cross-validation layer as a plain
//! synchronous counter: [`CachedCounter::try_count`] returns a typed
//! [`CountError`], which plugs into
//! [`bagcq_containment::CheckSpec::try_check_with_counter`] —
//! that is how the `exp_*` binaries route their containment verdicts
//! through the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod breaker;
mod budget;
mod cache;
mod engine;
mod fault;
mod job;
mod journal;
mod metrics;
mod retry;
mod store;
mod supervisor;
pub mod trace;

/// The process-global tracer this engine is instrumented with
/// (re-exported so drivers can enable/inspect it without a separate
/// dependency edge).
pub use bagcq_obs as obs;

pub use admission::{
    AdmissionConfig, AdmissionPolicy, TenantConnection, TenantCounters, TenantGate, TenantPermit,
    TenantQuota, TenantRefusal, TenantSpec,
};
/// The unified counting surface, re-exported from `bagcq-homcount` so
/// engine users name backends and counting errors without a separate
/// dependency edge: [`BackendChoice`] selects a kernel,
/// [`CountRequest`]/[`CountBackend`] are the direct (engine-less) API,
/// and [`CountError`] is the one error hierarchy the engine, the
/// containment checker, and the kernels all speak.
pub use bagcq_containment::{CheckRequest, CheckSpec, ContainmentChoice, Semantics, Verdict};
pub use bagcq_homcount::{BackendChoice, CountBackend, CountError, CountRequest};
pub use breaker::{BreakerConfig, FailFast};
pub use engine::{CachedCounter, DrainReport, EngineConfig, EvalEngine};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSchedule};
pub use job::{Job, JobHandle, JobSpec, Outcome, ShedReason};
pub use journal::SweepJournal;
pub use metrics::{Metrics, MetricsSnapshot};
pub use retry::RetryPolicy;
pub use store::{MemoStore, RecoveryReport, StoreError, StoreOptions, StoreStats};
pub use supervisor::{EngineHealth, SupervisorConfig};
pub use trace::{TraceReport, TraceSession};
