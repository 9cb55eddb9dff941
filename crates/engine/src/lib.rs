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
//! * **One execution path**: [`EvalEngine::run`] evaluates a [`Job`] on
//!   the calling thread and returns its [`Outcome`] — that is how
//!   `bagcq-serve` answers each request. [`EvalEngine::submit`] does the
//!   same behind a resolved [`JobHandle`], and
//!   [`EvalEngine::submit_batch`] spreads a batch over scoped threads
//!   (`std::thread`, no external dependencies) that each evaluate the
//!   same way. Every evaluation, whoever calls it, takes one of
//!   [`EngineConfig::workers`] slots.
//! * **Single-flight memo cache**, sharded and keyed by stable 128-bit
//!   content fingerprints of queries and structures
//!   ([`bagcq_structure::Fingerprint`]): structurally equal jobs are
//!   computed once; concurrent duplicates join the in-flight computation
//!   instead of repeating it.
//! * **Deadlines and step budgets**, carried on each attempt's
//!   [`bagcq_homcount::EvalControl`] and polled by the counting loops: a
//!   pathological count returns [`Outcome::TimedOut`] while unrelated
//!   jobs in the same batch complete normally.
//! * **Panic isolation**: evaluations run under `catch_unwind`, so a
//!   panicking job yields [`Outcome::Panicked`] without poisoning the
//!   memo cache or unwinding into its caller.
//! * **Dual-engine cross-validation** ([`EngineConfig::cross_validate`]):
//!   every count is computed by both the naive backtracking engine and
//!   the treewidth DP and compared — the workspace-wide soundness story
//!   (two independent implementations of Section 2.1's `|Hom(ψ, D)|`)
//!   applied continuously instead of only in tests. A disagreement is a
//!   typed [`CountError::Mismatch`], never a silently wrong number.
//! * **Resilience**: for a fixed kernel and input an evaluation fails
//!   every time or never, so the engine makes one attempt per kernel,
//!   never sleeps, and shares no failure state between callers; an
//!   evaluation that panics or exhausts its step or byte budget hops once
//!   to the naive engine, then resolves to a typed outcome.
//! * **Deterministic fault injection** ([`FaultPlan`], [`FaultInjector`]):
//!   a seeded chaos harness threaded through every evaluation checkpoint,
//!   driving the chaos test suite's core property — under any fault
//!   schedule, completed outcomes are bit-identical to a clean run and
//!   the cache never stores a faulty result.
//! * **Serving guards**: a [`TenantGate`] admits each request under its
//!   tenant's [`TenantQuota`] before the engine sees it; at most
//!   [`EngineConfig::workers`] evaluations run at once, and the callers
//!   waiting for a slot are counted ([`MetricsSnapshot::queue_depth`]); a
//!   refused request resolves to a typed [`Outcome::Shed`]
//!   instead of hanging or vanishing. [`EngineHealth`] reads `Healthy`
//!   until a drain, then `Draining`.
//! * **Memory budgeting** ([`EngineConfig::memory_budget_bytes`]): the
//!   `Nat`-heavy counting loops debit an engine-wide byte account through
//!   `homcount`'s [`bagcq_homcount::MemoryGauge`] hook; an evaluation
//!   that would dwarf memory resolves as
//!   [`Outcome::MemoryBudgetExceeded`] instead of taking the process
//!   down, and is counted apart from panics
//!   ([`MetricsSnapshot::jobs_over_budget`]).
//! * **Graceful drain** ([`EvalEngine::drain`]): closes the evaluation
//!   slots, sheds callers still waiting for one, finishes or hard-stops
//!   evaluations in flight, flushes the persistent store, and returns by
//!   a caller-supplied deadline with a [`DrainReport`] — every job
//!   resolves to exactly one outcome.
//! * **Persistent memo store** ([`MemoStore`],
//!   [`EngineConfig::store`]): completed counts are appended to
//!   disk-backed, CRC-framed segment files keyed by the same 128-bit
//!   fingerprints, and the memo cache reads through to them — a warm
//!   restart (or a sibling worker process sharing the directory) skips
//!   recomputation entirely. Recovery truncates torn tails, quarantines
//!   corrupt records ([`RecoveryReport`]), and compacts dead bytes. Long
//!   sweeps commit their points to the same store, so a killed sweep
//!   resumes where it stopped (see `bagcq-coord`).
//! * **Metrics**: atomic job/cache/fallback counters plus a log₂
//!   latency histogram, snapshot-able as text
//!   ([`MetricsSnapshot::render`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod budget;
mod cache;
mod engine;
mod fault;
mod job;
mod metrics;
mod store;
pub mod trace;

/// The process-global tracer this engine is instrumented with
/// (re-exported so drivers can enable/inspect it without a separate
/// dependency edge).
pub use bagcq_obs as obs;

pub use admission::{
    TenantConnection, TenantCounters, TenantGate, TenantPermit, TenantQuota, TenantRefusal,
    TenantSpec,
};
/// The unified counting surface, re-exported from `bagcq-homcount` so
/// engine users name backends and counting errors without a separate
/// dependency edge: [`BackendChoice`] selects a kernel, [`CountRequest`]
/// is the direct (engine-less) API, and [`CountError`] is the one error
/// hierarchy the engine, the containment checker, and the kernels all
/// speak.
pub use bagcq_containment::{CheckRequest, CheckSpec, ContainmentChoice, Semantics, Verdict};
pub use bagcq_homcount::{BackendChoice, CountError, CountRequest};
pub use engine::{DrainReport, EngineConfig, EvalEngine};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSchedule};
pub use job::{Job, JobHandle, JobSpec, Outcome, ShedReason};
pub use metrics::{EngineHealth, Metrics, MetricsSnapshot};
pub use store::{MemoStore, RecoveryReport, StoreError, StoreOptions, StoreStats};
pub use trace::{TraceReport, TraceSession};
