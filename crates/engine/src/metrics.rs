//! Lock-free metrics for the evaluation engine.
//!
//! A [`Metrics`] registry is a bundle of [`AtomicU64`] counters plus a
//! [`Log2Histogram`] of job latencies, shared by every worker thread and
//! every cache shard of an engine. Reading it never blocks the workers:
//! [`Metrics::snapshot`] takes a relaxed point-in-time copy into a plain
//! [`MetricsSnapshot`], which also knows how to [`render`] itself as a
//! small text report (the format served by `exp_*` binaries and benches).
//!
//! [`render`]: MetricsSnapshot::render

use crate::admission::TenantCounters;
use crate::job::ShedReason;
use crate::store::StoreStats;
use crate::supervisor::{EngineHealth, HealthCell};
use bagcq_obs::{Log2Histogram, StageStats};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Shared atomic counters for one engine instance.
#[derive(Debug, Default)]
pub struct Metrics {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_timed_out: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_failed_fast: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    single_flight_joins: AtomicU64,
    store_hits: AtomicU64,
    cross_validations: AtomicU64,
    retries: AtomicU64,
    fallbacks_taken: AtomicU64,
    breaker_transitions: AtomicU64,
    breaker_rejections: AtomicU64,
    journal_resumes: AtomicU64,
    jobs_shed: AtomicU64,
    jobs_requeued: AtomicU64,
    admission_waits: AtomicU64,
    worker_deaths: AtomicU64,
    worker_restarts: AtomicU64,
    health: HealthCell,
    latency_us: Log2Histogram,
}

impl Metrics {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    pub(crate) fn job_submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_completed(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_timed_out(&self) {
        self.jobs_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_panicked(&self) {
        self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn single_flight_join(&self) {
        self.single_flight_joins.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn store_hit(&self) {
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.store", "hit");
    }

    pub(crate) fn cross_validation(&self) {
        self.cross_validations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_failed_fast(&self) {
        self.jobs_failed_fast.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.resilience", "retry");
    }

    pub(crate) fn fallback_taken(&self) {
        self.fallbacks_taken.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.resilience", "fallback");
    }

    pub(crate) fn breaker_transitions_add(&self, n: u64) {
        if n != 0 {
            self.breaker_transitions.fetch_add(n, Ordering::Relaxed);
            bagcq_obs::instant("engine.resilience", "breaker_transition");
        }
    }

    pub(crate) fn breaker_rejection(&self) {
        self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.resilience", "breaker_rejection");
    }

    pub(crate) fn journal_resumes_add(&self, n: u64) {
        if n != 0 {
            self.journal_resumes.fetch_add(n, Ordering::Relaxed);
            bagcq_obs::instant("engine.resilience", "journal_resume");
        }
    }

    pub(crate) fn job_shed(&self, reason: ShedReason) {
        self.jobs_shed.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.admission", reason.label());
    }

    pub(crate) fn job_requeued(&self) {
        self.jobs_requeued.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.supervisor", "requeue");
    }

    pub(crate) fn admission_wait(&self) {
        self.admission_waits.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.admission", "wait");
    }

    pub(crate) fn worker_death(&self) {
        self.worker_deaths.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.supervisor", "worker_death");
    }

    pub(crate) fn worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
        bagcq_obs::instant("engine.supervisor", "worker_restart");
    }

    pub(crate) fn health(&self) -> EngineHealth {
        self.health.get()
    }

    /// Raw counter reads for the drain loop — polling with full
    /// [`Metrics::snapshot`]s (which clone the process-wide stage stats)
    /// would be needlessly heavy.
    pub(crate) fn submitted_count(&self) -> u64 {
        self.jobs_submitted.load(Ordering::Relaxed)
    }

    pub(crate) fn completed_count(&self) -> u64 {
        self.jobs_completed.load(Ordering::Relaxed)
    }

    pub(crate) fn shed_count(&self) -> u64 {
        self.jobs_shed.load(Ordering::Relaxed)
    }

    pub(crate) fn set_health(&self, next: EngineHealth) -> bool {
        self.health.set(next)
    }

    pub(crate) fn observe_latency(&self, elapsed: Duration) {
        self.latency_us.record(elapsed);
    }

    /// A relaxed point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_timed_out: self.jobs_timed_out.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            jobs_failed_fast: self.jobs_failed_fast.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            single_flight_joins: self.single_flight_joins.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            cross_validations: self.cross_validations.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks_taken: self.fallbacks_taken.load(Ordering::Relaxed),
            breaker_transitions: self.breaker_transitions.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            journal_resumes: self.journal_resumes.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            jobs_requeued: self.jobs_requeued.load(Ordering::Relaxed),
            admission_waits: self.admission_waits.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            health: self.health.get(),
            // The queue and memory gauges live outside the registry; the
            // engine fills them in (`EvalEngine::metrics`).
            queue_depth: 0,
            queue_high_water: 0,
            mem_used_bytes: 0,
            mem_high_water_bytes: 0,
            mem_denials: 0,
            latency_us: self.latency_us.clone(),
            // The persistent store lives outside the registry; the
            // engine fills its stats in (`EvalEngine::metrics`).
            store: None,
            stages: bagcq_obs::stage_snapshot(),
            // Tenant counters live in the serving layer's `TenantGate`;
            // `bagcq-serve` fills them in before rendering `/metrics`.
            tenants: Vec::new(),
        }
    }
}

/// A plain-data copy of a [`Metrics`] registry at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs handed to [`crate::EvalEngine::submit`].
    pub jobs_submitted: u64,
    /// Jobs whose outcome has been published (any outcome, including
    /// failures).
    pub jobs_completed: u64,
    /// Jobs that finished as [`crate::Outcome::TimedOut`].
    pub jobs_timed_out: u64,
    /// Jobs that finished as [`crate::Outcome::Panicked`].
    pub jobs_panicked: u64,
    /// Jobs rejected by an open circuit breaker
    /// ([`crate::Outcome::FailedFast`]).
    pub jobs_failed_fast: u64,
    /// Memo-cache lookups answered from a `Ready` slot.
    pub cache_hits: u64,
    /// Lookups that started a fresh computation.
    pub cache_misses: u64,
    /// Lookups that joined an in-flight computation instead of
    /// duplicating it (single-flight deduplication).
    pub single_flight_joins: u64,
    /// Memo-cache misses answered from the persistent [`crate::MemoStore`]
    /// tier (read-through hits; the work was skipped entirely).
    pub store_hits: u64,
    /// Counts that were computed by both engines and compared.
    pub cross_validations: u64,
    /// Transient-failure retries performed (backoff sleeps taken).
    pub retries: u64,
    /// Evaluations re-run on the fallback engine (treewidth → naive).
    pub fallbacks_taken: u64,
    /// Circuit-breaker state transitions (closed→open, open→half-open,
    /// half-open→closed/open).
    pub breaker_transitions: u64,
    /// Jobs rejected by an open breaker before evaluation.
    pub breaker_rejections: u64,
    /// Sweep points restored from a [`crate::SweepJournal`] instead of
    /// recomputed (reported by experiment drivers).
    pub journal_resumes: u64,
    /// Jobs shed by the serving layer ([`crate::Outcome::Shed`]): refused
    /// at admission, expired at dequeue, or flushed by a drain.
    pub jobs_shed: u64,
    /// Jobs recovered from a dying worker and requeued for another run.
    pub jobs_requeued: u64,
    /// Submissions that blocked for a queue slot under
    /// [`crate::AdmissionPolicy::Block`] (backpressure events).
    pub admission_waits: u64,
    /// Worker threads the supervisor found dead.
    pub worker_deaths: u64,
    /// Worker threads the supervisor restarted.
    pub worker_restarts: u64,
    /// The engine health state at snapshot time.
    pub health: EngineHealth,
    /// Jobs queued at snapshot time.
    pub queue_depth: u64,
    /// The deepest the job queue has ever been.
    pub queue_high_water: u64,
    /// Bytes currently reserved against the memory budget (`0` when no
    /// budget is configured).
    pub mem_used_bytes: u64,
    /// The deepest the memory budget account has ever been.
    pub mem_high_water_bytes: u64,
    /// Memory-budget reservations refused.
    pub mem_denials: u64,
    /// End-to-end job latencies.
    pub latency_us: Log2Histogram,
    /// Persistent-store counters, when the engine has a
    /// [`crate::MemoStore`] tier configured ([`crate::EngineConfig::store`]).
    pub store: Option<StoreStats>,
    /// Per-stage span latency histograms from the process-global tracer
    /// ([`bagcq_obs`]). Empty unless tracing was enabled — the tracer is
    /// process-wide, so these aggregate *all* instrumented activity, not
    /// just this engine's.
    pub stages: Vec<StageStats>,
    /// Per-tenant admission counters from the serving layer's
    /// [`crate::TenantGate`]. Empty unless a serving front end filled
    /// them in (the engine itself is tenant-agnostic).
    pub tenants: Vec<TenantCounters>,
}

impl MetricsSnapshot {
    /// Total observations in the latency histogram.
    pub fn latency_count(&self) -> u64 {
        self.latency_us.count()
    }

    /// Cache hit rate in `[0, 1]`, counting single-flight joins as hits
    /// (the work was not duplicated). `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.cache_hits + self.single_flight_joins;
        let total = hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Renders the snapshot as a small human-readable text report.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "engine metrics")?;
        writeln!(
            f,
            "  jobs     submitted={} completed={} timed_out={} panicked={} failed_fast={}",
            self.jobs_submitted,
            self.jobs_completed,
            self.jobs_timed_out,
            self.jobs_panicked,
            self.jobs_failed_fast
        )?;
        write!(
            f,
            "  cache    hits={} misses={} joins={}",
            self.cache_hits, self.cache_misses, self.single_flight_joins
        )?;
        if self.store_hits != 0 || self.store.is_some() {
            write!(f, " store_hits={}", self.store_hits)?;
        }
        match self.hit_rate() {
            Some(r) => writeln!(f, " hit_rate={:.1}%", 100.0 * r)?,
            None => writeln!(f)?,
        }
        writeln!(f, "  validate cross_validations={}", self.cross_validations)?;
        writeln!(
            f,
            "  resilience retries={} fallbacks={} breaker_transitions={} breaker_rejections={} journal_resumes={}",
            self.retries,
            self.fallbacks_taken,
            self.breaker_transitions,
            self.breaker_rejections,
            self.journal_resumes
        )?;
        writeln!(
            f,
            "  serving  health={} shed={} requeued={} admission_waits={} queue_depth={} queue_high_water={}",
            self.health.label(),
            self.jobs_shed,
            self.jobs_requeued,
            self.admission_waits,
            self.queue_depth,
            self.queue_high_water
        )?;
        writeln!(f, "  workers  deaths={} restarts={}", self.worker_deaths, self.worker_restarts)?;
        if let Some(store) = &self.store {
            writeln!(
                f,
                "  store    records={} segments={} appends={} hits={} compactions={} \
                 quarantined_records={} quarantined_bytes={}",
                store.records,
                store.segments,
                store.appends,
                store.lookups_hit,
                store.compactions,
                store.quarantined_records,
                store.quarantined_bytes
            )?;
        }
        if self.mem_used_bytes != 0 || self.mem_high_water_bytes != 0 || self.mem_denials != 0 {
            writeln!(
                f,
                "  memory   used={} high_water={} denials={}",
                self.mem_used_bytes, self.mem_high_water_bytes, self.mem_denials
            )?;
        }
        writeln!(f, "  latency  ({} observations)", self.latency_count())?;
        for (i, n) in self.latency_us.counts().into_iter().enumerate() {
            if n == 0 {
                continue;
            }
            let hi = Log2Histogram::bucket_hi(i);
            let lo = hi / 2;
            if i == Log2Histogram::BUCKETS - 1 {
                writeln!(f, "    >= {lo}us: {n}")?;
            } else {
                writeln!(f, "    [{lo}us, {hi}us): {n}")?;
            }
        }
        if !self.tenants.is_empty() {
            writeln!(f, "  tenants")?;
            for t in &self.tenants {
                writeln!(
                    f,
                    "    {:<16} admitted={} quota_rejections={} in_flight_rejections={} \
                     connection_rejections={} in_flight={} open_connections={} idempotent_replays={}",
                    t.name,
                    t.admitted,
                    t.quota_rejections,
                    t.in_flight_rejections,
                    t.connection_rejections,
                    t.in_flight,
                    t.open_connections,
                    t.idempotent_replays
                )?;
            }
        }
        if !self.stages.is_empty() {
            writeln!(f, "  stages   (process-wide tracer)")?;
            write!(f, "{}", bagcq_obs::render_stage_report(&self.stages))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_render() {
        let m = Metrics::new();
        m.job_submitted();
        m.job_submitted();
        m.job_completed();
        m.cache_miss();
        m.cache_hit();
        m.observe_latency(Duration::from_micros(3));
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(s.latency_count(), 1);
        assert_eq!(s.hit_rate(), Some(0.5));
        let text = s.render();
        assert!(text.contains("submitted=2"), "{text}");
        assert!(text.contains("hits=1"), "{text}");
        assert!(text.contains("[2us, 4us): 1"), "{text}");
    }

    #[test]
    fn resilience_counters_render() {
        let m = Metrics::new();
        m.retry();
        m.retry();
        m.fallback_taken();
        m.breaker_transitions_add(3);
        m.breaker_rejection();
        m.journal_resumes_add(4);
        m.job_failed_fast();
        let s = m.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.fallbacks_taken, 1);
        assert_eq!(s.breaker_transitions, 3);
        assert_eq!(s.breaker_rejections, 1);
        assert_eq!(s.journal_resumes, 4);
        assert_eq!(s.jobs_failed_fast, 1);
        let text = s.render();
        assert!(text.contains("retries=2"), "{text}");
        assert!(text.contains("journal_resumes=4"), "{text}");
        assert!(text.contains("failed_fast=1"), "{text}");
    }

    #[test]
    fn serving_counters_render() {
        let m = Metrics::new();
        m.job_shed(ShedReason::QueueFull);
        m.job_shed(ShedReason::Draining);
        m.job_requeued();
        m.admission_wait();
        m.worker_death();
        m.worker_restart();
        assert!(m.set_health(EngineHealth::Degraded));
        let mut s = m.snapshot();
        assert_eq!(s.jobs_shed, 2);
        assert_eq!(s.jobs_requeued, 1);
        assert_eq!(s.admission_waits, 1);
        assert_eq!(s.worker_deaths, 1);
        assert_eq!(s.worker_restarts, 1);
        assert_eq!(s.health, EngineHealth::Degraded);
        s.queue_depth = 3;
        s.mem_denials = 2;
        let text = s.render();
        assert!(text.contains("health=degraded"), "{text}");
        assert!(text.contains("shed=2"), "{text}");
        assert!(text.contains("queue_depth=3"), "{text}");
        assert!(text.contains("deaths=1 restarts=1"), "{text}");
        assert!(text.contains("denials=2"), "{text}");
    }

    #[test]
    fn memory_line_is_omitted_when_untouched() {
        let text = Metrics::new().snapshot().render();
        assert!(!text.contains("  memory"), "{text}");
        assert!(text.contains("health=healthy"), "{text}");
    }

    #[test]
    fn hit_rate_counts_joins() {
        let m = Metrics::new();
        m.cache_miss();
        m.single_flight_join();
        m.single_flight_join();
        let s = m.snapshot();
        assert!((s.hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Metrics::new().snapshot().hit_rate(), None);
    }
}
