//! Deterministic, seedable fault injection for the evaluation engine.
//!
//! A [`FaultPlan`] is a pure description of *how often* and *which kinds*
//! of faults to inject; a [`FaultInjector`] executes one plan. The
//! injector implements [`CheckpointHook`], so installing it on an
//! [`crate::EngineConfig`] threads it through every
//! [`bagcq_homcount::EvalControl`] the workers build — faults then fire
//! inside the counting loops themselves (ticker poll boundaries) and at
//! the engine's own count checkpoints, exactly where real failures strike.
//!
//! Decisions are a pure function of `(seed, site, checkpoint-sequence)`:
//! re-running the same single-threaded workload under the same plan
//! injects the same faults in the same places. Under a multi-worker pool
//! the *sequence* of decisions is still fixed by the seed; only which job
//! draws which decision varies with scheduling — which is what the chaos
//! suite wants, since its property ("completed outcomes are bit-identical
//! to a clean run, failures are never cached") must hold under **any**
//! interleaving.
//!
//! Four fault kinds, mirroring what long sweeps actually hit:
//!
//! * [`FaultKind::Panic`] — a worker crash (`panic!` at the checkpoint);
//! * [`FaultKind::Latency`] — a slow disk/NUMA stall (bounded sleep);
//! * [`FaultKind::SpuriousCancel`] — a cancellation nobody requested;
//! * [`FaultKind::TransientError`] — a counter that fails once and then
//!   recovers (only fires at engine count sites; at loop checkpoints it
//!   degrades to a spurious cancel, the closest typed signal available).
//!
//! A fifth, opt-in kind targets the supervision layer rather than the
//! per-job ladder: [`FaultKind::WorkerKill`] kills the worker *thread*
//! itself (its marker panic is deliberately re-raised past the engine's
//! `catch_unwind`), forcing the supervisor to reap and restart it.

use bagcq_homcount::CountError;
use bagcq_homcount::{CancelReason, Cancelled, CheckpointHook};
use bagcq_obs::{fnv1a, splitmix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The kinds of fault an injector can fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the checkpoint (simulated worker crash).
    Panic,
    /// Sleep briefly at the checkpoint (simulated stall).
    Latency,
    /// Return a spurious [`Cancelled`] that no token requested.
    SpuriousCancel,
    /// Fail a count with a typed transient error.
    TransientError,
    /// Kill the whole worker *thread*, not just the attempt: the panic
    /// carries a `WorkerKillMarker` payload that the engine's
    /// `catch_unwind` deliberately re-raises, so the thread dies and the
    /// supervision layer has to notice, recover the job, and restart the
    /// worker. Not in [`FaultPlan::seeded`]'s default mix (it exercises
    /// supervision, not the per-job resilience ladder); opt in with
    /// [`FaultPlan::with_kinds`].
    WorkerKill,
}

const ALL_KINDS: [FaultKind; 4] =
    [FaultKind::Panic, FaultKind::Latency, FaultKind::SpuriousCancel, FaultKind::TransientError];

/// The panic payload of a [`FaultKind::WorkerKill`] fault. The engine's
/// panic isolation checks for this exact type and resumes the unwind
/// instead of converting it to [`crate::Outcome::Panicked`].
pub(crate) struct WorkerKillMarker;

/// A seeded, declarative fault schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Injection probability per checkpoint, in per-mille (`0..=1000`).
    pub rate_per_mille: u32,
    /// Hard cap on total faults injected (`0` = unlimited). Chaos tests
    /// set this so every job eventually succeeds on resubmission.
    pub max_faults: u64,
    /// Which kinds the plan may fire (empty = no faults at all).
    pub kinds: Vec<FaultKind>,
    /// Sleep duration for [`FaultKind::Latency`] faults.
    pub latency: Duration,
}

impl FaultPlan {
    /// A plan with every fault kind enabled at a moderate rate, capped so
    /// workloads always terminate.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rate_per_mille: 60,
            max_faults: 48,
            kinds: ALL_KINDS.to_vec(),
            latency: Duration::from_millis(1),
        }
    }

    /// Keeps only the given kinds.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Sets the per-mille injection rate.
    pub fn with_rate_per_mille(mut self, rate: u32) -> Self {
        self.rate_per_mille = rate.min(1000);
        self
    }

    /// Sets the total fault cap (`0` = unlimited).
    pub fn with_max_faults(mut self, max: u64) -> Self {
        self.max_faults = max;
        self
    }
}

/// The seeded decision core that [`FaultInjector`] and the serving layer's
/// connection-fault injector share. Draw `n` at `site` hashes
/// `(seed, site, n)` through SplitMix64; it fires when the hash falls under
/// the per-mille rate and a fault can still be claimed under `max_faults`
/// (`0` = unlimited; the lock-free claim never over-counts), and takes its
/// kind from the hash's high half.
#[derive(Debug)]
pub struct FaultSchedule<K> {
    seed: u64,
    rate_per_mille: u32,
    max_faults: u64,
    kinds: Vec<K>,
    sequence: AtomicU64,
    fired: AtomicU64,
    /// Fired counts, one per entry of `kinds`.
    per_kind: Vec<AtomicU64>,
}

impl<K: Copy + PartialEq> FaultSchedule<K> {
    /// A schedule firing `kinds` at `rate_per_mille`, at most
    /// `max_faults` times in total (`0` = unlimited).
    pub fn new(seed: u64, rate_per_mille: u32, max_faults: u64, kinds: &[K]) -> Self {
        FaultSchedule {
            seed,
            rate_per_mille,
            max_faults,
            kinds: kinds.to_vec(),
            sequence: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            per_kind: kinds.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Draws the next decision at `site`: the kind that fires and the
    /// hash it was drawn from, or `None`.
    pub fn draw(&self, site: &str) -> Option<(K, u64)> {
        let n = self.sequence.fetch_add(1, Ordering::Relaxed);
        if self.kinds.is_empty() || self.rate_per_mille == 0 {
            return None;
        }
        let h =
            splitmix64(self.seed ^ fnv1a(site.as_bytes()) ^ n.wrapping_mul(0xA24B_AED4_963E_E407));
        if (h % 1000) as u32 >= self.rate_per_mille {
            return None;
        }
        if self.max_faults > 0 {
            self.fired
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                    (f < self.max_faults).then_some(f + 1)
                })
                .ok()?;
        } else {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        let slot = ((h >> 32) as usize) % self.kinds.len();
        self.per_kind[slot].fetch_add(1, Ordering::Relaxed);
        Some((self.kinds[slot], h))
    }

    /// Draws so far, fired or not.
    pub fn draws(&self) -> u64 {
        self.sequence.load(Ordering::Relaxed)
    }

    /// Faults fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Faults of one kind fired so far.
    pub fn fired_of(&self, kind: K) -> u64 {
        self.kinds
            .iter()
            .zip(&self.per_kind)
            .filter(|(k, _)| **k == kind)
            .map(|(_, n)| n.load(Ordering::Relaxed))
            .sum()
    }
}

/// Executes a [`FaultPlan`]: decides, per checkpoint, whether to fire and
/// what, and keeps per-kind counters of what it injected.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    schedule: FaultSchedule<FaultKind>,
}

impl FaultInjector {
    /// An injector executing `plan`, shareable across workers.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        let schedule =
            FaultSchedule::new(plan.seed, plan.rate_per_mille, plan.max_faults, &plan.kinds);
        Arc::new(FaultInjector { plan, schedule })
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.schedule.fired()
    }

    /// Faults of one kind injected so far.
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        self.schedule.fired_of(kind)
    }

    /// Checkpoints seen so far (fired or not).
    pub fn checkpoints(&self) -> u64 {
        self.schedule.draws()
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the decision for the next checkpoint at `site`.
    fn decide(&self, site: &str) -> Option<FaultKind> {
        self.schedule.draw(site).map(|(kind, _)| kind)
    }

    /// Checkpoint for engine-level count sites: all four kinds fire with
    /// their precise semantics ([`FaultKind::TransientError`] becomes a
    /// typed [`CountError::Transient`]).
    pub(crate) fn intercept_count(&self, site: &'static str) -> Result<(), CountError> {
        match self.decide(site) {
            None => Ok(()),
            Some(FaultKind::Panic) => panic!("fault injection: panic at {site}"),
            Some(FaultKind::Latency) => {
                std::thread::sleep(self.plan.latency);
                Ok(())
            }
            Some(FaultKind::SpuriousCancel) => {
                Err(CountError::Cancelled(Cancelled(CancelReason::Cancelled)))
            }
            Some(FaultKind::TransientError) => {
                Err(CountError::Transient(format!("fault injection: transient error at {site}")))
            }
            Some(FaultKind::WorkerKill) => std::panic::panic_any(WorkerKillMarker),
        }
    }
}

impl CheckpointHook for FaultInjector {
    /// Checkpoint inside the counting loops: the hook's error channel is
    /// [`Cancelled`], so a drawn `TransientError` degrades to a spurious
    /// cancel (same transient class, same retry treatment).
    fn checkpoint(&self, site: &'static str) -> Result<(), Cancelled> {
        self.intercept_count(site).map_err(|_| Cancelled(CancelReason::Cancelled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fired decisions among the first 512 at `site`, as
    /// `index:kind` pairs (kind initial: Panic, Latency, spurious Cancel,
    /// Transient error).
    fn fired(seed: u64, site: &str) -> String {
        let inj = FaultInjector::new(FaultPlan::seeded(seed).with_max_faults(0));
        let mut out = Vec::new();
        for n in 0..512 {
            let letter = match inj.decide(site) {
                None => continue,
                Some(FaultKind::Panic) => 'P',
                Some(FaultKind::Latency) => 'L',
                Some(FaultKind::SpuriousCancel) => 'C',
                Some(FaultKind::TransientError) => 'T',
                Some(FaultKind::WorkerKill) => 'K',
            };
            out.push(format!("{n}:{letter}"));
        }
        out.join(" ")
    }

    #[test]
    fn decisions_are_pinned() {
        // Hard-coded replay: CI chaos seeds and archived runs depend on
        // these exact schedules.
        let expected = [
            (
                1,
                "engine/count",
                "3:C 34:T 58:P 81:C 116:C 120:P 130:T 137:T 152:T 163:C 198:C 203:L 228:L \
                 236:L 241:L 242:L 249:T 253:C 280:L 296:L 301:P 305:P 307:L 325:L 327:P \
                 366:P 393:T 429:P 437:T 439:T 440:T 466:L",
            ),
            (
                1,
                "homcount/tick",
                "7:L 69:L 70:C 105:C 108:C 121:L 124:T 148:T 151:P 176:C 182:C 215:T 226:C \
                 268:C 273:L 316:C 331:C 333:C 344:T 352:P 360:P 372:P 376:L 379:P 399:L \
                 404:P 410:L 478:C 480:C 485:C",
            ),
            (
                7,
                "engine/count",
                "36:T 53:L 66:T 90:P 97:L 106:P 111:L 133:T 143:C 161:L 165:T 166:P 169:T \
                 171:T 189:T 190:C 232:C 243:C 253:C 298:C 325:C 334:T 335:L 357:P 363:L \
                 370:L 413:C 425:C 437:C 454:L 458:T 460:P 466:T 501:C 505:C",
            ),
            (
                7,
                "homcount/tick",
                "47:C 58:C 81:P 124:T 136:C 170:C 195:P 203:T 234:T 237:C 297:T 323:C 336:C \
                 351:L 376:C 394:T 402:T 413:P 418:L 428:L 429:T 466:C 483:L",
            ),
            (
                42,
                "engine/count",
                "6:C 32:C 57:C 130:C 144:T 158:P 207:P 219:P 255:C 273:P 275:T 329:C 365:C \
                 372:L 378:T 388:P 390:P 397:L 408:L 414:C 418:L 421:C 453:P 465:T 485:L 493:L",
            ),
            (
                42,
                "homcount/tick",
                "2:T 20:L 29:C 33:T 58:P 61:C 62:L 93:P 135:L 138:C 142:T 143:T 152:L 184:L \
                 187:L 200:L 212:L 238:L 250:C 277:C 288:T 290:L 294:L 316:L 319:L 358:P \
                 369:P 400:P 419:L 454:C 457:T 459:T 471:L 475:L",
            ),
        ];
        for (seed, site, want) in expected {
            assert_eq!(fired(seed, site), want, "seed {seed} site {site}");
        }
    }

    // The rest pins the schedule core on a toy kind set; both injectors
    // hold the same core, so these cover the engine and the wire alike.

    fn drain(s: &FaultSchedule<u8>, n: u64, site: &str) -> Vec<Option<(u8, u64)>> {
        (0..n).map(|_| s.draw(site)).collect()
    }

    #[test]
    fn draws_are_reproducible_and_keyed_by_seed_and_site() {
        let fresh = |seed| FaultSchedule::new(seed, 60, 0, &[0u8, 1, 2, 3]);
        let a = fresh(7);
        assert_eq!(drain(&a, 500, "a"), drain(&fresh(7), 500, "a"));
        assert!(a.fired() > 0, "a 6% rate over 500 draws must fire");
        assert_ne!(drain(&fresh(1), 500, "a"), drain(&fresh(2), 500, "a"));
        assert_ne!(drain(&fresh(7), 500, "a"), drain(&fresh(7), 500, "b"));
    }

    #[test]
    fn max_faults_caps_total() {
        let s = FaultSchedule::new(3, 1000, 48, &[0u8, 1]);
        assert_eq!(drain(&s, 200, "a").into_iter().flatten().count(), 48);
        assert_eq!(s.fired(), 48);
        // Once the cap is hit, everything passes clean.
        assert!(drain(&s, 50, "a").iter().all(Option::is_none));
    }

    #[test]
    fn rate_zero_and_no_kinds_are_no_ops() {
        for s in [FaultSchedule::new(4, 0, 0, &[0u8]), FaultSchedule::new(4, 1000, 0, &[])] {
            assert!(drain(&s, 300, "a").iter().all(Option::is_none));
            assert_eq!(s.fired(), 0);
            assert_eq!(s.draws(), 300);
        }
    }

    #[test]
    fn kind_filter_respected() {
        let s = FaultSchedule::new(5, 1000, 0, &[2u8]);
        assert!(drain(&s, 100, "a").iter().all(|d| matches!(d, Some((2, _)))));
        assert_eq!(s.fired_of(2), 100);
        assert_eq!(s.fired_of(0), 0);
    }
}
