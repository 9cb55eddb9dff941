//! Cooperative deadlines and step budgets for the counting loops.
//!
//! The paper's constructions make it easy to write down queries whose
//! naive evaluation is astronomically expensive (that is the point of
//! Theorem 1's reduction). The evaluation engine therefore needs a way to
//! bound a count without killing the thread running it: counting loops
//! periodically poll an [`EvalControl`]'s optional wall-clock deadline
//! and its step budget, and return [`Cancelled`] instead of an answer
//! when either trips.
//!
//! Polling is amortized: a [`Ticker`] reads the clock only every
//! [`CHECK_INTERVAL`] steps, so the fast path of the backtracking engines
//! stays one increment-and-mask per step.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// How many ticks pass between deadline polls (a power of two).
pub const CHECK_INTERVAL: u64 = 1024;

/// Why a computation was cancelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CancelReason {
    /// The control's deadline passed.
    DeadlineExceeded,
    /// The step budget ran out.
    BudgetExhausted,
    /// A [`MemoryGauge`] refused an allocation: the evaluation would push
    /// the engine past its byte budget (or past what `u64` arithmetic can
    /// even size). Deterministic for a fixed budget — retrying the same
    /// engine is futile, but a leaner engine may fit.
    MemoryBudgetExceeded,
    /// The owning engine is draining: in-flight work is asked to stop at
    /// the next checkpoint so shutdown can meet its deadline.
    ShuttingDown,
}

/// Error returned by cancellable counting entry points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cancelled(pub CancelReason);

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            CancelReason::DeadlineExceeded => write!(f, "computation deadline exceeded"),
            CancelReason::BudgetExhausted => write!(f, "computation step budget exhausted"),
            CancelReason::MemoryBudgetExceeded => {
                write!(f, "computation memory budget exceeded")
            }
            CancelReason::ShuttingDown => write!(f, "computation stopped: engine shutting down"),
        }
    }
}

impl std::error::Error for Cancelled {}

/// A callback fired at evaluation checkpoints.
///
/// The counting loops call it through [`EvalControl::checkpoint`] — once
/// at every coarse boundary (evaluation entry, per power-query factor)
/// and at every [`CHECK_INTERVAL`]-step [`Ticker`] poll. A hook may:
///
/// * return `Ok(())` — the common no-op;
/// * sleep before returning — injected latency;
/// * return `Err(Cancelled)` — stop the evaluation, which sees a
///   cancellation like any other;
/// * panic — a simulated worker crash, to be caught by whatever
///   `catch_unwind` isolation the caller runs under.
///
/// The `bagcq-engine` crate uses this to hard-stop evaluations during a
/// drain (`Err`, as [`CancelReason::ShuttingDown`]) and to thread its
/// deterministic fault-injection harness (stalls and panics) through
/// every evaluation without the counting code knowing anything about
/// faults.
pub trait CheckpointHook: Send + Sync {
    /// Fires the checkpoint; `site` names the location (e.g.
    /// `"homcount/count"`, `"homcount/tick"`).
    fn checkpoint(&self, site: &'static str) -> Result<(), Cancelled>;
}

/// A shared allocation-accounting hook: the counting loops report the
/// sizes of the big numbers they are about to materialize *before*
/// materializing them, and the gauge either reserves the bytes or refuses
/// with [`CancelReason::MemoryBudgetExceeded`].
///
/// Accounting is advisory, not an allocator shim — only the `Nat`-heavy
/// products of the counting layer are charged (component counts, free-
/// variable power factors, power-query accumulators), which is where the
/// paper's constructions put all the weight. The `bagcq-engine` crate
/// implements this over a per-engine byte budget so a burst of Theorem 1
/// sweep jobs degrades with typed errors instead of aborting on OOM.
pub trait MemoryGauge: Send + Sync {
    /// Attempts to reserve `bytes` against the budget. `Err` must carry
    /// [`CancelReason::MemoryBudgetExceeded`].
    fn try_reserve(&self, bytes: u64) -> Result<(), Cancelled>;
}

/// Bundled controls for one evaluation: a step budget (`0` = unlimited),
/// an optional wall-clock deadline, an optional [`CheckpointHook`] for
/// the drain's hard stop and fault injection, and an optional
/// [`MemoryGauge`] for allocation accounting. A clone shares the hook and
/// the gauge; the budget and the deadline are plain values.
#[derive(Clone, Default)]
pub struct EvalControl {
    step_budget: u64,
    deadline: Option<Instant>,
    hook: Option<Arc<dyn CheckpointHook>>,
    mem: Option<Arc<dyn MemoryGauge>>,
}

impl fmt::Debug for EvalControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalControl")
            .field("step_budget", &self.step_budget)
            .field("deadline", &self.deadline)
            .field("hook", &self.hook.as_ref().map(|_| "<hook>"))
            .field("mem", &self.mem.as_ref().map(|_| "<gauge>"))
            .finish()
    }
}

impl EvalControl {
    /// No budget, no deadline: counting never stops early.
    pub fn unlimited() -> Self {
        EvalControl::default()
    }

    /// Controls with the given budget (`0` = unlimited) and deadline.
    pub fn new(step_budget: u64, deadline: Option<Instant>) -> Self {
        EvalControl { step_budget, deadline, hook: None, mem: None }
    }

    /// Controls with a budget, deadline, and checkpoint hook.
    pub fn with_hook(
        step_budget: u64,
        deadline: Option<Instant>,
        hook: Option<Arc<dyn CheckpointHook>>,
    ) -> Self {
        EvalControl { step_budget, deadline, hook, mem: None }
    }

    /// Installs a memory gauge on these controls (builder style).
    pub fn with_memory_gauge(mut self, mem: Arc<dyn MemoryGauge>) -> Self {
        self.mem = Some(mem);
        self
    }

    /// Sets the step budget (`0` = unlimited) on these controls (builder
    /// style).
    pub fn with_step_budget(mut self, step_budget: u64) -> Self {
        self.step_budget = step_budget;
        self
    }

    /// Fires the checkpoint hook, if one is installed.
    #[inline]
    pub fn checkpoint(&self, site: &'static str) -> Result<(), Cancelled> {
        match &self.hook {
            Some(hook) => hook.checkpoint(site),
            None => Ok(()),
        }
    }

    /// Reserves `bytes` against the installed memory gauge, if any.
    ///
    /// Counting loops call this *before* materializing a big number; with
    /// no gauge installed it is free.
    #[inline]
    pub fn charge(&self, bytes: u64) -> Result<(), Cancelled> {
        match &self.mem {
            Some(gauge) => gauge.try_reserve(bytes),
            None => Ok(()),
        }
    }

    /// Starts a step counter over these controls.
    pub fn ticker(&self) -> Ticker<'_> {
        Ticker { control: self, steps: 0 }
    }
}

/// Amortized step counter: cheap `tick()` per loop iteration, with the
/// deadline and the checkpoint hook polled every [`CHECK_INTERVAL`] ticks
/// and the budget enforced exactly.
pub struct Ticker<'a> {
    control: &'a EvalControl,
    steps: u64,
}

impl Ticker<'_> {
    /// Records one unit of work; errors if the budget is exhausted or (at
    /// poll boundaries) the deadline has passed or the hook refuses.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Cancelled> {
        self.steps += 1;
        let budget = self.control.step_budget;
        if budget != 0 && self.steps > budget {
            return Err(Cancelled(CancelReason::BudgetExhausted));
        }
        if self.steps.is_multiple_of(CHECK_INTERVAL) {
            if self.control.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Cancelled(CancelReason::DeadlineExceeded));
            }
            self.control.checkpoint("homcount/tick")?;
        }
        Ok(())
    }

    /// Steps recorded so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn passed_deadline_trips_each_ticker_at_its_first_poll() {
        let ctl = EvalControl::new(0, Some(Instant::now() - Duration::from_millis(1)));
        // A check's consecutive counts each start a ticker over one control:
        // every one of them reports the deadline, not just the first.
        for count in 0..2 {
            let mut ticker = ctl.ticker();
            for _ in 1..CHECK_INTERVAL {
                assert!(ticker.tick().is_ok(), "count {count} tripped before its first poll");
            }
            assert_eq!(
                ticker.tick(),
                Err(Cancelled(CancelReason::DeadlineExceeded)),
                "count {count}"
            );
        }
        let far = EvalControl::new(0, Some(Instant::now() + Duration::from_secs(3600)));
        let mut ticker = far.ticker();
        for _ in 0..2 * CHECK_INTERVAL {
            assert!(ticker.tick().is_ok());
        }
    }

    #[test]
    fn budget_enforced_exactly() {
        let ctl = EvalControl::new(10, None);
        let mut ticker = ctl.ticker();
        for _ in 0..10 {
            assert!(ticker.tick().is_ok());
        }
        assert_eq!(ticker.tick(), Err(Cancelled(CancelReason::BudgetExhausted)));
    }

    #[test]
    fn hook_fires_at_poll_boundary_and_can_cancel() {
        use std::sync::atomic::AtomicU64;

        struct Hook {
            fires: AtomicU64,
            fail_from: u64,
        }
        impl CheckpointHook for Hook {
            fn checkpoint(&self, _site: &'static str) -> Result<(), Cancelled> {
                let n = self.fires.fetch_add(1, Ordering::Relaxed) + 1;
                if n >= self.fail_from {
                    Err(Cancelled(CancelReason::ShuttingDown))
                } else {
                    Ok(())
                }
            }
        }

        let hook = Arc::new(Hook { fires: AtomicU64::new(0), fail_from: 2 });
        let ctl = EvalControl::with_hook(0, None, Some(Arc::clone(&hook) as _));
        // Direct checkpoint: first fire ok, second fire cancels.
        assert!(ctl.checkpoint("test/site").is_ok());
        assert_eq!(ctl.checkpoint("test/site"), Err(Cancelled(CancelReason::ShuttingDown)));
        // Ticker path: the third fire happens at the first poll boundary.
        let mut ticker = ctl.ticker();
        let mut tripped = false;
        for _ in 0..CHECK_INTERVAL + 1 {
            if ticker.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "hook cancellation must surface through the ticker");
        assert_eq!(hook.fires.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn memory_gauge_refusal_surfaces_through_charge() {
        use std::sync::atomic::AtomicU64;

        struct Gauge {
            limit: u64,
            used: AtomicU64,
        }
        impl MemoryGauge for Gauge {
            fn try_reserve(&self, bytes: u64) -> Result<(), Cancelled> {
                let used = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
                if used > self.limit {
                    Err(Cancelled(CancelReason::MemoryBudgetExceeded))
                } else {
                    Ok(())
                }
            }
        }

        let ctl = EvalControl::unlimited();
        assert!(ctl.charge(u64::MAX).is_ok(), "no gauge: charging is free");
        let gauged = EvalControl::unlimited()
            .with_memory_gauge(Arc::new(Gauge { limit: 100, used: AtomicU64::new(0) }));
        assert!(gauged.charge(60).is_ok());
        assert_eq!(gauged.charge(60), Err(Cancelled(CancelReason::MemoryBudgetExceeded)));
    }

    #[test]
    fn unlimited_never_trips() {
        let ctl = EvalControl::unlimited();
        let mut ticker = ctl.ticker();
        for _ in 0..10_000 {
            assert!(ticker.tick().is_ok());
        }
    }
}
