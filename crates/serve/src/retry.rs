//! Bounded retries with exponential backoff and deterministic jitter for
//! the loadgen's self-healing client.
//!
//! [`RetryPolicy`] governs how the client resends a request after a
//! **transient** failure — a transport error, a truncated response, a
//! checksum mismatch, a 408 slow-client eviction, or a `corrupt` 400 on a
//! frame known to be well-formed. Typed overload sheds are never retried;
//! see [`crate::loadgen`].
//!
//! Jitter is *deterministic*: the delay for attempt `k` of a request is a
//! pure function of the policy seed, the request's salt, and `k`, so two
//! runs of the same workload back off identically — a requirement for
//! the chaos suite's reproducibility.

use bagcq_obs::splitmix64;
use std::time::Duration;

/// Retry policy for the client's transient failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per request (`0` disables retrying; the first
    /// failure is final).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Seed mixed into the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5EED_BA6C,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based) of a request
    /// whose identity is mixed in via `salt` (the loadgen mixes the run's
    /// seed with the request's index). Exponential with full determinism:
    /// the result lies in `[exp/2, exp)` where
    /// `exp = min(base·2^attempt, max)`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff)
            .max(Duration::from_micros(1));
        let half = exp / 2;
        let span = exp.as_micros().max(2) as u64 / 2;
        let jitter_us =
            splitmix64(self.jitter_seed ^ salt.rotate_left(attempt.wrapping_add(1))) % span;
        half + Duration::from_micros(jitter_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..5 {
            for salt in [0u64, 1, 0xDEAD_BEEF] {
                let a = p.backoff(attempt, salt);
                let b = p.backoff(attempt, salt);
                assert_eq!(a, b, "same (attempt, salt) must back off identically");
                assert!(a < p.max_backoff * 2, "backoff {a:?} exceeds cap");
            }
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(16),
            ..RetryPolicy::default()
        };
        // Pre-jitter envelope: 4, 8, 16, 16, ... — the jittered value
        // stays within [exp/2, exp).
        for (attempt, cap_ms) in [(0u32, 4u64), (1, 8), (2, 16), (3, 16), (8, 16)] {
            let d = p.backoff(attempt, 7);
            assert!(d >= Duration::from_millis(cap_ms) / 2, "attempt {attempt}: {d:?} too small");
            assert!(d < Duration::from_millis(cap_ms), "attempt {attempt}: {d:?} too large");
        }
    }

    #[test]
    fn salts_decorrelate_jitter() {
        let p = RetryPolicy::default();
        let delays: Vec<_> = (0..16u64).map(|salt| p.backoff(1, salt)).collect();
        let distinct: std::collections::BTreeSet<_> = delays.iter().collect();
        assert!(distinct.len() > 8, "jitter should spread across salts: {delays:?}");
    }
}
