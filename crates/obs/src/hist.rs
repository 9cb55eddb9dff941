//! The workspace's one log₂ latency histogram, shared by the tracer's
//! per-stage aggregates, the engine's job-latency metrics and the load
//! generator's client-side tally.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A log₂ histogram of microsecond durations. Bucket `i` covers
/// `[2^(i-1), 2^i)` µs: bucket 0 is `< 1 µs`, and the last bucket absorbs
/// everything from `2^30 µs` (about 18 minutes) up.
///
/// Recording is one relaxed atomic add, so worker threads share one
/// histogram without a lock. `Clone` and `==` act on a relaxed
/// point-in-time copy of the counts.
#[derive(Debug, Default)]
pub struct Log2Histogram {
    buckets: [AtomicU64; Log2Histogram::BUCKETS],
}

impl Log2Histogram {
    /// Number of buckets.
    pub const BUCKETS: usize = 32;

    /// The bucket a duration of `us` microseconds falls into.
    pub fn bucket_index(us: u64) -> usize {
        (64 - us.leading_zeros() as usize).min(Self::BUCKETS - 1)
    }

    /// Exclusive upper bound of bucket `i`, in microseconds.
    pub fn bucket_hi(i: usize) -> u64 {
        1 << i
    }

    /// Records one observation of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation of `elapsed`, truncated to whole
    /// microseconds.
    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// A relaxed copy of the per-bucket counts.
    pub fn counts(&self) -> [u64; Self::BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Upper bound (µs) of the bucket holding quantile `q` (clamped to
    /// `[0, 1]`), so an overestimate by less than 2×; `0` when empty. That
    /// bucket is the first whose running count reaches `⌈q·n⌉`, and never
    /// one below the first observation.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        counts
            .iter()
            .position(|&n| {
                seen += n;
                seen >= target
            })
            .map_or(0, Self::bucket_hi)
    }
}

impl Clone for Log2Histogram {
    fn clone(&self) -> Self {
        Log2Histogram { buckets: self.counts().map(AtomicU64::new) }
    }
}

impl PartialEq for Log2Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.counts() == other.counts()
    }
}

impl Eq for Log2Histogram {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), Log2Histogram::BUCKETS - 1);
        for i in 1..Log2Histogram::BUCKETS - 1 {
            let hi = Log2Histogram::bucket_hi(i);
            assert_eq!(Log2Histogram::bucket_index(hi / 2), i);
            assert_eq!(Log2Histogram::bucket_index(hi - 1), i);
            assert_eq!(Log2Histogram::bucket_index(hi), i + 1);
        }
    }

    #[test]
    fn clone_and_eq_compare_counts() {
        let h = Log2Histogram::default();
        assert_eq!(h.quantile_upper_us(0.5), 0);
        h.record_us(3);
        let copy = h.clone();
        assert_eq!(copy, h);
        h.record_us(3);
        assert_ne!(copy, h);
        assert_eq!(copy.counts()[2], 1);
    }
}
