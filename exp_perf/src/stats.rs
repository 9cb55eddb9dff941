//! Exact order statistics and process CPU and memory readings.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Microseconds, with sub-microsecond digits kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice. Failed
/// requests are stored as `f64::INFINITY`, so they sort last and count as
/// missing every latency limit.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place (NaN-free input) and returns the slice.
pub fn sort(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted values (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here matches one computed from the JSON lines.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// CPU time this process has run, all threads (exited ones included),
/// user plus system, in seconds: fields 14 and 15 of `/proc/self/stat`,
/// in `USER_HZ` (100 per second on Linux) ticks. Time the host stole
/// from the machine is not in it. `None` off Linux.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// A `Vm*` field of `/proc/self/status`, in KiB (`None` off Linux).
pub fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Reads `VmRSS` every few milliseconds on its own thread and keeps the
/// peak. (`VmHWM` cannot be reset from safe code, and it would include
/// peaks from before the interval of interest.)
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut peak = 0;
            // The flag publishes nothing else, so relaxed ordering does.
            while !flag.load(Ordering::Relaxed) {
                peak = proc_status_kib("VmRSS").unwrap_or(0).max(peak);
                thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling; returns the peak `VmRSS` seen, in KiB.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("the RSS sampler does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(percentile(&with_failure, 0.99), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
