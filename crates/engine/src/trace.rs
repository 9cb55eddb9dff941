//! Engine-level tracing integration over [`bagcq_obs`].
//!
//! The core tracer (spans, per-thread buffers, exports, stage
//! histograms) lives in the dependency-free `bagcq-obs` crate so the
//! evaluation crates below this one (`homcount`, `reduction`,
//! `containment`) can emit spans too. This module adds the pieces that
//! only make sense at the engine/driver level:
//!
//! * [`TraceSession`] — the `--trace <path>` lifecycle used by the
//!   `exp_*` binaries: enable → run → [`TraceSession::finish`], which
//!   commits both the Chrome-trace JSON (Perfetto /
//!   `chrome://tracing`) and the JSONL event log through
//!   [`bagcq_obs::atomic_write`] (write-temp, fsync, rename);
//! * [`outcome_label`] — stable names for publish instants;
//! * the fingerprint bridge from [`bagcq_structure::Fingerprint`] to
//!   the tracer's 128-bit span fingerprints.

use crate::job::Outcome;
use bagcq_structure::Fingerprint;
use std::io;
use std::path::{Path, PathBuf};

/// Packs a content fingerprint into the tracer's 128-bit form.
pub fn fp_bits(fp: &Fingerprint) -> u128 {
    (u128::from(fp.hi) << 64) | u128::from(fp.lo)
}

/// The stable stage-agnostic label of an outcome, used for
/// `engine.publish` instants.
pub fn outcome_label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Count(_) => "count",
        Outcome::Power(_) => "power",
        Outcome::Verdict(_) => "verdict",
        Outcome::TimedOut => "timed_out",
        Outcome::Panicked(_) => "panicked",
        Outcome::MemoryBudgetExceeded => "over_budget",
        Outcome::Shed(_) => "shed",
    }
}

/// An active `--trace` recording: created at driver startup, finished
/// after the workload to commit the trace files.
///
/// Starting a session resets the process-global tracer (events from
/// before the session are dropped) and enables recording; finishing
/// disables recording and writes two files derived from the configured
/// path:
///
/// * the path as given — Chrome trace event format (a JSON array), for
///   Perfetto / `chrome://tracing`;
/// * the same path with a `jsonl` extension — one JSON object per
///   event, for machine consumption ([`bagcq_obs::parse_jsonl`]).
#[derive(Debug)]
pub struct TraceSession {
    chrome_path: PathBuf,
    jsonl_path: PathBuf,
}

/// What a finished [`TraceSession`] wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceReport {
    /// The Chrome-trace (Perfetto) file.
    pub chrome_path: PathBuf,
    /// The JSONL event log.
    pub jsonl_path: PathBuf,
    /// Span events recorded.
    pub spans: usize,
    /// Instant events recorded.
    pub instants: usize,
}

impl TraceSession {
    /// Resets the tracer, enables recording, and remembers where
    /// [`TraceSession::finish`] will commit the files.
    pub fn start(path: impl Into<PathBuf>) -> Self {
        let chrome_path: PathBuf = path.into();
        let mut jsonl_path = chrome_path.with_extension("jsonl");
        if jsonl_path == chrome_path {
            jsonl_path = chrome_path.with_extension("spans.jsonl");
        }
        bagcq_obs::reset();
        bagcq_obs::enable();
        TraceSession { chrome_path, jsonl_path }
    }

    /// The Chrome-trace output path.
    pub fn chrome_path(&self) -> &Path {
        &self.chrome_path
    }

    /// The JSONL output path.
    pub fn jsonl_path(&self) -> &Path {
        &self.jsonl_path
    }

    /// Disables recording and atomically commits both trace files.
    pub fn finish(self) -> io::Result<TraceReport> {
        bagcq_obs::disable();
        let events = bagcq_obs::snapshot_events();
        let spans = events.iter().filter(|e| e.kind == bagcq_obs::EventKind::Span).count();
        let instants = events.len() - spans;
        bagcq_obs::write_chrome_trace(&self.chrome_path)?;
        bagcq_obs::write_jsonl(&self.jsonl_path)?;
        Ok(TraceReport {
            chrome_path: self.chrome_path,
            jsonl_path: self.jsonl_path,
            spans,
            instants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Outcome;

    // Sessions own the process-global tracer; keep the tests that start
    // one from interleaving.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn fp_bits_packs_hi_lo() {
        let fp = Fingerprint { hi: 0x1234, lo: 0x5678 };
        assert_eq!(fp_bits(&fp), (0x1234u128 << 64) | 0x5678);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(outcome_label(&Outcome::TimedOut), "timed_out");
        assert_eq!(outcome_label(&Outcome::Panicked("x".into())), "panicked");
        assert_eq!(outcome_label(&Outcome::Shed(crate::job::ShedReason::Draining)), "shed");
    }

    #[test]
    fn session_writes_both_files() {
        let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("bagcq-trace-{}", std::process::id()));
        let session = TraceSession::start(dir.join("out.json"));
        assert_eq!(session.jsonl_path(), dir.join("out.jsonl"));
        {
            let _g = bagcq_obs::span("trace.test", "session");
        }
        let report = session.finish().expect("trace files written");
        assert!(report.spans >= 1);
        let chrome = std::fs::read_to_string(&report.chrome_path).unwrap();
        assert!(bagcq_obs::json::parse(&chrome).is_ok(), "chrome trace must be valid JSON");
        let jsonl = std::fs::read_to_string(&report.jsonl_path).unwrap();
        let events = bagcq_obs::parse_jsonl(&jsonl).expect("jsonl parses");
        bagcq_obs::validate_nesting(&events).expect("well nested");
        bagcq_obs::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_extension_collision_is_avoided() {
        let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
        let s = TraceSession::start("/tmp/t.jsonl");
        assert_ne!(s.jsonl_path(), s.chrome_path());
        bagcq_obs::disable();
        bagcq_obs::reset();
    }
}
