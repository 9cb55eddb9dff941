//! Trace smoke tests: run the experiment binaries with `--trace` and
//! validate the emitted artifacts — the JSONL stream parses, every span
//! nests correctly (exit ≥ enter, parents exist, intervals contain their
//! children), and the Chrome-trace export is a well-formed JSON array a
//! Perfetto load would accept.

use bagcq_core::obs::{self, Event, EventKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin --trace <dir>/trace.json` and returns (stdout, trace.json
/// path, trace.jsonl path).
fn run_traced(bin: &str, dir: &Path, extra_env: &[(&str, &str)]) -> (String, PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).expect("trace dir");
    let chrome = dir.join("trace.json");
    let mut cmd = Command::new(bin);
    cmd.arg("--trace").arg(&chrome);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("experiment binary runs");
    assert!(
        out.status.success(),
        "{bin} --trace failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (String::from_utf8(out.stdout).expect("utf8 stdout"), chrome, dir.join("trace.jsonl"))
}

/// Full artifact validation shared by both binaries.
fn validate_artifacts(stdout: &str, chrome: &Path, jsonl: &Path, want_stages: &[&str]) {
    // The E-TRACE section and the commit line made it to stdout.
    assert!(stdout.contains("## E-TRACE"), "missing E-TRACE section");
    assert!(stdout.contains("trace committed:"), "missing trace commit line");

    // JSONL: parses line-by-line, spans nest, expected stages present.
    let text = std::fs::read_to_string(jsonl).expect("jsonl exists");
    let events: Vec<Event> = obs::parse_jsonl(&text).expect("jsonl parses");
    assert!(!events.is_empty(), "trace must contain events");
    let roots = obs::validate_nesting(&events).expect("spans must nest");
    assert!(roots > 0, "at least one root span");
    let stages: BTreeSet<&str> = events.iter().map(|e| e.stage.as_str()).collect();
    for want in want_stages {
        assert!(stages.contains(want), "stage {want:?} missing from trace; got {stages:?}");
    }
    // Exit ≥ enter, stated directly: a span's end never precedes its
    // start (dur_us is unsigned, so overflow is the only way to lie).
    for e in &events {
        match e.kind {
            EventKind::Span => {
                assert!(e.ts_us.checked_add(e.dur_us).is_some(), "span interval overflows")
            }
            EventKind::Instant => assert_eq!(e.dur_us, 0, "instants are zero-width"),
        }
    }

    // Chrome trace: a non-empty JSON array of objects with the Trace
    // Event Format's required keys.
    let chrome_text = std::fs::read_to_string(chrome).expect("chrome trace exists");
    let parsed = obs::json::parse(&chrome_text).expect("chrome trace parses as JSON");
    let arr = parsed.as_array().expect("chrome trace is a JSON array");
    assert_eq!(arr.len(), events.len(), "one trace event per tracer event");
    for ev in arr {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "chrome event missing {key:?}");
        }
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph is a string");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
    }
}

#[test]
fn exp_engines_trace_parses_and_nests() {
    let dir = std::env::temp_dir().join(format!("bagcq-trace-engines-{}", std::process::id()));
    let (stdout, chrome, jsonl) = run_traced(env!("CARGO_BIN_EXE_exp_engines"), &dir, &[]);
    validate_artifacts(
        &stdout,
        &chrome,
        &jsonl,
        &[
            "engine.process",
            "engine.count",
            "engine.publish",
            "homcount.naive",
            "homcount.treedec",
            "homcount.bagsweep",
            "containment.check",
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exp_theorem1_trace_parses_and_nests() {
    let dir = std::env::temp_dir().join(format!("bagcq-trace-t1-{}", std::process::id()));
    let journal_dir = dir.join("journals");
    let (stdout, chrome, jsonl) = run_traced(
        env!("CARGO_BIN_EXE_exp_theorem1"),
        &dir,
        &[("BAGCQ_JOURNAL_DIR", journal_dir.to_str().expect("utf8 temp path"))],
    );
    validate_artifacts(
        &stdout,
        &chrome,
        &jsonl,
        &["reduction.build", "reduction.sweep_point", "homcount.power", "engine.process"],
    );
    let _ = std::fs::remove_dir_all(&dir);
}
