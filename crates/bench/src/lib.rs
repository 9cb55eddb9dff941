//! Shared workloads for the benchmark suite and the experiment binaries.
//!
//! The paper has no tables or figures (it is a theory paper); the
//! "evaluation" this crate regenerates is the set of quantitative claims
//! in its lemmas and theorems — see `DESIGN.md` §5 for the experiment
//! index and `EXPERIMENTS.md` for the recorded outputs.

#![forbid(unsafe_code)]

use bagcq_coord::{sweep_local, SweepSpec, SweepStats};
use bagcq_core::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// A digraph schema with a single binary relation `E`.
pub fn digraph_schema() -> Arc<Schema> {
    let mut b = Schema::builder();
    b.relation("E", 2);
    b.build()
}

/// A random digraph with `n` vertices and ~`density·n²` edges.
pub fn random_digraph(schema: &Arc<Schema>, n: u32, density: f64, seed: u64) -> Structure {
    StructureGen {
        extra_vertices: n,
        density,
        max_tuples_per_relation: ((n as f64 * n as f64 * density) as usize).max(1),
        diagonal_density: 0.1,
    }
    .sample(schema, seed)
}

/// The query families of experiment E-PERF1, labeled.
pub fn query_families(schema: &Arc<Schema>) -> Vec<(&'static str, Query)> {
    vec![
        ("path-4", path_query(schema, "E", 4)),
        ("path-8", path_query(schema, "E", 8)),
        ("cycle-4", cycle_query(schema, "E", 4)),
        ("cycle-6", cycle_query(schema, "E", 6)),
        ("star-6", star_query(schema, "E", 6)),
        ("grid-3x2", grid_query(schema, "E", 3, 2)),
        ("grid-3x3", grid_query(schema, "E", 3, 3)),
    ]
}

/// Where the experiment binaries keep their resumable sweep stores:
/// `BAGCQ_JOURNAL_DIR`, defaulting to `target/sweep-journals`.
pub fn sweep_dir() -> PathBuf {
    std::env::var_os("BAGCQ_JOURNAL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/sweep-journals"))
}

/// Runs `spec` through [`sweep_local`] on the [`MemoStore`] at
/// `<sweep_dir()>/<name>/`. A killed run leaves that store behind and
/// the next run resumes from it; a clean sweep removes it, so the next
/// run re-verifies rather than replays. Returns the sweep's stats and
/// the store directory.
pub fn resumable_sweep(name: &str, spec: &SweepSpec) -> Result<(SweepStats, PathBuf), String> {
    let dir = sweep_dir().join(name);
    let store = MemoStore::open(&dir).map_err(|e| e.to_string())?;
    let stats = sweep_local(spec, &store, |_| {})?;
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((stats, dir))
}

/// Parses a `--trace <path>` (or `--trace=<path>`) flag from the command
/// line and starts a [`TraceSession`] at that path. Returns `None` — and
/// leaves the tracer disabled, its cost one relaxed load per
/// instrumentation site — when the flag is absent.
pub fn start_trace_from_args() -> Option<TraceSession> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            let path = args.next().expect("--trace requires a path argument");
            return Some(TraceSession::start(path));
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(TraceSession::start(p.to_string()));
        }
    }
    None
}

/// Prints the `E-TRACE` summary section (per-stage latency histograms)
/// and commits the session's trace files. No-op when `session` is `None`
/// (the binary ran without `--trace`), so golden output stays stable.
pub fn emit_trace_section(session: Option<TraceSession>) {
    let Some(session) = session else { return };
    println!();
    println!("## E-TRACE — per-stage span latencies (process-wide tracer)");
    println!();
    let stats = bagcq_core::obs::stage_snapshot();
    print!("{}", bagcq_core::obs::render_stage_report(&stats));
    match session.finish() {
        Ok(report) => {
            println!();
            println!(
                "trace committed: {} spans + {} instants -> {} (Perfetto) and {} (JSONL)",
                report.spans,
                report.instants,
                report.chrome_path.display(),
                report.jsonl_path.display()
            );
        }
        Err(e) => eprintln!("trace export failed: {e}"),
    }
}

/// Formats a potentially huge count compactly.
pub fn fmt_count(n: &Nat) -> String {
    let s = n.to_string();
    if s.len() <= 24 {
        s
    } else {
        format!("≈2^{:.1} ({} digits)", n.log2(), s.len())
    }
}

/// Markdown-style table row printer.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Markdown separator row with `n` columns.
pub fn sep(n: usize) {
    println!("|{}", " --- |".repeat(n));
}
