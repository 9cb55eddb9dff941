//! # bagcq-obs
//!
//! Zero-dependency structured tracing for the bagcq workspace.
//!
//! The tracer is a process-global facility: instrumented code opens RAII
//! [`SpanGuard`]s (enter/exit with monotonic microsecond timestamps, a
//! synthetic thread id, a stage tag, and an optional job fingerprint) and
//! fires point-in-time instant events (fallbacks, store hits, drain
//! steps). Events accumulate in per-thread buffers — each thread
//! appends to a buffer only it writes, so steady-state recording never
//! contends — and drain on demand into:
//!
//! * a **JSONL** file (one event object per line; the machine-readable
//!   record, validated by [`parse_jsonl`] + [`validate_nesting`]);
//! * a **Chrome-trace** JSON array loadable in Perfetto /
//!   `chrome://tracing`;
//! * per-stage latency histograms ([`StageStats`], each a
//!   [`Log2Histogram`]) that the engine appends to its `MetricsSnapshot`.
//!
//! When tracing is disabled (the default) every entry point returns after
//! a single relaxed atomic load, so instrumented hot paths pay effectively
//! nothing. Files are committed through [`atomic_write`]
//! (write-temp, fsync, rename), so a crash mid-export never leaves a
//! torn trace behind.
//!
//! Being the dependency-free leaf every other crate links, it also holds
//! the one copy of each shared primitive: [`Log2Histogram`], [`crc32`],
//! [`SplitMix64`] / [`splitmix64`], [`fnv1a`] and [`atomic_write`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod hist;
pub mod json;

pub use hash::{crc32, fnv1a, splitmix64, SplitMix64};
pub use hist::Log2Histogram;

/// Well-known stage names for the serving layer's instant events, so
/// emitters and trace consumers agree on the strings. Stages emitted by
/// span-instrumented code (e.g. `engine.count`, `homcount.power`) stay
/// inline at their call sites; these constants cover the engine
/// lifecycle instants that tests and dashboards filter on.
pub mod stages {
    /// Engine health transitions (`draining`, once, when a drain begins).
    pub const ENGINE_HEALTH: &str = "engine.health";
    /// Sheds, labelled by reason: `draining` and the tenant gate's
    /// refusals.
    pub const ENGINE_ADMISSION: &str = "engine.admission";
    /// Drain lifecycle: `begin`, `hard_stop`, `end`.
    pub const ENGINE_DRAIN: &str = "engine.drain";
    /// Memory-budget events: `denial`.
    pub const ENGINE_BUDGET: &str = "engine.budget";
    /// Serving layer: request parsing (wire frame → query/instance).
    pub const SERVE_PARSE: &str = "serve.parse";
    /// Serving layer: tenant authentication + quota admission.
    pub const SERVE_ADMIT: &str = "serve.admit";
    /// Serving layer: the job's evaluation (`EvalEngine::run`).
    pub const SERVE_COUNT: &str = "serve.count";
    /// Serving layer: response serialization + socket write.
    pub const SERVE_RESPOND: &str = "serve.respond";
}

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The process-wide monotonic epoch every timestamp is relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<Event>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn stages() -> &'static Mutex<BTreeMap<String, StageStats>> {
    static STAGES: OnceLock<Mutex<BTreeMap<String, StageStats>>> = OnceLock::new();
    STAGES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        registry().lock().unwrap().push(Arc::clone(&buf));
        buf
    };
    // Ids of the spans currently open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on. Instrumented code starts emitting events
/// immediately; the epoch is pinned on first use.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-open spans still record on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the tracer is recording. This is the one branch disabled hot
/// paths pay: a relaxed atomic load.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discards all buffered events and stage aggregates (the enabled flag
/// and thread ids are left alone). Tests and fresh trace sessions call
/// this so earlier activity does not leak into their export.
pub fn reset() {
    for buf in registry().lock().unwrap().iter() {
        buf.events.lock().unwrap().clear();
    }
    stages().lock().unwrap().clear();
}

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval with a duration (RAII span).
    Span,
    /// A point-in-time marker (fallback, store hit, drain step, …).
    Instant,
}

/// One recorded trace event, as exported to (and re-parsed from) JSONL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Span or instant.
    pub kind: EventKind,
    /// Stage tag (histogram key), e.g. `"homcount.bagsweep"`.
    pub stage: String,
    /// Human-readable operation name.
    pub name: String,
    /// Synthetic thread id (stable per OS thread for the process life).
    pub tid: u64,
    /// Unique event id (spans only; instants reuse the counter too).
    pub id: u64,
    /// Id of the span that was open on this thread when the event began.
    pub parent: Option<u64>,
    /// Enter time, microseconds since the tracer epoch.
    pub ts_us: u64,
    /// Duration in microseconds (`0` for instants).
    pub dur_us: u64,
    /// Nesting depth at enter (0 = top level).
    pub depth: u32,
    /// Optional 128-bit job fingerprint, lowercase hex.
    pub fp: Option<String>,
}

/// An open span; records itself (and its stage latency) on drop.
#[must_use = "a span records its duration when dropped"]
pub struct SpanGuard {
    stage: &'static str,
    name: String,
    fp: Option<String>,
    id: u64,
    parent: Option<u64>,
    depth: u32,
    ts_us: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Structurally ours: guards are scope-bound, so the innermost
            // open span is the one being dropped.
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        let end_us = now_us();
        let dur_us = end_us.saturating_sub(self.ts_us);
        record_stage(self.stage, dur_us);
        push_event(Event {
            kind: EventKind::Span,
            stage: self.stage.to_string(),
            name: std::mem::take(&mut self.name),
            tid: LOCAL.with(|b| b.tid),
            id: self.id,
            parent: self.parent,
            ts_us: self.ts_us,
            dur_us,
            depth: self.depth,
            fp: self.fp.take(),
        });
    }
}

fn push_event(ev: Event) {
    LOCAL.with(|buf| buf.events.lock().unwrap().push(ev));
}

fn record_stage(stage: &str, dur_us: u64) {
    let mut map = stages().lock().unwrap();
    let stats =
        map.entry(stage.to_string()).or_insert_with(|| StageStats::empty(stage.to_string()));
    stats.spans += 1;
    stats.total_us += dur_us;
    stats.max_us = stats.max_us.max(dur_us);
    stats.histogram.record_us(dur_us);
}

fn open_span(stage: &'static str, name: &str, fp: Option<u128>) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        let depth = s.len() as u32;
        s.push(id);
        (parent, depth)
    });
    SpanGuard {
        stage,
        name: name.to_string(),
        fp: fp.map(|v| format!("{v:032x}")),
        id,
        parent,
        depth,
        ts_us: now_us(),
    }
}

/// Opens a span under `stage` (the histogram key) named `name`.
/// Returns `None` — after one relaxed load — when tracing is disabled.
pub fn span(stage: &'static str, name: &str) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    Some(open_span(stage, name, None))
}

/// Like [`span`], carrying a 128-bit job fingerprint.
pub fn span_fp(stage: &'static str, name: &str, fp: u128) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    Some(open_span(stage, name, Some(fp)))
}

/// Records a point-in-time event (no duration). No-op when disabled.
pub fn instant(stage: &'static str, name: &str) {
    if enabled() {
        record_instant(stage, name, None);
    }
}

/// Like [`instant`], carrying a 128-bit job fingerprint.
pub fn instant_fp(stage: &'static str, name: &str, fp: u128) {
    if enabled() {
        record_instant(stage, name, Some(fp));
    }
}

fn record_instant(stage: &'static str, name: &str, fp: Option<u128>) {
    let (parent, depth) = STACK.with(|s| (s.borrow().last().copied(), s.borrow().len() as u32));
    push_event(Event {
        kind: EventKind::Instant,
        stage: stage.to_string(),
        name: name.to_string(),
        tid: LOCAL.with(|b| b.tid),
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        ts_us: now_us(),
        dur_us: 0,
        depth,
        fp: fp.map(|v| format!("{v:032x}")),
    });
}

/// Per-stage latency aggregate: span count, total/max duration, and a
/// log₂ histogram, keyed by the stage tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// The stage tag.
    pub stage: String,
    /// Spans recorded under this stage.
    pub spans: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Longest span, microseconds.
    pub max_us: u64,
    /// Span durations.
    pub histogram: Log2Histogram,
}

impl StageStats {
    fn empty(stage: String) -> Self {
        StageStats { stage, spans: 0, total_us: 0, max_us: 0, histogram: Log2Histogram::default() }
    }

    /// Mean span duration in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.spans).unwrap_or(0)
    }
}

/// A point-in-time copy of every stage aggregate, sorted by stage tag.
pub fn stage_snapshot() -> Vec<StageStats> {
    stages().lock().unwrap().values().cloned().collect()
}

/// A point-in-time copy of all buffered events, ordered by
/// `(ts_us, id)`. Buffers are not drained — repeated calls see a
/// superset.
pub fn snapshot_events() -> Vec<Event> {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap().clone();
    let mut out = Vec::new();
    for buf in bufs {
        out.extend(buf.events.lock().unwrap().iter().cloned());
    }
    out.sort_by_key(|e| (e.ts_us, e.id));
    out
}

/// Formats a microsecond duration compactly (`17us`, `4.2ms`, `1.30s`).
pub fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Renders stage aggregates as the text table used by the engine's
/// metrics report and the `E-TRACE` experiment sections.
pub fn render_stage_report(stats: &[StageStats]) -> String {
    let mut out = String::new();
    if stats.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "spans", "total", "mean", "p95<=", "max"
    );
    for s in stats {
        let p95_hi = s.histogram.quantile_upper_us(0.95).min(s.max_us.max(1));
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            s.stage,
            s.spans,
            fmt_us(s.total_us),
            fmt_us(s.mean_us()),
            fmt_us(p95_hi),
            fmt_us(s.max_us)
        );
    }
    out
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: write the sibling `<path>.tmp`,
/// fsync it, then rename it over `path`. The rename is the commit point,
/// so a crash leaves either the old file or the new one — at worst with
/// an orphaned `.tmp` beside it, never a torn `path`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

fn event_jsonl_line(e: &Event, out: &mut String) {
    let kind = match e.kind {
        EventKind::Span => "span",
        EventKind::Instant => "instant",
    };
    let _ = write!(
        out,
        "{{\"kind\":\"{kind}\",\"stage\":\"{}\",\"name\":\"{}\",\"tid\":{},\"id\":{},",
        json::escape(&e.stage),
        json::escape(&e.name),
        e.tid,
        e.id
    );
    if let Some(p) = e.parent {
        let _ = write!(out, "\"parent\":{p},");
    }
    let _ = write!(out, "\"ts_us\":{},\"dur_us\":{},\"depth\":{}", e.ts_us, e.dur_us, e.depth);
    if let Some(fp) = &e.fp {
        let _ = write!(out, ",\"fp\":\"{}\"", json::escape(fp));
    }
    out.push_str("}\n");
}

/// Serializes a snapshot of all buffered events as JSONL and commits it
/// to `path` atomically. Returns the number of events written.
pub fn write_jsonl(path: &Path) -> io::Result<usize> {
    let events = snapshot_events();
    let mut out = String::new();
    for e in &events {
        event_jsonl_line(e, &mut out);
    }
    atomic_write(path, out.as_bytes())?;
    Ok(events.len())
}

/// Serializes a snapshot of all buffered events in the Chrome trace
/// event format (a JSON array of `"X"` complete events and `"i"`
/// instants, loadable in Perfetto / `chrome://tracing`) and commits it
/// to `path` atomically. Returns the number of events written.
pub fn write_chrome_trace(path: &Path) -> io::Result<usize> {
    let events = snapshot_events();
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        let name = json::escape(&e.name);
        let cat = json::escape(&e.stage);
        match e.kind {
            EventKind::Span => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":\"{}\",\"depth\":\"{}\"",
                    e.tid, e.ts_us, e.dur_us, e.id, e.depth
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                     \"tid\":{},\"ts\":{},\"args\":{{\"id\":\"{}\",\"depth\":\"{}\"",
                    e.tid, e.ts_us, e.id, e.depth
                );
            }
        }
        if let Some(fp) = &e.fp {
            let _ = write!(out, ",\"fp\":\"{}\"", json::escape(fp));
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    atomic_write(path, out.as_bytes())?;
    Ok(events.len())
}

// ---------------------------------------------------------------------
// Re-import (validation)
// ---------------------------------------------------------------------

/// Parses a JSONL trace produced by [`write_jsonl`] back into events.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        out.push(event_from_json(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

fn event_from_json(v: &json::Json) -> Result<Event, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
    let num = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("field {k:?} not a u64"));
    let kind = match field("kind")?.as_str() {
        Some("span") => EventKind::Span,
        Some("instant") => EventKind::Instant,
        other => return Err(format!("bad kind {other:?}")),
    };
    Ok(Event {
        kind,
        stage: field("stage")?.as_str().ok_or("stage not a string")?.to_string(),
        name: field("name")?.as_str().ok_or("name not a string")?.to_string(),
        tid: num("tid")?,
        id: num("id")?,
        parent: match v.get("parent") {
            Some(p) => Some(p.as_u64().ok_or("parent not a u64")?),
            None => None,
        },
        ts_us: num("ts_us")?,
        dur_us: num("dur_us")?,
        depth: num("depth")? as u32,
        fp: v.get("fp").map(|f| f.as_str().unwrap_or_default().to_string()),
    })
}

/// Checks the structural invariants of a recorded trace: every event's
/// parent exists, is a span on the same thread, sits exactly one nesting
/// level up, and fully encloses the child in time (`exit ≥ enter` holds
/// by construction — durations are unsigned and derived from one
/// monotonic epoch). Returns the number of top-level spans on success.
pub fn validate_nesting(events: &[Event]) -> Result<usize, String> {
    use std::collections::HashMap;
    let spans: HashMap<u64, &Event> =
        events.iter().filter(|e| e.kind == EventKind::Span).map(|e| (e.id, e)).collect();
    let mut roots = 0usize;
    for e in events {
        match e.parent {
            None => {
                if e.depth != 0 {
                    return Err(format!("event {} has depth {} but no parent", e.id, e.depth));
                }
                if e.kind == EventKind::Span {
                    roots += 1;
                }
            }
            Some(pid) => {
                let p = spans
                    .get(&pid)
                    .ok_or_else(|| format!("event {} is an orphan (parent {pid} missing)", e.id))?;
                if p.tid != e.tid {
                    return Err(format!("event {} crosses threads to parent {pid}", e.id));
                }
                if e.depth != p.depth + 1 {
                    return Err(format!(
                        "event {} depth {} does not sit under parent depth {}",
                        e.id, e.depth, p.depth
                    ));
                }
                let (ps, pe) = (p.ts_us, p.ts_us + p.dur_us);
                let (cs, ce) = (e.ts_us, e.ts_us + e.dur_us);
                if cs < ps || ce > pe {
                    return Err(format!(
                        "event {} [{cs},{ce}] escapes parent {pid} [{ps},{pe}]",
                        e.id
                    ));
                }
            }
        }
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global, so the unit tests of this crate run
    // under a single lock to keep their event streams disjoint.
    fn with_tracer<T>(f: impl FnOnce() -> T) -> T {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        enable();
        let out = f();
        disable();
        reset();
        out
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        // Not under the gate: touching the disabled fast path from an
        // unrelated thread must not observe or perturb anything.
        assert!(span("t.stage", "x").is_none() || enabled());
    }

    #[test]
    fn spans_nest_and_validate() {
        let events = with_tracer(|| {
            {
                let _a = span("t.outer", "a");
                {
                    let _b = span("t.inner", "b");
                    instant("t.mark", "tick");
                }
                let _c = span("t.inner", "c");
            }
            snapshot_events()
        });
        assert_eq!(events.len(), 4);
        let roots = validate_nesting(&events).expect("well nested");
        assert_eq!(roots, 1);
        let inner: Vec<_> = events.iter().filter(|e| e.stage == "t.inner").collect();
        assert_eq!(inner.len(), 2);
        assert!(inner.iter().all(|e| e.depth == 1));
    }

    #[test]
    fn jsonl_round_trip_and_chrome_export() {
        let dir = std::env::temp_dir().join(format!("bagcq-obs-{}", std::process::id()));
        let events = with_tracer(|| {
            let _a = span_fp("t.job", "count", 0xdead_beef);
            instant_fp("t.retry", "retry", 7);
            drop(_a);
            let n = write_jsonl(&dir.join("trace.jsonl")).unwrap();
            assert_eq!(n, 2);
            let n = write_chrome_trace(&dir.join("trace.json")).unwrap();
            assert_eq!(n, 2);
            snapshot_events()
        });
        let text = fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        assert_eq!(parsed[0].fp.as_deref().map(|f| f.len()), Some(32));
        validate_nesting(&parsed).unwrap();
        // The Chrome export is one valid JSON array with ph markers.
        let chrome = fs::read_to_string(dir.join("trace.json")).unwrap();
        let doc = json::parse(&chrome).unwrap();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert!(arr.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));
        assert!(arr.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_rejects_orphans_and_escapes() {
        let ev = |id, parent, depth, ts, dur| Event {
            kind: EventKind::Span,
            stage: "s".into(),
            name: "n".into(),
            tid: 1,
            id,
            parent,
            ts_us: ts,
            dur_us: dur,
            depth,
            fp: None,
        };
        // Orphan: parent id never recorded.
        assert!(validate_nesting(&[ev(2, Some(1), 1, 0, 0)]).is_err());
        // Escape: child interval leaves the parent's.
        let bad = [ev(1, None, 0, 10, 5), ev(2, Some(1), 1, 12, 50)];
        assert!(validate_nesting(&bad).is_err());
        // Depth gap.
        let gap = [ev(1, None, 0, 0, 100), ev(2, Some(1), 2, 10, 5)];
        assert!(validate_nesting(&gap).is_err());
        // Well-formed.
        let good = [ev(1, None, 0, 0, 100), ev(2, Some(1), 1, 10, 5)];
        assert_eq!(validate_nesting(&good), Ok(1));
    }

    #[test]
    fn stage_histograms_aggregate() {
        let stats = with_tracer(|| {
            for _ in 0..3 {
                let _s = span("t.hist", "work");
            }
            stage_snapshot()
        });
        let s = stats.iter().find(|s| s.stage == "t.hist").expect("stage recorded");
        assert_eq!(s.spans, 3);
        assert_eq!(s.histogram.count(), 3);
        assert!(s.max_us >= s.mean_us());
        let report = render_stage_report(&stats);
        assert!(report.contains("t.hist"), "{report}");
    }

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(17), "17us");
        assert_eq!(fmt_us(4_200), "4.2ms");
        assert_eq!(fmt_us(1_300_000), "1.30s");
    }
}
