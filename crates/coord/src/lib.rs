//! # bagcq-coord
//!
//! A kill-tolerant sharded sweep coordinator: partitions a
//! Theorem-1/Lemma-11 sweep frontier over N OS **worker processes** with
//! lease-based work-stealing, merging results through the persistent
//! [`MemoStore`] into one bit-identical final report.
//!
//! [`sweep_local`] is the same sweep run in-process, one point at a
//! time, for drivers that need no worker processes. Both drivers store a
//! point under [`SweepSpec::point_fingerprint`] as
//! `Outcome::Count(databases_checked)`, resume every point the store
//! already holds, and `put` then `flush` each computed point before the
//! next one counts as done — so a sweep either driver started, and was
//! killed in, is finished by the other.
//!
//! ## Protocol (newline-delimited text over the worker's stdio)
//!
//! ```text
//! worker → coordinator:   READY
//!                         DONE <key> ok:<databases_checked>
//!                         FAIL <key> <message>
//! coordinator → worker:   LEASE <key>
//!                         EXIT
//! ```
//!
//! A *key* is the comma-joined valuation (`"0,2"`): the point's name on
//! the wire and in the report. The store identifies a point by its
//! fingerprint instead, which also covers the instance and the bound.
//!
//! ## Fault model (see `DESIGN.md` §9)
//!
//! * Every leased point carries a **deadline**; an expired lease is
//!   re-issued to another worker (work-stealing from the slow or stuck).
//! * A worker that dies (`kill -9`, OOM, crash) is detected by stdout
//!   EOF: its leases are re-issued, and the slot is respawned within a
//!   bounded budget.
//! * Duplicate completions (a stolen point finished by both workers) are
//!   harmless: the first `DONE` wins, and point results are
//!   deterministic, so both agree.
//! * Each completed point is committed to the [`MemoStore`] and flushed
//!   **before** it is acknowledged, so a `kill -9` of the *coordinator*
//!   loses at most in-flight points: a restart resumes from the store
//!   with zero recomputation.
//! * The final report is written with the write-temp-rename discipline
//!   and lists points in frontier order — its bytes are identical
//!   regardless of worker count, scheduling, or how many processes died.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bagcq_arith::Nat;
use bagcq_engine::{MemoStore, Outcome};
use bagcq_homcount::EvalOptions;
use bagcq_obs as obs;
use bagcq_polynomial::valuations;
use bagcq_reduction::{toy_instance, Theorem1Reduction};
use bagcq_structure::{Fingerprint, FingerprintHasher};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Which Lemma-11 instance a sweep runs over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceSpec {
    /// A named instance from the Hilbert-10 corpus (`bagcq instances`).
    Hilbert(String),
    /// The small synthetic instance used by tests and quickstarts:
    /// `c`, the two `coeff_s`, and the two `coeff_b` of
    /// [`bagcq_reduction::toy_instance`].
    Toy {
        /// The instance's constant `c`.
        c: u64,
        /// Coefficients of the small side (length 2).
        coeff_s: [u64; 2],
        /// Coefficients of the big side (length 2).
        coeff_b: [u64; 2],
    },
}

impl InstanceSpec {
    /// The canonical one-token label (also the wire/CLI form):
    /// `pell` or `toy:2:1,1:2,2`.
    pub fn label(&self) -> String {
        match self {
            InstanceSpec::Hilbert(name) => name.clone(),
            InstanceSpec::Toy { c, coeff_s, coeff_b } => {
                format!("toy:{c}:{},{}:{},{}", coeff_s[0], coeff_s[1], coeff_b[0], coeff_b[1])
            }
        }
    }

    /// Parses a [`label`](InstanceSpec::label) back into a spec.
    pub fn parse(s: &str) -> Result<InstanceSpec, String> {
        let Some(rest) = s.strip_prefix("toy:") else {
            return Ok(InstanceSpec::Hilbert(s.to_string()));
        };
        let parts: Vec<&str> = rest.split(':').collect();
        let err = || format!("malformed toy spec {s:?}; expected toy:C:s1,s2:b1,b2");
        if parts.len() != 3 {
            return Err(err());
        }
        let c: u64 = parts[0].parse().map_err(|_| err())?;
        let pair = |p: &str| -> Result<[u64; 2], String> {
            let mut it = p.split(',');
            let a = it.next().and_then(|v| v.parse().ok()).ok_or_else(err)?;
            let b = it.next().and_then(|v| v.parse().ok()).ok_or_else(err)?;
            if it.next().is_some() {
                return Err(err());
            }
            Ok([a, b])
        };
        Ok(InstanceSpec::Toy { c, coeff_s: pair(parts[1])?, coeff_b: pair(parts[2])? })
    }

    /// Builds the Theorem-1 reduction for this instance.
    pub fn build(&self) -> Result<Theorem1Reduction, String> {
        match self {
            InstanceSpec::Hilbert(name) => {
                let inst = bagcq_hilbert::by_name(name)
                    .ok_or_else(|| format!("no corpus instance named {name}"))?;
                let chain = bagcq_hilbert::reduce(&inst.poly);
                Ok(Theorem1Reduction::new(chain.instance))
            }
            InstanceSpec::Toy { c, coeff_s, coeff_b } => {
                Ok(Theorem1Reduction::new(toy_instance(*c, coeff_s.to_vec(), coeff_b.to_vec())))
            }
        }
    }
}

/// One sweep: an instance plus the box bound (valuations in `0..=bound`ⁿ).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// The Lemma-11 instance swept.
    pub instance: InstanceSpec,
    /// Box bound: every variable ranges over `0..=bound`.
    pub bound: u64,
}

impl SweepSpec {
    /// Every valuation in the box, in [`valuations`] order (the order of
    /// [`Theorem1Reduction::sweep_databases`]) — the report lists points
    /// in this order.
    pub fn frontier(&self, n_vars: usize) -> Vec<Vec<u64>> {
        valuations(n_vars, self.bound).collect()
    }

    /// The stable store fingerprint of one sweep point. Covers the
    /// instance label, the bound, and the valuation, so equal points of
    /// different sweeps never alias.
    pub fn point_fingerprint(&self, val: &[u64]) -> Fingerprint {
        let mut h = FingerprintHasher::new(b"coord-sweep-point-v1");
        h.write_str(&self.instance.label());
        h.write_u64(self.bound);
        h.write_usize(val.len());
        for &v in val {
            h.write_u64(v);
        }
        h.finish()
    }
}

/// The wire/report key of a sweep point: the comma-joined valuation.
pub fn point_key(val: &[u64]) -> String {
    val.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

fn parse_key(key: &str) -> Result<Vec<u64>, String> {
    key.split(',').map(|v| v.parse().map_err(|_| format!("malformed point key {key:?}"))).collect()
}

/// The databases checked at `val`, if an earlier run of either driver
/// committed the point to `store`. Committed points are trusted and
/// never recomputed.
fn resumed_point(
    store: &MemoStore,
    spec: &SweepSpec,
    val: &[u64],
) -> Result<Option<usize>, String> {
    let Some(outcome) = store.get(&spec.point_fingerprint(val)) else {
        return Ok(None);
    };
    let checked = outcome
        .as_count()
        .and_then(Nat::to_u64)
        .ok_or_else(|| format!("store entry for {} is not a count", point_key(val)))?;
    obs::instant("coord.point", "resumed");
    Ok(Some(checked as usize))
}

/// Commits a computed point: `put`, then `flush`, before the caller
/// counts it as done — a driver killed right after this loses nothing.
fn commit_point(
    store: &MemoStore,
    spec: &SweepSpec,
    val: &[u64],
    checked: usize,
) -> Result<(), String> {
    let outcome = Outcome::Count(Nat::from_u64(checked as u64));
    store.put(spec.point_fingerprint(val), &outcome).map_err(|e| e.to_string())?;
    store.flush().map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// In-process driver
// ---------------------------------------------------------------------------

/// What one [`sweep_local`] run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total sweep points (valuations) in the box.
    pub points_total: usize,
    /// Points answered from the store (committed by an earlier run).
    pub points_resumed: usize,
    /// Points computed (and committed) by this run.
    pub points_computed: usize,
    /// Databases checked across all points, including resumed ones.
    pub databases_checked: usize,
}

/// Runs `spec` in this process, one point at a time in frontier order,
/// through `store`: points the store holds are resumed, every other point
/// is computed with [`Theorem1Reduction::sweep_point`] and committed
/// before the next one starts. Returns the first failing point's error.
///
/// `on_point` fires immediately *before* each computed point; the resume
/// tests use it to kill the sweep partway.
pub fn sweep_local(
    spec: &SweepSpec,
    store: &MemoStore,
    mut on_point: impl FnMut(&[u64]),
) -> Result<SweepStats, String> {
    let red = spec.instance.build()?;
    let opts = EvalOptions::default();
    let mut stats = SweepStats::default();
    for val in valuations(red.instance.n_vars as usize, spec.bound) {
        stats.points_total += 1;
        stats.databases_checked += match resumed_point(store, spec, &val)? {
            Some(checked) => {
                stats.points_resumed += 1;
                checked
            }
            None => {
                on_point(&val);
                let checked = red.sweep_point(&val, &opts)?;
                commit_point(store, spec, &val, checked)?;
                stats.points_computed += 1;
                checked
            }
        };
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Dies without any cleanup, as close to an external `kill -9` as a
/// process can do to itself: a real SIGKILL via `kill(1)` when
/// available, a hard abort otherwise. Used only by the chaos flags.
fn kill_self_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    // SIGKILL delivery can race the return from `status()`.
    std::thread::sleep(Duration::from_millis(100));
    std::process::abort();
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Entry point of a `sweep-worker` child process: speaks the
/// coordinator protocol on stdin/stdout until `EXIT` or EOF.
///
/// Flags: `--instance <label>` (required); chaos knobs
/// `--chaos-kill-after <k>` (self-`kill -9` upon receiving lease `k+1`)
/// and `--point-delay-ms <ms>` (sleep before each point, for scheduling
/// and scaling experiments).
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let spec = InstanceSpec::parse(
        flag_value(args, "--instance").ok_or("sweep-worker needs --instance <label>")?,
    )?;
    let chaos_kill_after: Option<usize> = match flag_value(args, "--chaos-kill-after") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad --chaos-kill-after {v:?}"))?),
    };
    let point_delay = match flag_value(args, "--point-delay-ms") {
        None => Duration::ZERO,
        Some(v) => {
            Duration::from_millis(v.parse().map_err(|_| format!("bad --point-delay-ms {v:?}"))?)
        }
    };
    let red = spec.build()?;
    let opts = EvalOptions::default();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let say = |out: &mut std::io::StdoutLock<'_>, line: &str| -> Result<(), String> {
        writeln!(out, "{line}").and_then(|()| out.flush()).map_err(|e| format!("stdout: {e}"))
    };
    say(&mut out, "READY")?;
    let mut leases_seen = 0usize;
    // Not an iteration counter: EXIT and protocol errors return before
    // the increment, so this counts *leases*, which clippy can't see.
    #[allow(clippy::explicit_counter_loop)]
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line == "EXIT" {
            return Ok(());
        }
        let Some(key) = line.strip_prefix("LEASE ") else {
            return Err(format!("unexpected coordinator line {line:?}"));
        };
        leases_seen += 1;
        if chaos_kill_after.is_some_and(|k| leases_seen > k) {
            kill_self_hard();
        }
        if !point_delay.is_zero() {
            std::thread::sleep(point_delay);
        }
        let val = parse_key(key)?;
        // A panicking point must surface as a typed FAIL, not tear down
        // the protocol loop.
        let result = catch_unwind(AssertUnwindSafe(|| red.sweep_point(&val, &opts)));
        let reply = match result {
            Ok(Ok(checked)) => format!("DONE {key} ok:{checked}"),
            Ok(Err(e)) => format!("FAIL {key} {}", e.replace('\n', " ")),
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("worker panic");
                format!("FAIL {key} panicked: {}", msg.replace('\n', " "))
            }
        };
        say(&mut out, &reply)?;
    }
    // Coordinator hung up without EXIT (e.g. it was killed): exit
    // quietly; completed points are already committed on its side.
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// Configuration for [`run_coordinator`].
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// The sweep to run.
    pub spec: SweepSpec,
    /// Worker processes to spawn (clamped to at least 1, at most the
    /// number of uncompleted points).
    pub workers: usize,
    /// Directory of the persistent [`MemoStore`] results merge through.
    pub store_dir: PathBuf,
    /// Where the final frontier-ordered report is written (atomically).
    pub report_path: PathBuf,
    /// Lease deadline: a point not completed within this window is
    /// re-issued to another worker.
    pub lease_timeout: Duration,
    /// Outstanding leases per worker (pipelining; at least 1).
    pub max_leases_per_worker: usize,
    /// Worker program to spawn; defaults to the current executable.
    pub worker_program: PathBuf,
    /// Arguments placed before the protocol flags (e.g. the
    /// `sweep-worker` subcommand token).
    pub worker_args_prefix: Vec<String>,
    /// Dead-worker respawns allowed before giving up on a slot.
    pub respawn_budget: usize,
    /// Chaos: `(slot, k)` passes `--chaos-kill-after k` to worker
    /// `slot`, making it `kill -9` itself upon lease `k+1`.
    pub chaos_kill_worker: Option<(usize, usize)>,
    /// Per-point delay forwarded to every worker (`--point-delay-ms`).
    pub point_delay_ms: u64,
}

impl CoordConfig {
    /// A config with sensible defaults for `spec` on `store_dir`.
    pub fn new(spec: SweepSpec, store_dir: impl Into<PathBuf>) -> CoordConfig {
        let store_dir = store_dir.into();
        CoordConfig {
            spec,
            workers: 1,
            report_path: store_dir.join("report.txt"),
            store_dir,
            lease_timeout: Duration::from_secs(30),
            max_leases_per_worker: 2,
            worker_program: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("bagcq")),
            worker_args_prefix: vec!["sweep-worker".to_string()],
            respawn_budget: 2,
            chaos_kill_worker: None,
            point_delay_ms: 0,
        }
    }
}

/// What a coordinator run did. The *report file* is the deterministic
/// artifact; these counters describe the (scheduling-dependent) journey.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoordReport {
    /// Sweep points in the frontier.
    pub points_total: usize,
    /// Points answered from the persistent store (zero recomputation).
    pub points_resumed: usize,
    /// Points computed by workers this run.
    pub points_computed: usize,
    /// Total databases checked across all points (resumed included).
    pub databases_checked: usize,
    /// Leases issued, including re-issues.
    pub leases_issued: usize,
    /// Leases recovered from dead workers or expired deadlines and
    /// re-issued.
    pub leases_recovered: usize,
    /// Worker processes that died before being told to exit.
    pub worker_deaths: usize,
    /// Worker slots spawned (not counting respawns).
    pub workers: usize,
    /// Keys of the points computed this run, in completion order
    /// (diagnostic; the resume tests assert on this).
    pub computed_keys: Vec<String>,
    /// Where the report file was written.
    pub report_path: PathBuf,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl fmt::Display for CoordReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "points   total={} resumed={} computed={} databases_checked={}",
            self.points_total, self.points_resumed, self.points_computed, self.databases_checked
        )?;
        writeln!(
            f,
            "leases   issued={} recovered={} worker_deaths={} workers={}",
            self.leases_issued, self.leases_recovered, self.worker_deaths, self.workers
        )?;
        write!(f, "report   {} ({:.2?})", self.report_path.display(), self.elapsed)
    }
}

enum Event {
    Line(usize, String),
    Eof(usize),
}

struct WorkerSlot {
    child: Child,
    stdin: ChildStdin,
    ready: bool,
    alive: bool,
    /// Whether this slot was already told to EXIT (EOF is then normal).
    exiting: bool,
    /// Point indices currently leased to this worker. An expired lease
    /// stays in the set (the worker may still be grinding on it) so the
    /// slot's capacity remains consumed.
    leased: HashSet<usize>,
    respawns_left: usize,
}

struct Lease {
    slot: usize,
    deadline: Instant,
}

fn spawn_worker(
    config: &CoordConfig,
    slot: usize,
    events: &mpsc::Sender<Event>,
) -> Result<(Child, ChildStdin), String> {
    let mut cmd = Command::new(&config.worker_program);
    cmd.args(&config.worker_args_prefix)
        .arg("--instance")
        .arg(config.spec.instance.label())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if config.point_delay_ms > 0 {
        cmd.arg("--point-delay-ms").arg(config.point_delay_ms.to_string());
    }
    if let Some((chaos_slot, after)) = config.chaos_kill_worker {
        if chaos_slot == slot {
            cmd.arg("--chaos-kill-after").arg(after.to_string());
        }
    }
    let mut child = cmd.spawn().map_err(|e| {
        format!("spawning worker {slot} ({}): {e}", config.worker_program.display())
    })?;
    let stdin = child.stdin.take().expect("worker stdin was piped");
    let stdout = child.stdout.take().expect("worker stdout was piped");
    let tx = events.clone();
    std::thread::Builder::new()
        .name(format!("bagcq-coord-reader-{slot}"))
        .spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(line) => {
                        if tx.send(Event::Line(slot, line)).is_err() {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = tx.send(Event::Eof(slot));
        })
        .map_err(|e| format!("spawning reader thread: {e}"))?;
    Ok((child, stdin))
}

/// Writes the frontier-ordered report atomically (write-temp-rename).
/// Bytes depend only on the sweep and its results — never on worker
/// count, lease schedule, or crash history.
fn write_report(
    config: &CoordConfig,
    frontier: &[Vec<u64>],
    done: &HashMap<usize, usize>,
) -> Result<(), String> {
    let mut buf = String::new();
    buf.push_str(&format!(
        "# bagcq-shard-report v1 {} bound={}\n",
        config.spec.instance.label(),
        config.spec.bound
    ));
    let mut databases = 0usize;
    for (idx, val) in frontier.iter().enumerate() {
        let checked = done[&idx];
        databases += checked;
        buf.push_str(&format!("{}\tok:{checked}\n", point_key(val)));
    }
    buf.push_str(&format!("# points={} databases={databases}\n", frontier.len()));
    obs::atomic_write(&config.report_path, buf.as_bytes())
        .map_err(|e| format!("{}: {e}", config.report_path.display()))
}

/// Runs the sweep: resumes completed points from the store, partitions
/// the rest over worker processes with lease-based work-stealing, and
/// writes the bit-identical frontier-ordered report.
pub fn run_coordinator(config: &CoordConfig) -> Result<CoordReport, String> {
    let started = Instant::now();
    let _span = obs::span("coord.run", "sweep");
    let red = config.spec.instance.build()?;
    let n_vars = red.instance.n_vars as usize;
    drop(red); // the coordinator never computes points itself
    let frontier = config.spec.frontier(n_vars);
    let keys: Vec<String> = frontier.iter().map(|v| point_key(v)).collect();
    let key_to_idx: HashMap<&str, usize> =
        keys.iter().enumerate().map(|(i, k)| (k.as_str(), i)).collect();

    let store = MemoStore::open(&config.store_dir).map_err(|e| e.to_string())?;

    // Resume: a point in the store was fully committed by an earlier run
    // of either driver — trust it, recompute nothing.
    let mut done: HashMap<usize, usize> = HashMap::new();
    let mut pending: VecDeque<usize> = VecDeque::new();
    for (idx, val) in frontier.iter().enumerate() {
        match resumed_point(&store, &config.spec, val)? {
            Some(checked) => {
                done.insert(idx, checked);
            }
            None => pending.push_back(idx),
        }
    }
    let points_resumed = done.len();
    let mut report = CoordReport {
        points_total: frontier.len(),
        points_resumed,
        points_computed: 0,
        databases_checked: 0,
        leases_issued: 0,
        leases_recovered: 0,
        worker_deaths: 0,
        workers: 0,
        computed_keys: Vec::new(),
        report_path: config.report_path.clone(),
        elapsed: Duration::ZERO,
    };

    let (tx, rx) = mpsc::channel::<Event>();
    let worker_count = config.workers.max(1).min(pending.len().max(1));
    let mut slots: Vec<WorkerSlot> = Vec::new();
    if !pending.is_empty() {
        for slot in 0..worker_count {
            let (child, stdin) = spawn_worker(config, slot, &tx)?;
            slots.push(WorkerSlot {
                child,
                stdin,
                ready: false,
                alive: true,
                exiting: false,
                leased: HashSet::new(),
                respawns_left: config.respawn_budget,
            });
        }
    }
    report.workers = slots.len();

    let mut leases: HashMap<usize, Lease> = HashMap::new();
    let mut failure: Option<String> = None;

    // Re-queues every lease the dead worker `slot` held. The points stay
    // in `leased` bookkeeping-wise but the slot is dead, so clear it.
    fn reclaim_leases(
        slot: usize,
        slots: &mut [WorkerSlot],
        leases: &mut HashMap<usize, Lease>,
        pending: &mut VecDeque<usize>,
        done: &HashMap<usize, usize>,
        recovered: &mut usize,
    ) {
        let held: Vec<usize> = slots[slot].leased.drain().collect();
        for idx in held {
            if done.contains_key(&idx) {
                continue;
            }
            // Only reclaim if this slot still owns the lease — the point
            // may already have been stolen on expiry.
            let owned = leases.get(&idx).is_some_and(|l| l.slot == slot);
            if owned {
                leases.remove(&idx);
            }
            if !pending.contains(&idx) {
                pending.push_back(idx);
                *recovered += 1;
                obs::instant("coord.lease", "recovered");
            }
        }
    }

    while done.len() < frontier.len() && failure.is_none() {
        // Dispatch to every ready worker with spare lease capacity.
        for (slot, w) in slots.iter_mut().enumerate() {
            while failure.is_none()
                && w.alive
                && w.ready
                && w.leased.len() < config.max_leases_per_worker.max(1)
            {
                let Some(idx) = pending.pop_front() else { break };
                if done.contains_key(&idx) {
                    continue;
                }
                let line = format!("LEASE {}\n", keys[idx]);
                if w.stdin.write_all(line.as_bytes()).is_err() {
                    // Broken pipe: the worker is dead; the reader thread's
                    // EOF event will reclaim its other leases.
                    pending.push_front(idx);
                    w.alive = false;
                    break;
                }
                let _ = w.stdin.flush();
                w.leased.insert(idx);
                leases.insert(idx, Lease { slot, deadline: Instant::now() + config.lease_timeout });
                report.leases_issued += 1;
            }
        }

        if !slots.iter().any(|w| w.alive) && done.len() < frontier.len() {
            failure = Some(format!(
                "all workers died with {} points outstanding",
                frontier.len() - done.len()
            ));
            break;
        }

        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Event::Line(slot, line)) => {
                if line == "READY" {
                    slots[slot].ready = true;
                } else if let Some(rest) = line.strip_prefix("DONE ") {
                    let (key, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed worker line {line:?}"))?;
                    let checked: usize = value
                        .strip_prefix("ok:")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("malformed worker result {line:?}"))?;
                    let idx = *key_to_idx
                        .get(key)
                        .ok_or_else(|| format!("worker reported unknown point {key:?}"))?;
                    slots[slot].leased.remove(&idx);
                    if let std::collections::hash_map::Entry::Vacant(e) = done.entry(idx) {
                        // Commit to the store *before* counting the point
                        // complete: a coordinator killed right here
                        // recomputes the point, never loses it.
                        commit_point(&store, &config.spec, &frontier[idx], checked)?;
                        e.insert(checked);
                        leases.remove(&idx);
                        report.points_computed += 1;
                        report.computed_keys.push(key.to_string());
                    }
                    // A duplicate DONE (stolen point finished twice) just
                    // frees the slot's capacity.
                } else if let Some(rest) = line.strip_prefix("FAIL ") {
                    let (key, msg) = rest.split_once(' ').unwrap_or((rest, "unspecified"));
                    failure = Some(format!("sweep point {key} failed: {msg}"));
                } else {
                    failure = Some(format!("unparseable worker line {line:?}"));
                }
            }
            Ok(Event::Eof(slot)) => {
                slots[slot].alive = false;
                let _ = slots[slot].child.wait();
                if !slots[slot].exiting {
                    report.worker_deaths += 1;
                    obs::instant("coord.worker", "death");
                    reclaim_leases(
                        slot,
                        &mut slots,
                        &mut leases,
                        &mut pending,
                        &done,
                        &mut report.leases_recovered,
                    );
                    if slots[slot].respawns_left > 0 && done.len() < frontier.len() {
                        slots[slot].respawns_left -= 1;
                        let (child, stdin) = spawn_worker(config, slot, &tx)?;
                        slots[slot].child = child;
                        slots[slot].stdin = stdin;
                        slots[slot].ready = false;
                        slots[slot].alive = true;
                        obs::instant("coord.worker", "respawn");
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                failure = Some("coordinator event channel disconnected".to_string());
            }
        }

        // Work-stealing: expired leases go back to the queue for any
        // worker with capacity; the original holder's eventual DONE (if
        // it is merely slow, not dead) is welcome — first result wins.
        let now = Instant::now();
        let expired: Vec<usize> = leases
            .iter()
            .filter(|(idx, l)| l.deadline <= now && !done.contains_key(*idx))
            .map(|(idx, _)| *idx)
            .collect();
        for idx in expired {
            leases.remove(&idx);
            if !pending.contains(&idx) {
                pending.push_back(idx);
                report.leases_recovered += 1;
                obs::instant("coord.lease", "expired");
            }
        }
    }

    // Shut the fleet down: EXIT to the living, reap everyone.
    for slot in &mut slots {
        if slot.alive {
            slot.exiting = true;
            let _ = slot.stdin.write_all(b"EXIT\n");
            let _ = slot.stdin.flush();
        }
    }
    drop(tx);
    for slot in &mut slots {
        let reap_deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match slot.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < reap_deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = slot.child.kill();
                    let _ = slot.child.wait();
                    break;
                }
            }
        }
    }

    if let Some(msg) = failure {
        return Err(msg);
    }

    report.databases_checked = done.values().sum();
    store.sync().map_err(|e| e.to_string())?;
    write_report(config, &frontier, &done)?;
    report.elapsed = started.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> SweepSpec {
        SweepSpec {
            instance: InstanceSpec::Toy { c: 2, coeff_s: [1, 1], coeff_b: [2, 2] },
            bound: 2,
        }
    }

    #[test]
    fn instance_labels_roundtrip() {
        let toy = InstanceSpec::Toy { c: 2, coeff_s: [1, 1], coeff_b: [2, 2] };
        assert_eq!(toy.label(), "toy:2:1,1:2,2");
        assert_eq!(InstanceSpec::parse(&toy.label()).unwrap(), toy);
        let hil = InstanceSpec::Hilbert("pell".to_string());
        assert_eq!(InstanceSpec::parse(&hil.label()).unwrap(), hil);
        assert!(InstanceSpec::parse("toy:2:1,1").is_err());
        assert!(InstanceSpec::parse("toy:x:1,1:2,2").is_err());
    }

    #[test]
    fn toy_spec_builds_a_reduction() {
        let red = toy_spec().instance.build().unwrap();
        assert_eq!(red.instance.n_vars, 2);
        assert!(InstanceSpec::Hilbert("no-such-instance".into()).build().is_err());
    }

    #[test]
    fn frontier_matches_odometer_order() {
        let points = toy_spec().frontier(2);
        assert_eq!(points.len(), 9);
        assert_eq!(points[0], vec![0, 0]);
        assert_eq!(points[1], vec![1, 0]); // low index increments first
        assert_eq!(points[3], vec![0, 1]);
        assert_eq!(points[8], vec![2, 2]);
    }

    #[test]
    fn point_keys_and_fingerprints_are_stable() {
        let spec = toy_spec();
        assert_eq!(point_key(&[0, 2]), "0,2");
        assert_eq!(parse_key("0,2").unwrap(), vec![0, 2]);
        assert!(parse_key("0,x").is_err());
        // Stable across calls...
        assert_eq!(spec.point_fingerprint(&[1, 2]), spec.point_fingerprint(&[1, 2]));
        // ...distinct per point, bound, and instance.
        assert_ne!(spec.point_fingerprint(&[1, 2]), spec.point_fingerprint(&[2, 1]));
        let other = SweepSpec { bound: 3, ..spec.clone() };
        assert_ne!(spec.point_fingerprint(&[1, 2]), other.point_fingerprint(&[1, 2]));
    }

    #[test]
    fn report_bytes_are_frontier_ordered_and_deterministic() {
        let dir = std::env::temp_dir().join(format!("bagcq-coord-rep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = CoordConfig::new(toy_spec(), dir.join("store"));
        config.report_path = dir.join("report.txt");
        let frontier = config.spec.frontier(2);
        let done: HashMap<usize, usize> = (0..frontier.len()).map(|i| (i, 3)).collect();
        write_report(&config, &frontier, &done).unwrap();
        let first = std::fs::read(&config.report_path).unwrap();
        // Same results, different insertion history: identical bytes.
        let done: HashMap<usize, usize> = (0..frontier.len()).rev().map(|i| (i, 3)).collect();
        write_report(&config, &frontier, &done).unwrap();
        assert_eq!(first, std::fs::read(&config.report_path).unwrap());
        let text = String::from_utf8(first).unwrap();
        assert!(text.starts_with("# bagcq-shard-report v1 toy:2:1,1:2,2 bound=2\n"), "{text}");
        assert!(text.contains("0,0\tok:3\n"), "{text}");
        assert!(text.ends_with("# points=9 databases=27\n"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
