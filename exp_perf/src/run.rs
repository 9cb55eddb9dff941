//! One benchmark run: set-up, timed rounds, and (traced runs) the replay.
//!
//! A run repeats *rounds* until the timed phases add up to the requested
//! seconds. Each round starts a fresh in-process `bagcq_serve::Server` on
//! `127.0.0.1:0`, sends an untimed warm-up, then sends the round's fixed
//! request list over loopback and stops the server. Every round does the
//! same amount of work whatever the machine's speed, so memory growth
//! and cache behaviour do not depend on how many rounds fit; timings are
//! medians over rounds.

use crate::client::{self, Phase, API_KEY};
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::oracle::expect;
use crate::plan::{Frame, Plan, Workload};
use crate::replay::{open_tenant, replay};
use crate::stats::{median, percentile, proc_status_kib, process_cpu_seconds, sort, RssSampler};
use bagcq_engine::{EngineConfig, Job, MemoStore, Outcome, TraceSession};
use bagcq_homcount::CountRequest;
use bagcq_obs::StageStats;
use bagcq_serve::http::{read_response, write_request, HttpLimits};
use bagcq_serve::{parse_count_request, Server, ServerConfig};
use std::collections::HashMap;
use std::fs;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Dedicated server starts before the first round; every round's start
/// adds one more `setup_s` sample.
const SETUP_STARTS: usize = 25;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Timed seconds to accumulate over rounds.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: traced rounds, the per-layer
    /// replay, and a Chrome trace.
    pub trace: bool,
    /// Divides every size (1 = full size; smoke tests use 100).
    pub scale: usize,
    /// Per-run stores and trace files go under this directory.
    pub out_dir: PathBuf,
}

/// `$CARGO_TARGET_DIR/exp_perf`, or this package's `target/exp_perf`.
pub fn default_out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("exp_perf")
}

/// Empties `dest` and fills it with the files of `template`, if any.
pub fn fresh_copy(template: Option<&Path>, dest: &Path) {
    let _ = fs::remove_dir_all(dest);
    fs::create_dir_all(dest).expect("create a working directory");
    if let Some(template) = template {
        for entry in fs::read_dir(template).expect("read the store template") {
            let entry = entry.expect("read a store template entry");
            fs::copy(entry.path(), dest.join(entry.file_name())).expect("copy a store segment");
        }
    }
}

/// One round's observations.
struct RoundStats {
    traced: bool,
    p50: f64,
    p99: f64,
    throughput: f64,
    requests: f64,
    cpu_s: f64,
    lag_p99: f64,
    memo_hits: f64,
    memo_hit_ratio: f64,
    admitted: f64,
    single_flight_joins: f64,
    queue_high_water: f64,
    stages: Vec<StageStats>,
}

/// A server started for one round, with its store when it has one.
struct Live {
    server: Server,
    store: Option<Arc<MemoStore>>,
    store_dir: Option<PathBuf>,
}

struct Bench<'a> {
    opts: &'a Options,
    plan: Plan,
    run_dir: PathBuf,
    template: Option<PathBuf>,
    setups: Vec<f64>,
    rounds: Vec<RoundStats>,
    /// Every untraced timed latency, for the sample counts printed next
    /// to the p99.
    latencies: Vec<f64>,
    /// Peak `VmRSS` during round 0's server lifetime minus `VmRSS` just
    /// before it started. Later rounds reuse the heap round 0 freed, so
    /// only the first measures growth.
    rss_growth_kib: u64,
    /// The first `replay` requests of round 0's timed list.
    first_requests: Vec<Arc<Frame>>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    oracle_failures: u64,
    reasons: Vec<String>,
}

/// Runs the workload and returns its report.
pub fn run(opts: &Options) -> Report {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let plan = Plan::new(opts.workload, opts.seed, opts.scale);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let run_dir = opts.out_dir.join(format!("run-{}-{run_id}", std::process::id()));
    fresh_copy(None, &run_dir);
    let template = plan.workload.uses_store().then(|| store_template(&plan, &run_dir));
    let mut b = Bench {
        opts,
        plan,
        run_dir,
        template,
        setups: Vec::new(),
        rounds: Vec::new(),
        latencies: Vec::new(),
        rss_growth_kib: 0,
        first_requests: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        oracle_failures: 0,
        reasons: Vec::new(),
    };
    for k in 0..SETUP_STARTS {
        let live = b.start(&format!("setup-{k}"));
        b.stop(live);
    }
    let mut timed = Duration::ZERO;
    for r in 0u64.. {
        // Traced runs alternate untraced and traced rounds, so both see
        // the same machine conditions.
        let traced = opts.trace && r % 2 == 1;
        timed += b.round(r, traced);
        let both = !opts.trace || r >= 1;
        if both && timed.as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let mut report = if opts.trace { b.per_layer() } else { b.end_to_end() };
    let _ = fs::remove_dir_all(&b.run_dir);
    report.correct = b.wrong == 0 && b.oracle_failures == 0;
    report.attempted = b.attempted;
    report.failed = b.failed;
    report.reasons = b.reasons;
    report
}

/// Pre-populates a `zipf-mixed` store with the even half of the count
/// pool, keyed exactly as the server's engine keys those jobs.
fn store_template(plan: &Plan, run_dir: &Path) -> PathBuf {
    let dir = run_dir.join("store-template");
    fresh_copy(None, &dir);
    let store = MemoStore::open(&dir).expect("open the store template");
    for frame in plan.store_frames() {
        let job = parse_count_request(&frame.body).expect("pool frames parse");
        let count = CountRequest::new(&job.query, &job.support).backend(job.backend).count();
        let key = Job::count_with(job.backend, job.query, job.support).spec.fingerprint();
        store.put(key, &Outcome::Count(count)).expect("store append");
    }
    store.flush().expect("store flush");
    dir
}

fn server_config(store: Option<Arc<MemoStore>>) -> ServerConfig {
    ServerConfig {
        tenants: vec![open_tenant()],
        engine: EngineConfig { store, ..EngineConfig::default() },
        ..ServerConfig::default()
    }
}

/// Blocks until `GET /healthz` answers 200.
fn healthz(addr: SocketAddr) {
    for _ in 0..1_000 {
        let answered = TcpStream::connect(addr).ok().and_then(|mut stream| {
            write_request(&mut stream, "GET", "/healthz", API_KEY, b"").ok()?;
            read_response(&mut BufReader::new(stream), &HttpLimits::default()).ok().flatten()
        });
        if answered.is_some_and(|r| r.status == 200) {
            return;
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("server at {addr} never answered /healthz");
}

/// Works out every frame's expected answer before the round starts, on
/// two threads. Returns how many oracles failed (a panic inside one is a
/// disagreement between in-process oracles).
fn prepare(frames: &[Arc<Frame>]) -> u64 {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                scope.spawn(move || {
                    for frame in frames.iter().skip(k).step_by(2) {
                        expect(frame);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| u64::from(h.join().is_err())).sum()
    })
}

impl Bench<'_> {
    /// Starts a server (opening a fresh copy of the store template
    /// first) and records the set-up time: from `MemoStore::open` /
    /// `Server::start` to the first `/healthz` 200.
    fn start(&mut self, tag: &str) -> Live {
        let store_dir = self.template.as_deref().map(|t| {
            let dir = self.run_dir.join(format!("store-{tag}"));
            fresh_copy(Some(t), &dir);
            dir
        });
        let t0 = Instant::now();
        let store = store_dir
            .as_ref()
            .map(|d| Arc::new(MemoStore::open(d).expect("open the round's store")));
        let server = Server::start(server_config(store.clone())).expect("start the server");
        healthz(server.local_addr());
        self.setups.push(t0.elapsed().as_secs_f64());
        Live { server, store, store_dir }
    }

    /// Stops the server; for a store-backed server, waits until its
    /// engine has let go of the store before deleting the store's copy.
    fn stop(&mut self, live: Live) {
        let Live { server, store, store_dir } = live;
        server.shutdown();
        if let Some(store) = store {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Arc::strong_count(&store) > 1 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
        }
        if let Some(dir) = store_dir {
            let _ = fs::remove_dir_all(dir);
        }
    }

    fn absorb(&mut self, phase: &Phase, timed: bool) {
        self.wrong += phase.wrong;
        if timed {
            self.attempted += phase.latencies_us.len() as u64;
            self.failed += phase.failed;
        }
        let room = 8usize.saturating_sub(self.reasons.len());
        self.reasons.extend(phase.reasons.iter().take(room).cloned());
    }

    /// Runs round `r`; returns its timed duration.
    fn round(&mut self, r: u64, traced: bool) -> Duration {
        let round = self.plan.round(r);
        let oracle_failures = prepare(&round.warmup) + prepare(&round.measured);
        if oracle_failures > 0 {
            self.oracle_failures += oracle_failures;
            self.reasons.push(format!("round {r}: {oracle_failures} in-process oracles disagreed"));
        }
        let rss = (r == 0).then(|| {
            self.first_requests =
                round.measured.iter().take(self.plan.shape.replay).cloned().collect();
            (proc_status_kib("VmRSS").unwrap_or(0), RssSampler::start())
        });
        let live = self.start(&format!("round-{r}"));
        let addr = live.server.local_addr();
        let warm = client::send(addr, &round.warmup, &format!("w{r}"));
        self.absorb(&warm, false);
        if traced {
            bagcq_obs::reset();
            bagcq_obs::enable();
        }
        let cpu_before = process_cpu_seconds();
        let mut phase = client::send(addr, &round.measured, &format!("m{r}"));
        let cpu_s = process_cpu_seconds().zip(cpu_before).map_or(0.0, |(after, b)| after - b);
        if traced {
            bagcq_obs::disable();
        }
        let snap = live.server.metrics();
        self.stop(live);
        if traced {
            bagcq_obs::reset();
        }
        if let Some((before, sampler)) = rss {
            self.rss_growth_kib = sampler.finish().saturating_sub(before);
        }
        self.absorb(&phase, true);

        let tenant = snap.tenants.first().expect("one tenant");
        if tenant.idempotent_replays != 0 {
            self.wrong += tenant.idempotent_replays;
            self.reasons.push(format!(
                "round {r}: {} unique idempotency keys were answered as replays",
                tenant.idempotent_replays
            ));
        }
        let memo_hits = tenant.admitted.saturating_sub(snap.jobs_submitted) as f64;
        let sent = phase.latencies_us.len().max(1) as f64;
        let throughput = phase.completed() as f64 / phase.wall.as_secs_f64().max(1e-9);
        let sorted = sort(&mut phase.latencies_us);
        let mut lag = std::mem::take(&mut phase.lag_us);
        let stats = RoundStats {
            traced,
            p50: percentile(sorted, 0.50),
            p99: percentile(sorted, 0.99),
            throughput,
            requests: sent,
            cpu_s,
            lag_p99: percentile(sort(&mut lag), 0.99),
            memo_hits,
            memo_hit_ratio: memo_hits / (tenant.admitted.max(1) as f64),
            admitted: tenant.admitted as f64,
            single_flight_joins: snap.single_flight_joins as f64,
            queue_high_water: snap.queue_high_water as f64,
            stages: snap.stages.into_iter().filter(|s| s.stage.starts_with("serve.")).collect(),
        };
        if !traced {
            self.latencies.extend_from_slice(sorted);
        }
        eprintln!(
            "round {r}{}: {:.0} req/s, p50 {:.1} us, p99 {:.1} us, {:.1} cpu us/request, {} failed",
            if traced { " (traced)" } else { "" },
            stats.throughput,
            stats.p50,
            stats.p99,
            cpu_s * 1e6 / sent,
            phase.failed
        );
        self.rounds.push(stats);
        phase.wall
    }

    fn untraced(&self, f: impl Fn(&RoundStats) -> f64) -> f64 {
        let v: Vec<f64> = self.rounds.iter().filter(|r| !r.traced).map(f).collect();
        median(&v)
    }

    /// CPU time over all untraced timed phases ÷ their requests. Pooled
    /// rather than a median of rounds: `/proc/self/stat` counts in 10 ms
    /// ticks, a coarse step for one short round.
    fn cpu_us_per_request(&self) -> f64 {
        let untraced = self.rounds.iter().filter(|r| !r.traced);
        let (cpu_s, requests) =
            untraced.fold((0.0, 0.0), |(c, n), r| (c + r.cpu_s, n + r.requests));
        cpu_s * 1e6 / requests.max(1.0)
    }

    fn end_to_end(&self) -> Report {
        let values = HashMap::from([
            ("latency_p50_us", self.untraced(|r| r.p50)),
            ("cpu_us_per_request", self.cpu_us_per_request()),
            ("rss_growth_mb", self.rss_growth_kib as f64 / 1024.0),
            ("setup_s", median(&self.setups)),
        ]);
        Report {
            metrics: END_TO_END.iter().map(|m| (m.name, values[m.name])).collect(),
            notes: self.wall_clock_notes(),
            ..Report::default()
        }
    }

    /// Wall-clock numbers printed on every run, next to the metrics.
    fn wall_clock_notes(&self) -> Vec<(String, f64, &'static str)> {
        let p99 = self.untraced(|r| r.p99);
        let beyond = self.latencies.iter().filter(|&&l| l > p99).count();
        vec![
            ("rounds".into(), self.rounds.len() as f64, "count"),
            ("throughput_rps".into(), self.untraced(|r| r.throughput), "req/s"),
            ("latency_p99_us".into(), p99, "us"),
            ("latency.samples".into(), self.latencies.len() as f64, "count"),
            ("latency.beyond_p99".into(), beyond as f64, "count"),
        ]
    }

    fn per_layer(&mut self) -> Report {
        let untraced_p50 = self.untraced(|r| r.p50);
        let traced: Vec<f64> = self.rounds.iter().filter(|r| r.traced).map(|r| r.p50).collect();
        let mut notes = self.wall_clock_notes();
        // The server's own stage histograms from the last traced round,
        // printed next to the replay's layer times as a cross-check.
        if let Some(last) = self.rounds.iter().rev().find(|r| r.traced) {
            for s in &last.stages {
                notes.push((format!("stage.{}.mean_us", s.stage), s.mean_us() as f64, "us"));
                notes.push((format!("stage.{}.spans", s.stage), s.spans as f64, "count"));
            }
        }

        let trace_path = self.opts.out_dir.join("traces").join(format!(
            "{}-seed{}.json",
            self.plan.workload.name(),
            self.plan.seed
        ));
        let tracing = TraceSession::start(&trace_path);
        let first = std::mem::take(&mut self.first_requests);
        let live = self.start("traced-pass");
        let phase = client::send(live.server.local_addr(), &first, "t");
        self.stop(live);
        self.absorb(&phase, false);
        let probe = self.plan.containment_probe();
        let layers =
            replay(self.plan.workload, &first, &probe, self.template.as_deref(), &self.run_dir);
        match tracing.finish() {
            Ok(written) => {
                // The Chrome trace is the deliverable; its JSONL twin
                // would double the disk a traced run leaves behind.
                let _ = fs::remove_file(&written.jsonl_path);
                eprintln!(
                    "trace: {} spans, {} instants -> {}",
                    written.spans,
                    written.instants,
                    written.chrome_path.display()
                );
            }
            Err(e) => {
                self.reasons.push(format!("trace export failed: {e}"));
                self.oracle_failures += 1;
            }
        }
        if !layers.wrong.is_empty() {
            self.wrong += layers.wrong.len() as u64;
            self.reasons.extend(layers.wrong.iter().take(4).cloned());
        }

        let mut values: HashMap<&str, f64> = layers.metrics.iter().copied().collect();
        values.insert("server.memo_hits", self.untraced(|r| r.memo_hits));
        values.insert("server.memo_hit_ratio", self.untraced(|r| r.memo_hit_ratio));
        values.insert("admission.admitted", self.untraced(|r| r.admitted));
        values.insert("engine.single_flight_joins", self.untraced(|r| r.single_flight_joins));
        values.insert("engine.queue_high_water", self.untraced(|r| r.queue_high_water));
        values.insert("loadgen.throughput_rps", self.untraced(|r| r.throughput));
        values.insert("loadgen.latency_p99_us", self.untraced(|r| r.p99));
        values.insert("loadgen.lag_p99_us", self.untraced(|r| r.lag_p99));
        values.insert("residual_us", untraced_p50 - layers.path_sum_p50_us);
        values.insert("trace_overhead", median(&traced) / untraced_p50 - 1.0);
        Report {
            metrics: PER_LAYER.iter().map(|m| (m.name, values[m.name])).collect(),
            notes,
            ..Report::default()
        }
    }
}
