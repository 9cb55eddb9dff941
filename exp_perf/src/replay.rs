//! The per-layer replay of a traced run.
//!
//! The first requests of the workload are replayed in-process, in order,
//! by calling each layer's public function the way the server's request
//! path does: HTTP read and CRC, wire parse, tenant admission, the engine
//! hop, the counting kernel or containment backend, the memo store, wire
//! render, HTTP write. Each call runs under a `bench.<layer>` span whose
//! fingerprint is the request's index, below one `bench.request` root
//! span with the same id, and is timed with [`Instant`] around exactly
//! that call. No span is added inside the program.

use crate::client::API_KEY;
use crate::oracle::{expect, verdict_label, verify};
use crate::plan::{Case, Frame, Workload};
use crate::stats::{median, percentile, sort, us};
use bagcq_arith::{acc_promotions, Nat};
use bagcq_containment::{CheckSpec, ContainmentChoice, Verdict};
use bagcq_engine::{
    CountError, EngineConfig, EvalEngine, Job, MemoStore, Outcome, TenantGate, TenantQuota,
    TenantSpec,
};
use bagcq_homcount::{BackendChoice, CountRequest, Engine};
use bagcq_query::Query;
use bagcq_serve::http::{
    crc32, read_request, write_request_with_headers, write_response_with_headers, HttpLimits,
};
use bagcq_serve::{parse_check_request, parse_count_request, WireResponse};
use bagcq_structure::{Fingerprint, Structure};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server's per-job deadline (`ServerConfig::default().job_timeout`).
const JOB_TIMEOUT: Duration = Duration::from_secs(10);
/// The server's response-memo capacity; the emulated memo is cleared
/// when it fills, as the server's is.
const RESPONSE_MEMO_CAP: usize = 4_096;
/// Span ids of the containment probe start here, clear of request ids.
const PROBE_ID_BASE: u64 = 1 << 40;
/// The internal counts of one replayed check in this many go through
/// the resolution and store layers too; a check makes up to hundreds of
/// them, and replaying all would swamp the trace.
const INTERNAL_COUNT_SAMPLE: u64 = 4;

/// The tenant every benchmark server and replay gate admits: no rate,
/// burst, in-flight or connection limit.
pub fn open_tenant() -> TenantSpec {
    TenantSpec::new("bench", API_KEY).with_quota(TenantQuota::unlimited())
}

/// Runs `f` under a `stage` span with fingerprint `id`; returns its value
/// and its duration in µs (the span opens before and closes after the
/// timed interval).
fn timed<T>(stage: &'static str, name: &str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = bagcq_obs::span_fp(stage, name, u128::from(id));
    let t = Instant::now();
    let out = f();
    (out, us(t.elapsed()))
}

/// Status, reason and body of one answer.
type Reply = (u16, &'static str, String);

#[derive(Default)]
struct Samples {
    http_read: Vec<f64>,
    http_write: Vec<f64>,
    http_crc: Vec<f64>,
    parse: Vec<f64>,
    render: Vec<f64>,
    admit: Vec<f64>,
    job: Vec<f64>,
    overhead: Vec<f64>,
    store_get: Vec<f64>,
    store_put: Vec<f64>,
    store_hits: u64,
    count: Vec<f64>,
    resolve: Vec<f64>,
    naive: u64,
    treewidth: u64,
    promotions: u64,
    checks: HashMap<ContainmentChoice, Vec<f64>>,
    check_counts: u64,
    unknown: u64,
    decided: u64,
    /// Per request: the summed layer times on the server's path for it
    /// (memo hits skip parse, engine and render).
    path_sum: Vec<f64>,
    wrong: Vec<String>,
}

/// What the replay measured.
pub struct Layers {
    /// Per-layer metrics, by declared name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Median over replayed requests of the summed layer times on the
    /// server's path for that request.
    pub path_sum_p50_us: f64,
    /// Replayed answers that disagreed with the oracle.
    pub wrong: Vec<String>,
}

enum Parsed {
    Count(bagcq_serve::CountJob),
    Check(bagcq_serve::CheckJob),
}

struct Replayer {
    engine: EvalEngine,
    gate: TenantGate,
    store: MemoStore,
    memo: HashMap<String, Reply>,
    s: Samples,
}

/// Replays `frames` (and, when they contain no check, the containment
/// `probe`) layer by layer. `store_template` is the workload's store,
/// copied under `run_dir` twice: once for the engine (configured like
/// the server's) and once for the store layer itself.
pub fn replay(
    workload: Workload,
    frames: &[Arc<Frame>],
    probe: &[Arc<Frame>],
    store_template: Option<&Path>,
    run_dir: &Path,
) -> Layers {
    let engine_store_dir = run_dir.join("replay-engine-store");
    let layer_store_dir = run_dir.join("replay-layer-store");
    crate::run::fresh_copy(store_template, &engine_store_dir);
    crate::run::fresh_copy(store_template, &layer_store_dir);
    let engine_store = workload.uses_store().then(|| {
        Arc::new(MemoStore::open(&engine_store_dir).expect("open the replay engine's store"))
    });
    let (store, open_us) = timed("bench.store", "open", 0, || {
        MemoStore::open(&layer_store_dir).expect("open the replay store")
    });
    let mut r = Replayer {
        engine: EvalEngine::new(EngineConfig { store: engine_store, ..EngineConfig::default() }),
        gate: TenantGate::new([open_tenant()]),
        store,
        memo: HashMap::new(),
        s: Samples::default(),
    };
    for (i, frame) in frames.iter().enumerate() {
        let _root = bagcq_obs::span_fp("bench.request", frame.path, i as u128);
        r.request(i as u64, frame);
    }
    if !frames.iter().any(|f| f.is_check()) {
        for (j, frame) in probe.iter().enumerate() {
            let id = PROBE_ID_BASE + j as u64;
            let _root = bagcq_obs::span_fp("bench.probe", "containment", u128::from(id));
            if let Case::Check { spec, .. } = &frame.case {
                r.containment_call(id, spec, false);
            }
        }
    }

    let snap = r.engine.metrics();
    let stats = r.store.stats();
    let Replayer { engine, store, s, .. } = r;
    drop(engine);
    drop(store);
    let _ = std::fs::remove_dir_all(&engine_store_dir);
    let _ = std::fs::remove_dir_all(&layer_store_dir);

    let counts = (s.naive + s.treewidth).max(1) as f64;
    let mut checks: Vec<f64> = s.checks.values().flatten().copied().collect();
    let n_checks = (checks.len() as f64).max(1.0);
    let per_choice = |c: ContainmentChoice| s.checks.get(&c).map_or(0.0, |v| median(v));
    let mut count = s.count.clone();
    let metrics = vec![
        ("http.read_request_us", median(&s.http_read)),
        ("http.write_response_us", median(&s.http_write)),
        ("http.crc_us", median(&s.http_crc)),
        ("wire.parse_us", median(&s.parse)),
        ("wire.render_us", median(&s.render)),
        ("admission.admit_us", median(&s.admit)),
        ("engine.job_us", median(&s.job)),
        ("engine.overhead_us", median(&s.overhead)),
        ("engine.jobs_submitted", snap.jobs_submitted as f64),
        ("engine.cache_hits", snap.cache_hits as f64),
        ("engine.cache_misses", snap.cache_misses as f64),
        ("engine.hit_ratio", snap.hit_rate().unwrap_or(0.0)),
        ("store.open_ms", open_us / 1e3),
        ("store.get_us", median(&s.store_get)),
        ("store.put_us", median(&s.store_put)),
        ("store.hits", s.store_hits as f64),
        ("store.appends", stats.appends as f64),
        ("store.records", stats.records as f64),
        ("homcount.count_us", median(&s.count)),
        ("homcount.count_p99_us", percentile(sort(&mut count), 0.99)),
        ("homcount.resolve_us", median(&s.resolve)),
        ("homcount.naive_share", s.naive as f64 / counts),
        ("homcount.promotions", s.promotions as f64),
        ("containment.check_us.bag-search", per_choice(ContainmentChoice::BagSearch)),
        (
            "containment.check_us.set-chandra-merlin",
            per_choice(ContainmentChoice::SetChandraMerlin),
        ),
        ("containment.check_us.set-ucq", per_choice(ContainmentChoice::SetUcq)),
        ("containment.check_us.bag-ucq", per_choice(ContainmentChoice::BagUcq)),
        ("containment.check_p99_us", percentile(sort(&mut checks), 0.99)),
        ("containment.counts_per_check", s.check_counts as f64 / n_checks),
        ("containment.unknown", s.unknown as f64),
        ("containment.decided_frac", s.decided as f64 / n_checks),
    ];
    Layers { metrics, path_sum_p50_us: median(&s.path_sum), wrong: s.wrong }
}

impl Replayer {
    fn request(&mut self, id: u64, frame: &Frame) {
        let mut bytes = Vec::new();
        let extra =
            [("Idempotency-Key", format!("replay-{id}")), ("X-Body-Crc", frame.crc.clone())];
        write_request_with_headers(
            &mut bytes,
            "POST",
            frame.path,
            API_KEY,
            frame.body.as_bytes(),
            &extra,
        )
        .expect("writing into a Vec cannot fail");
        let (request, t_read) = timed("bench.http", "read_request", id, || {
            read_request(&mut BufReader::new(bytes.as_slice()), &HttpLimits::default())
        });
        let request = request.expect("replayed requests are well framed").expect("one request");
        let (_, t_crc_in) = timed("bench.http", "crc", id, || crc32(&request.body));
        let body = request.utf8_body().expect("frames are UTF-8");
        self.s.http_read.push(t_read);
        self.s.http_crc.push(t_crc_in);
        let mut path = t_read + t_crc_in;

        let (parsed, t_parse) = timed("bench.wire", "parse", id, || {
            if frame.path == "/v1/check" {
                parse_check_request(body).map(Parsed::Check)
            } else {
                parse_count_request(body).map(Parsed::Count)
            }
        });
        self.s.parse.push(t_parse);

        let (status, reason, text) = match parsed {
            Err(e) => {
                let (text, t_render) =
                    timed("bench.wire", "render", id, || e.to_response().render());
                self.s.render.push(t_render);
                path += t_parse + t_render;
                (400, "Bad Request", text)
            }
            Ok(parsed) => {
                let (permit, t_admit) =
                    timed("bench.admission", "admit", id, || self.gate.admit(API_KEY));
                drop(permit.expect("the open tenant admits everything"));
                self.s.admit.push(t_admit);
                path += t_admit;
                let direct = match &parsed {
                    Parsed::Count(job) => {
                        let (t, n) = self.count_call(id, &job.query, &job.support, job.backend);
                        self.store_call(id, count_key(job.backend, &job.query, &job.support), &n);
                        t
                    }
                    Parsed::Check(job) => self.containment_call(id, &job.spec, true),
                };
                match self.memo.get(body) {
                    Some(reply) => reply.clone(),
                    None => {
                        let (response, t_job) = self.engine_call(id, &parsed, direct);
                        let (text, t_render) =
                            timed("bench.wire", "render", id, || response.render());
                        self.s.render.push(t_render);
                        path += t_parse + t_job + t_render;
                        let reply = if response.is_error() {
                            (500, "Internal Server Error", text)
                        } else {
                            (200, "OK", text)
                        };
                        if reply.0 == 200 {
                            if self.memo.len() >= RESPONSE_MEMO_CAP {
                                self.memo.clear();
                            }
                            self.memo.insert(body.to_string(), reply.clone());
                        }
                        reply
                    }
                }
            }
        };

        if let Err(why) = verify(expect(frame), status, text.as_bytes()) {
            self.s.wrong.push(format!("replayed request {id}: {why}"));
        }
        let (crc, t_crc_out) = timed("bench.http", "crc", id, || crc32(text.as_bytes()));
        let mut out = Vec::with_capacity(text.len() + 160);
        let (written, t_write) = timed("bench.http", "write_response", id, || {
            let extra = [("X-Body-Crc", format!("{crc:08x}"))];
            write_response_with_headers(&mut out, status, reason, &text, true, &extra)
        });
        written.expect("writing into a Vec cannot fail");
        self.s.http_crc.push(t_crc_out);
        self.s.http_write.push(t_write);
        self.s.path_sum.push(path + t_crc_out + t_write);
    }

    /// The engine hop (submit + wait), rendered the way the server renders
    /// it. `direct_us` is the same work done directly; the difference is
    /// recorded as engine overhead when the engine really computed (a memo
    /// and store miss).
    fn engine_call(&mut self, id: u64, parsed: &Parsed, direct_us: f64) -> (WireResponse, f64) {
        let job = match parsed {
            Parsed::Count(job) => {
                Job::count_with(job.backend, job.query.clone(), Arc::clone(&job.support))
            }
            Parsed::Check(job) => Job::check(job.spec.clone()),
        }
        .with_timeout(JOB_TIMEOUT);
        let misses = self.engine.metrics().cache_misses;
        let (outcome, t_job) =
            timed("bench.engine", job.spec.kind(), id, || self.engine.submit(job).wait());
        self.s.job.push(t_job);
        if self.engine.metrics().cache_misses > misses {
            self.s.overhead.push(t_job - direct_us);
        }
        let response = match (outcome, parsed) {
            (Outcome::Count(count), Parsed::Count(job)) => WireResponse::Count {
                backend: job.backend,
                bag_total: job.bag.total_multiplicity(),
                support_atoms: job.support.total_atoms() as u64,
                count,
            },
            (Outcome::Verdict(v), Parsed::Check(job)) => WireResponse::Check {
                semantics: job.spec.semantics,
                containment: job.spec.resolved_choice(),
                verdict: verdict_label(&v).into(),
                detail: v.to_string().replace('\n', " "),
            },
            (other, _) => WireResponse::error("engine", format!("{other:?}")),
        };
        (response, t_job)
    }

    /// The counting kernel, called directly: `Auto` resolution, then the
    /// count. Returns the count's time and value.
    fn count_call(
        &mut self,
        id: u64,
        query: &Query,
        data: &Structure,
        backend: BackendChoice,
    ) -> (f64, Nat) {
        let (resolved, t_resolve) =
            timed("bench.homcount", "resolve", id, || backend.resolve(query, data));
        let before = acc_promotions();
        let (count, t_count) = timed("bench.homcount", resolved.label(), id, || {
            CountRequest::new(query, data).backend(backend).run()
        });
        self.s.promotions += acc_promotions() - before;
        self.s.resolve.push(t_resolve);
        self.s.count.push(t_count);
        self.note_family(resolved);
        (t_count, count.expect("unlimited counts complete"))
    }

    fn note_family(&mut self, resolved: BackendChoice) {
        match resolved.family() {
            Engine::Naive => self.s.naive += 1,
            Engine::Treewidth => self.s.treewidth += 1,
        }
    }

    /// The containment backend, called directly with a counting closure
    /// over [`CountRequest`]. With `workload` set (a check the workload
    /// sent, not a probe), each internal count also feeds the `homcount`
    /// samples, and for one check in [`INTERNAL_COUNT_SAMPLE`] a second,
    /// untraced pass records the internal counts to replay their
    /// resolution and their store traffic. Returns the check time.
    fn containment_call(&mut self, id: u64, spec: &CheckSpec, workload: bool) -> f64 {
        let choice = spec.resolved_choice();
        let times = RefCell::new(Vec::new());
        let promotions = RefCell::new(0u64);
        let counter = |q: &Query, d: &Structure| -> Result<Nat, CountError> {
            let before = acc_promotions();
            let t = Instant::now();
            let n = CountRequest::new(q, d).run();
            times.borrow_mut().push(us(t.elapsed()));
            *promotions.borrow_mut() += acc_promotions() - before;
            n
        };
        let (verdict, t_check) = timed("bench.containment", choice.label(), id, || {
            spec.try_check_with_counter(&counter)
        });
        let verdict = verdict.expect("generated checks run to a verdict");
        let times = times.into_inner();
        self.s.check_counts += times.len() as u64;
        self.s.checks.entry(choice).or_default().push(t_check);
        match verdict {
            Verdict::Unknown { .. } => self.s.unknown += 1,
            Verdict::Proved(_) | Verdict::Refuted(_) => self.s.decided += 1,
        }
        if !workload {
            return t_check;
        }
        self.s.count.extend(&times);
        self.s.promotions += promotions.into_inner();
        if id.is_multiple_of(INTERNAL_COUNT_SAMPLE) {
            let recorded = RefCell::new(Vec::new());
            let recorder = |q: &Query, d: &Structure| -> Result<Nat, CountError> {
                let n = CountRequest::new(q, d).run()?;
                recorded.borrow_mut().push((q.clone(), d.clone(), n.clone()));
                Ok(n)
            };
            // Bookkeeping, not a layer call: keep its spans out of the trace.
            let tracing = bagcq_obs::enabled();
            bagcq_obs::disable();
            spec.try_check_with_counter(&recorder).expect("the recording pass repeats the check");
            if tracing {
                bagcq_obs::enable();
            }
            for (q, d, n) in recorded.into_inner() {
                let (resolved, t_resolve) =
                    timed("bench.homcount", "resolve", id, || BackendChoice::Auto.resolve(&q, &d));
                self.s.resolve.push(t_resolve);
                self.note_family(resolved);
                self.store_call(id, count_key(BackendChoice::Auto, &q, &d), &n);
            }
        }
        t_check
    }

    /// The store layer: a read, and a write when the read missed.
    fn store_call(&mut self, id: u64, key: Fingerprint, count: &Nat) {
        let (hit, t_get) = timed("bench.store", "get", id, || self.store.get(&key));
        self.s.store_get.push(t_get);
        if hit.is_some() {
            self.s.store_hits += 1;
            return;
        }
        let outcome = Outcome::Count(count.clone());
        let (put, t_put) = timed("bench.store", "put", id, || self.store.put(key, &outcome));
        put.expect("store append");
        self.s.store_put.push(t_put);
    }
}

/// The engine's memo key for a count job.
fn count_key(backend: BackendChoice, query: &Query, data: &Structure) -> Fingerprint {
    Job::count_with(backend, query.clone(), Arc::new(data.clone())).spec.fingerprint()
}
