//! Seeded closed-loop load generator for the serve front door.
//!
//! Replays a deterministic mixed workload — count and containment
//! requests, valid and deliberately malformed frames, hot (repeated)
//! and cold (fresh) cache keys — over `connections` keep-alive HTTP
//! connections, then reports throughput, a log₂ latency histogram, and
//! exact shed/error tallies.
//!
//! Every valid count request's expected answer is precomputed
//! **in-process** through the same counting path the server uses, so a
//! run verifies bit-identical results end to end: any divergence between
//! the wire answer and the in-process answer is counted as a
//! `mismatch` and fails the run. Malformed frames must come back as
//! typed 400s; overload sheds must come back as typed 429/503 frames —
//! anything else (connection reset, unparsable response, wrong status)
//! is a `protocol_error`.
//!
//! Randomness is a seeded [`SplitMix64`] stream — same seed, same
//! workload, byte for byte. No system clock or OS entropy is consulted
//! for workload decisions.
//!
//! ## Self-healing client
//!
//! With a [`RetryPolicy`] configured ([`LoadgenConfig::retry`]), the
//! client retries *transient* failures — transport errors, truncated
//! responses, `X-Body-Crc` mismatches, 408 slow-client evictions, and
//! corruption-induced 400s on frames known to be well-formed — under
//! bounded, deterministically-jittered backoff. Every request carries a
//! deterministic `Idempotency-Key`, so a retried delivery is replayed
//! bit-identically by the server *without* a second admission charge;
//! the report's `retries`/`hedges` tallies plus the server's per-tenant
//! `idempotent_replays` counter let a test assert exactly-once count
//! semantics end to end. Typed overload sheds (429/503/504) are **not**
//! retried — shedding is the server's contract, not a fault.
//!
//! [`LoadgenConfig::chaos_net`] additionally wraps the client's own
//! sockets in the seeded [`crate::chaos`] transport, so a single
//! process can rehearse faults on both sides of the wire.

use crate::chaos::{Conn, NetFaultInjector, NetFaultPlan};
use crate::http::{
    crc32, read_response, write_request_with_headers, HttpError, HttpLimits, HttpResponse,
};
use crate::wire::{parse_response, WireResponse};
use bagcq_arith::Nat;
use bagcq_engine::RetryPolicy;
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_obs::{Log2Histogram, SplitMix64};
use bagcq_query::{parse_bag_instance_infer, parse_dlgp_query};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What fraction of a mixed workload each request class gets, in
/// per-1024 weights (the remainder after the listed classes is cold
/// count requests).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadMix {
    /// Hot count requests (drawn from a small pool → cache hits).
    pub hot_count_per_1024: u32,
    /// Containment checks.
    pub check_per_1024: u32,
    /// Deliberately malformed frames (must answer typed 400s).
    pub malformed_per_1024: u32,
}

impl Default for WorkloadMix {
    fn default() -> Self {
        // ~82% hot counts, ~10% checks, ~4% malformed, ~4% cold counts.
        // Cold counts are full engine evaluations (no cache on either
        // side), so they are deliberately the rare class: they pin
        // correctness off the hot path without dominating wall-clock.
        WorkloadMix { hot_count_per_1024: 840, check_per_1024: 100, malformed_per_1024: 44 }
    }
}

/// Configuration for [`run`].
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4017`.
    pub addr: String,
    /// Tenant API key sent with every request.
    pub api_key: String,
    /// RNG seed; the workload is a pure function of it.
    pub seed: u64,
    /// Total requests across all connections.
    pub requests: u64,
    /// Concurrent keep-alive connections (closed-loop workers).
    pub connections: usize,
    /// Request class weights.
    pub mix: WorkloadMix,
    /// Transient-failure retry policy. `None` (the default) fails fast:
    /// any transport hiccup is a `protocol_error`, exactly as before.
    pub retry: Option<RetryPolicy>,
    /// Hedged requests: when set, the *first* delivery of each request
    /// gets this much time to answer; if it times out, the client
    /// immediately re-issues under the same `Idempotency-Key` (counted
    /// as a `hedge`, not a retry). The server's idempotency memo makes
    /// the speculative duplicate safe.
    pub hedge_after: Option<Duration>,
    /// Wrap the client's own sockets in the seeded chaos transport
    /// (connect side) — faults on the way *to* the server and on the
    /// way back.
    pub chaos_net: Option<u64>,
    /// Per-socket read/write timeout; no client thread ever hangs on a
    /// dead server longer than this.
    pub io_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:4017".into(),
            api_key: "dev-key".into(),
            seed: 42,
            requests: 20_000,
            connections: 8,
            mix: WorkloadMix::default(),
            retry: None,
            hedge_after: None,
            chaos_net: None,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// What a load run observed. `protocol_errors` and `mismatches` must be
/// zero for a healthy run; sheds are expected (and typed) under
/// overload.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests attempted.
    pub requests: u64,
    /// 200s with the expected payload.
    pub ok: u64,
    /// Typed 429/503/504 shed frames.
    pub sheds: u64,
    /// Malformed frames that came back as typed 400s (expected).
    pub rejected_malformed: u64,
    /// Anything off-protocol: resets, unparsable frames, wrong status
    /// for the payload, untyped errors.
    pub protocol_errors: u64,
    /// Wire answers that disagreed with the in-process count, or 200
    /// bodies that were not bit-identical across deliveries of the same
    /// frame.
    pub mismatches: u64,
    /// Transient failures that were retried (transport errors, CRC
    /// mismatches, 408s, corruption-induced 400s).
    pub retries: u64,
    /// Speculative re-issues after a first delivery outlived
    /// [`LoadgenConfig::hedge_after`].
    pub hedges: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Client-observed request latencies, retries and hedges included.
    pub latency_log2_us: Log2Histogram,
    /// Shed tallies by `reason:` label.
    pub shed_reasons: HashMap<String, u64>,
}

impl LoadgenReport {
    /// Requests per second over the run.
    pub fn req_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / secs
    }

    /// `true` when the run saw no protocol errors and no mismatches.
    pub fn clean(&self) -> bool {
        self.protocol_errors == 0 && self.mismatches == 0
    }

    /// Approximate latency percentile (microseconds) from the log₂
    /// histogram — bucket upper bounds, so an overestimate.
    pub fn latency_percentile_us(&self, pct: f64) -> u64 {
        self.latency_log2_us.quantile_upper_us(pct)
    }

    /// Human-readable run report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("loadgen report\n");
        out.push_str(&format!("  requests        {}\n", self.requests));
        out.push_str(&format!("  elapsed         {:.3}s\n", self.elapsed.as_secs_f64()));
        out.push_str(&format!("  throughput      {:.0} req/s\n", self.req_per_sec()));
        out.push_str(&format!("  ok              {}\n", self.ok));
        out.push_str(&format!("  sheds           {}\n", self.sheds));
        let mut reasons: Vec<_> = self.shed_reasons.iter().collect();
        reasons.sort();
        for (reason, n) in reasons {
            out.push_str(&format!("    {reason:<22} {n}\n"));
        }
        out.push_str(&format!("  rejected 400s   {}\n", self.rejected_malformed));
        out.push_str(&format!("  retries         {}\n", self.retries));
        out.push_str(&format!("  hedges          {}\n", self.hedges));
        out.push_str(&format!("  protocol errors {}\n", self.protocol_errors));
        out.push_str(&format!("  mismatches      {}\n", self.mismatches));
        out.push_str(&format!(
            "  latency p50/p99 ≤{}µs / ≤{}µs\n",
            self.latency_percentile_us(0.50),
            self.latency_percentile_us(0.99)
        ));
        out
    }
}

/// One precomputed request: the frame to send and what a correct server
/// must answer.
#[derive(Clone, Debug)]
struct Plan {
    path: &'static str,
    body: String,
    expect: Expect,
}

#[derive(Clone, Debug)]
enum Expect {
    /// 200 count frame with exactly this value.
    Count(Nat),
    /// 200 check frame (any verdict — the checker's budget decides).
    Check,
    /// 400 with a typed parse/frame error.
    Malformed,
}

/// DLGP source of a length-`len` path query over relation `e`.
fn path_query_source(len: usize) -> String {
    let mut src = String::from("?- ");
    for i in 0..len {
        if i > 0 {
            src.push_str(", ");
        }
        src.push_str(&format!("e(X{i}, X{})", i + 1));
    }
    src.push('.');
    src
}

/// DLGP source of a seeded edge instance: `u -> v` pairs become
/// `e(nu, nv).` facts.
fn edges_source(edges: &[(u64, u64)]) -> String {
    let mut src = String::new();
    for &(u, v) in edges {
        src.push_str(&format!("e(n{u}, n{v}).\n"));
    }
    src
}

/// Assembles a `/v1/count` frame from the two sources.
fn count_frame(query_src: &str, data_src: &str) -> String {
    let mut body = String::from("backend: auto\nquery:\n  ");
    body.push_str(query_src);
    body.push_str("\ndata:\n");
    for line in data_src.lines() {
        body.push_str("  ");
        body.push_str(line);
        body.push('\n');
    }
    body
}

fn check_frame(small_len: usize, big_len: usize, semantics: &str) -> String {
    let mut body = format!("semantics: {semantics}\nsmall:\n  ?- ");
    for i in 0..small_len {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!("e(X{i}, X{})", i + 1));
    }
    body.push_str(".\nbig:\n  ?- ");
    for i in 0..big_len {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!("e(Y{i}, Y{})", i + 1));
    }
    body.push_str(".\n");
    body
}

/// A union check frame (`;`-separated disjuncts on the small side, one
/// rule per line on the big side) — exercises the UCQ backends through
/// the wire path under both semantics.
fn ucq_check_frame(small_len: usize, big_len: usize, semantics: &str) -> String {
    let mut rule = String::from("?- ");
    for i in 0..big_len.max(small_len).max(1) {
        if i > 0 {
            rule.push_str(", ");
        }
        rule.push_str(&format!("e(W{i}, W{})", i + 1));
    }
    rule.push('.');
    format!(
        "semantics: {semantics}\nsmall:\n  ?- e(X0, X1) ; f(Y0).\nbig:\n  {rule}\n  ?- f(Z0).\n"
    )
}

const MALFORMED_BODIES: &[&str] = &[
    // Unterminated atom.
    "query:\n  ?- e(X, Y\ndata:\n  e(a, b).\n",
    // Unknown section header.
    "qurey:\n  ?- e(X, Y).\n",
    // Zero multiplicity.
    "query:\n  ?- e(X, Y).\ndata:\n  e(a, b)@0.\n",
    // Non-ground fact.
    "query:\n  ?- e(X, Y).\ndata:\n  e(a, Z).\n",
    // Arity conflict between query and data.
    "query:\n  ?- e(X, Y, Z).\ndata:\n  e(a, b).\n",
    // Missing query section entirely.
    "data:\n  e(a, b).\n",
];

/// Seeded random edge list over `nodes` vertices.
fn random_edges(rng: &mut SplitMix64, nodes: u64, count: usize) -> Vec<(u64, u64)> {
    (0..count).map(|_| (rng.below(nodes), rng.below(nodes))).collect()
}

/// Computes the expected count for a (query, data) pair **in-process**,
/// through the same `CountRequest` path the engine uses — the oracle
/// for the bit-identity check.
fn expected_count(query_src: &str, data_src: &str) -> Nat {
    let (_bag, support, schema) =
        parse_bag_instance_infer(data_src).expect("planner data is valid");
    let query = parse_dlgp_query(&schema, query_src).expect("planner queries are valid");
    CountRequest::new(&query, &support)
        .backend(BackendChoice::Auto)
        .run()
        .expect("planner workload counts succeed")
}

/// Builds the deterministic request plan for a seed: a hot pool of
/// repeated frames plus cold one-off frames, interleaved per the mix.
fn build_plan(config: &LoadgenConfig) -> Vec<Plan> {
    let mut rng = SplitMix64::new(config.seed);
    // A small hot pool: identical frames → engine cache hits.
    let hot_pool: Vec<Plan> = (0..8)
        .map(|i| {
            let query_src = path_query_source(2 + (i % 3));
            let data_src = edges_source(&random_edges(&mut rng, 6, 12));
            let expect = Expect::Count(expected_count(&query_src, &data_src));
            Plan { path: "/v1/count", body: count_frame(&query_src, &data_src), expect }
        })
        .collect();
    let mix = config.mix;
    let mut plan = Vec::with_capacity(config.requests as usize);
    for _ in 0..config.requests {
        let roll = rng.below(1024) as u32;
        if roll < mix.hot_count_per_1024 {
            let pick = rng.below(hot_pool.len() as u64) as usize;
            plan.push(hot_pool[pick].clone());
        } else if roll < mix.hot_count_per_1024 + mix.check_per_1024 {
            let small = 2 + rng.below(2) as usize;
            let big = 2 + rng.below(3) as usize;
            // Rotate through semantics × query-class so every registered
            // containment backend serves wire traffic under load.
            let body = match rng.below(4) {
                0 => check_frame(small, big, "bag"),
                1 => check_frame(small, big, "set"),
                2 => ucq_check_frame(small, big, "bag"),
                _ => ucq_check_frame(small, big, "set"),
            };
            plan.push(Plan { path: "/v1/check", body, expect: Expect::Check });
        } else if roll < mix.hot_count_per_1024 + mix.check_per_1024 + mix.malformed_per_1024 {
            let pick = rng.below(MALFORMED_BODIES.len() as u64) as usize;
            plan.push(Plan {
                path: "/v1/count",
                body: MALFORMED_BODIES[pick].to_string(),
                expect: Expect::Malformed,
            });
        } else {
            // Cold: a fresh random instance each time (cache misses).
            let query_src = path_query_source(2 + rng.below(2) as usize);
            let edge_count = 10 + rng.below(6) as usize;
            let data_src = edges_source(&random_edges(&mut rng, 8, edge_count));
            let expect = Expect::Count(expected_count(&query_src, &data_src));
            plan.push(Plan { path: "/v1/count", body: count_frame(&query_src, &data_src), expect });
        }
    }
    plan
}

/// One planned request, exposed for differential replay: the HTTP path,
/// the frame body, and what a correct server must answer. Used by the
/// cross-backend differential test in `serve_e2e.rs` and by the
/// falsification fleet (`bagcq-falsify`) to drive the wire path with a
/// known-good oracle.
#[derive(Clone, Debug)]
pub struct PlannedRequest {
    /// Request path (`/v1/count` or `/v1/check`).
    pub path: &'static str,
    /// Frame body, exactly as sent.
    pub body: String,
    /// Expected count for valid count frames; `None` for checks and
    /// malformed frames.
    pub expected_count: Option<Nat>,
    /// `true` when the frame is deliberately malformed (must 400).
    pub malformed: bool,
}

/// Builds the seeded request plan without running it, so tests can
/// replay the identical corpus through arbitrary transports or backends.
pub fn plan_requests(config: &LoadgenConfig) -> Vec<PlannedRequest> {
    build_plan(config)
        .into_iter()
        .map(|p| PlannedRequest {
            path: p.path,
            expected_count: match &p.expect {
                Expect::Count(n) => Some(n.clone()),
                _ => None,
            },
            malformed: matches!(p.expect, Expect::Malformed),
            body: p.body,
        })
        .collect()
}

struct Tally {
    ok: AtomicU64,
    sheds: AtomicU64,
    rejected_malformed: AtomicU64,
    protocol_errors: AtomicU64,
    mismatches: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    latency_log2_us: Log2Histogram,
    shed_reasons: std::sync::Mutex<HashMap<String, u64>>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            ok: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            rejected_malformed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            latency_log2_us: Log2Histogram::default(),
            shed_reasons: std::sync::Mutex::new(HashMap::new()),
        }
    }

    fn record_shed(&self, reason: &str) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
        let mut map = self.shed_reasons.lock().unwrap_or_else(|p| p.into_inner());
        *map.entry(reason.to_string()).or_insert(0) += 1;
    }
}

/// Scores one response against its plan.
fn score(plan: &Plan, status: u16, response: &WireResponse, tally: &Tally) {
    match response {
        WireResponse::Count { count, .. } => {
            if status != 200 {
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match &plan.expect {
                Expect::Count(expected) if expected == count => {
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                }
                Expect::Count(_) => {
                    tally.mismatches.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        WireResponse::Check { .. } => {
            if status == 200 && matches!(plan.expect, Expect::Check) {
                tally.ok.fetch_add(1, Ordering::Relaxed);
            } else {
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        WireResponse::Error { kind, reason, .. } => match kind.as_str() {
            "parse" | "frame" if status == 400 && matches!(plan.expect, Expect::Malformed) => {
                tally.rejected_malformed.fetch_add(1, Ordering::Relaxed);
            }
            "shed" if matches!(status, 429 | 503 | 504) => {
                tally.record_shed(if reason.is_empty() { "unlabelled" } else { reason });
            }
            "timeout" if status == 504 => {
                tally.record_shed("timeout");
            }
            // A slow-client eviction that survived the retry budget: the
            // server held its deadline contract, so count it as a typed
            // shed rather than breakage.
            "slow_client" if status == 408 => {
                tally.record_shed("slow_client");
            }
            "failed_fast" if status == 503 => {
                tally.record_shed(if reason.is_empty() { "failed_fast" } else { reason });
            }
            _ => {
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        },
    }
}

/// Shared, immutable client-side context for the closed-loop workers.
struct ClientCtx {
    addr: String,
    api_key: String,
    limits: HttpLimits,
    injector: Option<Arc<NetFaultInjector>>,
    retry: Option<RetryPolicy>,
    hedge_after: Option<Duration>,
    io_timeout: Duration,
    seed: u64,
}

type ClientConn = (BufReader<Conn>, Conn);

fn connect(ctx: &ClientCtx) -> Result<ClientConn, std::io::Error> {
    let s = TcpStream::connect(&ctx.addr)?;
    s.set_nodelay(true).ok();
    let conn = Conn::from_stream(s, ctx.injector.as_deref(), "connect");
    conn.set_write_timeout(Some(ctx.io_timeout))?;
    let writer = conn.try_clone()?;
    Ok((BufReader::new(conn), writer))
}

/// One wire exchange.
enum Attempt {
    /// A parseable HTTP response whose `X-Body-Crc` (if present)
    /// verified.
    Response(HttpResponse),
    /// Transport-level failure — connect/write/read error, truncation,
    /// or a response that failed its own integrity checksum.
    /// `timed_out` marks read timeouts (the hedge trigger).
    Transport { timed_out: bool },
}

fn attempt(
    slot: &mut Option<ClientConn>,
    ctx: &ClientCtx,
    item: &Plan,
    idem_key: &str,
    read_timeout: Duration,
) -> Attempt {
    if slot.is_none() {
        match connect(ctx) {
            Ok(c) => *slot = Some(c),
            Err(_) => return Attempt::Transport { timed_out: false },
        }
    }
    let (reader, writer) = slot.as_mut().expect("connection is live");
    let _ = reader.get_ref().set_read_timeout(Some(read_timeout));
    let extra = [
        ("Idempotency-Key", idem_key.to_string()),
        ("X-Body-Crc", format!("{:08x}", crc32(item.body.as_bytes()))),
    ];
    if write_request_with_headers(
        writer,
        "POST",
        item.path,
        &ctx.api_key,
        item.body.as_bytes(),
        &extra,
    )
    .is_err()
    {
        *slot = None;
        return Attempt::Transport { timed_out: false };
    }
    match read_response(reader, &ctx.limits) {
        Ok(Some(http)) => {
            // Transport integrity: a response failing its own checksum
            // was corrupted on the wire — drop the connection (its byte
            // stream is untrustworthy) and treat it as transport loss.
            if let Some(declared) = http.header("x-body-crc") {
                if u32::from_str_radix(declared.trim(), 16) != Ok(crc32(&http.body)) {
                    *slot = None;
                    return Attempt::Transport { timed_out: false };
                }
            }
            if !http.keep_alive() {
                *slot = None;
            }
            Attempt::Response(http)
        }
        Ok(None) => {
            *slot = None;
            Attempt::Transport { timed_out: false }
        }
        Err(e) => {
            let timed_out = matches!(
                &e,
                HttpError::Io(io)
                    if matches!(io.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)
            );
            *slot = None;
            Attempt::Transport { timed_out }
        }
    }
}

/// `true` when a *parsed* response is a transient failure worth
/// retrying: a 408 slow-client eviction, a typed `corrupt` rejection
/// (the server caught mangled bytes via `X-Body-Crc`), or any 400 on a
/// frame the plan knows is well-formed (corruption the checksum did not
/// cover, e.g. mangled request headers). Typed sheds (429/503/504) are
/// deliberately *not* transient — backoff contracts, not faults.
fn transient_response(item: &Plan, status: u16, wire: &WireResponse) -> bool {
    match wire {
        WireResponse::Error { kind, .. } => {
            status == 408
                || kind == "corrupt"
                || (status == 400 && !matches!(item.expect, Expect::Malformed))
        }
        _ => false,
    }
}

/// Cap on the per-worker first-delivery body map (bit-identity oracle);
/// the hot pool lands in it immediately, cold one-shot frames past the
/// cap are simply not cross-checked.
const FIRST_BODY_CAP: usize = 1024;

fn worker(ctx: &ClientCtx, plan: &[Plan], base_index: u64, tally: &Tally) {
    let mut slot: Option<ClientConn> = None;
    // First 200 body observed per request frame: every later delivery
    // of the same frame must be bit-identical (the server's answers are
    // pure functions of the body).
    let mut first_bodies: HashMap<&str, String> = HashMap::new();
    let max_retries = ctx.retry.as_ref().map_or(0, |r| r.max_retries);
    for (i, item) in plan.iter().enumerate() {
        let global = base_index + i as u64;
        // Deterministic per-request identity: retries and hedges of this
        // request all carry the same key, distinct from every other
        // request in the run.
        let idem_key = format!("lg-{:016x}-{global}", ctx.seed);
        let salt = ctx.seed ^ global.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut retries_used = 0u32;
        let mut hedge_armed = ctx.hedge_after.is_some();
        let started = Instant::now();
        let outcome: Option<HttpResponse> = loop {
            let read_timeout = match (hedge_armed, ctx.hedge_after) {
                (true, Some(h)) => h.min(ctx.io_timeout),
                _ => ctx.io_timeout,
            };
            let mut transient = |tally: &Tally| -> bool {
                if retries_used < max_retries {
                    retries_used += 1;
                    tally.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(policy) = &ctx.retry {
                        thread::sleep(policy.backoff(retries_used - 1, salt));
                    }
                    true
                } else {
                    false
                }
            };
            match attempt(&mut slot, ctx, item, &idem_key, read_timeout) {
                Attempt::Response(http) => {
                    let parsed = http.utf8_body().ok().and_then(|t| parse_response(t).ok());
                    match parsed {
                        Some(wire) => {
                            if transient_response(item, http.status, &wire) && transient(tally) {
                                continue;
                            }
                            break Some(http);
                        }
                        None => {
                            // Unparsable body that still passed framing:
                            // transport-grade garbage.
                            slot = None;
                            if transient(tally) {
                                continue;
                            }
                            break None;
                        }
                    }
                }
                Attempt::Transport { timed_out } => {
                    if timed_out && hedge_armed {
                        // Hedge: the first delivery outlived its budget;
                        // re-issue immediately under the same key (the
                        // idempotency memo absorbs the duplicate).
                        hedge_armed = false;
                        tally.hedges.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    hedge_armed = false;
                    if transient(tally) {
                        continue;
                    }
                    break None;
                }
            }
        };
        tally.latency_log2_us.record(started.elapsed());
        match outcome {
            Some(http) => {
                // Delivery bit-identity: two 200s for the same frame
                // must match byte for byte.
                if http.status == 200 {
                    if let Ok(body) = http.utf8_body() {
                        match first_bodies.get(item.body.as_str()) {
                            Some(first) if first != body => {
                                tally.mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(_) => {}
                            None if first_bodies.len() < FIRST_BODY_CAP => {
                                first_bodies.insert(item.body.as_str(), body.to_string());
                            }
                            None => {}
                        }
                    }
                }
                match http.utf8_body().ok().and_then(|t| parse_response(t).ok()) {
                    Some(wire) => score(item, http.status, &wire, tally),
                    None => {
                        tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            None => {
                // Transport failure that survived the retry budget (or
                // fail-fast mode without one): off-protocol.
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Runs the load: builds the seeded plan, fans it out over
/// `config.connections` closed-loop workers, and returns the merged
/// report.
pub fn run(config: &LoadgenConfig) -> LoadgenReport {
    let plan = build_plan(config);
    let tally = Arc::new(Tally::new());
    let connections = config.connections.max(1);
    let chunk = plan.len().div_ceil(connections).max(1);
    let ctx = Arc::new(ClientCtx {
        addr: config.addr.clone(),
        api_key: config.api_key.clone(),
        limits: HttpLimits::default(),
        injector: config.chaos_net.map(|seed| NetFaultInjector::new(NetFaultPlan::seeded(seed))),
        retry: config.retry.clone(),
        hedge_after: config.hedge_after,
        io_timeout: config.io_timeout,
        seed: config.seed,
    });
    let started = Instant::now();
    thread::scope(|scope| {
        for (shard_idx, shard) in plan.chunks(chunk).enumerate() {
            let tally = Arc::clone(&tally);
            let ctx = Arc::clone(&ctx);
            let base_index = (shard_idx * chunk) as u64;
            scope.spawn(move || worker(&ctx, shard, base_index, &tally));
        }
    });
    let elapsed = started.elapsed();
    let shed_reasons = tally.shed_reasons.lock().unwrap_or_else(|p| p.into_inner()).clone();
    LoadgenReport {
        requests: plan.len() as u64,
        ok: tally.ok.load(Ordering::Relaxed),
        sheds: tally.sheds.load(Ordering::Relaxed),
        rejected_malformed: tally.rejected_malformed.load(Ordering::Relaxed),
        protocol_errors: tally.protocol_errors.load(Ordering::Relaxed),
        mismatches: tally.mismatches.load(Ordering::Relaxed),
        retries: tally.retries.load(Ordering::Relaxed),
        hedges: tally.hedges.load(Ordering::Relaxed),
        elapsed,
        latency_log2_us: tally.latency_log2_us.clone(),
        shed_reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let config = LoadgenConfig { requests: 64, ..LoadgenConfig::default() };
        let p1 = build_plan(&config);
        let p2 = build_plan(&config);
        assert_eq!(p1.len(), 64);
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!(a.body, b.body);
            assert_eq!(a.path, b.path);
        }
    }

    #[test]
    fn plans_mix_all_request_classes() {
        let config = LoadgenConfig { requests: 512, seed: 1, ..LoadgenConfig::default() };
        let plan = build_plan(&config);
        let counts = plan.iter().filter(|p| matches!(p.expect, Expect::Count(_))).count();
        let checks = plan.iter().filter(|p| matches!(p.expect, Expect::Check)).count();
        let bad = plan.iter().filter(|p| matches!(p.expect, Expect::Malformed)).count();
        assert!(counts > 0 && checks > 0 && bad > 0, "{counts}/{checks}/{bad}");
    }

    #[test]
    fn latency_percentiles_come_from_the_histogram() {
        let report = LoadgenReport::default();
        for _ in 0..50 {
            report.latency_log2_us.record_us(8); // [8, 16) µs
            report.latency_log2_us.record_us(1024); // [1024, 2048) µs
        }
        assert_eq!(report.latency_percentile_us(0.5), 16);
        assert_eq!(report.latency_percentile_us(0.99), 2048);
    }

    #[test]
    fn zero_percentile_skips_empty_buckets() {
        let report = LoadgenReport::default();
        for us in [1024, 1500, 2047] {
            report.latency_log2_us.record_us(us);
        }
        assert_eq!(report.latency_percentile_us(0.0), 2048);
    }
}
