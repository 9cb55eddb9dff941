//! The threaded TCP front door.
//!
//! [`Server::start`] binds a listener, spawns one acceptor thread, and
//! serves each connection on its own thread (keep-alive, bounded by
//! [`ServerConfig::max_connections`]). One connection thread reads,
//! parses, evaluates and answers each request: a memo miss is evaluated
//! on that thread through [`EvalEngine::run`], which bounds concurrent
//! evaluations at the engine's worker count; the engine starts no thread
//! of its own. Every `/v1/*` request runs the four traced stages
//! `serve.parse → serve.admit → serve.count → serve.respond` (see
//! [`bagcq_obs::stages`]).
//!
//! ## Endpoints
//!
//! | method+path      | body                   | answers |
//! |------------------|------------------------|---------|
//! | `POST /v1/count` | count frame            | 200 count frame; 400/401/429/5xx typed errors |
//! | `POST /v1/check` | check frame            | 200 check frame; same errors |
//! | `GET /metrics`   | —                      | 200 engine metrics text (with per-tenant counters) |
//! | `GET /healthz`   | —                      | 200 `ok: healthy` / `ok: draining` (live engine state) |
//! | `POST /admin/drain` | —                   | 200 drain report (requires the admin key) |
//!
//! ## Status mapping
//!
//! Every engine outcome maps to exactly one status: counts/verdicts →
//! 200; [`ShedReason::QuotaExceeded`]/[`ShedReason::InFlightLimit`]/
//! [`ShedReason::ConnectionLimit`] → 429;
//! [`ShedReason::Draining`] → 503;
//! [`Outcome::TimedOut`] → 504;
//! [`Outcome::MemoryBudgetExceeded`] → 422 `budget` (the request does not
//! fit the engine's byte budget; 413 already means an oversized body);
//! [`Outcome::Panicked`] → 500. Parse/frame errors → 400 with the caret
//! snippet verbatim; a `semantics`/`containment` combination no backend
//! supports → typed 400 `unsupported_semantics` (rejected at the parse
//! stage, before admission is charged); unknown API keys → 401; unknown
//! paths → 404;
//! oversized frames → 413; a client that starts a request but fails to
//! finish it inside [`ServerConfig::read_deadline`] → 408
//! (`slow_client`) and the connection closes.
//!
//! ## Retry contract
//!
//! Every 408/429/503 carries `Retry-After: 1`; every response carries an
//! `X-Body-Crc` (CRC-32) integrity header, and a request carrying one is
//! verified before parsing (mismatch → typed, retryable 400 `corrupt`).
//! A request carrying an `Idempotency-Key` header has its 200 memoized
//! per `(tenant, key)` when that 200 was computed: a retried delivery
//! then replays the stored frame bit-identically **without** charging
//! admission again. A key is recorded only when its 200 was computed,
//! not when the response memo answered it, so each retry of a delivery
//! that the memo answered is admitted and charged again.
//!
//! `POST /admin/drain` is the SIGTERM-equivalent shutdown: it drains the
//! engine (every in-flight job resolves; a job still waiting for an
//! evaluation slot is shed as [`ShedReason::Draining`]), flips the
//! server into a draining state where `/v1/*` answers 503, and requests
//! process shutdown — the `bagcq serve` run loop then exits cleanly.

use crate::chaos::{Conn, NetFaultInjector, NetFaultPlan};
use crate::http::{
    crc32, read_request, write_response_with_headers, HttpError, HttpLimits, HttpRequest,
};
use crate::wire::{parse_check_request, parse_count_request, WireResponse};
use bagcq_containment::{ContainmentChoice, Semantics, Verdict};
use bagcq_engine::{
    DrainReport, EngineConfig, EvalEngine, Job, Outcome, ShedReason, TenantConnection, TenantGate,
    TenantRefusal, TenantSpec,
};
use bagcq_obs::stages;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration for [`Server::start`]. The threads are not configured:
/// one acceptor, and one per live connection up to `max_connections`.
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Maximum live connections; excess accepts get an immediate 503.
    pub max_connections: usize,
    /// The tenant roster (API keys + quotas).
    pub tenants: Vec<TenantSpec>,
    /// Admin API key for `POST /admin/drain`. `None` disables the
    /// endpoint (404).
    pub admin_key: Option<String>,
    /// Engine configuration: evaluation slots, byte budget, memo store,
    /// fault injection, …
    pub engine: EngineConfig,
    /// HTTP frame limits.
    pub limits: HttpLimits,
    /// Per-job wall-clock deadline applied to every wire job.
    pub job_timeout: Duration,
    /// Socket read timeout for idle keep-alive connections (waiting for
    /// the *first* byte of the next request).
    pub idle_timeout: Duration,
    /// Once a request's first byte has arrived, the whole head + body
    /// must complete within this deadline; a client that trickles past
    /// it is evicted with a typed 408. Distinct from `idle_timeout`:
    /// idling between requests is legitimate, trickling inside one is
    /// slow-loris.
    pub read_deadline: Duration,
    /// Each response must be fully written within this deadline; a peer
    /// that stalls the write path past it just loses the connection (no
    /// server thread ever blocks on one socket longer than this).
    pub write_deadline: Duration,
    /// Engine drain deadline used by `POST /admin/drain`.
    pub drain_timeout: Duration,
    /// Wire-level chaos: every accepted connection is wrapped in a
    /// [`crate::chaos::ChaosTransport`] under this plan. `None` (the
    /// default) serves plain sockets.
    pub chaos: Option<NetFaultPlan>,
    /// `BAGCQ_CHAOS_NET_BREAK=corrupt-pass` self-test hook: deliberately
    /// corrupt one digit of every 200 count frame *before* the
    /// `X-Body-Crc` checksum is computed, so transport-level corruption
    /// detection passes and only the load generator's bit-identity
    /// oracle can catch the wrong answer. CI proves it does.
    pub chaos_break_corrupt_pass: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 256,
            tenants: vec![TenantSpec::new("default", "dev-key")],
            admin_key: Some("admin-key".into()),
            engine: EngineConfig::default(),
            limits: HttpLimits::default(),
            job_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            read_deadline: Duration::from_secs(10),
            write_deadline: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            chaos: None,
            chaos_break_corrupt_pass: false,
        }
    }
}

struct Shared {
    engine: EvalEngine,
    gate: TenantGate,
    admin_key: Option<String>,
    limits: HttpLimits,
    job_timeout: Duration,
    idle_timeout: Duration,
    read_deadline: Duration,
    write_deadline: Duration,
    drain_timeout: Duration,
    stop: AtomicBool,
    draining: AtomicBool,
    live_connections: AtomicUsize,
    max_connections: usize,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    drain_lock: Mutex<Option<DrainReport>>,
    injector: Option<Arc<NetFaultInjector>>,
    break_corrupt_pass: bool,
    /// Whole-response memo for `/v1/*`: count frames, check frames, and
    /// parse/frame 400s are pure functions of the request body (the
    /// engine's answers are bit-identical by construction), so repeated
    /// bodies skip parse + engine entirely. Admission is still charged
    /// per request (idempotent *replays* are the one exception — see
    /// `idem_cache`); sheds/timeouts/auth are never cached. A hit records
    /// no `Idempotency-Key`.
    response_cache: Mutex<HashMap<String, CachedResponse>>,
    /// Idempotent-delivery memo, keyed `(api key, Idempotency-Key)`.
    /// A key is recorded only when its 200 was computed, not when
    /// `response_cache` answered it. A retry carrying a recorded key
    /// replays the stored 200 verbatim *without* charging admission
    /// again, bit-identical to the first delivery; a retry of a delivery
    /// the response memo answered is admitted and charged again.
    idem_cache: Mutex<HashMap<(String, String), CachedResponse>>,
}

/// A memoized rendered response: `(status, status text, body)`.
type CachedResponse = Arc<(u16, &'static str, String)>;

/// Response-cache entry cap; the map is cleared when it fills (hot
/// entries repopulate immediately, cold ones were one-shot anyway).
const RESPONSE_CACHE_CAP: usize = 4096;
/// Bodies past this size are not worth memoizing.
const RESPONSE_CACHE_MAX_BODY: usize = 64 * 1024;
/// Idempotency-cache entry cap, cleared when full (a cleared entry only
/// costs a retried request one extra evaluation — answers stay
/// bit-identical through the response memo).
const IDEM_CACHE_CAP: usize = 65_536;

/// A running server: one acceptor thread, and a thread per live
/// connection. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: EvalEngine::new(config.engine),
            gate: TenantGate::new(config.tenants),
            admin_key: config.admin_key,
            limits: config.limits,
            job_timeout: config.job_timeout,
            idle_timeout: config.idle_timeout,
            read_deadline: config.read_deadline,
            write_deadline: config.write_deadline,
            drain_timeout: config.drain_timeout,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            max_connections: config.max_connections.max(1),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            drain_lock: Mutex::new(None),
            injector: config.chaos.map(NetFaultInjector::new),
            break_corrupt_pass: config.chaos_break_corrupt_pass,
            response_cache: Mutex::new(HashMap::new()),
            idem_cache: Mutex::new(HashMap::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("bagcq-serve-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn acceptor")
        };
        Ok(Server { shared, local_addr, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Engine metrics with the per-tenant counters filled in — the same
    /// snapshot `/metrics` serves.
    pub fn metrics(&self) -> bagcq_engine::MetricsSnapshot {
        let mut snap = self.shared.engine.metrics();
        snap.tenants = self.shared.gate.snapshot();
        snap
    }

    /// Drains the engine in-process (same as `POST /admin/drain`, minus
    /// the HTTP hop). Idempotent: later calls return the first report.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        drain_once(&self.shared, timeout)
    }

    /// `true` once a drain has run (via HTTP or [`Server::drain`]).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Blocks until an admin drain requests shutdown, or the timeout
    /// expires. Returns `true` when shutdown was requested.
    pub fn wait_shutdown_requested(&self, timeout: Duration) -> bool {
        let guard = self.shared.shutdown_requested.lock().unwrap_or_else(|p| p.into_inner());
        let (guard, _) = self
            .shared
            .shutdown_cv
            .wait_timeout_while(guard, timeout, |requested| !*requested)
            .unwrap_or_else(|p| p.into_inner());
        *guard
    }

    /// Stops accepting, wakes the acceptor, and joins it. In-flight
    /// connections finish their current request and close.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.shared.stop.store(true, Ordering::Relaxed);
            // Wake the acceptor blocked in accept() with a no-op connection.
            let _ = TcpStream::connect(self.local_addr);
            let _ = acceptor.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // Chaos wrap happens before anything touches the socket, so even
        // the over-limit 503 below rides the faulted transport.
        let conn = Conn::from_stream(stream, shared.injector.as_deref(), "accept");
        let live = shared.live_connections.fetch_add(1, Ordering::AcqRel) + 1;
        if live > shared.max_connections {
            let mut conn = conn;
            let _ = conn.set_write_timeout(Some(shared.write_deadline));
            let body = WireResponse::error_with_reason(
                "shed",
                "connection_limit",
                "server connection limit reached",
            )
            .render();
            let _ = send_reply(&mut conn, 503, "Service Unavailable", &body, false, &shared);
            shared.live_connections.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        let shared = Arc::clone(&shared);
        let _ = thread::Builder::new().name("bagcq-serve-conn".into()).spawn(move || {
            serve_connection(conn, &shared);
            shared.live_connections.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

/// A read half that enforces an absolute deadline: before every read it
/// checks the clock and narrows the socket timeout to the remaining
/// budget, so neither a stalled peer nor a trickling one can pin this
/// thread past the deadline.
struct DeadlineStream {
    conn: Conn,
    deadline: Option<Instant>,
}

impl DeadlineStream {
    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "read deadline exceeded"));
            }
            let _ = self.conn.set_read_timeout(Some(deadline - now));
        }
        self.conn.read(buf)
    }
}

/// The matching write half: a peer that stops draining its receive
/// window cannot hold the response write hostage past the deadline.
struct DeadlineWriter {
    conn: Conn,
    deadline: Option<Instant>,
}

impl Write for DeadlineWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "write deadline exceeded"));
            }
            let _ = self.conn.set_write_timeout(Some(deadline - now));
        }
        self.conn.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()
    }
}

/// `true` for the error shapes a deadline expiry produces: the explicit
/// `TimedOut` from the wrappers, or the `WouldBlock` a POSIX socket
/// timeout surfaces as.
fn is_timeout(e: &HttpError) -> bool {
    matches!(
        e,
        HttpError::Io(io) if matches!(io.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
    )
}

fn serve_connection(conn: Conn, shared: &Shared) {
    let _ = conn.set_nodelay(true);
    let writer_conn = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut writer = DeadlineWriter { conn: writer_conn, deadline: None };
    let mut reader = BufReader::new(DeadlineStream { conn, deadline: None });
    // One tenant connection slot per socket, acquired lazily by the first
    // authenticated `/v1/*` request and held (RAII) until the socket
    // closes — this is what `TenantQuota::max_connections` bounds.
    let mut tenant_conn: Option<TenantConnection> = None;
    loop {
        // Idle phase: waiting for the first byte of the next request is
        // legitimate keep-alive behaviour, bounded by `idle_timeout`.
        // Timeouts and dead sockets here close silently.
        reader.get_mut().set_deadline(Some(Instant::now() + shared.idle_timeout));
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(_) => return,
        }
        // Request phase: once the first byte is in, the entire head +
        // body must arrive within `read_deadline` — a trickling client
        // is evicted with a typed 408 below.
        reader.get_mut().set_deadline(Some(Instant::now() + shared.read_deadline));
        match read_request(&mut reader, &shared.limits) {
            Ok(None) => return,
            Ok(Some(request)) => {
                writer.deadline = Some(Instant::now() + shared.write_deadline);
                let keep_alive = request.keep_alive && !shared.stop.load(Ordering::Relaxed);
                let reply = route(&request, shared, &mut tenant_conn);
                let keep_alive = keep_alive && !reply.close;
                if send_reply(
                    &mut writer,
                    reply.status,
                    reply.reason,
                    &reply.body,
                    keep_alive,
                    shared,
                )
                .is_err()
                {
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
            Err(e) => {
                writer.deadline = Some(Instant::now() + shared.write_deadline);
                if is_timeout(&e) {
                    // Slow-loris eviction: the request started but did
                    // not finish inside the read deadline.
                    bagcq_obs::instant(stages::SERVE_RESPOND, "slow_client");
                    let body = WireResponse::error_with_reason(
                        "slow_client",
                        "read_deadline",
                        "request did not complete within the per-connection read deadline",
                    )
                    .render();
                    let _ = send_reply(&mut writer, 408, "Request Timeout", &body, false, shared);
                } else if let Some((status, reason)) = e.status() {
                    // Malformed/oversized: answer with the typed error,
                    // then close (the framing is unreliable past this
                    // point). Dead sockets just close.
                    let kind = if status == 413 { "too_large" } else { "bad_request" };
                    let body = WireResponse::error(kind, e.detail()).render();
                    let _ = send_reply(&mut writer, status, reason, &body, false, shared);
                }
                return;
            }
        }
    }
}

/// A routed response plus whether the connection must close regardless
/// of the client's keep-alive preference.
struct Reply {
    status: u16,
    reason: &'static str,
    body: String,
    close: bool,
}

impl Reply {
    fn of((status, reason, body): (u16, &'static str, String)) -> Reply {
        Reply { status, reason, body, close: false }
    }
}

/// Writes one response with the hardening headers attached: an
/// `X-Body-Crc` integrity checksum on every body, and `Retry-After: 1`
/// on every 408/429/503 so well-behaved clients know the shed is
/// retryable and when. The `corrupt-pass` break hook (CI's oracle
/// self-test) flips a count digit *before* the CRC is computed.
fn send_reply(
    writer: &mut impl Write,
    status: u16,
    reason: &'static str,
    body: &str,
    keep_alive: bool,
    shared: &Shared,
) -> io::Result<()> {
    let broken;
    let body = if shared.break_corrupt_pass && status == 200 {
        match corrupt_count_body(body) {
            Some(b) => {
                broken = b;
                broken.as_str()
            }
            None => body,
        }
    } else {
        body
    };
    let mut extra: Vec<(&str, String)> =
        vec![("X-Body-Crc", format!("{:08x}", crc32(body.as_bytes())))];
    if matches!(status, 408 | 429 | 503) {
        extra.push(("Retry-After", "1".to_string()));
    }
    write_response_with_headers(writer, status, reason, body, keep_alive, &extra)
}

/// The planted bug behind `BAGCQ_CHAOS_NET_BREAK=corrupt-pass`: bump the
/// final digit of a 200 count frame's `count:` line (mod 10). The frame
/// stays perfectly well-formed and its CRC is computed *after* the
/// corruption, so every transport-level check passes — only a client
/// that verifies answers end-to-end can notice.
fn corrupt_count_body(body: &str) -> Option<String> {
    let line_start =
        if body.starts_with("count: ") { 0 } else { body.find("\ncount: ").map(|i| i + 1)? };
    let digits_at = line_start + "count: ".len();
    let line_end = body[digits_at..].find('\n').map_or(body.len(), |i| digits_at + i);
    let last = body[digits_at..line_end].rfind(|c: char| c.is_ascii_digit())?;
    let idx = digits_at + last;
    let digit = body.as_bytes()[idx] - b'0';
    let mut out = String::with_capacity(body.len());
    out.push_str(&body[..idx]);
    out.push((b'0' + (digit + 1) % 10) as char);
    out.push_str(&body[idx + 1..]);
    Some(out)
}

fn route(
    request: &HttpRequest,
    shared: &Shared,
    tenant_conn: &mut Option<TenantConnection>,
) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            // Live health: the engine's, with the server-level drain flag
            // overriding (an HTTP drain can outrun the engine's own
            // transition).
            let label = if shared.draining.load(Ordering::Relaxed) {
                "draining"
            } else {
                shared.engine.health().label()
            };
            Reply::of((200, "OK", format!("ok: {label}\n")))
        }
        ("GET", "/metrics") => {
            let mut snap = shared.engine.metrics();
            snap.tenants = shared.gate.snapshot();
            Reply::of((200, "OK", snap.render()))
        }
        ("POST", "/admin/drain") => Reply::of(admin_drain(request, shared)),
        ("POST", "/v1/count") => serve_tenant_job(request, shared, tenant_conn, JobKind::Count),
        ("POST", "/v1/check") => serve_tenant_job(request, shared, tenant_conn, JobKind::Check),
        _ => Reply::of((
            404,
            "Not Found",
            WireResponse::error(
                "not_found",
                format!("no route {} {}", request.method, request.path),
            )
            .render(),
        )),
    }
}

/// `/v1/*` entry: binds the socket to its tenant's connection slot (the
/// per-tenant cap) before running the job. A connection-cap refusal is a
/// typed 429 that also closes the socket — the cap bounds *sockets*, so
/// answering-and-keeping-alive would defeat it.
fn serve_tenant_job(
    request: &HttpRequest,
    shared: &Shared,
    tenant_conn: &mut Option<TenantConnection>,
    kind: JobKind,
) -> Reply {
    if let Some(key) = api_key(request) {
        let held = tenant_conn.as_ref().is_some_and(|tc| tc.api_key() == key);
        if !held {
            match shared.gate.acquire_connection(key) {
                // Replacing releases any slot a previous key held.
                Ok(tc) => *tenant_conn = Some(tc),
                // Unknown keys fall through to the 401 in serve_job.
                Err(TenantRefusal::UnknownKey) => {}
                Err(refusal) => {
                    let reason = refusal.shed_reason().expect("connection refusals are sheds");
                    let mut reply = Reply::of(shed_response(reason));
                    reply.close = true;
                    return reply;
                }
            }
        }
    }
    Reply::of(serve_job(request, shared, kind))
}

fn admin_drain(request: &HttpRequest, shared: &Shared) -> (u16, &'static str, String) {
    let Some(expected) = shared.admin_key.as_deref() else {
        return (404, "Not Found", WireResponse::error("not_found", "admin api disabled").render());
    };
    if api_key(request) != Some(expected) {
        return (401, "Unauthorized", WireResponse::error("auth", "bad admin key").render());
    }
    let report = drain_once(shared, shared.drain_timeout);
    // Request process shutdown: the `bagcq serve` run loop exits once
    // this response is on the wire.
    {
        let mut requested = shared.shutdown_requested.lock().unwrap_or_else(|p| p.into_inner());
        *requested = true;
    }
    shared.shutdown_cv.notify_all();
    let body = format!(
        "ok: drained\ncompleted: {}\nshed: {}\nstragglers: {}\nmet-deadline: {}\n",
        report.completed, report.shed, report.stragglers, report.met_deadline
    );
    (200, "OK", body)
}

fn drain_once(shared: &Shared, timeout: Duration) -> DrainReport {
    let mut slot = shared.drain_lock.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(report) = *slot {
        return report;
    }
    shared.draining.store(true, Ordering::Relaxed);
    let report = shared.engine.drain(timeout);
    *slot = Some(report);
    report
}

enum JobKind {
    Count,
    Check,
}

fn api_key(request: &HttpRequest) -> Option<&str> {
    if let Some(v) = request.header("x-api-key") {
        return Some(v);
    }
    request.header("authorization").and_then(|v| v.strip_prefix("Bearer ")).map(str::trim)
}

fn serve_job(request: &HttpRequest, shared: &Shared, kind: JobKind) -> (u16, &'static str, String) {
    // Integrity first: when the client attached an `X-Body-Crc`, verify
    // it before trusting a single byte. A mismatch is wire corruption —
    // a typed, retryable 400 (the client's retry re-sends intact bytes).
    if let Some(declared) = request.header("x-body-crc") {
        let actual = crc32(&request.body);
        match u32::from_str_radix(declared.trim(), 16) {
            Ok(expected) if expected == actual => {}
            _ => {
                bagcq_obs::instant(stages::SERVE_PARSE, "crc_mismatch");
                return (
                    400,
                    "Bad Request",
                    WireResponse::error(
                        "corrupt",
                        format!(
                            "request body failed its X-Body-Crc check (declared {}, computed {actual:08x})",
                            declared.trim()
                        ),
                    )
                    .render(),
                );
            }
        }
    }
    let Ok(body) = request.utf8_body() else {
        return (
            400,
            "Bad Request",
            WireResponse::error("bad_request", "request body is not valid UTF-8").render(),
        );
    };
    // Exactly-once replay: a retry carrying an `Idempotency-Key` we have
    // already answered for this tenant gets the stored 200 verbatim and
    // is *not* charged admission again — the first delivery paid.
    // Unrecognized keys fall through so auth still answers 401.
    let key = api_key(request).unwrap_or("");
    let idem_key = request.header("idempotency-key").map(str::trim).filter(|k| !k.is_empty());
    if let Some(idem) = idem_key {
        if shared.gate.recognizes(key) {
            let hit = shared
                .idem_cache
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(&(key.to_string(), idem.to_string()))
                .cloned();
            if let Some(entry) = hit {
                shared.gate.record_idempotent_replay(key);
                bagcq_obs::instant(stages::SERVE_RESPOND, "idem_replay");
                return (entry.0, entry.1, entry.2.clone());
            }
        }
    }
    // Response-memo probe: a repeated body can skip parse + engine, but
    // never admission — quotas charge every request. The body alone is a
    // sound key because only 200s are memoized and no body can produce a
    // 200 on both endpoints (each parser rejects the other's sections).
    let cacheable = body.len() <= RESPONSE_CACHE_MAX_BODY;
    let cached = cacheable
        .then(|| shared.response_cache.lock().unwrap_or_else(|p| p.into_inner()).get(body).cloned())
        .flatten();

    // Stage 1: parse (frame + DLGP payloads + schema merge); a memo hit
    // already parsed this exact body once.
    let parsed = if cached.is_some() {
        None
    } else {
        let parse_span = bagcq_obs::span(
            stages::SERVE_PARSE,
            match kind {
                JobKind::Count => "count",
                JobKind::Check => "check",
            },
        );
        let parsed = match kind {
            JobKind::Count => parse_count_request(body).map(Parsed::Count),
            JobKind::Check => parse_check_request(body).map(Parsed::Check),
        };
        drop(parse_span);
        match parsed {
            Ok(p) => Some(p),
            Err(e) => return (400, "Bad Request", e.to_response().render()),
        }
    };

    // Stage 2: admit (tenant auth + quota; engine drain state).
    let admit_span = bagcq_obs::span(stages::SERVE_ADMIT, "tenant");
    let permit = match shared.gate.admit(key) {
        Ok(permit) => permit,
        Err(TenantRefusal::UnknownKey) => {
            drop(admit_span);
            return (
                401,
                "Unauthorized",
                WireResponse::error("auth", "unknown api key (use X-Api-Key or Bearer auth)")
                    .render(),
            );
        }
        Err(refusal) => {
            drop(admit_span);
            let reason = refusal.shed_reason().expect("quota refusals are sheds");
            return shed_response(reason);
        }
    };
    if shared.draining.load(Ordering::Relaxed) {
        drop(admit_span);
        drop(permit);
        return shed_response(ShedReason::Draining);
    }
    drop(admit_span);

    // A memo hit records no Idempotency-Key: a retry of this delivery is
    // admitted and charged again (see `idem_cache`).
    if let Some(entry) = cached {
        bagcq_obs::instant(stages::SERVE_RESPOND, "memo_hit");
        drop(permit);
        return (entry.0, entry.1, entry.2.clone());
    }
    let parsed = parsed.expect("memo miss always parses");

    // Stage 3: count (evaluated on this thread; the permit covers the
    // whole evaluation so max-in-flight really bounds concurrent engine
    // work per tenant).
    let count_span = bagcq_obs::span(stages::SERVE_COUNT, "engine");
    let (outcome, responder) = match parsed {
        Parsed::Count(job) => {
            let bag_total = job.bag.total_multiplicity();
            let support_atoms = job.support.total_atoms() as u64;
            let backend = job.backend;
            let job = Job::count_with(backend, job.query, Arc::clone(&job.support))
                .with_timeout(shared.job_timeout);
            (shared.engine.run(job), Responder::Count { backend, bag_total, support_atoms })
        }
        Parsed::Check(job) => {
            // Echo what the verdict will have come from: the requested
            // semantics and the *resolved* backend (never `auto`).
            let semantics = job.spec.semantics;
            let containment = job.spec.resolved_choice();
            let job = Job::check(job.spec).with_timeout(shared.job_timeout);
            (shared.engine.run(job), Responder::Check { semantics, containment })
        }
    };
    drop(count_span);
    drop(permit);

    // Stage 4: respond (outcome → frame + status).
    let respond_span = bagcq_obs::span(stages::SERVE_RESPOND, "render");
    let result = respond(outcome, responder);
    drop(respond_span);
    // Memoize value answers only (sheds/timeouts/panics must re-run;
    // 400s stay uncached so malformed bodies are never quota-charged on
    // one path and free on the other).
    if result.0 == 200 && cacheable {
        let mut cache = shared.response_cache.lock().unwrap_or_else(|p| p.into_inner());
        if cache.len() >= RESPONSE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(body.to_string(), Arc::new(result.clone()));
    }
    // Record the first delivery for this Idempotency-Key. `or_insert`
    // keeps the *first* stored answer under concurrent duplicate
    // deliveries, so every replay is bit-identical to it.
    if result.0 == 200 {
        if let Some(idem) = idem_key {
            let mut cache = shared.idem_cache.lock().unwrap_or_else(|p| p.into_inner());
            if cache.len() >= IDEM_CACHE_CAP {
                cache.clear();
            }
            cache
                .entry((key.to_string(), idem.to_string()))
                .or_insert_with(|| Arc::new(result.clone()));
        }
    }
    result
}

enum Parsed {
    Count(crate::wire::CountJob),
    Check(crate::wire::CheckJob),
}

enum Responder {
    Count { backend: bagcq_homcount::BackendChoice, bag_total: u64, support_atoms: u64 },
    Check { semantics: Semantics, containment: ContainmentChoice },
}

fn shed_response(reason: ShedReason) -> (u16, &'static str, String) {
    let (status, text) = match reason {
        ShedReason::QuotaExceeded | ShedReason::InFlightLimit | ShedReason::ConnectionLimit => {
            (429, "Too Many Requests")
        }
        ShedReason::Draining => (503, "Service Unavailable"),
    };
    let body =
        WireResponse::error_with_reason("shed", reason.label(), format!("job shed: {reason}"))
            .render();
    (status, text, body)
}

fn verdict_label(v: &Verdict) -> &'static str {
    match v {
        Verdict::Proved(_) => "proved",
        Verdict::Refuted(_) => "refuted",
        Verdict::Unknown { .. } => "unknown",
    }
}

fn respond(outcome: Outcome, responder: Responder) -> (u16, &'static str, String) {
    match outcome {
        Outcome::Count(count) => match responder {
            Responder::Count { backend, bag_total, support_atoms } => (
                200,
                "OK",
                WireResponse::Count { backend, bag_total, support_atoms, count }.render(),
            ),
            Responder::Check { .. } => (
                500,
                "Internal Server Error",
                WireResponse::error("panic", "count outcome for a check job").render(),
            ),
        },
        Outcome::Verdict(v) => match responder {
            Responder::Check { semantics, containment } => (
                200,
                "OK",
                WireResponse::Check {
                    semantics,
                    containment,
                    verdict: verdict_label(&v).into(),
                    detail: v.to_string().replace('\n', " "),
                }
                .render(),
            ),
            Responder::Count { .. } => (
                500,
                "Internal Server Error",
                WireResponse::error("panic", "verdict outcome for a count job").render(),
            ),
        },
        Outcome::Power(_) => (
            500,
            "Internal Server Error",
            WireResponse::error("panic", "unexpected power outcome").render(),
        ),
        Outcome::TimedOut => (
            504,
            "Gateway Timeout",
            WireResponse::error("timeout", "job hit its wall-clock deadline").render(),
        ),
        Outcome::MemoryBudgetExceeded => (
            422,
            "Unprocessable Entity",
            WireResponse::error(
                "budget",
                "memory budget exceeded: the evaluation's big-integer state does not fit \
                 the engine's byte budget",
            )
            .render(),
        ),
        Outcome::Panicked(msg) => {
            (500, "Internal Server Error", WireResponse::error("panic", msg).render())
        }
        Outcome::Shed(reason) => shed_response(reason),
    }
}
