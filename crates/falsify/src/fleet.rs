//! The always-on falsification fleet.
//!
//! One fleet run is a pure function of its [`FleetConfig`]: it generates
//! the seeded corpus, runs the full oracle battery over every (context,
//! database) pair, and simultaneously streams a representative query of
//! each item through two production paths —
//!
//! * the [`EvalEngine`] worker pool (admission, cache, breakers), whose
//!   answers must equal the synchronous `CountRequest` oracle; and
//! * the `bagcq-serve` HTTP front door, whose wire frames must carry the
//!   same count the in-process parse of the *identical frame text*
//!   produces.
//!
//! Any oracle violation is minimized by the [`crate::shrink()`] pass and,
//! when a fixtures directory is configured, archived as a DLGP
//! regression fixture that `paper_claims.rs` replays forever after.
//! Reports exclude wall-clock so `same seed ⇒ byte-identical render`.

use crate::corpus::{generate_corpus, materialize, Context, CorpusConfig};
use crate::fixture;
use crate::oracle::{oracle_set, Verdict};
use crate::shrink::shrink;
use bagcq_containment::{CheckRequest, ContainmentChoice, Semantics, Verdict as CheckVerdict};
use bagcq_engine::{EvalEngine, Job};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{
    parse_bag_instance_infer, parse_dlgp_query, query_to_dlgp, union_to_dlgp, Query, UnionQuery,
};
use bagcq_serve::http::{crc32, read_response, write_request_with_headers};
use bagcq_serve::{
    parse_response, HttpLimits, NetFaultPlan, Server, ServerConfig, TenantQuota, TenantSpec,
    WireResponse,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet parameters. Everything the run does is derived from these.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Corpus seed.
    pub seed: u64,
    /// Corpus size (items).
    pub budget: u64,
    /// Engine worker threads.
    pub workers: usize,
    /// Also stream frames through a loopback `bagcq-serve` instance.
    pub serve: bool,
    /// Where to archive minimized violation fixtures (`None` = don't).
    pub fixtures_dir: Option<PathBuf>,
    /// Test hook: deliberately break the named oracle
    /// (see [`oracle_set`]).
    pub break_lemma: Option<String>,
    /// Run the serve-parity leg under seeded wire-level chaos: the
    /// loopback server wraps every accepted socket in the
    /// [`bagcq_serve::chaos`] transport with this seed, and the wire
    /// client retries transient faults — parity must still hold
    /// bit-for-bit.
    pub chaos_net: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            budget: 24,
            workers: 2,
            serve: true,
            fixtures_dir: None,
            break_lemma: None,
            chaos_net: None,
        }
    }
}

/// One falsified property, minimized and (optionally) archived.
#[derive(Clone, Debug)]
pub struct FleetViolation {
    /// Corpus item id.
    pub item: u64,
    /// Oracle (or parity check) that fired.
    pub lemma: String,
    /// Context spec *after* shrinking.
    pub context: String,
    /// What failed.
    pub detail: String,
    /// Atoms in the minimized database.
    pub shrunk_atoms: usize,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
    /// Fixture file, when a fixtures directory was configured.
    pub fixture_path: Option<PathBuf>,
}

/// The merged outcome of a fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Seed the corpus was generated from.
    pub seed: u64,
    /// Corpus items generated.
    pub items: u64,
    /// Databases checked.
    pub databases: u64,
    /// Oracle invocations.
    pub oracle_checks: u64,
    /// Checks that passed.
    pub passes: u64,
    /// Checks whose side conditions did not apply.
    pub not_applicable: u64,
    /// Engine-parity jobs submitted.
    pub engine_jobs: u64,
    /// Engine answers diverging from the synchronous oracle.
    pub engine_mismatches: u64,
    /// Wire requests streamed through `bagcq-serve`.
    pub serve_requests: u64,
    /// Frames skipped (not expressible as a DLGP count frame).
    pub serve_skipped: u64,
    /// Wire answers diverging from the in-process oracle.
    pub serve_mismatches: u64,
    /// Set-semantics containment frames streamed through `/v1/check`.
    pub check_requests: u64,
    /// Traffic items whose CQ/UCQ pair was not expressible as a pure
    /// set-semantics check frame (inequalities present).
    pub check_skipped: u64,
    /// Wire check verdicts diverging from the in-process
    /// [`CheckRequest`] verdict.
    pub check_mismatches: u64,
    /// Minimized violations, in corpus order.
    pub violations: Vec<FleetViolation>,
    /// Wall-clock (excluded from [`FleetReport::render`]).
    pub elapsed: Duration,
}

impl FleetReport {
    /// `true` when nothing fired: no lemma violations, no parity
    /// divergence on either production path.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
            && self.engine_mismatches == 0
            && self.serve_mismatches == 0
            && self.check_mismatches == 0
    }

    /// Deterministic report: a pure function of the seed and config, so
    /// two runs can be compared byte for byte. Timing lives in
    /// [`FleetReport::perf_line`] instead.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("falsify fleet report\n");
        out.push_str(&format!("  seed               {}\n", self.seed));
        out.push_str(&format!("  corpus items       {}\n", self.items));
        out.push_str(&format!("  databases checked  {}\n", self.databases));
        out.push_str(&format!("  oracle checks      {}\n", self.oracle_checks));
        out.push_str(&format!("    passes           {}\n", self.passes));
        out.push_str(&format!("    not applicable   {}\n", self.not_applicable));
        out.push_str(&format!(
            "  engine parity      {} jobs, {} mismatches\n",
            self.engine_jobs, self.engine_mismatches
        ));
        if self.serve_requests > 0 || self.serve_skipped > 0 {
            out.push_str(&format!(
                "  serve parity       {} requests, {} skipped, {} mismatches\n",
                self.serve_requests, self.serve_skipped, self.serve_mismatches
            ));
            out.push_str(&format!(
                "  check parity       {} requests, {} skipped, {} mismatches\n",
                self.check_requests, self.check_skipped, self.check_mismatches
            ));
        } else {
            out.push_str("  serve parity       disabled\n");
        }
        out.push_str(&format!("  violations         {}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str(&format!("  violation {} @ item {}\n", v.lemma, v.item));
            out.push_str(&format!("    context  {}\n", v.context));
            out.push_str(&format!("    detail   {}\n", v.detail));
            let archived = match &v.fixture_path {
                Some(p) => format!(" -> {}", p.display()),
                None => String::new(),
            };
            out.push_str(&format!(
                "    shrunk   {} atoms in {} steps{archived}\n",
                v.shrunk_atoms, v.shrink_steps
            ));
        }
        out
    }

    /// One-line timing summary (kept out of [`FleetReport::render`] so
    /// the report stays deterministic).
    pub fn perf_line(&self) -> String {
        let secs = self.elapsed.as_secs_f64();
        let rate = if secs > 0.0 { self.databases as f64 / secs } else { 0.0 };
        format!("elapsed {secs:.2}s, {rate:.1} instances/sec")
    }
}

/// A minimal keep-alive HTTP client for the loopback server, hardened
/// for the chaos leg: bounded socket timeouts (no hangs), an
/// `X-Body-Crc` on every request, CRC verification of every response,
/// and bounded retries of transient faults — transport errors,
/// corrupted frames, 408 slow-client evictions, and corruption-induced
/// 400s (the fleet only posts frames it knows are well-formed).
struct WireClient {
    addr: String,
    key: String,
    limits: HttpLimits,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

/// Retry budget per request; chaos faults are capped per plan, so a
/// handful of re-deliveries always reaches a clean exchange.
const WIRE_CLIENT_ATTEMPTS: usize = 8;
/// Socket timeout — generous against trickle faults, but finite.
const WIRE_CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);

impl WireClient {
    fn new(addr: String, key: String) -> Self {
        WireClient { addr, key, limits: HttpLimits::default(), conn: None }
    }

    fn post(&mut self, path: &str, body: &str) -> Option<(u16, String)> {
        let body_crc = crc32(body.as_bytes());
        for _attempt in 0..WIRE_CLIENT_ATTEMPTS {
            if self.conn.is_none() {
                let stream = TcpStream::connect(&self.addr).ok()?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(WIRE_CLIENT_IO_TIMEOUT)).ok();
                stream.set_write_timeout(Some(WIRE_CLIENT_IO_TIMEOUT)).ok();
                let writer = stream.try_clone().ok()?;
                self.conn = Some((BufReader::new(stream), writer));
            }
            let (reader, writer) = self.conn.as_mut().expect("connection is live");
            let extra = [
                ("X-Body-Crc", format!("{body_crc:08x}")),
                ("Idempotency-Key", format!("falsify-{body_crc:08x}-{len}", len = body.len())),
            ];
            let sent = write_request_with_headers(
                writer,
                "POST",
                path,
                &self.key,
                body.as_bytes(),
                &extra,
            )
            .is_ok();
            let response =
                if sent { read_response(reader, &self.limits).ok().flatten() } else { None };
            match response {
                Some(http) => {
                    // Wire integrity: a response failing its own CRC was
                    // corrupted in transit; drop the connection & retry.
                    if let Some(declared) = http.header("x-body-crc") {
                        if u32::from_str_radix(declared.trim(), 16) != Ok(crc32(&http.body)) {
                            self.conn = None;
                            continue;
                        }
                    }
                    if !http.keep_alive() {
                        self.conn = None;
                    }
                    let text = http.utf8_body().ok()?.to_string();
                    // Transient server-side verdicts: the server evicted
                    // us (408) or caught corrupted request bytes (typed
                    // `corrupt` 400, or any 400 — this client only posts
                    // well-formed frames). Re-deliver.
                    if http.status == 408 || http.status == 400 {
                        self.conn = None;
                        continue;
                    }
                    return Some((http.status, text));
                }
                None => {
                    // Dead, half-closed, or corrupted-beyond-framing
                    // connection: reconnect and retry.
                    self.conn = None;
                }
            }
        }
        None
    }
}

/// A representative query for each item family — what gets streamed
/// through the engine and the wire.
fn representative_query(ctx: &Context) -> Query {
    match ctx {
        Context::Gadget { gadget, .. } => gadget.q_b.clone(),
        Context::Arena { red, .. } => red.pi_s.clone(),
        Context::Traffic { cq, .. } => cq.clone(),
    }
}

/// The count a correct server must answer for a frame, computed by
/// parsing the *frame text itself* back in-process — the same
/// self-consistency contract the load generator uses.
fn frame_oracle(query_src: &str, data_src: &str) -> Option<bagcq_arith::Nat> {
    let (_bag, support, schema) = parse_bag_instance_infer(data_src).ok()?;
    let query = parse_dlgp_query(&schema, query_src).ok()?;
    CountRequest::new(&query, &support).backend(BackendChoice::Auto).run().ok()
}

/// A set-semantics containment frame pinning the `set-ucq` backend.
/// The Sagiv–Yannakakis reduction is deterministic (no random search),
/// so the wire verdict must match the in-process verdict bit-for-bit
/// even when chaos forces re-delivery.
fn check_frame_body(small: &UnionQuery, big: &UnionQuery) -> String {
    let mut body = String::from("semantics: set\ncontainment: set-ucq\nsmall:\n");
    for line in union_to_dlgp(small).lines() {
        body.push_str("  ");
        body.push_str(line);
        body.push('\n');
    }
    body.push_str("big:\n");
    for line in union_to_dlgp(big).lines() {
        body.push_str("  ");
        body.push_str(line);
        body.push('\n');
    }
    body
}

fn count_frame_body(query_src: &str, data_src: &str) -> String {
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

/// Runs the fleet.
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    let started = Instant::now();
    let corpus = generate_corpus(&CorpusConfig { seed: config.seed, budget: config.budget });
    let oracles = oracle_set(config.break_lemma.as_deref());
    let engine = EvalEngine::with_workers(config.workers.max(1));

    let server = if config.serve {
        Server::start(ServerConfig {
            tenants: vec![TenantSpec::new("falsify", "falsify-key").with_quota(TenantQuota {
                rate_per_sec: 0,
                burst: 0,
                max_in_flight: 0,
                max_connections: 0,
            })],
            chaos: config.chaos_net.map(NetFaultPlan::seeded),
            ..Default::default()
        })
        .ok()
    } else {
        None
    };
    let mut wire = server
        .as_ref()
        .map(|s| WireClient::new(s.local_addr().to_string(), "falsify-key".to_string()));

    let mut report =
        FleetReport { seed: config.seed, items: corpus.len() as u64, ..FleetReport::default() };

    for item in &corpus {
        let (ctx, dbs) = materialize(item);
        for (db_idx, db) in dbs.iter().enumerate() {
            report.databases += 1;

            // The oracle battery.
            for oracle in &oracles {
                report.oracle_checks += 1;
                match oracle.check(&ctx, db) {
                    Verdict::Pass => report.passes += 1,
                    Verdict::NotApplicable => report.not_applicable += 1,
                    Verdict::Violation(v) => {
                        let shrunk = shrink(oracle.as_ref(), &ctx, db);
                        let fixture_path = config.fixtures_dir.as_ref().map(|dir| {
                            let name = oracle.name().replace('/', "-");
                            let path = dir.join(format!("{name}-{:04}-{db_idx}.dlgp", item.id));
                            let text = fixture::render(oracle.name(), &shrunk.context, &shrunk.db);
                            std::fs::create_dir_all(dir).ok();
                            std::fs::write(&path, text).ok();
                            path
                        });
                        report.violations.push(FleetViolation {
                            item: item.id,
                            lemma: v.lemma,
                            context: shrunk.context.spec(),
                            detail: v.detail,
                            shrunk_atoms: shrunk.db.total_atoms(),
                            shrink_steps: shrunk.steps,
                            fixture_path,
                        });
                    }
                }
            }

            // Engine parity: the async pool must agree with the
            // synchronous oracle on the representative query.
            let query = representative_query(&ctx);
            let expected = CountRequest::new(&query, db).backend(BackendChoice::Auto).count();
            let handle = engine.submit(Job::count(query.clone(), Arc::new(db.clone())));
            report.engine_jobs += 1;
            match handle.wait().as_count() {
                Some(n) if *n == expected => {}
                outcome => {
                    report.engine_mismatches += 1;
                    report.violations.push(FleetViolation {
                        item: item.id,
                        lemma: "engine-parity".into(),
                        context: ctx.spec(),
                        detail: format!("engine answered {outcome:?}, oracle says {expected}"),
                        shrunk_atoms: db.total_atoms(),
                        shrink_steps: 0,
                        fixture_path: None,
                    });
                }
            }

            // Wire parity: the identical frame text, parsed in-process,
            // must agree with what the server answers.
            if let Some(client) = wire.as_mut() {
                let query_src = query_to_dlgp(&query);
                let data_src = fixture::structure_to_dlgp(db);
                match frame_oracle(&query_src, &data_src) {
                    None => report.serve_skipped += 1,
                    Some(expected) => {
                        report.serve_requests += 1;
                        let body = count_frame_body(&query_src, &data_src);
                        let answer = client.post("/v1/count", &body).and_then(|(status, text)| {
                            match parse_response(&text).ok()? {
                                WireResponse::Count { count, .. } if status == 200 => Some(count),
                                _ => None,
                            }
                        });
                        if answer.as_ref() != Some(&expected) {
                            report.serve_mismatches += 1;
                            report.violations.push(FleetViolation {
                                item: item.id,
                                lemma: "serve-parity".into(),
                                context: ctx.spec(),
                                detail: format!(
                                    "wire answered {answer:?}, in-process frame oracle says {expected}"
                                ),
                                shrunk_atoms: db.total_atoms(),
                                shrink_steps: 0,
                                fixture_path: None,
                            });
                        }
                    }
                }
            }

            // Check parity: each traffic item's pure CQ ⊑set UCQ pair
            // is posted as a `/v1/check` frame; the wire verdict must
            // equal the in-process `CheckRequest` verdict. Checks are
            // database-free, so one frame per item suffices.
            if db_idx == 0 {
                if let (Some(client), Context::Traffic { cq, union, .. }) = (wire.as_mut(), &ctx) {
                    if !cq.is_pure() || !union.is_pure() {
                        report.check_skipped += 1;
                    } else {
                        report.check_requests += 1;
                        let single = UnionQuery::from_query(cq.clone());
                        let expected = CheckRequest::union(single.clone(), union.clone())
                            .semantics(Semantics::Set)
                            .containment(ContainmentChoice::SetUcq)
                            .check()
                            .map(|v| match v {
                                CheckVerdict::Proved(_) => "proved",
                                CheckVerdict::Refuted(_) => "refuted",
                                CheckVerdict::Unknown { .. } => "unknown",
                            });
                        let body = check_frame_body(&single, union);
                        let answer = client.post("/v1/check", &body).and_then(|(status, text)| {
                            match parse_response(&text).ok()? {
                                WireResponse::Check { verdict, .. } if status == 200 => {
                                    Some(verdict)
                                }
                                _ => None,
                            }
                        });
                        if answer.as_deref() != expected.as_deref().ok() {
                            report.check_mismatches += 1;
                            report.violations.push(FleetViolation {
                                item: item.id,
                                lemma: "check-parity".into(),
                                context: ctx.spec(),
                                detail: format!(
                                    "wire check verdict {answer:?}, in-process says {expected:?}"
                                ),
                                shrunk_atoms: db.total_atoms(),
                                shrink_steps: 0,
                                fixture_path: None,
                            });
                        }
                    }
                }
            }
        }
    }

    if let Some(s) = server {
        drop(wire);
        s.shutdown();
    }
    report.elapsed = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_run_is_clean_and_deterministic() {
        let config = FleetConfig { seed: 5, budget: 6, serve: false, ..FleetConfig::default() };
        let a = run_fleet(&config);
        assert!(a.clean(), "healthy fleet found violations:\n{}", a.render());
        assert_eq!(a.items, 6);
        assert!(a.oracle_checks > 0 && a.passes > 0);
        assert_eq!(a.engine_jobs, a.databases);
        let b = run_fleet(&config);
        assert_eq!(a.render(), b.render(), "same seed must render identically");
    }

    #[test]
    fn fleet_streams_the_corpus_through_the_wire() {
        let config = FleetConfig { seed: 9, budget: 3, ..FleetConfig::default() };
        let report = run_fleet(&config);
        assert!(report.clean(), "{}", report.render());
        assert!(report.serve_requests > 0, "no frames reached the server:\n{}", report.render());
        assert_eq!(report.serve_mismatches, 0);
    }

    /// The check-parity leg: pure traffic CQ/UCQ pairs must get the same
    /// set-semantics verdict through `/v1/check` as in-process.
    #[test]
    fn fleet_streams_set_containment_through_the_wire() {
        let config = FleetConfig { seed: 11, budget: 12, ..FleetConfig::default() };
        let report = run_fleet(&config);
        assert!(report.clean(), "{}", report.render());
        assert!(
            report.check_requests >= 2,
            "no pure pairs reached /v1/check:\n{}",
            report.render()
        );
        assert_eq!(report.check_mismatches, 0);
    }

    /// The wire-parity leg under seeded network chaos: every accepted
    /// connection may draw a fault, the client retries transient
    /// failures, and parity must still hold bit-for-bit.
    #[test]
    fn fleet_wire_parity_survives_network_chaos() {
        let config =
            FleetConfig { seed: 9, budget: 3, chaos_net: Some(7), ..FleetConfig::default() };
        let report = run_fleet(&config);
        assert!(report.clean(), "chaos broke wire parity:\n{}", report.render());
        assert!(report.serve_requests > 0, "no frames reached the server:\n{}", report.render());
        assert_eq!(report.serve_mismatches, 0);
    }
}
