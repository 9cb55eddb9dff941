//! End-to-end tests: a real `Server` on a loopback port driven by the
//! real load generator — the same pairing the CI `serve` job runs, here
//! at a smaller request count. Covers the clean path (zero protocol
//! errors, bit-identical counts), overload (only *typed* sheds), and
//! drain (post-drain requests answer `503 shed/draining`).

use bagcq_serve::http::{read_response, write_request};
use bagcq_serve::{
    parse_response, HttpLimits, LoadgenConfig, Server, ServerConfig, TenantQuota, TenantSpec,
    WireResponse, WorkloadMix,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

/// An effectively-unlimited tenant so the smoke run measures the
/// protocol, not the quota.
fn open_tenant() -> TenantSpec {
    TenantSpec::new("default", "dev-key").with_quota(TenantQuota {
        rate_per_sec: 0,
        burst: 0,
        max_in_flight: 0,
        max_connections: 0,
    })
}

/// Like [`post`] but returns the whole parsed response, headers
/// included — for the `Retry-After` / `X-Body-Crc` contract assertions.
fn post_full(addr: &str, path: &str, key: &str, body: &str) -> bagcq_serve::HttpResponse {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    write_request(&mut writer, "POST", path, key, body.as_bytes()).expect("write");
    read_response(&mut reader, &HttpLimits::default())
        .expect("read")
        .expect("server closed without answering")
}

fn post(addr: &str, path: &str, key: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    write_request(&mut writer, "POST", path, key, body.as_bytes()).expect("write");
    let resp = read_response(&mut reader, &HttpLimits::default())
        .expect("read")
        .expect("server closed without answering");
    (resp.status, resp.utf8_body().expect("utf-8 body").to_string())
}

#[test]
fn loadgen_smoke_is_clean_and_bit_identical() {
    let server = Server::start(ServerConfig { tenants: vec![open_tenant()], ..Default::default() })
        .expect("server starts");
    let report = bagcq_serve::loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        requests: 1500,
        connections: 2,
        seed: 42,
        ..Default::default()
    });
    assert_eq!(report.requests, 1500);
    assert_eq!(report.protocol_errors, 0, "protocol errors:\n{}", report.render());
    assert_eq!(report.mismatches, 0, "server counts diverged from CountRequest oracle");
    assert!(report.clean());
    assert!(report.ok > 0, "no successful requests:\n{}", report.render());
    assert!(
        report.rejected_malformed > 0,
        "mix includes malformed frames; all must 400 with typed errors"
    );
    assert_eq!(report.sheds, 0, "unlimited tenant must never shed:\n{}", report.render());

    // The per-tenant counters saw the traffic.
    let snap = server.metrics();
    let tenant = snap.tenants.iter().find(|t| t.name == "default").expect("tenant counters");
    assert!(tenant.admitted > 0);
    server.shutdown();
}

#[test]
fn overload_sheds_are_typed_and_nothing_else_breaks() {
    // A starvation-tier quota: 5 req/s sustained against a loadgen
    // firing hundreds — most requests must shed, every shed typed.
    let tight = TenantSpec::new("default", "dev-key").with_quota(TenantQuota {
        rate_per_sec: 5,
        burst: 5,
        max_in_flight: 2,
        max_connections: 0,
    });
    let server = Server::start(ServerConfig { tenants: vec![tight], ..Default::default() })
        .expect("server starts");
    let report = bagcq_serve::loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        requests: 600,
        connections: 2,
        seed: 7,
        // No malformed traffic: isolate the quota path.
        mix: WorkloadMix { hot_count_per_1024: 924, check_per_1024: 100, malformed_per_1024: 0 },
        ..Default::default()
    });
    assert_eq!(report.protocol_errors, 0, "overload must degrade via typed sheds, not breakage");
    assert_eq!(report.mismatches, 0);
    assert!(report.sheds > 0, "tight quota produced no sheds:\n{}", report.render());
    assert!(
        report.shed_reasons.keys().all(|r| r == "quota_exceeded" || r == "in_flight_limit"),
        "unexpected shed reasons: {:?}",
        report.shed_reasons
    );
    server.shutdown();
}

/// Each frame that misses the response memo is one engine job and each
/// admitted frame one tenant admission, so tenant `admitted` minus
/// engine `jobs_submitted` counts the memo's hits.
#[test]
fn engine_jobs_count_memo_misses_and_admissions_count_frames() {
    let server = Server::start(ServerConfig { tenants: vec![open_tenant()], ..Default::default() })
        .expect("server starts");
    let addr = server.local_addr().to_string();
    let frame = |i: u64| format!("query: ?- e(X, Y).\ndata: e(a, b)@{}.\n", i + 1);
    let (unique, repeats) = (4, 3);
    for i in (0..unique).chain(std::iter::repeat(0).take(repeats as usize)) {
        let (status, text) = post(&addr, "/v1/count", "dev-key", &frame(i));
        assert_eq!(status, 200, "{text}");
    }
    let snap = server.metrics();
    let tenant = snap.tenants.iter().find(|t| t.name == "default").expect("tenant counters");
    assert_eq!(snap.jobs_submitted, unique, "one engine job per memo miss");
    assert_eq!(snap.jobs_completed, unique);
    assert_eq!(tenant.admitted, unique + repeats, "one admission per frame");
    server.shutdown();
}

/// One tenant's frames that overflow the engine's byte budget answer
/// typed 422 `budget` errors (not 500 `panic`: nothing crashed), and
/// leave another tenant's count that fits at 200: the engine shares no
/// failure state between callers.
#[test]
fn one_tenants_budget_denials_leave_another_tenants_count_at_200() {
    use bagcq_engine::EngineConfig;
    use bagcq_homcount::CountRequest;

    let open = |name: &str, key: &str| {
        TenantSpec::new(name, key).with_quota(TenantQuota {
            rate_per_sec: 0,
            burst: 0,
            max_in_flight: 0,
            max_connections: 0,
        })
    };
    let server = Server::start(ServerConfig {
        tenants: vec![open("a", "a-key"), open("b", "b-key")],
        engine: EngineConfig { memory_budget_bytes: 64, ..Default::default() },
        ..Default::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();

    // k disjoint `e` atoms are k components of 8 bytes each: k ≥ 9
    // overflows 64 bytes in both kernels.
    for k in 9..=13 {
        let atoms: Vec<String> = (0..k).map(|i| format!("e(X{i}, Y{i})")).collect();
        let body = format!("query: ?- {}.\ndata: e(a, b). e(b, c).\n", atoms.join(", "));
        let (status, text) = post(&addr, "/v1/count", "a-key", &body);
        assert_eq!(status, 422, "k={k}: {text}");
        match parse_response(&text).expect("well-formed error frame") {
            WireResponse::Error { kind, detail, .. } => {
                assert_eq!(kind, "budget", "k={k}");
                assert!(detail.contains("memory budget"), "k={k}: {detail}");
            }
            other => panic!("k={k}: expected a typed error, got {other:?}"),
        }
    }
    let metrics = server.metrics();
    assert_eq!((metrics.jobs_over_budget, metrics.jobs_panicked), (5, 0), "{metrics}");
    assert!(metrics.render().contains("panicked=0 over_budget=5"), "{metrics}");

    let body = "query: ?- e(X, Y), e(Y, Z).\ndata: e(a, b). e(b, c). e(c, a). e(a, a).\n";
    let job = bagcq_serve::parse_count_request(body).expect("valid frame");
    let want = CountRequest::new(&job.query, &job.support).backend(job.backend).count();
    let (status, text) = post(&addr, "/v1/count", "b-key", body);
    assert_eq!(status, 200, "tenant a's denials failed tenant b's count: {text}");
    match parse_response(&text).expect("well-formed count frame") {
        WireResponse::Count { count, .. } => assert_eq!(count, want),
        other => panic!("expected a count frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn drain_refuses_new_work_with_typed_sheds() {
    let server = Server::start(ServerConfig { tenants: vec![open_tenant()], ..Default::default() })
        .expect("server starts");
    let addr = server.local_addr().to_string();
    let body = "query: ?- e(X, Y).\ndata: e(a, b)@2.\n";

    let (status, text) = post(&addr, "/v1/count", "dev-key", body);
    assert_eq!(status, 200, "pre-drain count failed: {text}");
    match parse_response(&text).expect("well-formed response") {
        WireResponse::Count { count, .. } => assert_eq!(count.to_string(), "1"),
        other => panic!("expected a count frame, got {other:?}"),
    }

    let report = server.drain(Duration::from_secs(5));
    assert!(server.is_draining());
    assert!(report.met_deadline, "drain missed its deadline: {report:?}");

    let (status, text) = post(&addr, "/v1/count", "dev-key", body);
    assert_eq!(status, 503, "post-drain requests must shed: {text}");
    match parse_response(&text).expect("well-formed shed frame") {
        WireResponse::Error { kind, reason, .. } => {
            assert_eq!(kind, "shed");
            assert_eq!(reason, "draining");
        }
        other => panic!("expected a typed shed, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn admin_drain_over_http_requires_the_admin_key() {
    let server = Server::start(ServerConfig {
        tenants: vec![open_tenant()],
        admin_key: Some("secret".into()),
        ..Default::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();

    let (status, _) = post(&addr, "/admin/drain", "wrong-key", "");
    assert_eq!(status, 401);
    assert!(!server.is_draining(), "unauthorized drain must not drain");

    let (status, text) = post(&addr, "/admin/drain", "secret", "");
    assert_eq!(status, 200, "authorized drain failed: {text}");
    assert!(text.starts_with("ok: drained\n"), "unexpected drain body: {text}");
    assert!(server.is_draining());
    assert!(
        server.wait_shutdown_requested(Duration::from_secs(5)),
        "HTTP drain must request process shutdown"
    );
    server.shutdown();
}

/// Retry contract: every shed (429 quota, 503 draining) carries a
/// `Retry-After` header, and every response body carries a verifiable
/// `X-Body-Crc` checksum.
#[test]
fn sheds_carry_retry_after_and_every_response_carries_a_crc() {
    use bagcq_serve::http::crc32;

    let tight = TenantSpec::new("default", "dev-key").with_quota(TenantQuota {
        rate_per_sec: 1,
        burst: 1,
        max_in_flight: 0,
        max_connections: 0,
    });
    // A second, unlimited tenant so the draining 503 is observable
    // without the quota 429 masking it.
    let open = TenantSpec::new("open", "open-key").with_quota(TenantQuota {
        rate_per_sec: 0,
        burst: 0,
        max_in_flight: 0,
        max_connections: 0,
    });
    let server = Server::start(ServerConfig { tenants: vec![tight, open], ..Default::default() })
        .expect("server starts");
    let addr = server.local_addr().to_string();
    let body = "query: ?- e(X, Y).\ndata: e(a, b).\n";

    // The one burst token: a clean 200, checksummed.
    let ok = post_full(&addr, "/v1/count", "dev-key", body);
    assert_eq!(ok.status, 200, "first request must use the burst token");
    let declared = ok.header("x-body-crc").expect("200s carry X-Body-Crc");
    assert_eq!(
        u32::from_str_radix(declared, 16).expect("hex crc"),
        crc32(&ok.body),
        "declared response checksum must match the body"
    );

    // Quota exhausted: typed 429 with Retry-After.
    let shed = post_full(&addr, "/v1/count", "dev-key", body);
    assert_eq!(shed.status, 429, "second request must shed on quota");
    assert_eq!(shed.header("retry-after"), Some("1"), "429 sheds must carry Retry-After");
    assert!(shed.header("x-body-crc").is_some(), "sheds are checksummed too");

    // Draining: typed 503 with Retry-After.
    server.drain(Duration::from_secs(5));
    let shed = post_full(&addr, "/v1/count", "open-key", body);
    assert_eq!(shed.status, 503, "post-drain requests must shed");
    assert_eq!(shed.header("retry-after"), Some("1"), "503 sheds must carry Retry-After");
    server.shutdown();
}

/// The redesigned check endpoint end-to-end: `semantics`/`containment`
/// headers select a [`bagcq_containment::ContainmentChoice`], union
/// payloads (`;` disjuncts) parse, the response echoes the *resolved*
/// backend, and a combination no backend supports answers the typed 400
/// `unsupported_semantics`.
#[test]
fn check_endpoint_serves_both_semantics_and_types_unsupported_combos() {
    use bagcq_containment::{ContainmentChoice, Semantics};

    let server = Server::start(ServerConfig { tenants: vec![open_tenant()], ..Default::default() })
        .expect("server starts");
    let addr = server.local_addr().to_string();

    let expect_check = |body: &str, sem: Semantics, backend: ContainmentChoice, verdict: &str| {
        let (status, text) = post(&addr, "/v1/check", "dev-key", body);
        assert_eq!(status, 200, "check failed for {body:?}: {text}");
        match parse_response(&text).expect("well-formed check frame") {
            WireResponse::Check { semantics, containment, verdict: v, .. } => {
                assert_eq!(semantics, sem, "{body:?}");
                assert_eq!(containment, backend, "response must echo the resolved backend");
                assert_eq!(v, verdict, "{body:?} → {text}");
            }
            other => panic!("expected a check frame, got {other:?}"),
        }
    };

    // Auto-routed CQ pairs: the response must echo whatever this
    // process's resolution picks — normally the natural backend
    // (bag-search / set-chandra-merlin), but a BAGCQ_CONTAINMENT matrix
    // run may legitimately redirect to a same-fragment UCQ backend, and
    // the server shares our environment.
    let resolved = |body: &str| {
        bagcq_serve::parse_check_request(body).expect("valid frame").spec.resolved_choice()
    };
    // Bag default: the 2-path/3-path pair is refuted by the canonical
    // database of the big side.
    let body = "small: ?- e(X, Y), e(Y, Z).\nbig: ?- e(X, Y), e(Y, Z), e(Z, W).\n";
    expect_check(body, Semantics::Bag, resolved(body), "refuted");
    // Set semantics: the 2-path folds into the 3-path's canonical
    // database, so the reverse pair is proved.
    let body = "semantics: set\nsmall: ?- e(X, Y), e(Y, Z), e(Z, W).\nbig: ?- e(X, Y), e(Y, Z).\n";
    expect_check(body, Semantics::Set, resolved(body), "proved");
    // Union payload with `;` under set semantics (auto → set-ucq):
    // every small disjunct maps into some big disjunct.
    expect_check(
        "semantics: set\nsmall: ?- e(X, Y).\nbig: ?- e(X, Y) ; f(Z).\n",
        Semantics::Set,
        ContainmentChoice::SetUcq,
        "proved",
    );
    // The same union under bag semantics (auto → bag-ucq): the disjunct
    // matching certificate proves it.
    expect_check(
        "small: ?- e(X, Y).\nbig: ?- e(X, Y) ; f(Z).\n",
        Semantics::Bag,
        ContainmentChoice::BagUcq,
        "proved",
    );
    // A pinned backend is honored when it supports the payload.
    expect_check(
        "containment: bag-ucq\nsmall: ?- e(X, Y).\nbig: ?- e(X, Y).\n",
        Semantics::Bag,
        ContainmentChoice::BagUcq,
        "proved",
    );

    // Unsupported combination: typed 400, rejected before admission.
    let (status, text) = post(
        &addr,
        "/v1/check",
        "dev-key",
        "semantics: set\ncontainment: bag-search\nsmall: ?- e(X, Y).\nbig: ?- e(X, Y).\n",
    );
    assert_eq!(status, 400, "unsupported combination must 400: {text}");
    match parse_response(&text).expect("well-formed error frame") {
        WireResponse::Error { kind, reason, .. } => {
            assert_eq!(kind, "unsupported_semantics");
            assert_eq!(reason, "bag-search");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    server.shutdown();
}

/// Satellite differential check: one seeded loadgen corpus, replayed
/// once per registered counting backend, must produce **byte-identical**
/// response frames (modulo the `backend:` echo line) — the wire path may
/// never leak which kernel answered.
#[test]
fn every_backend_answers_the_same_corpus_byte_identically() {
    use bagcq_homcount::BackendChoice;
    use bagcq_serve::plan_requests;

    let server = Server::start(ServerConfig { tenants: vec![open_tenant()], ..Default::default() })
        .expect("server starts");
    let addr = server.local_addr().to_string();

    // The same deterministic corpus the loadgen smoke run replays, at a
    // differential-friendly size; keep only well-formed count frames
    // (those carry the `backend: auto` header we re-pin per kernel).
    let plan = plan_requests(&LoadgenConfig {
        addr: addr.clone(),
        requests: 60,
        seed: 42,
        mix: WorkloadMix::default(),
        ..Default::default()
    });
    let counts: Vec<_> = plan
        .iter()
        .filter(|p| {
            !p.malformed && p.expected_count.is_some() && p.body.starts_with("backend: auto\n")
        })
        .collect();
    assert!(counts.len() >= 8, "corpus too small to be a differential test: {}", counts.len());

    // Response frames with the backend echo normalized out; one vector
    // per registered kernel, compared pairwise afterwards.
    let mut per_backend: Vec<(String, Vec<String>)> = Vec::new();
    for choice in BackendChoice::REGISTERED {
        let label = choice.label();
        let mut frames = Vec::with_capacity(counts.len());
        for planned in &counts {
            let body = planned.body.replacen("backend: auto\n", &format!("backend: {label}\n"), 1);
            let (status, text) = post(&addr, planned.path, "dev-key", &body);
            assert_eq!(status, 200, "[{label}] request failed: {text}");
            match parse_response(&text).expect("well-formed count frame") {
                WireResponse::Count { count, .. } => {
                    assert_eq!(
                        Some(&count),
                        planned.expected_count.as_ref(),
                        "[{label}] wire count diverged from the in-process oracle"
                    );
                }
                other => panic!("[{label}] expected a count frame, got {other:?}"),
            }
            let normalized: String = text
                .lines()
                .filter(|l| !l.starts_with("backend: "))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_ne!(normalized, text, "response did not echo its backend: {text}");
            frames.push(normalized);
        }
        per_backend.push((label.to_string(), frames));
    }
    let (base_label, base) = &per_backend[0];
    for (label, frames) in &per_backend[1..] {
        assert_eq!(
            base, frames,
            "backends {base_label} and {label} answered the same corpus differently"
        );
    }
    server.shutdown();
}
