//! `bagcq` — command-line interface to the bag-semantics containment
//! toolkit.
//!
//! ```text
//! bagcq count   -q "E(x,y), E(y,z)"  -d db.txt        # |Hom(ψ, D)|
//! bagcq check   -s "E(x,y)" -b "E(u,v), E(v,w)"       # containment verdict
//! bagcq check   -s "E(x,y)" -b "E(u,v); F(w)" --semantics set   # UCQ, set semantics
//! bagcq reduce  pell                                   # run the paper's reduction
//! bagcq instances                                      # list the Hilbert corpus
//! ```
//!
//! Queries use the `E(x,y), x != y, R('a', z)` syntax; databases use the
//! `vertices:/consts:/Rel:` format (see `bagcq_structure::parse_structure`).
//! `-q/-s/-b/-d` take inline text, or `@path` to read a file.

use bagcq_core::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("count") => cmd_count(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("reduce") => cmd_reduce(&args[1..]),
        Some("instances") => cmd_instances(),
        Some("hde") => cmd_hde(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("sweep-coord") => cmd_sweep_coord(&args[1..]),
        // Hidden protocol mode: what `sweep-coord` spawns as children.
        Some("sweep-worker") => bagcq_coord::worker_main(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("falsify") => match cmd_falsify(&args[1..]) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `bagcq help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "bagcq — bag-semantics conjunctive query containment toolkit

USAGE:
  bagcq count -q <query> -d <database>     count |Hom(ψ, D)|
              [--backend <name>]           auto (default), naive, treewidth
  bagcq check -s <small> -b <big>          check ϱ_s(D) ≤ ϱ_b(D) for all D
              [--semantics set|bag]        bag (default) or set semantics
              [--containment <name>]       auto (default), bag-search,
                                           set-chandra-merlin, set-ucq,
                                           bag-ucq; `;` in -s/-b separates
                                           union disjuncts
  bagcq reduce <instance>                  run the PODS'24 reduction on a
                                           Hilbert-10 corpus instance
  bagcq instances                          list the corpus
  bagcq hde -f <query> -g <query>          estimate the homomorphism
                                           domination exponent hde(F, G)
  bagcq serve [--addr HOST:PORT]           run the network front door
              [--api-key K] [--admin-key K]  (POST /v1/count, /v1/check,
              [--rate N] [--burst N]          GET /metrics; drain with
              [--max-in-flight N]             POST /admin/drain)
  bagcq sweep-coord --instance <label>     kill-tolerant sharded Theorem-1
              --store DIR [--bound B]        sweep over worker processes;
              [--workers N] [--report PATH]  resumes from the persistent
              [--lease-timeout-ms MS]        store, writes a bit-identical
              [--point-delay-ms MS]          frontier-ordered report
              [--chaos-kill-worker SLOT:K]   (chaos: worker SLOT kill -9s
              [--print-computed]              itself on lease K+1)
  bagcq store verify|stats|compact         inspect or maintain a memo
              --store DIR [--strict]         store directory (verify
                                             --strict fails on corruption)
  bagcq falsify [--seed S] [--budget N]    run the lemma-falsification
              [--workers W] [--no-serve]     fleet: seeded adversarial
              [--fixtures-dir DIR]           corpus vs. every quantitative
                                             lemma oracle, plus engine and
                                             wire parity; violations are
                                             shrunk, archived under DIR,
                                             and exit with status 2

  <label>     a Hilbert corpus name (see `bagcq instances`) or
              toy:C:s1,s2:b1,b2 (the synthetic Lemma-11 instance)

ARGS:
  <query>     inline text like \"E(x,y), x != y\" or @file.txt
  <database>  inline text in the vertices:/consts:/Rel: format or @file.txt
"
    );
}

/// Resolves an argument value: inline text, or `@path` file contents.
fn load(value: &str) -> Result<String, String> {
    if let Some(path) = value.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    } else {
        Ok(value.to_string())
    }
}

/// Pulls `-flag value` pairs out of an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Merges the inferred schemas of several query/structure sources into
/// one, so the CLI user never writes a schema by hand. The first arity
/// declared for a relation wins; the caller's re-parse against the
/// merged schema then reports a conflicting source as a parse error.
fn merged_schema(query_srcs: &[&str], db_srcs: &[&str]) -> Result<Arc<Schema>, String> {
    let mut sb = Schema::builder();
    for src in query_srcs {
        let (_, s) = parse_query_infer(src).map_err(|e| e.to_string())?;
        for r in s.relations() {
            let _ = sb.try_relation(&s.relation(r).name, s.arity(r));
        }
        for c in s.constants() {
            sb.constant(s.constant_name(c));
        }
    }
    for src in db_srcs {
        let (_, s) = parse_structure_infer(src).map_err(|e| e.to_string())?;
        for r in s.relations() {
            let _ = sb.try_relation(&s.relation(r).name, s.arity(r));
        }
        for c in s.constants() {
            sb.constant(s.constant_name(c));
        }
    }
    Ok(sb.build())
}

fn cmd_count(args: &[String]) -> Result<(), String> {
    let q_src = load(flag_value(args, "-q").ok_or("count needs -q <query>")?)?;
    let d_src = load(flag_value(args, "-d").ok_or("count needs -d <database>")?)?;
    let backend: BackendChoice = match flag_value(args, "--backend") {
        Some(name) => name.parse()?,
        None => BackendChoice::Auto,
    };
    let schema = merged_schema(&[&q_src], &[&d_src])?;
    let q = parse_query(&schema, &q_src).map_err(|e| e.to_string())?;
    let d = parse_structure(&schema, &d_src).map_err(|e| e.to_string())?;
    let request = CountRequest::new(&q, &d).backend(backend);
    let resolved = request.resolved_backend();
    let n = request.count();
    debug_assert_eq!(n, CountRequest::new(&q, &d).backend(BackendChoice::Naive).count());
    println!("ψ   = {q}");
    println!("backend = {resolved}");
    println!("|D| = {} vertices, {} atoms", d.vertex_count(), {
        let mut n = 0;
        for r in schema.relations() {
            n += d.atom_count(r);
        }
        n
    });
    println!("ψ(D) = {n}");
    Ok(())
}

/// Splits a classic-syntax query source into `;`-separated disjunct
/// sources (the classic atom syntax never contains `;`, so a bare split
/// is exact). A lone source is the one-disjunct union.
fn split_disjuncts(src: &str) -> Result<Vec<&str>, String> {
    let parts: Vec<&str> = src.split(';').map(str::trim).collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err("empty disjunct in union (stray `;`?)".into());
    }
    Ok(parts)
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let s_src = load(flag_value(args, "-s").ok_or("check needs -s <small query>")?)?;
    let b_src = load(flag_value(args, "-b").ok_or("check needs -b <big query>")?)?;
    let semantics: Semantics = match flag_value(args, "--semantics") {
        Some(name) => name.parse()?,
        None => Semantics::Bag,
    };
    let choice: ContainmentChoice = match flag_value(args, "--containment") {
        Some(name) => name.parse()?,
        None => ContainmentChoice::Auto,
    };
    let s_parts = split_disjuncts(&s_src)?;
    let b_parts = split_disjuncts(&b_src)?;
    let all: Vec<&str> = s_parts.iter().chain(&b_parts).copied().collect();
    let schema = merged_schema(&all, &[])?;
    let parse_union = |parts: &[&str]| -> Result<UnionQuery, String> {
        let mut disjuncts = Vec::with_capacity(parts.len());
        for part in parts {
            disjuncts.push(parse_query(&schema, part).map_err(|e| e.to_string())?);
        }
        Ok(UnionQuery::new(disjuncts))
    };
    let u_s = parse_union(&s_parts)?;
    let u_b = parse_union(&b_parts)?;
    println!("ϱ_s = {u_s}");
    println!("ϱ_b = {u_b}");
    let request = CheckRequest::union(u_s, u_b).semantics(semantics).containment(choice);
    println!("semantics = {semantics}");
    println!("backend = {}", request.resolved_choice());
    let verdict = request.check().map_err(|u| u.to_string())?;
    println!("{verdict}");
    if let Verdict::Refuted(ce) = &verdict {
        println!();
        println!("counterexample database:");
        print!("{}", structure_to_text(&ce.database));
    }
    Ok(())
}

fn cmd_reduce(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("reduce needs an instance name (see `bagcq instances`)")?;
    let inst = hilbert_instance(name).ok_or_else(|| format!("no corpus instance named {name}"))?;
    println!("instance : {inst}");
    let chain = reduce(&inst.poly);
    println!(
        "Lemma 11 : c = {}, degree d = {}, {} monomials, {} variables",
        chain.instance.c,
        chain.instance.degree,
        chain.instance.monomials.len(),
        chain.instance.n_vars
    );
    let red = Theorem1Reduction::new(chain.instance.clone());
    println!("schema   : {}", red.schema);
    println!(
        "queries  : π_s {} atoms / π_b {} atoms; ζ_b exponent k = {}; ℂ has {} bits",
        red.pi_s.stats().atoms,
        red.pi_b.stats().atoms,
        red.k,
        red.big_c.bits()
    );
    let opts = EvalOptions::default();
    match red.find_phi_witness(4, &opts) {
        Some(w) => {
            println!(
                "verdict  : ℂ·φ_s(D) > φ_b(D) WITNESSED at Ξ = {:?} ({} vertices)",
                w.valuation,
                w.database.vertex_count()
            );
            println!("           (the polynomial has a root; the containment fails)");
        }
        None => {
            println!("verdict  : no violating valuation with entries ≤ 4;");
            println!("           sweeping databases…");
            let checked = red.sweep_databases(1, &opts)?;
            println!("           {checked} databases checked, all satisfy ℂ·φ_s ≤ φ_b");
        }
    }
    Ok(())
}

fn cmd_hde(args: &[String]) -> Result<(), String> {
    let f_src = load(flag_value(args, "-f").ok_or("hde needs -f <query F>")?)?;
    let g_src = load(flag_value(args, "-g").ok_or("hde needs -g <query G>")?)?;
    let schema = merged_schema(&[&f_src, &g_src], &[])?;
    let f = parse_query(&schema, &f_src).map_err(|e| e.to_string())?;
    let g = parse_query(&schema, &g_src).map_err(|e| e.to_string())?;
    let gen = StructureGen {
        extra_vertices: 5,
        density: 0.45,
        max_tuples_per_relation: 200,
        diagonal_density: 0.5,
    };
    println!("F = {f}");
    println!("G = {g}");
    match bagcq_core::containment::estimate_domination_exponent(&f, &g, &gen, 60, 7) {
        Some(est) => {
            println!("hde(F, G) ≤ {est:.4}   (sampling upper bound, 60 databases)");
            if est >= 1.0 {
                println!("consistent with G ⊑bag F (hde ≥ 1); not a proof");
            } else {
                println!("refutes G ⊑bag F: some database has hom(F,D) < hom(G,D)");
            }
        }
        None => println!("no informative sample (hom(G, D) ≤ 1 everywhere tried)"),
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use bagcq_serve::{NetFaultPlan, Server, ServerConfig, TenantQuota, TenantSpec};
    let parse_u64 = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} needs a number, got {v:?}")),
        }
    };
    let quota = TenantQuota {
        rate_per_sec: parse_u64("--rate", TenantQuota::default().rate_per_sec)?,
        burst: parse_u64("--burst", TenantQuota::default().burst)?,
        max_in_flight: parse_u64("--max-in-flight", TenantQuota::default().max_in_flight)?,
        max_connections: parse_u64("--max-tenant-connections", 0)?,
    };
    let chaos = flag_value(args, "--chaos-net")
        .map(|v| v.parse::<u64>().map_err(|_| format!("--chaos-net needs a seed, got {v:?}")))
        .transpose()?
        .map(NetFaultPlan::seeded);
    // Planted-bug self-test (CI's oracle leg): corrupt every 200 count
    // frame in a way transport checksums cannot see, and prove the
    // loadgen's end-to-end oracle still catches it.
    let break_corrupt_pass = match std::env::var("BAGCQ_CHAOS_NET_BREAK").ok().as_deref() {
        None | Some("") => false,
        Some("corrupt-pass") => true,
        Some(other) => return Err(format!("unknown BAGCQ_CHAOS_NET_BREAK mode {other:?}")),
    };
    let api_key = flag_value(args, "--api-key").unwrap_or("dev-key").to_string();
    let admin_key = flag_value(args, "--admin-key").unwrap_or("admin-key").to_string();
    let chaos_banner = chaos.as_ref().map(|p| format!("chaos-net seed {}", p.seed));
    let config = ServerConfig {
        addr: flag_value(args, "--addr").unwrap_or("127.0.0.1:4017").to_string(),
        tenants: vec![TenantSpec::new("default", &api_key).with_quota(quota)],
        admin_key: Some(admin_key.clone()),
        chaos,
        chaos_break_corrupt_pass: break_corrupt_pass,
        ..ServerConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("binding the server: {e}"))?;
    let addr = server.local_addr();
    println!("bagcq-serve listening on {addr}");
    if let Some(banner) = chaos_banner {
        println!("  {banner}: every accepted connection rides the seeded fault transport");
    }
    if break_corrupt_pass {
        println!("  BREAK MODE corrupt-pass: 200 count frames are deliberately corrupted");
    }
    println!("  try: curl -s http://{addr}/healthz");
    println!("  try: printf 'query:\\n  ?- e(X, Y).\\ndata:\\n  e(a, b)@2.\\n  e(b, c).\\n' | \\");
    println!("       curl -s -H 'X-Api-Key: {api_key}' --data-binary @- http://{addr}/v1/count");
    println!("  stop: curl -s -X POST -H 'X-Api-Key: {admin_key}' http://{addr}/admin/drain");
    // Block until an admin drain asks for shutdown.
    while !server.wait_shutdown_requested(std::time::Duration::from_secs(1)) {}
    println!("drain requested; shutting down");
    print!("{}", server.metrics().render());
    server.shutdown();
    Ok(())
}

fn cmd_sweep_coord(args: &[String]) -> Result<(), String> {
    use bagcq_coord::{run_coordinator, CoordConfig, InstanceSpec, SweepSpec};
    let instance = InstanceSpec::parse(
        flag_value(args, "--instance").ok_or("sweep-coord needs --instance <label>")?,
    )?;
    let store_dir = flag_value(args, "--store").ok_or("sweep-coord needs --store <dir>")?;
    let parse_u64 = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} needs a number, got {v:?}")),
        }
    };
    let spec = SweepSpec { instance, bound: parse_u64("--bound", 1)? };
    let mut config = CoordConfig::new(spec, store_dir);
    config.workers = parse_u64("--workers", 1)? as usize;
    config.lease_timeout =
        std::time::Duration::from_millis(parse_u64("--lease-timeout-ms", 30_000)?);
    config.point_delay_ms = parse_u64("--point-delay-ms", 0)?;
    if let Some(path) = flag_value(args, "--report") {
        config.report_path = path.into();
    }
    if let Some(spec) = flag_value(args, "--chaos-kill-worker") {
        let (slot, after) = spec
            .split_once(':')
            .and_then(|(s, k)| Some((s.parse().ok()?, k.parse().ok()?)))
            .ok_or_else(|| format!("--chaos-kill-worker needs SLOT:K, got {spec:?}"))?;
        config.chaos_kill_worker = Some((slot, after));
    }
    let report = run_coordinator(&config)?;
    if args.iter().any(|a| a == "--print-computed") {
        for key in &report.computed_keys {
            println!("computed {key}");
        }
    }
    println!("{report}");
    Ok(())
}

fn cmd_store(args: &[String]) -> Result<(), String> {
    use bagcq_core::engine::MemoStore;
    let action = args.first().map(String::as_str);
    let dir = flag_value(args, "--store").ok_or("store needs --store <dir>")?;
    match action {
        Some("verify") => {
            let report = MemoStore::verify(dir).map_err(|e| e.to_string())?;
            println!("store {dir}: {report}");
            if args.iter().any(|a| a == "--strict") && !report.is_clean() {
                return Err("store verification found corruption (--strict)".to_string());
            }
            Ok(())
        }
        Some("stats") => {
            let store = MemoStore::open(dir).map_err(|e| e.to_string())?;
            let stats = store.stats();
            println!("store {dir}:");
            println!("  records={} segments={}", stats.records, stats.segments);
            println!("  recovery: {}", store.recovery());
            Ok(())
        }
        Some("compact") => {
            let store = MemoStore::open(dir).map_err(|e| e.to_string())?;
            let before = store.recovery();
            store.compact().map_err(|e| e.to_string())?;
            println!(
                "store {dir}: compacted {} live records into 1 segment (was {} segments)",
                store.len(),
                before.segments
            );
            Ok(())
        }
        _ => Err("store needs a subcommand: verify | stats | compact".to_string()),
    }
}

fn cmd_falsify(args: &[String]) -> Result<ExitCode, String> {
    use bagcq_falsify::{run_fleet, FleetConfig};
    let parse_u64 = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} needs a number, got {v:?}")),
        }
    };
    let defaults = FleetConfig::default();
    let config = FleetConfig {
        seed: parse_u64("--seed", defaults.seed)?,
        budget: parse_u64("--budget", defaults.budget)?,
        workers: parse_u64("--workers", defaults.workers as u64)? as usize,
        serve: !args.iter().any(|a| a == "--no-serve"),
        fixtures_dir: flag_value(args, "--fixtures-dir").map(Into::into),
        // Hidden hook: deliberately break a named oracle so CI can prove
        // the fleet catches (and shrinks) a planted bug.
        break_lemma: std::env::var("BAGCQ_FALSIFY_BREAK").ok().filter(|s| !s.is_empty()),
        chaos_net: flag_value(args, "--chaos-net")
            .map(|v| v.parse::<u64>().map_err(|_| format!("--chaos-net needs a seed, got {v:?}")))
            .transpose()?,
    };
    if let Some(lemma) = &config.break_lemma {
        println!("note: BAGCQ_FALSIFY_BREAK={lemma} — the {lemma} oracle is deliberately wrong");
    }
    if let Some(seed) = config.chaos_net {
        println!(
            "note: --chaos-net {seed} — the serve-parity leg rides the seeded fault transport"
        );
    }
    let report = run_fleet(&config);
    print!("{}", report.render());
    println!("  {}", report.perf_line());
    if report.clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(2))
    }
}

fn cmd_instances() -> Result<(), String> {
    println!("Hilbert-10 corpus:");
    for inst in hilbert_library() {
        let status = if let Some(root) = &inst.known_root {
            format!("root {root:?}")
        } else if inst.provably_rootless {
            "provably rootless".into()
        } else {
            "status unknown".into()
        };
        println!("  {:<24} {}  [{}]", inst.name, inst.poly, status);
    }
    Ok(())
}
