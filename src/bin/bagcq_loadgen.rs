//! `bagcq_loadgen` — seeded closed-loop load generator for `bagcq serve`.
//!
//! ```text
//! bagcq serve --addr 127.0.0.1:4017 &
//! bagcq_loadgen --addr 127.0.0.1:4017 --seed 42 --requests 20000 --connections 8
//! ```
//!
//! Replays a deterministic mixed workload (hot/cold counts, containment
//! checks, malformed frames) and verifies every count against the
//! in-process oracle. Exits nonzero on any protocol error or count
//! mismatch; `--require-sheds` additionally demands that the run saw
//! typed 429/503 sheds (overload CI), and `--min-req-per-sec N` enforces
//! a throughput floor.
//!
//! Chaos mode: `--retries N` turns on the self-healing client (bounded
//! retries of transient faults under deterministic backoff, one
//! `Idempotency-Key` per request so a re-delivery of a computed 200 is
//! not charged again), `--hedge-after-ms N` speculatively re-issues slow first deliveries,
//! and `--chaos-net SEED` injects seeded faults into the *client's* own
//! sockets. Run against `bagcq serve --chaos-net SEED` for the full
//! both-sides chaos rehearsal — the run must still be clean.

use bagcq_serve::loadgen::{run, LoadgenConfig, WorkloadMix};
use bagcq_serve::RetryPolicy;
use std::process::ExitCode;
use std::time::Duration;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag} needs a number, got {v:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "bagcq_loadgen — replay a seeded workload against bagcq serve

USAGE:
  bagcq_loadgen [--addr HOST:PORT] [--api-key K] [--seed N]
                [--requests N] [--connections N]
                [--malformed-per-1024 N]
                [--retries N] [--hedge-after-ms N] [--chaos-net SEED]
                [--require-sheds] [--min-req-per-sec N]

Exits 0 only when the run is clean: zero protocol errors, zero count
mismatches, and (with --require-sheds) at least one typed shed."
        );
        return ExitCode::SUCCESS;
    }
    match try_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_main(args: &[String]) -> Result<ExitCode, String> {
    let defaults = LoadgenConfig::default();
    let default_mix = WorkloadMix::default();
    let config = LoadgenConfig {
        addr: flag_value(args, "--addr").unwrap_or(&defaults.addr).to_string(),
        api_key: flag_value(args, "--api-key").unwrap_or(&defaults.api_key).to_string(),
        seed: parse_flag(args, "--seed", defaults.seed)?,
        requests: parse_flag(args, "--requests", defaults.requests)?,
        connections: parse_flag(args, "--connections", defaults.connections)?,
        mix: WorkloadMix {
            malformed_per_1024: parse_flag(
                args,
                "--malformed-per-1024",
                default_mix.malformed_per_1024,
            )?,
            ..default_mix
        },
        retry: match parse_flag(args, "--retries", 0u32)? {
            0 => None,
            n => Some(RetryPolicy { max_retries: n, ..RetryPolicy::default() }),
        },
        hedge_after: match parse_flag(args, "--hedge-after-ms", 0u64)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        chaos_net: flag_value(args, "--chaos-net")
            .map(|v| v.parse().map_err(|_| format!("--chaos-net needs a seed, got {v:?}")))
            .transpose()?,
        io_timeout: defaults.io_timeout,
    };
    let require_sheds = args.iter().any(|a| a == "--require-sheds");
    let min_req_per_sec: f64 = parse_flag(args, "--min-req-per-sec", 0.0)?;

    let report = run(&config);
    print!("{}", report.render());

    let mut ok = true;
    if !report.clean() {
        eprintln!(
            "FAIL: {} protocol errors, {} mismatches",
            report.protocol_errors, report.mismatches
        );
        ok = false;
    }
    if require_sheds && report.sheds == 0 {
        eprintln!("FAIL: --require-sheds set but the run saw no sheds");
        ok = false;
    }
    if min_req_per_sec > 0.0 && report.req_per_sec() < min_req_per_sec {
        eprintln!(
            "FAIL: {:.0} req/s is below the {min_req_per_sec:.0} req/s floor",
            report.req_per_sec()
        );
        ok = false;
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
