//! `exp_perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--repeat <N>]`
//!
//! Prints every metric as `name value unit`, one per line, then one JSON
//! result line. Exits 1 when any answer or oracle was wrong, 2 on bad
//! arguments. `--repeat N` runs the workload N times (seeds `n..n+N`),
//! each in a fresh process, and prints each end-to-end metric's median,
//! quartiles and spread against its bound.

use bagcq_exp_perf::metrics::END_TO_END;
use bagcq_exp_perf::plan::Workload;
use bagcq_exp_perf::run::{default_out_dir, run, Options};
use bagcq_exp_perf::stats::{median, quartiles};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: exp_perf --workload <wire-hot|count-cold|check-cold|zipf-mixed> \
                     --seed <n> [--seconds <s>] [--trace 0|1] [--repeat <N>]";

struct Args {
    opts: Options,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut repeat = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--repeat" => repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scale: 1,
        out_dir: default_out_dir(),
    };
    Ok(Args { opts, repeat })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("exp_perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return repeat(&args.opts, n);
    }
    let report = run(&args.opts);
    for reason in &report.reasons {
        eprintln!("exp_perf: {reason}");
    }
    print!("{}", report.render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `n` fresh processes on consecutive seeds and prints, per
/// end-to-end metric, the median, the quartiles (Python's
/// `statistics.quantiles(n=4)`), the spread `(q3 − q1) / median` and that
/// spread as a share of the metric's bound.
fn repeat(opts: &Options, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("locate exp_perf");
    let mut runs: Vec<bagcq_obs::json::Json> = Vec::new();
    for k in 0..n as u64 {
        let seed = opts.seed + k;
        let output = Command::new(&exe)
            .args(["--workload", opts.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(Stdio::inherit())
            .output()
            .expect("run exp_perf");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(line) = stdout.lines().last() else {
            eprintln!("exp_perf: seed {seed} printed nothing");
            return ExitCode::FAILURE;
        };
        if !output.status.success() {
            eprintln!("exp_perf: seed {seed} failed: {line}");
            return ExitCode::FAILURE;
        }
        eprintln!("seed {seed}: {line}");
        runs.push(bagcq_obs::json::parse(line).expect("the result line is JSON"));
    }
    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>8} {:>12}",
        "metric", "median", "q1", "q3", "spread", "spread/bound"
    );
    for m in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|doc| match doc.get("metrics")?.get(m.name)?.get("value")? {
                bagcq_obs::json::Json::Num(v) => Some(*v),
                _ => None,
            })
            .collect();
        let mid = median(&values);
        let [q1, _, q3] = quartiles(&values);
        let spread = (q3 - q1) / mid;
        let bound = m.bound.expect("end-to-end metrics have bounds");
        println!(
            "{:<20} {mid:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {:>12.3}",
            m.name,
            spread / bound
        );
    }
    ExitCode::SUCCESS
}
