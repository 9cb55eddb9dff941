//! Smoke test: every workload at 1/100 size, in-process, untraced and
//! traced. Run with `cargo test --release --manifest-path exp_perf/Cargo.toml`
//! (debug builds work too, only slower).

use bagcq_exp_perf::metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use bagcq_exp_perf::plan::{Plan, Workload};
use bagcq_exp_perf::run::{run, Options};
use bagcq_obs::json::{self, Json};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Runs share the process-global tracer; one at a time.
static RUNS: Mutex<()> = Mutex::new(());

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf_smoke")
}

fn small(workload: Workload, seed: u64, trace: bool) -> Report {
    let _one_at_a_time = RUNS.lock().unwrap_or_else(|p| p.into_inner());
    let opts = Options { workload, seed, seconds: 0.0, trace, scale: 100, out_dir: out_dir() };
    run(&opts)
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("named").to_string())
        .collect()
}

/// Every metric `BENCHMARK.json` declares under `key` is printed as a
/// `name value unit` line and sits in the JSON result line.
fn assert_prints(report: &Report, doc: &Json, key: &str) {
    let text = report.render();
    let last = text.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    for name in names(doc, key) {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{name} "))),
            "{name} is not printed:\n{text}"
        );
        let value = result.get("metrics").and_then(|m| m.get(&name)).and_then(|m| m.get("value"));
        assert!(matches!(value, Some(Json::Num(_))), "{name} missing from {last}");
    }
}

#[test]
fn every_workload_runs_clean_and_prints_every_declared_metric() {
    let doc = benchmark_json();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = small(workload, 42, trace);
            let context = format!("{} trace={trace}: {:?}", workload.name(), report.reasons);
            assert!(report.correct, "{context}");
            assert!(report.attempted > 0, "{context}");
            assert_eq!(report.failed, 0, "{context}");
            assert_prints(&report, &doc, if trace { "per_layer" } else { "end_to_end" });
        }
        let trace = out_dir().join("traces").join(format!("{}-seed42.json", workload.name()));
        let events = json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
            .expect("the Chrome trace is JSON");
        let first_request = events
            .as_array()
            .expect("a Chrome trace is an array")
            .iter()
            .filter(|e| {
                e.get("cat").and_then(Json::as_str).is_some_and(|c| c.starts_with("bench."))
                    && e.get("args").and_then(|a| a.get("fp")).and_then(Json::as_str)
                        == Some(&format!("{:032x}", 0)[..])
            })
            .count();
        assert!(first_request >= 3, "request 0 has a root span and layer spans sharing its id");
    }
}

#[test]
fn deterministic_counters_repeat_exactly() {
    let a = small(Workload::CheckCold, 7, true);
    let b = small(Workload::CheckCold, 7, true);
    for name in [
        "containment.decided_frac",
        "containment.unknown",
        "engine.jobs_submitted",
        "homcount.promotions",
    ] {
        assert_eq!(a.get(name), b.get(name), "{name}");
    }
}

#[test]
fn plans_are_pure_functions_of_the_seed() {
    let bodies = |w: Workload, seed: u64| -> Vec<String> {
        let round = Plan::new(w, seed, 100).round(0);
        round.warmup.iter().chain(&round.measured).map(|f| f.body.clone()).collect()
    };
    for w in Workload::ALL {
        assert_eq!(bodies(w, 5), bodies(w, 5), "{}", w.name());
        assert_ne!(bodies(w, 5), bodies(w, 6), "{}", w.name());
    }
}

#[test]
fn benchmark_json_mirrors_the_metric_registry() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    let check = |key: &str, defs: &[MetricDef]| {
        let listed = doc.get(key).and_then(Json::as_array).expect("metric list");
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str);
            assert_eq!(field("name"), Some(def.name));
            assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
            assert_eq!(field("better"), Some(def.better.label()), "{}", def.name);
            let bound = match entry.get("bound") {
                Some(Json::Num(b)) => Some(*b),
                _ => None,
            };
            assert_eq!(bound, def.bound, "{}", def.name);
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);
}
