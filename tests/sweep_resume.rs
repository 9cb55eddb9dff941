//! Crash-safe sweep resume (acceptance criterion for the resilience
//! layer): kill a sweep partway through, re-run it, and verify the second
//! run resumes from the persistent store without recomputing any
//! completed point — whether the sweep runs in-process (`sweep_local`)
//! or over worker processes (`bagcq sweep-coord`).

use bagcq_coord::{point_key, sweep_local, InstanceSpec, SweepSpec};
use bagcq_core::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The safe toy instance (2 vars): c·P_s ≤ P_b everywhere, so every
/// sweep completes cleanly; bound 2 gives a 9-point frontier.
const TOY: &str = "toy:2:1,1:2,2";
const BOUND: &str = "2";

fn e2e_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bagcq-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `spec` locally until `on_point` has let `survivors` points through,
/// then crashes it; returns the points computed before the crash.
fn crash_after(spec: &SweepSpec, store: &MemoStore, survivors: usize) -> Vec<Vec<u64>> {
    let mut computed: Vec<Vec<u64>> = Vec::new();
    // `on_point` fires before a point is computed or committed, so the
    // point after the survivors dies without a store record.
    let crash = catch_unwind(AssertUnwindSafe(|| {
        sweep_local(spec, store, |val| {
            if computed.len() == survivors {
                panic!("simulated crash");
            }
            computed.push(val.to_vec());
        })
    }));
    assert!(crash.is_err(), "the injected crash must abort the sweep");
    assert_eq!(computed.len(), survivors);
    computed
}

#[test]
fn killed_local_sweep_resumes_from_store() {
    // 2 vars, bound 1: 4 points × 3 databases.
    let spec = SweepSpec { instance: InstanceSpec::parse(TOY).expect("toy spec"), bound: 1 };
    let dir = e2e_dir("local-resume");
    let store = MemoStore::open(&dir).expect("fresh store");
    let first_run_points = crash_after(&spec, &store, 2);
    drop(store);

    // Second run: a fresh handle on the same directory. The two
    // committed points come back from the store; only the remaining two
    // are recomputed.
    let store = MemoStore::open(&dir).expect("reopen after crash");
    let mut second_run_points: Vec<Vec<u64>> = Vec::new();
    let stats = sweep_local(&spec, &store, |val| second_run_points.push(val.to_vec()))
        .expect("resumed sweep completes");
    assert_eq!(stats.points_total, 4);
    assert_eq!(stats.points_resumed, 2);
    assert_eq!(stats.points_computed, 2);
    assert_eq!(stats.databases_checked, 12);
    for p in &second_run_points {
        assert!(!first_run_points.contains(p), "point {p:?} was recomputed despite being stored");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweeps_sharing_a_store_do_not_alias() {
    // Point fingerprints cover the instance and the bound, so equal
    // valuations of different sweeps are different records.
    let toy = InstanceSpec::parse(TOY).expect("toy spec");
    let other = InstanceSpec::parse("toy:2:1,2:2,3").expect("toy spec");
    let sweeps = [
        SweepSpec { instance: toy.clone(), bound: 1 },
        SweepSpec { instance: toy, bound: 2 },
        SweepSpec { instance: other, bound: 1 },
    ];
    let dir = e2e_dir("local-alias");
    let store = MemoStore::open(&dir).expect("fresh store");
    for spec in &sweeps {
        let stats = sweep_local(spec, &store, |_| {}).expect("sweep completes");
        assert_eq!(
            stats.points_resumed,
            0,
            "{} resumed another sweep's points",
            spec.instance.label()
        );
        assert_eq!(stats.points_computed, stats.points_total);
    }
    let rerun = sweep_local(&sweeps[0], &store, |_| panic!("a stored point was recomputed"))
        .expect("rerun completes");
    assert_eq!((rerun.points_resumed, rerun.points_computed), (4, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Process-level kill -9 tolerance: the sharded coordinator + memo store
// ---------------------------------------------------------------------------

fn bagcq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bagcq"))
}

fn sweep_coord(store: &Path, report: &Path, extra: &[&str]) -> Command {
    let mut cmd = bagcq();
    cmd.args(["sweep-coord", "--instance", TOY, "--bound", BOUND, "--store"])
        .arg(store)
        .arg("--report")
        .arg(report)
        .args(extra);
    cmd
}

/// A worker killed with SIGKILL mid-sweep loses its leases; the
/// coordinator re-issues them and the final report is byte-identical to
/// a clean single-worker run.
#[test]
fn worker_kill_is_absorbed_and_report_is_bit_identical() {
    let dir = e2e_dir("workerkill");
    let (ref_store, ref_report) = (dir.join("ref-store"), dir.join("ref-report.txt"));
    let (chaos_store, chaos_report) = (dir.join("chaos-store"), dir.join("chaos-report.txt"));

    // Clean reference: one worker, no chaos.
    let out = sweep_coord(&ref_store, &ref_report, &["--workers", "1"])
        .output()
        .expect("reference run spawns");
    assert!(out.status.success(), "reference run: {}", String::from_utf8_lossy(&out.stderr));

    // Chaos run: three workers, slot 1 SIGKILLs itself after 1 point
    // (and again on respawn, until its respawn budget runs out).
    let out =
        sweep_coord(&chaos_store, &chaos_report, &["--workers", "3", "--chaos-kill-worker", "1:1"])
            .output()
            .expect("chaos run spawns");
    assert!(out.status.success(), "chaos run: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let deaths: usize = stdout
        .split("worker_deaths=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("report missing worker_deaths: {stdout}"));
    assert!(deaths >= 1, "the chaos worker must actually die: {stdout}");
    assert!(stdout.contains("total=9"), "{stdout}");

    let want = std::fs::read(&ref_report).expect("reference report");
    let got = std::fs::read(&chaos_report).expect("chaos report");
    assert_eq!(want, got, "chaos report must be byte-identical to the clean reference");

    // The chaos store must verify clean despite the worker deaths.
    let out = bagcq()
        .args(["store", "verify", "--strict", "--store"])
        .arg(&chaos_store)
        .output()
        .expect("verify runs");
    assert!(out.status.success(), "store verify: {}", String::from_utf8_lossy(&out.stderr));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator itself is SIGKILLed mid-sweep; a rerun resumes from
/// the persistent store, recomputes ZERO already-committed points, and
/// produces a report byte-identical to a never-crashed run.
#[test]
fn killed_coordinator_resumes_from_store_without_recomputing() {
    let dir = e2e_dir("coordkill");
    let store = dir.join("store");
    let report1 = dir.join("report-crashed.txt");
    let report2 = dir.join("report-resumed.txt");

    // Slow each point down so the kill lands mid-sweep.
    let mut child = sweep_coord(&store, &report1, &["--workers", "1", "--point-delay-ms", "400"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("coordinator spawns");

    // Wait until at least two points are durably committed, then SIGKILL.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(report) = bagcq_core::engine::MemoStore::verify(&store) {
            if report.records_live >= 2 {
                break;
            }
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("coordinator never committed 2 points within 60s");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL the coordinator");
    child.wait().expect("reap");
    assert!(!report1.exists(), "the killed run must not have written its report");

    // Snapshot what survived the crash (post-recovery, like the resumed
    // coordinator will see it).
    let spec = SweepSpec { instance: InstanceSpec::parse(TOY).expect("toy spec"), bound: 2 };
    let frontier = spec.frontier(2);
    assert_eq!(frontier.len(), 9);
    let pre_kill: HashSet<String> = {
        let snapshot = MemoStore::open_opts(
            &store,
            StoreOptions { compact_on_open: false, ..Default::default() },
        )
        .expect("store survives the kill");
        frontier
            .iter()
            .filter(|val| snapshot.contains(&spec.point_fingerprint(val)))
            .map(|val| point_key(val))
            .collect()
    };
    assert!(pre_kill.len() >= 2, "poll saw 2 durable points: {pre_kill:?}");
    assert!(pre_kill.len() < 9, "the kill must land mid-sweep");

    // Resume: every pre-kill point comes back from the store; only the
    // remainder is computed.
    let out = sweep_coord(&store, &report2, &["--workers", "1", "--print-computed"])
        .output()
        .expect("resume run spawns");
    assert!(out.status.success(), "resume run: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let computed: HashSet<String> =
        stdout.lines().filter_map(|l| l.strip_prefix("computed ")).map(str::to_string).collect();
    for key in &computed {
        assert!(!pre_kill.contains(key), "point {key} was recomputed despite surviving the kill");
    }
    assert_eq!(
        computed.len(),
        9 - pre_kill.len(),
        "resume must compute exactly the missing points: {stdout}"
    );
    assert!(stdout.contains(&format!("resumed={}", pre_kill.len())), "{stdout}");

    // The resumed report is byte-identical to a never-crashed run.
    let clean_store = dir.join("clean-store");
    let clean_report = dir.join("report-clean.txt");
    let out = sweep_coord(&clean_store, &clean_report, &["--workers", "1"])
        .output()
        .expect("clean run spawns");
    assert!(out.status.success(), "clean run: {}", String::from_utf8_lossy(&out.stderr));
    let want = std::fs::read(&clean_report).expect("clean report");
    let got = std::fs::read(&report2).expect("resumed report");
    assert_eq!(want, got, "resumed report must be byte-identical to a never-crashed run");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A local sweep killed mid-run is finished by the coordinator: both
/// drivers key, value and commit points alike, so the coordinator resumes
/// every point the local sweep committed, and its report is byte-identical
/// to a clean run's.
#[test]
fn coordinator_finishes_a_killed_local_sweep() {
    let dir = e2e_dir("local-then-coord");
    let store_dir = dir.join("store");
    let spec = SweepSpec { instance: InstanceSpec::parse(TOY).expect("toy spec"), bound: 2 };
    let store = MemoStore::open(&store_dir).expect("fresh store");
    let local: HashSet<String> =
        crash_after(&spec, &store, 3).iter().map(|val| point_key(val)).collect();
    drop(store);

    let report = dir.join("report.txt");
    let out = sweep_coord(&store_dir, &report, &["--workers", "1", "--print-computed"])
        .output()
        .expect("coordinator spawns");
    assert!(out.status.success(), "coordinator: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed=3 computed=6"), "{stdout}");
    for key in stdout.lines().filter_map(|l| l.strip_prefix("computed ")) {
        assert!(!local.contains(key), "point {key} was recomputed despite the local commit");
    }

    let clean_report = dir.join("report-clean.txt");
    let out = sweep_coord(&dir.join("clean-store"), &clean_report, &["--workers", "1"])
        .output()
        .expect("clean run spawns");
    assert!(out.status.success(), "clean run: {}", String::from_utf8_lossy(&out.stderr));
    let want = std::fs::read(&clean_report).expect("clean report");
    let got = std::fs::read(&report).expect("finished report");
    assert_eq!(want, got, "the finished report must be byte-identical to a clean run's");

    let _ = std::fs::remove_dir_all(&dir);
}
