//! Integration tests driving the `bagcq` CLI binary end to end.

use bagcq_core::prelude::{path_query, CheckRequest, Schema, Semantics};
use std::process::Command;

fn bagcq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bagcq"))
}

/// The backend this process's environment resolves for an auto-routed
/// pure CQ pair — normally the natural `(semantics, pair)` backend, but
/// a `BAGCQ_CONTAINMENT` matrix run may redirect it, and the spawned
/// binary inherits our environment.
fn resolved_pair_backend(semantics: Semantics) -> &'static str {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();
    let q = path_query(&schema, "E", 1);
    CheckRequest::new(&q, &q).semantics(semantics).resolved_choice().label()
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = bagcq().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    // No args behaves like help.
    let (ok, stdout, _) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn count_inline() {
    let dir = std::env::temp_dir().join("bagcq_cli_test_count");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.txt");
    std::fs::write(&db, "vertices: 3\nE: (0,1), (1,2), (2,0)\n").unwrap();
    let (ok, stdout, stderr) =
        run(&["count", "-q", "E(x,y), E(y,z)", "-d", &format!("@{}", db.display())]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ψ(D) = 3"), "{stdout}");
}

#[test]
fn count_with_inequality() {
    let dir = std::env::temp_dir().join("bagcq_cli_test_count2");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.txt");
    // Complete digraph on 2 vertices with loops: 4 edges.
    std::fs::write(&db, "vertices: 2\nE: (0,0), (0,1), (1,0), (1,1)\n").unwrap();
    let (ok, stdout, _) =
        run(&["count", "-q", "E(x,y), x != y", "-d", &format!("@{}", db.display())]);
    assert!(ok);
    assert!(stdout.contains("ψ(D) = 2"), "{stdout}");
}

#[test]
fn check_refutes_and_prints_counterexample() {
    let (ok, stdout, _) = run(&["check", "-s", "E(x,y)", "-b", "E(u,v), E(v,w)"]);
    assert!(ok);
    assert!(stdout.contains("REFUTED"), "{stdout}");
    assert!(stdout.contains("vertices:"), "{stdout}");
}

#[test]
fn check_proves_with_certificate() {
    let (ok, stdout, _) = run(&["check", "-s", "E(x,x)", "-b", "E(u,v)"]);
    assert!(ok);
    assert!(stdout.contains("PROVED"), "{stdout}");
    let expected = format!("backend = {}", resolved_pair_backend(Semantics::Bag));
    assert!(stdout.contains(&expected), "auto resolves a CQ pair: {stdout}");
}

#[test]
fn check_set_semantics_selects_chandra_merlin() {
    // Set semantics flips the 2-walk/edge pair: the 2-walk query folds
    // into a single edge's canonical database.
    let (ok, stdout, _) =
        run(&["check", "-s", "E(u,v), E(v,w)", "-b", "E(x,y)", "--semantics", "set"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("semantics = set"), "{stdout}");
    let expected = format!("backend = {}", resolved_pair_backend(Semantics::Set));
    assert!(stdout.contains(&expected), "{stdout}");
    assert!(stdout.contains("PROVED"), "{stdout}");
}

#[test]
fn check_union_disjuncts_via_semicolon() {
    // `;` splits union disjuncts; auto picks the UCQ backend per
    // semantics.
    let (ok, stdout, _) =
        run(&["check", "-s", "E(x,y)", "-b", "E(u,v); F(w)", "--semantics", "set"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("backend = set-ucq"), "{stdout}");
    assert!(stdout.contains("PROVED"), "{stdout}");
    let (ok, stdout, _) = run(&["check", "-s", "E(x,y)", "-b", "E(u,v); F(w)"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("backend = bag-ucq"), "{stdout}");
    assert!(stdout.contains("PROVED"), "{stdout}");
}

#[test]
fn check_pinned_backend_and_env_override_agree() {
    // Pinning via --containment and forcing via BAGCQ_CONTAINMENT (which
    // only redirects auto) must land on the same backend.
    let (ok, stdout, _) = run(&[
        "check",
        "-s",
        "E(x,y)",
        "-b",
        "E(u,v)",
        "--semantics",
        "set",
        "--containment",
        "set-chandra-merlin",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("backend = set-chandra-merlin"), "{stdout}");
    let out = bagcq()
        .args(["check", "-s", "E(x,y)", "-b", "E(u,v)", "--semantics", "set"])
        .env("BAGCQ_CONTAINMENT", "set-chandra-merlin")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("backend = set-chandra-merlin"), "{stdout}");
}

#[test]
fn check_unsupported_combination_is_an_error() {
    let (ok, _, stderr) = run(&[
        "check",
        "-s",
        "E(x,y)",
        "-b",
        "E(u,v)",
        "--semantics",
        "set",
        "--containment",
        "bag-search",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bag-search"), "{stderr}");
    let (ok, _, stderr) = run(&["check", "-s", "E(x,y);", "-b", "E(u,v)"]);
    assert!(!ok);
    assert!(stderr.contains("empty disjunct"), "{stderr}");
}

#[test]
fn reduce_rootless_instance() {
    let (ok, stdout, _) = run(&["reduce", "square-plus-one"]);
    assert!(ok);
    assert!(stdout.contains("all satisfy"), "{stdout}");
}

#[test]
fn reduce_solvable_instance() {
    let (ok, stdout, _) = run(&["reduce", "linear-solvable"]);
    assert!(ok);
    assert!(stdout.contains("WITNESSED"), "{stdout}");
}

#[test]
fn instances_lists_corpus() {
    let (ok, stdout, _) = run(&["instances"]);
    assert!(ok);
    assert!(stdout.contains("pell"));
    assert!(stdout.contains("provably rootless"));
}

#[test]
fn errors_are_reported() {
    let (ok, _, stderr) = run(&["reduce", "no-such-instance"]);
    assert!(!ok);
    assert!(stderr.contains("no corpus instance"), "{stderr}");
    let (ok, _, stderr) = run(&["count", "-q", "E(x"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    // A relation used with two arities across two sources is an error,
    // not a panic.
    for args in [
        &["count", "-q", "E(x,y,z)", "-d", "vertices: 2\nE: (0,1)"][..],
        &["check", "-s", "E(x,y)", "-b", "E(x,y,z)"],
        &["hde", "-f", "E(x,y)", "-g", "E(x,y,z)"],
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("arity"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
