//! Experiments E-T1 and E-B — the end-to-end Theorem 1 equivalence over
//! the Hilbert corpus: root existence ⇔ database witness existence, with
//! the Appendix B chain in between.

use bagcq_bench::{
    emit_trace_section, resumable_sweep, row, sep, start_trace_from_args, sweep_dir,
};
use bagcq_coord::{InstanceSpec, SweepSpec};
use bagcq_core::polynomial::valuations;
use bagcq_core::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Re-verifies `ℂ·φ_s(D) ≤ φ_b(D)` decisions through the `bagcq-engine`
/// service: all φ-evaluations for a box of correct databases go in as one
/// batch (each submitted twice, so the single-flight cache proves itself),
/// with dual-engine cross-validation on every underlying count.
fn engine_sweep(red: &Theorem1Reduction, bound: u64, opts: &EvalOptions) -> (usize, usize) {
    let engine = EvalEngine::new(EngineConfig { cross_validate: true, ..EngineConfig::default() });
    let databases: Vec<_> = valuations(red.instance.n_vars as usize, bound)
        .map(|val| {
            let d = Arc::new(red.correct_database(&val));
            (val, d)
        })
        .collect();

    // Two jobs per database (φ_s, φ_b). The whole batch runs twice; the
    // second round, submitted after the first completes, must be answered
    // entirely by the memo cache.
    let make_jobs = || {
        databases
            .iter()
            .flat_map(|(_, d)| {
                [
                    Job::eval_power(red.phi_s.clone(), Arc::clone(d)),
                    Job::eval_power(red.phi_b.clone(), Arc::clone(d)),
                ]
            })
            .collect::<Vec<_>>()
    };
    let mut agreements = 0;
    for _round in 0..2 {
        let handles = engine.submit_batch(make_jobs());
        for (i, (val, d)) in databases.iter().enumerate() {
            let s = handles[2 * i].wait();
            let b = handles[2 * i + 1].wait();
            let (Some(s), Some(b)) = (s.as_power(), b.as_power()) else {
                panic!("engine failed φ-evaluation at {val:?}");
            };
            let lhs = Magnitude::exact_with_budget(red.big_c.clone(), opts.exact_bits).mul(s);
            let holds = match lhs.cmp_cert(b) {
                CertOrd::Less | CertOrd::Equal => Some(true),
                CertOrd::Greater => Some(false),
                CertOrd::Unknown => None,
            };
            assert_eq!(
                holds,
                red.holds_on(d, opts),
                "engine-routed φ-comparison diverges from direct evaluation at {val:?}"
            );
            agreements += 1;
        }
    }

    let m = engine.metrics();
    assert!(m.cache_hits > 0, "repeated batch must hit the memo cache");
    assert!(m.cross_validations > 0, "cross-validation must have run");
    assert_eq!(m.jobs_panicked, 0);
    (agreements, m.cache_hits as usize)
}

fn main() {
    let trace = start_trace_from_args();
    println!("## E-B / E-T1 — Hilbert corpus through Appendix B + Theorem 1");
    row(&[
        "instance".into(),
        "root (≤5)".into(),
        "Lemma 11: c, d, 𝕞".into(),
        "ℂ bits".into(),
        "φ-witness found".into(),
        "agrees".into(),
    ]);
    sep(6);

    let opts = EvalOptions::default();
    for inst in hilbert_library() {
        // Larger instances exist in the corpus; the witness-search box is
        // kept small so the whole sweep stays interactive.
        if inst.n_vars > 2 {
            continue;
        }
        let chain = reduce(&inst.poly);
        let red = Theorem1Reduction::new(chain.instance.clone());
        let root = inst.find_root(5);
        let witness = red.find_phi_witness(3, &opts);
        let agrees = root.is_some() == witness.is_some();
        row(&[
            inst.name.into(),
            format!("{root:?}"),
            format!(
                "{}, {}, {}",
                chain.instance.c,
                chain.instance.degree,
                chain.instance.monomials.len()
            ),
            red.big_c.bits().to_string(),
            match &witness {
                Some(w) => format!("yes at Ξ = {:?}", w.valuation),
                None => "no (box ≤3)".into(),
            },
            agrees.to_string(),
        ]);
        assert!(agrees, "{}: equivalence broken", inst.name);
    }

    println!();
    println!("## Backward sweeps on rootless instances (correct + perturbed databases)");
    println!("(crash-safe: each point is journaled under {:?}; a killed", sweep_dir());
    println!(" sweep resumes from its journal instead of recomputing)");
    row(&[
        "instance".into(),
        "databases checked".into(),
        "points resumed".into(),
        "all satisfy ℂ·φ_s ≤ φ_b".into(),
    ]);
    sep(4);
    for name in ["parity", "shifted-positive", "square-plus-one"] {
        let spec = SweepSpec { instance: InstanceSpec::Hilbert(name.to_string()), bound: 1 };
        match resumable_sweep(&format!("theorem1-backward-{name}-bound1"), &spec) {
            Ok((stats, _)) => {
                row(&[
                    name.into(),
                    stats.databases_checked.to_string(),
                    stats.points_resumed.to_string(),
                    "yes".into(),
                ]);
            }
            Err(e) => {
                row(&[name.into(), "-".into(), "-".into(), format!("NO: {e}")]);
                panic!("{e}");
            }
        }
    }
    println!();
    println!("## Engine-routed re-verification (batched, cached, cross-validated)");
    row(&[
        "instance".into(),
        "φ-decisions re-verified".into(),
        "cache hits".into(),
        "deadline demo".into(),
    ]);
    sep(4);
    for name in ["parity", "shifted-positive"] {
        let inst = hilbert_instance(name).unwrap();
        let chain = reduce(&inst.poly);
        let red = Theorem1Reduction::new(chain.instance.clone());
        let (agreements, hits) = engine_sweep(&red, 1, &opts);

        // A job with an impossible deadline times out; an identical job
        // without one still completes — isolation, not contagion.
        let engine = EvalEngine::with_workers(2);
        let d = Arc::new(red.correct_database(&vec![0; red.instance.n_vars as usize]));
        let doomed = engine.submit(
            Job::eval_power(red.phi_b.clone(), Arc::clone(&d))
                .with_timeout(Duration::from_nanos(1)),
        );
        let fine = engine.submit(Job::eval_power(red.phi_b.clone(), d));
        let demo = matches!(doomed.wait(), Outcome::TimedOut) && fine.wait().as_power().is_some();
        assert!(demo, "deadline must isolate the doomed job only");
        row(&[name.into(), agreements.to_string(), hits.to_string(), "ok".into()]);
    }

    println!();
    println!("Theorem 1 equivalence verified across the corpus.");

    emit_trace_section(trace);
}
