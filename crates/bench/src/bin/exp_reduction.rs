//! Experiments E-L12, E-L15, E-L17/18, E-L19/20/21 — the Section 4
//! machinery of the Theorem 1 reduction, claim by claim.

use bagcq_bench::{fmt_count, resumable_sweep, row, sep};
use bagcq_coord::{InstanceSpec, SweepSpec};
use bagcq_core::prelude::*;

fn main() {
    let instance = InstanceSpec::Toy { c: 2, coeff_s: [1, 2], coeff_b: [2, 3] };
    let red = instance.build().expect("the toy instance satisfies Lemma 11");
    let opts = EvalOptions::default();
    println!(
        "Instance: c = {}, P_s = {}, P_b = {}",
        red.instance.c,
        red.instance.p_s(),
        red.instance.p_b()
    );
    println!(
        "Reduction constants: k = {}, ℂ₁ = {}, ℂ = {} ({} bits)",
        red.k,
        red.c1,
        red.big_c,
        red.big_c.bits()
    );
    println!();

    println!("## E-L15 — Lemma 15: π-counts equal polynomial values on correct D");
    row(&[
        "Ξ".into(),
        "π_s(D)".into(),
        "P_s(Ξ)".into(),
        "π_b(D)".into(),
        "Ξ(x₁)^d·P_b(Ξ)".into(),
        "match".into(),
    ]);
    sep(6);
    for val in [[0u64, 0], [1, 0], [1, 1], [2, 1], [2, 3], [4, 2]] {
        let d = red.correct_database(&val);
        let nv: Vec<Nat> = val.iter().map(|&v| Nat::from_u64(v)).collect();
        let pi_s = CountRequest::new(&red.pi_s, &d).count();
        let ps = red.instance.p_s().eval_nat(&nv);
        let pi_b = CountRequest::new(&red.pi_b, &d).count();
        let pb =
            nv[0].pow_u64(red.instance.degree as u64).mul_ref(&red.instance.p_b().eval_nat(&nv));
        let ok = pi_s == ps && pi_b == pb;
        row(&[
            format!("{val:?}"),
            pi_s.to_string(),
            ps.to_string(),
            pi_b.to_string(),
            pb.to_string(),
            ok.to_string(),
        ]);
        assert!(ok);
    }

    println!();
    println!("## E-L12 — Lemma 12: π_s(D) ≤ π_b(D) for arbitrary D (onto-hom certificate)");
    let h = red.lemma12_onto_hom();
    println!("explicit onto hom verified: {}", verify_onto_hom(&red.pi_b, &red.pi_s, &h));
    let gen = StructureGen {
        extra_vertices: 4,
        density: 0.4,
        max_tuples_per_relation: 120,
        diagonal_density: 0.5,
    };
    let mut worst: Option<(Nat, Nat)> = None;
    for seed in 0..60u64 {
        let d = gen.sample(&red.schema, seed);
        let s = CountRequest::new(&red.pi_s, &d).count();
        let b = CountRequest::new(&red.pi_b, &d).count();
        assert!(s <= b, "Lemma 12 violated at seed {seed}");
        if !s.is_zero() {
            worst = Some((s.clone(), b.clone()));
        }
    }
    println!("60 random structures: no violation; a nonzero sample: {:?}", worst);

    println!();
    println!("## E-L17/18 — ζ_b: correct = ℂ₁; slightly incorrect ≥ c·ℂ₁");
    row(&["database".into(), "ζ_b(D)".into(), "claim".into(), "holds".into()]);
    sep(4);
    let d = red.correct_database(&[1, 2]);
    let zeta = eval_power_query(&red.zeta_b, &d, &opts);
    let ok = zeta.as_exact() == Some(&red.c1);
    row(&["correct".into(), format!("{zeta}"), format!("= ℂ₁ = {}", red.c1), ok.to_string()]);
    assert!(ok);
    for extra in 1..=3u64 {
        let mut slight = d.clone();
        let a1 = slight.constant_vertex(red.a_m[0]);
        let b1 = slight.constant_vertex(red.b_n[0]);
        slight.add_atom(red.s_rels[0], &[a1, b1]);
        if extra >= 2 {
            let a2 = slight.constant_vertex(red.a_m[1]);
            slight.add_atom(red.s_rels[0], &[b1, a2]);
        }
        if extra >= 3 {
            let av = slight.constant_vertex(red.a_const);
            slight.add_atom(red.r_rels[0], &[b1, av]);
        }
        let z = eval_power_query(&red.zeta_b, &slight, &opts);
        let threshold = Magnitude::exact(red.instance.c.mul_ref(&red.c1));
        let holds = matches!(z.cmp_cert(&threshold), CertOrd::Greater | CertOrd::Equal);
        row(&[
            format!("slightly incorrect (+{extra} atoms)"),
            format!("{z}"),
            "≥ c·ℂ₁".into(),
            holds.to_string(),
        ]);
        assert!(holds);
    }

    println!();
    println!("## E-L19/20/21 — δ_b: Arena ⇒ ≥1; correct ⇒ =1; seriously incorrect ⇒ ≥2^ℂ");
    row(&["database".into(), "δ_b(D)".into(), "claim".into(), "holds".into()]);
    sep(4);
    let delta_correct = eval_power_query(&red.delta_b, &d, &opts);
    let ok = delta_correct.as_exact() == Some(&Nat::one());
    row(&["correct".into(), format!("{delta_correct}"), "= 1".into(), ok.to_string()]);
    assert!(ok);

    // Case 1 of Lemma 21: identify ♀ with another constant.
    let venus_v = d.constant_vertex(red.venus);
    let a_v = d.constant_vertex(red.a_const);
    let serious1 = d.identify(venus_v, a_v);
    let delta1 = eval_power_query(&red.delta_b, &serious1, &opts);
    let thr = Magnitude::exact(red.big_c.clone());
    let ok1 = delta1.cmp_cert(&thr) == CertOrd::Greater;
    row(&[
        "seriously incorrect (♀ = a)".into(),
        format!("{delta1}"),
        "≥ 2^ℂ > ℂ".into(),
        ok1.to_string(),
    ]);
    assert!(ok1);

    // Case 2: identify two non-♀ constants.
    let a1v = d.constant_vertex(red.a_m[0]);
    let a2v = d.constant_vertex(red.a_m[1]);
    let serious2 = d.identify(a1v, a2v);
    let delta2 = eval_power_query(&red.delta_b, &serious2, &opts);
    let ok2 = delta2.cmp_cert(&thr) == CertOrd::Greater;
    row(&[
        "seriously incorrect (a₁ = a₂)".into(),
        format!("{delta2}"),
        "≥ 2^ℂ > ℂ".into(),
        ok2.to_string(),
    ]);
    assert!(ok2);

    println!();
    println!("## Putting it together — ℂ·φ_s vs φ_b per Definition 13 class");
    row(&["database".into(), "class".into(), "ℂ·φ_s ≤ φ_b".into()]);
    sep(3);
    // Note: this instance is genuinely violating at Ξ = (1,1) — that is
    // the ℜ ⇒ ☀ direction. The rows below use valuations/perturbations
    // where the inequality must hold.
    for (label, dd) in [
        ("correct (safe val (2,1))", red.correct_database(&[2, 1])),
        ("slightly incorrect", {
            let mut x = red.correct_database(&[1, 1]);
            let a1 = x.constant_vertex(red.a_m[0]);
            let b1 = x.constant_vertex(red.b_n[0]);
            x.add_atom(red.s_rels[0], &[a1, b1]);
            x
        }),
        ("seriously incorrect", serious2.clone()),
    ] {
        let class = red.classify(&dd);
        let holds = red.holds_on(&dd, &opts);
        row(&[label.into(), format!("{class:?}"), format!("{holds:?}")]);
        assert_eq!(holds, Some(true));
    }
    println!();
    println!("## Crash-safe class sweep (journaled)");
    println!("Every valuation in 0..=1² re-checked across all three Definition 13");
    println!("classes, one journal commit per point: kill this binary mid-sweep and");
    println!("the next run resumes at the first unrecorded valuation.");
    let (stats, path) =
        resumable_sweep("reduction-classes-bound1", &SweepSpec { instance, bound: 1 })
            .unwrap_or_else(|e| panic!("class sweep failed: {e}"));
    println!(
        "points: {} ({} resumed from {:?}, {} computed); databases checked: {}",
        stats.points_total,
        stats.points_resumed,
        path,
        stats.points_computed,
        stats.databases_checked,
    );

    println!();
    println!("counts shown compactly where huge, e.g. ℂ = {}", fmt_count(&red.big_c));
    println!("All Section 4 claims verified.");
}
