//! Paper-claims conformance suite.
//!
//! Each test pins one quantitative claim of Marcinkowski & Orda (PODS
//! 2024) to exact rational arithmetic, with every homomorphism count
//! recomputed by BOTH counting algorithms (naive backtracking and the
//! tree-decomposition DP) so a bug in either kernel — or a drift in a
//! gadget construction — fails the suite rather than silently bending a
//! lemma.

use bagcq_core::prelude::*;

/// Counts `q` on `d` with both kernels and insists they agree before
/// returning the count. The whole point of the suite is that a paper
/// claim is only "confirmed" when independent kernels produce the same
/// number.
fn count_both(q: &Query, d: &Structure) -> Nat {
    let [naive, treewidth] =
        BackendChoice::REGISTERED.map(|choice| CountRequest::new(q, d).backend(choice).count());
    assert_eq!(naive, treewidth, "the kernels disagree on {q}");
    naive
}

/// Checks a multiplication gadget's condition (=) from scratch: recount
/// `ϱ_s(W)` and `ϱ_b(W)` on the stored witness with both engines and
/// verify `s = ratio·b` by cross-multiplication in exact rationals.
/// Returns `(s, b)` for claim-specific assertions.
fn confirm_witness(g: &MultiplyGadget) -> (Nat, Nat) {
    let s = count_both(&g.q_s, &g.witness);
    let b = count_both(&g.q_b, &g.witness);
    assert!(!s.is_zero(), "witness must satisfy ϱ_s");
    assert!(
        g.ratio.eq_scaled(&s, &b),
        "condition (=) fails: s = {s}, b = {b}, claimed ratio {}",
        g.ratio
    );
    // The gadget's own (naive-only) verification must agree with ours.
    assert_eq!(g.check_witness().expect("witness check"), (s.clone(), b.clone()));
    (s, b)
}

/// Lemma 5: for every arity `p ≥ 3` the queries `β_s`, `β_b` multiply by
/// exactly `(p+1)²/2p`, and on the canonical witness the counts are
/// `β_s(W) = (p+1)²` and `β_b(W) = 2p` — not merely in the right ratio.
#[test]
fn lemma5_beta_multiplies_by_p_plus_1_squared_over_2p() {
    for p in [3usize, 4, 5, 7] {
        let g = beta_gadget(p, "");
        let p64 = p as u64;
        assert_eq!(
            g.ratio,
            Rat::from_u64s((p64 + 1) * (p64 + 1), 2 * p64),
            "Lemma 5 ratio at p = {p}"
        );
        let (s, b) = confirm_witness(&g);
        assert_eq!(s, Nat::from_u64((p64 + 1) * (p64 + 1)), "β_s(W) at p = {p}");
        assert_eq!(b, Nat::from_u64(2 * p64), "β_b(W) at p = {p}");
    }
}

/// Lemma 5's hypothesis is `p ≥ 3`: the cyclique construction degenerates
/// at `p = 2`, so the constructor must refuse rather than emit a gadget
/// with a silently wrong ratio.
#[test]
#[should_panic(expected = "p >= 3")]
fn lemma5_rejects_arity_two() {
    let _ = beta_gadget(2, "");
}

/// Lemma 10: for every `m ≥ 2` the queries `γ_s`, `γ_b` multiply by
/// exactly `(m−1)/m`, witnessed by counts `m−1` and `m`.
#[test]
fn lemma10_gamma_multiplies_by_m_minus_1_over_m() {
    for m in 2usize..=6 {
        let g = gamma_gadget(m, "");
        let m64 = m as u64;
        assert_eq!(g.ratio, Rat::from_u64s(m64 - 1, m64), "Lemma 10 ratio at m = {m}");
        let (s, b) = confirm_witness(&g);
        assert_eq!(s, Nat::from_u64(m64 - 1), "γ_s(W) at m = {m}");
        assert_eq!(b, Nat::from_u64(m64), "γ_b(W) at m = {m}");
    }
}

/// The fine-tuning identity behind the α gadget, in pure arithmetic:
/// with `p = 2c−1` and `m = p+1 = 2c`,
/// `(p+1)²/2p · (m−1)/m = 4c²/(2(2c−1)) · (2c−1)/2c = c` exactly.
#[test]
fn alpha_fine_tuning_identity() {
    for c in 2u64..=24 {
        let p = 2 * c - 1;
        let m = p + 1;
        let beta = Rat::from_u64s((p + 1) * (p + 1), 2 * p);
        let gamma = Rat::from_u64s(m - 1, m);
        let product = &beta * &gamma;
        assert_eq!(product, Rat::from_u64s(c, 1), "c = {c}");
        assert!(product.is_integral(), "α ratio must be a natural constant");
    }
}

/// The composed α gadget multiplies by the natural constant `c` itself —
/// the paper's "four small steps" hinge on this being *exactly* `c`, not
/// approximately. Both the composed ratio and the composed witness are
/// re-verified by recounting.
#[test]
fn alpha_multiplies_by_natural_constant() {
    // All-backend recounts stop at c = 3: the composed gadget's treewidth
    // grows like 2c (7 at c = 4), and the DP's bags grow with it — seconds
    // per count at c = 4 in a release build, out of reach beyond — so
    // larger c fall back to the (output-sensitive) naive kernel, which
    // stays instant because the witness counts do.
    for c in 2u64..=5 {
        let g = alpha_gadget(c, "");
        assert_eq!(g.ratio, Rat::from_u64s(c, 1), "α ratio at c = {c}");
        let (s, b) = if c <= 3 {
            confirm_witness(&g)
        } else {
            g.check_witness().unwrap_or_else(|e| panic!("witness check at c = {c}: {e}"))
        };
        // s = c·b as exact rationals, by construction of the witness.
        assert_eq!(Rat::from_nat(s), &Rat::from_u64s(c, 1) * &Rat::from_nat(b), "c = {c}");
    }
}

/// Condition (≤) of Definition 3, spot-checked on structures beyond the
/// witness: `ϱ_s(D) ≤ q·ϱ_b(D)` on every sampled database, for all three
/// gadget families. (The witness tests above pin (=); this pins the
/// inequality half on off-witness data.)
#[test]
fn definition3_le_holds_on_sampled_structures() {
    let gadgets =
        [beta_gadget(3, ""), beta_gadget(5, ""), gamma_gadget(3, ""), alpha_gadget(2, "")];
    for g in &gadgets {
        let gen = StructureGen {
            extra_vertices: 3,
            density: 0.4,
            max_tuples_per_relation: 60,
            diagonal_density: 0.3,
        };
        assert!(
            g.falsify(&gen, 25, 7).is_none(),
            "condition (≤) violated for ratio {} gadget",
            g.ratio
        );
    }
}

/// Lemma 12: the explicit homomorphism `h : π_b → π_s` is onto, which by
/// the paper's Lemma 4 forces `π_s(D) ≤ π_b(D)` on every database. Both
/// halves are checked: the certificate verifies structurally, and the
/// implied inequality holds (with every backend) on the arena database and
/// on correct databases of the reduction.
#[test]
fn lemma12_onto_hom_certificate_and_inequality() {
    let red = Theorem1Reduction::new(toy_instance(2, vec![1, 2], vec![2, 3]));
    let h = red.lemma12_onto_hom();
    assert!(verify_onto_hom(&red.pi_b, &red.pi_s, &h), "Lemma 12 certificate must verify");

    let mut databases = vec![red.d_arena.clone()];
    for val in [vec![0, 0], vec![1, 0], vec![2, 1]] {
        databases.push(red.correct_database(&val));
    }
    for d in &databases {
        let s = count_both(&red.pi_s, d);
        let b = count_both(&red.pi_b, d);
        assert!(s <= b, "Lemma 4/12 inequality fails: π_s = {s} > π_b = {b}");
    }
}

/// `correct_database` really produces *correct* databases in the
/// Section 4 taxonomy, and the arena database itself classifies as
/// correct — the base case of the Theorem 1 argument.
#[test]
fn correct_databases_classify_as_correct() {
    let red = Theorem1Reduction::new(toy_instance(2, vec![1, 2], vec![2, 3]));
    assert_eq!(red.classify(&red.d_arena), Correctness::Correct);
    for val in [vec![0, 0], vec![3, 1]] {
        assert_eq!(red.classify(&red.correct_database(&val)), Correctness::Correct, "{val:?}");
    }
}

/// Every minimized counterexample the falsification fleet ever archived
/// under `tests/fixtures/falsify/` replays forever: the healthy oracle
/// battery must accept it (the bug that produced it is fixed, and the
/// lemma genuinely holds on the minimized structure). A fixture that no
/// longer parses, or that a healthy oracle rejects, is a regression.
#[test]
fn archived_falsify_fixtures_replay_clean() {
    use bagcq_falsify::{fixture, oracle_set};
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/falsify");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("fixture directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dlgp"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no committed fixtures under {dir}");
    let healthy = oracle_set(None);
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let fx = fixture::parse(&text)
            .unwrap_or_else(|e| panic!("{}: malformed fixture: {e}", path.display()));
        let verdict = fixture::replay(&fx, &healthy)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", path.display()));
        assert!(
            !verdict.is_violation(),
            "{}: healthy {} oracle rejects the archived fixture: {verdict:?}",
            path.display(),
            fx.lemma
        );
    }
}
