//! Machine-checked property oracles, one per quantitative lemma.
//!
//! Each oracle receives a materialized [`Context`] plus one database and
//! answers [`Verdict::Pass`], [`Verdict::NotApplicable`] (the lemma's
//! side conditions do not hold for this pair) or a [`Verdict::Violation`]
//! carrying enough detail to reproduce the failure. Every count feeding a
//! verdict is recomputed on **two** registered [`BackendChoice`] kernels
//! and compared bit-identically; a kernel disagreement is reported as its
//! own violation (`<lemma>/backend-divergence`) — the fleet is a
//! falsifier for the counting stack as much as for the paper's algebra.
//!
//! The `break_lemma` hook (CLI: `BAGCQ_FALSIFY_BREAK`) swaps the
//! Lemma 10 oracle's ratio `(m−1)/m` for the off-by-one `(m−2)/m` so the
//! end-to-end tests can prove the detect→shrink→archive pipeline fires.

use crate::corpus::{Context, GadgetKind, Tamper};
use bagcq_arith::{CertOrd, Magnitude, Nat, Rat};
use bagcq_containment::{
    set_contained, CheckRequest, ContainmentChoice, Semantics, Verdict as CheckVerdict,
};
use bagcq_homcount::{eval_power_query, verify_onto_hom, BackendChoice, CountRequest, EvalOptions};
use bagcq_query::{path_query, Query, UnionQuery};
use bagcq_reduction::{eval_union, Correctness, MultiplyGadget};
use bagcq_structure::Structure;

/// A falsified lemma: everything needed to reproduce and file the case.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which oracle fired (possibly with a `/backend-divergence` suffix).
    pub lemma: String,
    /// The context spec line the database was checked under.
    pub context: String,
    /// Human-readable account of the failed identity/inequality.
    pub detail: String,
}

/// An oracle's answer for one (context, database) pair.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The lemma's claim held.
    Pass,
    /// The lemma does not speak about this pair.
    NotApplicable,
    /// The lemma's claim failed.
    Violation(Violation),
}

impl Verdict {
    /// `true` for [`Verdict::Violation`].
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violation(_))
    }
}

/// A quantitative lemma turned into an executable property.
pub trait LemmaOracle: Sync {
    /// Stable oracle name (doubles as the fixture `lemma:` key).
    fn name(&self) -> &'static str;
    /// Checks the lemma on one (context, database) pair.
    fn check(&self, ctx: &Context, db: &Structure) -> Verdict;
}

/// The full oracle battery. `break_lemma: Some("lemma10")` arms the
/// deliberate off-by-one defect used by the pipeline's self-test.
pub fn oracle_set(break_lemma: Option<&str>) -> Vec<Box<dyn LemmaOracle>> {
    vec![
        Box::new(Lemma5Oracle),
        Box::new(Lemma10Oracle { broken: break_lemma == Some("lemma10") }),
        Box::new(Definition3Oracle),
        Box::new(TaxonomyOracle),
        Box::new(Lemma12Oracle),
        Box::new(Lemma15Oracle),
        Box::new(Lemma17Oracle),
        Box::new(Lemma18Oracle),
        Box::new(Lemma19And20Oracle),
        Box::new(Lemma21Oracle),
        Box::new(Lemma22Oracle),
        Box::new(Lemma23And24Oracle),
        Box::new(BagUnionOracle),
        Box::new(SetUcqAllAnyOracle),
    ]
}

fn violation(lemma: &str, ctx: &Context, detail: String) -> Verdict {
    Verdict::Violation(Violation { lemma: lemma.to_string(), context: ctx.spec(), detail })
}

/// Counts `|Hom(q, d)|` with both algorithms, backtracking and the
/// tree-decomposition DP, demanding identical answers.
fn count2(lemma: &str, ctx: &Context, q: &Query, d: &Structure) -> Result<Nat, Verdict> {
    let run = |backend: BackendChoice| {
        CountRequest::new(q, d).backend(backend).run().map_err(|e| {
            violation(
                &format!("{lemma}/backend-divergence"),
                ctx,
                format!("{} failed: {e:?}", backend.label()),
            )
        })
    };
    let a = run(BackendChoice::Naive)?;
    let b = run(BackendChoice::Treewidth)?;
    if a != b {
        return Err(violation(
            &format!("{lemma}/backend-divergence"),
            ctx,
            format!("naive={a} vs treewidth={b} on {q}"),
        ));
    }
    Ok(a)
}

/// Shared Definition 3 check for a gadget against one database:
/// equality (with the lemma's closed-form counts) on the named witness,
/// `ϱ_s(D) ≤ q·ϱ_b(D)` everywhere else. `ratio` is passed explicitly so
/// the broken-oracle hook can inject a wrong one.
fn check_gadget(
    lemma: &str,
    ctx: &Context,
    gadget: &MultiplyGadget,
    ratio: &Rat,
    db: &Structure,
    witness_counts: Option<(Nat, Nat)>,
) -> Verdict {
    if !db.is_nontrivial(gadget.mars, gadget.venus) {
        return Verdict::NotApplicable;
    }
    let s = match count2(lemma, ctx, &gadget.q_s, db) {
        Ok(n) => n,
        Err(v) => return v,
    };
    let b = match count2(lemma, ctx, &gadget.q_b, db) {
        Ok(n) => n,
        Err(v) => return v,
    };
    if db.fingerprint() == gadget.witness.fingerprint() {
        if s.is_zero() {
            return violation(lemma, ctx, "witness gives ϱ_s = 0".into());
        }
        if let Some((es, eb)) = witness_counts {
            if s != es || b != eb {
                return violation(
                    lemma,
                    ctx,
                    format!("witness counts s={s} b={b}, lemma says s={es} b={eb}"),
                );
            }
        }
        if !ratio.eq_scaled(&s, &b) {
            return violation(
                lemma,
                ctx,
                format!("witness ratio s/b = {s}/{b} ≠ claimed {ratio:?}"),
            );
        }
    } else if !ratio.le_scaled(&s, &b) {
        return violation(
            lemma,
            ctx,
            format!("Definition 3 (≤) fails: s={s} b={b} ratio={ratio:?}"),
        );
    }
    Verdict::Pass
}

/// Lemma 5: `β(p)` multiplies by `(p+1)²/2p`, witnessed by
/// `s = (p+1)²`, `b = 2p` on the named structure.
struct Lemma5Oracle;

impl LemmaOracle for Lemma5Oracle {
    fn name(&self) -> &'static str {
        "lemma5"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Gadget { kind: GadgetKind::Beta { p }, gadget } = ctx else {
            return Verdict::NotApplicable;
        };
        let p = *p as u64;
        let witness = (Nat::from_u64((p + 1) * (p + 1)), Nat::from_u64(2 * p));
        check_gadget(self.name(), ctx, gadget, &gadget.ratio, db, Some(witness))
    }
}

/// Lemma 10: `γ(m)` multiplies by `(m−1)/m`, witnessed by `s = m−1`,
/// `b = m`. In broken mode the claimed ratio is off by one: `(m−2)/m`.
struct Lemma10Oracle {
    broken: bool,
}

impl LemmaOracle for Lemma10Oracle {
    fn name(&self) -> &'static str {
        "lemma10"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Gadget { kind: GadgetKind::Gamma { m }, gadget } = ctx else {
            return Verdict::NotApplicable;
        };
        let m = *m as u64;
        let ratio = if self.broken { Rat::from_u64s(m - 2, m) } else { gadget.ratio.clone() };
        let witness = (Nat::from_u64(m - 1), Nat::from_u64(m));
        check_gadget(self.name(), ctx, gadget, &ratio, db, Some(witness))
    }
}

/// Definition 3 for the *composed* gadgets: `α(c)` must multiply by
/// exactly the integer `c` (Lemma 4 composition of `β(2c−1)` and
/// `γ(2c)`), and a free-form chain by the product of its factors.
struct Definition3Oracle;

impl LemmaOracle for Definition3Oracle {
    fn name(&self) -> &'static str {
        "definition3"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Gadget { kind, gadget } = ctx else {
            return Verdict::NotApplicable;
        };
        let expected = match *kind {
            GadgetKind::Alpha { c } => (Nat::from_u64(c), Nat::one()),
            GadgetKind::Chain { p, m } => {
                let (p, m) = (p as u64, m as u64);
                (Nat::from_u64((p + 1) * (p + 1) * (m - 1)), Nat::from_u64(2 * p * m))
            }
            // β and γ are covered by their own lemma oracles.
            _ => return Verdict::NotApplicable,
        };
        if !gadget.ratio.eq_scaled(&expected.0, &expected.1) {
            return violation(
                self.name(),
                ctx,
                format!(
                    "composed ratio {:?} ≠ expected {}/{}",
                    gadget.ratio, expected.0, expected.1
                ),
            );
        }
        check_gadget(self.name(), ctx, gadget, &gadget.ratio, db, None)
    }
}

/// Definition 13 taxonomy: the generator's tamper mode must land in the
/// classification it was designed to produce, and the untampered
/// database must classify as correct.
struct TaxonomyOracle;

impl LemmaOracle for TaxonomyOracle {
    fn name(&self) -> &'static str {
        "definition13"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Arena { params, red } = ctx else {
            return Verdict::NotApplicable;
        };
        let correct = red.correct_database(&params.valuation);
        if red.classify(&correct) != Correctness::Correct {
            return violation(
                self.name(),
                ctx,
                format!("untampered database classifies as {:?}", red.classify(&correct)),
            );
        }
        let got = red.classify(db);
        let expected = match params.tamper {
            Tamper::None => Some(Correctness::Correct),
            // Only binding when the tamper actually changed the database
            // (the shrinker may have stripped it back down).
            Tamper::ExtraSAtom if db.total_atoms() > correct.total_atoms() => {
                Some(Correctness::SlightlyIncorrect)
            }
            Tamper::IdentifyA
                if db.vertex_count() < correct.vertex_count()
                    && db.is_nontrivial(red.mars, red.venus) =>
            {
                Some(Correctness::SeriouslyIncorrect)
            }
            _ => None,
        };
        match expected {
            Some(want) if got != want => violation(
                self.name(),
                ctx,
                format!("tamper {:?} produced {got:?}, expected {want:?}", params.tamper),
            ),
            Some(_) => Verdict::Pass,
            None => Verdict::NotApplicable,
        }
    }
}

/// Lemma 12: the explicit onto homomorphism `π_b ↠ π_s` verifies, hence
/// `π_s(D) ≤ π_b(D)` on every database.
struct Lemma12Oracle;

impl LemmaOracle for Lemma12Oracle {
    fn name(&self) -> &'static str {
        "lemma12"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Arena { red, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        if !verify_onto_hom(&red.pi_b, &red.pi_s, &red.lemma12_onto_hom()) {
            return violation(self.name(), ctx, "Lemma 12 onto witness fails".into());
        }
        let s = match count2(self.name(), ctx, &red.pi_s, db) {
            Ok(n) => n,
            Err(v) => return v,
        };
        let b = match count2(self.name(), ctx, &red.pi_b, db) {
            Ok(n) => n,
            Err(v) => return v,
        };
        if s > b {
            return violation(self.name(), ctx, format!("π_s(D)={s} > π_b(D)={b}"));
        }
        Verdict::Pass
    }
}

/// Lemma 15: on correct databases `π_s(D) = P_s(Ξ_D)` and
/// `π_b(D) = Ξ_D(x₁)^𝕕 · P_b(Ξ_D)`.
struct Lemma15Oracle;

impl LemmaOracle for Lemma15Oracle {
    fn name(&self) -> &'static str {
        "lemma15"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Arena { red, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        if red.classify(db) != Correctness::Correct {
            return Verdict::NotApplicable;
        }
        let val = red.extract_valuation(db);
        let s = match count2(self.name(), ctx, &red.pi_s, db) {
            Ok(n) => n,
            Err(v) => return v,
        };
        let expect_s = red.instance.p_s().eval_nat(&val);
        if s != expect_s {
            return violation(self.name(), ctx, format!("π_s(D)={s} ≠ P_s(Ξ)={expect_s}"));
        }
        let b = match count2(self.name(), ctx, &red.pi_b, db) {
            Ok(n) => n,
            Err(v) => return v,
        };
        let x1d = val[0].pow_u64(red.instance.degree as u64);
        let expect_b = x1d.mul_ref(&red.instance.p_b().eval_nat(&val));
        if b != expect_b {
            return violation(self.name(), ctx, format!("π_b(D)={b} ≠ Ξ(x₁)^𝕕·P_b(Ξ)={expect_b}"));
        }
        Verdict::Pass
    }
}

/// Evaluates a power query with both algorithms, demanding identical
/// exact values (the ζ/δ evaluations of the toy instances stay
/// exact at the default bit budget).
fn eval_power2(
    lemma: &str,
    ctx: &Context,
    pq: &bagcq_query::PowerQuery,
    db: &Structure,
) -> Result<Magnitude, Verdict> {
    let eval = |backend: BackendChoice| {
        let opts = EvalOptions { backend, ..EvalOptions::default() };
        eval_power_query(pq, db, &opts)
    };
    let a = eval(BackendChoice::Naive);
    let b = eval(BackendChoice::Treewidth);
    match (a.as_exact(), b.as_exact()) {
        (Some(x), Some(y)) if x != y => Err(violation(
            &format!("{lemma}/backend-divergence"),
            ctx,
            format!("power query: naive={x} vs treewidth={y}"),
        )),
        _ => Ok(a),
    }
}

/// Lemma 17: `ζ_b(D) = ℂ₁` on correct databases.
struct Lemma17Oracle;

impl LemmaOracle for Lemma17Oracle {
    fn name(&self) -> &'static str {
        "lemma17"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Arena { red, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        if red.classify(db) != Correctness::Correct {
            return Verdict::NotApplicable;
        }
        let zeta = match eval_power2(self.name(), ctx, &red.zeta_b, db) {
            Ok(m) => m,
            Err(v) => return v,
        };
        if zeta.as_exact() != Some(&red.c1) {
            return violation(self.name(), ctx, format!("ζ_b(D)={zeta:?} ≠ ℂ₁={}", red.c1));
        }
        Verdict::Pass
    }
}

/// Lemma 18: slightly incorrect ⇒ `ζ_b(D) ≥ c·ℂ₁`.
struct Lemma18Oracle;

impl LemmaOracle for Lemma18Oracle {
    fn name(&self) -> &'static str {
        "lemma18"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Arena { red, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        if red.classify(db) != Correctness::SlightlyIncorrect {
            return Verdict::NotApplicable;
        }
        let zeta = match eval_power2(self.name(), ctx, &red.zeta_b, db) {
            Ok(m) => m,
            Err(v) => return v,
        };
        let threshold = Magnitude::exact(red.instance.c.mul_ref(&red.c1));
        match zeta.cmp_cert(&threshold) {
            CertOrd::Greater | CertOrd::Equal => Verdict::Pass,
            ord => violation(
                self.name(),
                ctx,
                format!("ζ_b(D)={zeta:?} {ord:?} c·ℂ₁={threshold:?}, expected ≥"),
            ),
        }
    }
}

/// Lemmas 19–20: `δ_b(D) ≥ 1` whenever `D ⊨ Arena`, with equality on
/// correct databases.
struct Lemma19And20Oracle;

impl LemmaOracle for Lemma19And20Oracle {
    fn name(&self) -> &'static str {
        "lemma19-20"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Arena { red, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        let class = red.classify(db);
        if class == Correctness::NotArena {
            return Verdict::NotApplicable;
        }
        let delta = match eval_power2(self.name(), ctx, &red.delta_b, db) {
            Ok(m) => m,
            Err(v) => return v,
        };
        let one = Magnitude::exact(Nat::one());
        match (class, delta.cmp_cert(&one)) {
            (Correctness::Correct, CertOrd::Equal) => Verdict::Pass,
            (Correctness::Correct, ord) => violation(
                self.name(),
                ctx,
                format!("δ_b on correct D: {delta:?} {ord:?} 1, expected = 1"),
            ),
            (_, CertOrd::Less) => {
                violation(self.name(), ctx, format!("δ_b(D)={delta:?} < 1 on an arena model"))
            }
            _ => Verdict::Pass,
        }
    }
}

/// Lemma 21: seriously incorrect non-trivial ⇒ `δ_b(D) > ℂ`.
struct Lemma21Oracle;

impl LemmaOracle for Lemma21Oracle {
    fn name(&self) -> &'static str {
        "lemma21"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Arena { red, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        if red.classify(db) != Correctness::SeriouslyIncorrect
            || !db.is_nontrivial(red.mars, red.venus)
        {
            return Verdict::NotApplicable;
        }
        let delta = match eval_power2(self.name(), ctx, &red.delta_b, db) {
            Ok(m) => m,
            Err(v) => return v,
        };
        let threshold = Magnitude::exact(red.big_c.clone());
        match delta.cmp_cert(&threshold) {
            CertOrd::Greater => Verdict::Pass,
            ord => violation(
                self.name(),
                ctx,
                format!("δ_b(D)={delta:?} {ord:?} ℂ, Lemma 21 requires >"),
            ),
        }
    }
}

/// Lemma 22: for pure constant-free CQs,
/// `φ(blowup(D,k)) = k^j·φ(D)` (j = variable count) and
/// `φ(D^×k) = φ(D)^k`, checked at `k = 2`.
struct Lemma22Oracle;

impl LemmaOracle for Lemma22Oracle {
    fn name(&self) -> &'static str {
        "lemma22"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Traffic { cq, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        let pure = cq.strip_inequalities();
        let base = match count2(self.name(), ctx, &pure, db) {
            Ok(n) => n,
            Err(v) => return v,
        };
        let blown = match count2(self.name(), ctx, &pure, &db.blowup(2)) {
            Ok(n) => n,
            Err(v) => return v,
        };
        let factor = Nat::from_u64(2).pow_u64(pure.var_count() as u64);
        if blown != factor.mul_ref(&base) {
            return violation(
                self.name(),
                ctx,
                format!("blowup law: φ(blowup(D,2))={blown} ≠ 2^j·φ(D)={}", factor.mul_ref(&base)),
            );
        }
        let powered = match count2(self.name(), ctx, &pure, &db.power(2)) {
            Ok(n) => n,
            Err(v) => return v,
        };
        if powered != base.mul_ref(&base) {
            return violation(
                self.name(),
                ctx,
                format!("power law: φ(D^×2)={powered} ≠ φ(D)²={}", base.mul_ref(&base)),
            );
        }
        Verdict::Pass
    }
}

/// Lemmas 23–24 (Theorem 5 machinery): when the inequality query
/// `ψ_s = e(x,y) ∧ x≠y` strictly beats `ψ_b = e(x,y) ∧ e(y,z)` on the
/// seed, the constructed witness `D = blowup(D₀^×k, 2p)` keeps the
/// strict gap with pure queries only.
struct Lemma23And24Oracle;

impl LemmaOracle for Lemma23And24Oracle {
    fn name(&self) -> &'static str {
        "lemma23-24"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Traffic { .. } = ctx else {
            return Verdict::NotApplicable;
        };
        // The witness is (|D₀|·κ)^k-sized; keep the seeds tiny.
        if db.vertex_count() > 6 || db.total_atoms() > 14 {
            return Verdict::NotApplicable;
        }
        let schema = db.schema();
        let psi_s = {
            let mut qb = Query::builder(std::sync::Arc::clone(schema));
            let x = qb.var("x");
            let y = qb.var("y");
            qb.atom_named("e", &[x, y]);
            qb.neq(x, y);
            qb.build()
        };
        let psi_b = path_query(schema, "e", 2);
        let naive =
            |q: &Query, d: &Structure| CountRequest::new(q, d).backend(BackendChoice::Naive).run();
        match bagcq_reduction::eliminate_inequalities(&psi_s, &psi_b, db, 2, &naive) {
            Err(e) => violation(self.name(), ctx, format!("construction count failed: {e}")),
            Ok(Err(_)) => Verdict::NotApplicable,
            Ok(Ok(elim)) => {
                if elim.kappa != 2 {
                    return violation(
                        self.name(),
                        ctx,
                        format!("κ={} for a single inequality, expected 2p=2", elim.kappa),
                    );
                }
                if elim.count_s <= elim.count_b {
                    return violation(
                        self.name(),
                        ctx,
                        format!(
                            "witness not strict: ψ_s(D)={} ≤ ψ_b(D)={}",
                            elim.count_s, elim.count_b
                        ),
                    );
                }
                // Recount both sides dual-backend on the witness.
                if elim.witness.vertex_count() <= 64 {
                    let s = match count2(self.name(), ctx, &psi_s, &elim.witness) {
                        Ok(n) => n,
                        Err(v) => return v,
                    };
                    let b = match count2(self.name(), ctx, &psi_b, &elim.witness) {
                        Ok(n) => n,
                        Err(v) => return v,
                    };
                    if s != elim.count_s || b != elim.count_b {
                        return violation(
                            self.name(),
                            ctx,
                            format!(
                                "witness recount s={s} b={b} ≠ construction counts {}/{}",
                                elim.count_s, elim.count_b
                            ),
                        );
                    }
                }
                Verdict::Pass
            }
        }
    }
}

/// Bag-union semantics: `(φ₁ ∨ … ∨ φ_r)(D) = Σᵢ φᵢ(D)`.
struct BagUnionOracle;

impl LemmaOracle for BagUnionOracle {
    fn name(&self) -> &'static str {
        "bag-union"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Traffic { union, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        let total = eval_union(union, db);
        let mut sum = Nat::zero();
        for q in union.disjuncts() {
            match count2(self.name(), ctx, q, db) {
                Ok(n) => sum.add_assign_ref(&n),
                Err(v) => return v,
            }
        }
        if total != sum {
            return violation(
                self.name(),
                ctx,
                format!("UCQ answer {total} ≠ sum of disjunct answers {sum}"),
            );
        }
        Verdict::Pass
    }
}

/// The Sagiv–Yannakakis all/any reduction behind the `set-ucq` backend:
/// `U₁ ⊑set U₂` iff every disjunct of `U₁` is Chandra–Merlin contained
/// in some disjunct of `U₂`. On every pure traffic CQ/UCQ pair (both
/// orientations) the first-class [`CheckRequest`] backend is run against
/// an independent brute-force all/any recount via [`set_contained`];
/// the verdict is then cross-checked against positivity transfer on the
/// concrete corpus database, and a refuted verdict's witness database is
/// recounted on two kernels (small side holds, big side does not).
struct SetUcqAllAnyOracle;

impl SetUcqAllAnyOracle {
    /// `true` iff the union holds on `db` under set semantics (some
    /// disjunct has a homomorphism), with every count cross-validated
    /// on two kernels.
    fn holds(
        &self,
        ctx: &Context,
        u: &UnionQuery,
        db: &bagcq_structure::Structure,
    ) -> Result<bool, Verdict> {
        for q in u.disjuncts() {
            if count2(self.name(), ctx, q, db)? > Nat::zero() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl LemmaOracle for SetUcqAllAnyOracle {
    fn name(&self) -> &'static str {
        "set-ucq-all-any"
    }

    fn check(&self, ctx: &Context, db: &Structure) -> Verdict {
        let Context::Traffic { cq, union, .. } = ctx else {
            return Verdict::NotApplicable;
        };
        if !cq.is_pure() || !union.is_pure() {
            return Verdict::NotApplicable;
        }
        let single = UnionQuery::from_query(cq.clone());
        for (u_s, u_b) in [(&single, union), (union, &single)] {
            let verdict = match CheckRequest::union((*u_s).clone(), (*u_b).clone())
                .semantics(Semantics::Set)
                .containment(ContainmentChoice::SetUcq)
                .check()
            {
                Ok(v) => v,
                Err(u) => {
                    return violation(
                        self.name(),
                        ctx,
                        format!("set-ucq rejected a pure union pair: {u}"),
                    )
                }
            };
            let brute =
                u_s.disjuncts().iter().all(|p| u_b.disjuncts().iter().any(|q| set_contained(p, q)));
            let proved = match &verdict {
                CheckVerdict::Proved(_) => true,
                CheckVerdict::Refuted(_) => false,
                CheckVerdict::Unknown { .. } => {
                    return violation(
                        self.name(),
                        ctx,
                        "set-ucq answered Unknown; the all/any reduction is exact".into(),
                    )
                }
            };
            if proved != brute {
                return violation(
                    self.name(),
                    ctx,
                    format!(
                        "backend verdict {verdict} disagrees with brute-force all/any ({})",
                        if brute { "contained" } else { "not contained" }
                    ),
                );
            }
            // Positivity transfer on the corpus database: if `U₁ ⊑set U₂`
            // then `U₁` holding on `db` forces `U₂` to hold on `db`.
            let s_holds = match self.holds(ctx, u_s, db) {
                Ok(b) => b,
                Err(v) => return v,
            };
            let b_holds = match self.holds(ctx, u_b, db) {
                Ok(b) => b,
                Err(v) => return v,
            };
            if proved && s_holds && !b_holds {
                return violation(
                    self.name(),
                    ctx,
                    format!("proved containment but {u_s} holds on db while {u_b} does not"),
                );
            }
            // A refuted verdict names its witness: the small side must
            // hold there and the big side must not.
            if let CheckVerdict::Refuted(ce) = &verdict {
                let s_w = match self.holds(ctx, u_s, &ce.database) {
                    Ok(b) => b,
                    Err(v) => return v,
                };
                let b_w = match self.holds(ctx, u_b, &ce.database) {
                    Ok(b) => b,
                    Err(v) => return v,
                };
                if !s_w || b_w {
                    return violation(
                        self.name(),
                        ctx,
                        format!(
                            "refutation witness does not separate: small holds={s_w}, big holds={b_w}"
                        ),
                    );
                }
            }
        }
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, materialize, CorpusConfig};

    #[test]
    fn healthy_oracles_never_fire_on_a_seeded_corpus() {
        let oracles = oracle_set(None);
        for item in generate_corpus(&CorpusConfig { seed: 11, budget: 9 }) {
            let (ctx, dbs) = materialize(&item);
            for db in &dbs {
                for oracle in &oracles {
                    let verdict = oracle.check(&ctx, db);
                    assert!(
                        !verdict.is_violation(),
                        "item {} oracle {}: {verdict:?}",
                        item.id,
                        oracle.name()
                    );
                }
            }
        }
    }

    #[test]
    fn broken_lemma10_fires_on_its_witness() {
        let oracles = oracle_set(Some("lemma10"));
        let lemma10 = oracles.iter().find(|o| o.name() == "lemma10").unwrap();
        let kind = GadgetKind::Gamma { m: 2 };
        let ctx = Context::Gadget { kind, gadget: std::sync::Arc::new(kind.build()) };
        let Context::Gadget { gadget, .. } = &ctx else { unreachable!() };
        let verdict = lemma10.check(&ctx, &gadget.witness.clone());
        assert!(verdict.is_violation(), "{verdict:?}");
        // The healthy oracle passes the same pair.
        let healthy = oracle_set(None);
        let ok = healthy.iter().find(|o| o.name() == "lemma10").unwrap();
        assert!(!ok.check(&ctx, &gadget.witness.clone()).is_violation());
    }

    #[test]
    fn every_lemma_oracle_is_present() {
        let names: Vec<&str> = oracle_set(None).iter().map(|o| o.name()).collect();
        for required in [
            "lemma5",
            "lemma10",
            "definition3",
            "definition13",
            "lemma12",
            "lemma15",
            "lemma17",
            "lemma18",
            "lemma19-20",
            "lemma21",
            "lemma22",
            "lemma23-24",
            "bag-union",
        ] {
            assert!(names.contains(&required), "missing oracle {required}");
        }
    }
}
