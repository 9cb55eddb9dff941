//! Verification harness for the Theorem 1 equivalence
//! `ℜ ⇔ ☀` (Section 4.7):
//!
//! * **ℜ**: `∃Ξ : c·P_s(Ξ) > Ξ(x₁)^d·P_b(Ξ)`;
//! * **☀**: `∃ non-trivial D : ℂ·φ_s(D) > φ_b(D)`.
//!
//! The forward direction is *constructive*: from a violating valuation we
//! build the correct database witnessing `☀` and check the strict
//! inequality exactly. The backward direction is checked by sweeping
//! correct, slightly incorrect and seriously incorrect databases and
//! certifying `ℂ·φ_s(D) ≤ φ_b(D)` on each (full universality is of course
//! not mechanically checkable — that is the theorem's point).

use crate::arena::{Correctness, Theorem1Reduction};
use bagcq_arith::{CertOrd, Nat};
use bagcq_homcount::EvalOptions;
use bagcq_polynomial::valuations;
use bagcq_structure::Structure;

/// Outcome of the constructive `ℜ ⇒ ☀` direction.
#[derive(Debug)]
pub struct Theorem1Witness {
    /// The violating valuation.
    pub valuation: Vec<u64>,
    /// The correct database built from it.
    pub database: Structure,
}

impl Theorem1Reduction {
    /// `ℜ ⇒ ☀`, constructively: searches valuations in `0..=bound` for a
    /// violation of the polynomial inequality, builds `D(Ξ)` and checks
    /// `ℂ·φ_s(D) > φ_b(D)` (certified). Returns `None` if no violation is
    /// found in the box.
    pub fn find_phi_witness(&self, bound: u64, opts: &EvalOptions) -> Option<Theorem1Witness> {
        let violation = self.instance.find_violation(bound)?;
        let val_u64: Vec<u64> =
            violation.iter().map(|v| v.to_u64().expect("search box fits u64")).collect();
        let database = self.correct_database(&val_u64);
        // The witness must be strict and non-trivial.
        assert!(
            database.is_nontrivial(self.mars, self.venus),
            "correct databases are always non-trivial"
        );
        match self.compare_phi(&database, opts) {
            CertOrd::Greater => Some(Theorem1Witness { valuation: val_u64, database }),
            other => panic!(
                "reduction bug: polynomial violation at {val_u64:?} but φ-comparison is {other:?}"
            ),
        }
    }

    /// One `☀ ⇒ ℜ` sweep point: checks `ℂ·φ_s(D) ≤ φ_b(D)` (certified)
    /// on the three databases derived from one valuation — the correct
    /// database plus its slightly- and seriously-incorrect perturbations.
    /// Returns the number of databases checked (3), or the first
    /// counterexample to the *expected* behaviour.
    ///
    /// This is the unit of work a resumable sweep commits to its store:
    /// a point is self-contained, so a killed sweep resumes at the next
    /// uncommitted valuation.
    pub fn sweep_point(&self, val: &[u64], opts: &EvalOptions) -> Result<usize, String> {
        let _span = bagcq_obs::span("reduction.sweep_point", "point");
        let mut checked = 0usize;
        let nat_val: Vec<Nat> = val.iter().map(|&v| Nat::from_u64(v)).collect();
        let poly_holds = self.instance.holds_at(&nat_val);
        let d = self.correct_database(val);

        // Correct database: φ-inequality must match the polynomial
        // inequality exactly (Lemmas 15, 17, 20).
        let phi_holds = self
            .holds_on(&d, opts)
            .ok_or_else(|| format!("undecided comparison on correct D at {val:?}"))?;
        if phi_holds != poly_holds {
            return Err(format!(
                "correct D at {val:?}: polynomial says {poly_holds}, φ says {phi_holds}"
            ));
        }
        checked += 1;

        // Slightly incorrect: add one extra S-atom. The inequality
        // must hold regardless of the valuation (Lemma 18 pays for it).
        let mut slight = d.clone();
        let a1 = slight.constant_vertex(self.a_m[0]);
        let b1 = slight.constant_vertex(self.b_n[0]);
        slight.add_atom(self.s_rels[0], &[a1, b1]);
        debug_assert_eq!(self.classify(&slight), Correctness::SlightlyIncorrect);
        if self.holds_on(&slight, opts) != Some(true) {
            return Err(format!("slightly incorrect D at {val:?} violates the inequality"));
        }
        checked += 1;

        // Seriously incorrect: identify a constant pair (keeping ♂/♀
        // distinct). δ_b ≥ 2^ℂ must dominate (Lemma 21).
        let av = d.constant_vertex(self.a_const);
        let a1v = d.constant_vertex(self.a_m[0]);
        let serious = d.identify(av, a1v);
        debug_assert_eq!(self.classify(&serious), Correctness::SeriouslyIncorrect);
        debug_assert!(serious.is_nontrivial(self.mars, self.venus));
        if self.holds_on(&serious, opts) != Some(true) {
            return Err(format!("seriously incorrect D at {val:?} violates the inequality"));
        }
        checked += 1;
        Ok(checked)
    }

    /// `☀ ⇒ ℜ` sweep: [`Theorem1Reduction::sweep_point`] over every
    /// valuation in `0..=bound`ⁿ. Returns the total number of databases
    /// checked, or the first failure.
    pub fn sweep_databases(&self, bound: u64, opts: &EvalOptions) -> Result<usize, String> {
        valuations(self.instance.n_vars as usize, bound)
            .map(|val| self.sweep_point(&val, opts))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::toy_instance;
    use bagcq_hilbert::{by_name, reduce};

    /// ℜ ⇒ ☀ on a toy instance engineered to violate: c = 2 with
    /// P_s = P_b (coefficients equal) violates at Ξ = (1, 0).
    #[test]
    fn forward_direction_toy() {
        let red = Theorem1Reduction::new(toy_instance(2, vec![1, 1], vec![1, 1]));
        let opts = EvalOptions::default();
        let w = red.find_phi_witness(2, &opts).expect("violation in box");
        assert!(w.database.is_nontrivial(red.mars, red.venus));
    }

    /// ¬ℜ ⇒ ¬☀ sweep on a safe toy instance (c_b = 2·c_s makes the
    /// inequality hold everywhere).
    #[test]
    fn backward_direction_toy() {
        let red = Theorem1Reduction::new(toy_instance(2, vec![1, 1], vec![2, 2]));
        let opts = EvalOptions::default();
        let checked = red.sweep_databases(2, &opts).expect("sweep clean");
        assert!(checked >= 27, "checked only {checked} databases");
    }

    /// End-to-end: Hilbert instance with a root (pell) → reduction →
    /// database witness for ☀.
    #[test]
    fn end_to_end_pell() {
        let pell = by_name("pell").unwrap();
        let chain = reduce(&pell.poly);
        let red = Theorem1Reduction::new(chain.instance.clone());
        let opts = EvalOptions::default();
        // Pell's root (3,2) extends to the instance valuation (1,3,2);
        // the violation search box must include it.
        let w = red.find_phi_witness(3, &opts).expect("pell-derived witness");
        assert_eq!(w.valuation[0], 1, "ξ₁ = 1 at the Lemma 27 witness");
    }

    /// End-to-end: rootless instance (parity) → no witness in the box and
    /// a clean sweep.
    #[test]
    fn end_to_end_parity() {
        let parity = by_name("parity").unwrap();
        let chain = reduce(&parity.poly);
        let red = Theorem1Reduction::new(chain.instance.clone());
        let opts = EvalOptions::default();
        assert!(red.find_phi_witness(2, &opts).is_none());
        red.sweep_databases(1, &opts).expect("sweep clean");
    }
}
