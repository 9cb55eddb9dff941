//! Instances of the paper's Lemma 11 — the undecidable polynomial
//! comparison problem that Theorem 1 reduces from.
//!
//! An instance is `(c, P_s, P_b)` where both polynomials share the same
//! monomials `𝕋₁ … 𝕋_𝕞`, all of degree exactly `d`, all starting with the
//! variable `x₁`, with coefficients `1 ≤ c_{s,m} ≤ c_{b,m}`. The question —
//! undecidable in general — is whether
//!
//! ```text
//!     c·P_s(Ξ)  ≤  Ξ(x₁)^d · P_b(Ξ)      for every Ξ : vars → ℕ.
//! ```
//!
//! This module represents instances, validates the side conditions, and
//! provides the bounded valuation search the verification harness uses on
//! concrete instances (undecidability is about *all* instances; any fixed
//! instance with a root in a known box is checkable).

use crate::monomial::Monomial;
use crate::polynomial::Polynomial;
use bagcq_arith::{Int, Nat};
use std::fmt;

/// A validated-on-construction Lemma 11 instance.
#[derive(Clone, Debug)]
pub struct Lemma11Instance {
    /// The multiplier `c ≥ 2`.
    pub c: Nat,
    /// The shared monomials `𝕋_m`, each of degree `d`, each starting with
    /// `x₁` (variable index 0).
    pub monomials: Vec<Monomial>,
    /// Coefficients of `P_s` (each ≥ 1).
    pub coeff_s: Vec<Nat>,
    /// Coefficients of `P_b` (each ≥ the matching `coeff_s`).
    pub coeff_b: Vec<Nat>,
    /// Number of variables `n` (indices `0..n`, index 0 is `x₁`).
    pub n_vars: u32,
    /// The common degree `d`.
    pub degree: usize,
}

/// Violation of a Lemma 11 side condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lemma11Error(pub String);

impl fmt::Display for Lemma11Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Lemma 11 instance: {}", self.0)
    }
}

impl std::error::Error for Lemma11Error {}

impl Lemma11Instance {
    /// Validates every side condition from the statement of Lemma 11.
    pub fn validate(&self) -> Result<(), Lemma11Error> {
        if self.c < Nat::from_u64(2) {
            return Err(Lemma11Error(format!("c = {} < 2", self.c)));
        }
        if self.monomials.is_empty() {
            return Err(Lemma11Error("no monomials".into()));
        }
        if self.monomials.len() != self.coeff_s.len() || self.monomials.len() != self.coeff_b.len()
        {
            return Err(Lemma11Error("coefficient/monomial length mismatch".into()));
        }
        if self.degree == 0 {
            return Err(Lemma11Error("degree must be positive".into()));
        }
        for (m, t) in self.monomials.iter().enumerate() {
            if t.degree() != self.degree {
                return Err(Lemma11Error(format!(
                    "monomial {m} has degree {} ≠ d = {}",
                    t.degree(),
                    self.degree
                )));
            }
            if !t.starts_with(0) {
                return Err(Lemma11Error(format!("monomial {m} does not start with x₁")));
            }
            if t.max_var().is_some_and(|v| v >= self.n_vars) {
                return Err(Lemma11Error(format!("monomial {m} uses a variable ≥ n")));
            }
        }
        // Distinct monomials (as functions).
        let mut keys: Vec<_> = self.monomials.iter().map(Monomial::canonical_key).collect();
        keys.sort();
        keys.dedup();
        if keys.len() != self.monomials.len() {
            return Err(Lemma11Error("duplicate monomials".into()));
        }
        for (m, (cs, cb)) in self.coeff_s.iter().zip(self.coeff_b.iter()).enumerate() {
            if cs.is_zero() {
                return Err(Lemma11Error(format!("c_s[{m}] = 0")));
            }
            if cs > cb {
                return Err(Lemma11Error(format!("c_s[{m}] > c_b[{m}]")));
            }
        }
        Ok(())
    }

    /// The polynomial `P_s = Σ c_{s,m}·𝕋_m`.
    pub fn p_s(&self) -> Polynomial {
        Polynomial::from_terms(
            self.monomials
                .iter()
                .zip(self.coeff_s.iter())
                .map(|(m, c)| (Int::from_nat(c.clone()), m.clone()))
                .collect(),
        )
    }

    /// The polynomial `P_b = Σ c_{b,m}·𝕋_m`.
    pub fn p_b(&self) -> Polynomial {
        Polynomial::from_terms(
            self.monomials
                .iter()
                .zip(self.coeff_b.iter())
                .map(|(m, c)| (Int::from_nat(c.clone()), m.clone()))
                .collect(),
        )
    }

    /// The `𝒫 ⊆ vars × positions × monomials` relation of Section 4.4:
    /// all triples `(n, d, m)` with `x_n` the `d`-th variable of `𝕋_m`
    /// (0-based indices here).
    pub fn positions(&self) -> Vec<(u32, usize, usize)> {
        let mut out = Vec::new();
        for (m, t) in self.monomials.iter().enumerate() {
            for (d, &v) in t.occurrences().iter().enumerate() {
                out.push((v, d, m));
            }
        }
        out
    }

    /// Does `c·P_s(Ξ) ≤ Ξ(x₁)^d·P_b(Ξ)` hold at the given valuation?
    pub fn holds_at(&self, valuation: &[Nat]) -> bool {
        assert!(valuation.len() >= self.n_vars as usize);
        let lhs = self.c.mul_ref(&self.p_s().eval_nat(valuation));
        let x1d = valuation[0].pow_u64(self.degree as u64);
        let rhs = x1d.mul_ref(&self.p_b().eval_nat(valuation));
        lhs <= rhs
    }

    /// Exhaustive search for a violating valuation with entries in
    /// `0..=bound`. Returns the first violation found.
    pub fn find_violation(&self, bound: u64) -> Option<Vec<Nat>> {
        crate::valuations(self.n_vars as usize, bound)
            .map(|val| val.into_iter().map(Nat::from_u64).collect::<Vec<Nat>>())
            .find(|nat_val| !self.holds_at(nat_val))
    }
}

impl fmt::Display for Lemma11Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Lemma11[c={}, d={}, n={}]: {}·({}) ≤? x1^{}·({})",
            self.c,
            self.degree,
            self.n_vars,
            self.c,
            self.p_s(),
            self.degree,
            self.p_b()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> Nat {
        Nat::from_u64(v)
    }

    /// A valid toy instance: c = 2, monomials x₁x₁ and x₁x₂, d = 2, n = 2.
    fn toy(cs: [u64; 2], cb: [u64; 2]) -> Lemma11Instance {
        Lemma11Instance {
            c: n(2),
            monomials: vec![Monomial::new(vec![0, 0]), Monomial::new(vec![0, 1])],
            coeff_s: cs.map(n).to_vec(),
            coeff_b: cb.map(n).to_vec(),
            n_vars: 2,
            degree: 2,
        }
    }

    #[test]
    fn valid_instance_validates() {
        assert!(toy([1, 1], [2, 3]).validate().is_ok());
    }

    #[test]
    fn invalid_instances_rejected() {
        let mut bad = toy([1, 1], [2, 3]);
        bad.c = n(1);
        assert!(bad.validate().is_err());

        let mut bad = toy([1, 1], [2, 3]);
        bad.coeff_s[0] = n(5); // exceeds c_b
        assert!(bad.validate().is_err());

        let mut bad = toy([0, 1], [2, 3]);
        bad.coeff_s[0] = n(0);
        assert!(bad.validate().is_err());

        let mut bad = toy([1, 1], [2, 3]);
        bad.monomials[1] = Monomial::new(vec![1, 0]); // doesn't start with x1
        assert!(bad.validate().is_err());

        let mut bad = toy([1, 1], [2, 3]);
        bad.monomials[1] = Monomial::new(vec![0]); // wrong degree
        assert!(bad.validate().is_err());

        let mut bad = toy([1, 1], [2, 3]);
        bad.monomials[1] = Monomial::new(vec![0, 0]); // duplicate of monomial 0
        assert!(bad.validate().is_err());
    }

    #[test]
    fn polynomials_reconstruct() {
        let inst = toy([1, 2], [3, 4]);
        assert_eq!(inst.p_s().coefficient(&Monomial::new(vec![0, 0])), Int::from_i64(1));
        assert_eq!(inst.p_b().coefficient(&Monomial::new(vec![0, 1])), Int::from_i64(4));
    }

    #[test]
    fn positions_relation() {
        let inst = toy([1, 1], [2, 2]);
        let pos = inst.positions();
        // x1 at positions 0,1 of monomial 0; x1 at 0 and x2 at 1 of monomial 1.
        assert!(pos.contains(&(0, 0, 0)));
        assert!(pos.contains(&(0, 1, 0)));
        assert!(pos.contains(&(0, 0, 1)));
        assert!(pos.contains(&(1, 1, 1)));
        assert_eq!(pos.len(), 4);
    }

    #[test]
    fn holds_at_and_violations() {
        // c = 2, P_s = P_b = x₁² + x₁x₂: at Ξ(x₁)=1, Ξ(x₂)=0:
        // lhs = 2·1 = 2, rhs = 1·1 = 1 → violated.
        let inst = toy([1, 1], [1, 1]);
        assert!(!inst.holds_at(&[n(1), n(0)]));
        let viol = inst.find_violation(2).expect("violation exists");
        assert!(!inst.holds_at(&viol));

        // With c_b = 2·c_s the inequality holds everywhere in the box
        // (x1^d ≥ 1 whenever x1 ≥ 1; x1 = 0 zeroes both sides).
        let safe = toy([1, 1], [2, 2]);
        assert!(safe.find_violation(4).is_none());
    }

    #[test]
    fn x1_zero_zeroes_both_sides() {
        let inst = toy([1, 1], [2, 2]);
        // All monomials contain x1, so lhs = 0 = rhs: holds.
        assert!(inst.holds_at(&[n(0), n(7)]));
    }
}
