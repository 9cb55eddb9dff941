//! Concrete Hilbert's-10th-problem instances.
//!
//! Undecidability is a statement about *all* instances; the verification
//! harness runs the paper's reduction on a corpus of concrete Diophantine
//! equations whose root status is known — either a root is exhibited, or
//! rootlessness over ℕ is provable by elementary means (parity, sign,
//! bounds) and additionally checked by bounded search.

use bagcq_arith::{Int, Nat};
use bagcq_polynomial::{valuations, Monomial, Polynomial};
use std::fmt;

/// A Diophantine instance: does `Q(Ξ) = 0` for some `Ξ : vars → ℕ`?
#[derive(Clone, Debug)]
pub struct DiophantineInstance {
    /// Human-readable name.
    pub name: &'static str,
    /// The polynomial `Q` (variables indexed from 0).
    pub poly: Polynomial,
    /// Number of variables.
    pub n_vars: u32,
    /// A known root, if any.
    pub known_root: Option<Vec<u64>>,
    /// `true` when rootlessness over ℕ is provable by elementary argument
    /// (documented per instance in [`library`]).
    pub provably_rootless: bool,
}

impl DiophantineInstance {
    /// Evaluates `Q` at a `u64` valuation.
    pub fn eval(&self, valuation: &[u64]) -> Int {
        let nat_val: Vec<Nat> = valuation.iter().map(|&v| Nat::from_u64(v)).collect();
        self.poly.eval(&nat_val)
    }

    /// `true` iff the given valuation is a root.
    pub fn is_root(&self, valuation: &[u64]) -> bool {
        self.eval(valuation).is_zero()
    }

    /// Exhaustive root search with entries in `0..=bound`.
    pub fn find_root(&self, bound: u64) -> Option<Vec<u64>> {
        valuations(self.n_vars as usize, bound).find(|val| self.is_root(val))
    }

    /// Internal consistency: the `known_root` really is a root, and
    /// `provably_rootless` instances have no root in a small box.
    pub fn self_check(&self, bound: u64) -> Result<(), String> {
        if let Some(root) = &self.known_root {
            if !self.is_root(root) {
                return Err(format!("{}: claimed root {:?} is not a root", self.name, root));
            }
        }
        if self.provably_rootless {
            if let Some(r) = self.find_root(bound) {
                return Err(format!("{}: claimed rootless but {:?} is a root", self.name, r));
            }
        }
        Ok(())
    }
}

impl fmt::Display for DiophantineInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} = 0", self.name, self.poly)
    }
}

fn i(v: i64) -> Int {
    Int::from_i64(v)
}

fn m(occ: &[u32]) -> Monomial {
    Monomial::new(occ.to_vec())
}

/// The instance corpus used across tests, examples, and experiments.
pub fn library() -> Vec<DiophantineInstance> {
    vec![
        // x − 3 = 0: root x = 3.
        DiophantineInstance {
            name: "linear-solvable",
            poly: Polynomial::from_terms(vec![(i(1), m(&[0])), (i(-3), Monomial::unit())]),
            n_vars: 1,
            known_root: Some(vec![3]),
            provably_rootless: false,
        },
        // x + 1 = 0: rootless over ℕ (value ≥ 1).
        DiophantineInstance {
            name: "shifted-positive",
            poly: Polynomial::from_terms(vec![(i(1), m(&[0])), (i(1), Monomial::unit())]),
            n_vars: 1,
            known_root: None,
            provably_rootless: true,
        },
        // 2x − 2y − 1 = 0: rootless (parity: lhs is odd... 2(x−y) = 1 impossible).
        DiophantineInstance {
            name: "parity",
            poly: Polynomial::from_terms(vec![
                (i(2), m(&[0])),
                (i(-2), m(&[1])),
                (i(-1), Monomial::unit()),
            ]),
            n_vars: 2,
            known_root: None,
            provably_rootless: true,
        },
        // Pell: x² − 2y² − 1 = 0: root (3, 2).
        DiophantineInstance {
            name: "pell",
            poly: Polynomial::from_terms(vec![
                (i(1), m(&[0, 0])),
                (i(-2), m(&[1, 1])),
                (i(-1), Monomial::unit()),
            ]),
            n_vars: 2,
            known_root: Some(vec![3, 2]),
            provably_rootless: false,
        },
        // Pythagoras: x² + y² − z² = 0: root (3, 4, 5).
        DiophantineInstance {
            name: "pythagoras",
            poly: Polynomial::from_terms(vec![
                (i(1), m(&[0, 0])),
                (i(1), m(&[1, 1])),
                (i(-1), m(&[2, 2])),
            ]),
            n_vars: 3,
            known_root: Some(vec![3, 4, 5]),
            provably_rootless: false,
        },
        // Markov: x² + y² + z² − 3xyz = 0: root (1, 1, 1).
        DiophantineInstance {
            name: "markov",
            poly: Polynomial::from_terms(vec![
                (i(1), m(&[0, 0])),
                (i(1), m(&[1, 1])),
                (i(1), m(&[2, 2])),
                (i(-3), m(&[0, 1, 2])),
            ]),
            n_vars: 3,
            known_root: Some(vec![1, 1, 1]),
            provably_rootless: false,
        },
        // x² + y² − 7 = 0: rootless (7 is not a sum of two squares).
        DiophantineInstance {
            name: "sum-of-two-squares-7",
            poly: Polynomial::from_terms(vec![
                (i(1), m(&[0, 0])),
                (i(1), m(&[1, 1])),
                (i(-7), Monomial::unit()),
            ]),
            n_vars: 2,
            known_root: None,
            provably_rootless: true,
        },
        // x³ − 8 = 0: root x = 2.
        DiophantineInstance {
            name: "cubic",
            poly: Polynomial::from_terms(vec![(i(1), m(&[0, 0, 0])), (i(-8), Monomial::unit())]),
            n_vars: 1,
            known_root: Some(vec![2]),
            provably_rootless: false,
        },
        // x·y − 6 = 0: root (2, 3).
        DiophantineInstance {
            name: "factorization-6",
            poly: Polynomial::from_terms(vec![(i(1), m(&[0, 1])), (i(-6), Monomial::unit())]),
            n_vars: 2,
            known_root: Some(vec![2, 3]),
            provably_rootless: false,
        },
        // x² + 1 = 0: rootless (value ≥ 1).
        DiophantineInstance {
            name: "square-plus-one",
            poly: Polynomial::from_terms(vec![(i(1), m(&[0, 0])), (i(1), Monomial::unit())]),
            n_vars: 1,
            known_root: None,
            provably_rootless: true,
        },
    ]
}

/// Fetches a library instance by name.
pub fn by_name(name: &str) -> Option<DiophantineInstance> {
    library().into_iter().find(|inst| inst.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_self_checks() {
        for inst in library() {
            inst.self_check(8).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn find_root_matches_known() {
        let pell = by_name("pell").unwrap();
        let root = pell.find_root(5).expect("pell root in box");
        assert!(pell.is_root(&root));
    }

    #[test]
    fn rootless_instances_have_no_small_roots() {
        for inst in library().into_iter().filter(|i| i.provably_rootless) {
            assert!(inst.find_root(6).is_none(), "{} has a root", inst.name);
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("markov").is_some());
        assert!(by_name("not-a-real-instance").is_none());
    }
}
