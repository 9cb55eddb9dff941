//! # bagcq-polynomial
//!
//! Multivariate polynomials over arbitrary-precision integers — the
//! numerical side of the paper's reduction:
//!
//! * [`Monomial`]: ordered variable-occurrence lists (Lemma 11 cares about
//!   *positions*: `x₁` must be the first variable of every monomial);
//! * [`Polynomial`]: normalized signed-coefficient polynomials with exact
//!   evaluation under valuations `Ξ : vars → ℕ`;
//! * [`Lemma11Instance`]: the `(c, P_s, P_b)` triples of the undecidable
//!   comparison problem `c·P_s(Ξ) ≤ Ξ(x₁)^d·P_b(Ξ)`, with full side-
//!   condition validation and bounded violation search;
//! * [`valuations`]: the box `0..=bound`ⁿ of valuations, in the one order
//!   every exhaustive search and sweep in the workspace walks it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lemma11;
mod monomial;
#[allow(clippy::module_inception)]
mod polynomial;

pub use lemma11::{Lemma11Error, Lemma11Instance};
pub use monomial::Monomial;
pub use polynomial::Polynomial;

/// Every valuation in the box `0..=bound`ⁿ, the first variable counting
/// fastest: `[0,0], [1,0], …, [bound,0], [0,1], …`. For `n = 0` the box
/// holds exactly one valuation, the empty one.
///
/// This order is part of the sweep report format: reports list their
/// points in it, so it must never change.
pub fn valuations(n: usize, bound: u64) -> impl Iterator<Item = Vec<u64>> {
    std::iter::successors(Some(vec![0; n]), move |val| {
        // The first variable below the bound steps up; every variable
        // before it wraps to zero. None left below the bound: done.
        let i = val.iter().position(|&v| v < bound)?;
        let mut next = val.clone();
        next[..i].fill(0);
        next[i] += 1;
        Some(next)
    })
}

#[cfg(test)]
mod tests {
    use super::valuations;

    #[test]
    fn valuations_walk_the_box_first_variable_fastest() {
        let box22: Vec<Vec<u64>> = valuations(2, 2).collect();
        assert_eq!(box22.len(), 9);
        assert_eq!(box22[..4], [vec![0, 0], vec![1, 0], vec![2, 0], vec![0, 1]]);
        assert_eq!(box22[8], vec![2, 2]);
        assert_eq!(valuations(0, 5).collect::<Vec<_>>(), vec![Vec::<u64>::new()]);
        assert_eq!(valuations(3, 0).collect::<Vec<_>>(), vec![vec![0, 0, 0]]);
        assert_eq!(valuations(3, 3).count(), 64);
    }
}
