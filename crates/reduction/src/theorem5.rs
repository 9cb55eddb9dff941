//! Theorem 5 / Lemmas 23–24 (Section 5): eliminating inequalities from
//! the s-query by blow-ups and products.
//!
//! Given `ψ_s` (with `p ≥ 1` inequalities), `ψ_b` (pure), and a structure
//! `D₀` with `ψ′_s(D₀) > ψ_b(D₀)` (where `ψ′_s` strips the inequalities),
//! the construction produces `D = blowup(D₀^×k, κ)` with
//! `ψ_s(D) > ψ_b(D)`:
//!
//! * every homomorphism of `ψ′_s` into a blow-up lifts over `κ^{vars}`
//!   copy assignments, of which at least a `(1 − p/κ)` fraction satisfies
//!   all `p` inequalities (the generalization of Lemma 24's flipping
//!   injection; with `κ = 2p` at least half);
//! * by Lemma 22, powering `D₀` amplifies the strict ratio
//!   `ψ′_s(D₀)/ψ_b(D₀) > 1` past the constant `2·κ^{j}` lost to the
//!   blow-up (`j` = variables of `ψ_b`).
//!
//! Hence (Lemma 23) `∃D: ψ_s(D) > ψ_b(D)` iff `∃D₀: ψ′_s(D₀) > ψ_b(D₀)`,
//! and Theorem 5 follows: `QCP^bag` with inequalities only in the s-query
//! is decidable iff `QCP^bag_CQ` is.

use bagcq_arith::Nat;
use bagcq_query::Query;
use bagcq_structure::Structure;

/// The constructed Theorem 5 witness.
#[derive(Debug)]
pub struct InequalityElimination {
    /// The product power `k` applied to `D₀`.
    pub k: u32,
    /// The blow-up factor `κ = 2p`.
    pub kappa: u32,
    /// The final database `D = blowup(D₀^×k, κ)`.
    pub witness: Structure,
    /// `ψ_s(D)` (with inequalities).
    pub count_s: Nat,
    /// `ψ_b(D)`.
    pub count_b: Nat,
}

/// Errors of [`eliminate_inequalities`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EliminationError {
    /// `ψ_b` must be a pure CQ.
    BigQueryHasInequalities,
    /// `ψ_s` has no inequalities — nothing to do (use `D₀` directly).
    NothingToEliminate,
    /// The seed does not satisfy `ψ′_s(D₀) > ψ_b(D₀)`.
    SeedNotStrict,
    /// The required power exceeds the safety cap (the witness would not
    /// fit in memory).
    PowerTooLarge {
        /// The cap that was hit.
        cap: u32,
    },
}

/// Runs the Lemma 23 construction. `max_power` caps `k` (the witness has
/// `(|D₀| · κ)^k`-ish vertices, so keep seeds tiny).
///
/// Its four counts — `ψ′_s` and `ψ_b` on `D₀`, then both sides on the
/// witness — go through `count`, whose error comes back unchanged in the
/// outer `Err`.
pub fn eliminate_inequalities<E>(
    psi_s: &Query,
    psi_b: &Query,
    d0: &Structure,
    max_power: u32,
    count: &dyn Fn(&Query, &Structure) -> Result<Nat, E>,
) -> Result<Result<InequalityElimination, EliminationError>, E> {
    if !psi_b.is_pure() {
        return Ok(Err(EliminationError::BigQueryHasInequalities));
    }
    let p = psi_s.inequalities().len();
    if p == 0 {
        return Ok(Err(EliminationError::NothingToEliminate));
    }
    let s0 = count(&psi_s.strip_inequalities(), d0)?;
    let b0 = count(psi_b, d0)?;
    if s0 <= b0 {
        return Ok(Err(EliminationError::SeedNotStrict));
    }

    let kappa = (2 * p) as u32;
    let j = psi_b.var_count() as u64;
    // Threshold: ψ′_s(D₀^k) > 2·κ^j·ψ_b(D₀^k), i.e. s0^k > 2·κ^j·b0^k.
    let threshold = Nat::from_u64(2).mul_ref(&Nat::from_u64(kappa as u64).pow_u64(j));
    let mut k = 1u32;
    loop {
        let lhs = s0.pow_u64(k as u64);
        let rhs = threshold.mul_ref(&b0.pow_u64(k as u64));
        if lhs > rhs {
            break;
        }
        k += 1;
        if k > max_power {
            return Ok(Err(EliminationError::PowerTooLarge { cap: max_power }));
        }
    }

    let witness = d0.power(k).blowup(kappa);
    let count_s = count(psi_s, &witness)?;
    let count_b = count(psi_b, &witness)?;
    assert!(
        count_s > count_b,
        "Lemma 23 construction failed: ψ_s = {count_s}, ψ_b = {count_b} (k = {k}, κ = {kappa})"
    );
    Ok(Ok(InequalityElimination { k, kappa, witness, count_s, count_b }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::naive_count;
    use bagcq_structure::{SchemaBuilder, Vertex};
    use std::convert::Infallible;
    use std::sync::Arc;

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    /// The construction, counting with the crate's backtracking counter.
    fn lift(
        psi_s: &Query,
        psi_b: &Query,
        d0: &Structure,
        max_power: u32,
    ) -> Result<InequalityElimination, EliminationError> {
        let naive = |q: &Query, d: &Structure| Ok::<_, Infallible>(naive_count(q, d));
        eliminate_inequalities(psi_s, psi_b, d0, max_power, &naive).expect("infallible counter")
    }

    /// ψ_s = E(x,y) ∧ x≠y against ψ_b = E(u,v) ∧ E(v,w) (2-paths).
    #[test]
    fn eliminates_single_inequality() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        let psi_s = qb.build();

        // ψ_b: 2-paths, which a seed of isolated edges does not contain.
        let mut qb = Query::builder(Arc::clone(&s));
        let u = qb.var("u");
        let v = qb.var("v");
        let w = qb.var("w");
        qb.atom_named("E", &[u, v]).atom_named("E", &[v, w]);
        let psi_b = qb.build();

        // Seed: 3 isolated edges: ψ′_s = 3 > 0 = ψ_b, so k = 1 suffices.
        let mut d0 = Structure::new(Arc::clone(&s));
        d0.add_vertices(6);
        d0.add_atom(e, &[Vertex(0), Vertex(1)]);
        d0.add_atom(e, &[Vertex(2), Vertex(3)]);
        d0.add_atom(e, &[Vertex(4), Vertex(5)]);

        let r = lift(&psi_s, &psi_b, &d0, 8).expect("construction works");
        assert!(r.count_s > r.count_b);
        assert_eq!(r.kappa, 2);
        assert_eq!(r.k, 1, "b0 = 0 should need no powering");
    }

    /// A seed where ψ_b is nonzero, forcing k > 1.
    #[test]
    fn powering_amplifies_ratio() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        // ψ_s = E(x,y) ∧ x≠y; ψ_b = E(u,u) (loop query).
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        let psi_s = qb.build();
        let mut qb = Query::builder(Arc::clone(&s));
        let u = qb.var("u");
        qb.atom_named("E", &[u, u]);
        let psi_b = qb.build();

        // Seed: one loop + three proper edges: ψ′_s = 4 > 1 = ψ_b.
        let mut d0 = Structure::new(Arc::clone(&s));
        d0.add_vertices(4);
        d0.add_atom(e, &[Vertex(0), Vertex(0)]);
        d0.add_atom(e, &[Vertex(0), Vertex(1)]);
        d0.add_atom(e, &[Vertex(1), Vertex(2)]);
        d0.add_atom(e, &[Vertex(2), Vertex(3)]);

        let r = lift(&psi_s, &psi_b, &d0, 8).expect("construction works");
        assert!(r.count_s > r.count_b, "{} vs {}", r.count_s, r.count_b);
        assert!(r.k >= 1);
    }

    /// Two inequalities ⇒ κ = 4.
    #[test]
    fn multiple_inequalities() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom_named("E", &[x, y]).atom_named("E", &[y, z]);
        qb.neq(x, y).neq(y, z);
        let psi_s = qb.build();
        let mut qb = Query::builder(Arc::clone(&s));
        let u = qb.var("u");
        qb.atom_named("E", &[u, u]);
        let psi_b = qb.build();

        // Seed: a directed path 0→1→2 plus a loop at 3, so ψ′_s = 2 > 1 = ψ_b.
        let mut d0 = Structure::new(Arc::clone(&s));
        d0.add_vertices(4);
        d0.add_atom(e, &[Vertex(0), Vertex(1)]);
        d0.add_atom(e, &[Vertex(1), Vertex(2)]);
        d0.add_atom(e, &[Vertex(3), Vertex(3)]);

        let r = lift(&psi_s, &psi_b, &d0, 10).expect("construction works");
        assert_eq!(r.kappa, 4);
        assert!(r.count_s > r.count_b);
    }

    #[test]
    fn error_cases() {
        let s = digraph();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]);
        let pure = qb.build();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        let with_ineq = qb.build();
        let d0 = Structure::new(Arc::clone(&s));

        assert_eq!(
            lift(&pure, &with_ineq, &d0, 4).unwrap_err(),
            EliminationError::BigQueryHasInequalities
        );
        assert_eq!(lift(&pure, &pure, &d0, 4).unwrap_err(), EliminationError::NothingToEliminate);
        assert_eq!(lift(&with_ineq, &pure, &d0, 4).unwrap_err(), EliminationError::SeedNotStrict);
    }
}
