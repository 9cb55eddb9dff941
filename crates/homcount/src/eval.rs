//! Evaluation of symbolic [`PowerQuery`]s into certified [`Magnitude`]s.
//!
//! `Φ = ∏ θᵢ↑eᵢ` evaluates as `Φ(D) = ∏ θᵢ(D)^{eᵢ}` (Lemma 1 +
//! Definition 2). Each base is counted exactly once through the
//! [`CountRequest`] API; the powers and products are assembled in
//! [`Magnitude`] arithmetic so the result stays exact while it fits a bit
//! budget and degrades to a certified enclosure beyond that — which is how
//! `φ_b = π_b ∧̄ ζ_b ∧̄ δ_b` with its astronomical exponent `C` is
//! evaluated at all.
//!
//! The free-function counting entry points that used to live here
//! (`count`, `count_with`, `try_count_with`) are gone: [`CountRequest`]
//! is the single counting surface — see [`crate::backend`].

use crate::backend::{BackendChoice, CountRequest};
use bagcq_arith::{Magnitude, Nat, DEFAULT_EXACT_BITS};
use bagcq_query::{PowerQuery, Query};
use bagcq_structure::Structure;
use std::convert::Infallible;

/// The two counting algorithms, as [`BackendChoice::family`] reports
/// them: what cross-validation pairs against the other one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// Reference backtracking engine.
    Naive,
    /// Tree-decomposition dynamic programming (default).
    #[default]
    Treewidth,
}

/// Evaluation options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Backend preference for counting base queries.
    pub backend: BackendChoice,
    /// Bit budget below which magnitudes stay exact.
    pub exact_bits: u64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { backend: BackendChoice::Auto, exact_bits: DEFAULT_EXACT_BITS }
    }
}

/// Evaluates a symbolic power query on a database.
pub fn eval_power_query(pq: &PowerQuery, d: &Structure, opts: &EvalOptions) -> Magnitude {
    let _span = bagcq_obs::span("homcount.power", "eval");
    let count =
        |q: &Query| Ok::<_, Infallible>(CountRequest::new(q, d).backend(opts.backend).count());
    eval_power_query_with(pq, opts.exact_bits, count).unwrap_or_else(|never| match never {})
}

/// Evaluates a symbolic power query with `count` giving each factor's
/// base `θᵢ(D)`: `Φ(D) = ∏ θᵢ(D)^{eᵢ}`, exact below `exact_bits` bits.
/// The first error `count` returns ends the evaluation.
pub fn eval_power_query_with<E>(
    pq: &PowerQuery,
    exact_bits: u64,
    mut count: impl FnMut(&Query) -> Result<Nat, E>,
) -> Result<Magnitude, E> {
    let mut acc = Magnitude::exact_with_budget(Nat::one(), exact_bits);
    for f in pq.factors() {
        let base = count(&f.base)?;
        acc = acc.mul(&Magnitude::exact_with_budget(base, exact_bits).pow(&f.exponent));
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_arith::CertOrd;
    use bagcq_query::path_query;
    use bagcq_structure::{SchemaBuilder, Vertex};
    use std::sync::Arc;

    fn complete(n: u32) -> (Arc<bagcq_structure::Schema>, Structure) {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let s = b.build();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(n);
        for i in 0..n {
            for j in 0..n {
                d.add_atom(e, &[Vertex(i), Vertex(j)]);
            }
        }
        (s, d)
    }

    #[test]
    fn symbolic_matches_expanded() {
        let (s, d) = complete(3);
        let q = path_query(&s, "E", 1); // 9 homs
        let pq = PowerQuery::power(q.clone(), Nat::from_u64(4));
        let symbolic = eval_power_query(&pq, &d, &EvalOptions::default());
        let flat = pq.expand(100).unwrap();
        let direct = CountRequest::new(&flat, &d).count();
        assert_eq!(symbolic.as_exact(), Some(&direct));
        assert_eq!(direct, Nat::from_u64(9).pow_u64(4));
    }

    #[test]
    fn huge_exponent_certified() {
        let (s, d) = complete(2);
        let q = path_query(&s, "E", 1); // 4 homs
        let huge = Nat::from_u64(10_000_000);
        let pq = PowerQuery::power(q, huge);
        let m = eval_power_query(&pq, &d, &EvalOptions::default());
        assert!(!m.is_exact());
        // 4^10^7 = 2^(2·10^7): certifiably bigger than 2^10^7 and smaller
        // than 2^(3·10^7).
        let below = Magnitude::from_u64(2).pow(&Nat::from_u64(10_000_000));
        let above = Magnitude::from_u64(2).pow(&Nat::from_u64(30_000_000));
        assert_eq!(m.cmp_cert(&below), CertOrd::Greater);
        assert_eq!(m.cmp_cert(&above), CertOrd::Less);
    }

    #[test]
    fn zero_base_collapses() {
        let (s, _) = complete(3);
        let empty_d = Structure::new(Arc::clone(&s));
        let q = path_query(&s, "E", 1);
        let pq = PowerQuery::power(q, Nat::from_u64(1_000_000_000));
        let m = eval_power_query(&pq, &empty_d, &EvalOptions::default());
        assert_eq!(m.as_exact(), Some(&Nat::zero()));
    }

    #[test]
    fn power_eval_respects_backend_choice() {
        let (s, d) = complete(3);
        let q = path_query(&s, "E", 2);
        let pq = PowerQuery::power(q, Nat::from_u64(3));
        let reference = eval_power_query(
            &pq,
            &d,
            &EvalOptions { backend: BackendChoice::Naive, ..EvalOptions::default() },
        );
        for choice in BackendChoice::ALL {
            let m = eval_power_query(
                &pq,
                &d,
                &EvalOptions { backend: choice, ..EvalOptions::default() },
            );
            assert_eq!(m.as_exact(), reference.as_exact(), "backend {choice}");
        }
    }

    #[test]
    fn unit_power_query_is_one() {
        let (_, d) = complete(3);
        let m = eval_power_query(&PowerQuery::unit(), &d, &EvalOptions::default());
        assert_eq!(m.as_exact(), Some(&Nat::one()));
    }
}
