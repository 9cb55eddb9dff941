//! `CYCLIQ` queries and the cyclique/cyclass combinatorics of Section 3.1.
//!
//! For a relation `R` of arity `p`, `CYCLIQ(x₁,…,x_p)` asserts that the
//! tuple and all its cyclic shifts are `R`-atoms. A tuple of a structure
//! satisfying this is a *cyclique* (Definition 6); its `≈`-equivalence
//! class under cyclic shifts is its *cyclass*, which is *homogeneous*
//! (singleton), *degenerate* (size strictly between 1 and p), or *normal*
//! (size exactly p) — Definition 7. Lemma 8 (degenerate ⇒ size ≤ p/2) is
//! an elementary group-theory fact that the test suite checks exhaustively
//! on small alphabets.

use bagcq_query::{Query, QueryBuilder, Term};
use bagcq_structure::{RelId, Structure};

/// Adds the `p` cyclic-shift atoms of `CYCLIQ(args)` over `rel` to a query
/// under construction. `args.len()` must equal the arity of `rel`.
pub fn add_cycliq_atoms(qb: &mut QueryBuilder, rel: RelId, args: &[Term]) {
    let p = args.len();
    let mut shifted: Vec<Term> = Vec::with_capacity(p);
    for s in 0..p {
        shifted.clear();
        shifted.extend((0..p).map(|i| args[(s + i) % p]));
        qb.atom(rel, &shifted);
    }
}

/// Builds the standalone boolean query `CYCLIQ(x₁,…,x_p)` with fresh
/// variables named `{prefix}1 … {prefix}p`.
pub fn cycliq_query(
    schema: &std::sync::Arc<bagcq_structure::Schema>,
    rel: RelId,
    prefix: &str,
) -> Query {
    let p = schema.arity(rel);
    let mut qb = Query::builder(std::sync::Arc::clone(schema));
    let vars: Vec<Term> = (1..=p).map(|i| qb.var(&format!("{prefix}{i}"))).collect();
    add_cycliq_atoms(&mut qb, rel, &vars);
    qb.build()
}

/// Is the tuple a cyclique of `d` (all cyclic shifts present)?
pub fn is_cyclique(d: &Structure, rel: RelId, tuple: &[u32]) -> bool {
    let p = tuple.len();
    assert_eq!(p, d.schema().arity(rel));
    let mut shifted = vec![0; p];
    for s in 0..p {
        for i in 0..p {
            shifted[i] = tuple[(s + i) % p];
        }
        if !d.contains_tuple(rel, &shifted) {
            return false;
        }
    }
    true
}

/// All cycliques of `d` on relation `rel` (as owned tuples).
pub fn cycliques(d: &Structure, rel: RelId) -> Vec<Vec<u32>> {
    d.tuples(rel).filter(|t| is_cyclique(d, rel, t)).map(|t| t.to_vec()).collect()
}

/// The cyclass of a tuple: its distinct cyclic shifts.
pub fn cyclass(tuple: &[u32]) -> Vec<Vec<u32>> {
    let p = tuple.len();
    let mut out: Vec<Vec<u32>> = Vec::with_capacity(p);
    for s in 0..p {
        let shifted: Vec<u32> = (0..p).map(|i| tuple[(s + i) % p]).collect();
        if !out.contains(&shifted) {
            out.push(shifted);
        }
    }
    out
}

/// Classification of a cyclique per Definition 7.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CycliqueKind {
    /// `|cyclass| = 1` (all entries equal... more precisely, fixed by every shift).
    Homogeneous,
    /// `1 < |cyclass| < p`.
    Degenerate,
    /// `|cyclass| = p`.
    Normal,
}

/// Classifies a tuple by the size of its cyclass.
pub fn classify(tuple: &[u32]) -> CycliqueKind {
    let size = cyclass(tuple).len();
    let p = tuple.len();
    if size == 1 {
        CycliqueKind::Homogeneous
    } else if size < p {
        CycliqueKind::Degenerate
    } else {
        CycliqueKind::Normal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::naive_count;
    use bagcq_structure::{SchemaBuilder, Vertex};
    use std::sync::Arc;

    #[test]
    fn cycliq_query_shape() {
        let mut b = SchemaBuilder::default();
        let r = b.relation("R", 4);
        let s = b.build();
        let q = cycliq_query(&s, r, "x");
        assert_eq!(q.var_count(), 4);
        assert_eq!(q.atoms().len(), 4);
    }

    #[test]
    fn cyclique_detection() {
        let mut b = SchemaBuilder::default();
        let r = b.relation("R", 3);
        let s = b.build();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(2);
        // Insert all shifts of (0,1,1) but only two shifts of (0,0,1).
        for t in [[0, 1, 1], [1, 1, 0], [1, 0, 1]] {
            d.add_atom(r, &t.map(Vertex));
        }
        d.add_atom(r, &[0, 0, 1].map(Vertex));
        d.add_atom(r, &[0, 1, 0].map(Vertex));
        assert!(is_cyclique(&d, r, &[0, 1, 1]));
        assert!(!is_cyclique(&d, r, &[0, 0, 1]));
        assert_eq!(cycliques(&d, r).len(), 3);
    }

    #[test]
    fn hom_count_equals_cyclique_count() {
        // |Hom(CYCLIQ, D)| = number of cycliques (each hom is an assignment
        // of the p variables, i.e. a tuple whose all shifts are present).
        let mut b = SchemaBuilder::default();
        let r = b.relation("R", 3);
        let s = b.build();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(2);
        for t in [[0, 1, 1], [1, 1, 0], [1, 0, 1], [0, 0, 0]] {
            d.add_atom(r, &t.map(Vertex));
        }
        let q = cycliq_query(&s, r, "x");
        let count = naive_count(&q, &d);
        assert_eq!(count, bagcq_arith::Nat::from_u64(4));
        assert_eq!(cycliques(&d, r).len(), 4);
    }

    #[test]
    fn cyclass_sizes() {
        assert_eq!(cyclass(&[7, 7, 7]).len(), 1);
        assert_eq!(cyclass(&[0, 1, 0, 1]).len(), 2);
        assert_eq!(cyclass(&[0, 1, 2]).len(), 3);
        assert_eq!(classify(&[7, 7, 7]), CycliqueKind::Homogeneous);
        assert_eq!(classify(&[0, 1, 0, 1]), CycliqueKind::Degenerate);
        assert_eq!(classify(&[0, 1, 2]), CycliqueKind::Normal);
    }

    /// Lemma 8, checked exhaustively: for p ≤ 8 and alphabet {0,1,2},
    /// every degenerate tuple has cyclass size ≤ p/2.
    #[test]
    fn lemma8_exhaustive() {
        for p in 2usize..=8 {
            let mut tuple = vec![0u32; p];
            loop {
                if classify(&tuple) == CycliqueKind::Degenerate {
                    let size = cyclass(&tuple).len();
                    assert!(size * 2 <= p, "degenerate {:?} has cyclass {} > p/2", tuple, size);
                }
                // Odometer over alphabet {0,1,2}.
                let mut i = 0;
                loop {
                    if i == p {
                        break;
                    }
                    tuple[i] += 1;
                    if tuple[i] < 3 {
                        break;
                    }
                    tuple[i] = 0;
                    i += 1;
                }
                if i == p {
                    break;
                }
            }
        }
    }

    /// Cyclass size always divides p.
    #[test]
    fn cyclass_size_divides_p() {
        for p in 1usize..=8 {
            let mut tuple = vec![0u32; p];
            loop {
                let size = cyclass(&tuple).len();
                assert_eq!(p % size, 0, "{:?}", tuple);
                let mut i = 0;
                loop {
                    if i == p {
                        break;
                    }
                    tuple[i] += 1;
                    if tuple[i] < 2 {
                        break;
                    }
                    tuple[i] = 0;
                    i += 1;
                }
                if i == p {
                    break;
                }
            }
        }
    }
}
