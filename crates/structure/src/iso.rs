//! Structure isomorphism testing.
//!
//! Several of the paper's constructions are only canonical *up to
//! isomorphism* (products are commutative, blow-up copies are
//! interchangeable), and the test suite wants to assert exactly that.
//! This is a straightforward backtracking isomorphism checker with
//! degree-profile pruning — adequate for the structure sizes the
//! constructions produce (tens of vertices), not a general-purpose graph
//! isomorphism package.

use crate::schema::Schema;
use crate::structure::Structure;
use std::collections::HashMap;
use std::sync::Arc;

/// An invariant fingerprint of a vertex: for every relation and argument
/// position, how many atoms have the vertex there.
fn degree_profile(d: &Structure, schema: &Arc<Schema>) -> Vec<Vec<u32>> {
    let mut profiles: Vec<Vec<u32>> = vec![Vec::new(); d.vertex_count() as usize];
    let mut width = 0usize;
    for r in schema.relations() {
        width += schema.arity(r);
    }
    for p in profiles.iter_mut() {
        p.resize(width, 0);
    }
    let mut offset = 0usize;
    for r in schema.relations() {
        let arity = schema.arity(r);
        for t in d.tuples(r) {
            for (pos, &v) in t.iter().enumerate() {
                profiles[v as usize][offset + pos] += 1;
            }
        }
        offset += arity;
    }
    profiles
}

/// Decides whether `a` and `b` are isomorphic as structures over the same
/// schema (bijection on vertices preserving atoms in both directions and
/// fixing constants: `f(aᴬ) = aᴮ` for every constant `a`).
pub fn isomorphic(a: &Structure, b: &Structure) -> bool {
    let schema = a.schema();
    assert!(
        Arc::ptr_eq(schema, b.schema()) || **schema == **b.schema(),
        "isomorphism requires a common schema"
    );
    if a.vertex_count() != b.vertex_count() {
        return false;
    }
    for r in schema.relations() {
        if a.atom_count(r) != b.atom_count(r) {
            return false;
        }
    }
    let prof_a = degree_profile(a, schema);
    let prof_b = degree_profile(b, schema);
    // Multiset of profiles must agree.
    {
        let mut sa = prof_a.clone();
        let mut sb = prof_b.clone();
        sa.sort();
        sb.sort();
        if sa != sb {
            return false;
        }
    }

    let n = a.vertex_count() as usize;
    let mut map: Vec<Option<u32>> = vec![None; n];
    let mut used: Vec<bool> = vec![false; n];

    // Constants are forced.
    for c in schema.constants() {
        let av = a.constant_vertex(c).0 as usize;
        let bv = b.constant_vertex(c).0;
        match map[av] {
            None => {
                if used[bv as usize] {
                    return false;
                }
                map[av] = Some(bv);
                used[bv as usize] = true;
            }
            Some(prev) if prev == bv => {}
            Some(_) => return false,
        }
    }

    // Candidate lists per vertex, grouped by profile.
    let mut by_profile: HashMap<&[u32], Vec<u32>> = HashMap::new();
    for (v, p) in prof_b.iter().enumerate() {
        by_profile.entry(p.as_slice()).or_default().push(v as u32);
    }

    // Order unassigned vertices by candidate-set size (most constrained
    // first).
    let mut order: Vec<usize> = (0..n).filter(|&v| map[v].is_none()).collect();
    order.sort_by_key(|&v| by_profile.get(prof_a[v].as_slice()).map_or(0, Vec::len));

    backtrack(a, b, schema, &order, 0, &mut map, &mut used, &prof_a, &by_profile)
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    a: &Structure,
    b: &Structure,
    schema: &Arc<Schema>,
    order: &[usize],
    depth: usize,
    map: &mut Vec<Option<u32>>,
    used: &mut Vec<bool>,
    prof_a: &[Vec<u32>],
    by_profile: &HashMap<&[u32], Vec<u32>>,
) -> bool {
    if depth == order.len() {
        return check_full(a, b, schema, map);
    }
    let v = order[depth];
    let Some(candidates) = by_profile.get(prof_a[v].as_slice()) else {
        return false;
    };
    for &w in candidates {
        if used[w as usize] {
            continue;
        }
        map[v] = Some(w);
        used[w as usize] = true;
        if partial_consistent(a, b, schema, map, v)
            && backtrack(a, b, schema, order, depth + 1, map, used, prof_a, by_profile)
        {
            return true;
        }
        map[v] = None;
        used[w as usize] = false;
    }
    false
}

/// Checks atoms all of whose vertices are mapped and which involve `last`.
fn partial_consistent(
    a: &Structure,
    b: &Structure,
    schema: &Arc<Schema>,
    map: &[Option<u32>],
    last: usize,
) -> bool {
    let mut buf: Vec<u32> = Vec::new();
    for r in schema.relations() {
        for t in a.tuples(r) {
            if !t.iter().any(|&v| v as usize == last) {
                continue;
            }
            buf.clear();
            let mut all_mapped = true;
            for &v in t {
                match map[v as usize] {
                    Some(w) => buf.push(w),
                    None => {
                        all_mapped = false;
                        break;
                    }
                }
            }
            if all_mapped && !b.contains_tuple(r, &buf) {
                return false;
            }
        }
    }
    true
}

/// Full verification: the bijection preserves atoms in both directions
/// (atom counts are equal, so forward preservation suffices).
fn check_full(a: &Structure, b: &Structure, schema: &Arc<Schema>, map: &[Option<u32>]) -> bool {
    let mut buf: Vec<u32> = Vec::new();
    for r in schema.relations() {
        for t in a.tuples(r) {
            buf.clear();
            buf.extend(t.iter().map(|&v| map[v as usize].expect("total")));
            if !b.contains_tuple(r, &buf) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::structure::Vertex;

    fn digraph() -> Arc<Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    fn cycle(n: u32, rotate: u32) -> Structure {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(s);
        d.add_vertices(n);
        for i in 0..n {
            let a = (i + rotate) % n;
            let b = (i + rotate + 1) % n;
            d.add_atom(e, &[Vertex(a), Vertex(b)]);
        }
        d
    }

    #[test]
    fn rotated_cycles_isomorphic() {
        assert!(isomorphic(&cycle(5, 0), &cycle(5, 2)));
    }

    #[test]
    fn different_sizes_not_isomorphic() {
        assert!(!isomorphic(&cycle(4, 0), &cycle(5, 0)));
    }

    #[test]
    fn cycle_vs_path_not_isomorphic() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut path = Structure::new(s);
        path.add_vertices(4);
        for i in 0..3 {
            path.add_atom(e, &[Vertex(i), Vertex(i + 1)]);
        }
        // Same vertex count but 3 vs 4 edges → early exit; make it equal
        // edges: C4 vs path-with-chord.
        path.add_atom(e, &[Vertex(0), Vertex(2)]);
        assert!(!isomorphic(&cycle(4, 0), &path));
    }

    #[test]
    fn product_commutes_up_to_iso() {
        let c3 = cycle(3, 0);
        let c4 = cycle(4, 0);
        let ab = c3.product(&c4);
        let ba = c4.product(&c3);
        assert!(isomorphic(&ab, &ba));
    }

    #[test]
    fn constants_must_correspond() {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        b.constant("a");
        let s = b.build();
        // Two structures, each one edge; in d1 the constant is the source,
        // in d2 the target.
        let mut d1 = Structure::new(Arc::clone(&s));
        let v1 = d1.add_vertex();
        let a1 = d1.constant_vertex(s.constant_by_name("a").unwrap());
        d1.add_atom(e, &[a1, v1]);
        let mut d2 = Structure::new(Arc::clone(&s));
        let v2 = d2.add_vertex();
        let a2 = d2.constant_vertex(s.constant_by_name("a").unwrap());
        d2.add_atom(e, &[v2, a2]);
        assert!(!isomorphic(&d1, &d2));
        assert!(isomorphic(&d1, &d1.clone()));
    }

    #[test]
    fn blowup_copies_interchangeable() {
        // blowup(C3, 2) is isomorphic to itself under swapping the copies;
        // sanity: isomorphic to an independently built copy-swapped
        // version (vertex ids permuted).
        let c3 = cycle(3, 0);
        let b1 = c3.blowup(2);
        // Swap copy indices via quotient-style renumbering (v*2+i ↦ v*2+(1-i)).
        let n = b1.vertex_count();
        let map: Vec<u32> = (0..n).map(|v| (v / 2) * 2 + (1 - v % 2)).collect();
        let b2 = b1.quotient(&map, n);
        assert!(isomorphic(&b1, &b2));
    }
}
