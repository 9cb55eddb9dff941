//! Finite relational structures (the paper's "databases").
//!
//! A [`Structure`] is a finite set of vertices, an interpretation of every
//! schema constant as a vertex, and — per relation symbol — a *set* of
//! tuples (databases here are ordinary relational structures; it is query
//! *answers* that are bags, never the database itself; see the paper's
//! footnote 3).
//!
//! Vertices are dense `u32` ids. Tuples are stored flattened in insertion
//! order (for cheap iteration by the counting engines) with a parallel hash
//! set for O(1) membership and de-duplication.

use crate::fingerprint::{Fingerprint, FingerprintHasher};
use crate::schema::{ConstId, RelId, Schema};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A vertex (element of the active domain) of a [`Structure`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Vertex(pub u32);

/// Tuple storage for one relation symbol.
#[derive(Clone, Debug)]
struct RelationData {
    arity: usize,
    /// Flattened tuples, `arity` entries each, in insertion order.
    flat: Vec<u32>,
    /// Membership index over the same tuples.
    set: HashSet<Box<[u32]>>,
}

impl RelationData {
    fn new(arity: usize) -> Self {
        RelationData { arity, flat: Vec::new(), set: HashSet::new() }
    }

    fn len(&self) -> usize {
        self.flat.len() / self.arity
    }
}

/// A finite relational structure over a shared [`Schema`].
#[derive(Clone)]
pub struct Structure {
    schema: Arc<Schema>,
    vertex_count: u32,
    const_interp: Vec<Vertex>,
    rels: Vec<RelationData>,
}

impl Structure {
    /// Creates a structure whose initial vertices are exactly the schema
    /// constants, interpreted as pairwise-distinct fresh vertices
    /// `0..constant_count` (in declaration order). Use
    /// [`Structure::quotient`] afterwards to identify constants — that is
    /// how "seriously incorrect" databases (Definition 13) are built.
    pub fn new(schema: Arc<Schema>) -> Self {
        let k = schema.constant_count() as u32;
        let rels = schema.relations().map(|r| RelationData::new(schema.arity(r))).collect();
        Structure { schema, vertex_count: k, const_interp: (0..k).map(Vertex).collect(), rels }
    }

    /// Creates a structure with an explicit vertex count and constant
    /// interpretation (every schema constant must be mapped to a vertex
    /// below `vertex_count`). This is the constructor for structures whose
    /// domain is *smaller* than the constant count — i.e. structures that
    /// identify constants, like the trivial databases of Section 1.2.
    pub fn with_interpretation(
        schema: Arc<Schema>,
        vertex_count: u32,
        const_interp: Vec<Vertex>,
    ) -> Self {
        assert_eq!(
            const_interp.len(),
            schema.constant_count(),
            "every constant needs an interpretation"
        );
        assert!(
            const_interp.iter().all(|v| v.0 < vertex_count),
            "constant interpreted outside the domain"
        );
        let rels = schema.relations().map(|r| RelationData::new(schema.arity(r))).collect();
        Structure { schema, vertex_count, const_interp, rels }
    }

    /// The schema this structure is over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> u32 {
        self.vertex_count
    }

    /// All vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> {
        (0..self.vertex_count).map(Vertex)
    }

    /// Adds a fresh vertex.
    pub fn add_vertex(&mut self) -> Vertex {
        let v = Vertex(self.vertex_count);
        self.vertex_count += 1;
        v
    }

    /// Adds `n` fresh vertices, returning the first.
    pub fn add_vertices(&mut self, n: u32) -> Vertex {
        let first = Vertex(self.vertex_count);
        self.vertex_count += n;
        first
    }

    /// The vertex interpreting a constant.
    pub fn constant_vertex(&self, c: ConstId) -> Vertex {
        self.const_interp[c.0 as usize]
    }

    /// Reinterprets a constant (rarely needed; prefer [`Structure::quotient`]).
    pub fn set_constant_vertex(&mut self, c: ConstId, v: Vertex) {
        assert!(v.0 < self.vertex_count, "vertex out of range");
        self.const_interp[c.0 as usize] = v;
    }

    /// The paper's *non-triviality*: the two given constants denote
    /// different elements.
    pub fn is_nontrivial(&self, c1: ConstId, c2: ConstId) -> bool {
        self.constant_vertex(c1) != self.constant_vertex(c2)
    }

    /// Inserts an atom; returns `true` if it was not already present.
    pub fn add_atom(&mut self, rel: RelId, args: &[Vertex]) -> bool {
        let data = &mut self.rels[rel.0 as usize];
        assert_eq!(args.len(), data.arity, "arity mismatch in add_atom");
        debug_assert!(args.iter().all(|v| v.0 < self.vertex_count), "vertex out of range");
        let key: Box<[u32]> = args.iter().map(|v| v.0).collect();
        if data.set.insert(key) {
            data.flat.extend(args.iter().map(|v| v.0));
            true
        } else {
            false
        }
    }

    /// Membership test for an atom. Copies the ids out of `args`; loops
    /// that test many tuples keep a `u32` buffer and call
    /// [`Structure::contains_tuple`].
    pub fn contains_atom(&self, rel: RelId, args: &[Vertex]) -> bool {
        let key: Vec<u32> = args.iter().map(|v| v.0).collect();
        self.contains_tuple(rel, &key)
    }

    /// Membership test for a tuple of raw vertex ids. Hashes the borrowed
    /// slice as it is: no copy, no allocation.
    pub fn contains_tuple(&self, rel: RelId, tuple: &[u32]) -> bool {
        let data = &self.rels[rel.0 as usize];
        assert_eq!(tuple.len(), data.arity, "arity mismatch in contains_tuple");
        data.set.contains(tuple)
    }

    /// Number of tuples in a relation. The anti-cheating query `ζ_b`
    /// (Section 4.5) is all about this quantity.
    pub fn atom_count(&self, rel: RelId) -> usize {
        self.rels[rel.0 as usize].len()
    }

    /// Total number of atoms across all relations.
    pub fn total_atoms(&self) -> usize {
        self.rels.iter().map(RelationData::len).sum()
    }

    /// Iterates the tuples of a relation as raw `u32` slices, in insertion
    /// order.
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = &[u32]> {
        let data = &self.rels[rel.0 as usize];
        data.flat.chunks_exact(data.arity)
    }

    /// True iff every atom of `other` (same schema) is an atom of `self`
    /// and constants are interpreted identically. This is the `⊇` of
    /// Definition 13 read right-to-left.
    pub fn includes(&self, other: &Structure) -> bool {
        assert!(Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema);
        if self.const_interp != other.const_interp {
            return false;
        }
        self.schema
            .relations()
            .all(|r| other.tuples(r).all(|t| self.rels[r.0 as usize].set.contains(t)))
    }

    /// True iff `self` and `other` have exactly the same atoms on the given
    /// relations (used for the `D↾Σ₀ = D_Arena` test of Definition 13).
    pub fn atoms_equal_on(&self, other: &Structure, rels: &[RelId]) -> bool {
        rels.iter().all(|&r| {
            let a = &self.rels[r.0 as usize];
            let b = &other.rels[r.0 as usize];
            a.set == b.set
        })
    }

    /// Removes all atoms of the given relation (e.g. dropping `X` to form
    /// `D↾Σ₀`).
    pub fn clear_relation(&mut self, rel: RelId) {
        let arity = self.rels[rel.0 as usize].arity;
        self.rels[rel.0 as usize] = RelationData::new(arity);
    }

    /// Stable 128-bit content fingerprint, respecting [`PartialEq`]:
    /// `d1 == d2` implies `d1.fingerprint() == d2.fingerprint()`. Equality
    /// ignores tuple insertion order, so each relation's tuples are hashed
    /// in sorted order. Used by the evaluation engine as a memo-cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new(b"bagcq/structure");
        let schema_fp = self.schema.fingerprint();
        h.write_u64(schema_fp.hi);
        h.write_u64(schema_fp.lo);
        h.write_u32(self.vertex_count);
        h.write_usize(self.const_interp.len());
        for v in &self.const_interp {
            h.write_u32(v.0);
        }
        for r in self.schema.relations() {
            let data = &self.rels[r.0 as usize];
            let mut tuples: Vec<&[u32]> = data.flat.chunks_exact(data.arity).collect();
            tuples.sort_unstable();
            h.write_usize(tuples.len());
            for t in tuples {
                for &v in t {
                    h.write_u32(v);
                }
            }
        }
        h.finish()
    }

    // ----------------------------------------------------------------
    // Operations on structures (Section 5.1 of the paper, plus the
    // union used in Section 3 and quotients for Definition 13).
    // ----------------------------------------------------------------

    /// Applies a (not necessarily injective) vertex map, producing the
    /// quotient/image structure. `map[v]` gives the new id of old vertex
    /// `v`; new ids must be `< new_vertex_count`.
    ///
    /// Identifying two constants of `Arena` this way is exactly how the
    /// paper's *seriously incorrect* databases arise.
    pub fn quotient(&self, map: &[u32], new_vertex_count: u32) -> Structure {
        assert_eq!(map.len(), self.vertex_count as usize);
        assert!(map.iter().all(|&v| v < new_vertex_count));
        let mut out = Structure {
            schema: Arc::clone(&self.schema),
            vertex_count: new_vertex_count,
            const_interp: self.const_interp.iter().map(|v| Vertex(map[v.0 as usize])).collect(),
            rels: self
                .schema
                .relations()
                .map(|r| RelationData::new(self.schema.arity(r)))
                .collect(),
        };
        let mut buf: Vec<Vertex> = Vec::new();
        for r in self.schema.relations() {
            for t in self.tuples(r) {
                buf.clear();
                buf.extend(t.iter().map(|&v| Vertex(map[v as usize])));
                out.add_atom(r, &buf);
            }
        }
        out
    }

    /// Convenience quotient that identifies exactly the two given vertices
    /// (keeping `keep`, dropping `drop`).
    pub fn identify(&self, keep: Vertex, drop: Vertex) -> Structure {
        assert_ne!(keep, drop);
        let mut map = Vec::with_capacity(self.vertex_count as usize);
        let mut next = 0u32;
        for v in 0..self.vertex_count {
            if v == drop.0 {
                map.push(u32::MAX); // patched below once keep's new id is known
                continue;
            }
            map.push(next);
            next += 1;
        }
        let keep_new = map[keep.0 as usize];
        map[drop.0 as usize] = keep_new;
        self.quotient(&map, next)
    }

    /// Union of two structures over the same schema: the vertex sets are
    /// kept disjoint *except* that each constant of the schema is
    /// identified across the two sides (the paper writes `D = D₁ ∪ D₂` in
    /// Section 3; the shared elements are exactly the constants `♂`, `♀`).
    pub fn union(&self, other: &Structure) -> Structure {
        assert!(
            Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema,
            "union requires a common schema"
        );
        // Map other's vertices: constants to self's interpretation,
        // everything else to fresh ids.
        let mut map: Vec<Option<u32>> = vec![None; other.vertex_count as usize];
        for c in self.schema.constants() {
            let ov = other.constant_vertex(c);
            let sv = self.constant_vertex(c);
            if let Some(prev) = map[ov.0 as usize] {
                assert_eq!(
                    prev, sv.0,
                    "constant identification conflict in union: {} vs {}",
                    prev, sv.0
                );
            }
            map[ov.0 as usize] = Some(sv.0);
        }
        let mut out = self.clone();
        for slot in map.iter_mut() {
            if slot.is_none() {
                *slot = Some(out.add_vertex().0);
            }
        }
        let mut buf: Vec<Vertex> = Vec::new();
        for r in self.schema.relations() {
            for t in other.tuples(r) {
                buf.clear();
                buf.extend(t.iter().map(|&v| Vertex(map[v as usize].unwrap())));
                out.add_atom(r, &buf);
            }
        }
        out
    }

    /// The categorical product `D₁ × D₂` (Section 5.1): vertices are pairs,
    /// `R((s,s'),(r,r'))` holds iff `R(s,r)` and `R(s',r')` hold; constants
    /// are interpreted componentwise (pair of the two interpretations).
    pub fn product(&self, other: &Structure) -> Structure {
        assert!(
            Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema,
            "product requires a common schema"
        );
        let n2 = other.vertex_count;
        let pair = |a: u32, b: u32| a * n2 + b;
        let mut out = Structure {
            schema: Arc::clone(&self.schema),
            vertex_count: self.vertex_count * n2,
            const_interp: self
                .schema
                .constants()
                .map(|c| Vertex(pair(self.constant_vertex(c).0, other.constant_vertex(c).0)))
                .collect(),
            rels: self
                .schema
                .relations()
                .map(|r| RelationData::new(self.schema.arity(r)))
                .collect(),
        };
        let mut buf: Vec<Vertex> = Vec::new();
        for r in self.schema.relations() {
            for t1 in self.tuples(r) {
                for t2 in other.tuples(r) {
                    buf.clear();
                    buf.extend(t1.iter().zip(t2.iter()).map(|(&a, &b)| Vertex(pair(a, b))));
                    out.add_atom(r, &buf);
                }
            }
        }
        out
    }

    /// `D^×k`: the product of `k` copies of `D` (k ≥ 1).
    pub fn power(&self, k: u32) -> Structure {
        assert!(k >= 1, "power requires k >= 1");
        let mut acc = self.clone();
        for _ in 1..k {
            acc = acc.product(self);
        }
        acc
    }

    /// The paper's "well of positivity": a single vertex carrying every
    /// possible atom, with every constant interpreted there. Every pure
    /// boolean CQ counts exactly 1 on it — which is why Theorem 1 needs
    /// the non-triviality condition and Theorem 2 needs the additive
    /// constant `ℂ′` (see Section 1.2 of the paper).
    pub fn well_of_positivity(schema: Arc<Schema>) -> Structure {
        let mut d = Structure {
            vertex_count: 1,
            const_interp: schema.constants().map(|_| Vertex(0)).collect(),
            rels: schema.relations().map(|r| RelationData::new(schema.arity(r))).collect(),
            schema,
        };
        let schema = Arc::clone(&d.schema);
        for r in schema.relations() {
            let args = vec![Vertex(0); schema.arity(r)];
            d.add_atom(r, &args);
        }
        d
    }

    /// `blowup(D, k)` (Section 5.1): each vertex becomes `k` copies, and an
    /// atom holds on copies iff it held on the originals. Constants are
    /// interpreted as copy 0 of their original interpretation.
    pub fn blowup(&self, k: u32) -> Structure {
        assert!(k >= 1, "blowup requires k >= 1");
        let copy = |v: u32, i: u32| v * k + i;
        let mut out = Structure {
            schema: Arc::clone(&self.schema),
            vertex_count: self.vertex_count * k,
            const_interp: self.const_interp.iter().map(|v| Vertex(copy(v.0, 0))).collect(),
            rels: self
                .schema
                .relations()
                .map(|r| RelationData::new(self.schema.arity(r)))
                .collect(),
        };
        let mut buf: Vec<Vertex> = Vec::new();
        for r in self.schema.relations() {
            let arity = self.schema.arity(r);
            for t in self.tuples(r) {
                // Every combination of copies for the tuple's positions.
                let mut counters = vec![0u32; arity];
                loop {
                    buf.clear();
                    buf.extend(t.iter().zip(counters.iter()).map(|(&v, &i)| Vertex(copy(v, i))));
                    out.add_atom(r, &buf);
                    // Increment the mixed-radix counter.
                    let mut pos = 0;
                    loop {
                        if pos == arity {
                            break;
                        }
                        counters[pos] += 1;
                        if counters[pos] < k {
                            break;
                        }
                        counters[pos] = 0;
                        pos += 1;
                    }
                    if pos == arity {
                        break;
                    }
                }
            }
        }
        out
    }
}

impl PartialEq for Structure {
    /// Structural equality: same schema content, vertex count, constant
    /// interpretation, and atom sets (insertion order ignored).
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema)
            && self.vertex_count == other.vertex_count
            && self.const_interp == other.const_interp
            && self.rels.iter().zip(other.rels.iter()).all(|(a, b)| a.set == b.set)
    }
}

impl Eq for Structure {}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Structure ({} vertices)", self.vertex_count)?;
        for c in self.schema.constants() {
            writeln!(
                f,
                "  const {} = v{}",
                self.schema.constant_name(c),
                self.constant_vertex(c).0
            )?;
        }
        for r in self.schema.relations() {
            let name = &self.schema.relation(r).name;
            for t in self.tuples(r) {
                let args: Vec<String> = t.iter().map(|v| format!("v{v}")).collect();
                writeln!(f, "  {}({})", name, args.join(","))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn digraph_schema() -> (Arc<Schema>, RelId) {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        (b.build(), e)
    }

    /// Directed cycle of length n.
    fn cycle(n: u32) -> (Structure, RelId) {
        let (schema, e) = digraph_schema();
        let mut d = Structure::new(schema);
        d.add_vertices(n);
        for i in 0..n {
            d.add_atom(e, &[Vertex(i), Vertex((i + 1) % n)]);
        }
        (d, e)
    }

    #[test]
    fn build_and_query_atoms() {
        let (d, e) = cycle(3);
        assert_eq!(d.vertex_count(), 3);
        assert_eq!(d.atom_count(e), 3);
        assert!(d.contains_atom(e, &[Vertex(0), Vertex(1)]));
        assert!(!d.contains_atom(e, &[Vertex(1), Vertex(0)]));
    }

    #[test]
    fn add_atom_deduplicates() {
        let (mut d, e) = cycle(3);
        assert!(!d.add_atom(e, &[Vertex(0), Vertex(1)]));
        assert_eq!(d.atom_count(e), 3);
        assert!(d.add_atom(e, &[Vertex(1), Vertex(0)]));
        assert_eq!(d.atom_count(e), 4);
    }

    #[test]
    fn product_of_cycles() {
        // C3 × C3 has 9 vertices and 9 edges (componentwise successors),
        // and is a disjoint union of three 3-cycles.
        let (c3, e) = cycle(3);
        let p = c3.product(&c3);
        assert_eq!(p.vertex_count(), 9);
        assert_eq!(p.atom_count(e), 9);
        // Edge ((0,0),(1,1)) exists; ((0,0),(1,2)) exists; ((0,0),(0,1)) doesn't.
        assert!(p.contains_atom(e, &[Vertex(0), Vertex(4)]));
        assert!(!p.contains_atom(e, &[Vertex(0), Vertex(1)]));
    }

    #[test]
    fn blowup_multiplies_atoms() {
        let (c3, e) = cycle(3);
        let b = c3.blowup(2);
        assert_eq!(b.vertex_count(), 6);
        // Each of the 3 edges becomes 2² = 4 edges.
        assert_eq!(b.atom_count(e), 12);
        // Copies of the same vertex are never adjacent unless the original
        // had a loop.
        assert!(!b.contains_atom(e, &[Vertex(0), Vertex(1)]));
        assert!(b.contains_atom(e, &[Vertex(0), Vertex(2)]));
        assert!(b.contains_atom(e, &[Vertex(0), Vertex(3)]));
    }

    #[test]
    fn blowup_of_loop() {
        let (schema, e) = digraph_schema();
        let mut d = Structure::new(schema);
        let v = d.add_vertex();
        d.add_atom(e, &[v, v]);
        let b = d.blowup(3);
        // One loop blows up into a complete digraph with loops on 3 copies.
        assert_eq!(b.atom_count(e), 9);
    }

    #[test]
    fn power_matches_iterated_product() {
        let (c3, _) = cycle(3);
        let p2 = c3.power(2);
        assert_eq!(p2, c3.product(&c3));
        let p1 = c3.power(1);
        assert_eq!(p1, c3);
    }

    #[test]
    fn union_identifies_constants() {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let a = b.constant("a");
        let schema = b.build();

        let mut d1 = Structure::new(Arc::clone(&schema));
        let v1 = d1.add_vertex();
        d1.add_atom(e, &[d1.constant_vertex(a), v1]);

        let mut d2 = Structure::new(schema);
        let v2 = d2.add_vertex();
        d2.add_atom(e, &[v2, d2.constant_vertex(a)]);

        let u = d1.union(&d2);
        // a is shared; v1 and v2 are distinct fresh vertices.
        assert_eq!(u.vertex_count(), 3);
        assert_eq!(u.atom_count(e), 2);
        let av = u.constant_vertex(a);
        assert!(u.tuples(e).any(|t| t[0] == av.0));
        assert!(u.tuples(e).any(|t| t[1] == av.0));
    }

    #[test]
    fn quotient_identify() {
        let (c3, e) = cycle(3);
        // Identify vertices 1 and 2: edges 0→1, 1→2, 2→0 become
        // 0→1, 1→1, 1→0.
        let q = c3.identify(Vertex(1), Vertex(2));
        assert_eq!(q.vertex_count(), 2);
        assert_eq!(q.atom_count(e), 3);
        assert!(q.contains_atom(e, &[Vertex(1), Vertex(1)]));
    }

    #[test]
    fn includes_and_equality() {
        let (c3, e) = cycle(3);
        let mut bigger = c3.clone();
        bigger.add_atom(e, &[Vertex(0), Vertex(2)]);
        assert!(bigger.includes(&c3));
        assert!(!c3.includes(&bigger));
        assert_ne!(bigger, c3);
        assert_eq!(c3, c3.clone());
    }

    #[test]
    fn atoms_equal_on_subset() {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let x = b.relation("X", 2);
        let schema = b.build();
        let mut d1 = Structure::new(Arc::clone(&schema));
        d1.add_vertices(2);
        d1.add_atom(e, &[Vertex(0), Vertex(1)]);
        let mut d2 = d1.clone();
        d2.add_atom(x, &[Vertex(1), Vertex(0)]);
        assert!(d1.atoms_equal_on(&d2, &[e]));
        assert!(!d1.atoms_equal_on(&d2, &[e, x]));
    }

    #[test]
    fn clear_relation() {
        let (mut c3, e) = cycle(3);
        c3.clear_relation(e);
        assert_eq!(c3.atom_count(e), 0);
        assert_eq!(c3.vertex_count(), 3);
    }

    #[test]
    fn nontriviality() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let mars = b.constant("mars");
        let venus = b.constant("venus");
        let schema = b.build();
        let d = Structure::new(schema);
        assert!(d.is_nontrivial(mars, venus));
        let trivial = d.identify(Vertex(0), Vertex(1));
        assert!(!trivial.is_nontrivial(mars, venus));
    }

    #[test]
    fn well_of_positivity_has_every_atom() {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let r = b.relation("R", 3);
        b.constant("mars");
        b.constant("venus");
        let schema = b.build();
        let w = Structure::well_of_positivity(schema);
        assert_eq!(w.vertex_count(), 1);
        assert!(w.contains_atom(e, &[Vertex(0), Vertex(0)]));
        assert!(w.contains_atom(r, &[Vertex(0), Vertex(0), Vertex(0)]));
        // All constants identified: the well is trivial.
        let mars = w.schema().constant_by_name("mars").unwrap();
        let venus = w.schema().constant_by_name("venus").unwrap();
        assert!(!w.is_nontrivial(mars, venus));
    }

    #[test]
    fn with_interpretation_constructor() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        b.constant("b");
        let schema = b.build();
        // Two constants on one vertex.
        let d = Structure::with_interpretation(schema, 1, vec![Vertex(0), Vertex(0)]);
        assert_eq!(d.vertex_count(), 1);
        let a = d.schema().constant_by_name("a").unwrap();
        let bb = d.schema().constant_by_name("b").unwrap();
        assert_eq!(d.constant_vertex(a), d.constant_vertex(bb));
    }

    #[test]
    fn fingerprint_ignores_insertion_order() {
        let (schema, e) = digraph_schema();
        let mut d1 = Structure::new(Arc::clone(&schema));
        d1.add_vertices(3);
        d1.add_atom(e, &[Vertex(0), Vertex(1)]);
        d1.add_atom(e, &[Vertex(1), Vertex(2)]);
        let mut d2 = Structure::new(schema);
        d2.add_vertices(3);
        d2.add_atom(e, &[Vertex(1), Vertex(2)]);
        d2.add_atom(e, &[Vertex(0), Vertex(1)]);
        assert_eq!(d1, d2);
        assert_eq!(d1.fingerprint(), d2.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_structures() {
        let (c3, e) = cycle(3);
        let mut bigger = c3.clone();
        bigger.add_atom(e, &[Vertex(0), Vertex(2)]);
        assert_ne!(c3.fingerprint(), bigger.fingerprint());
        // A fresh vertex changes the domain, hence the fingerprint.
        let mut extra = c3.clone();
        extra.add_vertex();
        assert_ne!(c3.fingerprint(), extra.fingerprint());
    }

    #[test]
    fn product_constants_componentwise() {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let a = b.constant("a");
        let schema = b.build();
        let mut d = Structure::new(schema);
        let av = d.constant_vertex(a);
        d.add_atom(e, &[av, av]);
        let p = d.product(&d);
        // Single vertex squared: constant maps to the pair (a,a) = vertex 0.
        assert_eq!(p.constant_vertex(a), Vertex(0));
        assert!(p.contains_atom(e, &[Vertex(0), Vertex(0)]));
    }
}
