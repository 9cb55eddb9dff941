//! Relational schemas (signatures).
//!
//! A schema declares relation symbols with fixed arities and a set of named
//! constants. The paper's signatures are built dynamically by the reduction
//! (one binary relation `S_m` per monomial, one `R_d` per degree position,
//! plus `E` and `X`; Section 4.3), so schemas here are runtime values shared
//! behind an [`Arc`] by every structure and query over them.
//!
//! The two distinguished constants of the paper, `♂` and `♀` (its
//! *non-triviality* markers), have no special status in this module — they
//! are ordinary named constants that the reduction crate registers under
//! [`MARS`] and [`VENUS`].

use crate::fingerprint::{Fingerprint, FingerprintHasher};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Conventional name of the paper's `♂` constant.
pub const MARS: &str = "mars";
/// Conventional name of the paper's `♀` constant.
pub const VENUS: &str = "venus";

/// Identifier of a relation symbol within its [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RelId(pub u32);

/// Identifier of a named constant within its [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConstId(pub u32);

/// Declaration of one relation symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationDecl {
    /// Symbol name, unique within the schema.
    pub name: String,
    /// Number of argument positions (≥ 1).
    pub arity: usize,
}

/// A relational signature: relation symbols with arities, plus named
/// constants.
#[derive(Debug, PartialEq, Eq)]
pub struct Schema {
    relations: Vec<RelationDecl>,
    constants: Vec<String>,
    rel_by_name: HashMap<String, RelId>,
    const_by_name: HashMap<String, ConstId>,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Number of relation symbols.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of named constants.
    pub fn constant_count(&self) -> usize {
        self.constants.len()
    }

    /// All relation ids, in declaration order.
    pub fn relations(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.relations.len() as u32).map(RelId)
    }

    /// All constant ids, in declaration order.
    pub fn constants(&self) -> impl Iterator<Item = ConstId> + '_ {
        (0..self.constants.len() as u32).map(ConstId)
    }

    /// The declaration of a relation.
    pub fn relation(&self, id: RelId) -> &RelationDecl {
        &self.relations[id.0 as usize]
    }

    /// The arity of a relation.
    pub fn arity(&self, id: RelId) -> usize {
        self.relations[id.0 as usize].arity
    }

    /// The name of a constant.
    pub fn constant_name(&self, id: ConstId) -> &str {
        &self.constants[id.0 as usize]
    }

    /// Looks a relation up by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelId> {
        self.rel_by_name.get(name).copied()
    }

    /// Looks a constant up by name.
    pub fn constant_by_name(&self, name: &str) -> Option<ConstId> {
        self.const_by_name.get(name).copied()
    }

    /// Stable 128-bit content fingerprint: a function of the declared
    /// relations (names and arities, in declaration order) and constant
    /// names. Equal schemas fingerprint equally across processes and runs,
    /// which lets the evaluation engine key its memo cache on schema
    /// content rather than `Arc` identity.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new(b"bagcq/schema");
        h.write_usize(self.relations.len());
        for decl in &self.relations {
            h.write_str(&decl.name);
            h.write_usize(decl.arity);
        }
        h.write_usize(self.constants.len());
        for name in &self.constants {
            h.write_str(name);
        }
        h.finish()
    }

    /// Disjoint union of two schemas (Lemma 4 needs gadget schemas disjoint
    /// from the reduction schema).
    ///
    /// Relation names must not collide; constants with the *same name* are
    /// identified (the paper shares `♂`/`♀` across gadget and reduction
    /// signatures). Returns the merged schema plus embeddings of both
    /// inputs.
    pub fn disjoint_union(
        a: &Schema,
        b: &Schema,
    ) -> (Arc<Schema>, SchemaEmbedding, SchemaEmbedding) {
        let mut builder = Schema::builder();
        let mut emb_a = SchemaEmbedding::default();
        let mut emb_b = SchemaEmbedding::default();
        for decl in &a.relations {
            emb_a.rel_map.push(builder.relation(&decl.name, decl.arity));
        }
        for decl in &b.relations {
            assert!(
                !a.rel_by_name.contains_key(&decl.name),
                "relation name collision in disjoint schema union: {}",
                decl.name
            );
            emb_b.rel_map.push(builder.relation(&decl.name, decl.arity));
        }
        for name in &a.constants {
            emb_a.const_map.push(builder.constant(name));
        }
        for name in &b.constants {
            emb_b.const_map.push(builder.constant(name));
        }
        (builder.build(), emb_a, emb_b)
    }
}

/// Maps the relation/constant ids of a source schema into a target schema
/// produced by [`Schema::disjoint_union`].
#[derive(Clone, Debug, Default)]
pub struct SchemaEmbedding {
    rel_map: Vec<RelId>,
    const_map: Vec<ConstId>,
}

impl SchemaEmbedding {
    /// Image of a source relation id.
    pub fn rel(&self, id: RelId) -> RelId {
        self.rel_map[id.0 as usize]
    }

    /// Image of a source constant id.
    pub fn constant(&self, id: ConstId) -> ConstId {
        self.const_map[id.0 as usize]
    }

    /// The identity embedding on a schema (useful as a default).
    pub fn identity(schema: &Schema) -> Self {
        SchemaEmbedding {
            rel_map: schema.relations().collect(),
            const_map: schema.constants().collect(),
        }
    }
}

/// Incremental schema construction. Relation and constant registration is
/// idempotent by name; re-registering a relation with a different arity
/// is refused by [`SchemaBuilder::try_relation`] and panics in
/// [`SchemaBuilder::relation`].
#[derive(Default)]
pub struct SchemaBuilder {
    relations: Vec<RelationDecl>,
    constants: Vec<String>,
    rel_by_name: HashMap<String, RelId>,
    const_by_name: HashMap<String, ConstId>,
}

impl SchemaBuilder {
    /// Declares (or re-fetches) a relation symbol; panics if `name` is
    /// already declared with a different arity.
    pub fn relation(&mut self, name: &str, arity: usize) -> RelId {
        self.try_relation(name, arity).unwrap_or_else(|declared| {
            panic!("relation {name} re-declared with different arity ({declared} vs {arity})")
        })
    }

    /// Declares (or re-fetches) a relation symbol, or returns the arity
    /// `name` is already declared with when that differs from `arity`
    /// (the builder is then unchanged).
    pub fn try_relation(&mut self, name: &str, arity: usize) -> Result<RelId, usize> {
        assert!(arity >= 1, "relations must have arity >= 1");
        if let Some(&id) = self.rel_by_name.get(name) {
            let declared = self.relations[id.0 as usize].arity;
            return if declared == arity { Ok(id) } else { Err(declared) };
        }
        let id = RelId(self.relations.len() as u32);
        self.relations.push(RelationDecl { name: name.to_string(), arity });
        self.rel_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Declares (or re-fetches) a named constant.
    pub fn constant(&mut self, name: &str) -> ConstId {
        if let Some(&id) = self.const_by_name.get(name) {
            return id;
        }
        let id = ConstId(self.constants.len() as u32);
        self.constants.push(name.to_string());
        self.const_by_name.insert(name.to_string(), id);
        id
    }

    /// Finalizes the schema.
    pub fn build(self) -> Arc<Schema> {
        Arc::new(Schema {
            relations: self.relations,
            constants: self.constants,
            rel_by_name: self.rel_by_name,
            const_by_name: self.const_by_name,
        })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema {{ ")?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}/{}", r.name, r.arity)?;
        }
        if !self.constants.is_empty() {
            write!(f, "; consts: {}", self.constants.join(", "))?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut b = Schema::builder();
        let e = b.relation("E", 2);
        let r = b.relation("R", 3);
        let mars = b.constant(MARS);
        let schema = b.build();
        assert_eq!(schema.relation_count(), 2);
        assert_eq!(schema.arity(e), 2);
        assert_eq!(schema.arity(r), 3);
        assert_eq!(schema.relation_by_name("E"), Some(e));
        assert_eq!(schema.relation_by_name("missing"), None);
        assert_eq!(schema.constant_by_name(MARS), Some(mars));
        assert_eq!(schema.constant_name(mars), MARS);
    }

    #[test]
    fn idempotent_registration() {
        let mut b = Schema::builder();
        let e1 = b.relation("E", 2);
        let e2 = b.relation("E", 2);
        assert_eq!(e1, e2);
        let c1 = b.constant("a");
        let c2 = b.constant("a");
        assert_eq!(c1, c2);
        assert_eq!(b.build().relation_count(), 1);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn arity_conflict_panics() {
        let mut b = Schema::builder();
        b.relation("E", 2);
        b.relation("E", 3);
    }

    #[test]
    fn try_relation_refuses_a_second_arity() {
        let mut b = Schema::builder();
        let e = b.relation("E", 2);
        assert_eq!(b.try_relation("E", 3), Err(2));
        assert_eq!(b.try_relation("E", 2), Ok(e));
        let s = b.build();
        assert_eq!(s.relation_count(), 1);
        assert_eq!(s.arity(e), 2);
    }

    #[test]
    fn disjoint_union_shares_constants() {
        let mut ba = Schema::builder();
        let ra = ba.relation("R", 2);
        let mars_a = ba.constant(MARS);
        let a = ba.build();

        let mut bb = Schema::builder();
        let pb = bb.relation("P", 4);
        let mars_b = bb.constant(MARS);
        let venus_b = bb.constant(VENUS);
        let b = bb.build();

        let (merged, ea, eb) = Schema::disjoint_union(&a, &b);
        assert_eq!(merged.relation_count(), 2);
        assert_eq!(merged.arity(ea.rel(ra)), 2);
        assert_eq!(merged.arity(eb.rel(pb)), 4);
        // Same-named constants are identified across the union.
        assert_eq!(ea.constant(mars_a), eb.constant(mars_b));
        assert_eq!(merged.constant_count(), 2);
        assert_eq!(merged.constant_name(eb.constant(venus_b)), VENUS);
    }

    #[test]
    #[should_panic(expected = "collision")]
    fn disjoint_union_rejects_relation_collisions() {
        let mut ba = Schema::builder();
        ba.relation("R", 2);
        let a = ba.build();
        let mut bb = Schema::builder();
        bb.relation("R", 2);
        let b = bb.build();
        let _ = Schema::disjoint_union(&a, &b);
    }

    #[test]
    fn display() {
        let mut b = Schema::builder();
        b.relation("E", 2);
        b.constant("a");
        let s = b.build().to_string();
        assert!(s.contains("E/2"), "{s}");
        assert!(s.contains("a"), "{s}");
    }
}
