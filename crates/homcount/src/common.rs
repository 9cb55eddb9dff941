//! Shared machinery for the counting engines: term resolution, inequality
//! checking, per-position tuple indexes, and decomposition of a query into
//! connected components.

use crate::cancel::{CancelReason, Cancelled, EvalControl};
use bagcq_arith::Nat;
use bagcq_query::{Inequality, Query, Term};
use bagcq_structure::{RelId, Structure};
use std::collections::HashMap;

/// Resolves a term under a partial assignment of variables.
/// `assign[v] == u32::MAX` means unassigned.
pub(crate) const UNASSIGNED: u32 = u32::MAX;

#[inline]
pub(crate) fn resolve(term: &Term, assign: &[u32], d: &Structure) -> u32 {
    match term {
        Term::Var(v) => assign[v.0 as usize],
        Term::Const(c) => d.constant_vertex(*c).0,
    }
}

/// Checks an inequality under a (possibly partial) assignment: returns
/// `false` only when both sides are bound and equal.
#[inline]
pub(crate) fn inequality_ok(ineq: &Inequality, assign: &[u32], d: &Structure) -> bool {
    let a = resolve(&ineq.lhs, assign, d);
    let b = resolve(&ineq.rhs, assign, d);
    a == UNASSIGNED || b == UNASSIGNED || a != b
}

/// The gate every count and enumeration passes first: `false` when a
/// variable-free atom is missing from `d` or a variable-free inequality
/// relates a vertex to itself. Allocates nothing.
pub(crate) fn ground_facts_hold(q: &Query, d: &Structure) -> bool {
    let ground = |t: &Term| matches!(t, Term::Const(_));
    let atoms_hold = q.atoms().iter().filter(|a| a.args.iter().all(ground)).all(|a| {
        d.tuples(a.rel)
            .any(|tuple| tuple.iter().zip(&a.args).all(|(&v, t)| resolve(t, &[], d) == v))
    });
    atoms_hold
        && q.inequalities()
            .iter()
            .filter(|i| ground(&i.lhs) && ground(&i.rhs))
            .all(|i| resolve(&i.lhs, &[], d) != resolve(&i.rhs, &[], d))
}

/// The `|V_D|^k` factor contributed by variables occurring in no atom and
/// no inequality.
///
/// Routed through [`Nat::checked_pow`] with the a-priori bound
/// `bits(n)·k`, which the true result never exceeds — so the only failure
/// paths are the typed ones: the bound itself overflowing `u64` (a result
/// too large to even size) or the memory gauge refusing the bytes. A
/// hostile free-variable count therefore yields
/// [`CancelReason::MemoryBudgetExceeded`] instead of panicking or
/// aborting a worker mid-allocation.
pub(crate) fn free_var_factor(n: u64, k: u64, ctl: &EvalControl) -> Result<Nat, Cancelled> {
    if n <= 1 || k == 0 {
        return Ok(if n == 0 && k > 0 { Nat::zero() } else { Nat::one() });
    }
    let base = Nat::from_u64(n);
    let bound = base.bits().checked_mul(k).ok_or(Cancelled(CancelReason::MemoryBudgetExceeded))?;
    ctl.charge(bound.div_ceil(8))?;
    base.checked_pow(k, bound).ok_or(Cancelled(CancelReason::MemoryBudgetExceeded))
}

/// Inverted index over one relation of a structure: for a fixed argument
/// position, maps a vertex to the tuple indexes having that vertex there,
/// ascending. Stored flat: vertex `v`'s ids are `ids[starts[v]..starts[v + 1]]`.
pub(crate) struct PositionIndex {
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl PositionIndex {
    pub(crate) fn build(d: &Structure, rel: RelId, pos: usize) -> Self {
        let n = d.vertex_count() as usize;
        let mut starts = vec![0u32; n + 1];
        for t in d.tuples(rel) {
            starts[t[pos] as usize + 1] += 1;
        }
        for v in 0..n {
            starts[v + 1] += starts[v];
        }
        let mut next = starts.clone();
        let mut ids = vec![0u32; d.atom_count(rel)];
        for (i, t) in d.tuples(rel).enumerate() {
            let slot = &mut next[t[pos] as usize];
            ids[*slot as usize] = i as u32;
            *slot += 1;
        }
        PositionIndex { starts, ids }
    }

    pub(crate) fn get(&self, v: u32) -> &[u32] {
        match self.starts.get(v as usize..v as usize + 2) {
            Some(&[from, to]) => &self.ids[from as usize..to as usize],
            _ => &[],
        }
    }
}

/// Index cache: `(relation, position) → PositionIndex`, built lazily while
/// a single count runs. Each index also has a dense id, so a compiled plan
/// can hold on to it while the cache is borrowed immutably.
#[derive(Default)]
pub(crate) struct IndexCache {
    ids: HashMap<(u32, u32), usize>,
    indexes: Vec<PositionIndex>,
}

impl IndexCache {
    pub(crate) fn get(&mut self, d: &Structure, rel: RelId, pos: usize) -> &PositionIndex {
        let id = self.id(d, rel, pos);
        &self.indexes[id]
    }

    /// The dense id of the `(rel, pos)` index, building it on first use.
    pub(crate) fn id(&mut self, d: &Structure, rel: RelId, pos: usize) -> usize {
        let indexes = &mut self.indexes;
        *self.ids.entry((rel.0, pos as u32)).or_insert_with(|| {
            indexes.push(PositionIndex::build(d, rel, pos));
            indexes.len() - 1
        })
    }

    /// The index with dense id `id`.
    pub(crate) fn by_id(&self, id: usize) -> &PositionIndex {
        &self.indexes[id]
    }
}

/// Partitions the query's atoms, inequalities and variables into connected
/// components (variables are connected when they co-occur in an atom or
/// inequality; atoms/inequalities with no variables belong to no
/// component — [`ground_facts_hold`] gates on them).
///
/// By Lemma 1 the count of a query is the product of the counts of its
/// components, which is what makes `θ↑k` countable in time `k·cost(θ)`
/// instead of `cost(θ)^k`.
pub(crate) struct Components {
    /// For each component: (atom indexes, inequality indexes, variable ids).
    pub comps: Vec<(Vec<usize>, Vec<usize>, Vec<u32>)>,
    /// Variables in no atom and no inequality: each contributes a free
    /// factor `|V_D|`.
    pub free_vars: u32,
}

pub(crate) fn components(q: &Query) -> Components {
    let n = q.var_count() as usize;
    // Union-find over variables.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let union = |parent: &mut Vec<u32>, a: u32, b: u32| {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            parent[ra as usize] = rb;
        }
    };

    let vars_of_atom = |args: &[Term]| -> Vec<u32> {
        args.iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(v.0),
                Term::Const(_) => None,
            })
            .collect()
    };

    for a in q.atoms() {
        let vs = vars_of_atom(&a.args);
        for w in vs.windows(2) {
            union(&mut parent, w[0], w[1]);
        }
    }
    for ineq in q.inequalities() {
        let mut vs = Vec::new();
        if let Term::Var(v) = ineq.lhs {
            vs.push(v.0);
        }
        if let Term::Var(v) = ineq.rhs {
            vs.push(v.0);
        }
        for w in vs.windows(2) {
            union(&mut parent, w[0], w[1]);
        }
    }

    // Group variables by root; only variables that occur somewhere get a
    // component — the rest are free.
    let mut occurs = vec![false; n];
    for a in q.atoms() {
        for t in &a.args {
            if let Term::Var(v) = t {
                occurs[v.0 as usize] = true;
            }
        }
    }
    for ineq in q.inequalities() {
        if let Term::Var(v) = ineq.lhs {
            occurs[v.0 as usize] = true;
        }
        if let Term::Var(v) = ineq.rhs {
            occurs[v.0 as usize] = true;
        }
    }

    let mut comp_of_root: HashMap<u32, usize> = HashMap::new();
    let mut comps: Vec<(Vec<usize>, Vec<usize>, Vec<u32>)> = Vec::new();
    for v in 0..n as u32 {
        if !occurs[v as usize] {
            continue;
        }
        let r = find(&mut parent, v);
        let idx = *comp_of_root.entry(r).or_insert_with(|| {
            comps.push((Vec::new(), Vec::new(), Vec::new()));
            comps.len() - 1
        });
        comps[idx].2.push(v);
    }
    for (i, a) in q.atoms().iter().enumerate() {
        let vs = vars_of_atom(&a.args);
        if let Some(&v0) = vs.first() {
            let r = find(&mut parent, v0);
            let idx = comp_of_root[&r];
            comps[idx].0.push(i);
        }
    }
    for (i, ineq) in q.inequalities().iter().enumerate() {
        let v0 = match (ineq.lhs, ineq.rhs) {
            (Term::Var(v), _) | (_, Term::Var(v)) => Some(v.0),
            _ => None,
        };
        if let Some(v0) = v0 {
            let r = find(&mut parent, v0);
            let idx = comp_of_root[&r];
            comps[idx].1.push(i);
        }
    }

    let free_vars = (0..n).filter(|&v| !occurs[v]).count() as u32;
    Components { comps, free_vars }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_query::Query;
    use bagcq_structure::SchemaBuilder;
    use std::sync::Arc;

    #[test]
    fn splits_disjoint_conjunction() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let schema = b.build();
        let mut qb = Query::builder(Arc::clone(&schema));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]);
        let q = qb.build();
        let q3 = q.power(3);
        let c = components(&q3);
        assert_eq!(c.comps.len(), 3);
        assert_eq!(c.free_vars, 0);
    }

    #[test]
    fn detects_ground_and_free() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let schema = b.build();
        let mut qb = Query::builder(Arc::clone(&schema));
        let a = qb.constant("a");
        let x = qb.var("x");
        let _unused = qb.var("floating");
        qb.atom_named("E", &[a, a]); // ground
        qb.atom_named("E", &[a, x]);
        let q = qb.build();
        let c = components(&q);
        assert_eq!(c.comps.len(), 1);
        assert_eq!(c.comps[0].0, vec![1], "the ground atom joins no component");
        assert_eq!(c.free_vars, 1);
    }

    #[test]
    fn inequalities_connect_variables() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let schema = b.build();
        let mut qb = Query::builder(Arc::clone(&schema));
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        let w = qb.var("w");
        qb.atom_named("E", &[x, y]);
        qb.atom_named("E", &[z, w]);
        qb.neq(y, z); // bridges the two atom components
        let q = qb.build();
        let c = components(&q);
        assert_eq!(c.comps.len(), 1);
        assert_eq!(c.comps[0].0.len(), 2);
        assert_eq!(c.comps[0].1.len(), 1);
    }
}
