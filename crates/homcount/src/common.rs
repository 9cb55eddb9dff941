//! Shared machinery for the counting engines: term resolution, inequality
//! checking, and the access paths (per-position tuple indexes and
//! relation rows) their searches read candidates from.

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

/// Index cache: `(relation, position) → PositionIndex`, built while a
/// count compiles its plans. Each index has a dense id, so a compiled
/// plan can hold on to it while the cache is borrowed immutably.
#[derive(Default)]
pub(crate) struct IndexCache {
    ids: HashMap<(u32, u32), usize>,
    indexes: Vec<PositionIndex>,
}

impl IndexCache {
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

/// Access paths shared by every component of one count: the position
/// indexes candidate buckets come from and, per relation id, the
/// relation's tuples by id (filled for the relations a plan reads).
#[derive(Default)]
pub(crate) struct Access<'d> {
    pub indexes: IndexCache,
    pub rows: Vec<Vec<&'d [u32]>>,
}

impl<'d> Access<'d> {
    /// Collects `rel`'s tuples into `rows` once.
    pub(crate) fn collect_rows(&mut self, d: &'d Structure, rel: RelId) {
        let r = rel.0 as usize;
        if self.rows.len() <= r {
            self.rows.resize_with(r + 1, Vec::new);
        }
        if self.rows[r].is_empty() {
            self.rows[r] = d.tuples(rel).collect();
        }
    }
}
