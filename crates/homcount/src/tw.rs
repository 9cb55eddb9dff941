//! The optimized counting engine: `#Hom` by dynamic programming over a
//! tree decomposition of the query's primal graph.
//!
//! Each connected component is decomposed by min-fill once per query —
//! the [`PreparedQuery`] holds the decomposition, and `Auto` reads the
//! same one — and each bag is compiled once per count into a `BagPlan`:
//! an enumeration order for its variables (connectivity first) and, per
//! position, the atoms, inequalities and child tables that become fully
//! bound there, resolved to bag slots and constant vertices. A position with a closing atom that
//! holds the new variable exactly once takes its candidates from that
//! atom's index bucket on a bound position, keeping only the tuples that
//! agree with every bound position — so each vertex comes out at most
//! once. Only positions no closing atom reaches scan the whole domain.
//!
//! A bag's table maps the assignment of the variables it shares with its
//! parent, packed base `n` into one `u128`, to the number of extensions
//! below. A child's table is dropped once its parent is built, and the
//! memory gauge is charged for the peak of the live tables. The work is
//! `#bags` times the candidates the buckets yield, with an `n^k` scan only
//! for the `k` variables of a bag that no closing atom reaches. That is
//! exponential in the *width*, not in the number of variables, which is
//! what separates the DP from [`crate::NaiveCounter`] on low-width query
//! families (paths, cycles, stars, grids; experiment E-PERF1).

use crate::cancel::{CancelReason, Cancelled, EvalControl, Ticker};
use crate::common::{free_var_factor, ground_facts_hold, Access, IndexCache};
use crate::prepared::{local_vars, PreparedQuery};
use crate::treedec::TreeDecomposition;
use bagcq_arith::{Accumulator, Nat};
use bagcq_query::{Query, Term};
use bagcq_structure::{RelId, Structure};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Tree-decomposition dynamic-programming counting engine.
#[derive(Default, Clone, Copy, Debug)]
pub struct TreewidthCounter;

impl TreewidthCounter {
    /// The width min-fill found for this query's primal graph (diagnostics
    /// and bench labeling): [`PreparedQuery::width`].
    pub fn decomposition_width(&self, q: &Query) -> usize {
        PreparedQuery::new(q).width()
    }
}

/// The DP kernel, generic over the accumulator (requests run it over the
/// widening [`bagcq_arith::Acc`]). Each component's decomposition comes
/// from the prepared query, built there once.
pub(crate) fn try_count_generic<A: Accumulator>(
    p: &PreparedQuery<'_>,
    d: &Structure,
    ctl: &EvalControl,
) -> Result<Nat, Cancelled> {
    let q = p.query();
    if !ground_facts_hold(q, d) {
        return Ok(Nat::zero());
    }
    let mut ticker = ctl.ticker();
    let mut access = Access::default();
    let mut gauge = TableGauge::default();
    let mut total = A::one();
    for comp in p.components() {
        let dec = comp.decomposition(q);
        let component = Component {
            q,
            d,
            atom_idx: &comp.atoms,
            ineq_idx: &comp.ineqs,
            td: &dec.td,
            local: &dec.local,
        };
        let c = component.count::<A>(&mut access, &mut gauge, ctl, &mut ticker)?;
        if c.is_zero() {
            return Ok(Nat::zero());
        }
        ctl.charge(c.heap_bytes())?;
        total.mul_assign_acc(&c);
    }
    if p.free_vars() > 0 {
        total.mul_assign_nat(&free_var_factor(d.vertex_count() as u64, p.free_vars() as u64, ctl)?);
    }
    Ok(total.into_nat())
}

/// One connected component of the query, with the structure it is
/// counted over and the component's decomposition.
struct Component<'a, 't> {
    q: &'a Query,
    d: &'a Structure,
    atom_idx: &'a [usize],
    ineq_idx: &'a [usize],
    td: &'t TreeDecomposition,
    /// The local index of each global variable.
    local: &'t [u32],
}

/// An argument of a compiled constraint: a bag slot (a position in the
/// bag's enumeration order) or a fixed vertex.
#[derive(Clone, Copy)]
enum Arg {
    Slot(usize),
    Vertex(u32),
}

/// An atom that becomes fully bound at a position, resolved to slots.
struct Closing {
    rel: RelId,
    args: Vec<Arg>,
}

/// A candidate source for a position: closing atom `atom` holds the new
/// variable exactly once, at argument `new_pos`, and the index with id
/// `index` on its bound argument `probe` yields the candidate tuples.
struct Source {
    atom: usize,
    new_pos: usize,
    probe: usize,
    index: usize,
}

/// A child table that becomes fully keyed at a position: `slots` hold the
/// separator's variables in the child's key order.
struct ChildLookup {
    bag: usize,
    slots: Vec<usize>,
}

/// What binding one bag variable checks, and where its candidates come
/// from (the smallest bucket among `sources`, else the whole domain).
#[derive(Default)]
struct Step {
    atoms: Vec<Closing>,
    sources: Vec<Source>,
    ineqs: Vec<(Arg, Arg)>,
    children: Vec<ChildLookup>,
}

/// One bag compiled for the sweep: a step per variable, in enumeration
/// order, and the slots of the variables its table is keyed by (those it
/// shares with its parent, ascending by local id).
struct BagPlan {
    steps: Vec<Step>,
    key: Vec<usize>,
}

/// Table growth is charged to the memory gauge this many entries at a
/// time (and the remainder when a bag is finished).
const CHARGE_CHUNK: u64 = 1024;

/// The DP's table entries over one count: how many are live, and the most
/// ever charged to the memory gauge. Only growth past that high-water mark
/// is charged, so the gauge holds the tables' peak, not their sum.
#[derive(Default)]
struct TableGauge {
    live: u64,
    charged: u64,
}

impl TableGauge {
    /// Records a new entry; charges once a chunk has grown past the mark.
    fn grow<A>(&mut self, ctl: &EvalControl) -> Result<(), Cancelled> {
        self.live += 1;
        if self.live >= self.charged + CHARGE_CHUNK {
            self.settle::<A>(ctl)?;
        }
        Ok(())
    }

    /// Charges the growth past the high-water mark not yet charged.
    fn settle<A>(&mut self, ctl: &EvalControl) -> Result<(), Cancelled> {
        if self.live > self.charged {
            let entry_bytes = std::mem::size_of::<(u128, A)>() as u64 + 1;
            ctl.charge((self.live - self.charged) * entry_bytes)?;
            self.charged = self.live;
        }
        Ok(())
    }

    /// Records that a table of `entries` entries was dropped.
    fn release(&mut self, entries: usize) {
        self.live -= entries as u64;
    }
}

/// The constraints (indexes into `vars`) whose variables all lie in `bag`.
fn within(bag: &[u32], vars: &[Vec<u32>]) -> Vec<usize> {
    (0..vars.len()).filter(|&k| vars[k].iter().all(|lv| bag.binary_search(lv).is_ok())).collect()
}

impl<'a> Component<'a, '_> {
    /// `#Hom` of this component: compiles every bag, then sweeps them
    /// bottom-up, each into a table keyed by its parent separator.
    fn count<A: Accumulator>(
        &self,
        access: &mut Access<'a>,
        gauge: &mut TableGauge,
        ctl: &EvalControl,
        ticker: &mut Ticker<'_>,
    ) -> Result<A, Cancelled> {
        let _span = bagcq_obs::span("homcount.bagsweep", "dp");
        let (td, local) = (self.td, self.local);
        let atom_vars: Vec<Vec<u32>> =
            self.atom_idx.iter().map(|&ai| local_vars(&self.q.atoms()[ai].args, local)).collect();
        let ineq_vars: Vec<Vec<u32>> = self
            .ineq_idx
            .iter()
            .map(|&ii| {
                let ineq = &self.q.inequalities()[ii];
                local_vars([&ineq.lhs, &ineq.rhs], local)
            })
            .collect();
        // Sanity (debug builds): every constraint is checked in some bag.
        debug_assert!([&atom_vars, &ineq_vars].iter().all(|vars| {
            (0..vars.len()).all(|k| td.bags.iter().any(|bag| within(bag, vars).contains(&k)))
        }));
        let order = postorder(td);
        let plans = order
            .iter()
            .map(|&b| self.compile(b, &atom_vars, &ineq_vars, access))
            .collect::<Result<Vec<BagPlan>, _>>()?;

        let mut tables: Vec<HashMap<u128, A>> =
            (0..td.bags.len()).map(|_| HashMap::new()).collect();
        for (&b, plan) in order.iter().zip(&plans) {
            let mut sweep = Sweep {
                d: self.d,
                n: self.d.vertex_count(),
                plan,
                indexes: &access.indexes,
                rows: &access.rows,
                tables: &tables,
                vals: vec![0; plan.steps.len()],
                weights: vec![A::one(); plan.steps.len() + 1],
                buf: Vec::new(),
                ticker: &mut *ticker,
                ctl,
                gauge: &mut *gauge,
                out: HashMap::new(),
                unkeyed: A::zero(),
            };
            sweep.step(0)?;
            let out = sweep.finish()?;
            for &c in &td.children[b] {
                gauge.release(std::mem::take(&mut tables[c]).len());
            }
            tables[b] = out;
        }
        let root = std::mem::take(&mut tables[td.root]);
        gauge.release(root.len());
        let mut total = A::zero();
        for w in root.values() {
            total.add_assign_acc(w);
        }
        Ok(total)
    }

    /// Compiles bag `b`: orders its variables, assigns every constraint
    /// and child table to the position where it becomes fully bound, and
    /// lists the candidate sources. Fails with `MemoryBudgetExceeded` when
    /// the bag's table key cannot be packed into a `u128`.
    fn compile(
        &self,
        b: usize,
        atom_vars: &[Vec<u32>],
        ineq_vars: &[Vec<u32>],
        access: &mut Access<'a>,
    ) -> Result<BagPlan, Cancelled> {
        let (q, d, td, local) = (self.q, self.d, self.td, self.local);
        let bag = &td.bags[b];
        let in_bag = |lv: &u32| bag.binary_search(lv).is_ok();
        let (atoms, ineqs) = (within(bag, atom_vars), within(bag, ineq_vars));
        let seps: Vec<Vec<u32>> = td.children[b]
            .iter()
            .map(|&c| td.bags[c].iter().copied().filter(in_bag).collect())
            .collect();
        let key_vars: Vec<u32> = match td.parent[b] {
            Some(p) => {
                bag.iter().copied().filter(|lv| td.bags[p].binary_search(lv).is_ok()).collect()
            }
            None => Vec::new(),
        };
        if u128::from(d.vertex_count()).checked_pow(key_vars.len() as u32).is_none() {
            return Err(Cancelled(CancelReason::MemoryBudgetExceeded));
        }

        // Enumeration order: repeatedly take a variable that a closing atom
        // can hand candidates to, then the one the most constraints close
        // on; ties go to the lowest local id.
        let mut order: Vec<u32> = Vec::with_capacity(bag.len());
        let closes = |order: &[u32], vs: &[u32], v: u32| {
            vs.contains(&v) && vs.iter().all(|lv| *lv == v || order.contains(lv))
        };
        let sources_on = |order: &[u32], k: usize, v: u32| {
            q.atoms()[self.atom_idx[k]].args.len() > 1
                && closes(order, &atom_vars[k], v)
                && atom_vars[k].iter().filter(|&&lv| lv == v).count() == 1
        };
        while order.len() < bag.len() {
            let mut best: Option<(u32, (bool, usize))> = None;
            for &v in bag.iter().filter(|v| !order.contains(v)) {
                let source = atoms.iter().any(|&k| sources_on(&order, k, v));
                let closing = atoms
                    .iter()
                    .map(|&k| &atom_vars[k])
                    .chain(ineqs.iter().map(|&k| &ineq_vars[k]))
                    .chain(&seps)
                    .filter(|vs| closes(&order, vs, v))
                    .count();
                if best.is_none_or(|(_, score)| (source, closing) > score) {
                    best = Some((v, (source, closing)));
                }
            }
            order.push(best.expect("an unplaced bag variable").0);
        }

        let slot = |lv: u32| order.iter().position(|&v| v == lv).expect("a bag variable");
        let closing_step = |vs: &[u32]| vs.iter().map(|&lv| slot(lv)).max();
        let arg = |t: &Term| match t {
            Term::Var(v) => Arg::Slot(slot(local[v.0 as usize])),
            Term::Const(c) => Arg::Vertex(d.constant_vertex(*c).0),
        };
        let mut steps: Vec<Step> = order.iter().map(|_| Step::default()).collect();
        for &k in &atoms {
            let i = closing_step(&atom_vars[k]).expect("component atoms have variables");
            let atom = &q.atoms()[self.atom_idx[k]];
            let step = &mut steps[i];
            if sources_on(&order[..i], k, order[i]) {
                let new_pos =
                    atom.args.iter().position(|t| matches!(arg(t), Arg::Slot(s) if s == i));
                let new_pos = new_pos.expect("the source atom holds the new variable");
                for probe in (0..atom.args.len()).filter(|&p| p != new_pos) {
                    let index = access.indexes.id(d, atom.rel, probe);
                    step.sources.push(Source { atom: step.atoms.len(), new_pos, probe, index });
                }
                access.collect_rows(d, atom.rel);
            }
            step.atoms.push(Closing { rel: atom.rel, args: atom.args.iter().map(arg).collect() });
        }
        for &k in &ineqs {
            let i = closing_step(&ineq_vars[k]).expect("component inequalities have variables");
            let ineq = &q.inequalities()[self.ineq_idx[k]];
            steps[i].ineqs.push((arg(&ineq.lhs), arg(&ineq.rhs)));
        }
        for (&c, sep) in td.children[b].iter().zip(&seps) {
            let i = closing_step(sep).expect("a connected component's separators are nonempty");
            steps[i]
                .children
                .push(ChildLookup { bag: c, slots: sep.iter().map(|&lv| slot(lv)).collect() });
        }
        let key = key_vars.iter().map(|&lv| slot(lv)).collect();
        Ok(BagPlan { steps, key })
    }
}

/// The enumeration of one bag: binds its variables step by step and adds
/// each satisfying assignment's weight (the product of its child-table
/// entries) to the bag's table.
struct Sweep<'s, 't, A> {
    d: &'s Structure,
    n: u32,
    plan: &'s BagPlan,
    indexes: &'s IndexCache,
    rows: &'s [Vec<&'s [u32]>],
    tables: &'s [HashMap<u128, A>],
    /// The vertex bound to each slot so far.
    vals: Vec<u32>,
    /// `weights[i]`: the product of the child entries closed before step `i`.
    weights: Vec<A>,
    /// Reused tuple buffer for membership tests.
    buf: Vec<u32>,
    ticker: &'s mut Ticker<'t>,
    ctl: &'s EvalControl,
    gauge: &'s mut TableGauge,
    out: HashMap<u128, A>,
    /// The root's total (its table has no key).
    unkeyed: A,
}

impl<A: Accumulator> Sweep<'_, '_, A> {
    #[inline]
    fn value(&self, a: Arg) -> u32 {
        match a {
            Arg::Slot(s) => self.vals[s],
            Arg::Vertex(u) => u,
        }
    }

    /// The vertices of `slots`, packed base `n`.
    #[inline]
    fn pack(&self, slots: &[usize]) -> u128 {
        let n = u128::from(self.n);
        slots.iter().fold(0, |key, &s| key * n + u128::from(self.vals[s]))
    }

    /// Tries every candidate for step `i`: the tuples of the smallest
    /// source bucket that agree with every bound argument, or else the
    /// whole domain. One tick per candidate.
    fn step(&mut self, i: usize) -> Result<(), Cancelled> {
        let (plan, indexes, rows) = (self.plan, self.indexes, self.rows);
        let Some(step) = plan.steps.get(i) else {
            return self.emit();
        };
        if step.children.is_empty() {
            self.weights[i + 1] = self.weights[i].clone();
        }
        let mut best: Option<(&Source, &[u32])> = None;
        for src in &step.sources {
            let ids =
                indexes.by_id(src.index).get(self.value(step.atoms[src.atom].args[src.probe]));
            if best.is_none_or(|(_, fewest)| ids.len() < fewest.len()) {
                best = Some((src, ids));
            }
        }
        match best {
            Some((src, ids)) => {
                let atom = &step.atoms[src.atom];
                let tuples = &rows[atom.rel.0 as usize];
                'tuples: for &t in ids {
                    self.ticker.tick()?;
                    let tuple = tuples[t as usize];
                    for (p, &a) in atom.args.iter().enumerate() {
                        if p != src.new_pos && tuple[p] != self.value(a) {
                            continue 'tuples;
                        }
                    }
                    self.bind(i, tuple[src.new_pos], Some(src.atom))?;
                }
            }
            None => {
                for u in 0..self.n {
                    self.ticker.tick()?;
                    self.bind(i, u, None)?;
                }
            }
        }
        Ok(())
    }

    /// Binds step `i`'s variable to `u` and checks what closes there (the
    /// atom the candidate came from holds already), then recurses.
    fn bind(&mut self, i: usize, u: u32, source: Option<usize>) -> Result<(), Cancelled> {
        let step = &self.plan.steps[i];
        self.vals[i] = u;
        if step.ineqs.iter().any(|&(l, r)| self.value(l) == self.value(r)) {
            return Ok(());
        }
        for (j, atom) in step.atoms.iter().enumerate() {
            if Some(j) != source && !self.holds(atom) {
                return Ok(());
            }
        }
        if !step.children.is_empty() {
            let mut w = self.weights[i].clone();
            for child in &step.children {
                match self.tables[child.bag].get(&self.pack(&child.slots)) {
                    Some(c) => w.mul_assign_acc(c),
                    None => return Ok(()),
                }
            }
            self.weights[i + 1] = w;
        }
        self.step(i + 1)
    }

    fn holds(&mut self, atom: &Closing) -> bool {
        self.buf.clear();
        for &a in &atom.args {
            let v = self.value(a);
            self.buf.push(v);
        }
        self.d.contains_tuple(atom.rel, &self.buf)
    }

    /// Adds a complete bag assignment's weight under its table key.
    fn emit(&mut self) -> Result<(), Cancelled> {
        let plan = self.plan;
        if plan.key.is_empty() {
            self.unkeyed.add_assign_acc(&self.weights[plan.steps.len()]);
            return Ok(());
        }
        let key = self.pack(&plan.key);
        let w = &self.weights[plan.steps.len()];
        match self.out.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().add_assign_acc(w),
            Entry::Vacant(e) => {
                e.insert(w.clone());
                self.gauge.grow::<A>(self.ctl)?;
            }
        }
        Ok(())
    }

    /// The finished table, its growth charged.
    fn finish(mut self) -> Result<HashMap<u128, A>, Cancelled> {
        if !self.unkeyed.is_zero() {
            let total = std::mem::replace(&mut self.unkeyed, A::zero());
            self.out.insert(0, total);
            self.gauge.grow::<A>(self.ctl)?;
        }
        self.gauge.settle::<A>(self.ctl)?;
        Ok(self.out)
    }
}

fn postorder(td: &TreeDecomposition) -> Vec<usize> {
    let mut out = Vec::with_capacity(td.bags.len());
    let mut stack = vec![(td.root, false)];
    while let Some((b, visited)) = stack.pop() {
        if visited {
            out.push(b);
        } else {
            stack.push((b, true));
            for &c in &td.children[b] {
                stack.push((c, false));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendChoice, CountError, CountRequest};
    use bagcq_query::{cycle_query, grid_query, path_query, star_query, QueryGen};
    use bagcq_structure::{SchemaBuilder, StructureGen, Vertex};
    use std::sync::Arc;

    fn naive_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Naive).count()
    }

    fn tw_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Treewidth).count()
    }

    fn tw_try_count(q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, Cancelled> {
        match CountRequest::new(q, d).backend(BackendChoice::Treewidth).control(ctl.clone()).run() {
            Ok(n) => Ok(n),
            Err(CountError::Cancelled(c)) => Err(c),
            Err(e) => panic!("treewidth backend only fails by cancellation: {e}"),
        }
    }

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    fn cycle_struct(schema: &Arc<bagcq_structure::Schema>, n: u32) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(n);
        for i in 0..n {
            d.add_atom(e, &[Vertex(i), Vertex((i + 1) % n)]);
        }
        d
    }

    #[test]
    fn agrees_with_naive_on_families() {
        let s = digraph();
        let d = cycle_struct(&s, 5);
        let mut d2 = d.clone();
        let e = s.relation_by_name("E").unwrap();
        d2.add_atom(e, &[Vertex(0), Vertex(0)]);
        d2.add_atom(e, &[Vertex(2), Vertex(0)]);
        for q in [
            path_query(&s, "E", 3),
            cycle_query(&s, "E", 4),
            star_query(&s, "E", 3),
            grid_query(&s, "E", 3, 2),
        ] {
            for dd in [&d, &d2] {
                assert_eq!(tw_count(&q, dd), naive_count(&q, dd), "query {q}");
            }
        }
    }

    #[test]
    fn agrees_with_naive_on_random_inputs() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.relation("F", 2);
        b.constant("a");
        let s = b.build();
        let qg = QueryGen { variables: 5, atoms: 6, constant_prob: 0.15, inequalities: 1 };
        let sg = StructureGen { extra_vertices: 4, density: 0.4, ..Default::default() };
        for seed in 0..30u64 {
            let q = qg.sample(&s, seed);
            let d = sg.sample(&s, seed.wrapping_mul(31) + 7);
            assert_eq!(tw_count(&q, &d), naive_count(&q, &d), "seed {seed}, query {q}");
        }
    }

    #[test]
    fn width_diagnostics() {
        let s = digraph();
        assert_eq!(TreewidthCounter.decomposition_width(&path_query(&s, "E", 5)), 1);
        assert_eq!(TreewidthCounter.decomposition_width(&cycle_query(&s, "E", 5)), 2);
        // Grids: min-fill is a heuristic; just check it is near-optimal.
        let w = TreewidthCounter.decomposition_width(&grid_query(&s, "E", 3, 3));
        assert!((2..=4).contains(&w), "grid width {w}");
    }

    #[test]
    fn power_queries_stay_cheap() {
        // θ↑6 over a 6-cycle: component factorization must keep this fast
        // and exact: count = (#homs θ)^6.
        let s = digraph();
        let d = cycle_struct(&s, 6);
        let q = path_query(&s, "E", 2).power(6);
        let single = tw_count(&path_query(&s, "E", 2), &d);
        assert_eq!(tw_count(&q, &d), single.pow_u64(6));
    }

    #[test]
    fn inequality_queries_agree() {
        let s = digraph();
        let d = cycle_struct(&s, 4);
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom_named("E", &[x, y]).atom_named("E", &[y, z]).neq(x, z);
        let q = qb.build();
        assert_eq!(tw_count(&q, &d), naive_count(&q, &d));
    }

    #[test]
    fn step_budget_stops_dp() {
        use crate::cancel::{CancelReason, Cancelled, EvalControl};
        let s = digraph();
        let d = cycle_struct(&s, 40);
        let q = grid_query(&s, "E", 4, 4);
        let tiny = EvalControl::new(5, None);
        assert_eq!(tw_try_count(&q, &d, &tiny), Err(Cancelled(CancelReason::BudgetExhausted)));
        let roomy = EvalControl::new(500_000_000, None);
        assert_eq!(tw_try_count(&q, &d, &roomy), Ok(tw_count(&q, &d)));
    }

    /// Width-1 queries pay at most `n` ticks for the first variable of a
    /// bag and `m` for the second, so `#vars·(n + m)` steps suffice: a
    /// noise-free guard against scanning the domain for every bag
    /// variable.
    #[test]
    fn width_one_counts_fit_the_candidate_bound() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let sparse = cycle_struct(&s, 16);
        let mut denser = sparse.clone();
        for i in 0..16 {
            denser.add_atom(e, &[Vertex(i), Vertex((i + 3) % 16)]);
            denser.add_atom(e, &[Vertex(i), Vertex((i + 7) % 16)]);
        }
        for i in 0..8 {
            denser.add_atom(e, &[Vertex(i), Vertex((i + 11) % 16)]);
        }
        assert_eq!((sparse.atom_count(e), denser.atom_count(e)), (16, 56));
        for d in [&sparse, &denser] {
            let (n, m) = (d.vertex_count() as u64, d.atom_count(e) as u64);
            for q in [path_query(&s, "E", 8), star_query(&s, "E", 6)] {
                let budget = q.var_count() as u64 * (n + m);
                let ctl = EvalControl::new(budget, None);
                assert_eq!(
                    tw_try_count(&q, d, &ctl),
                    Ok(naive_count(&q, d)),
                    "{q} over n = {n}, m = {m} within {budget} steps"
                );
            }
        }
    }

    #[test]
    fn empty_and_ground_queries() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let s = b.build();
        let e = s.relation_by_name("E").unwrap();
        let q_empty = bagcq_query::Query::empty(Arc::clone(&s));
        let mut d = Structure::new(Arc::clone(&s));
        assert_eq!(tw_count(&q_empty, &d), Nat::one());

        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let a = qb.constant("a");
        qb.atom_named("E", &[a, a]);
        let q_ground = qb.build();
        assert_eq!(tw_count(&q_ground, &d), Nat::zero());
        let av = d.constant_vertex(s.constant_by_name("a").unwrap());
        d.add_atom(e, &[av, av]);
        assert_eq!(tw_count(&q_ground, &d), Nat::one());
    }
}
