//! The baseline counting engine: indexed backtracking enumeration.
//!
//! `ψ(D) = |Hom(ψ, D)|` is computed by ordering the atoms greedily for
//! connectivity and backtracking over candidate tuples, using per-position
//! inverted indexes on the structure. Two structural optimizations keep the
//! engine usable on the paper's constructions:
//!
//! * **component factorization** — by Lemma 1 the count of a query is the
//!   product over its connected components, so `θ↑k` costs `k` component
//!   counts, not `θ(D)^k` enumeration steps. The components come from the
//!   [`PreparedQuery`], split once per query, not once per count;
//! * **free-variable factor** — variables occurring in no atom and no
//!   inequality contribute `|V_D|` each.
//!
//! Counting and [`try_for_each_hom_limited`] run the same search: one
//! gate on variable-free atoms and inequalities, then one backtracker that
//! hands each complete assignment to a visitor. The search compiles its
//! plan once — per depth, the atom matched there and the index probed on
//! each of its bound positions, with those indexes built and the
//! relations' rows collected up front — so a search node allocates
//! nothing: it takes the smallest bucket of its probes and iterates it in
//! place.
//!
//! The engine is deliberately simple: it is the *reference* whose results
//! the tree-decomposition engine (and everything built on top) is
//! cross-validated against.

use crate::cancel::{Cancelled, EvalControl, Ticker};
use crate::common::{
    free_var_factor, ground_facts_hold, inequality_ok, resolve, Access, UNASSIGNED,
};
use crate::prepared::PreparedQuery;
use bagcq_arith::{Accumulator, Nat};
use bagcq_query::{Atom, Query, Term};
use bagcq_structure::Structure;

/// Reference counting engine (indexed backtracking).
#[derive(Default, Clone, Copy, Debug)]
pub struct NaiveCounter;

impl NaiveCounter {
    /// Ablation baseline: counts by enumerating every homomorphism one at
    /// a time, with no component factorization and no free-variable
    /// shortcut. Exponentially slower on disjoint conjunctions (`θ↑k`
    /// costs `θ(D)^k` steps instead of `k` component counts) — used by the
    /// ablation benchmark to quantify what the factorization buys.
    pub fn count_enumerative(&self, q: &Query, d: &Structure) -> Nat {
        let mut total = Nat::zero();
        for_each_hom_limited(q, d, 0, |_| {
            total.add_assign_u64(1);
            true
        });
        total
    }

    /// Decides `D ⊨ ψ` (set semantics): is there at least one homomorphism?
    pub fn exists(&self, q: &Query, d: &Structure) -> bool {
        let mut any = false;
        for_each_hom_limited(q, d, 1, |_| {
            any = true;
            false
        });
        any
    }
}

/// The backtracking kernel, generic over the accumulator (requests run it
/// over the widening [`bagcq_arith::Acc`]).
pub(crate) fn try_count_generic<A: Accumulator>(
    p: &PreparedQuery<'_>,
    d: &Structure,
    ctl: &EvalControl,
) -> Result<Nat, Cancelled> {
    let _span = bagcq_obs::span("homcount.naive", "backtrack");
    let q = p.query();
    if !ground_facts_hold(q, d) {
        return Ok(Nat::zero());
    }
    let mut ticker = ctl.ticker();
    let mut access = Access::default();
    let mut total = A::one();
    for comp in p.components() {
        let order = order_atoms(q, d, &comp.atoms);
        let plan = Plan::compile(q, d, &order, &comp.ineqs, &comp.vars, &mut access);
        let mut c = A::zero();
        plan.run(&access, &mut ticker, &mut |_| {
            c.add_one();
            true
        })?;
        if c.is_zero() {
            return Ok(Nat::zero());
        }
        ctl.charge(c.heap_bytes())?;
        total.mul_assign_acc(&c);
    }
    if p.free_vars() > 0 {
        let n = d.vertex_count() as u64;
        total.mul_assign_nat(&free_var_factor(n, p.free_vars() as u64, ctl)?);
    }
    Ok(total.into_nat())
}

/// Greedy atom ordering: repeatedly pick the atom with the most already-
/// bound variables (connectivity first), tie-breaking towards smaller
/// relations.
fn order_atoms(q: &Query, d: &Structure, atom_idx: &[usize]) -> Vec<usize> {
    let mut remaining: Vec<usize> = atom_idx.to_vec();
    let mut bound: Vec<bool> = vec![false; q.var_count() as usize];
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &ai)| {
                let a = &q.atoms()[ai];
                let bound_vars = a
                    .args
                    .iter()
                    .filter(|t| matches!(t, Term::Var(v) if bound[v.0 as usize]))
                    .count();
                let consts = a.args.iter().filter(|t| matches!(t, Term::Const(_))).count();
                // Prefer connectivity, then constants, then small relations.
                (bound_vars, consts, usize::MAX - d.atom_count(a.rel))
            })
            .expect("nonempty");
        order.push(best);
        for t in &q.atoms()[best].args {
            if let Term::Var(v) = t {
                bound[v.0 as usize] = true;
            }
        }
        remaining.swap_remove(pos);
    }
    order
}

/// The atom matched at one depth of the search, and the index probed on
/// each argument position bound on entry to that depth (a constant, or a
/// variable an earlier atom binds), in position order.
struct Level<'a> {
    atom: &'a Atom,
    /// `(position, index id)`.
    probes: Vec<(usize, usize)>,
}

/// The fixed half of one backtracking search: matches the atoms of an
/// order in turn, then enumerates the domain for each variable of `vars`
/// no atom bound, checking the inequalities of `ineqs` as soon as a
/// variable binds.
struct Plan<'a> {
    q: &'a Query,
    d: &'a Structure,
    levels: Vec<Level<'a>>,
    ineqs: &'a [usize],
    vars: &'a [u32],
}

/// The mutable half: the partial assignment, the variables bound since
/// each depth began (so a failed candidate unwinds), and the step counter.
/// Every candidate tuple and every candidate vertex costs one tick.
struct SearchState<'s, 't> {
    assign: Vec<u32>,
    trail: Vec<u32>,
    ticker: &'s mut Ticker<'t>,
}

impl<'a> Plan<'a> {
    /// Compiles the search over `order`: which positions each depth finds
    /// bound and the index each one probes. Builds those indexes and
    /// collects the matched relations' rows into `access`.
    fn compile(
        q: &'a Query,
        d: &'a Structure,
        order: &[usize],
        ineqs: &'a [usize],
        vars: &'a [u32],
        access: &mut Access<'a>,
    ) -> Self {
        let mut bound = vec![false; q.var_count() as usize];
        let mut levels = Vec::with_capacity(order.len());
        for &ai in order {
            let atom = &q.atoms()[ai];
            let probes = (0..atom.args.len())
                .filter(|&pos| match atom.args[pos] {
                    Term::Const(_) => true,
                    Term::Var(v) => bound[v.0 as usize],
                })
                .map(|pos| (pos, access.indexes.id(d, atom.rel, pos)))
                .collect();
            for t in &atom.args {
                if let Term::Var(v) = t {
                    bound[v.0 as usize] = true;
                }
            }
            access.collect_rows(d, atom.rel);
            levels.push(Level { atom, probes });
        }
        Plan { q, d, levels, ineqs, vars }
    }

    /// Hands each complete assignment to `visit`, which returns `false` to
    /// stop the search.
    fn run(
        &self,
        access: &Access<'_>,
        ticker: &mut Ticker<'_>,
        visit: &mut impl FnMut(&[u32]) -> bool,
    ) -> Result<(), Cancelled> {
        let mut state = SearchState {
            assign: vec![UNASSIGNED; self.q.var_count() as usize],
            trail: Vec::with_capacity(self.q.var_count() as usize),
            ticker,
        };
        state.atoms(self, access, 0, visit).map(drop)
    }

    fn ineqs_ok(&self, assign: &[u32]) -> bool {
        let ineqs = self.q.inequalities();
        self.ineqs.iter().all(|&ii| inequality_ok(&ineqs[ii], assign, self.d))
    }
}

impl SearchState<'_, '_> {
    /// Matches the atoms from `depth` on; `Ok(false)` once `visit` has
    /// stopped. Candidates come from the smallest bucket among the depth's
    /// probes (ties to the first position), else from the whole relation.
    fn atoms(
        &mut self,
        plan: &Plan<'_>,
        access: &Access<'_>,
        depth: usize,
        visit: &mut impl FnMut(&[u32]) -> bool,
    ) -> Result<bool, Cancelled> {
        let Some(level) = plan.levels.get(depth) else {
            return self.unbound(plan, 0, visit);
        };
        let mut best: Option<&[u32]> = None;
        for &(pos, index) in &level.probes {
            let v = resolve(&level.atom.args[pos], &self.assign, plan.d);
            let ids = access.indexes.by_id(index).get(v);
            if best.is_none_or(|fewest| ids.len() < fewest.len()) {
                best = Some(ids);
            }
        }
        let rows = &access.rows[level.atom.rel.0 as usize];
        match best {
            Some(ids) => {
                for &ti in ids {
                    if !self.candidate(plan, access, depth, rows[ti as usize], visit)? {
                        return Ok(false);
                    }
                }
            }
            None => {
                for &tuple in rows {
                    if !self.candidate(plan, access, depth, tuple, visit)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Tries `tuple` for the atom at `depth`: one tick, then binds the
    /// atom's unbound variables and recurses if it fits.
    fn candidate(
        &mut self,
        plan: &Plan<'_>,
        access: &Access<'_>,
        depth: usize,
        tuple: &[u32],
        visit: &mut impl FnMut(&[u32]) -> bool,
    ) -> Result<bool, Cancelled> {
        self.ticker.tick()?;
        let mark = self.trail.len();
        for (t, &want) in plan.levels[depth].atom.args.iter().zip(tuple) {
            let fits = match t {
                Term::Const(c) => plan.d.constant_vertex(*c).0 == want,
                Term::Var(v) if self.assign[v.0 as usize] == UNASSIGNED => {
                    self.assign[v.0 as usize] = want;
                    self.trail.push(v.0);
                    plan.ineqs_ok(&self.assign)
                }
                Term::Var(v) => self.assign[v.0 as usize] == want,
            };
            if !fits {
                self.unwind(mark);
                return Ok(true);
            }
        }
        let go_on = self.atoms(plan, access, depth + 1, visit)?;
        self.unwind(mark);
        Ok(go_on)
    }

    /// Enumerates the domain for each still-unbound variable of
    /// `plan.vars[i..]`; `Ok(false)` once `visit` has stopped.
    fn unbound(
        &mut self,
        plan: &Plan<'_>,
        i: usize,
        visit: &mut impl FnMut(&[u32]) -> bool,
    ) -> Result<bool, Cancelled> {
        let next = plan.vars[i..].iter().position(|&v| self.assign[v as usize] == UNASSIGNED);
        let Some(k) = next else {
            return Ok(visit(&self.assign));
        };
        let v = plan.vars[i + k] as usize;
        for u in 0..plan.d.vertex_count() {
            self.ticker.tick()?;
            self.assign[v] = u;
            if plan.ineqs_ok(&self.assign) && !self.unbound(plan, i + k + 1, visit)? {
                return Ok(false);
            }
        }
        self.assign[v] = UNASSIGNED;
        Ok(true)
    }

    fn unwind(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.assign[v as usize] = UNASSIGNED;
        }
    }
}

/// Enumerates complete homomorphisms (every variable assigned, including
/// free ones), invoking `f` with the assignment; `f` returns `false` to
/// stop early. `limit == 0` means unlimited.
///
/// This is the exhaustive path used by the onto-homomorphism search and by
/// cross-validation tests; the optimized counters above never materialize
/// individual homs.
pub fn for_each_hom_limited(q: &Query, d: &Structure, limit: u64, f: impl FnMut(&[u32]) -> bool) {
    try_for_each_hom_limited(q, d, limit, &EvalControl::unlimited(), f)
        .expect("unlimited enumeration cannot be cancelled")
}

/// Cancellable form of [`for_each_hom_limited`]: additionally stops with
/// [`Cancelled`] when the step budget, deadline or hook of `ctl` trips.
pub fn try_for_each_hom_limited(
    q: &Query,
    d: &Structure,
    limit: u64,
    ctl: &EvalControl,
    mut f: impl FnMut(&[u32]) -> bool,
) -> Result<(), Cancelled> {
    if !ground_facts_hold(q, d) {
        return Ok(());
    }
    let all_atoms: Vec<usize> = (0..q.atoms().len()).collect();
    let all_ineqs: Vec<usize> = (0..q.inequalities().len()).collect();
    let all_vars: Vec<u32> = (0..q.var_count()).collect();
    let order = order_atoms(q, d, &all_atoms);
    let mut access = Access::default();
    let plan = Plan::compile(q, d, &order, &all_ineqs, &all_vars, &mut access);
    let mut ticker = ctl.ticker();
    let mut seen: u64 = 0;
    plan.run(&access, &mut ticker, &mut |assign| {
        seen += 1;
        f(assign) && (limit == 0 || seen < limit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendChoice, CountError, CountRequest};
    use bagcq_query::{cycle_query, path_query, star_query};
    use bagcq_structure::{SchemaBuilder, Vertex};
    use std::sync::Arc;

    fn naive_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Naive).count()
    }

    fn naive_try_count(q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, Cancelled> {
        match CountRequest::new(q, d).backend(BackendChoice::Naive).control(ctl.clone()).run() {
            Ok(n) => Ok(n),
            Err(CountError::Cancelled(c)) => Err(c),
            Err(e) => panic!("naive backend only fails by cancellation: {e}"),
        }
    }

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    /// Directed cycle structure of length n.
    fn cycle_struct(schema: &Arc<bagcq_structure::Schema>, n: u32) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(n);
        for i in 0..n {
            d.add_atom(e, &[Vertex(i), Vertex((i + 1) % n)]);
        }
        d
    }

    /// Complete digraph with loops on n vertices.
    fn complete_struct(schema: &Arc<bagcq_structure::Schema>, n: u32) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(n);
        for i in 0..n {
            for j in 0..n {
                d.add_atom(e, &[Vertex(i), Vertex(j)]);
            }
        }
        d
    }

    #[test]
    fn edge_into_cycle() {
        let s = digraph();
        let d = cycle_struct(&s, 5);
        let q = path_query(&s, "E", 1);
        // Every edge is a hom: 5.
        assert_eq!(naive_count(&q, &d), Nat::from_u64(5));
    }

    #[test]
    fn paths_into_complete_graph() {
        let s = digraph();
        let d = complete_struct(&s, 4);
        // A path with k edges has k+1 vertices: 4^(k+1) homs.
        for k in 1..5 {
            let q = path_query(&s, "E", k);
            assert_eq!(naive_count(&q, &d), Nat::from_u64(4u64.pow(k + 1)), "path length {k}");
        }
    }

    #[test]
    fn cycle_into_cycle() {
        let s = digraph();
        // Homs C_k → C_n: k-cycle maps onto n-cycle iff n | k, and there
        // are n of them (choice of start).
        let d = cycle_struct(&s, 3);
        assert_eq!(naive_count(&cycle_query(&s, "E", 3), &d), Nat::from_u64(3));
        assert_eq!(naive_count(&cycle_query(&s, "E", 6), &d), Nat::from_u64(3));
        assert_eq!(naive_count(&cycle_query(&s, "E", 4), &d), Nat::zero());
    }

    #[test]
    fn star_counts() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(4);
        // 0 → 1,2,3
        for j in 1..4 {
            d.add_atom(e, &[Vertex(0), Vertex(j)]);
        }
        // Star with 2 leaves from the center: 3² choices of leaves.
        let q = star_query(&s, "E", 2);
        assert_eq!(naive_count(&q, &d), Nat::from_u64(9));
    }

    #[test]
    fn lemma1_multiplicativity() {
        // (ρ ∧̄ ρ')(D) = ρ(D)·ρ'(D) — the disjoint-conjunction law.
        let s = digraph();
        let d = cycle_struct(&s, 4);
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let conj = p1.disjoint_conj(&p2);
        let c1 = naive_count(&p1, &d);
        let c2 = naive_count(&p2, &d);
        assert_eq!(naive_count(&conj, &d), c1.mul_ref(&c2));
    }

    #[test]
    fn definition2_power_law() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        let q = path_query(&s, "E", 1);
        let c = naive_count(&q, &d);
        for k in 0..4 {
            assert_eq!(naive_count(&q.power(k), &d), c.pow_u64(k as u64), "power {k}");
        }
    }

    #[test]
    fn inequality_semantics() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        // E(x,y): 9 homs; with x ≠ y: 6.
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        assert_eq!(naive_count(&qb.build(), &d), Nat::from_u64(6));
    }

    #[test]
    fn inequality_only_variables() {
        let s = digraph();
        let d = complete_struct(&s, 4);
        // x ≠ y with neither in an atom: 4·3 = 12 assignments.
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.neq(x, y);
        assert_eq!(naive_count(&qb.build(), &d), Nat::from_u64(12));
    }

    #[test]
    fn free_variable_factor() {
        let s = digraph();
        let d = complete_struct(&s, 5);
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        let _free = qb.var("free");
        qb.atom_named("E", &[x, y]);
        // 25 edge homs × 5 for the free variable.
        assert_eq!(naive_count(&qb.build(), &d), Nat::from_u64(125));
    }

    #[test]
    fn empty_query_counts_one() {
        let s = digraph();
        let d = cycle_struct(&s, 3);
        let q = bagcq_query::Query::empty(Arc::clone(&s));
        assert_eq!(naive_count(&q, &d), Nat::one());
    }

    #[test]
    fn ground_atoms_gate() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let s = b.build();
        let e = s.relation_by_name("E").unwrap();
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let a = qb.constant("a");
        qb.atom_named("E", &[a, a]);
        let q = qb.build();

        let mut d = Structure::new(Arc::clone(&s));
        assert_eq!(naive_count(&q, &d), Nat::zero());
        let av = d.constant_vertex(s.constant_by_name("a").unwrap());
        d.add_atom(e, &[av, av]);
        assert_eq!(naive_count(&q, &d), Nat::one());
    }

    #[test]
    fn variable_free_inequality_gates_every_path() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        b.constant("b");
        let s = b.build();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&s));
        let av = d.constant_vertex(s.constant_by_name("a").unwrap());
        d.add_atom(e, &[av, av]);
        // E(a,a) ∧ a≠a has no homomorphism; E(a,a) ∧ a≠b has exactly one.
        for (rhs, want) in [("a", 0u64), ("b", 1)] {
            let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
            let a = qb.constant("a");
            let r = qb.constant(rhs);
            qb.atom_named("E", &[a, a]).neq(a, r);
            let q = qb.build();
            let mut homs = 0u64;
            for_each_hom_limited(&q, &d, 0, |_| {
                homs += 1;
                true
            });
            assert_eq!(naive_count(&q, &d), Nat::from_u64(want), "count, a≠{rhs}");
            assert_eq!(homs, want, "enumeration, a≠{rhs}");
            assert_eq!(NaiveCounter.exists(&q, &d), want == 1, "exists, a≠{rhs}");
            assert_eq!(NaiveCounter.count_enumerative(&q, &d), Nat::from_u64(want), "a≠{rhs}");
        }
    }

    #[test]
    fn repeated_variable_in_atom() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(3);
        d.add_atom(e, &[Vertex(0), Vertex(0)]); // loop
        d.add_atom(e, &[Vertex(0), Vertex(1)]);
        // E(x,x) matches only the loop.
        let q = cycle_query(&s, "E", 1);
        assert_eq!(naive_count(&q, &d), Nat::one());
    }

    #[test]
    fn exists_early_exit() {
        let s = digraph();
        let d = complete_struct(&s, 10);
        let q = path_query(&s, "E", 6);
        assert!(NaiveCounter.exists(&q, &d));
        let d0 = Structure::new(Arc::clone(&s));
        assert!(!NaiveCounter.exists(&q, &d0));
    }

    #[test]
    fn for_each_hom_enumerates_all() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        let q = path_query(&s, "E", 1);
        let mut homs = Vec::new();
        for_each_hom_limited(&q, &d, 0, |a| {
            homs.push(a.to_vec());
            true
        });
        assert_eq!(homs.len(), 9);
        homs.sort();
        homs.dedup();
        assert_eq!(homs.len(), 9);
    }

    #[test]
    fn for_each_hom_respects_limit() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        let q = path_query(&s, "E", 1);
        let mut n = 0;
        for_each_hom_limited(&q, &d, 4, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 4);
    }

    #[test]
    fn step_budget_stops_count() {
        use crate::cancel::CancelReason;
        let s = digraph();
        let d = complete_struct(&s, 8);
        let q = path_query(&s, "E", 5);
        // A tiny budget must trip; a generous one must agree with count().
        let tiny = EvalControl::new(3, None);
        assert_eq!(naive_try_count(&q, &d, &tiny), Err(Cancelled(CancelReason::BudgetExhausted)));
        let roomy = EvalControl::new(100_000_000, None);
        assert_eq!(naive_try_count(&q, &d, &roomy), Ok(naive_count(&q, &d)));
    }

    #[test]
    fn passed_deadline_stops_enumeration() {
        use std::time::{Duration, Instant};
        let s = digraph();
        let d = complete_struct(&s, 6);
        let q = path_query(&s, "E", 6);
        let ctl = EvalControl::new(0, Some(Instant::now() - Duration::from_millis(1)));
        let mut n = 0u64;
        let r = try_for_each_hom_limited(&q, &d, 0, &ctl, |_| {
            n += 1;
            true
        });
        assert!(r.is_err());
        // Polls happen every CHECK_INTERVAL steps, so a bounded prefix may
        // have been visited before the trip.
        assert!(n < 10 * crate::cancel::CHECK_INTERVAL, "saw {n} homs");
    }

    #[test]
    fn budget_counts_inequality_enumeration() {
        use crate::cancel::CancelReason;
        let s = digraph();
        let d = complete_struct(&s, 50);
        // x ≠ y with neither in an atom: pure enumeration territory.
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.neq(x, y);
        let q = qb.build();
        let tiny = EvalControl::new(10, None);
        assert_eq!(naive_try_count(&q, &d, &tiny), Err(Cancelled(CancelReason::BudgetExhausted)));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::backend::{BackendChoice, CountRequest};
    use bagcq_query::{path_query, QueryGen};
    use bagcq_structure::{SchemaBuilder, StructureGen};
    use std::sync::Arc;

    fn naive_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Naive).count()
    }

    #[test]
    fn enumerative_agrees_with_factored() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let s = b.build();
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.1, inequalities: 1 };
        let sg = StructureGen { extra_vertices: 3, density: 0.4, ..Default::default() };
        for seed in 0..15u64 {
            let q = qg.sample(&s, seed);
            let d = sg.sample(&s, seed + 1000);
            assert_eq!(NaiveCounter.count_enumerative(&q, &d), naive_count(&q, &d), "seed {seed}");
        }
    }

    #[test]
    fn enumerative_agrees_on_powers() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let s = b.build();
        let d =
            StructureGen { extra_vertices: 3, density: 0.5, ..Default::default() }.sample(&s, 3);
        let q = path_query(&s, "E", 1).power(2);
        assert_eq!(NaiveCounter.count_enumerative(&q, &d), naive_count(&q, &d));
        let _ = Arc::strong_count(&s);
    }
}
