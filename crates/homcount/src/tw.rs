//! The optimized counting engine: `#Hom` by dynamic programming over a
//! tree decomposition of the query's primal graph.
//!
//! For a query of treewidth `w` over a structure with `n` vertices, the DP
//! runs in roughly `O(#bags · n^{w+1})` — exponential in the *width*, not
//! in the number of variables, which is what separates it from
//! [`crate::NaiveCounter`] on low-width query families (paths, cycles,
//! stars, grids; experiment E-PERF1).

use crate::cancel::{Cancelled, EvalControl, Ticker};
use crate::common::{
    components, free_var_factor, ground_facts_hold, inequality_ok, resolve, UNASSIGNED,
};
use crate::treedec::{decompose_min_fill, TreeDecomposition};
use bagcq_arith::{Accumulator, Nat};
use bagcq_query::{Query, Term};
use bagcq_structure::Structure;
use std::collections::{HashMap, HashSet};

/// Tree-decomposition dynamic-programming counting engine.
#[derive(Default, Clone, Copy, Debug)]
pub struct TreewidthCounter;

impl TreewidthCounter {
    /// The width min-fill found for this query's primal graph (diagnostics
    /// and bench labeling).
    pub fn decomposition_width(&self, q: &Query) -> usize {
        let comps = components(q);
        comps
            .comps
            .iter()
            .map(|(atom_idx, ineq_idx, vars)| {
                let (td, _) = decompose_component(q, atom_idx, ineq_idx, vars);
                td.width()
            })
            .max()
            .unwrap_or(0)
    }
}

/// The DP kernel, generic over the accumulator (requests run it over the
/// widening [`bagcq_arith::Acc`]).
pub(crate) fn try_count_generic<A: Accumulator>(
    q: &Query,
    d: &Structure,
    ctl: &EvalControl,
) -> Result<Nat, Cancelled> {
    if !ground_facts_hold(q, d) {
        return Ok(Nat::zero());
    }
    let comps = components(q);
    let mut ticker = ctl.ticker();
    let mut total = A::one();
    for (atom_idx, ineq_idx, vars) in &comps.comps {
        let c = count_component::<A>(q, d, atom_idx, ineq_idx, vars, &mut ticker)?;
        if c.is_zero() {
            return Ok(Nat::zero());
        }
        ctl.charge(c.heap_bytes())?;
        total.mul_assign_acc(&c);
    }
    if comps.free_vars > 0 {
        total.mul_assign_nat(&free_var_factor(
            d.vertex_count() as u64,
            comps.free_vars as u64,
            ctl,
        )?);
    }
    Ok(total.into_nat())
}

/// Builds the local primal graph and its decomposition for one component.
/// Returns the TD (over *local* variable indexes) and the local index of
/// each global variable.
pub(crate) fn decompose_component(
    q: &Query,
    atom_idx: &[usize],
    ineq_idx: &[usize],
    vars: &[u32],
) -> (TreeDecomposition, HashMap<u32, u32>) {
    let _span = bagcq_obs::span("homcount.treedec", "min-fill");
    let local: HashMap<u32, u32> = vars.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
    let n = vars.len() as u32;
    let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n as usize];
    let connect_all = |vs: &[u32], adj: &mut Vec<HashSet<u32>>| {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                if vs[i] != vs[j] {
                    adj[vs[i] as usize].insert(vs[j]);
                    adj[vs[j] as usize].insert(vs[i]);
                }
            }
        }
    };
    for &ai in atom_idx {
        let vs: Vec<u32> = q.atoms()[ai]
            .args
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(local[&v.0]),
                Term::Const(_) => None,
            })
            .collect();
        connect_all(&vs, &mut adj);
    }
    for &ii in ineq_idx {
        let ineq = &q.inequalities()[ii];
        let mut vs = Vec::new();
        if let Term::Var(v) = ineq.lhs {
            vs.push(local[&v.0]);
        }
        if let Term::Var(v) = ineq.rhs {
            vs.push(local[&v.0]);
        }
        connect_all(&vs, &mut adj);
    }
    (decompose_min_fill(n, &adj), local)
}

fn count_component<A: Accumulator>(
    q: &Query,
    d: &Structure,
    atom_idx: &[usize],
    ineq_idx: &[usize],
    vars: &[u32],
    ticker: &mut Ticker<'_>,
) -> Result<A, Cancelled> {
    let _span = bagcq_obs::span("homcount.bagsweep", "dp");
    let (td, local) = decompose_component(q, atom_idx, ineq_idx, vars);
    let global: Vec<u32> = vars.to_vec(); // local index -> global var id

    // Assign constraints to bags: every bag checks all constraints whose
    // variables are fully inside it (checking is idempotent — constraints
    // are filters, so multiple checks are harmless and coverage is
    // guaranteed by the clique-containment property of tree
    // decompositions).
    let bag_has = |bag: &[u32], lv: u32| bag.binary_search(&lv).is_ok();
    let atom_vars: Vec<Vec<u32>> = atom_idx
        .iter()
        .map(|&ai| {
            q.atoms()[ai]
                .args
                .iter()
                .filter_map(|t| match t {
                    Term::Var(v) => Some(local[&v.0]),
                    Term::Const(_) => None,
                })
                .collect()
        })
        .collect();
    let ineq_vars: Vec<Vec<u32>> = ineq_idx
        .iter()
        .map(|&ii| {
            let ineq = &q.inequalities()[ii];
            let mut vs = Vec::new();
            if let Term::Var(v) = ineq.lhs {
                vs.push(local[&v.0]);
            }
            if let Term::Var(v) = ineq.rhs {
                vs.push(local[&v.0]);
            }
            vs
        })
        .collect();

    let bag_atoms: Vec<Vec<usize>> = td
        .bags
        .iter()
        .map(|bag| {
            (0..atom_idx.len())
                .filter(|&k| atom_vars[k].iter().all(|&lv| bag_has(bag, lv)))
                .collect()
        })
        .collect();
    let bag_ineqs: Vec<Vec<usize>> = td
        .bags
        .iter()
        .map(|bag| {
            (0..ineq_idx.len())
                .filter(|&k| ineq_vars[k].iter().all(|&lv| bag_has(bag, lv)))
                .collect()
        })
        .collect();

    // Sanity (debug builds): every constraint covered by some bag.
    debug_assert!(
        (0..atom_idx.len()).all(|k| (0..td.bags.len()).any(|b| bag_atoms[b].contains(&k)))
    );
    debug_assert!(
        (0..ineq_idx.len()).all(|k| (0..td.bags.len()).any(|b| bag_ineqs[b].contains(&k)))
    );

    // Bottom-up DP in post-order.
    let order = postorder(&td);
    // table[bag]: assignment of bag variables (in bag order) -> count of
    // extensions over the subtree below.
    let mut tables: Vec<Option<HashMap<Vec<u32>, A>>> = vec![None; td.bags.len()];

    for &b in &order {
        let bag = &td.bags[b];
        // Child aggregates keyed by the separator assignment.
        type ChildAgg<A> = (Vec<u32>, HashMap<Vec<u32>, A>);
        let child_aggs: Vec<ChildAgg<A>> = td.children[b]
            .iter()
            .map(|&c| {
                let sep: Vec<u32> =
                    td.bags[c].iter().copied().filter(|&lv| bag_has(bag, lv)).collect();
                let mut agg: HashMap<Vec<u32>, A> = HashMap::new();
                let child_bag = &td.bags[c];
                let sep_pos: Vec<usize> =
                    sep.iter().map(|lv| child_bag.binary_search(lv).unwrap()).collect();
                for (a, cnt) in tables[c].take().expect("child computed") {
                    let key: Vec<u32> = sep_pos.iter().map(|&i| a[i]).collect();
                    agg.entry(key).and_modify(|acc| acc.add_assign_acc(&cnt)).or_insert(cnt);
                }
                (sep, agg)
            })
            .collect();

        // Enumerate satisfying assignments of the bag.
        let mut table: HashMap<Vec<u32>, A> = HashMap::new();
        let mut assign_global: Vec<u32> = vec![UNASSIGNED; q.var_count() as usize];
        let mut current: Vec<u32> = vec![0; bag.len()];
        enumerate_bag(
            q,
            d,
            bag,
            &global,
            0,
            &bag_atoms[b],
            &bag_ineqs[b],
            atom_idx,
            ineq_idx,
            &mut assign_global,
            &mut current,
            ticker,
            &mut |bag_assign: &[u32]| {
                // Multiply in child aggregates.
                let mut weight = A::one();
                for (sep, agg) in &child_aggs {
                    let key: Vec<u32> =
                        sep.iter().map(|lv| bag_assign[bag.binary_search(lv).unwrap()]).collect();
                    match agg.get(&key) {
                        Some(w) => weight.mul_assign_acc(w),
                        None => return, // no extension below
                    }
                }
                table
                    .entry(bag_assign.to_vec())
                    .and_modify(|acc| acc.add_assign_acc(&weight))
                    .or_insert(weight);
            },
        )?;
        tables[b] = Some(table);
    }

    let root_table = tables[td.root].take().expect("root computed");
    let mut total = A::zero();
    for (_, w) in root_table {
        total.add_assign_acc(&w);
    }
    Ok(total)
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

/// Recursively assigns the bag's variables (in bag order), pruning with any
/// bag constraint that has become fully bound, and calls `emit` for every
/// satisfying bag assignment.
#[allow(clippy::too_many_arguments)]
fn enumerate_bag(
    q: &Query,
    d: &Structure,
    bag: &[u32],
    global: &[u32],
    i: usize,
    bag_atoms: &[usize],
    bag_ineqs: &[usize],
    atom_idx: &[usize],
    ineq_idx: &[usize],
    assign_global: &mut Vec<u32>,
    current: &mut Vec<u32>,
    ticker: &mut Ticker<'_>,
    emit: &mut impl FnMut(&[u32]),
) -> Result<(), Cancelled> {
    if i == bag.len() {
        emit(current);
        return Ok(());
    }
    let gvar = global[bag[i] as usize];
    for u in 0..d.vertex_count() {
        ticker.tick()?;
        assign_global[gvar as usize] = u;
        current[i] = u;
        // Check bag constraints that are fully bound among bag[0..=i].
        let bound_ok = {
            let is_bound = |lv: u32| bag[..=i].contains(&lv);
            bag_atoms.iter().all(|&k| {
                let a = &q.atoms()[atom_idx[k]];
                let fully = a.args.iter().all(|t| match t {
                    Term::Var(v) => {
                        // Global var -> local index within component.
                        // Bag constraints only contain bag vars.
                        bag.iter()
                            .position(|&lv| global[lv as usize] == v.0)
                            .map(|p| is_bound(bag[p]))
                            .unwrap_or(false)
                    }
                    Term::Const(_) => true,
                });
                if !fully {
                    return true;
                }
                let args: Vec<_> = a
                    .args
                    .iter()
                    .map(|t| bagcq_structure::Vertex(resolve(t, assign_global, d)))
                    .collect();
                d.contains_atom(a.rel, &args)
            }) && bag_ineqs
                .iter()
                .all(|&k| inequality_ok(&q.inequalities()[ineq_idx[k]], assign_global, d))
        };
        if bound_ok {
            enumerate_bag(
                q,
                d,
                bag,
                global,
                i + 1,
                bag_atoms,
                bag_ineqs,
                atom_idx,
                ineq_idx,
                assign_global,
                current,
                ticker,
                emit,
            )?;
        }
    }
    assign_global[gvar as usize] = UNASSIGNED;
    Ok(())
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
