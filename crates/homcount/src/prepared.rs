//! A query prepared for counting on many structures.
//!
//! The containment procedures count the same few disjuncts on every
//! candidate database, and everything about a count that depends only on
//! the query is the same each time. A [`PreparedQuery`] holds that part
//! once:
//!
//! * its split into connected components (Lemma 1: the count of a query
//!   is the product of the counts of its components);
//! * each component's min-fill tree decomposition, built the first time
//!   `Auto` or the DP asks for it — so a count pinned to the backtracker
//!   never builds one, and `Auto` and the DP share it.
//!
//! [`CountRequest::prepared`](crate::CountRequest::prepared) counts a
//! prepared query; [`CountRequest::new`](crate::CountRequest::new)
//! prepares its own. This module is the only place that splits a query or
//! decomposes a component.

use crate::common::UNASSIGNED;
use crate::treedec::{min_fill, BitGraph, TreeDecomposition};
use bagcq_query::{Query, Term};
use std::sync::OnceLock;

/// A borrowed [`Query`] plus everything about it that does not depend on
/// the structure it is counted on: its connected components and each
/// component's min-fill decomposition (built on first use).
///
/// ```
/// use bagcq_homcount::{CountRequest, PreparedQuery};
/// use bagcq_query::path_query;
/// use bagcq_structure::{SchemaBuilder, Structure, Vertex};
/// use std::sync::Arc;
///
/// let mut b = SchemaBuilder::default();
/// let e = b.relation("E", 2);
/// let schema = b.build();
/// let q = path_query(&schema, "E", 2);
/// let p = PreparedQuery::new(&q);
/// for n in 2..5 {
///     let mut d = Structure::new(Arc::clone(&schema));
///     d.add_vertices(n);
///     for i in 0..n - 1 {
///         d.add_atom(e, &[Vertex(i), Vertex(i + 1)]);
///     }
///     // The query is split and decomposed once, not once per structure.
///     assert_eq!(CountRequest::prepared(&p, &d).count(), CountRequest::new(&q, &d).count());
/// }
/// assert_eq!(p.width(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct PreparedQuery<'q> {
    query: &'q Query,
    components: Vec<QueryComponent>,
    free_vars: u32,
}

/// One connected component of a query: the atoms, inequalities and
/// variables it holds, and its decomposition once built.
#[derive(Clone, Debug, Default)]
pub(crate) struct QueryComponent {
    /// Indexes of the component's atoms in [`Query::atoms`].
    pub atoms: Vec<usize>,
    /// Indexes of the component's inequalities in [`Query::inequalities`].
    pub ineqs: Vec<usize>,
    /// The component's variables, ascending.
    pub vars: Vec<u32>,
    decomposition: OnceLock<Decomposition>,
}

/// A component's min-fill decomposition, over local variable indexes.
#[derive(Clone, Debug)]
pub(crate) struct Decomposition {
    /// The decomposition of the component's primal graph.
    pub td: TreeDecomposition,
    /// The local index of each global variable (`UNASSIGNED` outside the
    /// component).
    pub local: Vec<u32>,
}

impl<'q> PreparedQuery<'q> {
    /// Splits `query` into its connected components. Decompositions wait
    /// until something asks for them.
    pub fn new(query: &'q Query) -> Self {
        let (components, free_vars) = components(query);
        PreparedQuery { query, components, free_vars }
    }

    /// The query this was prepared from.
    pub fn query(&self) -> &'q Query {
        self.query
    }

    /// The largest width min-fill found over the query's components (0
    /// when it has none).
    pub fn width(&self) -> usize {
        self.components.iter().map(|c| c.decomposition(self.query).td.width()).max().unwrap_or(0)
    }

    /// The connected components, in order of their smallest variable.
    pub(crate) fn components(&self) -> &[QueryComponent] {
        &self.components
    }

    /// Variables in no atom and no inequality: each contributes a factor
    /// `|V_D|`.
    pub(crate) fn free_vars(&self) -> u32 {
        self.free_vars
    }
}

impl QueryComponent {
    /// The component's min-fill decomposition, built on first use.
    /// `query` must be the query the component was split from.
    pub(crate) fn decomposition(&self, query: &Query) -> &Decomposition {
        self.decomposition.get_or_init(|| decompose_component(query, self))
    }
}

/// The local variables (indexes into the component's variable list) of a
/// term list.
pub(crate) fn local_vars<'a>(
    terms: impl IntoIterator<Item = &'a Term>,
    local: &'a [u32],
) -> Vec<u32> {
    terms
        .into_iter()
        .filter_map(|t| match t {
            Term::Var(v) => Some(local[v.0 as usize]),
            Term::Const(_) => None,
        })
        .collect()
}

/// The variables of a term list, in order.
fn term_vars<'a>(terms: impl IntoIterator<Item = &'a Term>) -> Vec<u32> {
    terms
        .into_iter()
        .filter_map(|t| match t {
            Term::Var(v) => Some(v.0),
            Term::Const(_) => None,
        })
        .collect()
}

/// Partitions the query's atoms, inequalities and variables into connected
/// components, ordered by their smallest variable (variables are connected
/// when they co-occur in an atom or inequality; atoms/inequalities with no
/// variables belong to no component — the kernels' ground gate checks
/// them). Also returns the number of variables in no atom and no
/// inequality.
///
/// By Lemma 1 the count of a query is the product of the counts of its
/// components, which is what makes `θ↑k` countable in time `k·cost(θ)`
/// instead of `cost(θ)^k`.
fn components(q: &Query) -> (Vec<QueryComponent>, u32) {
    let n = q.var_count() as usize;
    // The variables of each atom, then of each inequality.
    let var_lists: Vec<Vec<u32>> = q
        .atoms()
        .iter()
        .map(|a| term_vars(&a.args))
        .chain(q.inequalities().iter().map(|i| term_vars([&i.lhs, &i.rhs])))
        .collect();
    // Union-find over the variables that occur somewhere; the rest are
    // free.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut occurs = vec![false; n];
    for vs in &var_lists {
        for w in vs.windows(2) {
            let root = find(&mut parent, w[0]);
            parent[root as usize] = find(&mut parent, w[1]);
        }
        for &v in vs {
            occurs[v as usize] = true;
        }
    }

    // The component of each root, numbered by its smallest variable.
    let mut comp_of_root = vec![usize::MAX; n];
    let mut comps: Vec<QueryComponent> = Vec::new();
    for v in (0..n as u32).filter(|&v| occurs[v as usize]) {
        let r = find(&mut parent, v) as usize;
        if comp_of_root[r] == usize::MAX {
            comp_of_root[r] = comps.len();
            comps.push(QueryComponent::default());
        }
        comps[comp_of_root[r]].vars.push(v);
    }
    let atom_count = q.atoms().len();
    for (i, vs) in var_lists.iter().enumerate() {
        let Some(&v) = vs.first() else { continue };
        let comp = &mut comps[comp_of_root[find(&mut parent, v) as usize]];
        if i < atom_count {
            comp.atoms.push(i);
        } else {
            comp.ineqs.push(i - atom_count);
        }
    }
    let free_vars = occurs.iter().filter(|&&o| !o).count() as u32;
    (comps, free_vars)
}

/// Builds the local primal graph of one component and its min-fill
/// decomposition.
fn decompose_component(q: &Query, c: &QueryComponent) -> Decomposition {
    let _span = bagcq_obs::span("homcount.treedec", "min-fill");
    let mut local = vec![UNASSIGNED; q.var_count() as usize];
    for (i, &v) in c.vars.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let mut graph = BitGraph::new(c.vars.len());
    let mut connect_all = |vs: &[u32]| {
        for (i, &a) in vs.iter().enumerate() {
            for &b in &vs[i + 1..] {
                graph.connect(a, b);
            }
        }
    };
    for &ai in &c.atoms {
        connect_all(&local_vars(&q.atoms()[ai].args, &local));
    }
    for &ii in &c.ineqs {
        let ineq = &q.inequalities()[ii];
        connect_all(&local_vars([&ineq.lhs, &ineq.rhs], &local));
    }
    Decomposition { td: min_fill(graph), local }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_query::cycle_query;
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
        let p = PreparedQuery::new(&q3);
        assert_eq!(p.components().len(), 3);
        assert_eq!(p.free_vars(), 0);
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
        let p = PreparedQuery::new(&q);
        assert_eq!(p.components().len(), 1);
        assert_eq!(p.components()[0].atoms, vec![1], "the ground atom joins no component");
        assert_eq!(p.free_vars(), 1);
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
        let p = PreparedQuery::new(&q);
        assert_eq!(p.components().len(), 1);
        assert_eq!(p.components()[0].atoms.len(), 2);
        assert_eq!(p.components()[0].ineqs.len(), 1);
    }

    #[test]
    fn decompositions_are_built_once() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let s = b.build();
        let q = cycle_query(&s, "E", 4).power(2);
        let p = PreparedQuery::new(&q);
        let c = &p.components()[1];
        assert!(std::ptr::eq(c.decomposition(&q), c.decomposition(&q)));
    }
}
