//! Tree decompositions of query primal graphs.
//!
//! The optimized counting engine implements the textbook `#Hom` algorithm:
//! decompose the query's primal graph (variables are nodes; variables
//! co-occurring in an atom or inequality are adjacent), then run dynamic
//! programming over the bags. This module builds decompositions from
//! elimination orders produced by the **min-fill** heuristic, over bit-row
//! adjacency so an elimination step allocates nothing but its bag, and
//! validates the three tree-decomposition properties (used by property
//! tests).

use std::collections::HashSet;

/// A rooted tree decomposition over variables `0..n`.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// Variable sets per bag, each sorted ascending.
    pub bags: Vec<Vec<u32>>,
    /// Parent bag index (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Children lists (derived from `parent`).
    pub children: Vec<Vec<usize>>,
    /// Root bag index.
    pub root: usize,
}

impl TreeDecomposition {
    /// Width = max bag size − 1 (width 0 for edgeless graphs).
    pub fn width(&self) -> usize {
        self.bags.iter().map(Vec::len).max().unwrap_or(1).saturating_sub(1)
    }

    /// Checks the three TD properties against the given vertex count and
    /// edge list: every vertex in some bag; every edge inside some bag;
    /// for each vertex, the bags containing it form a connected subtree.
    pub fn validate(&self, n_vars: u32, edges: &[(u32, u32)]) -> bool {
        // 1. Coverage of vertices.
        let mut covered = vec![false; n_vars as usize];
        for bag in &self.bags {
            for &v in bag {
                if v >= n_vars {
                    return false;
                }
                covered[v as usize] = true;
            }
        }
        if !covered.iter().all(|&c| c) {
            return false;
        }
        // 2. Coverage of edges.
        for &(a, b) in edges {
            if !self
                .bags
                .iter()
                .any(|bag| bag.binary_search(&a).is_ok() && bag.binary_search(&b).is_ok())
            {
                return false;
            }
        }
        // 3. Connectedness per vertex: count, for each vertex, the number
        // of tree edges inside its bag set; the bag set is connected iff
        // #bags_with_v − #tree_edges_with_both_endpoints_having_v == 1.
        for v in 0..n_vars {
            let holds = |i: usize| self.bags[i].binary_search(&v).is_ok();
            let bag_count = (0..self.bags.len()).filter(|&i| holds(i)).count();
            if bag_count == 0 {
                return false;
            }
            let edge_count = (0..self.bags.len())
                .filter(|&i| {
                    if !holds(i) {
                        return false;
                    }
                    match self.parent[i] {
                        Some(p) => holds(p),
                        None => false,
                    }
                })
                .count();
            if bag_count - edge_count != 1 {
                return false;
            }
        }
        true
    }
}

/// Symmetric adjacency over `0..n`: one bit row of `⌈n/64⌉` words per
/// vertex, so min-fill scores and fills a neighbourhood with word
/// operations instead of hash-set probes.
pub(crate) struct BitGraph {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl BitGraph {
    /// The edgeless graph on `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitGraph { n, words, rows: vec![0; n * words] }
    }

    /// Adds the edge `a — b` (self-loops are ignored).
    pub(crate) fn connect(&mut self, a: u32, b: u32) {
        if a != b {
            self.rows[a as usize * self.words + b as usize / 64] |= 1 << (b % 64);
            self.rows[b as usize * self.words + a as usize / 64] |= 1 << (a % 64);
        }
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.words..(v + 1) * self.words]
    }
}

/// Calls `f` with each set bit of `set`, ascending.
fn for_each_bit(set: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Builds a tree decomposition of the graph on `0..n` with the given
/// adjacency sets, using min-fill elimination. Isolated vertices get
/// singleton bags.
pub fn decompose_min_fill(n: u32, adj: &[HashSet<u32>]) -> TreeDecomposition {
    assert_eq!(adj.len(), n as usize);
    let mut graph = BitGraph::new(n as usize);
    for (v, nbrs) in adj.iter().enumerate() {
        for &u in nbrs {
            graph.connect(v as u32, u);
        }
    }
    min_fill(graph)
}

/// Min-fill elimination over a [`BitGraph`]: repeatedly eliminates the
/// lowest-numbered vertex whose live neighbourhood needs the fewest fill
/// edges, and turns each elimination into a bag.
pub(crate) fn min_fill(mut graph: BitGraph) -> TreeDecomposition {
    let (n, words) = (graph.n, graph.words);
    let mut alive = vec![0u64; words];
    for v in 0..n {
        alive[v / 64] |= 1 << (v % 64);
    }
    let mut nbrs = vec![0u64; words];
    let live_neighbours = |graph: &BitGraph, v: usize, alive: &[u64], nbrs: &mut [u64]| {
        for ((slot, &row), &live) in nbrs.iter_mut().zip(graph.row(v)).zip(alive) {
            *slot = row & live;
        }
    };
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Bag contents decided at elimination time: v plus its not-yet-
    // eliminated neighbors in the (filled) working graph.
    let mut bag_of: Vec<Vec<u32>> = vec![Vec::new(); n];

    for _ in 0..n {
        // Min-fill: vertex whose neighborhood needs fewest fill edges.
        // Each missing edge {u, w} is seen from both ends, and `u` itself
        // is never in its own row.
        let mut best: Option<(usize, u32)> = None;
        for v in 0..n {
            if alive[v / 64] & (1 << (v % 64)) == 0 {
                continue;
            }
            live_neighbours(&graph, v, &alive, &mut nbrs);
            let mut missing = 0u32;
            for_each_bit(&nbrs, |u| {
                let row = graph.row(u);
                missing += nbrs.iter().zip(row).map(|(&a, &r)| (a & !r).count_ones()).sum::<u32>();
                missing -= 1;
            });
            let fill = missing / 2;
            if best.is_none_or(|(_, bf)| fill < bf) {
                best = Some((v, fill));
            }
        }
        let (v, _) = best.expect("some vertex remains");
        live_neighbours(&graph, v, &alive, &mut nbrs);
        // Fill in the neighborhood.
        let mut bag =
            Vec::with_capacity(nbrs.iter().map(|w| w.count_ones() as usize).sum::<usize>() + 1);
        for_each_bit(&nbrs, |u| {
            for (slot, &add) in graph.rows[u * words..(u + 1) * words].iter_mut().zip(&nbrs) {
                *slot |= add;
            }
            graph.rows[u * words + u / 64] &= !(1 << (u % 64));
            bag.push(u as u32);
        });
        let at = bag.partition_point(|&u| u < v as u32);
        bag.insert(at, v as u32);
        bag_of[v] = bag;
        alive[v / 64] &= !(1 << (v % 64));
        order.push(v as u32);
    }

    // Build the tree: bag(v) attaches to bag(u) where u is the earliest-
    // eliminated vertex of bag(v)\{v}; if none, it becomes a root; multiple
    // roots are joined under a synthetic empty root to keep one tree.
    let pos: Vec<usize> = {
        let mut p = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            p[v as usize] = i;
        }
        p
    };
    let mut bags: Vec<Vec<u32>> =
        order.iter().map(|&v| std::mem::take(&mut bag_of[v as usize])).collect();
    let mut parent: Vec<Option<usize>> = vec![None; bags.len()];
    for (i, &v) in order.iter().enumerate() {
        let next = bags[i].iter().copied().filter(|&u| u != v).min_by_key(|&u| pos[u as usize]);
        if let Some(u) = next {
            parent[i] = Some(pos[u as usize]);
        }
    }
    // Join multiple roots (disconnected graphs shouldn't reach here —
    // callers decompose per component — but empty graphs of isolated
    // vertices do).
    let roots: Vec<usize> = (0..bags.len()).filter(|&i| parent[i].is_none()).collect();
    let root = if roots.len() == 1 {
        roots[0]
    } else if roots.is_empty() {
        // n == 0: single empty bag.
        bags.push(Vec::new());
        parent.push(None);
        bags.len() - 1
    } else {
        let r = bags.len();
        bags.push(Vec::new());
        parent.push(None);
        for &i in &roots {
            parent[i] = Some(r);
        }
        r
    };

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); bags.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push(i);
        }
    }
    TreeDecomposition { bags, parent, children, root }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj_from_edges(n: u32, edges: &[(u32, u32)]) -> Vec<HashSet<u32>> {
        let mut adj = vec![HashSet::new(); n as usize];
        for &(a, b) in edges {
            adj[a as usize].insert(b);
            adj[b as usize].insert(a);
        }
        adj
    }

    #[test]
    fn path_has_width_one() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let td = decompose_min_fill(5, &adj_from_edges(5, &edges));
        assert!(td.validate(5, &edges));
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn cycle_has_width_two() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let td = decompose_min_fill(4, &adj_from_edges(4, &edges));
        assert!(td.validate(4, &edges));
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn clique_has_full_width() {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let td = decompose_min_fill(5, &adj_from_edges(5, &edges));
        assert!(td.validate(5, &edges));
        assert_eq!(td.width(), 4);
    }

    #[test]
    fn isolated_vertices() {
        let td = decompose_min_fill(3, &adj_from_edges(3, &[]));
        assert!(td.validate(3, &[]));
        assert_eq!(td.width(), 0);
    }

    #[test]
    fn grid_3x3_width() {
        // 3×3 grid, vertices row-major; treewidth 3... min-fill should
        // find width ≤ 4 and validation must hold regardless.
        let idx = |x: u32, y: u32| y * 3 + x;
        let mut edges = Vec::new();
        for y in 0..3u32 {
            for x in 0..3u32 {
                if x + 1 < 3 {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < 3 {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        let td = decompose_min_fill(9, &adj_from_edges(9, &edges));
        assert!(td.validate(9, &edges));
        assert!(td.width() <= 4, "width {}", td.width());
        assert!(td.width() >= 2);
    }

    #[test]
    fn empty_graph() {
        let td = decompose_min_fill(0, &[]);
        assert!(td.validate(0, &[]));
    }

    #[test]
    fn star_has_width_one() {
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)];
        let td = decompose_min_fill(6, &adj_from_edges(6, &edges));
        assert!(td.validate(6, &edges));
        assert_eq!(td.width(), 1);
    }
}
