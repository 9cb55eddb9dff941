//! Seeded workloads. Every request list is a pure function of the seed
//! (and the round number), so every run of a workload does the same
//! kind of work and the server only ever sees the generated frames.
//!
//! All frames are built from in-process values (a [`Query`] and a
//! [`Structure`], or a [`CheckSpec`]) that are kept next to the frame
//! text; the correctness oracles answer from those values, not
//! from the server's parse of the text.

use crate::oracle::Expect;
use bagcq_containment::{CheckSpec, Semantics};
use bagcq_query::{
    cycle_query, grid_query, parse_dlgp_union, path_query, query_to_dlgp, star_query,
    union_to_dlgp, Query, QueryGen, UnionGen, UnionQuery,
};
use bagcq_serve::http::crc32;
use bagcq_serve::SplitMix64;
use bagcq_structure::{Schema, Structure, StructureGen, Vertex};
use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, OnceLock};

/// The four workloads. Their names are part of the benchmark's contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Front door alone: a hot pool of small count frames.
    WireHot,
    /// Every frame unique: the counting kernels behind `Auto`.
    CountCold,
    /// Every pair unique: the containment backends.
    CheckCold,
    /// Zipf-skewed pools larger than the server's caches, with a
    /// persistent store.
    ZipfMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::WireHot, Workload::CountCold, Workload::CheckCold, Workload::ZipfMixed];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireHot => "wire-hot",
            Workload::CountCold => "count-cold",
            Workload::CheckCold => "check-cold",
            Workload::ZipfMixed => "zipf-mixed",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Round sizes at full scale. On a two-core machine a timed phase
    /// takes one to six seconds, so a run's medians rest on several
    /// rounds.
    pub fn shape(self) -> Shape {
        let (warmup, measured) = match self {
            Workload::WireHot => (5_000, 40_000),
            Workload::CountCold => (50, 1_000),
            Workload::CheckCold => (100, 1_000),
            Workload::ZipfMixed => (2_000, 30_000),
        };
        Shape { warmup, measured, replay: 2_000 }
    }

    /// Whether the server runs with a [`bagcq_engine::MemoStore`] tier.
    pub fn uses_store(self) -> bool {
        self == Workload::ZipfMixed
    }
}

/// How much one round sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Requests sent before timing starts.
    pub warmup: usize,
    /// Requests in the timed phase.
    pub measured: usize,
    /// Requests replayed in-process, layer by layer, on a traced run.
    pub replay: usize,
}

impl Shape {
    /// Every size divided by `div` (at least one request each), for
    /// smoke tests. Pool sizes scale with it (see [`Plan::new`]).
    pub fn scaled(self, div: usize) -> Shape {
        let s = |n: usize| (n / div.max(1)).max(1);
        Shape { warmup: s(self.warmup), measured: s(self.measured), replay: s(self.replay) }
    }
}

/// What a frame is, kept in-process next to its text.
pub enum Case {
    /// A `/v1/count` frame.
    Count {
        /// The query, as built (not as parsed from the frame).
        query: Query,
        /// The set support of the data section.
        data: Structure,
        /// Σ multiplicities of the data section.
        bag_total: u64,
        /// Distinct facts of the data section.
        support_atoms: u64,
        /// Whether the oracle checks the count value.
        verify: bool,
    },
    /// A `/v1/check` frame.
    Check {
        /// The check, as built.
        spec: CheckSpec,
        /// Whether the oracle checks the verdict.
        verify: bool,
    },
    /// A frame the wire parser must reject with a typed 400.
    Malformed,
}

/// One request frame: HTTP path, body, body CRC, and the in-process case.
pub struct Frame {
    /// `/v1/count` or `/v1/check`.
    pub path: &'static str,
    /// The request body, exactly as sent.
    pub body: String,
    /// `X-Body-Crc` value of the body.
    pub crc: String,
    /// What the frame encodes.
    pub case: Case,
    pub(crate) expect: OnceLock<Expect>,
}

impl Frame {
    fn new(path: &'static str, body: String, case: Case) -> Arc<Frame> {
        let crc = format!("{:08x}", crc32(body.as_bytes()));
        Arc::new(Frame { path, body, crc, case, expect: OnceLock::new() })
    }

    /// Whether this frame is a check.
    pub fn is_check(&self) -> bool {
        matches!(self.case, Case::Check { .. })
    }
}

/// The requests of one round: an untimed warm-up, then the timed list.
pub struct Round {
    /// Sent first, closed loop, not timed.
    pub warmup: Vec<Arc<Frame>>,
    /// The timed phase.
    pub measured: Vec<Arc<Frame>>,
}

/// Per-run pools and the generator of each round's requests.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed every frame derives from.
    pub seed: u64,
    /// Round sizes.
    pub shape: Shape,
    scale: usize,
    hot: Vec<Arc<Frame>>,
    count_pool: Vec<Arc<Frame>>,
    check_pool: Vec<Arc<Frame>>,
    count_cdf: Vec<f64>,
    check_cdf: Vec<f64>,
    malformed: Vec<Arc<Frame>>,
}

/// `wire-hot` pool size.
const HOT_POOL: usize = 8;
/// `zipf-mixed` pool sizes at full scale.
const ZIPF_COUNT_POOL: usize = 20_000;
const ZIPF_CHECK_POOL: usize = 2_000;
/// Zipf exponent of both `zipf-mixed` pools.
const ZIPF_S: f64 = 1.1;
/// `count-cold` checks the count value of one frame in this many.
const COUNT_VERIFY_EVERY: usize = 8;
/// `check-cold` checks the verdict of one pair in this many.
const CHECK_VERIFY_EVERY: usize = 4;
/// Checks replayed on workloads that send none, so the containment
/// layer's metrics stay defined (see `PERF.md`).
const CONTAINMENT_PROBE: usize = 64;

/// Stream tags, so each purpose draws from its own seeded stream.
const TAG_HOT: u64 = 1;
const TAG_ROUND: u64 = 2;
const TAG_COUNT_POOL: u64 = 3;
const TAG_CHECK_POOL: u64 = 4;
const TAG_PROBE: u64 = 5;
const TAG_MALFORMED: u64 = 6;

/// A splitmix stream keyed by `(seed, parts…)`.
fn stream(seed: u64, parts: &[u64]) -> SplitMix64 {
    let mut state = seed;
    for &p in parts {
        state = SplitMix64::new(state ^ p.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64();
    }
    SplitMix64::new(state)
}

/// The one-relation schema every frame uses.
fn schema() -> Arc<Schema> {
    let mut b = Schema::builder();
    b.relation("e", 2);
    b.build()
}

impl Plan {
    /// Builds the run's pools. `scale` divides pool sizes like
    /// [`Shape::scaled`] divides round sizes (1 = full size).
    pub fn new(workload: Workload, seed: u64, scale: usize) -> Plan {
        let scale = scale.max(1);
        let shape = workload.shape().scaled(scale);
        let schema = schema();
        let mut plan = Plan {
            workload,
            seed,
            shape,
            scale,
            hot: Vec::new(),
            count_pool: Vec::new(),
            check_pool: Vec::new(),
            count_cdf: Vec::new(),
            check_cdf: Vec::new(),
            malformed: malformed_frames(seed),
        };
        match workload {
            Workload::WireHot => {
                let mut rng = stream(seed, &[TAG_HOT]);
                plan.hot = (0..HOT_POOL)
                    .map(|i| {
                        let query = path_query(&schema, "e", 2 + (i % 3) as u32);
                        let edges = random_edges(&mut rng, 6, 12);
                        count_frame(&schema, query, &edges, true)
                    })
                    .collect();
            }
            Workload::ZipfMixed => {
                let n_counts = (ZIPF_COUNT_POOL / scale).max(2);
                let n_checks = (ZIPF_CHECK_POOL / scale).max(4);
                plan.count_pool = (0..n_counts)
                    .map(|i| {
                        let mut rng = stream(seed, &[TAG_COUNT_POOL, i as u64]);
                        let query = path_query(&schema, "e", 2 + rng.below(3) as u32);
                        let nodes = 8 + rng.below(5);
                        let edges = random_edges(&mut rng, nodes, (nodes * 3 / 2) as usize);
                        count_frame(&schema, query, &edges, true)
                    })
                    .collect();
                let mut seen = HashSet::new();
                plan.check_pool = (0..n_checks)
                    .map(|i| {
                        check_frame(&schema, seed, &[TAG_CHECK_POOL, i as u64], i, true, &mut seen)
                    })
                    .collect();
                plan.count_cdf = zipf_cdf(n_counts);
                plan.check_cdf = zipf_cdf(n_checks);
            }
            Workload::CountCold | Workload::CheckCold => {}
        }
        plan
    }

    /// The requests of round `round`.
    pub fn round(&self, round: u64) -> Round {
        let schema = schema();
        let total = self.shape.warmup + self.shape.measured;
        let mut rng = stream(self.seed, &[TAG_ROUND, round]);
        let mut seen = HashSet::new();
        let mut all = Vec::with_capacity(total);
        for i in 0..total {
            let frame = match self.workload {
                Workload::WireHot => {
                    if rng.below(1024) < 41 {
                        self.pick_malformed(&mut rng)
                    } else {
                        Arc::clone(&self.hot[rng.below(self.hot.len() as u64) as usize])
                    }
                }
                Workload::CountCold => {
                    let mut frng = stream(self.seed, &[TAG_ROUND, round, i as u64]);
                    count_cold_frame(&schema, &mut frng, i.is_multiple_of(COUNT_VERIFY_EVERY))
                }
                Workload::CheckCold => check_frame(
                    &schema,
                    self.seed,
                    &[TAG_ROUND, round, i as u64],
                    i,
                    (i / 4).is_multiple_of(CHECK_VERIFY_EVERY),
                    &mut seen,
                ),
                Workload::ZipfMixed => match rng.below(100) {
                    0..=84 => Arc::clone(&self.count_pool[zipf(&self.count_cdf, &mut rng)]),
                    85..=94 => Arc::clone(&self.check_pool[zipf(&self.check_cdf, &mut rng)]),
                    _ => self.pick_malformed(&mut rng),
                },
            };
            all.push(frame);
        }
        let measured = all.split_off(self.shape.warmup);
        // zipf-mixed is about caches and the store, not cold containment
        // (that is check-cold's job): its warm-up first touches every check
        // pair once, so a pair whose first check takes hundreds of
        // milliseconds cannot hold one of the two connections for a
        // seed-dependent share of the timed phase.
        let warmup = if self.workload == Workload::ZipfMixed {
            self.check_pool.iter().cloned().chain(all).collect()
        } else {
            all
        };
        Round { warmup, measured }
    }

    fn pick_malformed(&self, rng: &mut SplitMix64) -> Arc<Frame> {
        Arc::clone(&self.malformed[rng.below(self.malformed.len() as u64) as usize])
    }

    /// The count frames a `zipf-mixed` store is pre-populated with: the
    /// even-indexed half of the count pool (empty for other workloads).
    pub fn store_frames(&self) -> impl Iterator<Item = &Arc<Frame>> {
        self.count_pool.iter().step_by(2)
    }

    /// Check frames for the containment replay of workloads that send no
    /// checks: pairs from the `check-cold` generator on the same seed.
    pub fn containment_probe(&self) -> Vec<Arc<Frame>> {
        let schema = schema();
        let n = (CONTAINMENT_PROBE / self.scale).max(4);
        let mut seen = HashSet::new();
        (0..n)
            .map(|i| check_frame(&schema, self.seed, &[TAG_PROBE, i as u64], i, true, &mut seen))
            .collect()
    }
}

/// Cumulative Zipf(`ZIPF_S`) weights over ranks `1..=n`.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(ZIPF_S);
            acc
        })
        .collect()
}

/// A Zipf-distributed index into a pool (rank 1 is index 0).
fn zipf(cdf: &[f64], rng: &mut SplitMix64) -> usize {
    let total = cdf.last().copied().unwrap_or(0.0);
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// `count` random directed edges over `nodes` vertices, with repeats.
fn random_edges(rng: &mut SplitMix64, nodes: u64, count: usize) -> Vec<(u64, u64)> {
    (0..count).map(|_| (rng.below(nodes), rng.below(nodes))).collect()
}

/// A count frame over an edge list. Repeated edges become `@k`
/// multiplicities in the data section; the in-process structure is their
/// set support over the vertices that occur.
fn count_frame(
    schema: &Arc<Schema>,
    query: Query,
    edges: &[(u64, u64)],
    verify: bool,
) -> Arc<Frame> {
    let mut mult: Vec<((u64, u64), u64)> = Vec::new();
    for &e in edges {
        match mult.iter_mut().find(|(f, _)| *f == e) {
            Some((_, k)) => *k += 1,
            None => mult.push((e, 1)),
        }
    }
    let vertices: Vec<u64> =
        edges.iter().flat_map(|&(u, v)| [u, v]).collect::<BTreeSet<_>>().into_iter().collect();
    let index = |x: u64| Vertex(vertices.binary_search(&x).expect("endpoint is a vertex") as u32);
    let rel = schema.relation_by_name("e").expect("schema has e");
    let mut data = Structure::new(Arc::clone(schema));
    data.add_vertices(vertices.len() as u32);
    let mut body = format!("backend: auto\nquery:\n  {}\ndata:\n", query_to_dlgp(&query));
    for &((u, v), k) in &mult {
        data.add_atom(rel, &[index(u), index(v)]);
        body.push_str(&format!("  e(n{u}, n{v})"));
        if k > 1 {
            body.push_str(&format!("@{k}"));
        }
        body.push_str(".\n");
    }
    let case = Case::Count {
        query,
        data,
        bag_total: edges.len() as u64,
        support_atoms: mult.len() as u64,
        verify,
    };
    Frame::new("/v1/count", body, case)
}

/// One unique `count-cold` frame: an E-PERF1 family query over a seeded
/// digraph with 10..=16 vertices and density 0.20..0.45.
fn count_cold_frame(schema: &Arc<Schema>, rng: &mut SplitMix64, verify: bool) -> Arc<Frame> {
    let query = match rng.below(7) {
        0 => path_query(schema, "e", 4),
        1 => path_query(schema, "e", 8),
        2 => cycle_query(schema, "e", 4),
        3 => cycle_query(schema, "e", 6),
        4 => star_query(schema, "e", 6),
        5 => grid_query(schema, "e", 3, 2),
        _ => grid_query(schema, "e", 3, 3),
    };
    let n = 10 + rng.below(7) as u32;
    let density = 0.20 + 0.25 * (rng.below(1_000) as f64 / 1_000.0);
    let sample = StructureGen {
        extra_vertices: n,
        density,
        max_tuples_per_relation: ((n as f64 * n as f64 * density) as usize).max(1),
        diagonal_density: 0.1,
    }
    .sample(schema, rng.next_u64());
    let rel = schema.relation_by_name("e").expect("schema has e");
    let mut edges = Vec::new();
    for t in sample.tuples(rel) {
        let e = (u64::from(t[0]), u64::from(t[1]));
        edges.push(e);
        // One fact in ten carries a multiplicity, exercising the bag
        // bookkeeping of the wire format.
        if rng.below(10) == 0 {
            edges.push(e);
        }
    }
    count_frame(schema, query, &edges, verify)
}

/// One check frame. `kind = i % 4` rotates bag/set × CQ/UCQ. CQs come
/// from [`QueryGen`] (2–4 variables, 2–5 atoms, no constants), unions
/// from [`UnionGen`] (1–3 disjuncts, at least one side a real union).
/// Each side is normalised through its DLGP text, so the in-process
/// queries are exactly what the server parses. Pairs already in `seen`
/// are redrawn, so the frames of one list are unique.
fn check_frame(
    schema: &Arc<Schema>,
    seed: u64,
    parts: &[u64],
    i: usize,
    verify: bool,
    seen: &mut HashSet<String>,
) -> Arc<Frame> {
    let semantics = if i.is_multiple_of(2) { Semantics::Bag } else { Semantics::Set };
    let union = (i % 4) >= 2;
    for attempt in 0u64.. {
        let mut key = parts.to_vec();
        key.push(attempt);
        let mut rng = stream(seed, &key);
        let mut side = |min: usize| -> UnionQuery {
            let query = QueryGen {
                variables: 2 + rng.below(3) as u32,
                atoms: 2 + rng.below(4) as usize,
                constant_prob: 0.0,
                inequalities: 0,
            };
            let u = if union {
                UnionGen { disjuncts_min: min, disjuncts_max: 3, query }
                    .sample(schema, rng.next_u64())
            } else {
                UnionQuery::from_query(query.sample(schema, rng.next_u64()))
            };
            parse_dlgp_union(schema, &union_to_dlgp(&u)).expect("generated unions re-parse")
        };
        let q_s = side(1);
        let q_b = side(if union && q_s.len() == 1 { 2 } else { 1 });
        let body = format!(
            "semantics: {semantics}\nsmall:\n{}big:\n{}",
            indent(&union_to_dlgp(&q_s)),
            indent(&union_to_dlgp(&q_b))
        );
        if !seen.insert(body.clone()) {
            continue;
        }
        let mut spec = CheckSpec::union(q_s, q_b);
        spec.semantics = semantics;
        spec.validate().expect("generated checks have a backend");
        return Frame::new("/v1/check", body, Case::Check { spec, verify });
    }
    unreachable!("the attempt counter is unbounded")
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("  {l}\n")).collect()
}

/// Count frames the wire parser must reject with a typed 400. The
/// constant names vary with the seed so the bodies do too.
fn malformed_frames(seed: u64) -> Vec<Arc<Frame>> {
    let mut rng = stream(seed, &[TAG_MALFORMED]);
    let mut c = || format!("c{}", rng.below(1_000));
    let bodies = [
        format!("query:\n  ?- e(X, Y\ndata:\n  e({}, {}).\n", c(), c()),
        "qurey:\n  ?- e(X, Y).\n".to_string(),
        format!("query:\n  ?- e(X, Y).\ndata:\n  e({}, {})@0.\n", c(), c()),
        format!("query:\n  ?- e(X, Y).\ndata:\n  e({}, Z).\n", c()),
        format!("query:\n  ?- e(X, Y, Z).\ndata:\n  e({}, {}).\n", c(), c()),
        format!("data:\n  e({}, {}).\n", c(), c()),
    ];
    bodies.into_iter().map(|b| Frame::new("/v1/count", b, Case::Malformed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(round: &Round) -> Vec<&str> {
        round.warmup.iter().chain(&round.measured).map(|f| f.body.as_str()).collect()
    }

    #[test]
    fn rounds_differ_and_cold_frames_are_unique() {
        let plan = Plan::new(Workload::CheckCold, 3, 50);
        let r0 = plan.round(0);
        let r1 = plan.round(1);
        assert_ne!(bodies(&r0), bodies(&r1));
        let unique: HashSet<_> = bodies(&r0).into_iter().collect();
        assert_eq!(unique.len(), r0.warmup.len() + r0.measured.len());
    }

    #[test]
    fn check_kinds_rotate_through_all_four_backends() {
        let plan = Plan::new(Workload::CheckCold, 9, 100);
        let mut choices = HashSet::new();
        for f in plan.round(0).measured.iter().take(8) {
            if let Case::Check { spec, .. } = &f.case {
                choices.insert(spec.resolved_choice());
            }
        }
        assert_eq!(choices.len(), 4, "{choices:?}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let cdf = zipf_cdf(1_000);
        let mut rng = SplitMix64::new(5);
        let head = (0..10_000).filter(|_| zipf(&cdf, &mut rng) < 10).count();
        assert!(head > 3_000, "{head}");
    }
}
