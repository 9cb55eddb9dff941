//! Exact step counts, pinned: on a small seeded corpus, each kernel's
//! count (and a few `try_for_each_hom_limited` enumerations) completes
//! under a step budget of exactly `T` and fails with `BudgetExhausted`
//! under `T − 1`. Every candidate tuple and every candidate vertex costs
//! one tick, so the table pins which candidates each kernel tries: a
//! rewrite of a search loop that keeps its candidates and their order
//! keeps every entry.
//!
//! The corpus is the E-PERF1 query families over `StructureGen`
//! digraphs, plus `QueryGen` queries with constants and inequalities.
//! To regenerate the table after a deliberate change of the candidates,
//! run `cargo test -p bagcq-homcount --test tick_pins -- --ignored
//! --nocapture` and paste what it prints over `PINS`.

use bagcq_homcount::{
    try_for_each_hom_limited, BackendChoice, CancelReason, Cancelled, CountError, CountRequest,
    EvalControl,
};
use bagcq_query::{cycle_query, grid_query, path_query, star_query, Query, QueryGen};
use bagcq_structure::{SchemaBuilder, Structure, StructureGen};

/// What one corpus entry runs.
#[derive(Clone, Copy, Debug)]
enum Run {
    /// A count pinned to one kernel.
    Count(BackendChoice),
    /// `try_for_each_hom_limited` with this limit (`0` = every
    /// homomorphism).
    Enumerate(u64),
}

struct Case {
    name: String,
    query: Query,
    database: Structure,
    run: Run,
}

impl Case {
    /// Runs the case under `budget` steps: `Ok` when it completes,
    /// `Err(reason)` when it is cancelled.
    fn under(&self, budget: u64) -> Result<(), CancelReason> {
        let (q, d) = (&self.query, &self.database);
        match self.run {
            Run::Count(kernel) => {
                match CountRequest::new(q, d).backend(kernel).step_budget(budget).run() {
                    Ok(_) => Ok(()),
                    Err(CountError::Cancelled(Cancelled(reason))) => Err(reason),
                    Err(e) => panic!("{}: {e}", self.name),
                }
            }
            Run::Enumerate(limit) => {
                let ctl = EvalControl::new(budget, None);
                try_for_each_hom_limited(q, d, limit, &ctl, |_| true).map_err(|Cancelled(r)| r)
            }
        }
    }
}

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut push = |name: String, query: &Query, database: &Structure, runs: &[Run]| {
        for &run in runs {
            let tag = match run {
                Run::Count(kernel) => kernel.label().to_string(),
                Run::Enumerate(limit) => format!("enumerate-{limit}"),
            };
            cases.push(Case {
                name: format!("{name} {tag}"),
                query: query.clone(),
                database: database.clone(),
                run,
            });
        }
    };
    let kernels = [Run::Count(BackendChoice::Naive), Run::Count(BackendChoice::Treewidth)];

    // The E-PERF1 families on small seeded digraphs.
    let mut b = SchemaBuilder::default();
    b.relation("e", 2);
    let digraphs = b.build();
    let families = [
        ("path-4", path_query(&digraphs, "e", 4)),
        ("path-8", path_query(&digraphs, "e", 8)),
        ("cycle-4", cycle_query(&digraphs, "e", 4)),
        ("cycle-6", cycle_query(&digraphs, "e", 6)),
        ("star-6", star_query(&digraphs, "e", 6)),
        ("grid-3x2", grid_query(&digraphs, "e", 3, 2)),
        ("grid-3x3", grid_query(&digraphs, "e", 3, 3)),
    ];
    for seed in 0..3u64 {
        let n = 5 + seed as u32;
        let d = StructureGen {
            extra_vertices: n,
            density: 0.3,
            max_tuples_per_relation: (n * n) as usize,
            diagonal_density: 0.1,
        }
        .sample(&digraphs, seed);
        for (family, q) in &families {
            push(format!("{family} digraph-{seed}"), q, &d, &kernels);
        }
        if seed == 0 {
            push(format!("path-4 digraph-{seed}"), &families[0].1, &d, &[Run::Enumerate(0)]);
            push(format!("cycle-4 digraph-{seed}"), &families[2].1, &d, &[Run::Enumerate(5)]);
        }
    }

    // Random queries with constants and inequalities.
    let mut b = SchemaBuilder::default();
    b.relation("E", 2);
    b.relation("R", 3);
    b.constant("a");
    let mixed = b.build();
    let qg = QueryGen { variables: 4, atoms: 4, constant_prob: 0.2, inequalities: 1 };
    let sg = StructureGen {
        extra_vertices: 4,
        density: 0.4,
        max_tuples_per_relation: 300,
        diagonal_density: 0.4,
    };
    for seed in 0..8u64 {
        let q = qg.sample(&mixed, seed);
        let d = sg.sample(&mixed, seed + 100);
        push(format!("querygen-{seed}"), &q, &d, &kernels);
        if seed < 2 {
            push(format!("querygen-{seed}"), &q, &d, &[Run::Enumerate(0), Run::Enumerate(3)]);
        }
    }
    cases
}

/// The exact step count of each corpus entry, in corpus order.
const PINS: &[(&str, u64)] = &[
    ("path-4 digraph-0 naive", 18),
    ("path-4 digraph-0 treewidth", 39),
    ("path-8 digraph-0 naive", 36),
    ("path-8 digraph-0 treewidth", 71),
    ("cycle-4 digraph-0 naive", 17),
    ("cycle-4 digraph-0 treewidth", 43),
    ("cycle-6 digraph-0 naive", 26),
    ("cycle-6 digraph-0 treewidth", 113),
    ("star-6 digraph-0 naive", 258),
    ("star-6 digraph-0 treewidth", 65),
    ("grid-3x2 digraph-0 naive", 48),
    ("grid-3x2 digraph-0 treewidth", 87),
    ("grid-3x3 digraph-0 naive", 93),
    ("grid-3x3 digraph-0 treewidth", 141),
    ("path-4 digraph-0 enumerate-0", 18),
    ("cycle-4 digraph-0 enumerate-5", 17),
    ("path-4 digraph-1 naive", 125),
    ("path-4 digraph-1 treewidth", 68),
    ("path-8 digraph-1 naive", 1004),
    ("path-8 digraph-1 treewidth", 128),
    ("cycle-4 digraph-1 naive", 102),
    ("cycle-4 digraph-1 treewidth", 99),
    ("cycle-6 digraph-1 naive", 307),
    ("cycle-6 digraph-1 treewidth", 265),
    ("star-6 digraph-1 naive", 2442),
    ("star-6 digraph-1 treewidth", 108),
    ("grid-3x2 digraph-1 naive", 724),
    ("grid-3x2 digraph-1 treewidth", 191),
    ("grid-3x3 digraph-1 naive", 2411),
    ("grid-3x3 digraph-1 treewidth", 373),
    ("path-4 digraph-2 naive", 127),
    ("path-4 digraph-2 treewidth", 83),
    ("path-8 digraph-2 naive", 1113),
    ("path-8 digraph-2 treewidth", 159),
    ("cycle-4 digraph-2 naive", 113),
    ("cycle-4 digraph-2 treewidth", 106),
    ("cycle-6 digraph-2 naive", 353),
    ("cycle-6 digraph-2 treewidth", 312),
    ("star-6 digraph-2 naive", 2334),
    ("star-6 digraph-2 treewidth", 121),
    ("grid-3x2 digraph-2 naive", 490),
    ("grid-3x2 digraph-2 treewidth", 202),
    ("grid-3x3 digraph-2 naive", 1398),
    ("grid-3x3 digraph-2 treewidth", 392),
    ("querygen-0 naive", 22),
    ("querygen-0 treewidth", 24),
    ("querygen-0 enumerate-0", 67),
    ("querygen-0 enumerate-3", 7),
    ("querygen-1 naive", 44),
    ("querygen-1 treewidth", 187),
    ("querygen-1 enumerate-0", 44),
    ("querygen-1 enumerate-3", 39),
    ("querygen-2 naive", 1),
    ("querygen-2 treewidth", 174),
    ("querygen-3 naive", 128),
    ("querygen-3 treewidth", 53),
    ("querygen-4 naive", 172),
    ("querygen-4 treewidth", 273),
    ("querygen-5 naive", 84),
    ("querygen-5 treewidth", 65),
    ("querygen-6 naive", 1),
    ("querygen-6 treewidth", 1),
    ("querygen-7 naive", 68),
    ("querygen-7 treewidth", 67),
];

#[test]
fn step_budgets_trip_exactly_where_pinned() {
    let cases = corpus();
    let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, pinned, "the corpus and the table list the same entries");
    for (case, &(_, steps)) in cases.iter().zip(PINS) {
        assert_eq!(case.under(steps), Ok(()), "{} completes within {steps} steps", case.name);
        // A budget of 0 means unlimited, so `T − 1` is only a real
        // budget from `T = 2` on.
        if steps >= 2 {
            assert_eq!(
                case.under(steps - 1),
                Err(CancelReason::BudgetExhausted),
                "{} needs all {steps} steps",
                case.name
            );
        }
    }
}

/// Prints the table: each entry's smallest completing budget, found by
/// doubling and bisection.
#[test]
#[ignore = "regenerates the PINS table"]
fn print_pins() {
    for case in corpus() {
        let mut hi = 1u64;
        while case.under(hi).is_err() {
            hi *= 2;
        }
        let mut lo = hi / 2; // fails, or is 0 (unlimited)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if case.under(mid).is_ok() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        println!("    ({:?}, {hi}),", case.name);
    }
}
