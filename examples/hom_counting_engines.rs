//! Backend comparison: the two counting kernels.
//!
//! Counts homomorphisms of the classic query families (paths, cycles,
//! stars, grids) into a random structure with both kernels — naive
//! backtracking and the tree-decomposition DP, each over widening
//! machine-word accumulators — reporting counts, decomposition widths and
//! wall-clock times.
//!
//! Run with `cargo run --release --example hom_counting_engines`.

use bagcq_core::prelude::*;
use std::time::Instant;

fn main() {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();

    let gen = StructureGen {
        extra_vertices: 12,
        density: 0.25,
        max_tuples_per_relation: 80,
        diagonal_density: 0.15,
    };
    let d = gen.sample(&schema, 7);
    println!(
        "database: {} vertices, {} edges",
        d.vertex_count(),
        d.atom_count(schema.relation_by_name("E").unwrap())
    );
    println!();
    print!("{:<14} {:>5} {:>6} {:>22}", "query", "vars", "width", "count");
    for choice in BackendChoice::REGISTERED {
        print!(" {:>14}", choice.label());
    }
    println!();

    let queries = vec![
        ("path-4", path_query(&schema, "E", 4)),
        ("path-8", path_query(&schema, "E", 8)),
        ("cycle-4", cycle_query(&schema, "E", 4)),
        ("cycle-6", cycle_query(&schema, "E", 6)),
        ("star-6", star_query(&schema, "E", 6)),
        ("grid-3x2", grid_query(&schema, "E", 3, 2)),
        ("grid-3x3", grid_query(&schema, "E", 3, 3)),
    ];

    for (name, q) in queries {
        let width = TreewidthCounter.decomposition_width(&q);

        let mut agreed: Option<Nat> = None;
        let mut times = Vec::new();
        for choice in BackendChoice::REGISTERED {
            let t0 = Instant::now();
            let n = CountRequest::new(&q, &d).backend(choice).count();
            times.push(t0.elapsed());
            match &agreed {
                None => agreed = Some(n),
                Some(prev) => assert_eq!(prev, &n, "{choice} disagrees on {name}"),
            }
        }
        let shown = agreed.unwrap().to_string();
        let shown = if shown.len() > 22 { format!("~10^{}", shown.len() - 1) } else { shown };
        print!("{:<14} {:>5} {:>6} {:>22}", name, q.var_count(), width, shown);
        for t in times {
            print!(" {:>12.2?}", t);
        }
        println!();
    }

    println!();
    println!("Power queries stay cheap through component factorization (Lemma 1):");
    let q = path_query(&schema, "E", 2);
    let before = acc_promotions();
    for k in [1u32, 4, 16, 64] {
        let t0 = Instant::now();
        let c = CountRequest::new(&q.power(k), &d).backend(BackendChoice::Treewidth).count();
        println!("  (2-walks)↑{k:<3} = value with {:>6} bits   in {:.2?}", c.bits(), t0.elapsed());
    }
    println!(
        "  accumulators promoted to Nat {} time(s) — large powers overflow u128 and widen.",
        acc_promotions() - before
    );
}
