//! Quickstart: bag-semantics counting and containment checking.
//!
//! Run with `cargo run --example quickstart`.

use bagcq_core::prelude::*;
use std::sync::Arc;

fn main() {
    // ---- 1. A schema and a database -----------------------------------
    let mut sb = Schema::builder();
    let e = sb.relation("E", 2);
    let schema = sb.build();

    // A directed 4-cycle with one chord and a self-loop.
    let mut d = Structure::new(Arc::clone(&schema));
    d.add_vertices(4);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)] {
        d.add_atom(e, &[Vertex(a), Vertex(b)]);
    }
    println!("database: 4 vertices, {} edges", d.atom_count(e));

    // ---- 2. Queries and bag-semantics answers -------------------------
    // Under bag semantics a boolean CQ returns |Hom(ψ, D)|. The entry
    // point is the `CountRequest` builder; by default it auto-selects one
    // of two counting kernels (both count in machine words and widen to
    // arbitrary precision on overflow, so the result is exact either way).
    let edges = path_query(&schema, "E", 1);
    let walks2 = path_query(&schema, "E", 2);
    let tri = cycle_query(&schema, "E", 3);
    println!("edges(D)   = {}", CountRequest::new(&edges, &d).count());
    println!("2-walks(D) = {}", CountRequest::new(&walks2, &d).count());
    println!("3-cycles(D)= {}", CountRequest::new(&tri, &d).count());

    // Backends can be pinned, and they agree (the naive backtracker and
    // the treewidth DP are independent implementations).
    let reference = CountRequest::new(&walks2, &d).backend(BackendChoice::Naive).count();
    for choice in BackendChoice::REGISTERED {
        assert_eq!(CountRequest::new(&walks2, &d).backend(choice).count(), reference);
    }

    // ---- 3. The paper's query algebra ----------------------------------
    // Disjoint conjunction multiplies counts (Lemma 1) and powers
    // exponentiate them (Definition 2).
    let n_edges = CountRequest::new(&edges, &d).count();
    let pair = edges.disjoint_conj(&tri);
    assert_eq!(
        CountRequest::new(&pair, &d).count(),
        n_edges.mul_ref(&CountRequest::new(&tri, &d).count())
    );
    let cubed = edges.power(3);
    assert_eq!(CountRequest::new(&cubed, &d).count(), n_edges.pow_u64(3));
    println!("Lemma 1 and Definition 2 verified on this database.");

    // ---- 4. Containment questions --------------------------------------
    // Is edges(D) ≤ 2walks(D) for every D? No — one isolated edge refutes.
    let verdict = CheckRequest::new(&edges, &walks2).check().expect("CQ pairs are supported");
    println!("edges ⊑bag 2-walks?  {verdict}");
    assert!(verdict.is_refuted());

    // Is loops(D) ≤ edges(D) for every D? Yes — Lemma 12 certificate.
    let mut qb = Query::builder(Arc::clone(&schema));
    let x = qb.var("x");
    qb.atom_named("E", &[x, x]);
    let loops = qb.build();
    let verdict = CheckRequest::new(&loops, &edges).check().expect("CQ pairs are supported");
    println!("loops ⊑bag edges?    {verdict}");
    assert!(verdict.is_proved());

    // Set semantics, for contrast (the Chandra–Merlin baseline).
    println!(
        "set semantics: 2walks ⊑ edges: {}, edges ⊑ 2walks: {}",
        set_contained(&walks2, &edges),
        set_contained(&edges, &walks2),
    );
}
