//! Theorem 5 roundtrip: eliminating s-query inequalities with blow-ups.
//!
//! Demonstrates Lemma 23's construction: a counterexample for the
//! inequality-free `ψ′_s` vs `ψ_b` is amplified (categorical powers,
//! Lemma 22 ii) and blown up (Lemma 22 i + Lemma 24) into a
//! counterexample for the original `ψ_s` — showing why inequalities in
//! the *s*-query cannot be the source of undecidability unless
//! `QCP^bag_CQ` itself is undecidable.
//!
//! Run with `cargo run --example theorem5_roundtrip`.

use bagcq_core::prelude::*;
use std::sync::Arc;

fn main() {
    let mut sb = Schema::builder();
    let e = sb.relation("E", 2);
    let schema = sb.build();

    // ψ_s = E(x,y) ∧ E(y,z) ∧ x ≠ z   (2-walks with distinct endpoints)
    let mut qb = Query::builder(Arc::clone(&schema));
    let x = qb.var("x");
    let y = qb.var("y");
    let z = qb.var("z");
    qb.atom_named("E", &[x, y]).atom_named("E", &[y, z]).neq(x, z);
    let psi_s = qb.build();

    // ψ_b = E(u,u)   (self-loops)
    let mut qb = Query::builder(Arc::clone(&schema));
    let u = qb.var("u");
    qb.atom_named("E", &[u, u]);
    let psi_b = qb.build();

    println!("ψ_s = {psi_s}");
    println!("ψ_b = {psi_b}");
    println!();

    // Seed D₀: a directed path 0→1→2→3 plus a loop at 4.
    let mut d0 = Structure::new(Arc::clone(&schema));
    d0.add_vertices(5);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 4)] {
        d0.add_atom(e, &[Vertex(a), Vertex(b)]);
    }
    let psi_s_pure = psi_s.strip_inequalities();
    let s0 = CountRequest::new(&psi_s_pure, &d0).count();
    let b0 = CountRequest::new(&psi_b, &d0).count();
    println!("seed D₀ ({} vertices): ψ′_s(D₀) = {s0}, ψ_b(D₀) = {b0}", d0.vertex_count());
    assert!(s0 > b0, "the seed must separate the stripped queries");

    // But on D₀ itself the full ψ_s may not separate (the loop walks
    // violate x ≠ z):
    println!(
        "on D₀ directly:    ψ_s(D₀) = {}, ψ_b(D₀) = {}",
        CountRequest::new(&psi_s, &d0).count(),
        CountRequest::new(&psi_b, &d0).count()
    );

    // Lemma 23: power then blow up, counting with any exact counter.
    let count = |q: &Query, d: &Structure| CountRequest::new(q, d).run();
    let elim = eliminate_inequalities(&psi_s, &psi_b, &d0, 8, &count)
        .expect("unlimited count")
        .expect("construction succeeds");
    println!();
    println!(
        "Lemma 23 construction: D = blowup(D₀^×{}, {}) with {} vertices",
        elim.k,
        elim.kappa,
        elim.witness.vertex_count()
    );
    println!("ψ_s(D) = {}", elim.count_s);
    println!("ψ_b(D) = {}", elim.count_b);
    assert!(elim.count_s > elim.count_b);
    println!();
    println!("ψ_s(D) > ψ_b(D): the inequality in ψ_s did not matter — exactly");
    println!("Theorem 5's point. The containment harness runs this construction");
    println!("automatically when it sees inequalities only in the s-query:");

    let verdict = CheckRequest::new(&psi_s, &psi_b).check().expect("CQ pairs are supported");
    println!("  harness verdict: {verdict}");
    assert!(verdict.is_refuted());
}
