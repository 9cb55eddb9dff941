//! Experiments E-L5, E-L8, E-L10, E-C — the Section 3 gadgets.
//!
//! Regenerates, for each parameter value: the exact (=) witness counts,
//! the claimed ratios, and the outcome of (≤)-falsification sweeps.
//! Paper claims: Lemma 5 (`β` multiplies by `(p+1)²/2p`), Lemma 8
//! (degenerate cyclass ≤ p/2), Lemma 10 (`γ` multiplies by `(m−1)/m`),
//! Section 3.2 (`α` multiplies by exactly `c` with one inequality).

use bagcq_bench::{row, sep};
use bagcq_core::polynomial::valuations;
use bagcq_core::prelude::*;
use bagcq_core::reduction::cyclique;

fn main() {
    println!("## E-L5 — Lemma 5: β multiplies by (p+1)²/2p");
    row(&[
        "p".into(),
        "ratio".into(),
        "β_s(W)".into(),
        "β_b(W)".into(),
        "(=) exact".into(),
        "(≤) sweep (40 rand)".into(),
    ]);
    sep(6);
    for p in [3usize, 4, 5, 7, 9, 11] {
        let g = beta_gadget(p, "E");
        let (s, b) = g.check_witness().expect("(=) holds");
        let gen = StructureGen {
            extra_vertices: 3,
            density: 0.6,
            max_tuples_per_relation: 60,
            diagonal_density: 0.7,
        };
        let sweep = g.falsify(&gen, 40, 99).is_none();
        row(&[
            p.to_string(),
            g.ratio.to_string(),
            s.to_string(),
            b.to_string(),
            "yes".into(),
            if sweep { "no violation".into() } else { "VIOLATED".into() },
        ]);
        assert!(sweep);
    }

    println!();
    println!("## E-L8 — Lemma 8: degenerate cyclasses have ≤ p/2 elements");
    row(&[
        "p".into(),
        "tuples checked".into(),
        "max degenerate cyclass".into(),
        "bound p/2".into(),
    ]);
    sep(4);
    for p in 2usize..=9 {
        let mut max_deg = 0usize;
        let mut checked = 0usize;
        // Every tuple over the alphabet {0, 1, 2}.
        for val in valuations(p, 2) {
            let tuple: Vec<u32> = val.into_iter().map(|v| v as u32).collect();
            if cyclique::classify(&tuple) == cyclique::CycliqueKind::Degenerate {
                max_deg = max_deg.max(cyclique::cyclass(&tuple).len());
            }
            checked += 1;
        }
        row(&[p.to_string(), checked.to_string(), max_deg.to_string(), (p / 2).to_string()]);
        assert!(max_deg * 2 <= p || max_deg == 0);
    }

    println!();
    println!("## E-L10 — Lemma 10: γ multiplies by (m−1)/m with zero inequalities");
    row(&[
        "m".into(),
        "ratio".into(),
        "γ_s(W)".into(),
        "γ_b(W)".into(),
        "ineqs s/b".into(),
        "(≤) sweep".into(),
    ]);
    sep(6);
    for m in [2usize, 3, 4, 6, 8] {
        let g = gamma_gadget(m, "E");
        let (s, b) = g.check_witness().expect("(=) holds");
        let gen = StructureGen {
            extra_vertices: 3,
            density: 0.7,
            max_tuples_per_relation: 50,
            diagonal_density: 0.8,
        };
        let sweep = g.falsify(&gen, 40, 123).is_none();
        row(&[
            m.to_string(),
            g.ratio.to_string(),
            s.to_string(),
            b.to_string(),
            format!("{}/{}", g.q_s.stats().inequalities, g.q_b.stats().inequalities),
            if sweep { "no violation".into() } else { "VIOLATED".into() },
        ]);
        assert!(sweep);
    }

    println!();
    println!("## E-C — Section 3.2: α multiplies by exactly c, one inequality");
    row(&[
        "c".into(),
        "p=2c−1".into(),
        "m=p+1".into(),
        "ratio".into(),
        "α_s(W)".into(),
        "α_b(W)".into(),
        "ineqs s/b".into(),
    ]);
    sep(7);
    for c in [2u64, 3, 4, 5] {
        let g = alpha_gadget(c, "E");
        let (s, b) = g.check_witness().expect("(=) holds");
        row(&[
            c.to_string(),
            (2 * c - 1).to_string(),
            (2 * c).to_string(),
            g.ratio.to_string(),
            s.to_string(),
            b.to_string(),
            format!("{}/{}", g.q_s.stats().inequalities, g.q_b.stats().inequalities),
        ]);
        assert_eq!(g.ratio, Rat::from_u64s(c, 1));
        assert_eq!(g.q_s.stats().inequalities, 0);
        assert_eq!(g.q_b.stats().inequalities, 1);
    }
    println!();
    println!("All gadget claims verified.");
}
