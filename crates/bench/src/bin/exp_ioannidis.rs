//! Experiment E-IR — "step zero": the Ioannidis–Ramakrishnan encoding of
//! Hilbert's 10th problem into `QCP^bag_UCQ` (the paper's reference \[14\],
//! which its four steps then strengthen from UCQs to single CQs).

use bagcq_bench::{row, sep};
use bagcq_core::prelude::*;

fn main() {
    println!("## E-IR — UCQ encodings of the Hilbert corpus (P₁ = Q'₋+1 vs P₂ = Q'₊)");
    row(&[
        "instance".into(),
        "U₁ disjuncts".into(),
        "U₂ disjuncts".into(),
        "root".into(),
        "U₁ ⊑ U₂ violated on D(Ξ_root·ext)".into(),
    ]);
    sep(5);
    for inst in hilbert_library() {
        if inst.n_vars > 3 {
            continue;
        }
        // Reuse the Appendix B split: Q = 0 ⇔ P₁ > P₂ with natural
        // coefficients (Lemma 25), so U₁ ⊑bag U₂ iff Q has no root.
        let chain = reduce(&inst.poly);
        let n_vars = chain.p1.max_var().max(chain.p2.max_var()).map(|v| v + 1).unwrap_or(1);
        let enc = ioannidis_encode(&chain.p1, &chain.p2, n_vars);
        let violated = inst.known_root.as_ref().map(|root| {
            // P₁/P₂ use shifted variables (ξ₁ unused): valuation = [0, root…].
            let mut val = vec![0u64];
            val.extend_from_slice(root);
            val.resize(n_vars as usize, 0);
            let d = enc.valuation_database(&val);
            eval_union(&enc.u1, &d) > eval_union(&enc.u2, &d)
        });
        row(&[
            inst.name.into(),
            enc.u1.len().to_string(),
            enc.u2.len().to_string(),
            format!("{:?}", inst.known_root),
            match violated {
                Some(v) => v.to_string(),
                None => "(rootless: containment expected)".into(),
            },
        ]);
        if let Some(v) = violated {
            assert!(v, "{}: root must violate the UCQ containment", inst.name);
        } else {
            // Rootless: spot-check containment on a box.
            let mut ok = true;
            let mut val = vec![0u64; n_vars as usize];
            'outer: loop {
                let d = enc.valuation_database(&val);
                if eval_union(&enc.u1, &d) > eval_union(&enc.u2, &d) {
                    ok = false;
                    break;
                }
                let mut i = 0;
                loop {
                    if i == val.len() {
                        break 'outer;
                    }
                    val[i] += 1;
                    if val[i] <= 2 {
                        break;
                    }
                    val[i] = 0;
                    i += 1;
                }
            }
            assert!(ok, "{}: rootless but UCQ containment violated", inst.name);
        }
    }
    println!();
    println!("The encoding needs NO anti-cheating layer (U(D) = P(Ξ_D) for ALL D),");
    println!("which is why [14] is 'quite easy' — and why shrinking UCQs down to");
    println!("single CQs (the paper's four steps) is the hard part.");
}
