//! Verdict pins: one FNV-1a digest per (seed, backend) over every verdict
//! a fixed seeded corpus produces, certificate payloads and witnesses
//! included.
//!
//! `Display` alone is too coarse to pin a refactor of the containment
//! procedures: it omits the onto-homomorphism map, the all/any pairs, the
//! matching and the witness database. Each verdict here is rendered with
//! its kind and certificate payload, the counterexample's provenance,
//! `count_s`, `count_b` and `Structure::fingerprint()`, and the
//! `candidates_checked` of an Unknown. A change that alters any verdict
//! bit fails the pin of the backend that produced it.
//!
//! Every run pins its backend explicitly, so the CI containment matrix
//! (`BAGCQ_CONTAINMENT`, which only redirects `Auto`) cannot change what
//! is measured here.

use bagcq_arith::Rat;
use bagcq_containment::{
    Certificate, CheckRequest, ContainmentChoice, Provenance, Semantics, Verdict,
};
use bagcq_query::{QueryGen, UnionGen};
use bagcq_structure::Schema;
use std::collections::BTreeSet;
use std::sync::Arc;

const SEEDS: [u64; 3] = [1, 7, 42];

/// `(seed, backend, verdicts, digest)`.
type Pin = (u64, &'static str, usize, u64);

const PINS: [Pin; 12] = [
    (1, "bag-search", 66, 0x9a6d614fe93a2b25),
    (1, "set-chandra-merlin", 69, 0x93f2c183a8cb8c41),
    (1, "set-ucq", 96, 0x9a61cfcbd31c8e84),
    (1, "bag-ucq", 96, 0x05a147af7c319c6d),
    (7, "bag-search", 69, 0x43e78d24b66cceda),
    (7, "set-chandra-merlin", 68, 0xec2d4f1ae9a140b0),
    (7, "set-ucq", 96, 0x1f7bb69497e226fe),
    (7, "bag-ucq", 96, 0x6c96cd8c1abe10f0),
    (42, "bag-search", 70, 0xc039d46b27d9f7f1),
    (42, "set-chandra-merlin", 69, 0x1f7b133056202aae),
    (42, "set-ucq", 96, 0xaf80131b0d8079a4),
    (42, "bag-ucq", 96, 0x325eccb93000adb1),
];

fn schema() -> Arc<Schema> {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    sb.relation("F", 1);
    sb.build()
}

/// 64 bag CQ pairs (a quarter with one inequality on the small side, at
/// multiplier 1 so Theorem 5 preprocessing applies; the rest rotate
/// multipliers 1, 2 and 1/2), 64 pure set CQ pairs, and 32 `UnionGen`
/// pairs under each semantics.
fn corpus(seed: u64) -> Vec<CheckRequest> {
    let s = schema();
    let pure = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
    // Theorem 5 recounts its Lemma 23 witness `blowup(D₀^×k, 2)` by
    // enumeration, which takes minutes in a debug build for a dense
    // `k = 5` witness; the ones four-atom small sides reach here recount
    // in milliseconds.
    let with_neq = QueryGen { atoms: 4, inequalities: 1, ..pure.clone() };
    let multipliers = [Rat::one(), Rat::from_u64s(2, 1), Rat::from_u64s(1, 2)];
    let base = seed * 100_000;
    let mut out = Vec::new();
    for i in 0..64u64 {
        let theorem5 = i % 4 == 0;
        let small = if theorem5 { &with_neq } else { &pure };
        let q_s = small.sample(&s, base + 2 * i);
        let q_b = pure.sample(&s, base + 2 * i + 1);
        let multiplier = if theorem5 { Rat::one() } else { multipliers[(i % 3) as usize].clone() };
        out.push(CheckRequest::new(&q_s, &q_b).multiplier(multiplier));
    }
    for i in 0..64u64 {
        let q_s = pure.sample(&s, base + 10_000 + 2 * i);
        let q_b = pure.sample(&s, base + 10_000 + 2 * i + 1);
        out.push(CheckRequest::new(&q_s, &q_b).semantics(Semantics::Set));
    }
    let ug = UnionGen {
        disjuncts_min: 1,
        disjuncts_max: 3,
        query: QueryGen { variables: 3, atoms: 2, constant_prob: 0.0, inequalities: 0 },
    };
    for (k, semantics) in [Semantics::Bag, Semantics::Set].into_iter().enumerate() {
        for i in 0..32u64 {
            let at = base + 20_000 + 10_000 * k as u64 + 2 * i;
            let (u_s, u_b) = (ug.sample(&s, at), ug.sample(&s, at + 1));
            out.push(CheckRequest::union(u_s, u_b).semantics(semantics));
        }
    }
    out
}

/// Every observable bit of a verdict, as one line.
fn render(v: &Verdict) -> String {
    match v {
        Verdict::Proved(Certificate::OntoHom(h)) => format!("proved onto-hom {:?}", h.assignment),
        Verdict::Proved(Certificate::Identical) => "proved identical".to_string(),
        Verdict::Proved(Certificate::SetHomomorphism) => "proved set-hom".to_string(),
        Verdict::Proved(Certificate::SetAllAny(pairs)) => format!("proved all-any {pairs:?}"),
        Verdict::Proved(Certificate::DisjunctMatching(m)) => format!("proved matching {m:?}"),
        Verdict::Refuted(ce) => {
            let fp = ce.database.fingerprint();
            format!(
                "refuted {:?} s={} b={} db={:016x}{:016x}",
                ce.provenance, ce.count_s, ce.count_b, fp.hi, fp.lo
            )
        }
        Verdict::Unknown { candidates_checked } => format!("unknown {candidates_checked}"),
    }
}

/// A coarse class label, for the non-vacuity guard.
fn class(v: &Verdict) -> String {
    match v {
        Verdict::Proved(c) => {
            let label = match c {
                Certificate::OntoHom(_) => "onto-hom",
                Certificate::Identical => "identical",
                Certificate::SetHomomorphism => "set-hom",
                Certificate::SetAllAny(_) => "all-any",
                Certificate::DisjunctMatching(_) => "matching",
            };
            format!("proved/{label}")
        }
        Verdict::Refuted(ce) => format!("refuted/{:?}", ce.provenance),
        Verdict::Unknown { .. } => "unknown".to_string(),
    }
}

/// Runs the corpus of every seed under every backend that supports each
/// request: the `(seed, backend, verdicts, digest)` table, and the set of
/// verdict classes reached.
fn run() -> (Vec<Pin>, BTreeSet<String>) {
    let mut table = Vec::new();
    let mut classes = BTreeSet::new();
    for seed in SEEDS {
        let requests = corpus(seed);
        for choice in ContainmentChoice::REGISTERED {
            let mut lines = String::new();
            let mut n = 0usize;
            for request in &requests {
                let request = request.clone().containment(choice);
                if request.validate().is_err() {
                    continue;
                }
                let v = request.check().expect("validated requests are supported");
                lines.push_str(&render(&v));
                lines.push('\n');
                classes.insert(class(&v));
                n += 1;
            }
            table.push((seed, choice.label(), n, bagcq_obs::fnv1a(lines.as_bytes())));
        }
    }
    (table, classes)
}

#[test]
fn verdicts_match_their_pins() {
    let (actual, _) = run();
    let table: String = actual
        .iter()
        .map(|(seed, backend, n, digest)| {
            format!("    ({seed}, {backend:?}, {n}, {digest:#018x}),\n")
        })
        .collect();
    assert_eq!(actual, PINS, "verdict digests drifted; actual table:\n{table}");
}

/// Guards the pins against vacuity: the corpus reaches every certificate
/// kind but `Identical` and every refutation provenance the four
/// procedures produce.
#[test]
fn corpus_reaches_every_verdict_class() {
    let (_, seen) = run();
    let provenances = [
        Provenance::CanonicalStructure,
        Provenance::StructuredCandidate,
        Provenance::RandomSearch,
        Provenance::InequalityElimination,
    ];
    for expected in ["proved/onto-hom", "proved/set-hom", "proved/all-any", "proved/matching"]
        .map(String::from)
        .into_iter()
        .chain(provenances.map(|p| format!("refuted/{p:?}")))
        .chain(["unknown".to_string()])
    {
        assert!(seen.contains(&expected), "the corpus never produced {expected}");
    }
}
