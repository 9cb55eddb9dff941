//! # bagcq-falsify — adversarial workloads and the lemma-falsification fleet
//!
//! Every quantitative claim this repository's reduction rests on —
//! gadget ratio lemmas, the arena taxonomy, the detector thresholds, the
//! counting laws — is stated once in `crates/reduction` and proved once
//! in the paper. This crate tries, continuously and adversarially, to
//! make those claims fail:
//!
//! * [`corpus`] — a seeded generator of falsification cases: random
//!   β/γ/α gadget compositions at randomized parameters, toy-instance
//!   arena databases (correct, slightly-incorrect and
//!   seriously-incorrect), and free-form query/database traffic;
//! * [`oracle`] — one machine-checked [`oracle::LemmaOracle`] per
//!   quantitative lemma (5, 10, 12, 15, 17–21, 22, 23–24, plus
//!   Definition 3 and the Definition 13 taxonomy and UCQ bag-union
//!   semantics), each recomputing its counts on **two independent
//!   kernels** and demanding bit-identical answers;
//! * [`mod@shrink`] — a delta-debugging minimizer that shrinks a violating
//!   (context, database) pair by parameters, then atoms, then vertices,
//!   re-checking the oracle at every step;
//! * [`fixture`] — DLGP serialization for minimized counterexamples,
//!   replayed forever by `paper_claims.rs`;
//! * [`fleet`] — the driver: corpus → oracles, with every instance also
//!   streamed through the [`bagcq_engine::EvalEngine`] and the
//!   `bagcq-serve` wire path, whose answers must match the synchronous
//!   oracle exactly.
//!
//! The deliberate-breakage hook ([`oracle::oracle_set`] with
//! `Some("lemma10")`) exists so the *fleet itself* stays honest: a
//! pipeline that cannot catch a planted off-by-one in Lemma 10's ratio
//! would be silently worthless as a falsifier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod fixture;
pub mod fleet;
pub mod oracle;
pub mod shrink;

pub use corpus::{
    generate_corpus, materialize, ArenaParams, CaseParams, Context, CorpusConfig, CorpusItem,
    GadgetKind, Tamper, TrafficParams,
};
pub use fixture::{structure_to_dlgp, Fixture};
pub use fleet::{run_fleet, FleetConfig, FleetReport, FleetViolation};
pub use oracle::{oracle_set, LemmaOracle, Verdict, Violation};
pub use shrink::{shrink, ShrinkResult};
