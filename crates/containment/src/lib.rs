//! # bagcq-containment
//!
//! A decision harness for bag-semantics conjunctive-query containment —
//! the closest thing to a `QCP^bag_CQ` tool that can exist for a problem
//! whose decidability has been open for 30 years (and whose
//! generalizations the reproduced paper proves undecidable):
//!
//! * [`CheckRequest`] — the entry point: a pair of
//!   [`bagcq_query::UnionQuery`] sides plus a [`Semantics`] and a
//!   [`ContainmentChoice`] that selects one of four procedures — the
//!   bag-semantics CQ-pair search (sound certificates: syntactic
//!   identity, the Lemma 12 onto-homomorphism; sound refutation:
//!   Chandra–Merlin canonical failure, Lemma 22-style structured
//!   candidates, Theorem 5 inequality-elimination preprocessing, random
//!   search; and an honest [`Verdict::Unknown`]), its union counterpart,
//!   Chandra–Merlin and Sagiv–Yannakakis all/any — all answering in one
//!   [`Verdict`] vocabulary and counting through one injectable
//!   [`PreparedCountFn`], handed each disjunct prepared once per check
//!   ([`bagcq_homcount::PreparedQuery`]); a [`TryCountFn`] over plain
//!   queries adapts to it;
//! * [`set_contained`] — the Chandra–Merlin set-semantics reference the
//!   oracles check the procedures against;
//! * [`estimate_domination_exponent`] — sampling estimates of the
//!   Kopparty–Rossman homomorphism domination exponent (Section 1.1's
//!   second positive line of attack).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod chandra_merlin;
mod checker;
mod domination;
mod verdict;

pub use backend::{CheckError, CheckRequest, CheckSpec, ContainmentChoice, Semantics, Unsupported};
pub use chandra_merlin::set_contained;
pub use checker::{PreparedCountFn, SearchBudget, TryCountFn};
pub use domination::{domination_ratio, estimate_domination_exponent, DominationSample};
pub use verdict::{Certificate, Counterexample, Provenance, Verdict};
