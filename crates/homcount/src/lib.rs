//! # bagcq-homcount
//!
//! Bag-semantics evaluation of boolean conjunctive queries:
//! `ψ(D) = |Hom(ψ, D)|` (Section 2.1 of Marcinkowski & Orda, PODS 2024).
//!
//! Every count goes through one API — a [`CountRequest`] naming the
//! query, the structure, a [`BackendChoice`], and optional cancellation
//! controls — which runs one of two kernels. A query counted on many
//! structures is prepared once ([`PreparedQuery`]: its component split
//! and each component's min-fill decomposition) and counted with
//! [`CountRequest::prepared`]; `Auto` and both kernels read the prepared
//! query, and [`CountRequest::new`] prepares its own.
//!
//! * [`NaiveCounter`] — indexed backtracking enumeration with component
//!   factorization (the reference / baseline engine). Each search
//!   compiles its index probes once, so a search node allocates nothing;
//! * [`TreewidthCounter`] — the textbook `#Hom` dynamic program over a
//!   min-fill tree decomposition of the query's primal graph
//!   ([`TreeDecomposition`]). Each bag is compiled once per count; a bag
//!   variable takes its candidates from the index bucket of an atom that
//!   closes on it, and only variables no closing atom reaches scan the
//!   domain. Its cost is `#bags` times the candidates the buckets yield,
//!   exponential in width instead of variable count.
//!
//! Both accumulate in widening `u64 → u128 → Nat` words
//! ([`bagcq_arith::Acc`]): machine-word speed while counts fit, checked
//! promotion on overflow, exact results always. `BackendChoice::Auto`
//! (the default) picks a kernel by decomposition width and a
//! per-component count upper bound.
//!
//! On top of raw counting:
//!
//! * [`eval_power_query`] evaluates symbolic `∏ θᵢ↑eᵢ` queries into
//!   certified [`bagcq_arith::Magnitude`]s (how the Theorem 1 query `φ_b`
//!   with astronomical exponents is handled);
//! * [`find_onto_hom`] / [`verify_onto_hom`] produce and check the
//!   Lemma 12 onto-homomorphism certificates that prove
//!   `ρ_s(D) ≤ ρ_b(D)` for all `D`;
//! * [`for_each_hom_limited`] exhaustively enumerates homomorphisms (the
//!   primitive behind existence checks and certificate searches);
//! * [`EvalControl`] gives every counting loop cooperative cancellation:
//!   a deadline, a step budget, a checkpoint hook and a memory gauge,
//!   carried on the request and reported through the unified
//!   [`CountError`].
//!
//! ```
//! use bagcq_homcount::CountRequest;
//! use bagcq_query::{path_query, Query};
//! use bagcq_structure::{Schema, Structure, Vertex};
//! use bagcq_arith::Nat;
//!
//! let mut sb = Schema::builder();
//! let e = sb.relation("E", 2);
//! let schema = sb.build();
//! let mut d = Structure::new(std::sync::Arc::clone(&schema));
//! d.add_vertices(3);
//! d.add_atom(e, &[Vertex(0), Vertex(1)]);
//! d.add_atom(e, &[Vertex(1), Vertex(2)]);
//!
//! // ψ(D) = |Hom(ψ, D)| — bag semantics (Section 2.1 of the paper):
//! let two_walks = path_query(&schema, "E", 2);
//! assert_eq!(CountRequest::new(&two_walks, &d).count(), Nat::one());
//!
//! // Lemma 1: disjoint conjunction multiplies counts.
//! let edges = path_query(&schema, "E", 1);
//! let conj = edges.disjoint_conj(&two_walks);
//! assert_eq!(CountRequest::new(&conj, &d).count(), Nat::from_u64(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cancel;
mod common;
mod eval;
mod naive;
mod onto;
mod output_eval;
mod prepared;
mod treedec;
mod tw;

pub use backend::{BackendChoice, CountError, CountRequest};
pub use cancel::{
    CancelReason, Cancelled, CheckpointHook, EvalControl, MemoryGauge, Ticker, CHECK_INTERVAL,
};
pub use eval::{eval_power_query, eval_power_query_with, Engine, EvalOptions};
pub use naive::{for_each_hom_limited, try_for_each_hom_limited, NaiveCounter};
pub use onto::{find_onto_hom, verify_onto_hom, OntoHom};
pub use output_eval::{answer_bag, answer_bag_contained, output_contained_on, AnswerBag};
pub use prepared::PreparedQuery;
pub use treedec::{decompose_min_fill, TreeDecomposition};
pub use tw::TreewidthCounter;
