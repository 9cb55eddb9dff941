//! # bagcq-core
//!
//! One-stop facade for the `bagcq` workspace — a Rust reproduction of
//! *Bag Semantics Conjunctive Query Containment. Four Small Steps Towards
//! Undecidability* (Jerzy Marcinkowski & Mateusz Orda, PODS 2024).
//!
//! The workspace mechanizes every construction in the paper:
//!
//! * bag-semantics query evaluation `ψ(D) = |Hom(ψ, D)|` with two
//!   independent engines ([`homcount`]);
//! * the Section 3 multiplication gadgets `β`, `γ`, `α` and the Section 4
//!   Theorem 1 reduction from Hilbert's 10th problem ([`reduction`],
//!   [`hilbert`], [`polynomial`]);
//! * the Theorem 3 single-inequality assembly and the Theorem 5
//!   inequality-elimination construction ([`reduction`]);
//! * a sound-certificate / verified-counterexample containment harness
//!   ([`containment`]);
//! * a concurrent batched evaluation service with a single-flight memo
//!   cache, deadlines, continuous dual-engine cross-validation, and a
//!   resilience layer (deterministic fault injection, retry/backoff,
//!   engine fallback, circuit breakers, crash-safe sweep journals), and
//!   an overload-safe serving layer (bounded admission, typed load
//!   shedding, worker supervision, memory budgeting, graceful drain)
//!   ([`engine`]).
//!
//! ## Quickstart
//!
//! ```
//! use bagcq_core::prelude::*;
//! use std::sync::Arc;
//!
//! // Schema with one binary relation.
//! let mut sb = Schema::builder();
//! sb.relation("E", 2);
//! let schema = sb.build();
//!
//! // ϱ_s = E(x,y) (edges), ϱ_b = E(u,v) ∧ E(v,w) (2-walks).
//! let mut qb = Query::builder(Arc::clone(&schema));
//! let x = qb.var("x"); let y = qb.var("y");
//! qb.atom_named("E", &[x, y]);
//! let edges = qb.build();
//!
//! let mut qb = Query::builder(Arc::clone(&schema));
//! let u = qb.var("u"); let v = qb.var("v"); let w = qb.var("w");
//! qb.atom_named("E", &[u, v]).atom_named("E", &[v, w]);
//! let walks = qb.build();
//!
//! // Is every database's edge count at most its 2-walk count? No:
//! let verdict = CheckRequest::new(&edges, &walks).check().expect("CQ pairs are supported");
//! assert!(verdict.is_refuted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bagcq_arith as arith;
pub use bagcq_containment as containment;
pub use bagcq_engine as engine;
pub use bagcq_hilbert as hilbert;
pub use bagcq_homcount as homcount;
pub use bagcq_obs as obs;
pub use bagcq_polynomial as polynomial;
pub use bagcq_query as query;
pub use bagcq_reduction as reduction;
pub use bagcq_structure as structure;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use bagcq_arith::{acc_promotions, CertOrd, Int, Magnitude, Nat, Rat};
    pub use bagcq_containment::{
        set_contained, Certificate, CheckRequest, CheckSpec, ContainmentChoice, Counterexample,
        SearchBudget, Semantics, TryCountFn, Unsupported, Verdict,
    };
    pub use bagcq_engine::{
        AdmissionConfig, AdmissionPolicy, BreakerConfig, CachedCounter, CountError, DrainReport,
        EngineConfig, EngineHealth, EvalEngine, FailFast, FaultInjector, FaultKind, FaultPlan, Job,
        JobHandle, JobSpec, MemoStore, MetricsSnapshot, Outcome, RecoveryReport, RetryPolicy,
        ShedReason, StoreError, StoreOptions, StoreStats, SupervisorConfig, SweepJournal,
        TraceReport, TraceSession,
    };
    pub use bagcq_hilbert::{by_name as hilbert_instance, library as hilbert_library, reduce};
    pub use bagcq_homcount::{
        answer_bag, answer_bag_contained, backend_for, eval_power_query, find_onto_hom,
        output_contained_on, registered_backends, verify_onto_hom, AnswerBag, BackendChoice,
        CountBackend, CountRequest, Engine, EvalOptions, FastNaiveCounter, FastTreewidthCounter,
        NaiveCounter, TreewidthCounter,
    };
    pub use bagcq_obs::StageStats;
    pub use bagcq_polynomial::{Lemma11Instance, Monomial, Polynomial};
    pub use bagcq_query::{
        cycle_query, free_constants, grid_query, parse_query, parse_query_infer, path_query,
        star_query, OutputQuery, PowerQuery, Query, QueryGen, Term, UnionQuery,
    };
    pub use bagcq_reduction::{
        alpha_gadget, beta_gadget, compose_theorem3, eliminate_inequalities, eval_union,
        gamma_gadget, ioannidis_encode, theorem3_sizes, toy_instance, Correctness,
        IoannidisEncoding, MultiplyGadget, Theorem1Reduction, Theorem2Statement, Theorem4Statement,
    };
    pub use bagcq_structure::{
        isomorphic, parse_structure, parse_structure_infer, structure_to_text, ConstId, RelId,
        Schema, SchemaBuilder, Structure, StructureGen, Vertex, MARS, VENUS,
    };
}
