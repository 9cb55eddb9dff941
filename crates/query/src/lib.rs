//! # bagcq-query
//!
//! Boolean conjunctive queries for the `bagcq` reproduction of
//! *Bag Semantics Conjunctive Query Containment* (Marcinkowski & Orda,
//! PODS 2024):
//!
//! * [`Query`]: CQs over runtime schemas, with constants and inequality
//!   atoms; the paper's shared conjunction `∧`, disjoint conjunction `∧̄`
//!   (Lemma 1) and exponentiation `θ↑k` (Definition 2); canonical
//!   structures (Section 2.1);
//! * [`PowerQuery`]: symbolic products `∏ θᵢ↑eᵢ` with arbitrary-precision
//!   exponents, required because the Theorem 1 query `φ_b` contains
//!   `δ_b = (…)↑C` with an astronomically large `C`;
//! * [`QueryGen`] and the structured families ([`path_query`],
//!   [`cycle_query`], [`star_query`], [`grid_query`]) used by the
//!   falsification harness and the engine benchmarks.
//!
//! ```
//! use bagcq_query::{parse_query_infer, PowerQuery};
//! use bagcq_arith::Nat;
//!
//! let (q, _schema) = parse_query_infer("E(x,y), E(y,z), x != z").unwrap();
//! assert_eq!(q.var_count(), 3);
//! assert_eq!(q.inequalities().len(), 1);
//!
//! // θ↑k stays symbolic for huge exponents (how δ_b is represented):
//! let symbolic = PowerQuery::power(q, Nat::pow2(100));
//! assert!(symbolic.expand(1_000_000).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dlgp;
mod gen;
mod output;
mod parse;
mod power_query;
mod query;
mod ucq;

pub use dlgp::{
    parse_bag_instance, parse_bag_instance_infer, parse_dlgp_count, parse_dlgp_query,
    parse_dlgp_query_infer, parse_dlgp_union, parse_dlgp_union_infer, parse_dlgp_union_pair,
    query_to_dlgp, union_to_dlgp, BagFact, BagInstance, DlgpCount,
};
pub use gen::{cycle_query, grid_query, path_query, star_query, QueryGen, UnionGen};
pub use output::{free_constants, OutputQuery};
pub use parse::{parse_query, parse_query_infer, ParseQueryError};
pub use power_query::{PowerFactor, PowerQuery};
pub use query::{Atom, Inequality, Query, QueryBuilder, QueryStats, Term, VarId};
pub use ucq::UnionQuery;
