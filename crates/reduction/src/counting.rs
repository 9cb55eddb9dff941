//! Counting shim for the reduction verifiers.
//!
//! Every verification count in this crate is pinned to the backtracking
//! kernel on purpose: the reductions are the test oracle for the rest of
//! the workspace, so they must not depend on the `Auto` heuristic they
//! help validate.

use bagcq_arith::Nat;
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::Query;
use bagcq_structure::Structure;

/// `|Hom(q, d)|` via the backtracking kernel.
pub(crate) fn naive_count(q: &Query, d: &Structure) -> Nat {
    CountRequest::new(q, d).backend(BackendChoice::Naive).count()
}
