//! The counting API: a [`CountRequest`] runs one of the two counting
//! algorithms, and [`CountError`] is the one error hierarchy every layer
//! above speaks.
//!
//! Every count is a [`CountRequest`] — query, structure, backend
//! preference, cancellation controls. The query arrives prepared
//! ([`CountRequest::prepared`]) or is prepared by the request
//! ([`CountRequest::new`]); either way `Auto` and both kernels read its
//! component split and decompositions from the [`PreparedQuery`], so a
//! query counted on many structures is split and decomposed once.
//! [`BackendChoice`] names the kernel:
//!
//! * `Naive` — indexed backtracking ([`NaiveCounter`](crate::NaiveCounter));
//! * `Treewidth` — the tree-decomposition DP
//!   ([`TreewidthCounter`](crate::TreewidthCounter));
//! * `Auto` — picks one of the two by decomposition width and a cheap
//!   per-component count upper bound (see
//!   [`BackendChoice::resolve_prepared`]).
//!
//! Both kernels accumulate in the widening [`bagcq_arith::Acc`]: `u64`
//! while counts fit, checked promotion to `u128` and then `Nat` on
//! overflow. Promotion is per *component* (Lemma 1 factors
//! independently), so one astronomically large factor does not drag the
//! others off the machine word. Never wrong, only fast.
//!
//! The `BAGCQ_BACKEND` environment variable (values `naive`, `treewidth`,
//! `auto`) overrides what `Auto` resolves to — the CI backend matrix
//! forces each kernel through every `Auto` call site this way. Explicitly
//! pinned backends are never overridden, so differential tests stay
//! meaningful under the matrix.

use crate::cancel::{CancelReason, Cancelled, EvalControl};
use crate::eval::Engine;
use crate::prepared::PreparedQuery;
use crate::{naive, tw};
use bagcq_arith::{Acc, Nat};
use bagcq_query::Query;
use bagcq_structure::Structure;
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// Typed failure of one counting request.
///
/// This is the single error hierarchy of the counting stack: budget and
/// deadline denial arrive as [`CountError::Cancelled`] (see
/// [`CancelReason`] for which), a disagreement between the two kernels as
/// [`CountError::Mismatch`]. Neither goes away when the same count is
/// repeated — a budget denial or a mismatch recurs for a fixed kernel and
/// input, and a deadline stays passed — so no caller retries one; the
/// engine re-runs a budget denial once on the naive kernel. The engine and
/// containment crates re-export this type rather than defining their own,
/// so callers match one error family end to end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CountError {
    /// The evaluation was cancelled (deadline, step budget, memory
    /// budget, or engine shutdown — see [`CancelReason`]).
    Cancelled(Cancelled),
    /// Dual-engine cross-validation disagreed: one of the two counting
    /// engines has a bug, and no number can be trusted. Terminal.
    Mismatch(String),
}

impl fmt::Display for CountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountError::Cancelled(c) => write!(f, "{c}"),
            CountError::Mismatch(msg) => write!(f, "cross-validation mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CountError {}

impl From<Cancelled> for CountError {
    fn from(c: Cancelled) -> Self {
        CountError::Cancelled(c)
    }
}

impl CountError {
    /// The cancellation reason, when this is a budget/deadline denial.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        match self {
            CountError::Cancelled(Cancelled(r)) => Some(*r),
            _ => None,
        }
    }
}

/// Which kernel a [`CountRequest`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Pick a kernel by decomposition width and a per-component count
    /// upper bound (the default; see [`BackendChoice::resolve_prepared`]).
    #[default]
    Auto,
    /// The backtracking kernel.
    Naive,
    /// The tree-decomposition DP kernel.
    Treewidth,
}

impl BackendChoice {
    /// Every choice, `Auto` included (the CI backend matrix iterates
    /// this).
    pub const ALL: [BackendChoice; 3] =
        [BackendChoice::Auto, BackendChoice::Naive, BackendChoice::Treewidth];

    /// The two concrete kernels (what `Auto` resolves into).
    pub const REGISTERED: [BackendChoice; 2] = [BackendChoice::Naive, BackendChoice::Treewidth];

    /// Stable lowercase label (also the `BAGCQ_BACKEND` syntax).
    pub fn label(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Naive => "naive",
            BackendChoice::Treewidth => "treewidth",
        }
    }

    /// The algorithm this choice runs — what cross-validation pairs
    /// against. Unresolved `Auto` reports [`Engine::Treewidth`].
    pub fn family(self) -> Engine {
        match self {
            BackendChoice::Naive => Engine::Naive,
            BackendChoice::Treewidth | BackendChoice::Auto => Engine::Treewidth,
        }
    }

    /// Resolves `Auto` to a concrete kernel for this `(query, structure)`
    /// pair; concrete choices return themselves unchanged.
    ///
    /// `Auto` chooses naive vs. treewidth by comparing, per connected
    /// component, a cheap count upper bound (the product of the matched
    /// relations' sizes, capped by `n^{vars}` — which bounds the
    /// backtracking work) against `#bags · n^{w+1}` for the min-fill
    /// decomposition. That is `Auto`'s estimate of the DP, not its cost:
    /// the DP takes most candidates from index buckets and scans the
    /// domain only where no atom reaches. The components and
    /// decompositions are the prepared query's, so resolving and then
    /// counting decomposes each component once. The `BAGCQ_BACKEND`
    /// environment variable overrides the outcome.
    pub fn resolve_prepared(self, p: &PreparedQuery<'_>, d: &Structure) -> BackendChoice {
        if self != BackendChoice::Auto {
            return self;
        }
        match env_override() {
            Some(BackendChoice::Auto) | None => auto_choice(p, d),
            Some(forced) => forced,
        }
    }

    /// [`BackendChoice::resolve_prepared`] for a query prepared on the
    /// spot.
    pub fn resolve(self, q: &Query, d: &Structure) -> BackendChoice {
        self.resolve_prepared(&PreparedQuery::new(q), d)
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "auto" => Ok(BackendChoice::Auto),
            "naive" => Ok(BackendChoice::Naive),
            "treewidth" | "tw" => Ok(BackendChoice::Treewidth),
            other => Err(format!("unknown backend {other:?} (expected auto|naive|treewidth)")),
        }
    }
}

/// `BAGCQ_BACKEND` override for `Auto` resolution, parsed once per
/// process.
fn env_override() -> Option<BackendChoice> {
    static OVERRIDE: OnceLock<Option<BackendChoice>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("BAGCQ_BACKEND") {
        Ok(raw) => match raw.parse::<BackendChoice>() {
            Ok(choice) => Some(choice),
            Err(e) => {
                eprintln!("warning: ignoring BAGCQ_BACKEND: {e}");
                None
            }
        },
        Err(_) => None,
    })
}

/// Caps the log-space cost estimates so summing them in `f64` stays
/// finite (anything this large loses to anything smaller either way).
const COST_LOG_CAP: f64 = 400.0;

/// Width-and-size heuristic behind `Auto`: per component, compare the
/// count upper bound driving backtracking against the DP's bag sweep.
fn auto_choice(p: &PreparedQuery<'_>, d: &Structure) -> BackendChoice {
    let q = p.query();
    let log_n = (d.vertex_count().max(2) as f64).log2();
    let mut naive_cost = 0.0f64;
    let mut tw_cost = 0.0f64;
    for comp in p.components() {
        // Count upper bound: product of matched relation sizes, capped by
        // n^{vars} — both bound the assignments backtracking can visit.
        let product_log: f64 = comp
            .atoms
            .iter()
            .map(|&ai| (d.atom_count(q.atoms()[ai].rel).max(1) as f64).log2())
            .sum();
        let dom_log = comp.vars.len() as f64 * log_n;
        let ub_log = if comp.atoms.is_empty() { dom_log } else { product_log.min(dom_log) };
        naive_cost += ub_log.min(COST_LOG_CAP).exp2();

        let td = &comp.decomposition(q).td;
        let tw_log = (td.bags.len().max(1) as f64).log2() + (td.width() as f64 + 1.0) * log_n;
        tw_cost += tw_log.min(COST_LOG_CAP).exp2();
    }
    if tw_cost < naive_cost {
        BackendChoice::Treewidth
    } else {
        BackendChoice::Naive
    }
}

/// One homomorphism count, built up fluently: query and structure plus a
/// backend preference and cancellation controls.
///
/// ```
/// use bagcq_homcount::{BackendChoice, CountRequest};
/// use bagcq_query::path_query;
/// use bagcq_structure::{SchemaBuilder, Structure, Vertex};
/// use std::sync::Arc;
///
/// let mut b = SchemaBuilder::default();
/// let e = b.relation("E", 2);
/// let schema = b.build();
/// let mut d = Structure::new(Arc::clone(&schema));
/// d.add_vertices(3);
/// for i in 0..3 {
///     for j in 0..3 {
///         d.add_atom(e, &[Vertex(i), Vertex(j)]);
///     }
/// }
/// let q = path_query(&schema, "E", 2);
/// let auto = CountRequest::new(&q, &d).count();
/// let pinned = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();
/// assert_eq!(auto, pinned); // backends are exact: all agree
/// ```
#[derive(Clone, Debug)]
pub struct CountRequest<'a> {
    query: Cow<'a, PreparedQuery<'a>>,
    database: &'a Structure,
    backend: BackendChoice,
    control: EvalControl,
}

impl<'a> CountRequest<'a> {
    /// A request with the default backend ([`BackendChoice::Auto`]) and
    /// unlimited controls. It prepares `query` itself, so resolving `Auto`
    /// and then running decomposes each component once.
    pub fn new(query: &'a Query, database: &'a Structure) -> Self {
        Self::with_query(Cow::Owned(PreparedQuery::new(query)), database)
    }

    /// A request over a query prepared once for counting on many
    /// structures, with the default backend and unlimited controls.
    pub fn prepared(query: &'a PreparedQuery<'a>, database: &'a Structure) -> Self {
        Self::with_query(Cow::Borrowed(query), database)
    }

    fn with_query(query: Cow<'a, PreparedQuery<'a>>, database: &'a Structure) -> Self {
        CountRequest {
            query,
            database,
            backend: BackendChoice::Auto,
            control: EvalControl::unlimited(),
        }
    }

    /// Sets the backend preference.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Installs full evaluation controls (budget, deadline, checkpoint
    /// hook, memory gauge).
    pub fn control(mut self, control: EvalControl) -> Self {
        self.control = control;
        self
    }

    /// Sets the step budget (`0` = unlimited) on the current controls.
    pub fn step_budget(mut self, steps: u64) -> Self {
        self.control = self.control.with_step_budget(steps);
        self
    }

    /// The concrete kernel this request will run (resolves `Auto` against
    /// the query/structure pair — diagnostics, cache keys, bench labels).
    pub fn resolved_backend(&self) -> BackendChoice {
        self.backend.resolve_prepared(&self.query, self.database)
    }

    /// Runs the count under the configured controls.
    pub fn run(&self) -> Result<Nat, CountError> {
        // Entry checkpoint: small queries may never reach a ticker poll
        // boundary, so fault-injection hooks get at least one shot per
        // count.
        self.control.checkpoint("homcount/count")?;
        let resolved = self.resolved_backend();
        let _span = bagcq_obs::span("homcount.request", resolved.label());
        let (p, d, ctl) = (&*self.query, self.database, &self.control);
        Ok(match resolved {
            BackendChoice::Naive => naive::try_count_generic::<Acc>(p, d, ctl)?,
            BackendChoice::Treewidth => tw::try_count_generic::<Acc>(p, d, ctl)?,
            BackendChoice::Auto => unreachable!("resolve() returns a concrete kernel"),
        })
    }

    /// Runs the count, panicking on cancellation — the infallible
    /// convenience for requests whose controls cannot trip (the default).
    pub fn count(&self) -> Nat {
        self.run().expect("count failed under supposedly non-tripping controls")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_query::{cycle_query, grid_query, path_query};
    use bagcq_structure::{SchemaBuilder, Vertex};
    use std::sync::Arc;

    fn complete(n: u32) -> (Arc<bagcq_structure::Schema>, Structure) {
        let mut b = SchemaBuilder::default();
        let e = b.relation("E", 2);
        let s = b.build();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(n);
        for i in 0..n {
            for j in 0..n {
                d.add_atom(e, &[Vertex(i), Vertex(j)]);
            }
        }
        (s, d)
    }

    #[test]
    fn all_backends_agree_on_basics() {
        let (s, d) = complete(4);
        for q in [
            path_query(&s, "E", 3),
            cycle_query(&s, "E", 4),
            grid_query(&s, "E", 2, 3),
            path_query(&s, "E", 1).power(3),
        ] {
            let reference = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();
            for choice in BackendChoice::ALL {
                let got = CountRequest::new(&q, &d).backend(choice).count();
                assert_eq!(got, reference, "backend {choice} on {q}");
            }
        }
    }

    #[test]
    fn labels_round_trip() {
        for choice in BackendChoice::ALL {
            assert_eq!(choice.label().parse::<BackendChoice>(), Ok(choice));
        }
        for unknown in ["nonsense", "fast-naive", "fast-treewidth", "fast-tw"] {
            assert!(unknown.parse::<BackendChoice>().is_err(), "{unknown}");
        }
        assert_eq!("TW".parse::<BackendChoice>(), Ok(BackendChoice::Treewidth));
    }

    #[test]
    fn auto_resolves_to_a_concrete_kernel() {
        let (s, d) = complete(3);
        let q = path_query(&s, "E", 4);
        let resolved = BackendChoice::Auto.resolve(&q, &d);
        assert!(BackendChoice::REGISTERED.contains(&resolved), "auto resolved to {resolved}");
        // Concrete choices resolve to themselves.
        assert_eq!(BackendChoice::Naive.resolve(&q, &d), BackendChoice::Naive);
    }

    #[test]
    fn auto_prefers_treewidth_on_long_low_width_queries() {
        // A long path has width 1: Auto's DP estimate #bags·n² beats the
        // relation-product upper bound once the path is long and the
        // structure dense.
        let (s, d) = complete(8);
        let q = path_query(&s, "E", 12);
        assert_eq!(BackendChoice::Auto.resolve(&q, &d), BackendChoice::Treewidth);
    }

    #[test]
    fn step_budget_denial_arrives_as_count_error() {
        let (s, d) = complete(8);
        let q = path_query(&s, "E", 5);
        let err = CountRequest::new(&q, &d)
            .backend(BackendChoice::Naive)
            .step_budget(3)
            .run()
            .unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::BudgetExhausted));
    }

    #[test]
    fn passed_deadline_trips_request() {
        use std::time::{Duration, Instant};
        let (s, d) = complete(6);
        let q = path_query(&s, "E", 6);
        let passed = Instant::now() - Duration::from_millis(1);
        // Pin the backtracking kernel: the DP finishes this query in fewer
        // than CHECK_INTERVAL ticks, so the deadline would never be polled.
        let err = CountRequest::new(&q, &d)
            .backend(BackendChoice::Naive)
            .control(EvalControl::new(0, Some(passed)))
            .run()
            .unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::DeadlineExceeded));
    }
}
