//! Job descriptions, outcomes, and completion handles.
//!
//! A [`Job`] pairs a [`JobSpec`] (what to evaluate) with execution limits
//! (a wall-clock timeout and a cooperative step budget).
//! [`crate::EvalEngine::run`] evaluates one on the calling thread and
//! returns its [`Outcome`]; [`crate::EvalEngine::submit`] and
//! [`crate::EvalEngine::submit_batch`] evaluate the same way and wrap each
//! outcome in a resolved [`JobHandle`].
//!
//! Every spec has a stable 128-bit content [`Fingerprint`] derived from
//! the fingerprints of its query/structure components — that fingerprint
//! is the engine's memo-cache key, so two structurally equal jobs
//! submitted from different threads share one computation.

use bagcq_arith::{Magnitude, Nat};
use bagcq_containment::{CheckSpec, ContainmentChoice, Semantics, Verdict};
use bagcq_homcount::BackendChoice;
use bagcq_query::{PowerQuery, Query};
use bagcq_structure::{Fingerprint, FingerprintHasher, Structure};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What a job evaluates.
#[derive(Clone)]
pub enum JobSpec {
    /// `|Hom(query, database)|` with the chosen counting backend
    /// (Section 2.1 bag semantics).
    Count {
        /// The boolean conjunctive query `ψ`.
        query: Query,
        /// The database `D`.
        database: Arc<Structure>,
        /// Which counting backend evaluates it.
        backend: BackendChoice,
    },
    /// `Φ(D) = ∏ θᵢ(D)^{eᵢ}` for a symbolic power query, evaluated into a
    /// certified [`Magnitude`].
    EvalPower {
        /// The factored query `Φ`.
        query: PowerQuery,
        /// The database `D`.
        database: Arc<Structure>,
        /// Bit budget below which the magnitude stays exact.
        exact_bits: u64,
    },
    /// A containment check described by a [`CheckSpec`] — unions, set or
    /// bag [`Semantics`](bagcq_containment::Semantics), backend
    /// [`ContainmentChoice`], multiplier, budget. The verdict is memoized
    /// under the spec's fingerprint; the counts the resolved procedure
    /// performs run on the kernels without touching the memo.
    Check {
        /// The full check description.
        spec: CheckSpec,
    },
}

impl JobSpec {
    /// Short label for display and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Count { .. } => "count",
            JobSpec::EvalPower { .. } => "eval_power",
            JobSpec::Check { .. } => "check",
        }
    }

    /// The stable content fingerprint that keys the memo cache.
    ///
    /// Two specs collide iff their variant, parameters, and component
    /// fingerprints all agree; structure fingerprints are insertion-order
    /// independent, so semantically equal databases built in different
    /// orders still share cache entries.
    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            JobSpec::Count { query, database, backend } => {
                count_fingerprint(query, database, *backend)
            }
            JobSpec::EvalPower { query, database, exact_bits } => {
                let mut h = FingerprintHasher::new(b"bagcq/job/eval-power");
                let fp = power_query_fingerprint(query);
                h.write_u64(fp.hi);
                h.write_u64(fp.lo);
                let db = database.fingerprint();
                h.write_u64(db.hi);
                h.write_u64(db.lo);
                h.write_u64(*exact_bits);
                h.finish()
            }
            JobSpec::Check { spec } => {
                let mut h = FingerprintHasher::new(b"bagcq/job/check");
                for u in [&spec.q_s, &spec.q_b] {
                    h.write_usize(u.len());
                    for q in u.disjuncts() {
                        let fp = q.fingerprint();
                        h.write_u64(fp.hi);
                        h.write_u64(fp.lo);
                    }
                }
                h.write_u32(match spec.semantics {
                    Semantics::Bag => 0,
                    Semantics::Set => 1,
                });
                // The *submitted* choice is the key: `Auto` resolution
                // consults a process-fixed env override and the spec
                // itself, so it is deterministic per process and safe to
                // cache under the pre-resolution tag.
                h.write_u32(match spec.choice {
                    ContainmentChoice::Auto => 0,
                    ContainmentChoice::BagSearch => 1,
                    ContainmentChoice::SetChandraMerlin => 2,
                    ContainmentChoice::SetUcq => 3,
                    ContainmentChoice::BagUcq => 4,
                });
                write_nat(&mut h, spec.multiplier.numerator());
                write_nat(&mut h, spec.multiplier.denominator());
                let b = &spec.budget;
                h.write_u64(b.random_rounds);
                h.write_u32(b.max_blowup);
                h.write_u32(b.max_power);
                h.write_u64(b.seed);
                h.write_u32(b.random_vertices);
                h.finish()
            }
        }
    }
}

/// The memo-cache key of a raw count — shared between [`JobSpec::Count`]
/// jobs and the factor counts of [`JobSpec::EvalPower`] jobs, so a power
/// query warms the cache for later direct counts of its factors (and
/// vice versa).
pub(crate) fn count_fingerprint(
    query: &Query,
    database: &Structure,
    backend: BackendChoice,
) -> Fingerprint {
    let mut h = FingerprintHasher::new(b"bagcq/job/count");
    let q = query.fingerprint();
    h.write_u64(q.hi);
    h.write_u64(q.lo);
    let d = database.fingerprint();
    h.write_u64(d.hi);
    h.write_u64(d.lo);
    // Stable tags, so MemoStore segments already on disk keep hitting.
    // Tags 2 and 3 belonged to two retired backends; never reuse them.
    h.write_u32(match backend {
        BackendChoice::Naive => 0,
        BackendChoice::Treewidth => 1,
        BackendChoice::Auto => 4,
    });
    h.finish()
}

fn power_query_fingerprint(pq: &PowerQuery) -> Fingerprint {
    let mut h = FingerprintHasher::new(b"bagcq/power-query");
    h.write_usize(pq.factors().len());
    for f in pq.factors() {
        let fp = f.base.fingerprint();
        h.write_u64(fp.hi);
        h.write_u64(fp.lo);
        write_nat(&mut h, &f.exponent);
    }
    h.finish()
}

fn write_nat(h: &mut FingerprintHasher, n: &Nat) {
    let limbs = n.limbs();
    h.write_usize(limbs.len());
    for &l in limbs {
        h.write_u64(l);
    }
}

/// A spec plus execution limits, ready to submit.
#[derive(Clone)]
pub struct Job {
    /// What to evaluate.
    pub spec: JobSpec,
    /// Wall-clock deadline, measured from submission. `None` = no limit.
    pub timeout: Option<Duration>,
    /// Cooperative step budget for the counting loops (`0` = unlimited).
    pub step_budget: u64,
}

impl Job {
    /// A job with no limits.
    pub fn new(spec: JobSpec) -> Self {
        Job { spec, timeout: None, step_budget: 0 }
    }

    /// A count job with the default backend ([`BackendChoice::Auto`]).
    pub fn count(query: Query, database: Arc<Structure>) -> Self {
        Job::new(JobSpec::Count { query, database, backend: BackendChoice::default() })
    }

    /// A count job with an explicit backend.
    pub fn count_with(backend: BackendChoice, query: Query, database: Arc<Structure>) -> Self {
        Job::new(JobSpec::Count { query, database, backend })
    }

    /// A symbolic power-query evaluation job.
    pub fn eval_power(query: PowerQuery, database: Arc<Structure>) -> Self {
        Job::new(JobSpec::EvalPower {
            query,
            database,
            exact_bits: bagcq_arith::DEFAULT_EXACT_BITS,
        })
    }

    /// A containment-check job from a full [`CheckSpec`] (build one with
    /// [`bagcq_containment::CheckRequest::into_spec`]).
    pub fn check(spec: CheckSpec) -> Self {
        Job::new(JobSpec::Check { spec })
    }

    /// Sets a wall-clock deadline (measured from submission).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets a cooperative step budget (`0` = unlimited).
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.step_budget = steps;
        self
    }
}

/// The result of a job.
///
/// `Clone` so one cached computation can be handed to many waiters;
/// verdicts travel behind an [`Arc`] because [`Verdict`] owns its
/// certificate/counterexample and is deliberately not `Clone`.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// `|Hom(ψ, D)|`.
    Count(Nat),
    /// `Φ(D)` as a certified magnitude.
    Power(Magnitude),
    /// A containment verdict.
    Verdict(Arc<Verdict>),
    /// The job hit its wall-clock deadline or exhausted its step budget
    /// before finishing. Never cached.
    TimedOut,
    /// The evaluation panicked, also after its hop to the naive engine
    /// (or a cross-validation mismatch was detected); the payload is the
    /// message. Never cached.
    Panicked(String),
    /// The engine's byte budget ([`crate::EngineConfig::memory_budget_bytes`])
    /// refused the evaluation's big-integer state, also after its hop to
    /// the naive engine. The request is too large for this engine as it
    /// is configured; nothing crashed. Never cached.
    MemoryBudgetExceeded,
    /// The job was shed without evaluating: the engine was draining, or
    /// the serving layer's tenant gate refused it. Never cached.
    Shed(ShedReason),
}

/// Why the serving layer shed a job (see [`Outcome::Shed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The engine is draining (or already drained): the job's caller was
    /// still waiting for an evaluation slot, or came later.
    Draining,
    /// The tenant's token-bucket quota was exhausted
    /// ([`crate::TenantGate`]); the serving layer maps this to HTTP 429.
    QuotaExceeded,
    /// The tenant hit its max-in-flight concurrency limit
    /// ([`crate::TenantGate`]); the serving layer maps this to HTTP 429.
    InFlightLimit,
    /// The tenant hit its per-tenant open-connection cap
    /// ([`crate::TenantGate::acquire_connection`]); the serving layer
    /// maps this to HTTP 429 and closes the connection.
    ConnectionLimit,
}

impl ShedReason {
    /// Stable lowercase label (metrics rendering, trace instants).
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::Draining => "draining",
            ShedReason::QuotaExceeded => "quota_exceeded",
            ShedReason::InFlightLimit => "in_flight_limit",
            ShedReason::ConnectionLimit => "connection_limit",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Outcome {
    /// The count, if this is a [`Outcome::Count`].
    pub fn as_count(&self) -> Option<&Nat> {
        match self {
            Outcome::Count(n) => Some(n),
            _ => None,
        }
    }

    /// The magnitude, if this is a [`Outcome::Power`].
    pub fn as_power(&self) -> Option<&Magnitude> {
        match self {
            Outcome::Power(m) => Some(m),
            _ => None,
        }
    }

    /// The verdict, if this is a [`Outcome::Verdict`].
    pub fn as_verdict(&self) -> Option<&Verdict> {
        match self {
            Outcome::Verdict(v) => Some(v),
            _ => None,
        }
    }

    /// The shed reason, if this is a [`Outcome::Shed`].
    pub fn as_shed(&self) -> Option<ShedReason> {
        match self {
            Outcome::Shed(reason) => Some(*reason),
            _ => None,
        }
    }

    /// `true` for [`Outcome::TimedOut`], [`Outcome::Panicked`],
    /// [`Outcome::MemoryBudgetExceeded`] and [`Outcome::Shed`] — the
    /// outcomes that are published to waiters but never cached.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Outcome::TimedOut
                | Outcome::Panicked(_)
                | Outcome::MemoryBudgetExceeded
                | Outcome::Shed(_)
        )
    }
}

/// The outcome of a job evaluated by [`crate::EvalEngine::submit`] or
/// [`crate::EvalEngine::submit_batch`]; both return only once the job is
/// resolved.
#[derive(Clone, Debug)]
pub struct JobHandle {
    pub(crate) outcome: Outcome,
}

impl JobHandle {
    /// The job's outcome. Never blocks: the job was evaluated before the
    /// handle was returned.
    pub fn wait(&self) -> Outcome {
        self.outcome.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_structure::{Schema, Vertex};

    fn setup() -> (Query, Arc<Structure>) {
        let mut sb = Schema::builder();
        let e = sb.relation("E", 2);
        let schema = sb.build();
        let mut d = Structure::new(Arc::clone(&schema));
        d.add_vertices(2);
        d.add_atom(e, &[Vertex(0), Vertex(1)]);
        let mut qb = Query::builder(schema);
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]);
        (qb.build(), Arc::new(d))
    }

    #[test]
    fn count_fingerprint_separates_backends() {
        let (q, d) = setup();
        let specs: Vec<JobSpec> = BackendChoice::ALL
            .iter()
            .map(|&b| JobSpec::Count { query: q.clone(), database: Arc::clone(&d), backend: b })
            .collect();
        for (i, a) in specs.iter().enumerate() {
            assert_eq!(a.fingerprint(), a.fingerprint());
            for b in specs.iter().skip(i + 1) {
                assert_ne!(a.fingerprint(), b.fingerprint());
            }
        }
    }

    /// MemoStore segments on disk are keyed by these fingerprints: a drift
    /// here orphans every persisted count.
    #[test]
    fn count_fingerprints_are_pinned() {
        let (q, d) = setup();
        let fp = |backend| {
            let spec = JobSpec::Count { query: q.clone(), database: Arc::clone(&d), backend };
            let f = spec.fingerprint();
            (f.hi, f.lo)
        };
        assert_eq!(fp(BackendChoice::Auto), (0x1b2fd3a53ae2670a, 0x6849eff84343f26f));
        assert_eq!(fp(BackendChoice::Naive), (0xd149ae016dedcb1a, 0xf7c83ec44f0cce61));
        assert_eq!(fp(BackendChoice::Treewidth), (0x3eaba781369ba993, 0x8017ec6dd4c25cc6));
    }

    #[test]
    fn spec_variants_never_collide() {
        let (q, d) = setup();
        let count = JobSpec::Count {
            query: q.clone(),
            database: Arc::clone(&d),
            backend: BackendChoice::Treewidth,
        };
        let power = JobSpec::EvalPower {
            query: PowerQuery::from_query(q.clone()),
            database: Arc::clone(&d),
            exact_bits: bagcq_arith::DEFAULT_EXACT_BITS,
        };
        let cont = JobSpec::Check { spec: CheckSpec::pair(q.clone(), q) };
        let fps = [count.fingerprint(), power.fingerprint(), cont.fingerprint()];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
    }

    #[test]
    fn check_fingerprint_separates_semantics_and_choice() {
        let (q, _) = setup();
        let base = CheckSpec::pair(q.clone(), q.clone());
        let mut set = base.clone();
        set.semantics = Semantics::Set;
        let mut pinned = base.clone();
        pinned.choice = ContainmentChoice::BagUcq;
        let fps = [
            JobSpec::Check { spec: base }.fingerprint(),
            JobSpec::Check { spec: set }.fingerprint(),
            JobSpec::Check { spec: pinned }.fingerprint(),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
    }

    #[test]
    fn power_fingerprint_tracks_exponent() {
        let (q, d) = setup();
        let p1 = JobSpec::EvalPower {
            query: PowerQuery::power(q.clone(), Nat::from_u64(2)),
            database: Arc::clone(&d),
            exact_bits: 256,
        };
        let p2 = JobSpec::EvalPower {
            query: PowerQuery::power(q, Nat::from_u64(3)),
            database: d,
            exact_bits: 256,
        };
        assert_ne!(p1.fingerprint(), p2.fingerprint());
    }

    #[test]
    fn shed_is_a_failure_with_a_stable_label() {
        let out = Outcome::Shed(ShedReason::Draining);
        assert!(out.is_failure());
        assert_eq!(out.as_shed(), Some(ShedReason::Draining));
        assert_eq!(out.as_count(), None);
        assert_eq!(ShedReason::Draining.to_string(), "draining");
        assert_eq!(ShedReason::QuotaExceeded.label(), "quota_exceeded");
        assert_eq!(ShedReason::InFlightLimit.label(), "in_flight_limit");
    }
}
