//! The containment API: a [`CheckRequest`] builder over four decision
//! procedures, mirroring the counting stack's `CountRequest`.
//!
//! Every check is a [`CheckRequest`] — a pair of [`UnionQuery`] sides, a
//! [`Semantics`], a procedure preference, a multiplier and a search
//! budget. [`CheckSpec::try_check_with_counter`] resolves the preference
//! to one of four procedures ([`ContainmentChoice`]) and calls it:
//!
//! * `BagSearch` — the `q·ϱ_s(D) ≤ ϱ_b(D)` harness for CQ pairs: sound
//!   certificates, verified counterexamples, honest Unknowns.
//! * `SetChandraMerlin` — the 1977 set-semantics criterion: `ψ_s ⊑set
//!   ψ_b` iff `ψ_b` maps homomorphically into the canonical structure of
//!   `ψ_s`. Decidable, so it never answers Unknown.
//! * `SetUcq` — the Sagiv–Yannakakis all/any reduction for unions:
//!   `U₁ ⊑set U₂` iff every disjunct of `U₁` is Chandra–Merlin-contained
//!   in *some* disjunct of `U₂`. Exact (the canonical structure of a
//!   failing disjunct is the witness). Decidable.
//! * `BagUcq` — refutation search for bag-union containment
//!   (`Σᵢ φᵢ(D) ≤ Σⱼ ψⱼ(D)`, the `QCP^bag_UCQ` problem Ioannidis–
//!   Ramakrishnan proved undecidable): a disjunct-matching
//!   onto-homomorphism certificate, canonical/structured/random
//!   counterexample candidates, honest Unknowns.
//!
//! Every procedure is *sound* in both directions: `Proved` only with a
//! certificate valid on all databases, `Refuted` only with a
//! counterexample the counts confirm. The bag procedures are incomplete —
//! for an open/undecidable problem `Unknown` is the honest third arm.
//!
//! The `BAGCQ_CONTAINMENT` environment variable (values `auto`,
//! `bag-search`, `set-chandra-merlin`, `set-ucq`, `bag-ucq`) overrides
//! what `Auto` resolves to — the CI containment matrix forces each
//! procedure through every `Auto` call site this way. The override only
//! redirects `Auto`, and only towards a procedure that actually supports
//! the request; explicitly pinned choices are never overridden, so
//! differential tests stay meaningful under the matrix.

use crate::chandra_merlin::{set_chandra_merlin, set_ucq};
use crate::checker::{bag_search, bag_ucq, SearchBudget, TryCountFn};
use crate::verdict::Verdict;
use bagcq_arith::Rat;
use bagcq_homcount::CountRequest;
use bagcq_query::{Query, UnionQuery};
use bagcq_structure::Structure;
use std::convert::Infallible;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// Which semantics a [`CheckRequest`] decides containment under.
///
/// Bag semantics compares homomorphism *counts* (`ϱ_s(D) ≤ ϱ_b(D)`);
/// set semantics compares mere *satisfaction* (`D ⊨ ϱ_s ⇒ D ⊨ ϱ_b`).
/// Bag containment implies set containment, never the reverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Semantics {
    /// Count-based containment — the paper's open/undecidable world.
    #[default]
    Bag,
    /// Satisfaction-based containment — the decidable 1977 world.
    Set,
}

impl Semantics {
    /// Stable lowercase label (also the wire and CLI syntax).
    pub fn label(self) -> &'static str {
        match self {
            Semantics::Bag => "bag",
            Semantics::Set => "set",
        }
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Semantics {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "bag" => Ok(Semantics::Bag),
            "set" => Ok(Semantics::Set),
            other => Err(format!("unknown semantics {other:?} (expected set|bag)")),
        }
    }
}

/// Which decision procedure a [`CheckRequest`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ContainmentChoice {
    /// Pick by `(semantics, query class)` — see [`CheckSpec::natural_choice`].
    /// The default, and the only choice `BAGCQ_CONTAINMENT` redirects.
    #[default]
    Auto,
    /// The bag-semantics certificate/refutation harness for CQ pairs.
    BagSearch,
    /// Chandra–Merlin set containment for pure CQ pairs.
    SetChandraMerlin,
    /// Sagiv–Yannakakis all/any set containment for pure UCQs.
    SetUcq,
    /// Bag-union refutation search with matching certificates.
    BagUcq,
}

impl ContainmentChoice {
    /// Every choice, `Auto` included (the CI containment matrix iterates
    /// this).
    pub const ALL: [ContainmentChoice; 5] = [
        ContainmentChoice::Auto,
        ContainmentChoice::BagSearch,
        ContainmentChoice::SetChandraMerlin,
        ContainmentChoice::SetUcq,
        ContainmentChoice::BagUcq,
    ];

    /// The four concrete registered backends (what `Auto` resolves into).
    pub const REGISTERED: [ContainmentChoice; 4] = [
        ContainmentChoice::BagSearch,
        ContainmentChoice::SetChandraMerlin,
        ContainmentChoice::SetUcq,
        ContainmentChoice::BagUcq,
    ];

    /// Stable lowercase label (also the `BAGCQ_CONTAINMENT`, wire and
    /// CLI syntax).
    pub fn label(self) -> &'static str {
        match self {
            ContainmentChoice::Auto => "auto",
            ContainmentChoice::BagSearch => "bag-search",
            ContainmentChoice::SetChandraMerlin => "set-chandra-merlin",
            ContainmentChoice::SetUcq => "set-ucq",
            ContainmentChoice::BagUcq => "bag-ucq",
        }
    }

    /// Resolves `Auto` to a concrete backend for this spec; concrete
    /// choices return themselves unchanged.
    ///
    /// `Auto` lands on the spec's [natural choice](CheckSpec::natural_choice)
    /// unless `BAGCQ_CONTAINMENT` forces a backend that supports the
    /// spec — a forced backend that *cannot* handle it (wrong semantics,
    /// impure queries, real unions for a pair-only backend) is ignored so
    /// matrix runs never break workloads outside a backend's fragment.
    pub fn resolve(self, spec: &CheckSpec) -> ContainmentChoice {
        self.resolve_with(spec, containment_override())
    }

    fn resolve_with(
        self,
        spec: &CheckSpec,
        forced: Option<ContainmentChoice>,
    ) -> ContainmentChoice {
        if self != ContainmentChoice::Auto {
            return self;
        }
        match forced {
            Some(f) if f != ContainmentChoice::Auto && supports(f, spec).is_ok() => f,
            _ => spec.natural_choice(),
        }
    }
}

impl fmt::Display for ContainmentChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ContainmentChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "auto" => Ok(ContainmentChoice::Auto),
            "bag-search" | "bagsearch" | "search" => Ok(ContainmentChoice::BagSearch),
            "set-chandra-merlin" | "set-cm" | "chandra-merlin" | "cm" => {
                Ok(ContainmentChoice::SetChandraMerlin)
            }
            "set-ucq" | "setucq" => Ok(ContainmentChoice::SetUcq),
            "bag-ucq" | "bagucq" => Ok(ContainmentChoice::BagUcq),
            other => Err(format!(
                "unknown containment backend {other:?} \
                 (expected auto|bag-search|set-chandra-merlin|set-ucq|bag-ucq)"
            )),
        }
    }
}

/// `BAGCQ_CONTAINMENT` override for `Auto` resolution, parsed once per
/// process.
fn containment_override() -> Option<ContainmentChoice> {
    static OVERRIDE: OnceLock<Option<ContainmentChoice>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("BAGCQ_CONTAINMENT") {
        Ok(raw) => match raw.parse::<ContainmentChoice>() {
            Ok(choice) => Some(choice),
            Err(e) => {
                eprintln!("warning: ignoring BAGCQ_CONTAINMENT: {e}");
                None
            }
        },
        Err(_) => None,
    })
}

/// A containment request a backend refused: the spec lies outside the
/// backend's supported `(semantics, query class)` fragment.
///
/// This is a *request* error, not a search failure — the serve layer
/// maps it to a typed 400 (`unsupported_semantics`), never a 500.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported {
    /// The backend that refused.
    pub backend: ContainmentChoice,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend {} cannot handle this request: {}", self.backend, self.reason)
    }
}

impl std::error::Error for Unsupported {}

/// Failure of a [`CheckRequest`] run with a fallible counter.
#[derive(Debug)]
pub enum CheckError<E> {
    /// The resolved backend cannot handle the request.
    Unsupported(Unsupported),
    /// The counter aborted the search with its own error.
    Counter(E),
}

impl<E: fmt::Display> fmt::Display for CheckError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Unsupported(u) => u.fmt(f),
            CheckError::Counter(e) => write!(f, "counter aborted: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for CheckError<E> {}

/// A fully-specified containment question: which unions, under which
/// semantics, decided by which backend, scaled by which multiplier,
/// searched under which budget.
///
/// This is the owned, engine-friendly form — `bagcq-engine` fingerprints
/// and caches it, `bagcq-serve` parses wire frames into it. Interactive
/// callers usually go through the [`CheckRequest`] builder instead.
#[derive(Clone, Debug)]
pub struct CheckSpec {
    /// The contained ("small") side.
    pub q_s: UnionQuery,
    /// The containing ("big") side.
    pub q_b: UnionQuery,
    /// Set or bag semantics.
    pub semantics: Semantics,
    /// Backend preference ([`ContainmentChoice::Auto`] picks by class).
    pub choice: ContainmentChoice,
    /// The multiplier `q` in `q·ϱ_s(D) ≤ ϱ_b(D)` (1 for plain
    /// containment; must be 1 under set semantics).
    pub multiplier: Rat,
    /// Search budget for the refutation phases.
    pub budget: SearchBudget,
}

impl CheckSpec {
    /// A bag-semantics CQ-pair spec with default budget and `Auto`
    /// backend.
    pub fn pair(q_s: Query, q_b: Query) -> Self {
        Self::union(UnionQuery::from_query(q_s), UnionQuery::from_query(q_b))
    }

    /// A bag-semantics UCQ spec with default budget and `Auto` backend.
    pub fn union(q_s: UnionQuery, q_b: UnionQuery) -> Self {
        CheckSpec {
            q_s,
            q_b,
            semantics: Semantics::Bag,
            choice: ContainmentChoice::Auto,
            multiplier: Rat::one(),
            budget: SearchBudget::default(),
        }
    }

    /// `true` when both sides are single-disjunct unions (plain CQs).
    pub fn is_cq_pair(&self) -> bool {
        self.q_s.len() == 1 && self.q_b.len() == 1
    }

    /// The CQ pair, when both sides are single disjuncts.
    pub fn cq_pair(&self) -> Option<(&Query, &Query)> {
        match (self.q_s.disjuncts(), self.q_b.disjuncts()) {
            ([s], [b]) => Some((s, b)),
            _ => None,
        }
    }

    /// The backend `Auto` picks absent any override: by `(semantics,
    /// query class)` — CQ pairs go to the dedicated pair backends, real
    /// unions to the UCQ backends.
    pub fn natural_choice(&self) -> ContainmentChoice {
        match (self.semantics, self.is_cq_pair()) {
            (Semantics::Bag, true) => ContainmentChoice::BagSearch,
            (Semantics::Bag, false) => ContainmentChoice::BagUcq,
            (Semantics::Set, true) => ContainmentChoice::SetChandraMerlin,
            (Semantics::Set, false) => ContainmentChoice::SetUcq,
        }
    }

    /// The concrete backend this spec will run (resolves `Auto`,
    /// consulting `BAGCQ_CONTAINMENT`) — diagnostics, cache keys, wire
    /// echoes.
    pub fn resolved_choice(&self) -> ContainmentChoice {
        self.choice.resolve(self)
    }

    /// Resolves the backend and verifies it supports this spec — the
    /// serve layer's typed-400 gate.
    pub fn validate(&self) -> Result<ContainmentChoice, Unsupported> {
        let choice = self.resolved_choice();
        supports(choice, self)?;
        Ok(choice)
    }

    /// Runs the resolved procedure with an injected *fallible* counter.
    ///
    /// The resilient-evaluation entry point (the engine routes counts
    /// through its memo cache and cross-validator this way): the
    /// procedures count every candidate database through `counter`, and
    /// the first `Err` it returns aborts the whole check and comes back
    /// verbatim as [`CheckError::Counter`].
    pub fn try_check_with_counter<E>(
        &self,
        counter: &TryCountFn<'_, E>,
    ) -> Result<Verdict, CheckError<E>> {
        let choice = self.validate().map_err(CheckError::Unsupported)?;
        let _span = bagcq_obs::span("containment.backend", choice.label());
        let (u_s, u_b) = (self.q_s.disjuncts(), self.q_b.disjuncts());
        let (multiplier, budget) = (&self.multiplier, &self.budget);
        match choice {
            ContainmentChoice::BagSearch => {
                bag_search(&u_s[0], &u_b[0], multiplier, budget, counter)
            }
            ContainmentChoice::SetChandraMerlin => set_chandra_merlin(&u_s[0], &u_b[0], counter),
            ContainmentChoice::SetUcq => set_ucq(u_s, u_b, counter),
            ContainmentChoice::BagUcq => bag_ucq(u_s, u_b, multiplier, budget, counter),
            ContainmentChoice::Auto => unreachable!("validate() resolves Auto"),
        }
        .map_err(CheckError::Counter)
    }
}

/// Checks that the concrete procedure `choice` decides `spec`'s
/// `(semantics, query class)` fragment.
fn supports(choice: ContainmentChoice, spec: &CheckSpec) -> Result<(), Unsupported> {
    let refuse = |reason: String| Err(Unsupported { backend: choice, reason });
    // The semantics each procedure decides and, for the two that take CQ
    // pairs only, the union procedure to use instead.
    let (semantics, for_unions) = match choice {
        ContainmentChoice::BagSearch => (Semantics::Bag, Some(ContainmentChoice::BagUcq)),
        ContainmentChoice::BagUcq => (Semantics::Bag, None),
        ContainmentChoice::SetChandraMerlin => (Semantics::Set, Some(ContainmentChoice::SetUcq)),
        ContainmentChoice::SetUcq => (Semantics::Set, None),
        ContainmentChoice::Auto => unreachable!("Auto is resolved before support checks"),
    };
    if spec.semantics != semantics {
        return refuse(format!("decides {semantics} semantics, request says {}", spec.semantics));
    }
    if semantics == Semantics::Set {
        if !spec.q_s.is_pure() || !spec.q_b.is_pure() {
            return refuse("Chandra-Merlin applies to pure CQs only (inequalities present)".into());
        }
        if !spec.multiplier.is_one() {
            return refuse("set semantics is boolean; the multiplier must be 1".into());
        }
    }
    match for_unions {
        Some(instead) if !spec.is_cq_pair() => refuse(format!(
            "decides CQ pairs only; request has {}∨{} disjuncts (use {instead})",
            spec.q_s.len(),
            spec.q_b.len()
        )),
        _ => Ok(()),
    }
}

/// One containment check, built up fluently: the two sides plus
/// semantics, backend preference, multiplier and budget.
///
/// ```
/// use bagcq_containment::{Certificate, CheckRequest, ContainmentChoice, Semantics, Verdict};
/// use bagcq_query::{cycle_query, path_query};
/// use bagcq_structure::SchemaBuilder;
///
/// let mut b = SchemaBuilder::default();
/// b.relation("E", 2);
/// let schema = b.build();
/// let c3 = cycle_query(&schema, "E", 3);
/// let p2 = path_query(&schema, "E", 2);
/// // Set semantics: a 3-cycle has 2-paths, so C3 ⊑set P2.
/// let v = CheckRequest::new(&c3, &p2).semantics(Semantics::Set).check().unwrap();
/// assert!(v.is_proved());
/// // Bag semantics: P2 maps onto C3, so by Lemma 12 every database has at
/// // least as many 2-paths as 3-cycle homomorphisms.
/// let v = CheckRequest::new(&c3, &p2)
///     .containment(ContainmentChoice::BagSearch)
///     .check()
///     .unwrap();
/// assert!(matches!(v, Verdict::Proved(Certificate::OntoHom(_))), "{v}");
/// ```
#[derive(Clone, Debug)]
pub struct CheckRequest {
    spec: CheckSpec,
}

impl CheckRequest {
    /// A bag-semantics CQ-pair request with the default backend
    /// ([`ContainmentChoice::Auto`]) and budget.
    pub fn new(q_s: &Query, q_b: &Query) -> Self {
        CheckRequest { spec: CheckSpec::pair(q_s.clone(), q_b.clone()) }
    }

    /// A request over unions of CQs (either side may be a single
    /// disjunct).
    pub fn union(q_s: UnionQuery, q_b: UnionQuery) -> Self {
        CheckRequest { spec: CheckSpec::union(q_s, q_b) }
    }

    /// Sets the semantics (default [`Semantics::Bag`]).
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.spec.semantics = semantics;
        self
    }

    /// Sets the backend preference (default [`ContainmentChoice::Auto`]).
    pub fn containment(mut self, choice: ContainmentChoice) -> Self {
        self.spec.choice = choice;
        self
    }

    /// Sets the multiplier `q` in `q·ϱ_s(D) ≤ ϱ_b(D)`.
    ///
    /// # Panics
    ///
    /// On a zero multiplier.
    pub fn multiplier(mut self, multiplier: Rat) -> Self {
        assert!(!multiplier.is_zero(), "multiplier must be positive");
        self.spec.multiplier = multiplier;
        self
    }

    /// Sets the refutation search budget.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.spec.budget = budget;
        self
    }

    /// The underlying spec (what the engine fingerprints and caches).
    pub fn spec(&self) -> &CheckSpec {
        &self.spec
    }

    /// Consumes the builder into its spec — how requests are handed to
    /// `bagcq-engine` jobs.
    pub fn into_spec(self) -> CheckSpec {
        self.spec
    }

    /// The concrete backend this request will run (resolves `Auto`,
    /// consulting `BAGCQ_CONTAINMENT`).
    pub fn resolved_choice(&self) -> ContainmentChoice {
        self.spec.resolved_choice()
    }

    /// Resolves and verifies backend support without running anything.
    pub fn validate(&self) -> Result<ContainmentChoice, Unsupported> {
        self.spec.validate()
    }

    /// Runs the check, counting with the default counting backend.
    pub fn check(&self) -> Result<Verdict, Unsupported> {
        let counter =
            |q: &Query, d: &Structure| Ok::<_, Infallible>(CountRequest::new(q, d).count());
        self.spec.try_check_with_counter(&counter).map_err(|e| match e {
            CheckError::Unsupported(u) => u,
            CheckError::Counter(never) => match never {},
        })
    }

    /// Runs the check with an injected fallible counter (see
    /// [`CheckSpec::try_check_with_counter`]).
    pub fn try_check_with_counter<E>(
        &self,
        counter: &TryCountFn<'_, E>,
    ) -> Result<Verdict, CheckError<E>> {
        self.spec.try_check_with_counter(counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chandra_merlin::set_contained;
    use crate::verdict::{Certificate, Provenance};
    use bagcq_arith::Nat;
    use bagcq_query::{cycle_query, path_query};
    use bagcq_structure::SchemaBuilder;
    use std::sync::Arc;

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    #[test]
    fn labels_round_trip() {
        for choice in ContainmentChoice::ALL {
            assert_eq!(choice.label().parse::<ContainmentChoice>(), Ok(choice));
        }
        assert!("nonsense".parse::<ContainmentChoice>().is_err());
        assert_eq!("set-cm".parse::<ContainmentChoice>(), Ok(ContainmentChoice::SetChandraMerlin));
        assert_eq!("bag_ucq".parse::<ContainmentChoice>(), Ok(ContainmentChoice::BagUcq));
        for s in [Semantics::Bag, Semantics::Set] {
            assert_eq!(s.label().parse::<Semantics>(), Ok(s));
        }
        assert!("multiset".parse::<Semantics>().is_err());
    }

    #[test]
    fn auto_resolves_by_class() {
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let pair = CheckSpec::pair(p1.clone(), p2.clone());
        assert_eq!(pair.natural_choice(), ContainmentChoice::BagSearch);
        let mut set_pair = pair.clone();
        set_pair.semantics = Semantics::Set;
        assert_eq!(set_pair.natural_choice(), ContainmentChoice::SetChandraMerlin);
        let union = CheckSpec::union(
            UnionQuery::new(vec![p1.clone(), p2.clone()]),
            UnionQuery::from_query(p2.clone()),
        );
        assert_eq!(union.natural_choice(), ContainmentChoice::BagUcq);
        let mut set_union = union.clone();
        set_union.semantics = Semantics::Set;
        assert_eq!(set_union.natural_choice(), ContainmentChoice::SetUcq);
    }

    #[test]
    fn override_redirects_auto_only_when_supported() {
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let pair = CheckSpec::pair(p1.clone(), p2.clone());
        // A supported forced backend wins over the natural choice.
        assert_eq!(
            ContainmentChoice::Auto.resolve_with(&pair, Some(ContainmentChoice::BagUcq)),
            ContainmentChoice::BagUcq
        );
        // A forced backend with the wrong semantics is ignored.
        assert_eq!(
            ContainmentChoice::Auto.resolve_with(&pair, Some(ContainmentChoice::SetUcq)),
            ContainmentChoice::BagSearch
        );
        // Pinned choices are never overridden.
        assert_eq!(
            ContainmentChoice::BagSearch.resolve_with(&pair, Some(ContainmentChoice::BagUcq)),
            ContainmentChoice::BagSearch
        );
    }

    #[test]
    fn set_chandra_merlin_decides_both_ways() {
        let s = digraph();
        let p3 = path_query(&s, "E", 3);
        let p2 = path_query(&s, "E", 2);
        // Pinned: the test is about this backend's certificates, and a
        // BAGCQ_CONTAINMENT matrix run must not redirect it to set-ucq.
        let v = CheckRequest::new(&p3, &p2)
            .semantics(Semantics::Set)
            .containment(ContainmentChoice::SetChandraMerlin)
            .check()
            .unwrap();
        assert!(matches!(v, Verdict::Proved(Certificate::SetHomomorphism)), "{v}");
        let v = CheckRequest::new(&p2, &p3)
            .semantics(Semantics::Set)
            .containment(ContainmentChoice::SetChandraMerlin)
            .check()
            .unwrap();
        match v {
            Verdict::Refuted(ce) => {
                assert_eq!(ce.provenance, Provenance::CanonicalStructure);
                assert!(ce.count_b.is_zero());
                assert!(!ce.count_s.is_zero());
            }
            other => panic!("expected refutation, got {other}"),
        }
    }

    #[test]
    fn set_cm_agrees_with_set_contained() {
        let s = digraph();
        let queries = [
            path_query(&s, "E", 1),
            path_query(&s, "E", 2),
            path_query(&s, "E", 4),
            cycle_query(&s, "E", 3),
            cycle_query(&s, "E", 4),
        ];
        for a in &queries {
            for b in &queries {
                let v = CheckRequest::new(a, b).semantics(Semantics::Set).check().unwrap();
                assert_eq!(v.is_proved(), set_contained(a, b), "{a} vs {b}");
                assert!(v.is_proved() || v.is_refuted(), "set backends never answer Unknown");
            }
        }
    }

    #[test]
    fn set_ucq_all_any() {
        let s = digraph();
        let p2 = path_query(&s, "E", 2);
        let p3 = path_query(&s, "E", 3);
        let c3 = cycle_query(&s, "E", 3);
        // {P3, C3} ⊑set {P2}: both disjuncts contain a 2-path.
        let u1 = UnionQuery::new(vec![p3.clone(), c3.clone()]);
        let u2 = UnionQuery::from_query(p2.clone());
        let v =
            CheckRequest::union(u1.clone(), u2.clone()).semantics(Semantics::Set).check().unwrap();
        match v {
            Verdict::Proved(Certificate::SetAllAny(pairs)) => assert_eq!(pairs, vec![0, 0]),
            other => panic!("expected all/any certificate, got {other}"),
        }
        // {P2} ⋢set {P3, C3}: canonical(P2) has no 3-path and no 3-cycle.
        let v = CheckRequest::union(u2, u1).semantics(Semantics::Set).check().unwrap();
        match v {
            Verdict::Refuted(ce) => assert_eq!(ce.provenance, Provenance::CanonicalStructure),
            other => panic!("expected refutation, got {other}"),
        }
    }

    #[test]
    fn set_ucq_empty_unions() {
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        // ⊥ ⊑set anything.
        let v = CheckRequest::union(UnionQuery::empty(), UnionQuery::from_query(p1.clone()))
            .semantics(Semantics::Set)
            .check()
            .unwrap();
        assert!(v.is_proved(), "{v}");
        // A satisfiable union is not contained in ⊥.
        let v = CheckRequest::union(UnionQuery::from_query(p1), UnionQuery::empty())
            .semantics(Semantics::Set)
            .check()
            .unwrap();
        assert!(v.is_refuted(), "{v}");
    }

    #[test]
    fn bag_ucq_matching_certificate() {
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        // {P1, P2} ⊑bag {P1, P2, C3}: identity onto-homs match each
        // disjunct to its twin.
        let u1 = UnionQuery::new(vec![p1.clone(), p2.clone()]);
        let u2 = UnionQuery::new(vec![p1.clone(), p2.clone(), cycle_query(&s, "E", 3)]);
        let v = CheckRequest::union(u1, u2).check().unwrap();
        match v {
            Verdict::Proved(Certificate::DisjunctMatching(m)) => assert_eq!(m, vec![0, 1]),
            other => panic!("expected matching certificate, got {other}"),
        }
    }

    #[test]
    fn bag_ucq_matching_needs_distinct_disjuncts() {
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        // {P1, P1} ⋢bag {P1}: on a single edge, 2 > 1. The matching
        // cannot reuse the lone b-disjunct, and the canonical candidate
        // refutes.
        let u1 = UnionQuery::new(vec![p1.clone(), p1.clone()]);
        let u2 = UnionQuery::from_query(p1.clone());
        let v = CheckRequest::union(u1, u2).check().unwrap();
        match v {
            Verdict::Refuted(ce) => {
                assert_eq!(ce.count_s, Nat::from_u64(2));
                assert_eq!(ce.count_b, Nat::one());
            }
            other => panic!("expected refutation, got {other}"),
        }
    }

    #[test]
    fn bag_ucq_set_failure_refutes() {
        let s = digraph();
        let p2 = path_query(&s, "E", 2);
        let c3 = cycle_query(&s, "E", 3);
        // {P2} ⋢ {C3} already under set semantics; canonical(P2) refutes.
        let u1 = UnionQuery::from_query(p2);
        let u2 = UnionQuery::from_query(c3);
        let v = CheckRequest::union(u1, u2).check().unwrap();
        match v {
            Verdict::Refuted(ce) => assert_eq!(ce.provenance, Provenance::CanonicalStructure),
            other => panic!("expected refutation, got {other}"),
        }
    }

    #[test]
    fn bag_ucq_empty_small_side_proved() {
        let s = digraph();
        let v = CheckRequest::union(
            UnionQuery::empty(),
            UnionQuery::from_query(path_query(&s, "E", 1)),
        )
        .check()
        .unwrap();
        assert!(v.is_proved(), "{v}");
    }

    #[test]
    fn semantics_mismatch_is_typed() {
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let err = CheckRequest::new(&p1, &p2)
            .containment(ContainmentChoice::SetChandraMerlin)
            .check()
            .unwrap_err();
        assert_eq!(err.backend, ContainmentChoice::SetChandraMerlin);
        assert!(err.reason.contains("set semantics"), "{err}");
        let err = CheckRequest::new(&p1, &p2)
            .semantics(Semantics::Set)
            .containment(ContainmentChoice::BagSearch)
            .check()
            .unwrap_err();
        assert_eq!(err.backend, ContainmentChoice::BagSearch);
    }

    #[test]
    fn set_semantics_rejects_inequalities() {
        let s = digraph();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        let q = qb.build();
        let err = CheckRequest::new(&q, &q).semantics(Semantics::Set).check().unwrap_err();
        assert!(err.reason.contains("pure"), "{err}");
    }

    #[test]
    fn counter_error_resurfaces_typed() {
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let err = CheckRequest::new(&p2, &p1)
            .semantics(Semantics::Set)
            .try_check_with_counter::<&'static str>(&|_, _| Err("counter down"))
            .unwrap_err();
        match err {
            CheckError::Counter(e) => assert_eq!(e, "counter down"),
            other => panic!("expected counter error, got {other}"),
        }
    }

    #[test]
    fn bag_containment_implies_set_containment_on_samples() {
        let s = digraph();
        let queries = [
            path_query(&s, "E", 1),
            path_query(&s, "E", 2),
            path_query(&s, "E", 3),
            cycle_query(&s, "E", 3),
        ];
        for a in &queries {
            for b in &queries {
                let bag = CheckRequest::new(a, b).check().unwrap();
                let set = CheckRequest::new(a, b).semantics(Semantics::Set).check().unwrap();
                if bag.is_proved() {
                    assert!(set.is_proved(), "bag ⊑ implies set ⊑ for {a} vs {b}");
                }
                if set.is_refuted() {
                    assert!(bag.is_refuted(), "set ⋢ implies bag ⋢ for {a} vs {b}");
                }
            }
        }
    }
}
