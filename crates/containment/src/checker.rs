//! The two bag-semantics procedures: sound certificates, verified
//! counterexamples, honest Unknowns.
//!
//! The general question `q·ϱ_s(D) ≤ ϱ_b(D)` for all `D` subsumes plain
//! bag containment (`q = 1`, Chaudhuri–Vardi's open problem), Theorem 1's
//! `ℂ·φ_s ≤ φ_b`, and Definition 3's multiplication checks. For CQ pairs
//! the harness ([`bag_search`]):
//!
//! 1. tries **certificates**: syntactic identity, then the Lemma 12
//!    onto-homomorphism (sound whenever the multiplier is ≤ 1 and the
//!    b-query is a pure CQ);
//! 2. tries **refuters**: the Chandra–Merlin canonical-structure test
//!    (a set-semantics failure is already a bag counterexample), a family
//!    of structured candidates (canonical structures, blow-ups, products,
//!    unions — the operations of Lemma 22 that the paper itself uses to
//!    build counterexamples), Theorem 5 inequality-elimination
//!    preprocessing, and seeded random search;
//! 3. otherwise returns [`Verdict::Unknown`] with the number of databases
//!    examined — for an open/undecidable problem this third arm is load-
//!    bearing, not an apology.
//!
//! Unions ([`bag_ucq`]) swap the onto-homomorphism for a disjunct
//! matching and sweep the small side's canonical structures first. Both
//! procedures share one candidate check and one random-search loop: a CQ
//! pair is a one-disjunct union.
//!
//! The procedures take their disjuncts as [`PreparedQuery`]s, prepared
//! once per check, and count through a [`PreparedCountFn`]: every
//! candidate database is counted against the same component splits and
//! decompositions.
//!
//! Candidates are built on demand, in a fixed order: a blow-up, square or
//! union is constructed only when the search reaches it, so a check that
//! refutes early never builds the rest, and the union procedure builds
//! its b-side bases only after the s-side canonical structures failed to
//! refute.

use crate::chandra_merlin::canonical_refutation;
use crate::verdict::{Certificate, Counterexample, Provenance, Verdict};
use bagcq_arith::{Nat, Rat};
use bagcq_homcount::{find_onto_hom, PreparedQuery};
use bagcq_query::Query;
use bagcq_reduction::{eliminate_inequalities, EliminationError};
use bagcq_structure::{Structure, StructureGen};
use std::borrow::Cow;
use std::slice;

/// Signature of the injectable *fallible* counting function every
/// procedure counts through (see
/// [`CheckSpec::try_check_prepared`](crate::CheckSpec::try_check_prepared)).
/// It is handed each disjunct prepared once per check, and must be
/// extensionally equal to [`bagcq_homcount::CountRequest::count`] —
/// verdicts are only as sound as the counts. The error type is the
/// caller's: the procedures never inspect it, they only abort and hand it
/// back.
pub type PreparedCountFn<'a, E> = dyn Fn(&PreparedQuery<'_>, &Structure) -> Result<Nat, E> + 'a;

/// A counting function over plain queries (see
/// [`CheckSpec::try_check_with_counter`](crate::CheckSpec::try_check_with_counter)),
/// which adapts it to a [`PreparedCountFn`] by handing it each prepared
/// disjunct's query.
pub type TryCountFn<'a, E> = dyn Fn(&Query, &Structure) -> Result<Nat, E> + 'a;

/// Search budget for the refutation phase.
#[derive(Clone, Debug)]
pub struct SearchBudget {
    /// Random structures to sample per density configuration.
    pub random_rounds: u64,
    /// Blow-up factors applied to structured candidates.
    pub max_blowup: u32,
    /// Power cap for the Theorem 5 elimination.
    pub max_power: u32,
    /// RNG seed base.
    pub seed: u64,
    /// Vertex budget for random structures.
    pub random_vertices: u32,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            random_rounds: 60,
            max_blowup: 3,
            max_power: 6,
            seed: 0xBA6C0DE,
            random_vertices: 4,
        }
    }
}

/// `ΣU(d)`, one count per disjunct, in order.
pub(crate) fn union_count<E>(
    u: &[PreparedQuery<'_>],
    d: &Structure,
    counter: &PreparedCountFn<'_, E>,
) -> Result<Nat, E> {
    let mut total = Nat::zero();
    for q in u {
        total += &counter(q, d)?;
    }
    Ok(total)
}

/// The bag harness for one CQ pair: `multiplier·ϱ_s(D) ≤ ϱ_b(D)`.
pub(crate) fn bag_search<E>(
    p_s: &PreparedQuery<'_>,
    p_b: &PreparedQuery<'_>,
    multiplier: &Rat,
    budget: &SearchBudget,
    counter: &PreparedCountFn<'_, E>,
) -> Result<Verdict, E> {
    let _span = bagcq_obs::span("containment.check", "pipeline");
    let (q_s, q_b) = (p_s.query(), p_b.query());
    let one_or_less = *multiplier <= Rat::one();

    // --- Certificates ---
    if one_or_less && q_s == q_b {
        return Ok(Verdict::Proved(Certificate::Identical));
    }
    if one_or_less && q_b.is_pure() {
        if let Some(h) = find_onto_hom(q_b, q_s) {
            return Ok(Verdict::Proved(Certificate::OntoHom(h)));
        }
    }

    // --- Refuters ---
    // Chandra–Merlin: a set-semantics failure gives an immediate bag
    // counterexample (requires pure queries).
    if q_s.is_pure() && q_b.is_pure() {
        if let Some(ce) = canonical_refutation(p_s, p_b, counter)? {
            return Ok(Verdict::Refuted(ce));
        }
    }

    let mut search = Search::new(slice::from_ref(p_s), slice::from_ref(p_b), multiplier, budget);
    let (cs, _) = q_s.canonical_structure();
    let (cb, _) = q_b.canonical_structure();
    let both = cs.union(&cb);
    let structured = [cs, cb, both].into_iter().flat_map(|base| blowups(base, budget.max_blowup));
    if let Some(v) =
        search.first(structured.map(Cow::Owned), Provenance::StructuredCandidate, counter)?
    {
        return Ok(v);
    }

    // Theorem 5 preprocessing: inequalities only in the s-query.
    if !q_s.is_pure() && q_b.is_pure() && multiplier.is_one() {
        let stripped = q_s.strip_inequalities();
        let stripped = PreparedQuery::new(&stripped);
        if let Verdict::Refuted(ce) = bag_search(&stripped, p_b, multiplier, budget, counter)? {
            search.checked += 1;
            // The lift's four counts prepare their queries on the spot.
            let count = |q: &Query, d: &Structure| counter(&PreparedQuery::new(q), d);
            match eliminate_inequalities(q_s, q_b, &ce.database, budget.max_power, &count)? {
                Ok(elim) => {
                    return Ok(Verdict::Refuted(Counterexample {
                        count_s: elim.count_s,
                        count_b: elim.count_b,
                        database: elim.witness,
                        provenance: Provenance::InequalityElimination,
                    }));
                }
                Err(EliminationError::SeedNotStrict)
                | Err(EliminationError::PowerTooLarge { .. }) => {}
                Err(e) => panic!("unexpected elimination failure: {e:?}"),
            }
        }
    }

    search.random(counter)
}

/// The bag harness for unions: `multiplier·ΣU_s(D) ≤ ΣU_b(D)`.
pub(crate) fn bag_ucq<E>(
    u_s: &[PreparedQuery<'_>],
    u_b: &[PreparedQuery<'_>],
    multiplier: &Rat,
    budget: &SearchBudget,
    counter: &PreparedCountFn<'_, E>,
) -> Result<Verdict, E> {
    let _span = bagcq_obs::span("containment.check", "bag-ucq");

    // --- Certificates ---
    if u_s.is_empty() {
        // The empty union evaluates to 0 everywhere: q·0 ≤ anything.
        return Ok(Verdict::Proved(Certificate::DisjunctMatching(Vec::new())));
    }
    let one_or_less = *multiplier <= Rat::one();
    if one_or_less && u_s.iter().map(PreparedQuery::query).eq(u_b.iter().map(PreparedQuery::query))
    {
        return Ok(Verdict::Proved(Certificate::Identical));
    }
    if one_or_less {
        if let Some(matching) = match_disjuncts(u_s, u_b) {
            return Ok(Verdict::Proved(Certificate::DisjunctMatching(matching)));
        }
    }

    // --- Refuters ---
    // The Lemma 22-flavoured family over all disjuncts: the s-side
    // canonical structures first (they realize any set-level failure),
    // then the b-side's and the union of all of them, each with its
    // blow-ups and square, then the s-side's blow-ups.
    let canonical_s: Vec<Structure> =
        u_s.iter().map(|p| p.query().canonical_structure().0).collect();
    let mut search = Search::new(u_s, u_b, multiplier, budget);
    let canonical = canonical_s.iter().map(Cow::Borrowed);
    if let Some(v) = search.first(canonical, Provenance::CanonicalStructure, counter)? {
        return Ok(v);
    }
    let canonical_b: Vec<Structure> =
        u_b.iter().map(|q| q.query().canonical_structure().0).collect();
    let union_all = canonical_s.iter().chain(&canonical_b).cloned().reduce(|u, c| u.union(&c));
    let max_blowup = budget.max_blowup;
    let structured = canonical_b
        .into_iter()
        .chain(union_all)
        .flat_map(|base| blowups(base, max_blowup))
        .chain(canonical_s.iter().flat_map(|base| (2..=max_blowup).map(|k| base.blowup(k))));
    if let Some(v) =
        search.first(structured.map(Cow::Owned), Provenance::StructuredCandidate, counter)?
    {
        return Ok(v);
    }
    search.random(counter)
}

/// `base`'s blow-ups `2..=max_blowup`, then its square when it has at
/// most 8 vertices, then `base` itself, each built when the search asks
/// for it.
fn blowups(base: Structure, max_blowup: u32) -> impl Iterator<Item = Structure> {
    let square = base.vertex_count() <= 8;
    // The blow-up factor of each candidate before the base; `None` is the
    // square.
    let mut factors = (2..=max_blowup).map(Some).chain(square.then_some(None));
    let mut base = Some(base);
    std::iter::from_fn(move || {
        let b = base.as_ref()?;
        match factors.next() {
            Some(Some(k)) => Some(b.blowup(k)),
            Some(None) => Some(b.product(b)),
            None => base.take(),
        }
    })
}

/// The refutation phases of one bag question `multiplier·ΣU_s(D) ≤
/// ΣU_b(D)`, counting the candidate databases they examine.
struct Search<'a> {
    u_s: &'a [PreparedQuery<'a>],
    u_b: &'a [PreparedQuery<'a>],
    /// `1/multiplier`: `q·s ≤ b  ⇔  s ≤ (1/q)·b`.
    recip: Rat,
    budget: &'a SearchBudget,
    checked: usize,
}

impl<'a> Search<'a> {
    fn new(
        u_s: &'a [PreparedQuery<'a>],
        u_b: &'a [PreparedQuery<'a>],
        multiplier: &Rat,
        budget: &'a SearchBudget,
    ) -> Self {
        Search { u_s, u_b, recip: multiplier.recip(), budget, checked: 0 }
    }

    /// The first candidate violating `multiplier·ΣU_s(d) ≤ ΣU_b(d)`, as a
    /// refutation that owns its database.
    fn first<'d, E>(
        &mut self,
        candidates: impl IntoIterator<Item = Cow<'d, Structure>>,
        provenance: Provenance,
        counter: &PreparedCountFn<'_, E>,
    ) -> Result<Option<Verdict>, E> {
        for database in candidates {
            self.checked += 1;
            let count_s = union_count(self.u_s, &database, counter)?;
            if count_s.is_zero() {
                continue; // q·0 ≤ anything
            }
            let count_b = union_count(self.u_b, &database, counter)?;
            if !self.recip.le_scaled(&count_s, &count_b) {
                let database = database.into_owned();
                let ce = Counterexample { database, count_s, count_b, provenance };
                return Ok(Some(Verdict::Refuted(ce)));
            }
        }
        Ok(None)
    }

    /// Seeded random search over a few density regimes, then `Unknown`
    /// with every candidate examined.
    fn random<E>(mut self, counter: &PreparedCountFn<'_, E>) -> Result<Verdict, E> {
        let schema = self.u_s[0].query().schema();
        let budget = self.budget;
        for (i, density) in [0.25f64, 0.5, 0.8].into_iter().enumerate() {
            let gen = StructureGen {
                extra_vertices: budget.random_vertices,
                density,
                max_tuples_per_relation: 200,
                diagonal_density: 0.5,
            };
            let samples = (0..budget.random_rounds).map(|round| {
                gen.sample(schema, budget.seed.wrapping_add((i as u64) << 32).wrapping_add(round))
            });
            if let Some(v) =
                self.first(samples.map(Cow::Owned), Provenance::RandomSearch, counter)?
            {
                return Ok(v);
            }
        }
        Ok(Verdict::Unknown { candidates_checked: self.checked })
    }
}

/// A maximum bipartite matching of s-disjuncts to *distinct* b-disjuncts
/// along Lemma 12 onto-homomorphisms, when one saturates the s-side.
/// Each onto hom `ψ_b → ψ_s` gives `ψ_s(D) ≤ ψ_b(D)` on every `D`;
/// summing over a matching gives `ΣU₁(D) ≤ Σ_matched U₂(D) ≤ ΣU₂(D)`.
fn match_disjuncts(u_s: &[PreparedQuery<'_>], u_b: &[PreparedQuery<'_>]) -> Option<Vec<usize>> {
    let adjacency: Vec<Vec<usize>> = u_s
        .iter()
        .map(|p| {
            u_b.iter()
                .enumerate()
                .filter(|(_, q)| {
                    q.query().is_pure() && find_onto_hom(q.query(), p.query()).is_some()
                })
                .map(|(j, _)| j)
                .collect()
        })
        .collect();
    fn augment(i: usize, adjacency: &[Vec<usize>], owner: &mut [usize], seen: &mut [bool]) -> bool {
        for &j in &adjacency[i] {
            if seen[j] {
                continue;
            }
            seen[j] = true;
            if owner[j] == usize::MAX || augment(owner[j], adjacency, owner, seen) {
                owner[j] = i;
                return true;
            }
        }
        false
    }
    let mut owner = vec![usize::MAX; u_b.len()];
    for i in 0..u_s.len() {
        let mut seen = vec![false; u_b.len()];
        if !augment(i, &adjacency, &mut owner, &mut seen) {
            return None;
        }
    }
    let mut matching = vec![0usize; u_s.len()];
    for (j, &i) in owner.iter().enumerate() {
        if i != usize::MAX {
            matching[i] = j;
        }
    }
    Some(matching)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckError, CheckRequest, ContainmentChoice};
    use bagcq_homcount::CountRequest;
    use bagcq_query::{cycle_query, parse_query, path_query};
    use bagcq_structure::SchemaBuilder;
    use std::cell::RefCell;
    use std::convert::Infallible;
    use std::sync::Arc;

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    /// The request, pinned to bag-search so a `BAGCQ_CONTAINMENT` matrix
    /// run cannot redirect it.
    fn request(q_s: &Query, q_b: &Query) -> CheckRequest {
        CheckRequest::new(q_s, q_b).containment(ContainmentChoice::BagSearch)
    }

    fn run(q_s: &Query, q_b: &Query) -> Verdict {
        request(q_s, q_b).check().unwrap()
    }

    #[test]
    fn identical_queries_proved() {
        let s = digraph();
        let q = path_query(&s, "E", 2);
        let v = run(&q, &q);
        assert!(matches!(v, Verdict::Proved(Certificate::Identical)), "{v}");
    }

    #[test]
    fn onto_hom_certificate_found() {
        // small: loop + 1-edge ray; big: loop + 2-edge ray — the
        // Lemma 12 situation (big collapses onto small through the loop).
        let s = digraph();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, x]).atom_named("E", &[x, y]);
        let small = qb.build();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y1 = qb.var("y1");
        let y2 = qb.var("y2");
        qb.atom_named("E", &[x, x]).atom_named("E", &[x, y1]).atom_named("E", &[y1, y2]);
        let big = qb.build();
        let v = run(&small, &big);
        assert!(matches!(v, Verdict::Proved(Certificate::OntoHom(_))), "{v}");
    }

    #[test]
    fn set_failure_refutes_immediately() {
        let s = digraph();
        let p2 = path_query(&s, "E", 2);
        let c3 = cycle_query(&s, "E", 3);
        let v = run(&p2, &c3);
        match v {
            Verdict::Refuted(ce) => {
                assert_eq!(ce.provenance, Provenance::CanonicalStructure);
                assert!(ce.count_b < ce.count_s);
            }
            other => panic!("expected refutation, got {other}"),
        }
    }

    #[test]
    fn chandra_merlin_step_counts_through_the_counter() {
        // P2 ⊑set P1 holds and P1 cannot map onto P2, so no certificate
        // applies: the first count is the Chandra–Merlin step's
        // |Hom(P1, canonical(P2))|, asked of the injected counter.
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let calls = RefCell::new(Vec::new());
        let v = request(&p2, &p1)
            .try_check_with_counter::<Infallible>(&|q, d| {
                calls.borrow_mut().push((q.clone(), d.fingerprint()));
                Ok(CountRequest::new(q, d).count())
            })
            .unwrap();
        assert!(v.is_refuted(), "{v}");
        let calls = calls.into_inner();
        assert_eq!(calls.first(), Some(&(p1, p2.canonical_structure().0.fingerprint())));
    }

    #[test]
    fn theorem5_lift_counts_through_the_counter() {
        // No certificate applies, the Chandra–Merlin step skips a q_s with
        // an inequality, and no structured candidate refutes: only the
        // Theorem 5 lift does, and its witness recount is asked of the
        // injected counter.
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.relation("F", 1);
        let s = b.build();
        let q_s = parse_query(&s, "F(x), E(x,y), E(y,y), x != y").unwrap();
        let q_b = parse_query(&s, "F(u), F(w)").unwrap();
        let calls = RefCell::new(Vec::new());
        let v = request(&q_s, &q_b)
            .try_check_with_counter::<Infallible>(&|q, d| {
                calls.borrow_mut().push((q.clone(), d.fingerprint()));
                Ok(CountRequest::new(q, d).count())
            })
            .unwrap();
        let Verdict::Refuted(ce) = v else { panic!("expected a refutation, got {v}") };
        assert_eq!(ce.provenance, Provenance::InequalityElimination);
        assert!(calls.into_inner().contains(&(q_s, ce.database.fingerprint())));
    }

    #[test]
    fn bag_strictness_beyond_set_semantics() {
        // P1 vs P2: set-contained in the P2 ⊑ P1 direction, but under bag
        // semantics P1 (edges) is NOT contained in P2 (2-paths): a single
        // edge has 1 > 0. This is the classic bag/set divergence.
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let v = run(&p1, &p2);
        assert!(v.is_refuted(), "{v}");
    }

    #[test]
    fn multiplier_flips_verdicts() {
        // E(x,y) vs E(x,y) with multiplier 2: 2·s ≤ s fails on any
        // database with an edge.
        let s = digraph();
        let q = path_query(&s, "E", 1);
        let v = request(&q, &q).multiplier(Rat::from_u64s(2, 1)).check().unwrap();
        assert!(v.is_refuted(), "{v}");
        // With multiplier 1/2 the identity certificate applies.
        let v = request(&q, &q).multiplier(Rat::from_u64s(1, 2)).check().unwrap();
        assert!(v.is_proved(), "{v}");
    }

    #[test]
    fn try_counter_error_aborts_check() {
        // A counter that fails on its very first call must abort the whole
        // check with that error, untouched.
        let s = digraph();
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let r = request(&p1, &p2)
            .try_check_with_counter::<&'static str>(&|_, _| Err("counter unavailable"));
        assert!(matches!(r, Err(CheckError::Counter("counter unavailable"))), "{r:?}");
    }

    #[test]
    fn theorem5_path_activates() {
        // ψ_s = E(x,y) ∧ x≠y, ψ_b = E(u,v) ∧ E(v,w): stripping the
        // inequality refutes easily, and the elimination lifts the
        // counterexample to the full ψ_s.
        let s = digraph();
        let mut qb = Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        let psi_s = qb.build();
        let psi_b = path_query(&s, "E", 2);
        let v = run(&psi_s, &psi_b);
        match v {
            Verdict::Refuted(ce) => {
                assert!(ce.count_s > ce.count_b);
            }
            other => panic!("expected refutation, got {other}"),
        }
    }

    #[test]
    fn blowups_keep_the_structured_order() {
        // Blow-ups 2..=max, then the square of a base with at most 8
        // vertices, then the base itself: C3's canonical structure has 3
        // vertices, P8's has 9 and gets no square.
        let s = digraph();
        for (query, max_blowup, len) in [
            (cycle_query(&s, "E", 3), 3, 4),
            (cycle_query(&s, "E", 3), 1, 2),
            (path_query(&s, "E", 8), 3, 3),
        ] {
            let base = query.canonical_structure().0;
            let mut want: Vec<Structure> = (2..=max_blowup).map(|k| base.blowup(k)).collect();
            if base.vertex_count() <= 8 {
                want.push(base.product(&base));
            }
            want.push(base.clone());
            let want: Vec<_> = want.iter().map(Structure::fingerprint).collect();
            let got: Vec<_> = blowups(base, max_blowup).map(|d| d.fingerprint()).collect();
            assert_eq!(got.len(), len);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn certificate_needs_no_search_budget() {
        // C3 ∧̄ C3 maps onto C3 by sending both copies to the same three
        // vertices, so Lemma 12 proves the pair before any search runs.
        let s = digraph();
        let c3 = cycle_query(&s, "E", 3);
        let c3c3 = c3.disjoint_conj(&c3);
        let budget = SearchBudget { random_rounds: 2, ..SearchBudget::default() };
        let v = request(&c3, &c3c3).budget(budget).check().unwrap();
        assert!(matches!(v, Verdict::Proved(Certificate::OntoHom(_))), "{v}");
    }
}
