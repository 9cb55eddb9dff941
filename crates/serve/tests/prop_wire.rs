//! Property tests for the wire layer: serialization round-trips
//! (`parse ∘ serialize = id` for queries, bag instances, and response
//! frames) and malformed-frame fuzzing (arbitrary bodies and raw bytes
//! never panic a parser — every rejection is a typed error).

use bagcq_containment::{ContainmentChoice, Semantics};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{
    parse_bag_instance_infer, parse_dlgp_query, parse_dlgp_query_infer, query_to_dlgp, BagFact,
    BagInstance, QueryGen,
};
use bagcq_serve::{
    parse_check_request, parse_count_request, parse_response, HttpLimits, WireResponse,
};
use bagcq_structure::{Schema, SchemaBuilder, StructureGen};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    let mut b = SchemaBuilder::default();
    b.relation("e", 2);
    b.relation("r", 3);
    b.constant("a");
    b.constant("b");
    b.build()
}

fn sample_query(seed: u64, vars: u32, atoms: usize, ineqs: usize) -> bagcq_query::Query {
    let qg = QueryGen { variables: vars, atoms, constant_prob: 0.2, inequalities: ineqs };
    qg.sample(&schema(), seed)
}

fn sample_bag(seed: u64, facts: usize) -> BagInstance {
    // Deterministic fact soup over a tiny vocabulary; duplicates are
    // deliberate so `normalized()` has real merging to do.
    let rels: [(&str, usize); 2] = [("e", 2), ("r", 3)];
    let consts = ["a", "b", "c", "n0", "n1"];
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(facts);
    for _ in 0..facts {
        let (rel, arity) = rels[(next() % 2) as usize];
        let args =
            (0..arity).map(|_| consts[(next() as usize) % consts.len()].to_string()).collect();
        out.push(BagFact { rel: rel.to_string(), args, mult: 1 + next() % 5 });
    }
    BagInstance { facts: out }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `parse_dlgp_query ∘ query_to_dlgp = id` up to the serializer's
    /// variable renaming: the reparse serializes back to the identical
    /// string and counts bit-identically on a shared database.
    #[test]
    fn query_dlgp_round_trips(
        seed in 0u64..10_000,
        vars in 1u32..6,
        atoms in 1usize..6,
        ineqs in 0usize..3,
        dseed in 0u64..10_000,
    ) {
        let q = sample_query(seed, vars, atoms, ineqs);
        let src = query_to_dlgp(&q);
        let back = parse_dlgp_query(q.schema(), &src)
            .unwrap_or_else(|e| panic!("serialized query failed to reparse:\n{}", e.render()));
        prop_assert_eq!(&query_to_dlgp(&back), &src, "serializer is not a fixed point");
        let sg = StructureGen {
            extra_vertices: 3,
            density: 0.4,
            max_tuples_per_relation: 200,
            diagonal_density: 0.4,
        };
        let d = sg.sample(q.schema(), dseed);
        // DLGP has no way to write a variable that appears in no atom and
        // no inequality; the serializer drops them, and each dropped
        // variable is exactly one free `|V_D|` factor of the count.
        let dropped = q.var_count() - back.var_count();
        let free_factor = bagcq_arith::Nat::from_u64(u64::from(d.vertex_count()))
            .pow_u64(u64::from(dropped));
        prop_assert_eq!(
            CountRequest::new(&q, &d).count(),
            CountRequest::new(&back, &d).count() * free_factor,
            "reparsed query counts differently"
        );
    }

    /// `parse_bag_instance_infer ∘ BagInstance::to_dlgp = id` on the
    /// faithful bag view — multiplicities, fact order, and the support's
    /// distinct-atom count all survive.
    #[test]
    fn bag_instance_round_trips(seed in 0u64..10_000, facts in 1usize..12) {
        let bag = sample_bag(seed, facts);
        let src = bag.to_dlgp();
        let (back, support, _) = parse_bag_instance_infer(&src)
            .unwrap_or_else(|e| panic!("serialized bag failed to reparse:\n{}", e.render()));
        prop_assert_eq!(&back, &bag, "bag view changed across the round-trip");
        prop_assert_eq!(back.total_multiplicity(), bag.total_multiplicity());
        let support_atoms: usize =
            support.schema().relations().map(|r| support.atom_count(r)).sum();
        prop_assert_eq!(support_atoms, bag.distinct_fact_count());
        prop_assert_eq!(&back.to_dlgp(), &src);
    }

    /// `parse_response ∘ WireResponse::render = id` for count frames over
    /// every backend name and arbitrary numeric payloads.
    #[test]
    fn count_response_round_trips(
        which in 0usize..BackendChoice::ALL.len(),
        bag_total in 0u64..u64::MAX,
        support_atoms in 0u64..100_000,
        count in 0u64..u64::MAX,
    ) {
        let resp = WireResponse::Count {
            backend: BackendChoice::ALL[which],
            bag_total,
            support_atoms,
            count: bagcq_arith::Nat::from_u64(count),
        };
        prop_assert_eq!(parse_response(&resp.render()).unwrap(), resp);
    }

    /// `parse_response ∘ render = id` for check frames, including
    /// multi-line details (the `detail:` field is last on the wire),
    /// over every semantics and every registered backend label.
    #[test]
    fn check_response_round_trips(
        sem in 0usize..2,
        backend in 0usize..4,
        verdict in "[a-z\\-]{1,12}",
        detail in "[a-zA-Z0-9 _.<=\\-]{0,40}(\\n[a-zA-Z0-9 _.<=^~\\-]{0,40}){0,3}",
    ) {
        let resp = WireResponse::Check {
            semantics: [Semantics::Bag, Semantics::Set][sem],
            containment: ContainmentChoice::REGISTERED[backend],
            verdict,
            detail,
        };
        prop_assert_eq!(parse_response(&resp.render()).unwrap(), resp);
    }

    /// A check frame with `semantics`/`containment` headers and union
    /// payloads (`;`-inline and one-rule-per-line) survives serialize →
    /// parse: the spec carries the headers and the exact disjunct lists.
    #[test]
    fn union_check_frame_round_trips(
        seeds in proptest::collection::vec(0u64..10_000, 1..4),
        bseeds in proptest::collection::vec(0u64..10_000, 1..4),
        sem in 0usize..2,
        inline in any::<bool>(),
    ) {
        let semantics = [Semantics::Bag, Semantics::Set][sem];
        let small: Vec<_> = seeds.iter().map(|&s| sample_query(s, 3, 2, 0)).collect();
        let big: Vec<_> = bseeds.iter().map(|&s| sample_query(s, 3, 2, 0)).collect();
        let render_union = |qs: &[bagcq_query::Query]| -> String {
            if inline {
                // One rule, `;`-separated: strip each `?- ` prefix and
                // trailing period past the first disjunct.
                let parts: Vec<String> = qs
                    .iter()
                    .map(|q| {
                        let t = query_to_dlgp(q);
                        t.trim_start_matches("?- ").trim_end_matches('.').trim().to_string()
                    })
                    .collect();
                format!("?- {}.", parts.join(" ; "))
            } else {
                qs.iter().map(query_to_dlgp).collect::<Vec<_>>().join("\n")
            }
        };
        let body = format!(
            "semantics: {semantics}\nsmall:\n{}\nbig:\n{}",
            render_union(&small),
            render_union(&big),
        );
        let job = parse_check_request(&body)
            .unwrap_or_else(|e| panic!("serialized union frame failed to parse: {e}\n{body}"));
        prop_assert_eq!(job.spec.semantics, semantics);
        prop_assert_eq!(job.spec.choice, ContainmentChoice::Auto);
        prop_assert_eq!(job.spec.q_s.len(), small.len());
        prop_assert_eq!(job.spec.q_b.len(), big.len());
        for (parsed, orig) in job.spec.q_s.disjuncts().iter().zip(&small) {
            prop_assert_eq!(&query_to_dlgp(parsed), &query_to_dlgp(orig));
        }
        for (parsed, orig) in job.spec.q_b.disjuncts().iter().zip(&big) {
            prop_assert_eq!(&query_to_dlgp(parsed), &query_to_dlgp(orig));
        }
    }

    /// `parse_response ∘ render = id` for typed errors, with and without
    /// a machine `reason`, including caret-snippet style details.
    #[test]
    fn error_response_round_trips(
        kind in "[a-z_]{1,12}",
        reason in "([a-z_]{1,16})?",
        detail in "[a-zA-Z0-9 _.<=\\-]{0,40}(\\n[a-zA-Z0-9 _.<=^~\\-]{0,40}){0,3}",
    ) {
        let resp = if reason.is_empty() {
            WireResponse::error(kind, detail)
        } else {
            WireResponse::error_with_reason(kind, reason, detail)
        };
        prop_assert_eq!(parse_response(&resp.render()).unwrap(), resp);
    }

    /// A full count frame round-trips end to end: serialize a random
    /// query + bag into a request body, parse it, and the parsed job
    /// carries the same bag and a query that counts identically.
    #[test]
    fn count_frame_round_trips(
        qseed in 0u64..10_000,
        bseed in 0u64..10_000,
        atoms in 1usize..5,
        facts in 1usize..10,
    ) {
        let q = sample_query(qseed, 3, atoms, 0);
        let bag = sample_bag(bseed, facts);
        let body = format!("backend: naive\nquery:\n{}\ndata:\n{}", query_to_dlgp(&q), bag.to_dlgp());
        let job = parse_count_request(&body)
            .unwrap_or_else(|e| panic!("serialized frame failed to parse: {e}"));
        prop_assert_eq!(&job.bag, &bag);
        prop_assert_eq!(job.backend, BackendChoice::Naive);
        // The job's schema is the merged vocabulary; the query must still
        // serialize to the same DLGP text modulo that re-resolution.
        prop_assert_eq!(&query_to_dlgp(&job.query), &query_to_dlgp(&q));
    }

    // -- fuzzing: nothing panics, every rejection is typed -----------------

    /// Arbitrary near-miss bodies (section soup, stray punctuation,
    /// truncations) never panic either request parser.
    #[test]
    fn fuzzed_bodies_never_panic(
        body in "((backend|query|data|small|big|semantics|containment|qurey|x)(:)?( )?[a-zA-Z0-9 ?(),.;@!=_\\-]{0,30}\\n?){0,6}",
    ) {
        let _ = parse_count_request(&body);
        let _ = parse_check_request(&body);
        let _ = parse_response(&body);
    }

    /// Mutations of a *valid* frame — a byte flipped, a slice deleted —
    /// either still parse or fail with a typed error, never a panic.
    #[test]
    fn mutated_valid_frames_never_panic(
        cut_at in 0usize..120,
        cut_len in 0usize..20,
        insert in "[ -~\\n\\t]{0,4}",
    ) {
        let valid = "backend: auto\nquery:\n  ?- e(X, Y), e(Y, Z).\ndata:\n  e(a, b)@2.\n  e(b, c).\n";
        let mut s = valid.to_string();
        let start = cut_at.min(s.len());
        let end = (start + cut_len).min(s.len());
        // Cut on char boundaries (the frame is ASCII so this is exact).
        s.replace_range(start..end, &insert);
        let _ = parse_count_request(&s);
        let _ = parse_check_request(&s);
    }

    /// Raw bytes thrown at the HTTP head parser (including non-UTF-8 and
    /// embedded NULs) never panic; they produce `Ok` or a typed
    /// `HttpError`.
    #[test]
    fn fuzzed_http_heads_never_panic(seed in any::<u64>(), len in 0usize..200) {
        let mut state = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let limits = HttpLimits::default();
        let _ = bagcq_serve::http::read_request(&mut Cursor::new(bytes.clone()), &limits);
        let _ = bagcq_serve::http::read_response(&mut Cursor::new(bytes), &limits);
    }

    /// Structured-but-wrong HTTP heads (real verbs, broken framing) are
    /// rejected with typed errors, never panics.
    #[test]
    fn fuzzed_request_lines_never_panic(
        verb in "(GET|POST|PUT|G E T|)",
        path in "(/v1/count|/v1/check|/metrics|/|//|[a-z]{0,5})",
        version in "(HTTP/1.1|HTTP/1.0|HTTP/2|http/1.1|)",
        clen in "(-1|0|3|18446744073709551616|abc|)",
    ) {
        let head = format!("{verb} {path} {version}\r\nContent-Length: {clen}\r\n\r\nbody");
        let limits = HttpLimits::default();
        let _ = bagcq_serve::http::read_request(&mut Cursor::new(head.into_bytes()), &limits);
    }
}

/// Deterministic spot checks that the fuzz families above actually hit
/// the typed-error paths (so the properties are not vacuous).
#[test]
fn malformed_frames_yield_typed_errors() {
    for body in [
        "",
        "query:",
        "query: ?- e(X, Y).",
        "data: e(a).",
        "query: ?- e(X Y).\ndata: e(a, a).",
        "query: ?- e(X, Y).\ndata: e(a, b)@0.",
        "query: ?- e(X, Y).\ndata: e(a, X).",
        "small: ?- e(X).\nbig: ?- e(X, Y).\ndata: e(a).",
    ] {
        let err = parse_count_request(body).expect_err(body);
        assert!(!err.to_response().render().is_empty());
    }
    for body in ["", "small: ?- e(X).", "big: ?- e(X).", "query: ?- e(X).\ndata: e(a)."] {
        let err = parse_check_request(body).expect_err(body);
        assert!(err.to_response().is_error());
    }
}

/// The check-frame side also survives a serialize → parse loop.
#[test]
fn check_frame_round_trips() {
    let q_small = sample_query(7, 3, 2, 0);
    let q_big = sample_query(11, 4, 3, 1);
    let body = format!("small: {}\nbig: {}", query_to_dlgp(&q_small), query_to_dlgp(&q_big));
    let job = parse_check_request(&body).expect("serialized check frame parses");
    assert_eq!(query_to_dlgp(&job.spec.q_s.disjuncts()[0]), query_to_dlgp(&q_small));
    assert_eq!(query_to_dlgp(&job.spec.q_b.disjuncts()[0]), query_to_dlgp(&q_big));
    // The merged schema resolves both sides.
    let (_, s_small) = parse_dlgp_query_infer(&query_to_dlgp(&q_small)).unwrap();
    assert!(job.schema.relation_count() >= s_small.relation_count());
}

/// An unsupported semantics × backend combination is the typed
/// `unsupported_semantics` 400, and its response frame round-trips.
#[test]
fn unsupported_semantics_response_round_trips() {
    let err = parse_check_request(
        "semantics: set\ncontainment: bag-search\nsmall: ?- e(X, Y).\nbig: ?- e(X, Y).",
    )
    .expect_err("bag-search cannot serve set semantics");
    let resp = err.to_response();
    let rendered = resp.render();
    assert!(rendered.starts_with("error: unsupported_semantics\n"), "{rendered}");
    assert_eq!(parse_response(&rendered).unwrap(), resp);
}
