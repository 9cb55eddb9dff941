//! Property tests for the wire layer: serialization round-trips
//! (`parse ∘ serialize = id` for queries, bag instances, and response
//! frames) and malformed-frame fuzzing (arbitrary bodies and raw bytes
//! never panic a parser — every rejection is a typed error).

use bagcq_containment::{ContainmentChoice, Semantics};
use bagcq_engine::Job;
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{
    parse_bag_instance, parse_bag_instance_infer, parse_dlgp_query, parse_dlgp_query_infer,
    parse_dlgp_union, parse_dlgp_union_infer, query_to_dlgp, BagFact, BagInstance, QueryGen,
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

/// Whether `whole` declares `part`'s relations (with their arities) and
/// constants first, in `part`'s order.
fn declares_first(part: &Schema, whole: &Schema) -> bool {
    let rels = |s: &Schema| s.relations().map(|r| s.relation(r).clone()).collect::<Vec<_>>();
    let consts =
        |s: &Schema| s.constants().map(|c| s.constant_name(c).to_owned()).collect::<Vec<_>>();
    rels(whole).starts_with(&rels(part)) && consts(whole).starts_with(&consts(part))
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
        // The one-pass parse resolves each side as the parser given the
        // frame's schema does, and declares `small:`'s vocabulary first.
        let (small_src, big_src) = (render_union(&small), render_union(&big));
        let s = parse_dlgp_union(&job.schema, &small_src).unwrap();
        prop_assert_eq!(s.disjuncts(), job.spec.q_s.disjuncts());
        let b = parse_dlgp_union(&job.schema, &big_src).unwrap();
        prop_assert_eq!(b.disjuncts(), job.spec.q_b.disjuncts());
        let (_, small_schema) = parse_dlgp_union_infer(&small_src).unwrap();
        prop_assert!(declares_first(&small_schema, &job.schema), "{}", job.schema);
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
        // The one-pass parse resolves each payload as the parser given
        // the frame's schema does, and declares the data's vocabulary
        // first.
        let data_src = bag.to_dlgp();
        prop_assert_eq!(&parse_dlgp_query(&job.schema, &query_to_dlgp(&q)).unwrap(), &job.query);
        let (_, support) = parse_bag_instance(&job.schema, &data_src).unwrap();
        prop_assert_eq!(&support, &*job.support);
        let (_, _, data_schema) = parse_bag_instance_infer(&data_src).unwrap();
        prop_assert!(declares_first(&data_schema, &job.schema), "{}", job.schema);
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

/// Every rejected count frame and its exact 400 body, byte for byte:
/// the malformed kinds of exp_perf and the loadgen, arity conflicts
/// within the query, within the data and across sections (block and
/// inline), frames with an error in both sections (so which one is
/// reported is pinned), errors at end of input, and CRLF bodies.
const COUNT_400: &[(&str, &str)] = &[
    (
        "query:\n  ?- e(X, Y\ndata:\n  e(a, b).\n",
        "error: parse\ndetail: query parse error at line 2, column 12: expected ',' or ')' in atom e at \"\"\n  |    ?- e(X, Y\n  |             ^\n",
    ),
    (
        "qurey:\n  ?- e(X, Y).\n",
        "error: frame\ndetail: expected a section header (backend/query/data/small/big/semantics/containment), got \"qurey:\"\n",
    ),
    (
        "query:\n  ?- e(X, Y).\ndata:\n  e(a, b)@0.\n",
        "error: parse\ndetail: query parse error at line 4, column 11: multiplicity must be ≥ 1\n  |    e(a, b)@0.\n  |            ^\n",
    ),
    (
        "query:\n  ?- e(X, Y).\ndata:\n  e(a, Z).\n",
        "error: parse\ndetail: query parse error at line 4, column 8: facts must be ground: Z is a variable (uppercase)\n  |    e(a, Z).\n  |         ^\n",
    ),
    (
        "query:\n  ?- e(X, Y, Z).\ndata:\n  e(a, b).\n",
        "error: parse\ndetail: query parse error at line 2, column 6: relation e has arity 2, got 3 arguments\n  |    ?- e(X, Y, Z).\n  |       ^\n",
    ),
    ("data:\n  e(a, b).\n", "error: frame\ndetail: missing section query:\n"),
    (
        "query:\n  ?- e(X, Y\ndata:\n  e(c17, c912).\n",
        "error: parse\ndetail: query parse error at line 2, column 12: expected ',' or ')' in atom e at \"\"\n  |    ?- e(X, Y\n  |             ^\n",
    ),
    (
        "query:\n  ?- e(X, Y, Z).\ndata:\n  e(c3, c404).\n",
        "error: parse\ndetail: query parse error at line 2, column 6: relation e has arity 2, got 3 arguments\n  |    ?- e(X, Y, Z).\n  |       ^\n",
    ),
    ("", "error: frame\ndetail: missing section query:\n"),
    ("query:", "error: frame\ndetail: missing section data:\n"),
    ("query: ?- e(X, Y).", "error: frame\ndetail: missing section data:\n"),
    ("data: e(a).", "error: frame\ndetail: missing section query:\n"),
    (
        "query: ?- e(X Y).\ndata: e(a, a).",
        "error: parse\ndetail: query parse error at line 1, column 15: expected ',' or ')' in atom e at \"Y).\"\n  |  query: ?- e(X Y).\n  |                ^\n",
    ),
    (
        "query: ?- e(X, Y).\ndata: e(a, b)@0.",
        "error: parse\ndetail: query parse error at line 2, column 15: multiplicity must be ≥ 1\n  |  data: e(a, b)@0.\n  |                ^\n",
    ),
    (
        "query: ?- e(X, Y).\ndata: e(a, X).",
        "error: parse\ndetail: query parse error at line 2, column 12: facts must be ground: X is a variable (uppercase)\n  |  data: e(a, X).\n  |             ^\n",
    ),
    (
        "small: ?- e(X).\nbig: ?- e(X, Y).\ndata: e(a).",
        "error: frame\ndetail: section \"small\" is not valid in a count frame\n",
    ),
    (
        "backend: warp\nquery: ?- .\ndata: e(a).",
        "error: frame\ndetail: unknown backend \"warp\" (expected auto|naive|treewidth)\n",
    ),
    ("query: a\nquery: b\ndata: c", "error: frame\ndetail: duplicate section \"query\"\n"),
    (
        "query:\n?- e(X, Y), e(X).\ndata:\ne(a, b).\n",
        "error: parse\ndetail: query parse error at line 2, column 13: relation e used with arities 2 and 1\n  |  ?- e(X, Y), e(X).\n  |              ^\n",
    ),
    (
        "query: ?- e(X, Y), e(X).\ndata: e(a, b).",
        "error: parse\ndetail: query parse error at line 1, column 20: relation e used with arities 2 and 1\n  |  query: ?- e(X, Y), e(X).\n  |                     ^\n",
    ),
    (
        "query:\n?- e(X, Y).\ndata:\ne(a, b).\ne(a).\n",
        "error: parse\ndetail: query parse error at line 5, column 1: relation e used with arities 2 and 1\n  |  e(a).\n  |  ^\n",
    ),
    (
        "query: ?- e(X, Y).\ndata: e(a, b). e(a).",
        "error: parse\ndetail: query parse error at line 2, column 16: relation e used with arities 2 and 1\n  |  data: e(a, b). e(a).\n  |                 ^\n",
    ),
    (
        "query:\n?- e(X).\ndata:\ne(a, b).\n",
        "error: parse\ndetail: query parse error at line 2, column 4: relation e has arity 2, got 1 arguments\n  |  ?- e(X).\n  |     ^\n",
    ),
    (
        "query: ?- f(X), e(X, Y, Z).\ndata: e(a, b).",
        "error: parse\ndetail: query parse error at line 1, column 17: relation e has arity 2, got 3 arguments\n  |  query: ?- f(X), e(X, Y, Z).\n  |                  ^\n",
    ),
    (
        "query:\n  ?- f(X, c), e(X, Y),\n     e(Y, Z, W).\ndata:\n  e(a, b).\n  g(b).\n",
        "error: parse\ndetail: query parse error at line 3, column 6: relation e used with arities 2 and 3\n  |       e(Y, Z, W).\n  |       ^\n",
    ),
    (
        "query:\n  ?- f(X, c), e(X, Y, Z).\ndata:\n  e(a, b).\n  g(b).\n",
        "error: parse\ndetail: query parse error at line 2, column 15: relation e has arity 2, got 3 arguments\n  |    ?- f(X, c), e(X, Y, Z).\n  |                ^\n",
    ),
    (
        "query: ?- e(X, Y).\ndata: e(a, b),",
        "error: parse\ndetail: query parse error at line 2, column 14: expected '.' after fact at \",\"\n  |  data: e(a, b),\n  |               ^\n",
    ),
    (
        "query: ?- e(X Y).\ndata: e(a, X).",
        "error: parse\ndetail: query parse error at line 1, column 15: expected ',' or ')' in atom e at \"Y).\"\n  |  query: ?- e(X Y).\n  |                ^\n",
    ),
    (
        "query: ?- e(X Y).\ndata: e(a, b). e(a).",
        "error: parse\ndetail: query parse error at line 1, column 15: expected ',' or ')' in atom e at \"Y).\"\n  |  query: ?- e(X Y).\n  |                ^\n",
    ),
    (
        "query: ?- e(X, Y), e(X).\ndata: e(a, b)@0.",
        "error: parse\ndetail: query parse error at line 1, column 20: relation e used with arities 2 and 1\n  |  query: ?- e(X, Y), e(X).\n  |                     ^\n",
    ),
    (
        "query: ?- e(X), e(X, Y).\ndata: f(a). f(a, b).",
        "error: parse\ndetail: query parse error at line 1, column 17: relation e used with arities 1 and 2\n  |  query: ?- e(X), e(X, Y).\n  |                  ^\n",
    ),
    (
        "query: ?- e(X).\ndata: e(a, b)@0.",
        "error: parse\ndetail: query parse error at line 2, column 15: multiplicity must be ≥ 1\n  |  data: e(a, b)@0.\n  |                ^\n",
    ),
    (
        "query: ?- e(X).\ndata: e(a, b). e(a, b, c).",
        "error: parse\ndetail: query parse error at line 2, column 16: relation e used with arities 2 and 3\n  |  data: e(a, b). e(a, b, c).\n  |                 ^\n",
    ),
    (
        "query:\n?- e(X Y).\ndata:\ne(a).\n",
        "error: parse\ndetail: query parse error at line 2, column 8: expected ',' or ')' in atom e at \"Y).\"\n  |  ?- e(X Y).\n  |         ^\n",
    ),
    (
        "query:\n?- e(X, Y),\ndata:\ne(a, b).\n",
        "error: parse\ndetail: query parse error at line 2, column 12: trailing separator\n  |  ?- e(X, Y),\n  |             ^\n",
    ),
    (
        "query: ?- e(X, Y),\ndata: e(a, b).",
        "error: parse\ndetail: query parse error at line 1, column 19: trailing separator\n  |  query: ?- e(X, Y),\n  |                    ^\n",
    ),
    (
        "query:\n?- e(X, Y\n\n\ndata:\ne(a, b).\n",
        "error: parse\ndetail: query parse error at line 4, column 1: expected ',' or ')' in atom e at \"\"\n  |  \n  |  ^\n",
    ),
    (
        "query:\n?- e(X, Y).\ndata:\ne(a, b)\n\n",
        "error: parse\ndetail: query parse error at line 5, column 1: expected '.' after fact at \"\"\n  |  \n  |  ^\n",
    ),
    (
        "query:\n?- e(X, Y).\ndata:\ne(a, b).\ne(b,\n\n",
        "error: parse\ndetail: query parse error at line 6, column 1: expected a term at \"\"\n  |  \n  |  ^\n",
    ),
    (
        "query:\r\n?- e(X, Y).\r\ndata:\r\ne(a, b)@0.\r\n",
        "error: parse\ndetail: query parse error at line 4, column 9: multiplicity must be ≥ 1\n  |  e(a, b)@0.\n  |          ^\n",
    ),
    (
        "query:\r\n?- e(X).\r\ndata:\r\ne(a, b).\r\n",
        "error: parse\ndetail: query parse error at line 2, column 4: relation e has arity 2, got 1 arguments\n  |  ?- e(X).\n  |     ^\n",
    ),
];

/// The same for check frames: `small:` and `big:` keep the precedence
/// of `query:` and `data:`, and an unsupported combination is typed.
const CHECK_400: &[(&str, &str)] = &[
    ("", "error: frame\ndetail: missing section small:\n"),
    ("small: ?- e(X).", "error: frame\ndetail: missing section big:\n"),
    ("big: ?- e(X).", "error: frame\ndetail: missing section small:\n"),
    (
        "query: ?- e(X).\ndata: e(a).",
        "error: frame\ndetail: section \"query\" is not valid in a check frame\n",
    ),
    (
        "small: ?- e(X Y).\nbig: ?- e(X).",
        "error: parse\ndetail: query parse error at line 1, column 15: expected ',' or ')' in atom e at \"Y).\"\n  |  small: ?- e(X Y).\n  |                ^\n",
    ),
    (
        "small: ?- e(X).\nbig: ?- e(X,.",
        "error: parse\ndetail: query parse error at line 2, column 13: expected a term at \".\"\n  |  big: ?- e(X,.\n  |              ^\n",
    ),
    (
        "small: ?- e(X) ; e(X, Y).\nbig: ?- e(X).",
        "error: parse\ndetail: query parse error at line 1, column 18: relation e used with arities 1 and 2\n  |  small: ?- e(X) ; e(X, Y).\n  |                   ^\n",
    ),
    (
        "small:\n?- e(X).\nbig:\n?- f(X).\n?- f(X, Y).\n",
        "error: parse\ndetail: query parse error at line 5, column 4: relation f used with arities 1 and 2\n  |  ?- f(X, Y).\n  |     ^\n",
    ),
    (
        "small: ?- e(X).\nbig: ?- e(X, Y).",
        "error: parse\ndetail: query parse error at line 2, column 9: relation e has arity 1, got 2 arguments\n  |  big: ?- e(X, Y).\n  |          ^\n",
    ),
    (
        "small:\n?- e(X, Y).\nbig:\n?- f(X).\n?- e(X).\n",
        "error: parse\ndetail: query parse error at line 5, column 4: relation e has arity 2, got 1 arguments\n  |  ?- e(X).\n  |     ^\n",
    ),
    (
        "small: ?- e(X Y).\nbig: ?- e(X,.",
        "error: parse\ndetail: query parse error at line 1, column 15: expected ',' or ')' in atom e at \"Y).\"\n  |  small: ?- e(X Y).\n  |                ^\n",
    ),
    (
        "small: ?- e(X) ; e(X, Y).\nbig: ?- e(X,.",
        "error: parse\ndetail: query parse error at line 1, column 18: relation e used with arities 1 and 2\n  |  small: ?- e(X) ; e(X, Y).\n  |                   ^\n",
    ),
    (
        "small: ?- e(X).\nbig: ?- f(X) ; e(X, Y,.",
        "error: parse\ndetail: query parse error at line 2, column 23: expected a term at \".\"\n  |  big: ?- f(X) ; e(X, Y,.\n  |                        ^\n",
    ),
    (
        "small: ?- e(X).\nbig: ?- f(X) ; f(X, Y) ; e(X, Y).",
        "error: parse\ndetail: query parse error at line 2, column 16: relation f used with arities 1 and 2\n  |  big: ?- f(X) ; f(X, Y) ; e(X, Y).\n  |                 ^\n",
    ),
    (
        "small: ?- e(X) ;\nbig: ?- e(X).",
        "error: parse\ndetail: query parse error at line 1, column 17: trailing separator\n  |  small: ?- e(X) ;\n  |                  ^\n",
    ),
    (
        "small: ?- e(X).\nbig: ?- e(X),",
        "error: parse\ndetail: query parse error at line 2, column 14: trailing separator\n  |  big: ?- e(X),\n  |               ^\n",
    ),
    (
        "small:\n?- e(X).\nbig:\n?- e(X),\n\n",
        "error: parse\ndetail: query parse error at line 5, column 1: trailing separator\n  |  \n  |  ^\n",
    ),
    (
        "semantics: set\ncontainment: bag-search\nsmall: ?- e(X, Y).\nbig: ?- e(X, Y).",
        "error: unsupported_semantics\nreason: bag-search\ndetail: backend bag-search cannot handle this request: decides bag semantics, request says set\n",
    ),
    (
        "small:\r\n?- e(X).\r\nbig:\r\n?- e(X, Y).\r\n",
        "error: parse\ndetail: query parse error at line 4, column 4: relation e has arity 1, got 2 arguments\n  |  ?- e(X, Y).\n  |     ^\n",
    ),
];

/// Deterministic spot checks that the fuzz families above actually hit
/// the typed-error paths (so the properties are not vacuous), with every
/// 400 body pinned.
#[test]
fn malformed_frames_yield_typed_errors() {
    for &(body, expected) in COUNT_400 {
        let err = parse_count_request(body).expect_err(body);
        assert_eq!(err.to_response().render(), expected, "count body {body:?}");
    }
    for &(body, expected) in CHECK_400 {
        let err = parse_check_request(body).expect_err(body);
        assert_eq!(err.to_response().render(), expected, "check body {body:?}");
    }
}

/// Accepted count frames with their job and schema fingerprints. These
/// key the MemoStore on disk, so the schema's declaration order (the
/// data's vocabulary before the query's, first occurrence within each)
/// and the resolved query and support must not move. The third frame's
/// query adds a relation and a constant the data lacks.
const COUNT_FINGERPRINTS: &[(&str, &str, &str)] = &[
    (
        "backend: naive\nquery:\n?- e(X, Y).\ndata:\ne(a, b)@2.\ne(b, c).\n",
        "f656273b3220fd593125bd866111e901",
        "fec1c24d83c21935753865d6fae7139e",
    ),
    (
        "query: ?- e(X, b).\ndata: e(a, b).",
        "14a457c7bbfcc04f6de99f8d3cc658af",
        "2d7a2c9ba04ce4f40ced4cf2ac48a382",
    ),
    (
        "query:\n  ?- e(X, Y), f(Y, c), X != Y.\ndata:\n  e(a, b)@2. e(b, a).\n  g(a).\n",
        "90242bf726d6b7a643d181ea0d99d772",
        "c0ab5e2a076b454ee9c031229d63b643",
    ),
    (
        "backend: treewidth\nquery:\n?- e(X, Y), e(Y, Z), e(Z, X).\ndata:\ne(n0, n1). e(n1, n2). e(n2, n0). e(n0, n0)@3.\n",
        "7d91e9f2794204b0db9043414a67091e",
        "a50a97221a3c1878db6d2130c25ed739",
    ),
    (
        "query: ?- .\ndata: r(\"Weird Name\", 42, x1).",
        "d7e590dfb4eadfd2a111f2d88fab7b31",
        "67c6fc17eeccd4955f732d0fcaaa4e16",
    ),
];

/// Accepted check frames with their job and schema fingerprints
/// (`small:`'s vocabulary before `big:`'s).
const CHECK_FINGERPRINTS: &[(&str, &str, &str)] = &[
    (
        "small:\n?- e(X, Y).\nbig:\n?- e(X, Y), e(Y, Z).\n",
        "4905e49d8caece6d046b8fe7a67601c3",
        "290df575aff59015fe3e088c2039cc6c",
    ),
    (
        "semantics: set\ncontainment: set-ucq\nsmall:\n?- e(X, Y) ; f(X).\nbig:\n?- e(X, Y).\n?- f(Z).\n",
        "95f3ba6434b0d11887ae820639eae92b",
        "f2a18a76a4f53ceb668644b93cbb6247",
    ),
    (
        "small: ?- e(X, a), g(a, b, X).\nbig: ?- e(X, Y) ; h(c).",
        "5a28d209b084278a57cd6e6278c684f5",
        "00887d67b88469d7d3e8c1c34450b915",
    ),
];

#[test]
fn frame_fingerprints_are_pinned() {
    for &(body, job_fp, schema_fp) in COUNT_FINGERPRINTS {
        let job = parse_count_request(body).expect(body);
        let spec = Job::count_with(job.backend, job.query, job.support).spec;
        assert_eq!(spec.fingerprint().to_string(), job_fp, "count body {body:?}");
        assert_eq!(job.schema.fingerprint().to_string(), schema_fp, "count body {body:?}");
    }
    for &(body, job_fp, schema_fp) in CHECK_FINGERPRINTS {
        let job = parse_check_request(body).expect(body);
        assert_eq!(Job::check(job.spec).spec.fingerprint().to_string(), job_fp, "{body:?}");
        assert_eq!(job.schema.fingerprint().to_string(), schema_fp, "check body {body:?}");
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
