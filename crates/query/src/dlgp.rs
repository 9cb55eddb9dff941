//! DLGP-style concrete syntax for queries and bag databases — the wire
//! format of `bagcq-serve`.
//!
//! The syntax follows the DLGP conventions of homomorphism-based
//! containment tooling: **uppercase**-initial (or `_`-initial)
//! identifiers are variables, **lowercase**- or digit-initial tokens are
//! constants, and `"…"` quotes arbitrary constant names. `%` and `#`
//! start line comments.
//!
//! Queries are comma-separated conjunctions with an optional `?-` prefix
//! and an optional terminating period:
//!
//! ```text
//! ?- p(X, Y), q(Y, a), X != Y.
//! ```
//!
//! Databases are lists of **ground** facts, one period-terminated fact
//! each, with multiplicity sugar `@k`:
//!
//! ```text
//! p(a, b). p(a, b). q(b).      % same as p(a,b)@2. q(b).
//! ```
//!
//! Multiplicities are kept faithfully in the [`BagInstance`] so requests
//! round-trip through [`BagInstance::to_dlgp`], while evaluation runs on
//! the **set support** ([`parse_bag_instance`] also returns the
//! collapsed [`Structure`]): in the paper's setting (Section 2),
//! databases are ordinary finite structures and bag semantics lives in
//! the *answer counts* `ψ(D) = |Hom(ψ, D)|`, not in duplicated facts.
//!
//! All parse errors are [`ParseQueryError`]s with line/column spans and
//! caret snippets, which the server returns verbatim in 400 responses.

use crate::parse::{
    constant_id, declare, infer, lex, relation_id, resolve, Cursor, ParseQueryError, RawConjunct,
    RawTerm, RawTermKind, Vocabulary,
};
use crate::query::{Query, Term};
use crate::ucq::UnionQuery;
use bagcq_structure::{Schema, SchemaBuilder, Structure, Vertex};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

/// Is this a valid bare variable token (`[A-Z_][A-Za-z0-9_]*`)?
fn is_bare_var(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_uppercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Is this a valid bare constant token (`[a-z][A-Za-z0-9_]*` or digits)?
fn is_bare_const(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
        Some(c) if c.is_ascii_digit() => chars.all(|c| c.is_ascii_digit()),
        _ => false,
    }
}

/// Renders a constant name as a DLGP term: bare when possible, quoted
/// otherwise. Names containing `"` or newlines are not representable.
fn render_const(name: &str) -> String {
    if is_bare_const(name) {
        name.to_string()
    } else {
        debug_assert!(
            !name.contains('"') && !name.contains('\n'),
            "constant {name:?} is not representable in DLGP"
        );
        format!("\"{name}\"")
    }
}

/// Scans one DLGP term: quoted constant, number, or identifier
/// (classified by case).
fn dlgp_term(cur: &mut Cursor<'_>) -> Result<RawTerm, ParseQueryError> {
    cur.skip_trivia(true);
    let pos = cur.pos;
    if cur.eat('"') {
        let rest = cur.rest();
        let Some(close) = rest.find('"') else {
            return cur.error_at(pos, "unterminated constant quote");
        };
        let name = &rest[..close];
        if name.is_empty() {
            return cur.error_at(pos, "empty constant name");
        }
        if name.contains('\n') {
            return cur.error_at(pos, "constant name spans multiple lines");
        }
        cur.pos += close + 1;
        return Ok(RawTerm { kind: RawTermKind::Const(name.to_string()), pos });
    }
    // Numbers are constants.
    let digits: String = cur.rest().chars().take_while(|c| c.is_ascii_digit()).collect();
    if !digits.is_empty() {
        cur.pos += digits.len();
        return Ok(RawTerm { kind: RawTermKind::Const(digits), pos });
    }
    match cur.ident() {
        Some(name) if is_bare_var(name) => {
            Ok(RawTerm { kind: RawTermKind::Var(name.to_string()), pos })
        }
        Some(name) => Ok(RawTerm { kind: RawTermKind::Const(name.to_string()), pos }),
        None => cur.error(format!("expected a term at {:?}", cur.preview())),
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

fn dlgp_query_raw(src: &str) -> Result<Vec<RawConjunct>, ParseQueryError> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    cur.skip_trivia(true);
    cur.eat_str("?-");
    cur.skip_trivia(true);
    // `?- .` and blank input are the empty (always-true) query.
    if cur.eat('.') {
        cur.skip_trivia(true);
    }
    if cur.is_empty() {
        return Ok(out);
    }
    loop {
        out.push(dlgp_conjunct(&mut cur)?);
        cur.skip_trivia(true);
        if cur.eat('.') {
            cur.skip_trivia(true);
            if cur.is_empty() {
                return Ok(out);
            }
            return cur.error(format!("unexpected input after '.': {:?}", cur.preview()));
        }
        if cur.is_empty() {
            return Ok(out);
        }
        if cur.eat(',') || cur.eat('&') || cur.eat('∧') {
            cur.skip_trivia(true);
            if cur.is_empty() {
                return cur.error("trailing separator");
            }
            continue;
        }
        return cur.error(format!("expected ',' or '.' before {:?}", cur.preview()));
    }
}

fn dlgp_conjunct(cur: &mut Cursor<'_>) -> Result<RawConjunct, ParseQueryError> {
    cur.skip_trivia(true);
    let start = cur.pos;
    if let Some(name) = cur.ident() {
        let rel_pos = start;
        cur.skip_trivia(true);
        if cur.eat('(') {
            let mut args = Vec::new();
            loop {
                args.push(dlgp_term(cur)?);
                cur.skip_trivia(true);
                if cur.eat(',') {
                    continue;
                }
                if cur.eat(')') {
                    return Ok(RawConjunct::Atom { rel: name.to_string(), rel_pos, args });
                }
                return cur
                    .error(format!("expected ',' or ')' in atom {name} at {:?}", cur.preview()));
            }
        }
        cur.pos = start;
    }
    let lhs = dlgp_term(cur)?;
    cur.skip_trivia(true);
    if !(cur.eat_str("!=") || cur.eat('≠')) {
        return cur.error(format!("expected '!=' at {:?}", cur.preview()));
    }
    let rhs = dlgp_term(cur)?;
    Ok(RawConjunct::Neq([lhs, rhs]))
}

/// Parses a DLGP query against an existing schema.
pub fn parse_dlgp_query(schema: &Arc<Schema>, src: &str) -> Result<Query, ParseQueryError> {
    resolve(src, dlgp_query_raw(src)?, schema)
}

/// Parses a DLGP query, inferring the schema from the observed relations
/// (with their arities) and constants.
pub fn parse_dlgp_query_infer(src: &str) -> Result<(Query, Arc<Schema>), ParseQueryError> {
    let (raw, schema) = infer(src, dlgp_query_raw)?;
    Ok((resolve(src, raw, &schema)?, schema))
}

/// Serializes a query into DLGP syntax, round-trippable through
/// [`parse_dlgp_query`]. Variables whose names are not valid DLGP
/// variable tokens are renamed `V0, V1, …` (by id); queries coming *from*
/// the DLGP parser keep their names verbatim.
pub fn query_to_dlgp(q: &Query) -> String {
    // Use original names when they are valid DLGP variables and the
    // whole set stays injective after substituting fallbacks; otherwise
    // rename everything positionally.
    let n = q.var_count();
    let mut names: Vec<String> = Vec::with_capacity(n as usize);
    for v in 0..n {
        let name = q.var_name(crate::query::VarId(v));
        if is_bare_var(name) {
            names.push(name.to_string());
        } else {
            names.push(format!("V{v}"));
        }
    }
    {
        let mut seen = std::collections::HashSet::new();
        if !names.iter().all(|n| seen.insert(n.as_str())) {
            names = (0..n).map(|v| format!("V{v}")).collect();
        }
    }
    let schema = q.schema();
    let term = |t: &Term| match t {
        Term::Var(v) => names[v.0 as usize].clone(),
        Term::Const(c) => render_const(schema.constant_name(*c)),
    };
    let mut parts: Vec<String> = Vec::new();
    for a in q.atoms() {
        let args: Vec<String> = a.args.iter().map(term).collect();
        parts.push(format!("{}({})", schema.relation(a.rel).name, args.join(", ")));
    }
    for ineq in q.inequalities() {
        parts.push(format!("{} != {}", term(&ineq.lhs), term(&ineq.rhs)));
    }
    if parts.is_empty() {
        "?- .".to_string()
    } else {
        format!("?- {}.", parts.join(", "))
    }
}

// ---------------------------------------------------------------------------
// Unions of queries
// ---------------------------------------------------------------------------

/// Scans a union source into one raw conjunct list per rule. Each rule
/// optionally starts with `?-`; a period ends a rule (the last rule's
/// period is optional at end of input), so a UCQ is simply a sequence of
/// DLGP query rules, one disjunct each.
fn dlgp_union_raw(src: &str) -> Result<Vec<Vec<RawConjunct>>, ParseQueryError> {
    let mut cur = Cursor::new(src);
    let mut rules = Vec::new();
    loop {
        cur.skip_trivia(true);
        if cur.is_empty() {
            return Ok(rules);
        }
        cur.eat_str("?-");
        cur.skip_trivia(true);
        // `?- .` is the empty (always-true) disjunct.
        if cur.eat('.') {
            rules.push(Vec::new());
            continue;
        }
        let mut conjs = Vec::new();
        loop {
            conjs.push(dlgp_conjunct(&mut cur)?);
            cur.skip_trivia(true);
            if cur.eat('.') || cur.is_empty() {
                break;
            }
            if cur.eat(',') || cur.eat('&') || cur.eat('∧') {
                cur.skip_trivia(true);
                if cur.is_empty() {
                    return cur.error("trailing separator");
                }
                continue;
            }
            // `;` (or `∨`) splits disjuncts within one rule:
            // `?- e(X, Y) ; f(X).` is a two-disjunct union. Variables
            // are scoped per disjunct, as in every UCQ formalism.
            if cur.eat(';') || cur.eat('∨') {
                cur.skip_trivia(true);
                if cur.is_empty() {
                    return cur.error("trailing separator");
                }
                rules.push(std::mem::take(&mut conjs));
                continue;
            }
            return cur.error(format!("expected ',', ';' or '.' before {:?}", cur.preview()));
        }
        rules.push(conjs);
    }
}

/// Resolves a lexed union against `schema`, one disjunct per rule.
fn resolve_union(
    src: &str,
    rules: Vec<Vec<RawConjunct>>,
    schema: &Arc<Schema>,
) -> Result<UnionQuery, ParseQueryError> {
    let disjuncts = rules.into_iter().map(|raw| resolve(src, raw, schema));
    Ok(UnionQuery::new(disjuncts.collect::<Result<_, _>>()?))
}

/// Parses a DLGP union of queries against an existing schema: one
/// period-terminated rule per disjunct. The empty source is the empty
/// union (evaluates to 0 everywhere).
pub fn parse_dlgp_union(schema: &Arc<Schema>, src: &str) -> Result<UnionQuery, ParseQueryError> {
    resolve_union(src, dlgp_union_raw(src)?, schema)
}

/// Parses a DLGP union of queries, inferring one shared schema across
/// all disjuncts (relations with their arities, constants).
pub fn parse_dlgp_union_infer(src: &str) -> Result<(UnionQuery, Arc<Schema>), ParseQueryError> {
    let (rules, schema) = infer(src, dlgp_union_raw)?;
    Ok((resolve_union(src, rules, &schema)?, schema))
}

/// Parses the `small` and `big` union payloads of a check frame over one
/// schema: `small`'s relations and constants, then `big`'s new ones.
/// Each payload is lexed and resolved once.
///
/// On failure the index names the payload at fault (0 = `small`,
/// 1 = `big`). Errors come in this order: `small`'s syntax, a relation
/// used with two arities within `small`, the same two for `big`, then a
/// relation whose arity differs between the two, reported at `big`'s
/// atom.
pub fn parse_dlgp_union_pair(
    small: &str,
    big: &str,
) -> Result<(UnionQuery, UnionQuery, Arc<Schema>), (usize, ParseQueryError)> {
    let small_raw = lex(small, dlgp_union_raw).map_err(|e| (0, e))?;
    let big_raw = lex(big, dlgp_union_raw).map_err(|e| (1, e))?;
    let mut sb = SchemaBuilder::default();
    declare(&mut sb, &small_raw);
    declare(&mut sb, &big_raw);
    let schema = sb.build();
    let small = resolve_union(small, small_raw, &schema).map_err(|e| (0, e))?;
    let big = resolve_union(big, big_raw, &schema).map_err(|e| (1, e))?;
    Ok((small, big, schema))
}

/// Serializes a union into DLGP syntax, one rule line per disjunct,
/// round-trippable through [`parse_dlgp_union`]. The empty union
/// serializes to the empty string.
pub fn union_to_dlgp(u: &UnionQuery) -> String {
    let mut out = String::new();
    for q in u.disjuncts() {
        out.push_str(&query_to_dlgp(q));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Bag instances
// ---------------------------------------------------------------------------

/// One ground fact with a multiplicity (`p(a,b)@3`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BagFact {
    /// Relation name.
    pub rel: String,
    /// Constant names, one per argument position.
    pub args: Vec<String>,
    /// Multiplicity (≥ 1; `@k` sugar, default 1).
    pub mult: u64,
}

impl fmt::Display for BagFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.args.iter().map(|a| render_const(a)).collect();
        write!(f, "{}({})", self.rel, args.join(", "))?;
        if self.mult != 1 {
            write!(f, "@{}", self.mult)?;
        }
        write!(f, ".")
    }
}

/// A database under bag semantics: ground facts with multiplicities,
/// kept in input order so serialization round-trips exactly.
///
/// Evaluation runs on the **set support** (see the module docs); the
/// collapsed [`Structure`] is produced by [`parse_bag_instance`],
/// [`parse_bag_instance_infer`] or [`parse_dlgp_count`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BagInstance {
    /// The facts, in input order; the same ground atom may repeat.
    pub facts: Vec<BagFact>,
}

impl BagInstance {
    /// Sum of all multiplicities (the bag cardinality).
    pub fn total_multiplicity(&self) -> u64 {
        self.facts.iter().map(|f| f.mult).sum()
    }

    /// Number of *distinct* ground atoms (the support cardinality).
    pub fn distinct_fact_count(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.facts.iter().filter(|f| seen.insert((&f.rel, &f.args))).count()
    }

    /// A canonical form: duplicate facts merged (multiplicities summed)
    /// and sorted. Two instances with the same bag of facts normalize
    /// identically.
    pub fn normalized(&self) -> BagInstance {
        let mut merged: Vec<BagFact> = Vec::new();
        let mut index: HashMap<(String, Vec<String>), usize> = HashMap::new();
        for f in &self.facts {
            let key = (f.rel.clone(), f.args.clone());
            match index.get(&key) {
                Some(&i) => merged[i].mult += f.mult,
                None => {
                    index.insert(key, merged.len());
                    merged.push(f.clone());
                }
            }
        }
        merged.sort();
        BagInstance { facts: merged }
    }

    /// Serializes to DLGP text, one fact per line, round-trippable
    /// through [`parse_bag_instance`].
    pub fn to_dlgp(&self) -> String {
        let mut out = String::new();
        for f in &self.facts {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out
    }
}

/// Parses the raw fact list, without schema resolution. Also records the
/// position of each fact's relation token for later error reporting.
fn bag_raw(src: &str) -> Result<Vec<(BagFact, usize)>, ParseQueryError> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    loop {
        cur.skip_trivia(true);
        if cur.is_empty() {
            return Ok(out);
        }
        let rel_pos = cur.pos;
        let Some(rel) = cur.ident() else {
            return cur.error(format!("expected a fact at {:?}", cur.preview()));
        };
        cur.skip_trivia(true);
        if !cur.eat('(') {
            return cur.error(format!("expected '(' after relation {rel}"));
        }
        let mut args = Vec::new();
        loop {
            let t = dlgp_term(&mut cur)?;
            match t.kind {
                RawTermKind::Const(name) => args.push(name),
                RawTermKind::Var(name) => {
                    return cur.error_at(
                        t.pos,
                        format!("facts must be ground: {name} is a variable (uppercase)"),
                    );
                }
            }
            cur.skip_trivia(true);
            if cur.eat(',') {
                continue;
            }
            if cur.eat(')') {
                break;
            }
            return cur.error(format!("expected ',' or ')' in fact {rel} at {:?}", cur.preview()));
        }
        cur.skip_trivia(true);
        let mut mult: u64 = 1;
        if cur.eat('@') {
            let mult_pos = cur.pos;
            let digits: String = cur.rest().chars().take_while(|c| c.is_ascii_digit()).collect();
            if digits.is_empty() {
                return cur.error("expected a multiplicity after '@'");
            }
            cur.pos += digits.len();
            mult = match digits.parse::<u64>() {
                Ok(0) => return cur.error_at(mult_pos, "multiplicity must be ≥ 1"),
                Ok(k) => k,
                Err(_) => return cur.error_at(mult_pos, "multiplicity does not fit in u64"),
            };
        }
        cur.skip_trivia(true);
        if !cur.eat('.') {
            return cur.error(format!("expected '.' after fact at {:?}", cur.preview()));
        }
        out.push((BagFact { rel: rel.to_string(), args, mult }, rel_pos));
    }
}

/// A database's facts.
impl Vocabulary for Vec<(BagFact, usize)> {
    fn atoms(&self) -> impl Iterator<Item = (&str, usize, usize)> {
        self.iter().map(|(f, rel_pos)| (f.rel.as_str(), *rel_pos, f.args.len()))
    }

    fn constants(&self) -> impl Iterator<Item = &str> {
        self.iter().flat_map(|(f, _)| f.args.iter().map(String::as_str))
    }
}

/// Resolves lexed facts against `schema`: the bag view and its set
/// support.
fn resolve_bag(
    src: &str,
    raw: Vec<(BagFact, usize)>,
    schema: &Arc<Schema>,
) -> Result<(BagInstance, Structure), ParseQueryError> {
    let mut d = Structure::new(Arc::clone(schema));
    let mut buf: Vec<Vertex> = Vec::new();
    let mut facts = Vec::with_capacity(raw.len());
    for (f, rel_pos) in raw {
        let r = relation_id(schema, src, &f.rel, rel_pos, f.args.len())?;
        buf.clear();
        for a in &f.args {
            buf.push(d.constant_vertex(constant_id(schema, src, a, rel_pos)?));
        }
        d.add_atom(r, &buf);
        facts.push(f);
    }
    Ok((BagInstance { facts }, d))
}

/// Parses a DLGP bag database against an existing schema, returning both
/// the faithful bag view and its set support for evaluation.
pub fn parse_bag_instance(
    schema: &Arc<Schema>,
    src: &str,
) -> Result<(BagInstance, Structure), ParseQueryError> {
    resolve_bag(src, bag_raw(src)?, schema)
}

/// Parses a DLGP bag database, inferring the schema (relations with
/// their arities, constants from the fact arguments).
pub fn parse_bag_instance_infer(
    src: &str,
) -> Result<(BagInstance, Structure, Arc<Schema>), ParseQueryError> {
    let (raw, schema) = infer(src, bag_raw)?;
    let (bag, support) = resolve_bag(src, raw, &schema)?;
    Ok((bag, support, schema))
}

/// The query and data payloads of a count frame, parsed over one schema
/// by [`parse_dlgp_count`].
#[derive(Debug)]
pub struct DlgpCount {
    /// The query, resolved against [`DlgpCount::schema`].
    pub query: Query,
    /// The bag view of the database (faithful multiplicities).
    pub bag: BagInstance,
    /// The set support the count runs on.
    pub support: Structure,
    /// The data's relations and constants, then the query's new ones.
    pub schema: Arc<Schema>,
}

/// Parses the query and data payloads of a count frame over one schema,
/// so query constants can name database vertices. Each payload is lexed
/// and resolved once.
///
/// On failure the index names the payload at fault (0 = query, 1 =
/// data). Errors come in this order: the query's syntax, a relation used
/// with two arities within the query, the same two for the data, then a
/// relation whose arity differs between the two, reported at the
/// query's atom.
pub fn parse_dlgp_count(query: &str, data: &str) -> Result<DlgpCount, (usize, ParseQueryError)> {
    let query_raw = lex(query, dlgp_query_raw).map_err(|e| (0, e))?;
    let data_raw = lex(data, bag_raw).map_err(|e| (1, e))?;
    let mut sb = SchemaBuilder::default();
    declare(&mut sb, &data_raw);
    declare(&mut sb, &query_raw);
    let schema = sb.build();
    let query = resolve(query, query_raw, &schema).map_err(|e| (0, e))?;
    let (bag, support) = resolve_bag(data, data_raw, &schema).map_err(|e| (1, e))?;
    Ok(DlgpCount { query, bag, support, schema })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_with_case_convention() {
        let (q, s) = parse_dlgp_query_infer("?- p(X, Y), q(Y, a), X != Y.").unwrap();
        assert_eq!(q.var_count(), 2);
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.inequalities().len(), 1);
        assert_eq!(s.constant_count(), 1);
        assert!(s.constant_by_name("a").is_some());
    }

    #[test]
    fn prefix_and_period_are_optional() {
        let (a, _) = parse_dlgp_query_infer("?- p(X, Y).").unwrap();
        let (b, _) = parse_dlgp_query_infer("p(X, Y)").unwrap();
        assert_eq!(a.atoms().len(), b.atoms().len());
        assert_eq!(a.var_count(), b.var_count());
    }

    #[test]
    fn comments_are_skipped() {
        let (q, _) = parse_dlgp_query_infer(
            "% a path query\n?- e(X, Y), # inline tail comment\n   e(Y, Z).",
        )
        .unwrap();
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.var_count(), 3);
    }

    #[test]
    fn quoted_and_numeric_constants() {
        let (q, s) = parse_dlgp_query_infer("?- p(\"Hello World\", 42, x1).").unwrap();
        assert_eq!(q.var_count(), 0);
        assert_eq!(s.constant_count(), 3);
        assert!(s.constant_by_name("Hello World").is_some());
        assert!(s.constant_by_name("42").is_some());
        assert!(s.constant_by_name("x1").is_some());
    }

    #[test]
    fn underscore_initial_is_a_variable() {
        let (q, _) = parse_dlgp_query_infer("?- p(_x, Y).").unwrap();
        assert_eq!(q.var_count(), 2);
    }

    #[test]
    fn empty_query_forms() {
        for src in ["", "  ", "?- .", "% only a comment\n"] {
            let (q, _) = parse_dlgp_query_infer(src).unwrap();
            assert_eq!(q.atoms().len(), 0, "src {src:?}");
        }
    }

    #[test]
    fn query_round_trips() {
        let src = "?- p(X, Y), q(Y, a), r(\"Weird Name\", 7), X != Y.";
        let (q, s) = parse_dlgp_query_infer(src).unwrap();
        let text = query_to_dlgp(&q);
        let back = parse_dlgp_query(&s, &text).unwrap();
        assert_eq!(q, back, "text: {text}");
        assert_eq!(text, src);
    }

    #[test]
    fn query_serializer_mangles_invalid_names() {
        // Internal names like `x` (from the classic syntax) are not valid
        // DLGP variables; the serializer renames them but preserves
        // structure.
        let (q, s) = crate::parse::parse_query_infer("E(x,y), E(y,z), x != z").unwrap();
        let text = query_to_dlgp(&q);
        let back = parse_dlgp_query(&s, &text).unwrap();
        assert_eq!(q.atoms(), back.atoms());
        assert_eq!(q.inequalities().len(), back.inequalities().len());
        assert_eq!(q.var_count(), back.var_count());
    }

    #[test]
    fn union_round_trips_preserving_disjunct_count() {
        let src = "?- p(X, Y), q(Y, a).\n?- p(X, X).\n?- q(X, Y), X != Y.\n";
        let (u, s) = parse_dlgp_union_infer(src).unwrap();
        assert_eq!(u.len(), 3);
        let text = union_to_dlgp(&u);
        let back = parse_dlgp_union(&s, &text).unwrap();
        assert_eq!(back.len(), u.len());
        for (a, b) in u.disjuncts().iter().zip(back.disjuncts()) {
            assert_eq!(a, b, "text:\n{text}");
        }
        assert_eq!(text, src);
    }

    #[test]
    fn semicolon_splits_disjuncts_within_a_rule() {
        // `;` inside one rule is the inline union syntax; equivalent to
        // one rule per disjunct. Variables are scoped per disjunct.
        let (u, s) = parse_dlgp_union_infer("?- e(X, Y) ; f(X).").unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.disjuncts()[0].atoms().len(), 1);
        assert_eq!(u.disjuncts()[1].atoms().len(), 1);
        let (v, _) = parse_dlgp_union_infer("?- e(X, Y).\n?- f(X).").unwrap();
        assert_eq!(u.disjuncts(), v.disjuncts());
        // Mixed forms and multi-atom disjuncts compose.
        let (w, _) = parse_dlgp_union_infer("?- e(X, Y), e(Y, Z) ; f(X).\n?- e(A, A).").unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.disjuncts()[0].atoms().len(), 2);
        // The serializer's one-rule-per-line output still round-trips.
        let back = parse_dlgp_union(&s, &union_to_dlgp(&u)).unwrap();
        assert_eq!(back.disjuncts(), u.disjuncts());
        // A trailing `;` is an error, as with every other separator.
        assert!(parse_dlgp_union_infer("?- e(X, Y) ;").is_err());
    }

    #[test]
    fn union_empty_and_single_forms() {
        // Empty source ↔ empty union.
        let (u, _) = parse_dlgp_union_infer("").unwrap();
        assert!(u.is_empty());
        assert_eq!(union_to_dlgp(&u), "");
        // An empty disjunct is preserved.
        let (u, _) = parse_dlgp_union_infer("?- .\n?- p(X).").unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.disjuncts()[0].atoms().len(), 0);
        // A single rule parses as a one-disjunct union, final period
        // optional.
        let (u, _) = parse_dlgp_union_infer("?- p(X, Y)").unwrap();
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn union_shares_one_schema_and_rejects_arity_conflicts() {
        let (u, s) = parse_dlgp_union_infer("?- p(X, b).\n?- p(Y, c).").unwrap();
        assert_eq!(s.constant_count(), 2);
        for q in u.disjuncts() {
            assert!(Arc::ptr_eq(q.schema(), &s));
        }
        assert!(parse_dlgp_union_infer("?- p(X).\n?- p(X, Y).").is_err());
    }

    #[test]
    fn parses_bag_instance_with_multiplicities() {
        let (bag, d, s) = parse_bag_instance_infer("p(a, b). p(a, b). q(b)@3.").unwrap();
        assert_eq!(bag.facts.len(), 3);
        assert_eq!(bag.total_multiplicity(), 5);
        assert_eq!(bag.distinct_fact_count(), 2);
        // The support collapses the duplicate p(a,b).
        let p = s.relation_by_name("p").unwrap();
        let q = s.relation_by_name("q").unwrap();
        assert_eq!(d.atom_count(p), 1);
        assert_eq!(d.atom_count(q), 1);
        assert_eq!(s.constant_count(), 2);
    }

    #[test]
    fn bag_round_trips() {
        let src = "p(a, b).\np(a, b).\nq(b)@3.\nr(\"Weird Name\", 42).\n";
        let (bag, _, s) = parse_bag_instance_infer(src).unwrap();
        assert_eq!(bag.to_dlgp(), src);
        let (back, _) = parse_bag_instance(&s, &bag.to_dlgp()).unwrap();
        assert_eq!(bag, back);
    }

    #[test]
    fn normalized_merges_and_sorts() {
        let (bag, _, _) = parse_bag_instance_infer("q(b). p(a, b)@2. p(a, b).").unwrap();
        let n = bag.normalized();
        assert_eq!(n.facts.len(), 2);
        assert_eq!(n.facts[0].rel, "p");
        assert_eq!(n.facts[0].mult, 3);
        assert_eq!(n.total_multiplicity(), bag.total_multiplicity());
        // Normalization is canonical: permuted input normalizes equally.
        let (bag2, _, _) = parse_bag_instance_infer("p(a, b)@3. q(b).").unwrap();
        assert_eq!(bag2.normalized(), n);
    }

    #[test]
    fn bag_errors_have_positions() {
        // Variables in facts are rejected, pointing at the variable.
        let e = parse_bag_instance_infer("p(a, X).").unwrap_err();
        assert_eq!((e.line, e.col), (1, 6), "{e}");
        assert!(e.message.contains("ground"), "{e}");

        // Missing period.
        let e = parse_bag_instance_infer("p(a, b)").unwrap_err();
        assert!(e.message.contains("'.'"), "{e}");

        // Bad multiplicities.
        assert!(parse_bag_instance_infer("p(a)@0.").is_err());
        assert!(parse_bag_instance_infer("p(a)@.").is_err());
        assert!(parse_bag_instance_infer("p(a)@99999999999999999999999.").is_err());

        // Arity conflicts across facts point at the offending fact (line 2).
        let e = parse_bag_instance_infer("p(a, b).\np(a).").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn query_against_schema_rejects_unknowns() {
        let (_, _, s) = parse_bag_instance_infer("e(a, b).").unwrap();
        assert!(parse_dlgp_query(&s, "?- e(X, Y).").is_ok());
        assert!(parse_dlgp_query(&s, "?- f(X, Y).").is_err());
        assert!(parse_dlgp_query(&s, "?- e(X).").is_err());
        assert!(parse_dlgp_query(&s, "?- e(X, zz).").is_err());
    }

    #[test]
    fn counts_run_on_the_support() {
        // Bag multiplicities do not change |Hom(ψ, D)| — the paper's
        // databases are set structures; answer counts carry the bag.
        let (q, _) = parse_dlgp_query_infer("?- e(X, Y).").unwrap();
        let (_, d1, s1) = parse_bag_instance_infer("e(a, b).").unwrap();
        let (_, d5, s5) = parse_bag_instance_infer("e(a, b)@5.").unwrap();
        assert_eq!(s1, s5);
        assert_eq!(d1, d5);
        assert_eq!(q.atoms().len(), 1);
    }
}
