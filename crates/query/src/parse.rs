//! A small text syntax for conjunctive queries.
//!
//! ```text
//!     E(x, y), E(y, z), S1('a', x), x != z
//! ```
//!
//! * atoms are `Rel(t1, …, tk)` with relation names `[A-Za-z_][A-Za-z0-9_]*`;
//! * terms are variables (bare identifiers) or constants (single-quoted);
//! * `t != t'` adds an inequality atom;
//! * conjuncts are separated by `,` or `&` or `∧`.
//!
//! Two entry points: [`parse_query`] parses against an existing schema
//! (relations and constants must exist, arities must match), and
//! [`parse_query_infer`] additionally *builds* the schema from what it
//! sees — convenient for CLI use and tests. The inferring parsers here
//! and in [`crate::dlgp`] share one set of steps, run once per payload:
//! lex, check that each relation keeps one arity, declare the vocabulary
//! into a builder (shared by a wire frame's payloads; the first arity
//! wins), build the schema, resolve. Resolving reports an arity that
//! differs between two payloads.
//!
//! Errors carry the **line/column** of the offending token and can render
//! a caret-style snippet ([`ParseQueryError::render`]) — the serving
//! layer returns these verbatim in `400` responses, so a client sees
//! exactly where its frame went wrong.

use crate::query::{Query, QueryBuilder, Term};
use bagcq_structure::{ConstId, RelId, Schema, SchemaBuilder};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error from the query parser (also used by the DLGP wire syntax of
/// [`crate::parse_dlgp_query`]): a message plus the 1-based line/column it points at
/// and the offending source line, so callers can render a caret snippet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueryError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// 1-based line of the offending position.
    pub line: u32,
    /// 1-based column (in characters) of the offending position.
    pub col: u32,
    /// The full source line the error points into (caret rendering).
    pub src_line: String,
}

impl ParseQueryError {
    /// Builds an error pointing at byte `offset` of `src`.
    pub(crate) fn at(src: &str, offset: usize, message: impl Into<String>) -> Self {
        let offset = offset.min(src.len());
        let before = &src[..offset];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let line = before.matches('\n').count() as u32 + 1;
        let col = src[line_start..offset].chars().count() as u32 + 1;
        let src_line = src[line_start..].lines().next().unwrap_or("").to_string();
        ParseQueryError { message: message.into(), line, col, src_line }
    }

    /// A two-line caret snippet pointing at the error column:
    ///
    /// ```text
    ///   |  E(x y)
    ///   |      ^
    /// ```
    pub fn caret_snippet(&self) -> String {
        let pad: String =
            self.src_line.chars().take(self.col.saturating_sub(1) as usize).map(|_| ' ').collect();
        format!("  |  {}\n  |  {pad}^", self.src_line)
    }

    /// The full multi-line rendering: position, message, caret snippet.
    pub fn render(&self) -> String {
        format!(
            "query parse error at line {}, column {}: {}\n{}",
            self.line,
            self.col,
            self.message,
            self.caret_snippet()
        )
    }
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at line {}, column {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseQueryError {}

/// A shared scanning cursor over the source text, tracking the byte
/// offset so every error carries an exact position. Used by this module
/// and the DLGP wire syntax ([`crate::dlgp`]).
pub(crate) struct Cursor<'a> {
    pub(crate) src: &'a str,
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    pub(crate) fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// Skips whitespace (and, when `comments` is set, `%`/`#` line
    /// comments — the DLGP syntax allows them, the inline query syntax
    /// has no use for them but tolerates them harmlessly).
    pub(crate) fn skip_trivia(&mut self, comments: bool) {
        loop {
            let rest = self.rest();
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if comments && (trimmed.starts_with('%') || trimmed.starts_with('#')) {
                match trimmed.find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.src.len(),
                }
                continue;
            }
            return;
        }
    }

    pub(crate) fn eat(&mut self, ch: char) -> bool {
        if self.rest().starts_with(ch) {
            self.pos += ch.len_utf8();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_str(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Scans an identifier `[A-Za-z_][A-Za-z0-9_]*`; `None` (without
    /// advancing) when the cursor is not at one.
    pub(crate) fn ident(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        let mut end = 0;
        for (i, ch) in rest.char_indices() {
            let ok = if i == 0 {
                ch.is_ascii_alphabetic() || ch == '_'
            } else {
                ch.is_ascii_alphanumeric() || ch == '_'
            };
            if !ok {
                break;
            }
            end = i + ch.len_utf8();
        }
        if end == 0 {
            None
        } else {
            let name = &rest[..end];
            self.pos += end;
            Some(name)
        }
    }

    pub(crate) fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseQueryError> {
        Err(ParseQueryError::at(self.src, self.pos, message))
    }

    pub(crate) fn error_at<T>(
        &self,
        offset: usize,
        message: impl Into<String>,
    ) -> Result<T, ParseQueryError> {
        Err(ParseQueryError::at(self.src, offset, message))
    }

    /// A short preview of the unparsed input, for error messages.
    pub(crate) fn preview(&self) -> String {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .take_while(|&(i, c)| i < 24 && c != '\n')
            .last()
            .map_or(0, |(i, c)| i + c.len_utf8());
        if end < rest.trim_end().len() {
            format!("{}…", &rest[..end])
        } else {
            rest[..end].to_string()
        }
    }
}

/// A parsed conjunct before schema resolution. Offsets point into the
/// source so resolution errors (unknown relation, arity mismatch) carry
/// positions too.
#[derive(Debug, Clone)]
pub(crate) enum RawConjunct {
    Atom { rel: String, rel_pos: usize, args: Vec<RawTerm> },
    Neq([RawTerm; 2]),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawTerm {
    pub(crate) kind: RawTermKind,
    pub(crate) pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RawTermKind {
    Var(String),
    Const(String),
}

/// Tokenizes and parses the surface syntax into raw conjuncts.
fn parse_raw(src: &str) -> Result<Vec<RawConjunct>, ParseQueryError> {
    let mut out = Vec::new();
    let mut cur = Cursor::new(src);
    cur.skip_trivia(false);
    if cur.is_empty() {
        return Ok(out);
    }
    loop {
        out.push(parse_conjunct(&mut cur)?);
        cur.skip_trivia(false);
        if cur.is_empty() {
            return Ok(out);
        }
        // Separator.
        if cur.eat(',') || cur.eat('&') || cur.eat('∧') {
            cur.skip_trivia(false);
            if cur.is_empty() {
                return cur.error("trailing separator");
            }
        } else {
            return cur.error(format!("expected ',' before {:?}", cur.preview()));
        }
    }
}

fn parse_term(cur: &mut Cursor<'_>) -> Result<RawTerm, ParseQueryError> {
    cur.skip_trivia(false);
    let pos = cur.pos;
    if cur.eat('\'') {
        let rest = cur.rest();
        let Some(close) = rest.find('\'') else {
            return cur.error_at(pos, "unterminated constant quote");
        };
        let name = &rest[..close];
        if name.is_empty() {
            return cur.error_at(pos, "empty constant name");
        }
        cur.pos += close + 1;
        return Ok(RawTerm { kind: RawTermKind::Const(name.to_string()), pos });
    }
    match cur.ident() {
        Some(name) => Ok(RawTerm { kind: RawTermKind::Var(name.to_string()), pos }),
        None => cur.error(format!("expected a term at {:?}", cur.preview())),
    }
}

fn parse_conjunct(cur: &mut Cursor<'_>) -> Result<RawConjunct, ParseQueryError> {
    cur.skip_trivia(false);
    // Try an atom first: identifier followed by '('.
    let start = cur.pos;
    if let Some(name) = cur.ident() {
        let rel_pos = start;
        cur.skip_trivia(false);
        if cur.eat('(') {
            let mut args = Vec::new();
            loop {
                args.push(parse_term(cur)?);
                cur.skip_trivia(false);
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
        // Not an atom: rewind and fall through to the inequality form.
        cur.pos = start;
    }
    // Otherwise an inequality `t != t'` (or `t ≠ t'`).
    let lhs = parse_term(cur)?;
    cur.skip_trivia(false);
    if !(cur.eat_str("!=") || cur.eat('≠')) {
        return cur.error(format!("expected '!=' at {:?}", cur.preview()));
    }
    let rhs = parse_term(cur)?;
    Ok(RawConjunct::Neq([lhs, rhs]))
}

/// What the check and declare steps need of a lexed payload: each atom's
/// relation, the offset of its token and its arity, and every constant
/// term, both in source order.
pub(crate) trait Vocabulary {
    /// `(relation, offset, arity)` of each atom.
    fn atoms(&self) -> impl Iterator<Item = (&str, usize, usize)>;
    /// The name of each constant term.
    fn constants(&self) -> impl Iterator<Item = &str>;
}

/// A query's conjuncts.
impl Vocabulary for Vec<RawConjunct> {
    fn atoms(&self) -> impl Iterator<Item = (&str, usize, usize)> {
        self.iter().filter_map(|c| match c {
            RawConjunct::Atom { rel, rel_pos, args } => Some((rel.as_str(), *rel_pos, args.len())),
            RawConjunct::Neq(_) => None,
        })
    }

    fn constants(&self) -> impl Iterator<Item = &str> {
        self.iter()
            .flat_map(|c| match c {
                RawConjunct::Atom { args, .. } => args.as_slice(),
                RawConjunct::Neq(pair) => pair.as_slice(),
            })
            .filter_map(|t| match &t.kind {
                RawTermKind::Const(name) => Some(name.as_str()),
                RawTermKind::Var(_) => None,
            })
    }
}

/// A union's rules, one conjunct list per disjunct.
impl Vocabulary for Vec<Vec<RawConjunct>> {
    fn atoms(&self) -> impl Iterator<Item = (&str, usize, usize)> {
        self.iter().flat_map(|rule| rule.atoms())
    }

    fn constants(&self) -> impl Iterator<Item = &str> {
        self.iter().flat_map(|rule| rule.constants())
    }
}

/// Lexes one payload and checks that each relation keeps one arity
/// within it: a use with a second arity fails at that use.
pub(crate) fn lex<R: Vocabulary>(
    src: &str,
    lexer: fn(&str) -> Result<R, ParseQueryError>,
) -> Result<R, ParseQueryError> {
    let raw = lexer(src)?;
    let mut arities: HashMap<&str, usize> = HashMap::new();
    for (rel, pos, n) in raw.atoms() {
        let prev = *arities.entry(rel).or_insert(n);
        if prev != n {
            let message = format!("relation {rel} used with arities {prev} and {n}");
            return Err(ParseQueryError::at(src, pos, message));
        }
    }
    Ok(raw)
}

/// Declares a lexed payload's relations and constants, in source order.
/// A relation already declared keeps its first arity: resolving the
/// payload then reports the conflict at its atom.
pub(crate) fn declare(sb: &mut SchemaBuilder, raw: &impl Vocabulary) {
    for (rel, _, arity) in raw.atoms() {
        let _ = sb.try_relation(rel, arity);
    }
    for name in raw.constants() {
        sb.constant(name);
    }
}

/// [`lex`] and [`declare`] for a lone payload: the lexed payload and the
/// schema of its own vocabulary, ready to resolve.
pub(crate) fn infer<R: Vocabulary>(
    src: &str,
    lexer: fn(&str) -> Result<R, ParseQueryError>,
) -> Result<(R, Arc<Schema>), ParseQueryError> {
    let raw = lex(src, lexer)?;
    let mut sb = SchemaBuilder::default();
    declare(&mut sb, &raw);
    Ok((raw, sb.build()))
}

/// Looks up relation `rel`, used with `arity` arguments at byte `pos` of
/// `src`.
pub(crate) fn relation_id(
    schema: &Schema,
    src: &str,
    rel: &str,
    pos: usize,
    arity: usize,
) -> Result<RelId, ParseQueryError> {
    let Some(r) = schema.relation_by_name(rel) else {
        return Err(ParseQueryError::at(src, pos, format!("unknown relation {rel}")));
    };
    if schema.arity(r) != arity {
        let message =
            format!("relation {rel} has arity {}, got {arity} arguments", schema.arity(r));
        return Err(ParseQueryError::at(src, pos, message));
    }
    Ok(r)
}

/// Looks up constant `name`, used at byte `pos` of `src`.
pub(crate) fn constant_id(
    schema: &Schema,
    src: &str,
    name: &str,
    pos: usize,
) -> Result<ConstId, ParseQueryError> {
    schema
        .constant_by_name(name)
        .ok_or_else(|| ParseQueryError::at(src, pos, format!("unknown constant {name}")))
}

/// Resolves a lexed query of either syntax against `schema`.
pub(crate) fn resolve(
    src: &str,
    raw: Vec<RawConjunct>,
    schema: &Arc<Schema>,
) -> Result<Query, ParseQueryError> {
    let mut qb = Query::builder(Arc::clone(schema));
    let term = |qb: &mut QueryBuilder, t: &RawTerm| -> Result<Term, ParseQueryError> {
        Ok(match &t.kind {
            RawTermKind::Var(name) => qb.var(name),
            RawTermKind::Const(name) => Term::Const(constant_id(schema, src, name, t.pos)?),
        })
    };
    for c in raw {
        match c {
            RawConjunct::Atom { rel, rel_pos, args } => {
                let r = relation_id(schema, src, &rel, rel_pos, args.len())?;
                let mut terms = Vec::with_capacity(args.len());
                for a in &args {
                    terms.push(term(&mut qb, a)?);
                }
                qb.atom(r, &terms);
            }
            RawConjunct::Neq([l, r]) => {
                let lt = term(&mut qb, &l)?;
                let rt = term(&mut qb, &r)?;
                qb.neq(lt, rt);
            }
        }
    }
    Ok(qb.build())
}

/// Parses a query against an existing schema.
pub fn parse_query(schema: &Arc<Schema>, src: &str) -> Result<Query, ParseQueryError> {
    resolve(src, parse_raw(src)?, schema)
}

/// Parses a query, inferring the schema (relations with their observed
/// arities, constants from quoted names). Inconsistent arities across
/// atoms are an error.
pub fn parse_query_infer(src: &str) -> Result<(Query, Arc<Schema>), ParseQueryError> {
    let (raw, schema) = infer(src, parse_raw)?;
    Ok((resolve(src, raw, &schema)?, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_structure::SchemaBuilder;

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.relation("T", 3);
        b.constant("a");
        b.build()
    }

    #[test]
    fn parses_simple_path() {
        let q = parse_query(&schema(), "E(x,y), E(y,z)").unwrap();
        assert_eq!(q.var_count(), 3);
        assert_eq!(q.atoms().len(), 2);
        assert!(q.is_pure());
    }

    #[test]
    fn parses_constants_and_inequalities() {
        let q = parse_query(&schema(), "E('a', x), x != y, T(x,y,'a')").unwrap();
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.inequalities().len(), 1);
        assert_eq!(q.constants_used().len(), 1);
    }

    #[test]
    fn alternative_separators() {
        let q = parse_query(&schema(), "E(x,y) & E(y,z) ∧ E(z,w)").unwrap();
        assert_eq!(q.atoms().len(), 3);
    }

    #[test]
    fn unicode_neq() {
        let q = parse_query(&schema(), "E(x,y), x ≠ y").unwrap();
        assert_eq!(q.inequalities().len(), 1);
    }

    #[test]
    fn error_cases() {
        let s = schema();
        assert!(parse_query(&s, "F(x)").is_err()); // unknown relation
        assert!(parse_query(&s, "E(x)").is_err()); // wrong arity
        assert!(parse_query(&s, "E(x,'zzz')").is_err()); // unknown constant
        assert!(parse_query(&s, "E(x,y),").is_err()); // trailing comma
        assert!(parse_query(&s, "E(x,y) E(y,z)").is_err()); // missing separator
        assert!(parse_query(&s, "x == y").is_err()); // not a conjunct
        assert!(parse_query(&s, "E(x,'unclosed)").is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let s = schema();
        // The unknown relation starts at line 2, column 9.
        let e = parse_query(&s, "E(x,y),\n        F(y,z)").unwrap_err();
        assert_eq!((e.line, e.col), (2, 9), "{e}");
        assert_eq!(e.src_line, "        F(y,z)");
        assert!(e.to_string().contains("line 2, column 9"), "{e}");

        // The bad arity points at the relation name.
        let e = parse_query(&s, "E(x,y,z)").unwrap_err();
        assert_eq!((e.line, e.col), (1, 1), "{e}");

        // The unknown constant points at the term, not the atom.
        let e = parse_query(&s, "E(x, 'zzz')").unwrap_err();
        assert_eq!((e.line, e.col), (1, 6), "{e}");

        // A missing separator points at the second atom.
        let e = parse_query(&s, "E(x,y) E(y,z)").unwrap_err();
        assert_eq!((e.line, e.col), (1, 8), "{e}");
    }

    #[test]
    fn caret_snippet_points_at_the_column() {
        let e = parse_query(&schema(), "E(x, 'zzz')").unwrap_err();
        let rendered = e.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3, "{rendered}");
        assert!(lines[0].starts_with("query parse error at line 1, column 6:"), "{rendered}");
        assert_eq!(lines[1], "  |  E(x, 'zzz')");
        assert_eq!(lines[2], "  |       ^");
        // The caret column in the snippet matches `col` (5 spaces + '^').
        let caret_col = lines[2].trim_start_matches("  |  ").len();
        assert_eq!(caret_col as u32, e.col);
    }

    #[test]
    fn empty_query_is_top() {
        let q = parse_query(&schema(), "   ").unwrap();
        assert_eq!(q.atoms().len(), 0);
        assert_eq!(q.var_count(), 0);
    }

    #[test]
    fn infer_builds_schema() {
        let (q, s) = parse_query_infer("Edge(x,y), Edge(y,z), Label('red', x)").unwrap();
        assert_eq!(s.relation_count(), 2);
        assert_eq!(s.arity(s.relation_by_name("Edge").unwrap()), 2);
        assert_eq!(s.constant_count(), 1);
        assert_eq!(q.atoms().len(), 3);
    }

    #[test]
    fn roundtrip_display_parse() {
        let s = schema();
        let q = parse_query(&s, "E(x,y), T(x,y,'a'), x != y").unwrap();
        let shown = q.to_string();
        let q2 = parse_query(&s, &shown.replace('∧', ",").replace('≠', "!=")).unwrap();
        assert_eq!(q.atoms(), q2.atoms());
        assert_eq!(q.inequalities().len(), q2.inequalities().len());
    }
}

#[cfg(test)]
mod infer_tests {
    use super::*;

    #[test]
    fn infer_rejects_arity_conflicts() {
        assert!(parse_query_infer("E(x,y), E(x,y,z)").is_err());
    }

    #[test]
    fn infer_collects_constants_from_inequalities() {
        let (_, s) = parse_query_infer("E(x,y), x != 'a'").unwrap();
        assert!(s.constant_by_name("a").is_some());
    }
}
