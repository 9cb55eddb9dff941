//! The request/response frames of the serve protocol.
//!
//! Request bodies are newline-delimited text with section headers; the
//! payload sections are DLGP (see [`bagcq_query::parse_dlgp_query`] and
//! [`bagcq_query::parse_bag_instance`]):
//!
//! ```text
//! backend: auto
//! query:
//! ?- e(X, Y).
//! data:
//! e(a, b)@2.
//! e(b, c).
//! ```
//!
//! A containment check frame uses `small:` / `big:` sections instead,
//! each holding a DLGP **union** payload (`?- e(X, Y) ; f(X).` — `;`
//! separates disjuncts; a plain CQ is the one-disjunct union), plus
//! optional `semantics: set|bag` and `containment: <choice>` headers
//! selecting the [`bagcq_containment::ContainmentChoice`]. A
//! combination no backend can serve answers a typed 400 whose kind is
//! `unsupported_semantics`. Responses are newline-delimited
//! `key: value` text whose first line is `ok: <kind>` or
//! `error: <kind>`:
//!
//! ```text
//! ok: count
//! backend: auto
//! bag-total: 3
//! support-atoms: 2
//! count: 4
//! ```
//!
//! A frame's two payload sections share one schema. Each request parser
//! makes one call into `bagcq-query` ([`bagcq_query::parse_dlgp_count`]
//! or [`bagcq_query::parse_dlgp_union_pair`]), which lexes and resolves
//! each section once; a payload error comes back tagged with its
//! section, and `reposition` maps it to the body's line and column.
//!
//! Every frame type round-trips: [`WireResponse::render`] ∘
//! [`parse_response`] is the identity (the proptest suite pins this),
//! and the DLGP payload sections round-trip through
//! [`bagcq_query::query_to_dlgp`] / [`BagInstance::to_dlgp`].

use bagcq_arith::Nat;
use bagcq_containment::{CheckSpec, ContainmentChoice, Semantics, Unsupported};
use bagcq_homcount::BackendChoice;
use bagcq_query::{
    parse_dlgp_count, parse_dlgp_union_pair, BagInstance, DlgpCount, ParseQueryError, Query,
};
use bagcq_structure::{Schema, Structure};
use std::fmt;
use std::sync::Arc;

/// Why a request frame was rejected (all map to HTTP 400).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame structure is wrong: missing/duplicate/unknown section,
    /// bad backend name.
    Frame(String),
    /// A DLGP payload failed to parse; carries the positioned error,
    /// rendered **verbatim** (caret snippet included) into the 400 body.
    Parse(ParseQueryError),
    /// The requested `semantics`/`containment` combination cannot serve
    /// this payload (e.g. a pinned CQ-pair backend on a real union, or a
    /// set-semantics backend asked for a non-trivial multiplier). Maps
    /// to the typed `unsupported_semantics` 400.
    Unsupported(Unsupported),
}

impl WireError {
    /// The response body for this error.
    pub fn to_response(&self) -> WireResponse {
        match self {
            WireError::Frame(m) => WireResponse::error("frame", m.clone()),
            WireError::Parse(e) => WireResponse::error("parse", e.render()),
            WireError::Unsupported(u) => WireResponse::error_with_reason(
                "unsupported_semantics",
                u.backend.label(),
                u.to_string(),
            ),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Frame(m) => write!(f, "frame error: {m}"),
            WireError::Parse(e) => write!(f, "{e}"),
            WireError::Unsupported(u) => write!(f, "{u}"),
        }
    }
}

impl From<ParseQueryError> for WireError {
    fn from(e: ParseQueryError) -> Self {
        WireError::Parse(e)
    }
}

// ---------------------------------------------------------------------------
// Request frames
// ---------------------------------------------------------------------------

const SECTIONS: &[&str] = &["backend", "query", "data", "small", "big", "semantics", "containment"];

/// One extracted section, with enough positioning to map payload parse
/// errors back to the **request body's** lines and columns.
struct Section {
    name: String,
    content: String,
    /// Whether any content line has been appended yet.
    started: bool,
    /// 1-based body line holding content line 1.
    start_line: u32,
    /// Character-column offset of content line 1 within its body line
    /// (nonzero only for inline `name: content` sections).
    inline_col: u32,
    /// The full body line holding content line 1 (caret re-alignment
    /// for inline sections).
    first_line: String,
}

/// Splits a request body into its sections. A section starts at a line
/// `name:` (optionally with inline content after the colon) where `name`
/// is one of the known section keywords; its content runs to the next
/// section header.
fn split_sections(body: &str) -> Result<Vec<Section>, WireError> {
    let mut out: Vec<Section> = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let header = line.split_once(':').and_then(|(name, rest)| {
            let name = name.trim();
            SECTIONS.contains(&name).then_some((name.to_string(), rest))
        });
        match header {
            Some((name, rest)) => {
                if out.iter().any(|s| s.name == name) {
                    return Err(WireError::Frame(format!("duplicate section {name:?}")));
                }
                let inline = rest.trim();
                if inline.is_empty() {
                    out.push(Section {
                        name,
                        content: String::new(),
                        started: false,
                        start_line: lineno + 1,
                        inline_col: 0,
                        first_line: String::new(),
                    });
                } else {
                    let byte_off = line.len() - rest.len() + (rest.len() - rest.trim_start().len());
                    out.push(Section {
                        name,
                        content: inline.to_string(),
                        started: true,
                        start_line: lineno,
                        inline_col: line[..byte_off].chars().count() as u32,
                        first_line: line.to_string(),
                    });
                }
            }
            None => match out.last_mut() {
                Some(section) => {
                    if section.started {
                        section.content.push('\n');
                        section.content.push_str(line);
                    } else {
                        section.started = true;
                        section.start_line = lineno;
                        section.content.push_str(line);
                    }
                }
                None => {
                    if !line.trim().is_empty() {
                        return Err(WireError::Frame(format!(
                            "expected a section header ({}), got {line:?}",
                            SECTIONS.join("/")
                        )));
                    }
                }
            },
        }
    }
    Ok(out)
}

fn take_section<'a>(sections: &'a [Section], name: &str) -> Option<&'a Section> {
    sections.iter().find(|s| s.name == name)
}

/// Maps a section-relative parse error to body coordinates, so the 400
/// body's `line N, column C` (and caret) point into the request the
/// client actually sent.
fn reposition(mut e: ParseQueryError, section: &Section) -> WireError {
    if e.line == 1 && section.inline_col > 0 {
        e.col += section.inline_col;
        e.src_line = section.first_line.clone();
    }
    e.line += section.start_line.saturating_sub(1);
    WireError::Parse(e)
}

/// A parsed, schema-resolved count request, ready to submit.
#[derive(Debug)]
pub struct CountJob {
    /// The query, resolved against [`CountJob::schema`].
    pub query: Query,
    /// The bag view of the database (faithful multiplicities).
    pub bag: BagInstance,
    /// The set support the count runs on.
    pub support: Arc<Structure>,
    /// Requested backend.
    pub backend: BackendChoice,
    /// The schema of both payloads: the instance's vocabulary, then the
    /// query's new relations and constants.
    pub schema: Arc<Schema>,
}

/// A parsed, schema-resolved containment-check request. Both sides are
/// unions (a plain CQ is the one-disjunct union); the spec carries the
/// requested semantics and backend choice and has already passed
/// [`CheckSpec::validate`], so submitting it cannot hit an unsupported
/// combination.
#[derive(Debug)]
pub struct CheckJob {
    /// The validated check spec (`q_s`, `q_b`, semantics, choice).
    pub spec: CheckSpec,
    /// The schema both sides are resolved against: `small`'s
    /// vocabulary, then `big`'s new relations and constants.
    pub schema: Arc<Schema>,
}

/// Parses a `/v1/count` body: `backend:` (optional), `query:`, `data:`.
pub fn parse_count_request(body: &str) -> Result<CountJob, WireError> {
    let sections = split_sections(body)?;
    for s in &sections {
        if s.name == "small" || s.name == "big" {
            return Err(WireError::Frame(format!(
                "section {:?} is not valid in a count frame",
                s.name
            )));
        }
    }
    let backend = match take_section(&sections, "backend") {
        None => BackendChoice::Auto,
        Some(s) => s.content.trim().parse::<BackendChoice>().map_err(WireError::Frame)?,
    };
    let query_sec = take_section(&sections, "query")
        .ok_or(WireError::Frame("missing section query:".into()))?;
    let data_sec =
        take_section(&sections, "data").ok_or(WireError::Frame("missing section data:".into()))?;
    let DlgpCount { query, bag, support, schema } =
        parse_dlgp_count(&query_sec.content, &data_sec.content)
            .map_err(|(i, e)| reposition(e, [query_sec, data_sec][i]))?;
    Ok(CountJob { query, bag, support: Arc::new(support), backend, schema })
}

/// Parses a `/v1/check` body: `small:` and `big:` DLGP union payloads
/// (disjuncts separated by `;` within a rule, or one rule per line),
/// plus optional `semantics: set|bag` (default `bag`) and
/// `containment: <choice>` (default `auto`) headers. The returned job's
/// spec has passed [`CheckSpec::validate`]; a combination no backend
/// can serve is the typed [`WireError::Unsupported`] 400.
pub fn parse_check_request(body: &str) -> Result<CheckJob, WireError> {
    let sections = split_sections(body)?;
    for s in &sections {
        if s.name == "query" || s.name == "data" || s.name == "backend" {
            return Err(WireError::Frame(format!(
                "section {:?} is not valid in a check frame",
                s.name
            )));
        }
    }
    let semantics = match take_section(&sections, "semantics") {
        None => Semantics::default(),
        Some(s) => s.content.trim().parse::<Semantics>().map_err(WireError::Frame)?,
    };
    let choice = match take_section(&sections, "containment") {
        None => ContainmentChoice::Auto,
        Some(s) => s.content.trim().parse::<ContainmentChoice>().map_err(WireError::Frame)?,
    };
    let small_sec = take_section(&sections, "small")
        .ok_or(WireError::Frame("missing section small:".into()))?;
    let big_sec =
        take_section(&sections, "big").ok_or(WireError::Frame("missing section big:".into()))?;
    let (q_small, q_big, schema) = parse_dlgp_union_pair(&small_sec.content, &big_sec.content)
        .map_err(|(i, e)| reposition(e, [small_sec, big_sec][i]))?;
    let mut spec = CheckSpec::union(q_small, q_big);
    spec.semantics = semantics;
    spec.choice = choice;
    spec.validate().map_err(WireError::Unsupported)?;
    Ok(CheckJob { spec, schema })
}

// ---------------------------------------------------------------------------
// Response frames
// ---------------------------------------------------------------------------

/// A serve response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// A successful count: `ψ(D) = |Hom(ψ, supp(D))|`.
    Count {
        /// Backend the request asked for.
        backend: BackendChoice,
        /// Bag cardinality of the submitted instance (Σ multiplicities).
        bag_total: u64,
        /// Distinct atoms in the evaluated support.
        support_atoms: u64,
        /// The count.
        count: Nat,
    },
    /// A containment verdict.
    Check {
        /// Semantics the request asked for (`set` or `bag`).
        semantics: Semantics,
        /// The backend that produced the verdict (the *resolved*
        /// choice — never `auto`).
        containment: ContainmentChoice,
        /// Machine label: `proved`, `refuted`, or `unknown`.
        verdict: String,
        /// The full human-readable verdict line(s).
        detail: String,
    },
    /// A typed error. `kind` is a stable machine label; `detail` is the
    /// human-readable payload (for `parse` errors: the caret-snippet
    /// rendering, verbatim).
    Error {
        /// Stable machine label (`parse`, `frame`, `auth`, `shed`,
        /// `timeout`, `panic`, `not_found`, `corrupt` —
        /// a request body failed its `X-Body-Crc` integrity check;
        /// retryable, since the retry re-sends intact bytes —
        /// `slow_client` — the connection was evicted for trickling
        /// past the read deadline — …).
        kind: String,
        /// Optional machine detail (e.g. the [`ShedReason`] label for
        /// `shed`). Empty when unused.
        ///
        /// [`ShedReason`]: bagcq_engine::ShedReason
        reason: String,
        /// Human-readable detail, possibly multi-line.
        detail: String,
    },
}

impl WireResponse {
    /// A typed error with no machine reason.
    pub fn error(kind: impl Into<String>, detail: impl Into<String>) -> Self {
        WireResponse::Error { kind: kind.into(), reason: String::new(), detail: detail.into() }
    }

    /// A typed error with a machine reason (e.g. a shed label).
    pub fn error_with_reason(
        kind: impl Into<String>,
        reason: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        WireResponse::Error { kind: kind.into(), reason: reason.into(), detail: detail.into() }
    }

    /// Serializes the frame ([`parse_response`] inverts this exactly).
    pub fn render(&self) -> String {
        match self {
            WireResponse::Count { backend, bag_total, support_atoms, count } => format!(
                "ok: count\nbackend: {backend}\nbag-total: {bag_total}\nsupport-atoms: {support_atoms}\ncount: {count}\n"
            ),
            WireResponse::Check { semantics, containment, verdict, detail } => format!(
                "ok: check\nsemantics: {semantics}\ncontainment: {containment}\nverdict: {verdict}\ndetail: {detail}\n"
            ),
            WireResponse::Error { kind, reason, detail } => {
                let mut out = format!("error: {kind}\n");
                if !reason.is_empty() {
                    out.push_str(&format!("reason: {reason}\n"));
                }
                out.push_str(&format!("detail: {detail}\n"));
                out
            }
        }
    }

    /// `true` for [`WireResponse::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, WireResponse::Error { .. })
    }
}

fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let prefix = format!("{key}: ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .ok_or_else(|| format!("response is missing field {key:?}"))
}

/// Everything after the first `detail: ` marker, minus the trailing
/// newline — `detail` is always the last field, so multi-line payloads
/// (caret snippets, verdict counterexamples) survive.
fn detail_field(text: &str) -> Result<String, String> {
    let marker = "\ndetail: ";
    let start = match text.find(marker) {
        Some(i) => i + marker.len(),
        None => return Err("response is missing field \"detail\"".into()),
    };
    let mut detail = &text[start..];
    if let Some(stripped) = detail.strip_suffix('\n') {
        detail = stripped;
    }
    Ok(detail.to_string())
}

/// Parses a response frame (the load generator's validation path).
pub fn parse_response(text: &str) -> Result<WireResponse, String> {
    let first = text.lines().next().unwrap_or("");
    match first.split_once(": ") {
        Some(("ok", "count")) => {
            let backend = field(text, "backend")?.parse::<BackendChoice>()?;
            let bag_total =
                field(text, "bag-total")?.parse::<u64>().map_err(|e| format!("bag-total: {e}"))?;
            let support_atoms = field(text, "support-atoms")?
                .parse::<u64>()
                .map_err(|e| format!("support-atoms: {e}"))?;
            let count = field(text, "count")?
                .parse::<Nat>()
                .map_err(|_| "count is not a decimal natural".to_string())?;
            Ok(WireResponse::Count { backend, bag_total, support_atoms, count })
        }
        Some(("ok", "check")) => Ok(WireResponse::Check {
            semantics: field(text, "semantics")?.parse::<Semantics>()?,
            containment: field(text, "containment")?.parse::<ContainmentChoice>()?,
            verdict: field(text, "verdict")?.to_string(),
            detail: detail_field(text)?,
        }),
        Some(("error", kind)) => Ok(WireResponse::Error {
            kind: kind.to_string(),
            reason: field(text, "reason").map(str::to_string).unwrap_or_default(),
            detail: detail_field(text)?,
        }),
        _ => Err(format!("bad response first line {first:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_homcount::CountRequest;

    const COUNT_BODY: &str = "backend: naive\nquery:\n?- e(X, Y).\ndata:\ne(a, b)@2.\ne(b, c).\n";

    #[test]
    fn count_frame_parses_and_counts() {
        let job = parse_count_request(COUNT_BODY).unwrap();
        assert_eq!(job.backend, BackendChoice::Naive);
        assert_eq!(job.bag.total_multiplicity(), 3);
        assert_eq!(job.query.var_count(), 2);
        let n = CountRequest::new(&job.query, &job.support).backend(job.backend).count();
        assert_eq!(n, Nat::from_u64(2), "two distinct e-edges in the support");
    }

    #[test]
    fn inline_sections_work() {
        let job = parse_count_request("query: ?- e(X, Y).\ndata: e(a, b).").unwrap();
        assert_eq!(job.bag.facts.len(), 1);
        assert_eq!(job.backend, BackendChoice::Auto, "backend defaults to auto");
    }

    #[test]
    fn query_constants_join_the_instance_vocabulary() {
        // `b` appears only in the query; `a` only in the data. The merged
        // schema resolves both.
        let job = parse_count_request("query: ?- e(X, b).\ndata: e(a, b).").unwrap();
        assert_eq!(job.schema.constant_count(), 2);
        let n = CountRequest::new(&job.query, &job.support).count();
        assert_eq!(n, Nat::one());
    }

    #[test]
    fn frame_errors_are_typed() {
        for (body, needle) in [
            ("data: e(a).", "missing section query:"),
            ("query: ?- e(X, Y).", "missing section data:"),
            ("query: a\nquery: b\ndata: c", "duplicate section"),
            ("hello world", "expected a section header"),
            ("backend: warp\nquery: ?- .\ndata: e(a).", "unknown backend"),
            ("small: ?- .\nquery: ?- .\ndata: e(a).", "not valid in a count frame"),
        ] {
            match parse_count_request(body) {
                Err(WireError::Frame(m)) => assert!(m.contains(needle), "{m:?} vs {needle:?}"),
                other => {
                    panic!("expected frame error {needle:?}, got {other:?}", other = other.err())
                }
            }
        }
    }

    #[test]
    fn payload_errors_carry_carets() {
        let e = parse_count_request("query:\n?- e(X Y).\ndata:\ne(a, b).\n").unwrap_err();
        let WireError::Parse(pe) = e else { panic!("expected a parse error, got {e:?}") };
        let rendered = pe.render();
        assert!(rendered.contains('^'), "{rendered}");
        assert!(rendered.contains("line 2"), "{rendered}");
    }

    #[test]
    fn arity_conflict_between_query_and_data_is_positioned() {
        let e = parse_count_request("query:\n?- e(X).\ndata:\ne(a, b).\n").unwrap_err();
        let WireError::Parse(pe) = e else { panic!("expected a parse error, got {e:?}") };
        assert!(pe.message.contains("arity"), "{pe}");
    }

    #[test]
    fn check_frame_parses() {
        let job = parse_check_request("small:\n?- e(X, Y).\nbig:\n?- e(X, Y), e(Y, Z).\n").unwrap();
        assert_eq!(job.spec.q_s.disjuncts()[0].atoms().len(), 1);
        assert_eq!(job.spec.q_b.disjuncts()[0].atoms().len(), 2);
        assert_eq!(job.spec.semantics, Semantics::Bag, "semantics defaults to bag");
        assert_eq!(job.spec.choice, ContainmentChoice::Auto, "containment defaults to auto");
        assert!(Arc::ptr_eq(
            job.spec.q_s.disjuncts()[0].schema(),
            job.spec.q_b.disjuncts()[0].schema()
        ));
        assert!(parse_check_request("small: ?- .").is_err());
        assert!(parse_check_request("small: ?- .\nbig: ?- .\ndata: e(a).").is_err());
    }

    #[test]
    fn check_frame_headers_and_unions() {
        let body = "semantics: set\ncontainment: set-ucq\nsmall:\n?- e(X, Y) ; f(X).\nbig:\n?- e(X, Y).\n?- f(Z).\n";
        let job = parse_check_request(body).unwrap();
        assert_eq!(job.spec.semantics, Semantics::Set);
        assert_eq!(job.spec.choice, ContainmentChoice::SetUcq);
        assert_eq!(job.spec.q_s.len(), 2, "`;` splits disjuncts");
        assert_eq!(job.spec.q_b.len(), 2, "one rule per line splits disjuncts");
        assert_eq!(job.spec.resolved_choice(), ContainmentChoice::SetUcq);
    }

    #[test]
    fn unsupported_semantics_is_typed() {
        // A CQ-pair-only backend pinned onto a real union.
        let body = "containment: bag-search\nsmall:\n?- e(X, Y) ; f(X).\nbig:\n?- e(X, Y).\n";
        let e = parse_check_request(body).unwrap_err();
        let WireError::Unsupported(u) = &e else { panic!("expected unsupported, got {e:?}") };
        assert_eq!(u.backend, ContainmentChoice::BagSearch);
        let rendered = e.to_response().render();
        assert!(rendered.starts_with("error: unsupported_semantics\n"), "{rendered}");
        assert!(rendered.contains("reason: bag-search"), "{rendered}");
        // Semantics × choice mismatch is the same typed error.
        let e2 = parse_check_request(
            "semantics: bag\ncontainment: set-chandra-merlin\nsmall: ?- e(X, Y).\nbig: ?- e(X, Y).",
        )
        .unwrap_err();
        assert!(matches!(e2, WireError::Unsupported(_)), "{e2:?}");
        // An unknown semantics label is a frame error, not a parse crash.
        let e3 = parse_check_request("semantics: tri-valued\nsmall: ?- e(X, Y).\nbig: ?- e(X, Y).")
            .unwrap_err();
        assert!(matches!(e3, WireError::Frame(_)), "{e3:?}");
    }

    #[test]
    fn responses_round_trip() {
        let frames = [
            WireResponse::Count {
                backend: BackendChoice::Treewidth,
                bag_total: 7,
                support_atoms: 3,
                count: "340282366920938463463374607431768211456".parse().unwrap(),
            },
            WireResponse::Check {
                semantics: Semantics::Set,
                containment: ContainmentChoice::SetUcq,
                verdict: "refuted".into(),
                detail: "REFUTED (…)\nwith a second line".into(),
            },
            WireResponse::error("parse", "query parse error …\n  |  e(\n  |    ^"),
            WireResponse::error_with_reason("shed", "quota_exceeded", "tenant over quota"),
        ];
        for frame in frames {
            let text = frame.render();
            let back = parse_response(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(frame, back, "text:\n{text}");
        }
    }

    #[test]
    fn malformed_responses_are_errors() {
        for text in ["", "ok: nope\n", "ok: count\nbackend: auto\n", "hello"] {
            assert!(parse_response(text).is_err(), "{text:?}");
        }
    }
}
