//! Independent correctness oracles.
//!
//! Each frame's expected answer is worked out in-process from the values
//! the frame was generated from, never from the server's parse:
//!
//! * counts are recounted with the reference kernel of the *other*
//!   family than the one `Auto` resolves to (two independent algorithms);
//! * verdicts are recomputed with [`CheckRequest`] under the frame's
//!   [`bagcq_containment::SearchBudget`], and set-semantics verdicts are
//!   also compared against [`set_contained`] (Chandra–Merlin, all/any for
//!   unions).
//!
//! Frames the workload does not sample get a shape check (status, kind,
//! echoed fields) instead of a value check.

use crate::plan::{Case, Frame};
use bagcq_arith::Nat;
use bagcq_containment::{set_contained, CheckRequest, CheckSpec, Semantics, Verdict};
use bagcq_homcount::{BackendChoice, CountRequest, Engine};
use bagcq_query::Query;
use bagcq_serve::WireResponse;
use bagcq_structure::Structure;

/// What a correct server answers to one frame.
#[derive(Debug)]
pub enum Expect {
    /// A 200 whose body is exactly this.
    Exact(String),
    /// A 200 count frame: this prefix, then a decimal count line.
    CountShape(String),
    /// A 200 check frame: this prefix, then a verdict label line.
    CheckShape(String),
    /// A typed 400 from the wire parser (`parse` or `frame`).
    Typed400,
}

/// The frame's expectation, computed on first use.
///
/// # Panics
///
/// When an in-process oracle disagrees with itself (a set-semantics
/// verdict that contradicts Chandra–Merlin): that is a bug in the
/// program under test, found before any request is sent.
pub fn expect(frame: &Frame) -> &Expect {
    frame.expect.get_or_init(|| match &frame.case {
        Case::Count { query, data, bag_total, support_atoms, verify } => {
            if *verify {
                let count = reference_count(query, data);
                let response = WireResponse::Count {
                    backend: BackendChoice::Auto,
                    bag_total: *bag_total,
                    support_atoms: *support_atoms,
                    count,
                };
                Expect::Exact(response.render())
            } else {
                Expect::CountShape(format!(
                    "ok: count\nbackend: auto\nbag-total: {bag_total}\nsupport-atoms: {support_atoms}\ncount: "
                ))
            }
        }
        Case::Check { spec, verify } => {
            if *verify {
                let verdict = in_process_verdict(spec);
                let response = WireResponse::Check {
                    semantics: spec.semantics,
                    containment: spec.resolved_choice(),
                    verdict: verdict_label(&verdict).to_string(),
                    detail: verdict.to_string().replace('\n', " "),
                };
                Expect::Exact(response.render())
            } else {
                Expect::CheckShape(format!(
                    "ok: check\nsemantics: {}\ncontainment: {}\nverdict: ",
                    spec.semantics,
                    spec.resolved_choice()
                ))
            }
        }
        Case::Malformed => Expect::Typed400,
    })
}

/// `|Hom(query, data)|` from the reference (`Nat`) kernel of the family
/// `Auto` does *not* pick.
pub fn reference_count(query: &Query, data: &Structure) -> Nat {
    let other = match BackendChoice::Auto.resolve(query, data).family() {
        Engine::Naive => BackendChoice::Treewidth,
        Engine::Treewidth => BackendChoice::Naive,
    };
    CountRequest::new(query, data).backend(other).count()
}

/// The verdict an in-process [`CheckRequest`] reaches on `spec`, checked
/// against Chandra–Merlin when the semantics is set.
pub fn in_process_verdict(spec: &CheckSpec) -> Verdict {
    let verdict = CheckRequest::union(spec.q_s.clone(), spec.q_b.clone())
        .semantics(spec.semantics)
        .containment(spec.choice)
        .budget(spec.budget.clone())
        .check()
        .expect("generated checks are supported");
    if spec.semantics == Semantics::Set {
        let contained = spec
            .q_s
            .disjuncts()
            .iter()
            .all(|p| spec.q_b.disjuncts().iter().any(|q| set_contained(p, q)));
        assert!(
            matches!(verdict, Verdict::Proved(_) | Verdict::Refuted(_)),
            "set semantics must decide"
        );
        assert_eq!(
            verdict.is_proved(),
            contained,
            "CheckRequest and set_contained disagree on {} ⊑set {}",
            spec.q_s,
            spec.q_b
        );
    }
    verdict
}

/// The wire's machine label for a verdict.
pub fn verdict_label(v: &Verdict) -> &'static str {
    match v {
        Verdict::Proved(_) => "proved",
        Verdict::Refuted(_) => "refuted",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Checks one response against its expectation; `Err` names the
/// mismatch.
pub fn verify(expect: &Expect, status: u16, body: &[u8]) -> Result<(), &'static str> {
    let ok_status = |want: u16| if status == want { Ok(()) } else { Err("unexpected status") };
    match expect {
        Expect::Exact(want) => {
            ok_status(200)?;
            if body == want.as_bytes() {
                Ok(())
            } else {
                Err("wrong answer")
            }
        }
        Expect::CountShape(prefix) => {
            ok_status(200)?;
            let rest = body.strip_prefix(prefix.as_bytes()).ok_or("wrong count frame")?;
            match rest.split_last() {
                Some((b'\n', digits))
                    if !digits.is_empty() && digits.iter().all(u8::is_ascii_digit) =>
                {
                    Ok(())
                }
                _ => Err("wrong count frame"),
            }
        }
        Expect::CheckShape(prefix) => {
            ok_status(200)?;
            let rest = body.strip_prefix(prefix.as_bytes()).ok_or("wrong check frame")?;
            let labelled = [&b"proved\ndetail: "[..], b"refuted\ndetail: ", b"unknown\ndetail: "]
                .iter()
                .any(|l| rest.starts_with(l));
            if labelled && body.ends_with(b"\n") {
                Ok(())
            } else {
                Err("wrong check frame")
            }
        }
        Expect::Typed400 => {
            ok_status(400)?;
            if body.starts_with(b"error: parse\n") || body.starts_with(b"error: frame\n") {
                Ok(())
            } else {
                Err("untyped 400")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_accept_well_formed_frames_only() {
        let count = Expect::CountShape("ok: count\ncount: ".into());
        assert!(verify(&count, 200, b"ok: count\ncount: 42\n").is_ok());
        assert!(verify(&count, 200, b"ok: count\ncount: \n").is_err());
        assert!(verify(&count, 200, b"ok: count\ncount: 4x\n").is_err());
        assert!(verify(&count, 503, b"ok: count\ncount: 42\n").is_err());
        let check = Expect::CheckShape("ok: check\nverdict: ".into());
        assert!(verify(&check, 200, b"ok: check\nverdict: unknown\ndetail: x\n").is_ok());
        assert!(verify(&check, 200, b"ok: check\nverdict: maybe\ndetail: x\n").is_err());
        assert!(verify(&Expect::Typed400, 400, b"error: parse\ndetail: x\n").is_ok());
        assert!(verify(&Expect::Typed400, 400, b"error: shed\ndetail: x\n").is_err());
        assert!(verify(&Expect::Exact("a".into()), 200, b"b").is_err());
    }
}
