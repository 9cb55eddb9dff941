//! # bagcq-serve — the network front door
//!
//! A std-only (zero external dependencies) serving layer that puts the
//! bag-semantics evaluation engine behind a TCP socket:
//!
//! * [`http`] — a minimal HTTP/1.1 codec: request line + headers +
//!   `Content-Length` bodies, keep-alive, typed errors for every
//!   malformed frame (no panics, no hangs);
//! * [`wire`] — the DLGP-style text protocol: `query:`/`data:` (or
//!   `small:`/`big:`) sections carrying conjunctive queries and bag
//!   databases (`e(a, b)@3.`), plus the newline-delimited response
//!   frames with an exact parse/serialize round trip;
//! * [`server`] — the threaded front door itself: tenant API keys,
//!   token-bucket quotas and in-flight caps (typed 429s), engine-backed
//!   `/v1/count` and `/v1/check`, `/metrics` with per-tenant counters,
//!   and a drain-then-shutdown admin endpoint;
//! * [`loadgen`] — a seeded closed-loop load generator that replays
//!   mixed workloads and verifies **bit-identical** answers against the
//!   in-process counting path.
//!
//! ## One request, end to end
//!
//! ```text
//! POST /v1/count HTTP/1.1
//! X-Api-Key: dev-key
//! Content-Length: 60
//!
//! query:
//!   ?- e(X, Y), e(Y, Z).
//! data:
//!   e(a, b)@2.
//!   e(b, c).
//! ```
//!
//! answers
//!
//! ```text
//! HTTP/1.1 200 OK
//!
//! ok: count
//! backend: auto
//! bag-total: 3
//! support-atoms: 2
//! count: 1
//! ```
//!
//! Multiplicities (`@2`) ride along faithfully in the [`wire`] layer
//! (`bag-total` is their sum) while evaluation runs on the set support,
//! exactly as the paper defines `ψ(D)` on ordinary structures — bag
//! semantics lives in the *answer counts*, not the database encoding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod http;
pub mod loadgen;
mod retry;
pub mod server;
pub mod wire;

pub use bagcq_engine::{DrainReport, TenantQuota, TenantSpec};
pub use bagcq_obs::SplitMix64;
pub use chaos::{ChaosTransport, Conn, ConnFault, NetFaultInjector, NetFaultKind, NetFaultPlan};
pub use http::{HttpError, HttpLimits, HttpRequest, HttpResponse};
pub use loadgen::{plan_requests, LoadgenConfig, LoadgenReport, PlannedRequest, WorkloadMix};
pub use retry::RetryPolicy;
pub use server::{Server, ServerConfig};
pub use wire::{
    parse_check_request, parse_count_request, parse_response, CheckJob, CountJob, WireError,
    WireResponse,
};
