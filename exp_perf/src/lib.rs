//! # exp_perf — end-to-end and per-layer benchmark of `bagcq serve`
//!
//! Starts `bagcq_serve::Server` in-process on loopback and drives it from
//! one process with two client connections, using four seeded workloads
//! ([`plan::Workload`]). Untraced runs report what a user of the server
//! sees (exact median latency, CPU time per request, memory growth,
//! set-up time); traced runs replay requests layer by layer and write a
//! Chrome trace. Every answer is checked against independent in-process
//! oracles. See `PERF.md` for the workloads, the metrics and how to read
//! them.

#![forbid(unsafe_code)]

mod client;
pub mod metrics;
mod oracle;
pub mod plan;
mod replay;
pub mod run;
pub mod stats;
