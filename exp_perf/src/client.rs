//! The benchmark's own HTTP client: one process, [`CONNECTIONS`] threads,
//! one keep-alive connection each, built on the public
//! [`write_request_with_headers`]/[`read_response`] codec. The loop is
//! closed: each connection sends its next request when the previous
//! answer has arrived.
//!
//! Every request carries `X-Body-Crc` and a unique `Idempotency-Key`.
//! Every response's `X-Body-Crc` is checked and its body is compared with
//! the frame's [`Expect`](crate::oracle::Expect). Latencies are kept
//! exactly, one per request; a failed request is stored as `+∞`.

use crate::oracle::{expect, verify};
use crate::plan::Frame;
use crate::stats::us;
use bagcq_serve::http::{crc32, read_response, write_request_with_headers, HttpLimits};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Client threads, each with one keep-alive connection.
pub const CONNECTIONS: usize = 2;
/// The open tenant's API key.
pub const API_KEY: &str = "bench-key";
/// No client thread waits longer than this on one socket operation.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Failure reasons kept per phase for the report.
const MAX_REASONS: usize = 8;

/// What one list of requests observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-request latency in µs, in no particular order; `+∞` marks a
    /// failed request.
    pub latencies_us: Vec<f64>,
    /// Per-request client turnaround in µs: the send time minus the
    /// previous answer's arrival on the same connection.
    pub lag_us: Vec<f64>,
    /// Requests that failed: transport errors, bad checksums, unexpected
    /// statuses (sheds included), wrong answers.
    pub failed: u64,
    /// The subset of `failed` that got a 200 or 400 with the wrong body:
    /// the server answered, and answered wrongly.
    pub wrong: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// From the first send to the last answer.
    pub wall: Duration,
}

impl Phase {
    /// Requests answered correctly.
    pub fn completed(&self) -> u64 {
        self.latencies_us.len() as u64 - self.failed
    }

    fn merge(&mut self, other: Phase) {
        self.latencies_us.extend(other.latencies_us);
        self.lag_us.extend(other.lag_us);
        self.failed += other.failed;
        self.wrong += other.wrong;
        for r in other.reasons {
            if self.reasons.len() < MAX_REASONS {
                self.reasons.push(r);
            }
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let writer = stream.try_clone()?;
    Ok(Conn { reader: BufReader::new(stream), writer })
}

/// One request over `slot` (reconnecting when it is empty). `Err` is a
/// failure reason and whether the server answered wrongly.
fn exchange(
    slot: &mut Option<Conn>,
    addr: SocketAddr,
    frame: &Frame,
    idem_key: String,
    buf: &mut Vec<u8>,
) -> Result<(), (String, bool)> {
    let transport = |what: &str, e: &dyn std::fmt::Display| (format!("{what}: {e}"), false);
    if slot.is_none() {
        *slot = Some(connect(addr).map_err(|e| transport("connect", &e))?);
    }
    let conn = slot.as_mut().expect("connection is live");
    buf.clear();
    let extra = [("Idempotency-Key", idem_key), ("X-Body-Crc", frame.crc.clone())];
    write_request_with_headers(buf, "POST", frame.path, API_KEY, frame.body.as_bytes(), &extra)
        .expect("writing into a Vec cannot fail");
    if let Err(e) = conn.writer.write_all(buf) {
        *slot = None;
        return Err(transport("write", &e));
    }
    let response = match read_response(&mut conn.reader, &HttpLimits::default()) {
        Ok(Some(r)) => r,
        Ok(None) => {
            *slot = None;
            return Err(("connection closed before the answer".into(), false));
        }
        Err(e) => {
            *slot = None;
            return Err(transport("read", &e.detail()));
        }
    };
    if !response.keep_alive() {
        *slot = None;
    }
    let crc_ok = response
        .header("x-body-crc")
        .is_some_and(|v| u32::from_str_radix(v.trim(), 16) == Ok(crc32(&response.body)));
    if !crc_ok {
        return Err(("response failed its X-Body-Crc check".into(), false));
    }
    verify(expect(frame), response.status, &response.body).map_err(|why| {
        let wrong = matches!(response.status, 200 | 400);
        let head = String::from_utf8_lossy(&response.body[..response.body.len().min(120)]);
        (format!("{why} (status {}): {head:?}", response.status), wrong)
    })
}

/// Sends `frames` over [`CONNECTIONS`] connections; connection `k` sends
/// the frames at indices `k, k + CONNECTIONS, …`. Each request opens a
/// `bench.request` span whose fingerprint is its index (free when tracing
/// is off). Idempotency keys are `{key_prefix}-{index}`.
pub fn send(addr: SocketAddr, frames: &[Arc<Frame>], key_prefix: &str) -> Phase {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let (start, ends) = thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let slot = connect(addr).ok();
                    barrier.wait();
                    worker(addr, frames, k, key_prefix, slot)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<(Phase, Instant)> =
            workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect();
        (start, results)
    });
    let mut out = Phase { latencies_us: Vec::with_capacity(frames.len()), ..Phase::default() };
    let mut last = start;
    for (phase, end) in ends {
        last = last.max(end);
        out.merge(phase);
    }
    out.wall = last.saturating_duration_since(start);
    out
}

fn worker(
    addr: SocketAddr,
    frames: &[Arc<Frame>],
    k: usize,
    key_prefix: &str,
    mut slot: Option<Conn>,
) -> (Phase, Instant) {
    let mine = frames.len().saturating_sub(k).div_ceil(CONNECTIONS);
    let mut phase = Phase {
        latencies_us: Vec::with_capacity(mine),
        lag_us: Vec::with_capacity(mine),
        ..Phase::default()
    };
    let mut buf = Vec::with_capacity(4096);
    let mut prev_done = Instant::now();
    for i in (k..frames.len()).step_by(CONNECTIONS) {
        let _span = bagcq_obs::span_fp("bench.request", "wire", i as u128);
        let sent = Instant::now();
        let result = exchange(&mut slot, addr, &frames[i], format!("{key_prefix}-{i}"), &mut buf);
        let done = Instant::now();
        phase.lag_us.push(us(sent.saturating_duration_since(prev_done)));
        match result {
            Ok(()) => phase.latencies_us.push(us(done - sent)),
            Err((reason, wrong)) => {
                phase.latencies_us.push(f64::INFINITY);
                phase.failed += 1;
                phase.wrong += u64::from(wrong);
                if phase.reasons.len() < MAX_REASONS {
                    phase.reasons.push(format!("request {i}: {reason}"));
                }
            }
        }
        prev_done = done;
    }
    (phase, prev_done)
}
