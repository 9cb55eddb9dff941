//! Deterministic, seedable **wire-level** fault injection.
//!
//! PR 2's [`bagcq_engine::FaultPlan`] stops at the engine boundary: it
//! crashes workers and stalls counting loops, but never touches a byte
//! on the network. This module is the same discipline applied to TCP. A
//! [`NetFaultPlan`] is a pure description of how often and which kinds
//! of connection faults to inject; a [`NetFaultInjector`] executes one
//! plan, drawing at most one fault per connection; a [`ChaosTransport`]
//! wraps a [`TcpStream`] (accept side in the server, connect side in the
//! load generator) and applies the drawn fault to the byte stream
//! itself.
//!
//! Decisions come from the engine's seeded [`FaultSchedule`] core, the
//! same one [`bagcq_engine::FaultInjector`] holds: a pure function of
//! `(seed, side, connection-sequence)` via SplitMix64, so re-running the
//! same single-threaded accept loop under the same plan faults the same
//! connections at the same byte offsets. Under concurrent connects only
//! the *assignment* of decisions to connections varies with scheduling —
//! which is what the chaos suite wants, since its invariant ("every 200
//! is bit-identical on every delivery, nothing hangs past its deadline,
//! no idempotent retry is double-charged") must hold under **any**
//! interleaving. Every fault is capped ([`NetFaultPlan::max_faults`],
//! [`NetFaultPlan::max_stalls`]) so chaotic workloads still terminate.
//!
//! The eight fault kinds cover the ways real connections die:
//!
//! | kind | wire effect |
//! |------|-------------|
//! | [`NetFaultKind::AcceptDelay`]  | bounded sleep before the first byte (slow accept/connect) |
//! | [`NetFaultKind::AbortRead`]    | RST-style reset after N inbound bytes (mid-request) |
//! | [`NetFaultKind::AbortWrite`]   | broken pipe after N outbound bytes (mid-response) |
//! | [`NetFaultKind::PrematureEof`] | clean EOF after N inbound bytes (truncated frame) |
//! | [`NetFaultKind::TrickleRead`]  | 1-byte reads with stalls (slow-loris client) |
//! | [`NetFaultKind::PartialWrite`] | tiny write chunks with flush stalls (torn writes) |
//! | [`NetFaultKind::CorruptRead`]  | one inbound byte XORed at offset N |
//! | [`NetFaultKind::CorruptWrite`] | one outbound byte XORed at offset N |
//!
//! Corruption is why every serve frame carries an `X-Body-Crc` header
//! (see [`crate::http::crc32`]): a single flipped byte can otherwise
//! turn one valid count into a *different* valid count, and no retry
//! policy can save a client that believes a wrong answer.

use bagcq_engine::FaultSchedule;
use bagcq_obs::splitmix64;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The kinds of connection fault an injector can fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Bounded sleep before the connection serves its first byte.
    AcceptDelay,
    /// Connection-reset error once N bytes have been read.
    AbortRead,
    /// Broken-pipe error once N bytes have been written.
    AbortWrite,
    /// Clean EOF once N bytes have been read (truncated frame: the peer
    /// sees a complete head and a short body).
    PrematureEof,
    /// Every read returns at most one byte, with a bounded stall between
    /// reads (a slow-loris peer, as seen from this end of the socket).
    TrickleRead,
    /// Writes are split into tiny chunks with a bounded stall between
    /// them (torn writes / stalled flushes).
    PartialWrite,
    /// One inbound byte, at offset N, is XORed with a nonzero mask.
    CorruptRead,
    /// One outbound byte, at offset N, is XORed with a nonzero mask.
    CorruptWrite,
}

/// Every kind, in the order used by the per-kind counters.
pub const ALL_NET_KINDS: [NetFaultKind; 8] = [
    NetFaultKind::AcceptDelay,
    NetFaultKind::AbortRead,
    NetFaultKind::AbortWrite,
    NetFaultKind::PrematureEof,
    NetFaultKind::TrickleRead,
    NetFaultKind::PartialWrite,
    NetFaultKind::CorruptRead,
    NetFaultKind::CorruptWrite,
];

impl NetFaultKind {
    /// Stable lowercase label (logs, metrics).
    pub fn label(self) -> &'static str {
        match self {
            NetFaultKind::AcceptDelay => "accept_delay",
            NetFaultKind::AbortRead => "abort_read",
            NetFaultKind::AbortWrite => "abort_write",
            NetFaultKind::PrematureEof => "premature_eof",
            NetFaultKind::TrickleRead => "trickle_read",
            NetFaultKind::PartialWrite => "partial_write",
            NetFaultKind::CorruptRead => "corrupt_read",
            NetFaultKind::CorruptWrite => "corrupt_write",
        }
    }
}

/// A seeded, declarative connection-fault schedule (the wire-level
/// sibling of [`bagcq_engine::FaultPlan`]).
#[derive(Clone, Debug)]
pub struct NetFaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability that a new connection draws a fault, in per-mille
    /// (`0..=1000`).
    pub rate_per_mille: u32,
    /// Hard cap on total faulted connections (`0` = unlimited). Chaos
    /// runs set this so a retrying client always terminates.
    pub max_faults: u64,
    /// Which kinds the plan may fire (empty = no faults at all).
    pub kinds: Vec<NetFaultKind>,
    /// Stall duration for trickle reads, partial writes, and accept
    /// delays; kept small so deadlines, not wall-clock patience, decide
    /// outcomes.
    pub stall: Duration,
    /// Cap on stalls per connection: after this many, a trickling or
    /// torn connection flows normally again.
    pub max_stalls: u32,
    /// Largest byte offset at which aborts / EOFs / corruption strike.
    /// Small serve frames mean offsets in the first few hundred bytes
    /// land mid-request-line, mid-headers, and mid-body alike.
    pub max_offset: u64,
}

impl NetFaultPlan {
    /// A plan with every fault kind enabled at a rate high enough that a
    /// few-hundred-connection run exercises all of them, capped so every
    /// retrying workload terminates.
    pub fn seeded(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            rate_per_mille: 250,
            max_faults: 96,
            kinds: ALL_NET_KINDS.to_vec(),
            stall: Duration::from_millis(2),
            max_stalls: 8,
            max_offset: 384,
        }
    }

    /// Keeps only the given kinds.
    pub fn with_kinds(mut self, kinds: &[NetFaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Sets the per-mille injection rate.
    pub fn with_rate_per_mille(mut self, rate: u32) -> Self {
        self.rate_per_mille = rate.min(1000);
        self
    }

    /// Sets the total fault cap (`0` = unlimited).
    pub fn with_max_faults(mut self, max: u64) -> Self {
        self.max_faults = max;
        self
    }

    /// Sets the stall duration.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }
}

/// One drawn fault: what strikes this connection, where, and (for
/// corruption) with which XOR mask. A pure function of the plan and the
/// connection's draw sequence, so any run is replayable from
/// `(plan, sequence)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnFault {
    /// What fires.
    pub kind: NetFaultKind,
    /// Byte offset (per direction) at which it fires.
    pub offset: u64,
    /// XOR mask for corruption kinds; always nonzero, so a corruption
    /// fault never degenerates into a no-op.
    pub mask: u8,
}

/// Executes a [`NetFaultPlan`]: decides, per connection, whether to
/// fault it and how, and keeps per-kind counters of what it injected.
#[derive(Debug)]
pub struct NetFaultInjector {
    plan: NetFaultPlan,
    schedule: FaultSchedule<NetFaultKind>,
}

impl NetFaultInjector {
    /// An injector executing `plan`, shareable across acceptor and
    /// client threads.
    pub fn new(plan: NetFaultPlan) -> Arc<Self> {
        let schedule =
            FaultSchedule::new(plan.seed, plan.rate_per_mille, plan.max_faults, &plan.kinds);
        Arc::new(NetFaultInjector { plan, schedule })
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Total faulted connections so far.
    pub fn injected(&self) -> u64 {
        self.schedule.fired()
    }

    /// Faults of one kind injected so far.
    pub fn injected_of(&self, kind: NetFaultKind) -> u64 {
        self.schedule.fired_of(kind)
    }

    /// Connections seen so far (faulted or not).
    pub fn connections(&self) -> u64 {
        self.schedule.draws()
    }

    /// Draws the decision for the next connection on `side` (a static
    /// label like `"accept"` or `"connect"`, decorrelating server-side
    /// and client-side schedules under one seed).
    pub fn draw(&self, side: &str) -> Option<ConnFault> {
        let (kind, h) = self.schedule.draw(side)?;
        let h2 = splitmix64(h);
        let offset = h2 % self.plan.max_offset.max(1);
        let mask = ((splitmix64(h2) % 255) + 1) as u8;
        Some(ConnFault { kind, offset, mask })
    }

    /// Wraps `stream` with this injector's next decision for `side`.
    pub fn wrap(&self, stream: TcpStream, side: &str) -> ChaosTransport {
        ChaosTransport::new(stream, self.draw(side), &self.plan)
    }

    /// One line per fired kind, for logs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "chaos-net: seed={} connections={} faulted={}",
            self.plan.seed,
            self.connections(),
            self.injected()
        );
        for kind in ALL_NET_KINDS {
            let n = self.injected_of(kind);
            if n > 0 {
                let _ = write!(out, " {}={n}", kind.label());
            }
        }
        out
    }
}

/// Per-connection fault state, shared between the read and write clones
/// of one [`ChaosTransport`] so byte offsets stay coherent across
/// `try_clone`.
#[derive(Debug)]
struct ConnChaos {
    fault: Option<ConnFault>,
    read_off: AtomicU64,
    write_off: AtomicU64,
    stalls: AtomicU32,
    stall: Duration,
    max_stalls: u32,
}

impl ConnChaos {
    /// Sleeps one bounded stall, up to the per-connection cap.
    fn stall_once(&self) {
        let allowed = self
            .stalls
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s < self.max_stalls).then_some(s + 1)
            })
            .is_ok();
        if allowed && !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
    }
}

/// A [`TcpStream`] with one [`ConnFault`] applied to its byte stream.
/// Cloning (for the usual reader/writer split) shares the fault state,
/// so offsets and stall caps are per *connection*, not per handle.
#[derive(Debug)]
pub struct ChaosTransport {
    stream: TcpStream,
    state: Arc<ConnChaos>,
}

impl ChaosTransport {
    /// Wraps `stream`, applying `fault` (an [`NetFaultKind::AcceptDelay`]
    /// fires right here, before the first byte).
    pub fn new(stream: TcpStream, fault: Option<ConnFault>, plan: &NetFaultPlan) -> Self {
        let state = Arc::new(ConnChaos {
            fault,
            read_off: AtomicU64::new(0),
            write_off: AtomicU64::new(0),
            stalls: AtomicU32::new(0),
            stall: plan.stall,
            max_stalls: plan.max_stalls,
        });
        if matches!(fault, Some(ConnFault { kind: NetFaultKind::AcceptDelay, .. })) {
            state.stall_once();
        }
        ChaosTransport { stream, state }
    }

    /// A second handle onto the same faulted connection.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(ChaosTransport { stream: self.stream.try_clone()?, state: Arc::clone(&self.state) })
    }

    /// The fault this connection drew, if any.
    pub fn fault(&self) -> Option<ConnFault> {
        self.state.fault
    }

    /// Passthrough to [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Passthrough to [`TcpStream::set_write_timeout`].
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(dur)
    }

    /// Passthrough to [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.stream.set_nodelay(on)
    }
}

impl Read for ChaosTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let state = Arc::clone(&self.state);
        let off = state.read_off.load(Ordering::Relaxed);
        let mut limit = buf.len();
        match state.fault {
            Some(ConnFault { kind: NetFaultKind::AbortRead, offset, .. }) => {
                if off >= offset {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "chaos-net: injected connection reset",
                    ));
                }
                limit = limit.min(usize::try_from(offset - off).unwrap_or(usize::MAX));
            }
            Some(ConnFault { kind: NetFaultKind::PrematureEof, offset, .. }) => {
                if off >= offset {
                    return Ok(0);
                }
                limit = limit.min(usize::try_from(offset - off).unwrap_or(usize::MAX));
            }
            Some(ConnFault { kind: NetFaultKind::TrickleRead, .. }) => {
                state.stall_once();
                limit = 1;
            }
            _ => {}
        }
        let n = self.stream.read(&mut buf[..limit])?;
        if let Some(ConnFault { kind: NetFaultKind::CorruptRead, offset, mask }) = state.fault {
            if offset >= off && offset < off + n as u64 {
                buf[(offset - off) as usize] ^= mask;
            }
        }
        state.read_off.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for ChaosTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let state = Arc::clone(&self.state);
        let off = state.write_off.load(Ordering::Relaxed);
        let mut limit = buf.len();
        match state.fault {
            Some(ConnFault { kind: NetFaultKind::AbortWrite, offset, .. }) => {
                if off >= offset {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "chaos-net: injected broken pipe",
                    ));
                }
                limit = limit.min(usize::try_from(offset - off).unwrap_or(usize::MAX));
            }
            Some(ConnFault { kind: NetFaultKind::PartialWrite, .. }) => {
                state.stall_once();
                limit = limit.min(7);
            }
            _ => {}
        }
        let n = match state.fault {
            Some(ConnFault { kind: NetFaultKind::CorruptWrite, offset, mask })
                if offset >= off && offset < off + limit as u64 =>
            {
                let mut chunk = buf[..limit].to_vec();
                chunk[(offset - off) as usize] ^= mask;
                self.stream.write(&chunk)?
            }
            _ => self.stream.write(&buf[..limit])?,
        };
        state.write_off.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Either a plain [`TcpStream`] or a chaos-wrapped one — the connection
/// type the server and load generator actually hold, so the chaos layer
/// costs nothing when no plan is configured.
#[derive(Debug)]
pub enum Conn {
    /// An unwrapped stream (no chaos plan).
    Plain(TcpStream),
    /// A stream with an injector decision applied.
    Chaos(ChaosTransport),
}

impl Conn {
    /// Wraps `stream` under `injector`'s next decision for `side`, or
    /// leaves it plain when chaos is off.
    pub fn from_stream(stream: TcpStream, injector: Option<&NetFaultInjector>, side: &str) -> Self {
        match injector {
            Some(inj) => Conn::Chaos(inj.wrap(stream, side)),
            None => Conn::Plain(stream),
        }
    }

    /// A second handle onto the same connection.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            Conn::Plain(s) => Conn::Plain(s.try_clone()?),
            Conn::Chaos(s) => Conn::Chaos(s.try_clone()?),
        })
    }

    /// Passthrough to [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Plain(s) => s.set_read_timeout(dur),
            Conn::Chaos(s) => s.set_read_timeout(dur),
        }
    }

    /// Passthrough to [`TcpStream::set_write_timeout`].
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Plain(s) => s.set_write_timeout(dur),
            Conn::Chaos(s) => s.set_write_timeout(dur),
        }
    }

    /// Passthrough to [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        match self {
            Conn::Plain(s) => s.set_nodelay(on),
            Conn::Chaos(s) => s.set_nodelay(on),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Plain(s) => s.read(buf),
            Conn::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Plain(s) => s.write(buf),
            Conn::Chaos(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Plain(s) => s.flush(),
            Conn::Chaos(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    // Reproducibility, the cap, rate zero and kind filtering are tested
    // once, on the shared `FaultSchedule` core (`bagcq_engine::fault`);
    // seeded draws are pinned in `tests/replay_pins.rs`.

    #[test]
    fn masks_offsets_and_kind_coverage() {
        let inj = NetFaultInjector::new(
            NetFaultPlan::seeded(5).with_rate_per_mille(1000).with_max_faults(0),
        );
        for _ in 0..400 {
            let fault = inj.draw("accept").expect("full rate, no cap");
            assert_ne!(fault.mask, 0, "corruption masks are never no-ops");
            assert!(fault.offset < inj.plan().max_offset);
        }
        for kind in ALL_NET_KINDS {
            assert!(inj.injected_of(kind) > 0, "{} never drawn in 400 tries", kind.label());
        }
    }

    /// One loopback pair with the given fault applied to the accepted
    /// end; the unwrapped client end is returned for the test to drive.
    fn faulted_pair(fault: ConnFault) -> (ChaosTransport, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let plan = NetFaultPlan::seeded(0).with_stall(Duration::from_micros(50));
        (ChaosTransport::new(accepted, Some(fault), &plan), client)
    }

    #[test]
    fn corrupt_read_flips_exactly_one_byte() {
        let payload = b"POST /v1/count HTTP/1.1\r\nX-Api-Key: k\r\n\r\n";
        let fault = ConnFault { kind: NetFaultKind::CorruptRead, offset: 5, mask: 0x41 };
        let (mut server_end, mut client) = faulted_pair(fault);
        client.write_all(payload).unwrap();
        drop(client);
        let mut got = Vec::new();
        server_end.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), payload.len());
        let diffs: Vec<usize> = (0..got.len()).filter(|&i| got[i] != payload[i]).collect();
        assert_eq!(diffs, vec![5]);
        assert_eq!(got[5], payload[5] ^ 0x41);
    }

    #[test]
    fn abort_read_resets_at_the_chosen_offset() {
        let payload = vec![0xABu8; 64];
        let fault = ConnFault { kind: NetFaultKind::AbortRead, offset: 10, mask: 1 };
        let (mut server_end, mut client) = faulted_pair(fault);
        client.write_all(&payload).unwrap();
        let mut got = [0u8; 64];
        let mut read = 0;
        let err = loop {
            match server_end.read(&mut got[read..]) {
                Ok(n) => read += n,
                Err(e) => break e,
            }
        };
        assert_eq!(read, 10, "exactly `offset` bytes arrive before the reset");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn premature_eof_truncates_cleanly() {
        let payload = vec![7u8; 32];
        let fault = ConnFault { kind: NetFaultKind::PrematureEof, offset: 12, mask: 1 };
        let (mut server_end, mut client) = faulted_pair(fault);
        client.write_all(&payload).unwrap();
        let mut got = Vec::new();
        server_end.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), 12, "EOF after `offset` bytes, no error");
    }

    #[test]
    fn trickle_read_is_byte_at_a_time_and_bounded() {
        let payload = b"0123456789abcdef";
        let fault = ConnFault { kind: NetFaultKind::TrickleRead, offset: 0, mask: 1 };
        let (server_end, mut client) = faulted_pair(fault);
        client.write_all(payload).unwrap();
        drop(client);
        let mut reader = BufReader::new(server_end);
        let mut got = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            match reader.get_mut().read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    assert_eq!(n, 1, "trickle reads deliver one byte at a time");
                    got.extend_from_slice(&buf[..n]);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, payload, "trickling reorders nothing");
    }

    #[test]
    fn corrupt_write_flips_exactly_one_byte_across_chunked_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let plan = NetFaultPlan::seeded(0).with_stall(Duration::ZERO);
        let fault = ConnFault { kind: NetFaultKind::CorruptWrite, offset: 9, mask: 0x10 };
        let mut server_end = ChaosTransport::new(accepted, Some(fault), &plan);
        // Write in two chunks so the offset bookkeeping must span writes.
        server_end.write_all(b"HTTP/1.1 ").unwrap();
        server_end.write_all(b"200 OK\r\n").unwrap();
        drop(server_end);
        let mut got = Vec::new();
        let mut client = client;
        client.read_to_end(&mut got).unwrap();
        let expected = b"HTTP/1.1 200 OK\r\n";
        assert_eq!(got.len(), expected.len());
        let diffs: Vec<usize> = (0..got.len()).filter(|&i| got[i] != expected[i]).collect();
        assert_eq!(diffs, vec![9]);
        assert_eq!(got[9], b'2' ^ 0x10);
    }

    #[test]
    fn clones_share_offsets_and_stall_caps() {
        let payload = vec![1u8; 8];
        let fault = ConnFault { kind: NetFaultKind::AbortRead, offset: 4, mask: 1 };
        let (mut a, mut client) = faulted_pair(fault);
        let mut b = a.try_clone().expect("clone");
        client.write_all(&payload).unwrap();
        let mut buf = [0u8; 2];
        a.read_exact(&mut buf).unwrap();
        b.read_exact(&mut buf).unwrap();
        // 4 bytes consumed across both handles: the shared offset trips.
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "clones share fault state");
    }
}
