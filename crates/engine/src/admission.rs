//! Admission control: a bounded job queue with a pluggable overload
//! policy.
//!
//! PR 2's resilience ladder handles *per-job* failure; this module is the
//! engine-level half of the overload story. Submissions pass through a
//! [`BoundedQueue`] whose capacity caps the engine's queued-work memory,
//! and an [`AdmissionPolicy`] decides what happens when the queue is
//! full:
//!
//! * [`AdmissionPolicy::Block`] — the submitting thread waits (bounded by
//!   `max_wait`) for a slot: classic backpressure, pushing the overload
//!   back into the caller.
//! * [`AdmissionPolicy::RejectNewest`] — the new job is refused
//!   immediately with [`ShedReason::QueueFull`]: load shedding with
//!   constant-time submission.
//! * [`AdmissionPolicy::ShedExpired`] — admission behaves like
//!   `RejectNewest`, and *additionally* workers drop jobs whose deadline
//!   already passed while they sat queued
//!   ([`ShedReason::ExpiredAtDequeue`]) instead of burning a worker on
//!   work nobody can use anymore.
//!
//! A refused job is never silently dropped: the engine publishes a typed
//! [`crate::Outcome::Shed`] on its handle, so every submitted job still
//! resolves to exactly one outcome.
//!
//! ## Tenants
//!
//! The serving layer (`bagcq-serve`) composes a second admission stage in
//! *front* of the queue: a [`TenantGate`] maps per-request API keys to
//! [`TenantSpec`]s and enforces each tenant's [`TenantQuota`] — a
//! token-bucket rate limit plus a max-in-flight concurrency cap. An
//! admitted request holds a [`TenantPermit`] (RAII: dropping it releases
//! the in-flight slot); a refused one becomes a typed
//! [`ShedReason::QuotaExceeded`] / [`ShedReason::InFlightLimit`] shed
//! (HTTP 429 on the wire), and an unknown key is an authentication
//! failure ([`TenantRefusal::UnknownKey`], HTTP 401), not a shed.

use crate::job::ShedReason;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What happens when a job arrives and the bounded queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Wait up to `max_wait` for a slot (backpressure); refuse with
    /// [`ShedReason::AdmissionTimeout`] if none frees up in time.
    Block {
        /// Longest a submission may wait for a queue slot.
        max_wait: Duration,
    },
    /// Refuse the new job immediately with [`ShedReason::QueueFull`].
    RejectNewest,
    /// Like [`AdmissionPolicy::RejectNewest`] at admission; additionally,
    /// workers shed queued jobs whose deadline already passed at dequeue
    /// ([`ShedReason::ExpiredAtDequeue`]).
    ShedExpired,
}

/// Admission-control configuration for an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queue capacity. `0` means unbounded (the pre-overload-layer
    /// behavior): jobs are always admitted and the policy is moot.
    pub capacity: usize,
    /// Policy applied when the queue is full.
    pub policy: AdmissionPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { capacity: 0, policy: AdmissionPolicy::RejectNewest }
    }
}

/// A push the queue refused; carries the item back so the caller can
/// publish a typed outcome on it.
#[derive(Debug)]
pub(crate) struct Refused<T> {
    /// The item that was not admitted.
    pub item: T,
    /// Why.
    pub reason: ShedReason,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A closable MPMC queue with an optional capacity bound and
/// policy-driven admission, built from a `Mutex` + two `Condvar`s.
///
/// Lock poisoning is deliberately ignored (`into_inner` on a poisoned
/// guard): a worker that panics while *holding* the queue lock does not
/// exist by construction (pushes/pops never run user code), and the
/// supervision layer must keep serving through worker deaths.
pub(crate) struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (`0` = unbounded).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity,
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false, high_water: 0 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn has_room(&self, inner: &Inner<T>) -> bool {
        self.capacity == 0 || inner.items.len() < self.capacity
    }

    fn enqueue(&self, inner: &mut Inner<T>, item: T) {
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        self.not_empty.notify_one();
    }

    /// Admits `item` under `policy`. `Ok(waited)` reports whether the
    /// caller blocked for a slot (so the engine can count backpressure
    /// events); `Err` returns the item with the refusal reason.
    pub fn push(&self, item: T, policy: &AdmissionPolicy) -> Result<bool, Refused<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(Refused { item, reason: ShedReason::Draining });
        }
        if self.has_room(&inner) {
            self.enqueue(&mut inner, item);
            return Ok(false);
        }
        match *policy {
            AdmissionPolicy::RejectNewest | AdmissionPolicy::ShedExpired => {
                Err(Refused { item, reason: ShedReason::QueueFull })
            }
            AdmissionPolicy::Block { max_wait } => {
                let deadline = Instant::now() + max_wait;
                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(Refused { item, reason: ShedReason::AdmissionTimeout });
                    }
                    let (guard, _) = self
                        .not_full
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    inner = guard;
                    if inner.closed {
                        return Err(Refused { item, reason: ShedReason::Draining });
                    }
                    if self.has_room(&inner) {
                        self.enqueue(&mut inner, item);
                        return Ok(true);
                    }
                }
            }
        }
    }

    /// Enqueues past the capacity bound (but never past `close`). Used to
    /// requeue a job recovered from a dying worker: the job was already
    /// admitted once, so bouncing it on capacity would turn supervision
    /// into job loss.
    pub fn force_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(item);
        }
        self.enqueue(&mut inner, item);
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// empty (workers drain remaining items before exiting).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes admission and wakes every blocked pusher/popper. Idempotent.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Removes and returns everything currently queued (the drain
    /// deadline's shed step).
    pub fn drain_now(&self) -> Vec<T> {
        let mut inner = self.lock();
        let items = std::mem::take(&mut inner.items);
        drop(inner);
        self.not_full.notify_all();
        items.into()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }
}

// ---------------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------------

/// Per-tenant admission limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantQuota {
    /// Token-bucket refill rate, in requests per second. `0` disables the
    /// rate limit.
    pub rate_per_sec: u64,
    /// Token-bucket capacity: how many requests may burst above the
    /// steady rate. Clamped up to at least 1 when the rate limit is on.
    pub burst: u64,
    /// Maximum concurrently admitted requests (outstanding
    /// [`TenantPermit`]s). `0` disables the concurrency cap.
    pub max_in_flight: u64,
    /// Maximum concurrently *open connections* (outstanding
    /// [`TenantConnection`]s). `0` disables the cap. Distinct from
    /// `max_in_flight`: a keep-alive connection holds a connection slot
    /// for its whole lifetime but an in-flight slot only while a request
    /// is being served, so slow-loris clients are bounded even when they
    /// never complete a request.
    pub max_connections: u64,
}

impl TenantQuota {
    /// No limits at all (useful for trusted internal tenants and tests).
    pub fn unlimited() -> Self {
        TenantQuota { rate_per_sec: 0, burst: 0, max_in_flight: 0, max_connections: 0 }
    }

    /// Replaces the connection cap.
    pub fn with_max_connections(mut self, max_connections: u64) -> Self {
        self.max_connections = max_connections;
        self
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota { rate_per_sec: 500, burst: 1000, max_in_flight: 256, max_connections: 0 }
    }
}

/// One tenant: a display name, the API key that authenticates it, and
/// its quota.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Display name (metrics, logs); unique per gate.
    pub name: String,
    /// The API key presented on the wire (`Authorization` header / `key`
    /// field); unique per gate.
    pub api_key: String,
    /// Admission limits.
    pub quota: TenantQuota,
}

impl TenantSpec {
    /// A tenant with the default quota.
    pub fn new(name: impl Into<String>, api_key: impl Into<String>) -> Self {
        TenantSpec { name: name.into(), api_key: api_key.into(), quota: TenantQuota::default() }
    }

    /// Replaces the quota.
    pub fn with_quota(mut self, quota: TenantQuota) -> Self {
        self.quota = quota;
        self
    }
}

/// Why a [`TenantGate`] refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantRefusal {
    /// No tenant owns the presented API key: an authentication failure
    /// (HTTP 401), **not** a shed — it never reaches the engine.
    UnknownKey,
    /// The tenant's token bucket is empty (HTTP 429).
    QuotaExceeded,
    /// The tenant is at its max-in-flight cap (HTTP 429).
    InFlightLimit,
    /// The tenant is at its open-connection cap (HTTP 429; the serving
    /// layer also closes the refused connection).
    ConnectionLimit,
}

impl TenantRefusal {
    /// The [`ShedReason`] this refusal publishes, if it is a shed
    /// (unknown keys are not).
    pub fn shed_reason(self) -> Option<ShedReason> {
        match self {
            TenantRefusal::UnknownKey => None,
            TenantRefusal::QuotaExceeded => Some(ShedReason::QuotaExceeded),
            TenantRefusal::InFlightLimit => Some(ShedReason::InFlightLimit),
            TenantRefusal::ConnectionLimit => Some(ShedReason::ConnectionLimit),
        }
    }
}

/// A point-in-time copy of one tenant's admission counters, surfaced in
/// [`crate::MetricsSnapshot::tenants`] and the `/metrics` endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantCounters {
    /// Tenant display name.
    pub name: String,
    /// Requests admitted (permits issued).
    pub admitted: u64,
    /// Requests refused because the token bucket was empty.
    pub quota_rejections: u64,
    /// Requests refused at the max-in-flight cap.
    pub in_flight_rejections: u64,
    /// Connections refused at the per-tenant connection cap.
    pub connection_rejections: u64,
    /// Permits outstanding at snapshot time.
    pub in_flight: u64,
    /// Connections outstanding at snapshot time.
    pub open_connections: u64,
    /// Requests answered from the idempotency cache *without* charging
    /// admission again. `admitted` counts each idempotency key at most
    /// once; this counter proves retried deliveries were deduplicated
    /// (exactly-once charging: `admitted + idempotent_replays` equals
    /// total answered requests).
    pub idempotent_replays: u64,
}

/// Integer token bucket: tokens are stored ×10⁶ ("micro-tokens") so
/// refill needs no floating point. One request costs 10⁶ micro-tokens.
struct TokenBucket {
    micro: u64,
    last: Instant,
}

const MICRO: u64 = 1_000_000;

impl TokenBucket {
    fn full(burst: u64, now: Instant) -> Self {
        TokenBucket { micro: burst.saturating_mul(MICRO), last: now }
    }

    /// Refills for the elapsed time, then tries to take one token.
    fn try_take(&mut self, rate_per_sec: u64, burst: u64, now: Instant) -> bool {
        let elapsed_us =
            now.saturating_duration_since(self.last).as_micros().min(u128::from(u64::MAX)) as u64;
        self.last = now;
        // rate tokens/s == rate micro-tokens/µs.
        let refill = elapsed_us.saturating_mul(rate_per_sec);
        self.micro = self.micro.saturating_add(refill).min(burst.max(1).saturating_mul(MICRO));
        if self.micro >= MICRO {
            self.micro -= MICRO;
            true
        } else {
            false
        }
    }
}

struct TenantState {
    spec: TenantSpec,
    bucket: Mutex<TokenBucket>,
    in_flight: AtomicU64,
    connections: AtomicU64,
    admitted: AtomicU64,
    quota_rejections: AtomicU64,
    in_flight_rejections: AtomicU64,
    connection_rejections: AtomicU64,
    idempotent_replays: AtomicU64,
}

/// The tenant admission stage: API key → tenant lookup, then quota
/// enforcement. Sits in front of the engine's bounded admission queue,
/// so a request must pass *both* its tenant's limits and the engine-wide
/// admission policy before a worker sees it.
pub struct TenantGate {
    by_key: HashMap<String, Arc<TenantState>>,
    order: Vec<Arc<TenantState>>,
}

impl TenantGate {
    /// Builds a gate from tenant specs. Duplicate names or API keys are a
    /// configuration error and panic.
    pub fn new(specs: impl IntoIterator<Item = TenantSpec>) -> Self {
        let now = Instant::now();
        let mut by_key = HashMap::new();
        let mut order = Vec::new();
        let mut names = std::collections::HashSet::new();
        for spec in specs {
            assert!(names.insert(spec.name.clone()), "duplicate tenant name {:?}", spec.name);
            let state = Arc::new(TenantState {
                bucket: Mutex::new(TokenBucket::full(spec.quota.burst, now)),
                in_flight: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
                quota_rejections: AtomicU64::new(0),
                in_flight_rejections: AtomicU64::new(0),
                connection_rejections: AtomicU64::new(0),
                idempotent_replays: AtomicU64::new(0),
                spec,
            });
            let prev = by_key.insert(state.spec.api_key.clone(), Arc::clone(&state));
            assert!(prev.is_none(), "duplicate tenant api key");
            order.push(state);
        }
        TenantGate { by_key, order }
    }

    /// Number of configured tenants.
    pub fn tenant_count(&self) -> usize {
        self.order.len()
    }

    /// Whether some tenant owns `api_key`, without charging anything.
    /// The serving layer uses this to authenticate an idempotent replay
    /// before answering it from cache (401s must not become replays).
    pub fn recognizes(&self, api_key: &str) -> bool {
        self.by_key.contains_key(api_key)
    }

    /// Registers one open connection against the tenant owning
    /// `api_key`, enforcing [`TenantQuota::max_connections`]. The
    /// returned guard releases the slot on drop. Distinct from
    /// [`TenantGate::admit`]: a keep-alive connection holds its slot
    /// across many requests (and across idle gaps), so trickling or
    /// parked clients are bounded per tenant.
    pub fn acquire_connection(&self, api_key: &str) -> Result<TenantConnection, TenantRefusal> {
        let Some(state) = self.by_key.get(api_key) else {
            return Err(TenantRefusal::UnknownKey);
        };
        let cap = state.spec.quota.max_connections;
        if cap != 0 {
            let mut cur = state.connections.load(Ordering::Relaxed);
            loop {
                if cur >= cap {
                    state.connection_rejections.fetch_add(1, Ordering::Relaxed);
                    bagcq_obs::instant("engine.admission", ShedReason::ConnectionLimit.label());
                    return Err(TenantRefusal::ConnectionLimit);
                }
                match state.connections.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        } else {
            state.connections.fetch_add(1, Ordering::AcqRel);
        }
        Ok(TenantConnection { state: Arc::clone(state) })
    }

    /// Counts one request answered from the idempotency cache without a
    /// fresh admission charge (the key's first delivery already paid).
    /// No-op for unknown keys.
    pub fn record_idempotent_replay(&self, api_key: &str) {
        if let Some(state) = self.by_key.get(api_key) {
            state.idempotent_replays.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up the tenant owning `api_key` and admits one request under
    /// its quota. The returned permit releases the in-flight slot on
    /// drop.
    pub fn admit(&self, api_key: &str) -> Result<TenantPermit, TenantRefusal> {
        self.admit_at(api_key, Instant::now())
    }

    /// [`TenantGate::admit`] with an explicit clock (deterministic tests).
    pub fn admit_at(&self, api_key: &str, now: Instant) -> Result<TenantPermit, TenantRefusal> {
        let Some(state) = self.by_key.get(api_key) else {
            return Err(TenantRefusal::UnknownKey);
        };
        let quota = state.spec.quota;
        // Concurrency cap first (it is the cheaper check and does not
        // consume a token on refusal).
        if quota.max_in_flight != 0 {
            let mut cur = state.in_flight.load(Ordering::Relaxed);
            loop {
                if cur >= quota.max_in_flight {
                    state.in_flight_rejections.fetch_add(1, Ordering::Relaxed);
                    bagcq_obs::instant("engine.admission", ShedReason::InFlightLimit.label());
                    return Err(TenantRefusal::InFlightLimit);
                }
                match state.in_flight.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        } else {
            state.in_flight.fetch_add(1, Ordering::AcqRel);
        }
        if quota.rate_per_sec != 0 {
            let took = {
                let mut bucket = state.bucket.lock().unwrap_or_else(|p| p.into_inner());
                bucket.try_take(quota.rate_per_sec, quota.burst, now)
            };
            if !took {
                state.in_flight.fetch_sub(1, Ordering::AcqRel);
                state.quota_rejections.fetch_add(1, Ordering::Relaxed);
                bagcq_obs::instant("engine.admission", ShedReason::QuotaExceeded.label());
                return Err(TenantRefusal::QuotaExceeded);
            }
        }
        state.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(TenantPermit { state: Arc::clone(state) })
    }

    /// Point-in-time counters for every tenant, in configuration order.
    pub fn snapshot(&self) -> Vec<TenantCounters> {
        self.order
            .iter()
            .map(|s| TenantCounters {
                name: s.spec.name.clone(),
                admitted: s.admitted.load(Ordering::Relaxed),
                quota_rejections: s.quota_rejections.load(Ordering::Relaxed),
                in_flight_rejections: s.in_flight_rejections.load(Ordering::Relaxed),
                connection_rejections: s.connection_rejections.load(Ordering::Relaxed),
                in_flight: s.in_flight.load(Ordering::Relaxed),
                open_connections: s.connections.load(Ordering::Relaxed),
                idempotent_replays: s.idempotent_replays.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// RAII proof that a request passed its tenant's quota; dropping it
/// releases the tenant's in-flight slot. Hold it for the request's whole
/// lifetime (parse → count → respond), not just the engine hop.
pub struct TenantPermit {
    state: Arc<TenantState>,
}

impl std::fmt::Debug for TenantPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantPermit").field("tenant", &self.state.spec.name).finish()
    }
}

impl TenantPermit {
    /// The owning tenant's display name.
    pub fn tenant_name(&self) -> &str {
        &self.state.spec.name
    }
}

impl Drop for TenantPermit {
    fn drop(&mut self) {
        self.state.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// RAII proof that a connection passed its tenant's open-connection cap;
/// dropping it releases the slot. The serving layer holds one per
/// keep-alive connection from the first authenticated request until the
/// socket closes.
pub struct TenantConnection {
    state: Arc<TenantState>,
}

impl std::fmt::Debug for TenantConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantConnection").field("tenant", &self.state.spec.name).finish()
    }
}

impl TenantConnection {
    /// The owning tenant's display name.
    pub fn tenant_name(&self) -> &str {
        &self.state.spec.name
    }

    /// The API key this connection authenticated with.
    pub fn api_key(&self) -> &str {
        &self.state.spec.api_key
    }
}

impl Drop for TenantConnection {
    fn drop(&mut self) {
        self.state.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_always_admits() {
        let q = BoundedQueue::new(0);
        for i in 0..1000 {
            assert!(q.push(i, &AdmissionPolicy::RejectNewest).is_ok());
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.high_water(), 1000);
    }

    #[test]
    fn reject_newest_refuses_at_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1, &AdmissionPolicy::RejectNewest).is_ok());
        assert!(q.push(2, &AdmissionPolicy::RejectNewest).is_ok());
        let refused = q.push(3, &AdmissionPolicy::RejectNewest).unwrap_err();
        assert_eq!(refused.item, 3);
        assert_eq!(refused.reason, ShedReason::QueueFull);
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3, &AdmissionPolicy::RejectNewest).is_ok());
    }

    #[test]
    fn block_times_out_then_succeeds_after_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push(1, &AdmissionPolicy::RejectNewest).is_ok());
        let policy = AdmissionPolicy::Block { max_wait: Duration::from_millis(20) };
        let refused = q.push(2, &policy).unwrap_err();
        assert_eq!(refused.reason, ShedReason::AdmissionTimeout);

        // A concurrent pop frees the slot while a pusher waits.
        let popper = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                q.pop()
            })
        };
        let waited = q
            .push(2, &AdmissionPolicy::Block { max_wait: Duration::from_secs(5) })
            .expect("slot frees up");
        assert!(waited, "the pusher must have blocked");
        assert_eq!(popper.join().unwrap(), Some(1));
    }

    #[test]
    fn close_refuses_pushes_and_drains_pops() {
        let q = BoundedQueue::new(0);
        assert!(q.push(1, &AdmissionPolicy::RejectNewest).is_ok());
        q.close();
        q.close(); // idempotent
        let refused = q.push(2, &AdmissionPolicy::RejectNewest).unwrap_err();
        assert_eq!(refused.reason, ShedReason::Draining);
        assert!(q.force_push(3).is_err(), "force_push respects close");
        // Queued items still drain before pop reports closure.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_popper() {
        let q = Arc::new(BoundedQueue::<u32>::new(0));
        let popper = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn force_push_ignores_capacity() {
        let q = BoundedQueue::new(1);
        assert!(q.push(1, &AdmissionPolicy::RejectNewest).is_ok());
        assert!(q.force_push(2).is_ok());
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn drain_now_empties_the_queue() {
        let q = BoundedQueue::new(0);
        for i in 0..5 {
            assert!(q.push(i, &AdmissionPolicy::RejectNewest).is_ok());
        }
        assert_eq!(q.drain_now(), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 0);
        q.close();
        assert_eq!(q.pop(), None);
    }

    // --- tenants -----------------------------------------------------------

    fn gate(quota: TenantQuota) -> TenantGate {
        TenantGate::new([TenantSpec::new("acme", "k-acme").with_quota(quota)])
    }

    #[test]
    fn unknown_key_is_auth_not_shed() {
        let g = gate(TenantQuota::unlimited());
        let e = g.admit("nope").unwrap_err();
        assert_eq!(e, TenantRefusal::UnknownKey);
        assert_eq!(e.shed_reason(), None);
        // Nothing was counted against the tenant.
        assert_eq!(g.snapshot()[0].admitted, 0);
    }

    #[test]
    fn token_bucket_limits_burst_then_refills() {
        let g =
            gate(TenantQuota { rate_per_sec: 10, burst: 3, max_in_flight: 0, max_connections: 0 });
        let t0 = Instant::now();
        // The bucket starts full: exactly `burst` immediate admissions.
        for _ in 0..3 {
            assert!(g.admit_at("k-acme", t0).is_ok());
        }
        let e = g.admit_at("k-acme", t0).unwrap_err();
        assert_eq!(e, TenantRefusal::QuotaExceeded);
        assert_eq!(e.shed_reason(), Some(ShedReason::QuotaExceeded));
        // 100ms at 10 req/s refills exactly one token.
        let t1 = t0 + Duration::from_millis(100);
        assert!(g.admit_at("k-acme", t1).is_ok());
        assert_eq!(g.admit_at("k-acme", t1).unwrap_err(), TenantRefusal::QuotaExceeded);
        // Refill never exceeds the burst capacity.
        let t2 = t1 + Duration::from_secs(3600);
        for _ in 0..3 {
            assert!(g.admit_at("k-acme", t2).is_ok());
        }
        assert!(g.admit_at("k-acme", t2).is_err());
        let c = &g.snapshot()[0];
        assert_eq!(c.admitted, 7);
        assert_eq!(c.quota_rejections, 3);
    }

    #[test]
    fn in_flight_cap_is_released_by_permit_drop() {
        let g =
            gate(TenantQuota { rate_per_sec: 0, burst: 0, max_in_flight: 2, max_connections: 0 });
        let p1 = g.admit("k-acme").unwrap();
        let p2 = g.admit("k-acme").unwrap();
        assert_eq!(p1.tenant_name(), "acme");
        let e = g.admit("k-acme").unwrap_err();
        assert_eq!(e, TenantRefusal::InFlightLimit);
        assert_eq!(e.shed_reason(), Some(ShedReason::InFlightLimit));
        assert_eq!(g.snapshot()[0].in_flight, 2);
        drop(p1);
        let _p3 = g.admit("k-acme").expect("slot released");
        drop(p2);
        let c = &g.snapshot()[0];
        assert_eq!(c.in_flight, 1);
        assert_eq!(c.admitted, 3);
        assert_eq!(c.in_flight_rejections, 1);
    }

    #[test]
    fn in_flight_refusal_consumes_no_token() {
        let g =
            gate(TenantQuota { rate_per_sec: 1, burst: 2, max_in_flight: 1, max_connections: 0 });
        let t0 = Instant::now();
        let p = g.admit_at("k-acme", t0).unwrap();
        assert_eq!(g.admit_at("k-acme", t0).unwrap_err(), TenantRefusal::InFlightLimit);
        drop(p);
        // The bucket still has its second token.
        assert!(g.admit_at("k-acme", t0).is_ok());
    }

    #[test]
    fn tenants_are_isolated() {
        let g = TenantGate::new([
            TenantSpec::new("a", "ka").with_quota(TenantQuota {
                rate_per_sec: 1,
                burst: 1,
                max_in_flight: 0,
                max_connections: 0,
            }),
            TenantSpec::new("b", "kb").with_quota(TenantQuota {
                rate_per_sec: 1,
                burst: 1,
                max_in_flight: 0,
                max_connections: 0,
            }),
        ]);
        assert_eq!(g.tenant_count(), 2);
        let t0 = Instant::now();
        assert!(g.admit_at("ka", t0).is_ok());
        assert!(g.admit_at("ka", t0).is_err(), "a is exhausted");
        assert!(g.admit_at("kb", t0).is_ok(), "b is unaffected");
        let snap = g.snapshot();
        assert_eq!((snap[0].admitted, snap[0].quota_rejections), (1, 1));
        assert_eq!((snap[1].admitted, snap[1].quota_rejections), (1, 0));
    }

    #[test]
    fn concurrent_admissions_never_exceed_the_cap() {
        let g = Arc::new(gate(TenantQuota {
            rate_per_sec: 0,
            burst: 0,
            max_in_flight: 4,
            max_connections: 0,
        }));
        let peak = Arc::new(AtomicU64::new(0));
        let live = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (g, peak, live) = (Arc::clone(&g), Arc::clone(&peak), Arc::clone(&live));
                thread::spawn(move || {
                    let mut admitted = 0u64;
                    for _ in 0..200 {
                        if let Ok(permit) = g.admit("k-acme") {
                            let now = live.fetch_add(1, Ordering::AcqRel) + 1;
                            peak.fetch_max(now, Ordering::AcqRel);
                            std::thread::yield_now();
                            live.fetch_sub(1, Ordering::AcqRel);
                            drop(permit);
                            admitted += 1;
                        }
                    }
                    admitted
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert!(
            peak.load(Ordering::Acquire) <= 4,
            "cap breached: {}",
            peak.load(Ordering::Acquire)
        );
        assert_eq!(g.snapshot()[0].in_flight, 0, "all permits released");
    }

    #[test]
    #[should_panic(expected = "duplicate tenant")]
    fn duplicate_keys_panic() {
        let _ = TenantGate::new([TenantSpec::new("a", "k"), TenantSpec::new("b", "k")]);
    }

    // --- token-bucket boundary cases ---------------------------------------

    /// A refill gap measured in centuries must saturate at the burst
    /// capacity, not overflow the micro-token arithmetic into a bucket
    /// that admits unboundedly.
    #[test]
    fn token_bucket_survives_huge_elapsed_gaps() {
        let g = gate(TenantQuota {
            rate_per_sec: u64::MAX,
            burst: 2,
            max_in_flight: 0,
            max_connections: 0,
        });
        let t0 = Instant::now();
        assert!(g.admit_at("k-acme", t0).is_ok());
        assert!(g.admit_at("k-acme", t0).is_ok());
        assert!(g.admit_at("k-acme", t0).is_err(), "burst exhausted");
        // ~3170 years of elapsed refill at u64::MAX tokens/sec: the
        // refill product saturates, then clamps to burst * MICRO.
        let t1 = t0 + Duration::from_secs(100_000_000_000);
        for _ in 0..2 {
            assert!(g.admit_at("k-acme", t1).is_ok());
        }
        assert_eq!(
            g.admit_at("k-acme", t1).unwrap_err(),
            TenantRefusal::QuotaExceeded,
            "a huge gap must refill exactly `burst` tokens, never more"
        );
    }

    /// `burst: 0` with a live rate limit is a zero-capacity bucket on
    /// paper; the gate clamps capacity up to one token so the tenant
    /// still gets its steady rate instead of being silently bricked.
    #[test]
    fn zero_capacity_bucket_clamps_to_one_token() {
        let g =
            gate(TenantQuota { rate_per_sec: 10, burst: 0, max_in_flight: 0, max_connections: 0 });
        let t0 = Instant::now();
        // TokenBucket::full(0, ..) starts empty: the very first request
        // is refused until the rate refills the clamped 1-token bucket.
        assert_eq!(g.admit_at("k-acme", t0).unwrap_err(), TenantRefusal::QuotaExceeded);
        let t1 = t0 + Duration::from_millis(100); // 1 token at 10/s
        assert!(g.admit_at("k-acme", t1).is_ok());
        assert!(g.admit_at("k-acme", t1).is_err(), "clamped capacity is exactly one");
        // A long gap still refills only the single clamped token.
        let t2 = t1 + Duration::from_secs(3600);
        assert!(g.admit_at("k-acme", t2).is_ok());
        assert_eq!(g.admit_at("k-acme", t2).unwrap_err(), TenantRefusal::QuotaExceeded);
    }

    /// Refill accrues across calls even when each individual gap is less
    /// than one whole token (sub-token refill must not be rounded away).
    #[test]
    fn sub_token_refill_accumulates() {
        let g =
            gate(TenantQuota { rate_per_sec: 10, burst: 1, max_in_flight: 0, max_connections: 0 });
        let t0 = Instant::now();
        assert!(g.admit_at("k-acme", t0).is_ok());
        // Four 25ms gaps = 100ms = exactly one token at 10/s.
        let mut t = t0;
        for _ in 0..3 {
            t += Duration::from_millis(25);
            assert!(g.admit_at("k-acme", t).is_err(), "token not yet whole");
        }
        t += Duration::from_millis(25);
        assert!(g.admit_at("k-acme", t).is_ok(), "fractional refills must accumulate");
    }

    // --- connection caps and idempotent replays ----------------------------

    #[test]
    fn connection_cap_is_released_by_guard_drop() {
        let g =
            gate(TenantQuota { rate_per_sec: 0, burst: 0, max_in_flight: 0, max_connections: 2 });
        let c1 = g.acquire_connection("k-acme").unwrap();
        let _c2 = g.acquire_connection("k-acme").unwrap();
        assert_eq!(c1.tenant_name(), "acme");
        assert_eq!(c1.api_key(), "k-acme");
        let e = g.acquire_connection("k-acme").unwrap_err();
        assert_eq!(e, TenantRefusal::ConnectionLimit);
        assert_eq!(e.shed_reason(), Some(ShedReason::ConnectionLimit));
        let snap = &g.snapshot()[0];
        assert_eq!(snap.open_connections, 2);
        assert_eq!(snap.connection_rejections, 1);
        drop(c1);
        let _c3 = g.acquire_connection("k-acme").expect("slot released on drop");
        assert!(g.acquire_connection("nope").is_err(), "unknown keys never hold slots");
        assert_eq!(g.snapshot()[0].open_connections, 2);
    }

    #[test]
    fn connection_cap_is_independent_of_requests() {
        let g =
            gate(TenantQuota { rate_per_sec: 0, burst: 0, max_in_flight: 1, max_connections: 1 });
        let _conn = g.acquire_connection("k-acme").unwrap();
        // A held connection slot does not consume the in-flight budget.
        let permit = g.admit("k-acme").unwrap();
        assert_eq!(g.admit("k-acme").unwrap_err(), TenantRefusal::InFlightLimit);
        drop(permit);
        assert!(g.admit("k-acme").is_ok(), "requests recycle while the connection persists");
    }

    #[test]
    fn idempotent_replays_are_counted_not_charged() {
        let g =
            gate(TenantQuota { rate_per_sec: 10, burst: 1, max_in_flight: 0, max_connections: 0 });
        let t0 = Instant::now();
        assert!(g.admit_at("k-acme", t0).is_ok());
        // Replays bypass the (now empty) bucket entirely.
        g.record_idempotent_replay("k-acme");
        g.record_idempotent_replay("k-acme");
        g.record_idempotent_replay("unknown-key"); // no-op, must not panic
        let snap = &g.snapshot()[0];
        assert_eq!(snap.admitted, 1, "the key's first delivery is the only charge");
        assert_eq!(snap.idempotent_replays, 2);
        assert_eq!(snap.quota_rejections, 0, "replays never touch the bucket");
        assert!(g.recognizes("k-acme"));
        assert!(!g.recognizes("unknown-key"));
    }
}
