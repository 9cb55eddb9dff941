//! Tenant admission: API keys, per-tenant quotas and the permits that
//! hold them.
//!
//! The serving layer (`bagcq-serve`) admits every request through a
//! [`TenantGate`] before the engine sees it: the gate maps per-request
//! API keys to [`TenantSpec`]s and enforces each tenant's [`TenantQuota`]
//! — a token-bucket rate limit plus a max-in-flight concurrency cap. An
//! admitted request holds a [`TenantPermit`] (RAII: dropping it releases
//! the in-flight slot); a refused one becomes a typed
//! [`ShedReason::QuotaExceeded`] / [`ShedReason::InFlightLimit`] shed
//! (HTTP 429 on the wire), and an unknown key is an authentication
//! failure ([`TenantRefusal::UnknownKey`], HTTP 401), not a shed.

use crate::job::ShedReason;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
    /// admission again. The server records a key only when its 200 was
    /// computed, not when its response memo answered it: `admitted`
    /// counts a key once when its 200 was computed, and once per
    /// delivery, retries included, when the memo answered it.
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
/// enforcement. Sits in front of the engine, so a request must pass its
/// tenant's limits before it takes one of the engine's evaluation
/// slots.
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
/// lifetime (parse → count → respond), not just the evaluation.
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
    use std::time::Duration;

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
