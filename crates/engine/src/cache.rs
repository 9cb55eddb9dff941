//! Sharded single-flight memo cache.
//!
//! Outcomes are keyed by the job's content [`Fingerprint`]. Each shard is
//! a plain `Mutex<HashMap>`; a slot is either `Ready` (a completed
//! outcome, cloned out to every later lookup) or `InFlight` (a
//! [`Flight`] rendezvous that later lookups join instead of duplicating
//! the computation — "single-flight" deduplication).
//!
//! The protocol:
//!
//! 1. [`MemoCache::begin`] classifies a lookup as [`Lookup::Hit`],
//!    [`Lookup::Join`], or [`Lookup::Lead`] and records the
//!    hit/miss/join counters.
//! 2. A **leader** computes the outcome and must call
//!    [`MemoCache::complete`] exactly once — even when the computation
//!    timed out or panicked — so joined waiters always wake up.
//!    Successful outcomes are cached as `Ready`; failures
//!    ([`Outcome::is_failure`]) are published to current waiters but the
//!    slot is evicted, so the next submission retries.
//! 3. A **joiner** blocks on [`Flight::wait`] bounded by its *own*
//!    deadline: a joiner with a tight deadline can time out while the
//!    leader (and more patient joiners) keep going.
//!
//! When a persistent [`MemoStore`] tier is attached
//! ([`MemoCache::with_store`]), a miss first **reads through** to disk —
//! a persisted outcome is promoted to a `Ready` slot and returned as a
//! hit — and a successful completion is **written behind** to the store
//! after the shard lock is released (store latency and store errors
//! never sit inside the shard critical section, and a store failure
//! never fails the job that produced the outcome).

use crate::job::Outcome;
use crate::metrics::Metrics;
use crate::store::MemoStore;
use bagcq_structure::Fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A one-shot outcome cell: the rendezvous for one in-flight memo
/// computation.
#[derive(Default)]
pub(crate) struct Flight {
    done: Mutex<Option<Outcome>>,
    cond: Condvar,
}

impl Flight {
    /// Blocks until the outcome is published, or until `deadline`.
    /// Returns `None` iff the caller's deadline expired first.
    pub(crate) fn wait(&self, deadline: Option<Instant>) -> Option<Outcome> {
        let mut done = self.done.lock().unwrap();
        loop {
            if let Some(outcome) = done.as_ref() {
                return Some(outcome.clone());
            }
            match deadline {
                None => done = self.cond.wait(done).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _timeout) = self.cond.wait_timeout(done, d - now).unwrap();
                    done = guard;
                }
            }
        }
    }

    pub(crate) fn publish(&self, outcome: Outcome) {
        let mut done = self.done.lock().unwrap();
        *done = Some(outcome);
        self.cond.notify_all();
    }
}

enum Slot {
    InFlight(Arc<Flight>),
    Ready(Outcome),
}

type Shard = Mutex<HashMap<Fingerprint, Slot>>;

/// What a [`MemoCache::begin`] lookup found.
pub(crate) enum Lookup {
    /// Cached outcome; use it directly.
    Hit(Outcome),
    /// Someone else is computing this key; wait on the flight.
    Join(Arc<Flight>),
    /// The caller is the leader: compute, then [`MemoCache::complete`]
    /// with this token.
    Lead(LeadToken),
}

/// Proof that the holder is the leader for `key`; must be redeemed with
/// [`MemoCache::complete`].
///
/// If the leader dies without redeeming (a panic unwinding through the
/// lead path — fault injection makes that routine), the token's `Drop`
/// evicts the in-flight slot and publishes [`Outcome::Panicked`] to every
/// joined waiter, so nobody waits forever on a flight with no leader.
pub(crate) struct LeadToken {
    key: Fingerprint,
    flight: Arc<Flight>,
    shard: Arc<Shard>,
    redeemed: bool,
}

/// The poison outcome a dropped (unredeemed) [`LeadToken`] publishes to
/// its joiners. Joiners match on this exact message and retry the lookup
/// instead of surfacing it: the slot was evicted, so one of them becomes
/// the new leader — a leader that unwound must not fail the jobs that
/// merely shared its flight.
pub(crate) const LEAD_DIED: &str = "cache leader died before completing";

impl Drop for LeadToken {
    fn drop(&mut self) {
        if self.redeemed {
            return;
        }
        {
            let mut shard = self.shard.lock().unwrap();
            // Only evict our own flight: a new leader may already hold the
            // key if this drop races a retry.
            if let Some(Slot::InFlight(f)) = shard.get(&self.key) {
                if Arc::ptr_eq(f, &self.flight) {
                    shard.remove(&self.key);
                }
            }
        }
        self.flight.publish(Outcome::Panicked(LEAD_DIED.to_string()));
    }
}

/// The sharded memo cache.
pub(crate) struct MemoCache {
    shards: Vec<Arc<Shard>>,
    metrics: Arc<Metrics>,
    store: Option<Arc<MemoStore>>,
}

impl MemoCache {
    pub(crate) fn new(shards: usize, metrics: Arc<Metrics>) -> Self {
        let shards = shards.max(1);
        MemoCache {
            shards: (0..shards).map(|_| Arc::new(Mutex::new(HashMap::new()))).collect(),
            metrics,
            store: None,
        }
    }

    /// Attaches a persistent read-through/write-behind tier.
    pub(crate) fn with_store(mut self, store: Option<Arc<MemoStore>>) -> Self {
        self.store = store;
        self
    }

    fn shard(&self, key: &Fingerprint) -> &Arc<Shard> {
        &self.shards[(key.lo as usize) % self.shards.len()]
    }

    /// Classifies a lookup and records hit/miss/join metrics.
    pub(crate) fn begin(&self, key: Fingerprint) -> Lookup {
        let mut shard = self.shard(&key).lock().unwrap();
        match shard.get(&key) {
            Some(Slot::Ready(outcome)) => {
                self.metrics.cache_hit();
                Lookup::Hit(outcome.clone())
            }
            Some(Slot::InFlight(flight)) => {
                self.metrics.single_flight_join();
                Lookup::Join(Arc::clone(flight))
            }
            None => {
                // Read through to the persistent tier before taking the
                // lead: a warm restart answers from disk and promotes the
                // outcome to a Ready slot.
                if let Some(outcome) = self.store.as_ref().and_then(|s| s.get(&key)) {
                    self.metrics.store_hit();
                    shard.insert(key, Slot::Ready(outcome.clone()));
                    return Lookup::Hit(outcome);
                }
                self.metrics.cache_miss();
                let flight = Arc::new(Flight::default());
                shard.insert(key, Slot::InFlight(Arc::clone(&flight)));
                Lookup::Lead(LeadToken {
                    key,
                    flight,
                    shard: Arc::clone(self.shard(&key)),
                    redeemed: false,
                })
            }
        }
    }

    /// Publishes the leader's outcome to every joined waiter and either
    /// caches it (`Ready`) or evicts the slot (failures are never
    /// cached).
    pub(crate) fn complete(&self, mut token: LeadToken, outcome: Outcome) {
        token.redeemed = true;
        {
            let mut shard = token.shard.lock().unwrap();
            if outcome.is_failure() {
                shard.remove(&token.key);
            } else {
                shard.insert(token.key, Slot::Ready(outcome.clone()));
            }
        }
        // Write behind outside the shard lock. A store error must not
        // fail the job — the outcome is correct, only its persistence is
        // lost — so it is logged as an instant and otherwise swallowed.
        if !outcome.is_failure() {
            if let Some(store) = &self.store {
                if store.put(token.key, &outcome).is_err() {
                    bagcq_obs::instant("engine.store", "put_error");
                }
            }
        }
        token.flight.publish(outcome);
    }

    /// Number of `Ready` entries across all shards (in-flight slots are
    /// not counted).
    pub(crate) fn ready_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock().unwrap().values().filter(|slot| matches!(slot, Slot::Ready(_))).count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_arith::Nat;
    use std::time::Duration;

    fn key(n: u64) -> Fingerprint {
        Fingerprint { hi: n.wrapping_mul(0x9E37_79B9_7F4A_7C15), lo: n }
    }

    fn cache() -> MemoCache {
        MemoCache::new(4, Arc::new(Metrics::new()))
    }

    #[test]
    fn lead_then_hit() {
        let c = cache();
        let token = match c.begin(key(1)) {
            Lookup::Lead(t) => t,
            _ => panic!("first lookup must lead"),
        };
        c.complete(token, Outcome::Count(Nat::from_u64(5)));
        match c.begin(key(1)) {
            Lookup::Hit(Outcome::Count(n)) => assert_eq!(n, Nat::from_u64(5)),
            _ => panic!("second lookup must hit"),
        }
        assert_eq!(c.ready_len(), 1);
    }

    #[test]
    fn joiner_woken_by_leader() {
        let c = Arc::new(cache());
        let token = match c.begin(key(2)) {
            Lookup::Lead(t) => t,
            _ => panic!("must lead"),
        };
        let flight = match c.begin(key(2)) {
            Lookup::Join(f) => f,
            _ => panic!("must join"),
        };
        let waiter = std::thread::spawn(move || flight.wait(None));
        c.complete(token, Outcome::Count(Nat::one()));
        let got = waiter.join().unwrap().expect("leader published");
        assert_eq!(got.as_count(), Some(&Nat::one()));
    }

    #[test]
    fn joiner_deadline_expires_independently() {
        let c = cache();
        let _token = match c.begin(key(3)) {
            Lookup::Lead(t) => t,
            _ => panic!("must lead"),
        };
        let flight = match c.begin(key(3)) {
            Lookup::Join(f) => f,
            _ => panic!("must join"),
        };
        // Leader never completes within our 20ms deadline.
        let got = flight.wait(Some(Instant::now() + Duration::from_millis(20)));
        assert!(got.is_none(), "joiner must observe its own deadline");
    }

    #[test]
    fn dropped_lead_token_wakes_joiners_and_evicts() {
        let c = cache();
        let token = match c.begin(key(9)) {
            Lookup::Lead(t) => t,
            _ => panic!("must lead"),
        };
        let flight = match c.begin(key(9)) {
            Lookup::Join(f) => f,
            _ => panic!("must join"),
        };
        // Leader "dies" (panic unwound past the lead path) without
        // completing: the joiner must wake with a failure, not hang.
        drop(token);
        match flight.wait(None) {
            Some(Outcome::Panicked(msg)) => assert!(msg.contains("leader died"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(c.ready_len(), 0);
        // And the key is free for a retry to lead.
        assert!(matches!(c.begin(key(9)), Lookup::Lead(_)));
    }

    #[test]
    fn store_tier_reads_through_and_writes_behind() {
        let dir = std::env::temp_dir().join(format!("bagcq-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        let metrics = Arc::new(Metrics::new());
        {
            let c = MemoCache::new(4, Arc::clone(&metrics)).with_store(Some(Arc::clone(&store)));
            let token = match c.begin(key(7)) {
                Lookup::Lead(t) => t,
                _ => panic!("must lead"),
            };
            // Write-behind: completion lands in the store...
            c.complete(token, Outcome::Count(Nat::from_u64(77)));
            assert_eq!(store.get(&key(7)).unwrap().as_count(), Some(&Nat::from_u64(77)));
            // ...but failures never do.
            let token = match c.begin(key(8)) {
                Lookup::Lead(t) => t,
                _ => panic!("must lead"),
            };
            c.complete(token, Outcome::TimedOut);
            assert!(store.get(&key(8)).is_none());
        }
        // A fresh cache over the same store: the miss reads through.
        let c = MemoCache::new(4, Arc::clone(&metrics)).with_store(Some(store));
        match c.begin(key(7)) {
            Lookup::Hit(Outcome::Count(n)) => assert_eq!(n, Nat::from_u64(77)),
            _ => panic!("store-backed lookup must hit"),
        }
        assert_eq!(metrics.snapshot().store_hits, 1);
        // The read-through promoted the entry to a Ready slot.
        assert_eq!(c.ready_len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_are_published_but_not_cached() {
        let c = cache();
        let token = match c.begin(key(4)) {
            Lookup::Lead(t) => t,
            _ => panic!("must lead"),
        };
        let flight = match c.begin(key(4)) {
            Lookup::Join(f) => f,
            _ => panic!("must join"),
        };
        c.complete(token, Outcome::TimedOut);
        assert!(matches!(flight.wait(None), Some(Outcome::TimedOut)));
        assert_eq!(c.ready_len(), 0);
        // Next lookup retries from scratch.
        assert!(matches!(c.begin(key(4)), Lookup::Lead(_)));
    }
}
