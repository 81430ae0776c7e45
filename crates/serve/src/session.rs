//! Sharded concurrent session store.
//!
//! Sessions are the per-user state [`irs_core::run_interactive_session`]
//! used to own internally: the accepted path prefix, the rejection
//! blocklist and the `accepted ⊕ rejected` virtual path.  The store
//! shards them by id across independently locked maps so concurrent
//! request handlers for different sessions rarely contend, while one
//! session's transitions stay serialised behind its shard lock.
//!
//! Every access refreshes a per-session last-seen timestamp;
//! [`SessionStore::sweep_older_than`] evicts sessions idle past a TTL —
//! the frontend runs it from a background sweeper so abandoned sessions
//! stop pinning slots against the `max_sessions` cap.
//!
//! A session with a request in flight must not be swept out from under
//! that request (the model round-trip can outlast a short TTL, and losing
//! the session mid-request drops the give-up record or 404s the follow-up
//! feedback).  [`SessionStore::pin`] marks a session busy for the
//! lifetime of the returned [`SessionPin`] guard; the sweeper skips
//! pinned sessions no matter how stale their timestamp looks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use irs_core::{ContextCache, InteractiveSession};

use crate::snapshot::NUM_ARMS;

/// Opaque session identifier handed to clients.
pub type SessionId = u64;

/// A stored session plus its idle-tracking timestamp.
struct Slot {
    session: InteractiveSession,
    last_seen: Instant,
    /// In-flight requests currently pinning this session (see
    /// [`SessionStore::pin`]); the sweeper never evicts a pinned slot.
    pins: u32,
    /// The session's incremental model state between requests (see
    /// [`SessionStore::take_cache`]); evicted with the session, or
    /// individually when the store's cache budget runs out.
    cache: Option<ContextCache>,
    /// The traffic arm the session was sticky-assigned to at creation;
    /// every request it makes scores against this arm's snapshot.
    arm: usize,
}

/// A sharded `SessionId → InteractiveSession` map with idle tracking.
pub struct SessionStore {
    shards: Vec<Mutex<HashMap<SessionId, Slot>>>,
    next_id: AtomicU64,
    /// Byte budget for stored [`ContextCache`]s; 0 disables cache
    /// storage entirely.
    cache_budget: usize,
    /// Resident bytes of every cache currently parked in a slot.
    cache_bytes: AtomicUsize,
    /// Caches dropped to stay within the budget (LRU fallback — the
    /// affected session silently re-encodes cold on its next request).
    cache_evictions: AtomicU64,
}

impl SessionStore {
    /// Create a store with `num_shards` independent shards (rounded up to
    /// at least 1) and no context-cache storage.
    pub fn new(num_shards: usize) -> Self {
        Self::with_cache_budget(num_shards, 0)
    }

    /// Create a store whose slots may park up to `cache_budget_bytes` of
    /// per-session incremental model state ([`ContextCache`]); 0 disables
    /// cache storage.
    pub fn with_cache_budget(num_shards: usize, cache_budget_bytes: usize) -> Self {
        let n = num_shards.max(1);
        SessionStore {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            cache_budget: cache_budget_bytes,
            cache_bytes: AtomicUsize::new(0),
            cache_evictions: AtomicU64::new(0),
        }
    }

    /// Whether this store parks context caches at all.
    pub fn cache_enabled(&self) -> bool {
        self.cache_budget > 0
    }

    /// Resident bytes of every parked context cache.
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache_bytes.load(Ordering::Relaxed)
    }

    /// Caches dropped by the LRU budget fallback since startup.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    /// Take the session's parked context cache for a request round-trip
    /// (hand it back with [`SessionStore::put_cache`]).  `None` when the
    /// session is unknown or has no cache parked.
    pub fn take_cache(&self, id: SessionId) -> Option<ContextCache> {
        let cache = self.shard(id).get_mut(&id).and_then(|slot| slot.cache.take())?;
        self.cache_bytes.fetch_sub(cache.resident_bytes(), Ordering::Relaxed);
        Some(cache)
    }

    /// Park a context cache on the session, evicting least-recently-seen
    /// caches from *other* sessions if the budget demands it.  The cache
    /// (or, as a last resort, the incoming one) is dropped when the
    /// budget still cannot accommodate it — the session then re-encodes
    /// cold next time, which is always correct.
    pub fn put_cache(&self, id: SessionId, cache: ContextCache) {
        if self.cache_budget == 0 {
            return;
        }
        let bytes = cache.resident_bytes();
        while bytes > self.cache_budget.saturating_sub(self.cache_bytes.load(Ordering::Relaxed)) {
            if !self.evict_lru_cache(id) {
                // Nothing evictable is left (or the cache alone exceeds
                // the budget): drop the incoming cache instead.
                self.cache_evictions.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let mut shard = self.shard(id);
        let Some(slot) = shard.get_mut(&id) else { return }; // session evicted mid-flight
        slot.cache = Some(cache);
        self.cache_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Drop the least-recently-seen parked cache, skipping `keep` (the
    /// session whose cache is being parked).  Returns whether anything
    /// was evicted.
    fn evict_lru_cache(&self, keep: SessionId) -> bool {
        let mut victim: Option<(SessionId, Instant)> = None;
        for shard in &self.shards {
            for (&id, slot) in shard.lock().unwrap_or_else(PoisonError::into_inner).iter() {
                if id != keep && slot.cache.is_some() {
                    let older = victim.is_none_or(|(_, seen)| slot.last_seen < seen);
                    if older {
                        victim = Some((id, slot.last_seen));
                    }
                }
            }
        }
        let Some((id, _)) = victim else { return false };
        // Re-lock the victim's shard; the cache may have been taken by a
        // concurrent request in the window — treat that as nothing to
        // evict this round.
        let Some(cache) = self.shard(id).get_mut(&id).and_then(|slot| slot.cache.take()) else {
            return false;
        };
        self.cache_bytes.fetch_sub(cache.resident_bytes(), Ordering::Relaxed);
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Lock the shard that holds `id`.
    fn shard(&self, id: SessionId) -> MutexGuard<'_, HashMap<SessionId, Slot>> {
        // Ids are sequential; a multiplicative hash spreads neighbouring
        // sessions across shards (Fibonacci hashing).
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.shards[(h >> 32) as usize % self.shards.len()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert a new session on the stable arm and return its id.
    pub fn insert(&self, session: InteractiveSession) -> SessionId {
        self.insert_assigned(session, |_| 0).0
    }

    /// Insert a new session, letting `assign` pick its sticky traffic arm
    /// from the freshly allocated id (the id is the split hash's input,
    /// so assignment has to happen after allocation).  Returns the id and
    /// the assigned arm (clamped into range).
    pub fn insert_assigned(
        &self,
        session: InteractiveSession,
        assign: impl FnOnce(SessionId) -> usize,
    ) -> (SessionId, usize) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let arm = assign(id).min(NUM_ARMS - 1);
        self.shard(id)
            .insert(id, Slot { session, last_seen: Instant::now(), pins: 0, cache: None, arm });
        (id, arm)
    }

    /// Pin the session against TTL eviction and run `f` on it (and its
    /// assigned arm) under the shard lock — one lock acquisition covers
    /// both, so there is no window where the sweeper can evict between
    /// the read and the pin.  The pin lasts until the returned
    /// [`SessionPin`] is dropped.  `None` when the id is unknown.
    pub fn pin_with<T>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut InteractiveSession, usize) -> T,
    ) -> Option<(SessionPin<'_>, T)> {
        let mut shard = self.shard(id);
        let slot = shard.get_mut(&id)?;
        slot.last_seen = Instant::now();
        slot.pins += 1;
        let value = f(&mut slot.session, slot.arm);
        drop(shard);
        Some((SessionPin { store: self, id }, value))
    }

    fn unpin(&self, id: SessionId) {
        if let Some(slot) = self.shard(id).get_mut(&id) {
            slot.pins = slot.pins.saturating_sub(1);
            // The request that held the pin just finished: that is
            // activity, so the idle clock restarts now rather than at the
            // moment the request started.
            slot.last_seen = Instant::now();
        }
    }

    /// Run `f` on the session under its shard lock, refreshing its
    /// idle timestamp.  `None` when the id is unknown (expired or never
    /// issued).
    pub fn with<T>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut InteractiveSession) -> T,
    ) -> Option<T> {
        self.with_arm(id, |session, _| f(session))
    }

    /// Like [`SessionStore::with`], also handing `f` the session's sticky
    /// traffic arm.
    pub fn with_arm<T>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut InteractiveSession, usize) -> T,
    ) -> Option<T> {
        self.shard(id).get_mut(&id).map(|slot| {
            slot.last_seen = Instant::now();
            f(&mut slot.session, slot.arm)
        })
    }

    /// Live sessions per traffic arm (one pass over every shard; a stats
    /// endpoint cost, not a request-path one).
    pub fn arm_census(&self) -> [usize; NUM_ARMS] {
        let mut census = [0usize; NUM_ARMS];
        for shard in &self.shards {
            for slot in shard.lock().unwrap_or_else(PoisonError::into_inner).values() {
                census[slot.arm.min(NUM_ARMS - 1)] += 1;
            }
        }
        census
    }

    /// Remove a session, returning its final state.
    pub fn remove(&self, id: SessionId) -> Option<InteractiveSession> {
        let slot = self.shard(id).remove(&id)?;
        if let Some(cache) = &slot.cache {
            self.cache_bytes.fetch_sub(cache.resident_bytes(), Ordering::Relaxed);
        }
        Some(slot.session)
    }

    /// Evict every session idle for at least `ttl`, returning how many
    /// were dropped.  Shards are swept one lock at a time, so request
    /// handlers only ever contend with the sweep of their own shard.
    /// Sessions with an in-flight request (pinned) are never evicted,
    /// however stale their idle timestamp — the request finishing will
    /// refresh it.
    pub fn sweep_older_than(&self, ttl: Duration) -> usize {
        let now = Instant::now();
        self.shards
            .iter()
            .map(|s| {
                let mut shard = s.lock().unwrap_or_else(PoisonError::into_inner);
                let before = shard.len();
                let mut freed = 0usize;
                shard.retain(|_, slot| {
                    let keep = slot.pins > 0 || now.duration_since(slot.last_seen) < ttl;
                    if !keep {
                        if let Some(cache) = &slot.cache {
                            freed += cache.resident_bytes();
                        }
                    }
                    keep
                });
                if freed > 0 {
                    self.cache_bytes.fetch_sub(freed, Ordering::Relaxed);
                }
                before - shard.len()
            })
            .sum()
    }

    /// Number of live sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII guard marking a session as having a request in flight (see
/// [`SessionStore::pin_with`]).  Dropping it unpins the session and
/// refreshes its idle timestamp — panic-safe, so a handler that unwinds
/// mid-request cannot leave a session pinned forever.
pub struct SessionPin<'a> {
    store: &'a SessionStore,
    id: SessionId,
}

impl Drop for SessionPin<'_> {
    fn drop(&mut self) {
        self.store.unpin(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(user: usize) -> InteractiveSession {
        InteractiveSession::new(user, vec![1, 2], 9, 10, 3)
    }

    #[test]
    fn insert_with_remove_round_trip() {
        let store = SessionStore::new(4);
        let a = store.insert(session(0));
        let b = store.insert(session(1));
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        assert_eq!(store.with(a, |s| s.user()), Some(0));
        assert_eq!(store.with(b, |s| s.user()), Some(1));
        store.with(a, |s| s.record(5, true));
        assert_eq!(store.with(a, |s| s.accepted().to_vec()), Some(vec![5]));
        let removed = store.remove(a).unwrap();
        assert_eq!(removed.accepted(), &[5]);
        assert!(store.with(a, |_| ()).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn sweep_evicts_only_idle_sessions() {
        let store = SessionStore::new(4);
        let a = store.insert(session(0));
        let b = store.insert(session(1));
        std::thread::sleep(Duration::from_millis(30));
        // Touch `a` so only `b` is idle past the TTL.
        store.with(a, |_| ());
        let evicted = store.sweep_older_than(Duration::from_millis(20));
        assert_eq!(evicted, 1);
        assert!(store.with(a, |_| ()).is_some(), "touched session must survive");
        assert!(store.with(b, |_| ()).is_none(), "idle session must be evicted");
        // A generous TTL evicts nothing.
        assert_eq!(store.sweep_older_than(Duration::from_secs(3600)), 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn pinned_sessions_survive_the_sweep() {
        let store = SessionStore::new(2);
        let a = store.insert(session(0));
        let b = store.insert(session(1));
        let (pin, user) = store.pin_with(a, |s, _| s.user()).unwrap();
        assert_eq!(user, 0);
        std::thread::sleep(Duration::from_millis(25));
        // Both sessions look idle, but `a` has a request in flight.
        let evicted = store.sweep_older_than(Duration::from_millis(10));
        assert_eq!(evicted, 1);
        assert!(store.with(a, |_| ()).is_some(), "pinned session must survive");
        assert!(store.with(b, |_| ()).is_none(), "unpinned idle session must be evicted");
        drop(pin);
        // Unpinning refreshes the idle clock, so an immediate sweep still
        // spares it…
        assert_eq!(store.sweep_older_than(Duration::from_millis(10)), 0);
        std::thread::sleep(Duration::from_millis(25));
        // …but once genuinely idle again it is evictable.
        assert_eq!(store.sweep_older_than(Duration::from_millis(10)), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn pin_is_reentrant_across_requests() {
        let store = SessionStore::new(2);
        let a = store.insert(session(0));
        let (p1, ()) = store.pin_with(a, |_, _| ()).unwrap();
        let (p2, ()) = store.pin_with(a, |_, _| ()).unwrap();
        drop(p1);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            store.sweep_older_than(Duration::from_millis(5)),
            0,
            "second in-flight request must keep the session pinned"
        );
        drop(p2);
        assert!(store.pin_with(99, |_, _| ()).is_none(), "unknown ids cannot be pinned");
    }

    #[test]
    fn arm_assignment_is_sticky_and_censused() {
        let store = SessionStore::new(4);
        // Odd ids to the canary, even ids stable.
        let assign = |id: SessionId| (id % 2) as usize;
        let mut canary = 0usize;
        let mut ids = Vec::new();
        for u in 0..10 {
            let (id, arm) = store.insert_assigned(session(u), assign);
            assert_eq!(arm, assign(id), "assignment sees the allocated id");
            canary += arm;
            ids.push((id, arm));
        }
        for &(id, arm) in &ids {
            assert_eq!(store.with_arm(id, |_, a| a), Some(arm), "arm is sticky");
            let (pin, pinned_arm) = store.pin_with(id, |_, a| a).unwrap();
            assert_eq!(pinned_arm, arm);
            drop(pin);
        }
        let census = store.arm_census();
        assert_eq!(census[1], canary);
        assert_eq!(census[0] + census[1], 10);
        // Plain insert defaults to the stable arm; out-of-range
        // assignments clamp.
        let a = store.insert(session(0));
        assert_eq!(store.with_arm(a, |_, arm| arm), Some(0));
        let (_, clamped) = store.insert_assigned(session(1), |_| 99);
        assert_eq!(clamped, NUM_ARMS - 1);
    }

    struct FakeState(usize);
    impl irs_core::CacheState for FakeState {
        fn resident_bytes(&self) -> usize {
            self.0
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn cache(bytes: usize) -> ContextCache {
        ContextCache { state: Box::new(FakeState(bytes)), generation: 1 }
    }

    #[test]
    fn cache_budget_parks_takes_and_evicts_lru() {
        let store = SessionStore::with_cache_budget(2, 100);
        assert!(store.cache_enabled());
        let a = store.insert(session(0));
        let b = store.insert(session(1));
        store.put_cache(a, cache(60));
        assert_eq!(store.cache_resident_bytes(), 60);
        std::thread::sleep(Duration::from_millis(5));
        store.with(b, |_| ()); // `b` is now the more recently seen session
        store.put_cache(b, cache(60)); // over budget → `a`'s cache is the LRU victim
        assert_eq!(store.cache_resident_bytes(), 60);
        assert_eq!(store.cache_evictions(), 1);
        assert!(store.take_cache(a).is_none(), "LRU cache must be gone");
        assert!(store.take_cache(b).is_some(), "parked cache comes back");
        assert_eq!(store.cache_resident_bytes(), 0);
        // A cache bigger than the whole budget is dropped outright.
        store.put_cache(b, cache(200));
        assert!(store.take_cache(b).is_none());
        assert_eq!(store.cache_evictions(), 2);
        // Removing a session releases its cache bytes.
        store.put_cache(b, cache(40));
        assert_eq!(store.cache_resident_bytes(), 40);
        store.remove(b);
        assert_eq!(store.cache_resident_bytes(), 0);
    }

    #[test]
    fn disabled_cache_budget_parks_nothing() {
        let store = SessionStore::new(2);
        assert!(!store.cache_enabled());
        let a = store.insert(session(0));
        store.put_cache(a, cache(10));
        assert!(store.take_cache(a).is_none());
        assert_eq!(store.cache_resident_bytes(), 0);
    }

    #[test]
    fn unknown_ids_are_none() {
        let store = SessionStore::new(2);
        assert!(store.with(99, |_| ()).is_none());
        assert!(store.remove(99).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_inserts_get_unique_ids() {
        let store = std::sync::Arc::new(SessionStore::new(8));
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                (0..50).map(|_| store.insert(session(t))).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<SessionId> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "ids must be unique across threads");
        assert_eq!(store.len(), 200);
    }
}
