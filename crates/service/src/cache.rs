//! Byte-budgeted tile LRU with single-flight builds, panic isolation,
//! failure quarantine, and stale retention.
//!
//! An entry is one tile's mesh, keyed `(snapshot, tile)`, and it *grows*:
//! estimator tables are filled into it on first use ([`TileCache::fill`]).
//! The cache therefore records what it charged for each entry and charges
//! again after every fill; it never asks an entry its size to *subtract*.
//!
//! Invariants (the `cache_concurrency` test hammers these):
//!
//! 1. **Budget** — the sum of charged entry sizes never exceeds the byte
//!    budget at any instant the cache lock is released. Insertion, growth
//!    and eviction each happen under one lock hold; an entry bigger than
//!    the whole budget — as built, or as grown — is left with its
//!    requester but not retained ("uncacheable").
//! 2. **Single-flight** — concurrent requests for an absent key run the
//!    build closure exactly once; the rest park on a condvar and receive
//!    the shared result. A failed build unparks everyone and the next
//!    caller retries. (Concurrent fills of one table are the entry's to
//!    serialise; [`crate::tiles::TileData::fill_table`] runs one.)
//! 3. **LRU** — when over budget, the least-recently-*used* entry is
//!    evicted first; the entry just inserted or grown is never its own
//!    victim (it is, by definition, the one in use).
//! 4. **Panic isolation** — a build or fill closure that panics behaves
//!    exactly like one that returned an error: the slot is cleaned up,
//!    every parked waiter is woken, and the panic is converted to a typed
//!    [`ServiceError::Internal`]. Without this, one panicking estimator
//!    would leave a permanent `Building` slot and deadlock every future
//!    request for that key. A panicking fill leaves the mesh resident.
//! 5. **Quarantine** — a per-key negative cache tracks consecutive build
//!    and fill failures. Past [`QuarantinePolicy::after`] failures the key
//!    is quarantined with an exponentially growing retry-after window, so
//!    a sick tile (corrupt snapshot region, panicking estimator) is not
//!    rebuilt — and does not burn a worker — on every request.
//! 6. **Stale retention** — with a non-zero stale budget, evicted entries
//!    are retained in a side map (their own LRU) so the server's
//!    `stale_while_revalidate` mode can serve a flagged, older render
//!    when the fresh path is overloaded or quarantined.

use crate::error::ServiceError;
use crate::tiles::{Charge, SharedTile, TileData, TileKey};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

enum Slot {
    /// A build is in flight on some thread; waiters park on the condvar.
    Building,
    Ready {
        data: SharedTile,
        /// What `State::bytes` holds for this entry (the total): its size
        /// when it was last charged, not what it may have grown to since.
        charged: Charge,
        last_used: u64,
    },
}

/// An evicted-but-retained entry, eligible for degraded serving.
struct StaleEntry {
    data: SharedTile,
    /// Its share of `State::stale_bytes`.
    bytes: usize,
    last_used: u64,
}

/// When and for how long a repeatedly failing tile key is quarantined.
#[derive(Clone, Copy, Debug)]
pub struct QuarantinePolicy {
    /// Consecutive failures before the first quarantine window. Failures
    /// below the threshold retry immediately — one transient failure
    /// shouldn't cost a backoff window.
    pub after: u32,
    /// First quarantine window; doubles per subsequent failure.
    pub base: Duration,
    /// Window cap.
    pub max: Duration,
}

impl Default for QuarantinePolicy {
    fn default() -> QuarantinePolicy {
        QuarantinePolicy {
            after: 2,
            base: Duration::from_millis(100),
            max: Duration::from_secs(30),
        }
    }
}

impl QuarantinePolicy {
    /// Quarantine window after `fails` consecutive failures:
    /// `base · 2^(fails − after)`, capped at `max`.
    pub(crate) fn window(&self, fails: u32) -> Duration {
        let doublings = fails.saturating_sub(self.after).min(32);
        self.base
            .saturating_mul(1u32 << doublings.min(31))
            .min(self.max)
    }
}

/// Consecutive-failure record in a [`FailureLedger`].
#[derive(Default)]
struct NegEntry {
    fails: u32,
    /// Work before this instant is refused with `Quarantined`. `None`
    /// until the failure count crosses the policy threshold.
    retry_at: Option<Instant>,
}

/// The negative cache behind both quarantines (tile builds here, snapshot
/// loads in the registry): consecutive failures per key under one
/// [`QuarantinePolicy`]. Callers keep their own lock around it and their
/// own telemetry counters.
pub(crate) struct FailureLedger<K> {
    policy: QuarantinePolicy,
    entries: HashMap<K, NegEntry>,
}

impl<K: Hash + Eq> FailureLedger<K> {
    pub(crate) fn new(policy: QuarantinePolicy) -> FailureLedger<K> {
        FailureLedger {
            policy,
            entries: HashMap::new(),
        }
    }

    /// `Some(retry_after_ms)` while `key` is inside a quarantine window.
    pub(crate) fn gate<Q>(&self, key: &Q) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = self.entries.get(key)?.retry_at?;
        let now = Instant::now();
        (at > now).then(|| (at - now).as_millis().max(1) as u64)
    }

    /// Bump the key's consecutive-failure count; `true` when that armed a
    /// quarantine window (the count is at or past the policy threshold).
    pub(crate) fn record_failure(&mut self, key: K) -> bool {
        let entry = self.entries.entry(key).or_default();
        entry.fails = entry.fails.saturating_add(1);
        let quarantined = entry.fails >= self.policy.after;
        if quarantined {
            entry.retry_at = Some(Instant::now() + self.policy.window(entry.fails));
        }
        quarantined
    }

    /// Forget the key's failures (it just succeeded).
    pub(crate) fn clear<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.remove(key);
    }

    /// Number of keys currently inside a quarantine window.
    fn quarantined(&self) -> usize {
        self.entries
            .keys()
            .filter(|&k| self.gate(k).is_some())
            .count()
    }
}

/// Run `f` under panic isolation: `Err(message)` if it panicked. Callers
/// hand over a closure that owns its captures and hold no lock across the
/// call, so a panic cannot leave shared state half-mutated — unwind safety
/// holds by construction.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        if let Some(s) = p.downcast_ref::<&str>() {
            s.to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string payload>".to_string()
        }
    })
}

struct State {
    map: HashMap<TileKey, Slot>,
    /// Bytes held by `Ready` entries. `Building` slots are unsized (their
    /// cost is charged on insertion).
    bytes: usize,
    /// Evicted-but-retained entries, bounded by `stale_budget`.
    stale: HashMap<TileKey, StaleEntry>,
    stale_bytes: usize,
    /// Negative cache: consecutive build failures per key.
    neg: FailureLedger<TileKey>,
    /// Logical clock for LRU recency (monotonic per state mutation).
    tick: u64,
}

/// Always-on counters (telemetry mirrors them when a recorder is
/// installed; tests read them directly).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub singleflight_parks: AtomicU64,
    pub evictions: AtomicU64,
    pub uncacheable: AtomicU64,
    pub build_failures: AtomicU64,
    /// Builds that panicked (a subset of `build_failures`).
    pub build_panics: AtomicU64,
    /// Requests refused because their key was quarantined.
    pub quarantine_rejects: AtomicU64,
    /// Stale-map lookups that found a retained entry.
    pub stale_hits: AtomicU64,
}

/// The tile cache. Cheap to share (`Arc` internally is not needed — the
/// server holds it in an `Arc` itself).
pub struct TileCache {
    budget: usize,
    stale_budget: usize,
    state: Mutex<State>,
    cv: Condvar,
    pub stats: CacheStats,
}

impl TileCache {
    /// A cache with no stale retention and the default quarantine policy.
    pub fn new(budget_bytes: usize) -> TileCache {
        TileCache::with_policy(budget_bytes, 0, QuarantinePolicy::default())
    }

    /// A cache with an explicit stale-retention budget and quarantine
    /// policy.
    pub fn with_policy(
        budget_bytes: usize,
        stale_budget_bytes: usize,
        policy: QuarantinePolicy,
    ) -> TileCache {
        TileCache {
            budget: budget_bytes,
            stale_budget: stale_budget_bytes,
            state: Mutex::new(State {
                map: HashMap::new(),
                bytes: 0,
                stale: HashMap::new(),
                stale_bytes: 0,
                neg: FailureLedger::new(policy),
                tick: 0,
            }),
            cv: Condvar::new(),
            stats: CacheStats::default(),
        }
    }

    /// Byte budget this cache enforces.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently held by resident entries.
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().unwrap().bytes
    }

    /// [`TileCache::resident_bytes`] by component: what each resident
    /// entry was charged, summed term by term.
    pub fn resident_charge(&self) -> Charge {
        let st = self
            .state
            .lock()
            .expect("builds and fills run outside this lock");
        let mut sum = Charge::default();
        for slot in st.map.values() {
            if let Slot::Ready { charged, .. } = slot {
                sum += *charged;
            }
        }
        sum
    }

    /// The slice of [`TileCache::resident_bytes`] attributable to ghost
    /// padding. In a cluster this is the per-shard duplication cost of
    /// replicated tiles: each shard holding a replica re-materialises the
    /// same padding, so the padding bytes are counted *once per shard*
    /// (inside each entry's size) rather than once per cluster — the
    /// per-shard `Stats` document exposes them so an operator can see how
    /// much of every shard's budget is replicated ghosts.
    pub fn resident_ghost_bytes(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.map
            .values()
            .filter_map(|s| match s {
                Slot::Ready { data, .. } => Some(data.ghost_bytes()),
                Slot::Building => None,
            })
            .sum()
    }

    /// Number of resident (`Ready`) entries.
    pub fn resident_entries(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Number of retained stale entries.
    pub fn stale_entries(&self) -> usize {
        self.state.lock().unwrap().stale.len()
    }

    /// Number of keys currently inside a quarantine window.
    pub fn quarantined_entries(&self) -> usize {
        self.state.lock().unwrap().neg.quarantined()
    }

    /// Is the key resident right now? (Racy by nature.)
    pub fn is_resident(&self, key: &TileKey) -> bool {
        self.peek(key).is_some()
    }

    /// The resident entry, without counting a use or a hit. Admission
    /// prices from this, where an answer gone stale merely misprices
    /// slightly.
    pub fn peek(&self, key: &TileKey) -> Option<SharedTile> {
        match self.state.lock().unwrap().map.get(key) {
            Some(Slot::Ready { data, .. }) => Some(data.clone()),
            _ => None,
        }
    }

    /// Look up an evicted-but-retained stale copy of `key`. Never builds;
    /// never touches the fresh map. The caller is responsible for flagging
    /// the response degraded.
    pub fn get_stale(&self, key: &TileKey) -> Option<SharedTile> {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        let entry = st.stale.get_mut(key)?;
        entry.last_used = tick;
        self.stats.stale_hits.fetch_add(1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.cache_stale_hits", 1);
        Some(entry.data.clone())
    }

    /// Fetch `key`, running `build` on this thread if it is absent.
    /// Returns the tile and whether it was a hit (resident before the
    /// call). Parked waiters that ride on another thread's build report a
    /// *miss* — their latency includes the build they waited out.
    ///
    /// A `build` that panics is isolated: the panic is caught, waiters are
    /// woken, and the caller receives a typed
    /// [`ServiceError::Internal`]. Repeated failures (panic or error
    /// alike) quarantine the key per the cache's [`QuarantinePolicy`],
    /// after which callers receive
    /// [`ServiceError::Quarantined`](crate::ServiceError::Quarantined)
    /// without running `build` at all.
    pub fn get_or_build<F>(
        &self,
        key: &TileKey,
        build: F,
    ) -> Result<(SharedTile, bool), ServiceError>
    where
        F: FnOnce() -> Result<TileData, ServiceError>,
    {
        let mut build = Some(build);
        let mut parked = false;
        let mut st = self.state.lock().unwrap();
        loop {
            let tick = st.tick + 1;
            match st.map.get_mut(key) {
                Some(Slot::Ready {
                    data, last_used, ..
                }) => {
                    *last_used = tick;
                    let data = data.clone();
                    st.tick = tick;
                    if parked {
                        // We waited out someone else's build: a miss that
                        // cost build latency, not a hit.
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        dtfe_telemetry::counter_add!("service.cache_misses", 1);
                    } else {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        dtfe_telemetry::counter_add!("service.cache_hits", 1);
                    }
                    return Ok((data, !parked));
                }
                Some(Slot::Building) => {
                    parked = true;
                    self.stats
                        .singleflight_parks
                        .fetch_add(1, Ordering::Relaxed);
                    dtfe_telemetry::counter_add!("service.singleflight_parks", 1);
                    st = self.cv.wait(st).unwrap();
                    // Loop: the slot is now Ready (use it), gone (build
                    // failed — take over the build), or Building again
                    // (another waiter took over first).
                }
                None => {
                    // Quarantine gate: a key that keeps failing is refused
                    // here, before any build is claimed.
                    self.gate(&st, key)?;
                    st.map.insert(key.clone(), Slot::Building);
                    drop(st);
                    let build_fn = build.take().expect(
                        "build closure consumed twice — \
                        a vacant slot can only be claimed once per call",
                    );
                    let built = catch_panic(build_fn)
                        .unwrap_or_else(|msg| Err(self.panicked("tile build", &msg)));
                    st = self.state.lock().unwrap();
                    match built {
                        Err(e) => {
                            st.map.remove(key);
                            self.book_failure(&mut st, key);
                            self.cv.notify_all();
                            return Err(e);
                        }
                        Ok(data) => {
                            let data = Arc::new(data);
                            self.stats.misses.fetch_add(1, Ordering::Relaxed);
                            dtfe_telemetry::counter_add!("service.cache_misses", 1);
                            st.neg.clear(key);
                            // A fresh build supersedes any stale copy.
                            if let Some(old) = st.stale.remove(key) {
                                st.stale_bytes -= old.bytes;
                            }
                            self.insert_and_evict(&mut st, key, data.clone());
                            dtfe_telemetry::gauge_set!("service.cache_bytes", st.bytes as i64);
                            self.cv.notify_all();
                            return Ok((data, false));
                        }
                    }
                }
            }
        }
    }

    /// Grow a fetched entry: run `fill`, which adds a table to `data` in
    /// place and says whether it built anything, then charge the entry at
    /// its new size. Call it when `data` lacks what the request needs.
    ///
    /// `fill` runs with no lock held and under the same isolation as a
    /// build: a panic is a typed [`ServiceError::Internal`], counted as a
    /// build failure and booked on the key's failure ledger, and a key
    /// inside a quarantine window is refused without running `fill`. The
    /// mesh stays resident either way.
    ///
    /// The charge evicts LRU *other* entries to make room. An entry that
    /// alone outgrew the whole budget leaves the cache as `uncacheable`
    /// (into the stale set, if that has room); the caller's `Arc` still
    /// answers its request.
    pub fn fill<F>(&self, key: &TileKey, data: &SharedTile, fill: F) -> Result<bool, ServiceError>
    where
        F: FnOnce() -> bool,
    {
        self.gate(&self.state.lock().unwrap(), key)?;
        let filled = catch_panic(fill);
        let mut st = self.state.lock().unwrap();
        match filled {
            Err(msg) => {
                self.book_failure(&mut st, key);
                Err(self.panicked("table fill", &msg))
            }
            Ok(built) => {
                st.neg.clear(key);
                if built {
                    self.recharge(&mut st, key, data);
                    dtfe_telemetry::gauge_set!("service.cache_bytes", st.bytes as i64);
                }
                Ok(built)
            }
        }
    }

    /// Quarantine gate: a key that keeps failing is refused before any
    /// build or fill is claimed for it.
    fn gate(&self, st: &State, key: &TileKey) -> Result<(), ServiceError> {
        let Some(retry_after_ms) = st.neg.gate(key) else {
            return Ok(());
        };
        self.stats
            .quarantine_rejects
            .fetch_add(1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.quarantine_rejects", 1);
        Err(ServiceError::Quarantined { retry_after_ms })
    }

    /// Count a caught panic and type it.
    fn panicked(&self, what: &str, msg: &str) -> ServiceError {
        self.stats.build_panics.fetch_add(1, Ordering::Relaxed);
        dtfe_telemetry::counter_add!("service.build_panics", 1);
        ServiceError::Internal(format!("{what} panicked: {msg}"))
    }

    /// Book a failed build or fill on the key's failure ledger.
    fn book_failure(&self, st: &mut State, key: &TileKey) {
        self.stats.build_failures.fetch_add(1, Ordering::Relaxed);
        if st.neg.record_failure(key.clone()) {
            dtfe_telemetry::counter_add!("service.quarantined_tiles", 1);
        }
    }

    /// Charge `data` at the size it has now, wherever the cache holds it:
    /// resident (evicting others, or itself if it alone is over budget),
    /// stale (an in-flight batch can fill an entry evicted under it), or
    /// nowhere (an uncacheable entry is its requester's alone).
    fn recharge(&self, st: &mut State, key: &TileKey, data: &SharedTile) {
        let charge = data.charge();
        let now = charge.total();
        match st.map.get_mut(key) {
            Some(Slot::Ready {
                data: held,
                charged,
                ..
            }) if Arc::ptr_eq(held, data) => {
                st.bytes = st.bytes - charged.total() + now;
                *charged = charge;
                if now <= self.budget {
                    self.evict_to_budget(st, key);
                } else if let Some(Slot::Ready {
                    data, last_used, ..
                }) = st.map.remove(key)
                {
                    st.bytes -= now;
                    self.stats.uncacheable.fetch_add(1, Ordering::Relaxed);
                    dtfe_telemetry::counter_add!("service.cache_uncacheable", 1);
                    self.retain_stale(st, key.clone(), data, now, last_used);
                }
            }
            _ => {
                let held = st.stale.get(key);
                if held.is_some_and(|e| Arc::ptr_eq(&e.data, data)) {
                    let e = st
                        .stale
                        .remove(key)
                        .expect("looked up under this lock hold");
                    st.stale_bytes -= e.bytes;
                    self.retain_stale(st, key.clone(), e.data, now, e.last_used);
                }
            }
        }
    }

    /// Insert a freshly built entry and evict LRU entries until the budget
    /// holds again — all under the caller's lock hold, so the invariant
    /// `bytes ≤ budget` is true whenever the lock is free.
    fn insert_and_evict(&self, st: &mut State, key: &TileKey, data: SharedTile) {
        let charged = data.charge();
        let bytes = charged.total();
        if bytes > self.budget {
            // Larger than the whole cache: hand it to the requester but
            // do not retain it (retaining would break the invariant, and
            // evicting the entire cache for one entry would thrash).
            st.map.remove(key);
            self.stats.uncacheable.fetch_add(1, Ordering::Relaxed);
            dtfe_telemetry::counter_add!("service.cache_uncacheable", 1);
            return;
        }
        st.tick += 1;
        st.bytes += bytes;
        st.map.insert(
            key.clone(),
            Slot::Ready {
                data,
                charged,
                last_used: st.tick,
            },
        );
        self.evict_to_budget(st, key);
    }

    /// Evict least-recently-used `Ready` entries other than `keep` (the one
    /// just inserted or grown, itself within the budget) until the budget
    /// holds.
    fn evict_to_budget(&self, st: &mut State, keep: &TileKey) {
        while st.bytes > self.budget {
            let victim = st
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } if k != keep => Some((*last_used, k)),
                    _ => None,
                })
                .min_by_key(|(used, _)| *used)
                .map(|(_, k)| k.clone());
            let Some(victim) = victim else {
                // Only `keep` remains and we are still over budget —
                // impossible while it fits the budget alone, but stay
                // defensive rather than spin.
                break;
            };
            if let Some(Slot::Ready {
                data,
                charged,
                last_used,
            }) = st.map.remove(&victim)
            {
                let bytes = charged.total();
                st.bytes -= bytes;
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                dtfe_telemetry::counter_add!("service.cache_evictions", 1);
                self.retain_stale(st, victim, data, bytes, last_used);
            }
        }
    }

    /// Move an evicted entry into the stale map at the size it was charged
    /// at, evicting stale-LRU entries to hold the stale budget. With a zero
    /// budget this is a no-op and the entry is dropped.
    fn retain_stale(
        &self,
        st: &mut State,
        key: TileKey,
        data: SharedTile,
        bytes: usize,
        last_used: u64,
    ) {
        if bytes > self.stale_budget {
            return;
        }
        st.stale_bytes += bytes;
        st.stale.insert(
            key,
            StaleEntry {
                data,
                bytes,
                last_used,
            },
        );
        while st.stale_bytes > self.stale_budget {
            let victim = st
                .stale
                .iter()
                .map(|(k, e)| (e.last_used, k.clone()))
                .min_by_key(|(used, _)| *used)
                .map(|(_, k)| k);
            let Some(victim) = victim else { break };
            if let Some(e) = st.stale.remove(&victim) {
                st.stale_bytes -= e.bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: usize) -> TileKey {
        TileKey::new("s", t)
    }

    fn entry(bytes: usize) -> Result<TileData, ServiceError> {
        Ok(TileData::synthetic(0, bytes))
    }

    #[test]
    fn hit_miss_and_lru_eviction_order() {
        let cache = TileCache::new(300);
        let (_, hit) = cache.get_or_build(&key(0), || entry(100)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_build(&key(1), || entry(100)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_build(&key(2), || entry(100)).unwrap();
        assert!(!hit);
        assert_eq!(cache.resident_bytes(), 300);
        // Touch 0 so 1 becomes the LRU victim.
        let (_, hit) = cache.get_or_build(&key(0), || entry(100)).unwrap();
        assert!(hit);
        cache.get_or_build(&key(3), || entry(100)).unwrap();
        assert!(cache.is_resident(&key(0)));
        assert!(!cache.is_resident(&key(1)), "LRU entry 1 evicted");
        assert!(cache.is_resident(&key(2)));
        assert!(cache.is_resident(&key(3)));
        assert_eq!(cache.resident_bytes(), 300);
        assert_eq!(cache.stats.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversized_entry_served_but_not_retained() {
        let cache = TileCache::new(100);
        let (data, hit) = cache.get_or_build(&key(0), || entry(1000)).unwrap();
        assert!(!hit);
        assert_eq!(data.bytes(), 1000);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.resident_entries(), 0);
        assert_eq!(cache.stats.uncacheable.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_build_is_not_cached_and_retries() {
        let cache = TileCache::new(100);
        let r = cache.get_or_build(&key(0), || {
            Err::<TileData, _>(ServiceError::Internal("boom".into()))
        });
        assert!(r.is_err());
        assert_eq!(cache.stats.build_failures.load(Ordering::Relaxed), 1);
        // One failure is below the default quarantine threshold: the next
        // call builds fresh and succeeds.
        let (_, hit) = cache.get_or_build(&key(0), || entry(10)).unwrap();
        assert!(!hit);
        assert!(cache.is_resident(&key(0)));
        // Success cleared the failure record.
        assert_eq!(cache.quarantined_entries(), 0);
    }

    #[test]
    fn every_fetch_is_counted_exactly_once() {
        let cache = TileCache::new(250);
        for t in [0, 1, 2, 0, 1, 3, 0] {
            cache.get_or_build(&key(t), || entry(100)).unwrap();
        }
        let hits = cache.stats.hits.load(Ordering::Relaxed);
        let misses = cache.stats.misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 7);
    }

    #[test]
    fn panicking_build_is_isolated_and_typed() {
        let cache = TileCache::new(100);
        let r = cache.get_or_build(&key(0), || -> Result<TileData, ServiceError> {
            panic!("estimator exploded")
        });
        match r.err() {
            Some(ServiceError::Internal(msg)) => assert!(msg.contains("estimator exploded")),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(cache.stats.build_panics.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats.build_failures.load(Ordering::Relaxed), 1);
        // The slot is clean: a later build succeeds.
        let (_, hit) = cache.get_or_build(&key(0), || entry(10)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn catch_panic_returns_the_message_of_either_payload_type() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        let r = catch_panic(|| -> u8 { panic!("static") });
        assert_eq!(r, Err("static".to_string()));
        let n = 3;
        let r = catch_panic(|| -> u8 { panic!("formatted {n}") });
        assert_eq!(r, Err("formatted 3".to_string()));
    }

    #[test]
    fn repeated_failures_quarantine_with_rising_backoff() {
        let policy = QuarantinePolicy {
            after: 2,
            base: Duration::from_millis(40),
            max: Duration::from_millis(200),
        };
        let cache = TileCache::with_policy(100, 0, policy);
        let fail = || Err::<TileData, _>(ServiceError::Internal("sick".into()));

        // Failure 1: below threshold, immediate retry allowed.
        assert!(matches!(
            cache.get_or_build(&key(0), fail),
            Err(ServiceError::Internal(_))
        ));
        assert_eq!(cache.quarantined_entries(), 0);

        // Failure 2: threshold reached — quarantined.
        assert!(matches!(
            cache.get_or_build(&key(0), fail),
            Err(ServiceError::Internal(_))
        ));
        assert_eq!(cache.quarantined_entries(), 1);

        // Inside the window the build must NOT run.
        let ran = std::sync::atomic::AtomicU64::new(0);
        let r = cache.get_or_build(&key(0), || {
            ran.fetch_add(1, Ordering::Relaxed);
            fail()
        });
        match r.err() {
            Some(ServiceError::Quarantined { retry_after_ms }) => {
                assert!((1..=40).contains(&retry_after_ms));
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(cache.stats.quarantine_rejects.load(Ordering::Relaxed), 1);

        // After the window the build runs again; another failure doubles it.
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(
            cache.get_or_build(&key(0), fail),
            Err(ServiceError::Internal(_))
        ));
        match cache.get_or_build(&key(0), fail).err() {
            Some(ServiceError::Quarantined { retry_after_ms }) => {
                assert!(retry_after_ms > 40, "window doubled, got {retry_after_ms}");
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }

        // Unrelated keys are unaffected.
        assert!(cache.get_or_build(&key(1), || entry(10)).is_ok());

        // A success after the window clears the record entirely.
        std::thread::sleep(Duration::from_millis(90));
        let (_, hit) = cache.get_or_build(&key(0), || entry(10)).unwrap();
        assert!(!hit);
        assert_eq!(cache.quarantined_entries(), 0);
    }

    #[test]
    fn evicted_entries_are_retained_stale_and_superseded_on_rebuild() {
        let cache = TileCache::with_policy(200, 150, QuarantinePolicy::default());
        cache.get_or_build(&key(0), || entry(100)).unwrap();
        cache.get_or_build(&key(1), || entry(100)).unwrap();
        assert!(cache.get_stale(&key(0)).is_none(), "still resident");
        // Insert key 2: key 0 is the LRU victim and lands in the stale map.
        cache.get_or_build(&key(2), || entry(100)).unwrap();
        assert!(!cache.is_resident(&key(0)));
        let stale = cache.get_stale(&key(0)).expect("retained after eviction");
        assert_eq!(stale.bytes(), 100);
        assert_eq!(cache.stale_entries(), 1);
        assert_eq!(cache.stats.stale_hits.load(Ordering::Relaxed), 1);
        // Rebuilding key 0 evicts key 1; the fresh copy supersedes any
        // stale copy of key 0.
        cache.get_or_build(&key(0), || entry(100)).unwrap();
        assert!(cache.get_stale(&key(0)).is_none(), "superseded by rebuild");
        assert!(cache.get_stale(&key(1)).is_some(), "newly evicted entry");
        // The stale map honors its own budget: entries above it are
        // dropped, not retained.
        let zero = TileCache::with_policy(200, 0, QuarantinePolicy::default());
        zero.get_or_build(&key(0), || entry(150)).unwrap();
        zero.get_or_build(&key(1), || entry(150)).unwrap();
        assert_eq!(zero.stale_entries(), 0);
    }
}
