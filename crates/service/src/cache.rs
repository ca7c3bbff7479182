//! Epoch-keyed mask cache with LRU bounds, single-flight deduplication,
//! a bounded stale store (stale-while-revalidate) and hot-key
//! accounting.
//!
//! ADAPT's value proposition is amortization: a mask search costs ≤ 4·N
//! decoy executions (PAPER §4.3), but the resulting mask stays valid for
//! a whole calibration epoch, so a serving layer should pay the search
//! once per `(device, epoch, circuit, protocol, decoy)` and answer every
//! later request from memory. The [`MaskCache`] implements exactly that
//! contract:
//!
//! - **Key**: [`MaskKey`] — device id, calibration epoch, *compiled*
//!   circuit structural hash, DD protocol and decoy mode. The structural
//!   hash covers the full timed event stream, so two programs share a
//!   mask only when their scheduled circuits are identical on this
//!   device+epoch.
//! - **LRU bounds**: a fixed capacity with least-recently-*used* eviction
//!   (mirroring the [`PlanCache`](machine::PlanCache) idiom one layer
//!   down).
//! - **Epoch invalidation**: when a device drifts to a new calibration
//!   epoch, [`MaskCache::invalidate_before`] removes every entry of older
//!   epochs from the serving map — stale masks must never be served *as
//!   fresh* (§6.4 shows they decay). The removed values move into a
//!   bounded **stale store** keyed by [`StaleKey`] (the epoch-independent
//!   identity of the program), where [`MaskCache::lookup`] may
//!   serve them explicitly tagged with their age while a background
//!   refiner runs the real search.
//! - **Single-flight**: [`MaskCache::lookup`] returns a [`SearchTicket`]
//!   to exactly one caller per missing key; concurrent requests for the
//!   same key block until that searcher completes (or abandons) instead
//!   of launching duplicate searches (a non-blocking lookup returns a
//!   ticketless miss instead). An abandoned ticket (worker error
//!   or panic) wakes the waiters and the next one becomes the searcher.
//!   Stale-capable lookups reuse the same protocol: the *first* stale
//!   serve per key takes the ticket (handing it to the refiner), so a
//!   hot key never stampedes the worker pool with duplicate refines.
//! - **Hot-key accounting**: a bounded ring of recent lookup identities
//!   feeds [`MaskCache::hot_keys`], the top-K input of the proactive
//!   pre-epoch refresh.

use crate::registry::DeviceId;
use adapt::{DdMask, DdProtocol, DecoyKind};
use device::hash::Fnv1aLegacy;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default number of masks a [`MaskCache`] retains.
pub const DEFAULT_MASK_CACHE_CAPACITY: usize = 256;

/// Default bound of the superseded-epoch stale store.
pub const DEFAULT_STALE_CAPACITY: usize = 64;

/// Default length of the hot-key accounting ring.
pub const DEFAULT_HOT_RING_CAPACITY: usize = 128;

/// Cache key: everything the chosen mask depends on.
///
/// The request's search *budget* is deliberately absent: the first
/// searcher's budget decides the cached entry, and later requests with a
/// different budget still share it (a mask is a mask — re-searching the
/// same circuit at a different budget would defeat amortization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskKey {
    /// Target device.
    pub device: DeviceId,
    /// Calibration epoch of the device at request time.
    pub epoch: u64,
    /// [`machine::structural_hash`] of the compiled (timed) circuit.
    ///
    /// Deliberately the *structural* hash, not the machine's
    /// [`machine::routing_key`]: simulator routing (CHP vs state-vector)
    /// is an execution concern keyed inside the machine's own plan cache,
    /// while a mask is a property of the circuit and device alone — the
    /// same mask must be served regardless of which engine scored it.
    pub circuit_hash: u64,
    /// DD protocol the mask will be realized with.
    pub protocol: DdProtocol,
    /// Decoy construction mode used by the search.
    pub decoy: DecoyKind,
}

impl MaskKey {
    /// Stable 64-bit fingerprint, identical across processes and runs.
    ///
    /// Seeds the per-request backend stack: deriving the search seed from
    /// this fingerprint makes a fresh search a pure function of the key,
    /// which is what lets the service promise bit-identical responses
    /// whether a key is served from cache or recomputed.
    pub fn fingerprint(&self) -> u64 {
        let decoy_tag = match self.decoy {
            DecoyKind::Clifford => 1,
            DecoyKind::CnotOnly => 2,
            DecoyKind::Seeded { max_seed_qubits } => 0x100 | max_seed_qubits as u64,
        };
        let mut protocol_tag = Fnv1aLegacy::new();
        let _ = write!(protocol_tag, "{:?}", self.protocol);
        let protocol_tag = protocol_tag.finish();
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        for word in [
            self.device.name().len() as u64 ^ protocol_tag,
            self.epoch,
            self.circuit_hash,
            decoy_tag,
        ] {
            h ^= word;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            h ^= h >> 33;
        }
        h
    }

    /// The epoch-independent identity of this key, using `logical_hash`
    /// (see [`logical_hash`]) as the program fingerprint.
    pub fn stale_key(&self, logical_hash: u64) -> StaleKey {
        StaleKey {
            device: self.device,
            logical_hash,
            protocol: self.protocol,
            decoy: self.decoy,
        }
    }

    /// A synthetic stale identity derived from the compiled-circuit hash.
    /// Used by the epoch-agnostic [`MaskCache::insert`]; such entries
    /// land in the stale store under an identity no lookup will request,
    /// which is harmless.
    fn synthetic_stale_key(&self) -> StaleKey {
        self.stale_key(self.circuit_hash)
    }
}

/// Epoch-independent identity of a cached program: what a request at a
/// *newer* epoch shares with the superseded entry.
///
/// The compiled-circuit hash in [`MaskKey`] is calibration-dependent
/// (gate durations drift with the epoch), so cross-epoch matching keys
/// on the *logical* program instead: [`logical_hash`] of the submitted
/// circuit, before transpilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaleKey {
    /// Target device.
    pub device: DeviceId,
    /// [`logical_hash`] of the submitted (pre-transpile) circuit.
    pub logical_hash: u64,
    /// DD protocol the mask will be realized with.
    pub protocol: DdProtocol,
    /// Decoy construction mode used by the search.
    pub decoy: DecoyKind,
}

/// Stable FNV-1a fingerprint (the [legacy](Fnv1aLegacy) multiplier) of a
/// *logical* (pre-transpile) circuit: identical across processes, runs
/// and calibration epochs, which is exactly what cross-epoch stale
/// matching needs. Uses the instruction Debug rendering as the byte
/// stream — deterministic for the closed instruction set, and
/// insensitive to scheduling (the logical circuit has none).
///
/// The value is persisted: it is the program identity in every
/// [`StaleKey`] the write-ahead journal and snapshots store, and the
/// fleet ring places programs by it. Its bytes are therefore fixed (a
/// golden test pins them); the rendering streams straight into the hash
/// instead of through a `String` per instruction, so hashing allocates
/// nothing.
pub fn logical_hash(circuit: &qcirc::Circuit) -> u64 {
    let mut h = Fnv1aLegacy::new();
    h.mix(&(circuit.num_qubits() as u64).to_le_bytes());
    h.mix(&(circuit.num_clbits() as u64).to_le_bytes());
    for instr in circuit.instructions() {
        // Writing into the hash cannot fail.
        let _ = write!(h, "{instr:?}");
    }
    h.finish()
}

/// A journaled cache mutation, emitted to the installed journal sink in
/// mutation order (the sink runs under the cache lock, so the write-ahead
/// journal's record order always matches the order the cache actually
/// changed in — the property WAL replay correctness rests on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheEvent {
    /// A completed search entered the serving map.
    Insert {
        /// The resolved key.
        key: MaskKey,
        /// Its epoch-independent identity.
        stale_key: StaleKey,
        /// The published value.
        value: CachedMask,
    },
    /// Drift invalidation demoted every entry of `device` below
    /// `min_epoch` into the stale store.
    InvalidateBefore {
        /// The device that drifted.
        device: DeviceId,
        /// The new minimum fresh epoch.
        min_epoch: u64,
    },
}

/// The journal sink callback installed by `service::persist`. Must never
/// re-enter the cache: it runs under the cache lock.
pub type JournalSink = Arc<dyn Fn(&CacheEvent) + Send + Sync>;

/// A cached search outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedMask {
    /// The selected mask.
    pub mask: DdMask,
    /// Decoy fidelity the selected mask scored during the search.
    pub decoy_fidelity: f64,
    /// Decoy executions the search attempted (≤ 4·N budget accounting).
    pub decoy_runs: usize,
    /// Whether any neighborhood degraded to its all-DD fallback.
    pub degraded: bool,
}

/// Effectiveness counters of a [`MaskCache`].
///
/// Accounting invariant: every lookup call resolves as exactly one hit,
/// one miss, or one stale serve (coalesced waiters eventually resolve
/// too — as a hit when the searcher published, or as the promoted
/// searcher's miss when it abandoned), so at quiescence
/// `hits + misses + stale_served == lookups`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskCacheStats {
    /// Lookup calls received (counted at entry; a lookup currently
    /// blocked behind an in-flight search is counted here but not yet
    /// in `hits`/`misses`).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that became a search (one per single-flight group), or
    /// resolved cold without blocking on the fast path.
    pub misses: u64,
    /// Lookups answered from the stale store (superseded epoch, within
    /// the caller's staleness bound).
    pub stale_served: u64,
    /// Lookups that blocked behind an in-flight identical search instead
    /// of duplicating it.
    pub coalesced: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries dropped from the serving map by epoch invalidation (they
    /// move to the stale store).
    pub invalidated: u64,
    /// Entries currently resident in the serving map.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Entries currently resident in the stale store.
    pub stale_len: usize,
    /// Maximum stale entries.
    pub stale_capacity: usize,
}

impl MaskCacheStats {
    /// Fraction of resolved lookups served without a fresh search.
    /// Coalesced waiters and stale serves count as served-from-cache:
    /// they did not pay for a search.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.coalesced + self.stale_served;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    value: CachedMask,
    last_used: u64,
    /// Epoch-independent identity, recorded at insert so invalidation
    /// can move the value into the stale store.
    stale_key: StaleKey,
}

#[derive(Debug, Clone, Copy)]
struct StaleEntry {
    value: CachedMask,
    /// Epoch the value was searched at.
    epoch: u64,
    /// Insertion tick, for oldest-first eviction.
    stored: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<MaskKey, Entry>,
    inflight: HashSet<MaskKey>,
    /// Superseded-epoch values, servable within a caller's staleness
    /// bound while a refine search runs.
    stale: HashMap<StaleKey, StaleEntry>,
    /// Recent lookup identities, newest at the back (bounded).
    hot_ring: VecDeque<StaleKey>,
    tick: u64,
    lookups: u64,
    hits: u64,
    misses: u64,
    stale_served: u64,
    coalesced: u64,
    evictions: u64,
    invalidated: u64,
}

/// Observability mirrors of the cache counters (noop unless the cache
/// was built with [`MaskCache::with_registry`]).
#[derive(Default)]
struct CacheMetrics {
    lookups: adapt_obs::Counter,
    hits: adapt_obs::Counter,
    misses: adapt_obs::Counter,
    stale_served: adapt_obs::Counter,
    singleflight_waits: adapt_obs::Counter,
    evictions: adapt_obs::Counter,
    invalidated: adapt_obs::Counter,
    len: adapt_obs::Gauge,
    stale_len: adapt_obs::Gauge,
}

impl CacheMetrics {
    fn for_registry(r: &adapt_obs::Registry) -> Self {
        CacheMetrics {
            lookups: r.counter("adapt_service_cache_lookups_total"),
            hits: r.counter("adapt_service_cache_hits_total"),
            misses: r.counter("adapt_service_cache_misses_total"),
            stale_served: r.counter("adapt_service_cache_stale_served_total"),
            singleflight_waits: r.counter("adapt_service_cache_singleflight_waits_total"),
            evictions: r.counter("adapt_service_cache_evictions_total"),
            invalidated: r.counter("adapt_service_cache_invalidated_total"),
            len: r.gauge("adapt_service_cache_len"),
            stale_len: r.gauge("adapt_service_cache_stale_len"),
        }
    }
}

/// The shared mask cache (see module docs).
pub struct MaskCache {
    inner: Mutex<Inner>,
    /// Signalled when an in-flight search completes or abandons.
    resolved: Condvar,
    capacity: usize,
    stale_capacity: usize,
    hot_ring_capacity: usize,
    metrics: CacheMetrics,
    /// Write-ahead journal sink (see [`CacheEvent`]); `None` until the
    /// persistence layer installs one after recovery.
    journal: Mutex<Option<JournalSink>>,
}

impl std::fmt::Debug for MaskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaskCache")
            .field("capacity", &self.capacity)
            .field("stale_capacity", &self.stale_capacity)
            .finish_non_exhaustive()
    }
}

/// Outcome of [`MaskCache::lookup`]: the rung of the cache ladder that
/// answered.
#[derive(Debug)]
pub enum TieredLookup {
    /// The key is cached at the requested epoch (for a blocking lookup,
    /// possibly after waiting out an in-flight search).
    Hit(CachedMask),
    /// A superseded-epoch value within the caller's staleness bound.
    /// `refresh` is `Some` only for the *first* stale serve while no
    /// search is in flight for the key — the caller hands it to the
    /// background refiner; later stale serves of the same key get `None`
    /// (single-flight: the refine is already running or scheduled).
    Stale {
        /// The superseded value.
        value: CachedMask,
        /// How many epochs behind the requested key it is (≥ 1).
        age_epochs: u64,
        /// The refine ticket, for exactly one caller per flight group.
        refresh: Option<SearchTicket>,
    },
    /// Nothing servable without a search. The ticket is `Some` when this
    /// caller became the searcher (search, schedule a refine, or drop it
    /// to release the key). A blocking lookup always gets one; a
    /// non-blocking lookup gets `None` when a search is already in flight.
    Miss(Option<SearchTicket>),
}

/// Exclusive right (and obligation) to resolve one missing [`MaskKey`].
///
/// Call [`SearchTicket::complete`] with the search outcome; dropping the
/// ticket instead (error paths, panics) releases the key so a blocked
/// waiter can retry as the new searcher. Either way the waiters wake.
#[derive(Debug)]
pub struct SearchTicket {
    cache: Arc<MaskCache>,
    key: MaskKey,
    stale_key: StaleKey,
    done: bool,
}

impl SearchTicket {
    /// The key this ticket resolves.
    pub fn key(&self) -> MaskKey {
        self.key
    }

    /// The epoch-independent identity the resolved entry will carry.
    pub fn stale_key(&self) -> StaleKey {
        self.stale_key
    }

    /// Publishes the search outcome and wakes every waiter. The matching
    /// stale entry, if any, is dropped — the key is fresh again.
    pub fn complete(mut self, value: CachedMask) {
        self.done = true;
        let mut inner = self.cache.lock();
        inner.inflight.remove(&self.key);
        inner.stale.remove(&self.stale_key);
        self.cache.metrics.stale_len.set(inner.stale.len() as i64);
        let stale_key = self.stale_key;
        self.cache
            .insert_locked(&mut inner, self.key, value, stale_key);
        self.cache.emit(CacheEvent::Insert {
            key: self.key,
            stale_key,
            value,
        });
        self.cache.resolved.notify_all();
    }
}

impl Drop for SearchTicket {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Abandoned (error or panic mid-search): release the key so a
        // waiter can take over, instead of deadlocking the flight group.
        let mut inner = self.cache.lock();
        inner.inflight.remove(&self.key);
        self.cache.resolved.notify_all();
    }
}

impl MaskCache {
    /// Creates a cache retaining at most `capacity` masks (min 1), with
    /// default stale-store and hot-ring bounds.
    pub fn new(capacity: usize) -> Self {
        MaskCache {
            inner: Mutex::new(Inner::default()),
            resolved: Condvar::new(),
            capacity: capacity.max(1),
            stale_capacity: DEFAULT_STALE_CAPACITY,
            hot_ring_capacity: DEFAULT_HOT_RING_CAPACITY,
            metrics: CacheMetrics::default(),
            journal: Mutex::new(None),
        }
    }

    /// Like [`Self::new`], but mirrors the counters into `registry` as
    /// `adapt_service_cache_*` metrics. The [`MaskCacheStats`] struct
    /// stays the source of truth; the registry is a read-only mirror.
    pub fn with_registry(capacity: usize, registry: &adapt_obs::Registry) -> Self {
        MaskCache {
            metrics: CacheMetrics::for_registry(registry),
            ..Self::new(capacity)
        }
    }

    /// Full-control constructor: serving capacity, stale-store bound and
    /// hot-ring length, with counters mirrored into `registry`.
    pub fn with_tiers(
        capacity: usize,
        stale_capacity: usize,
        hot_ring_capacity: usize,
        registry: &adapt_obs::Registry,
    ) -> Self {
        MaskCache {
            stale_capacity,
            hot_ring_capacity,
            ..Self::with_registry(capacity, registry)
        }
    }

    /// Resolves `key` through the cache ladder: a fresh hit; else a
    /// superseded-epoch value under `stale_key` at most
    /// `max_stale_epochs` behind (served immediately, *without* blocking
    /// behind an in-flight refine); else a miss. On a miss behind an
    /// in-flight search, a `block`ing caller waits for the searcher and
    /// re-resolves (becoming the searcher if it abandoned); a
    /// non-blocking caller returns at once with `Miss(None)`.
    pub fn lookup(
        cache: &Arc<MaskCache>,
        key: MaskKey,
        stale_key: StaleKey,
        max_stale_epochs: u64,
        block: bool,
    ) -> TieredLookup {
        let mut inner = cache.lock();
        inner.lookups += 1;
        cache.metrics.lookups.inc();
        cache.record_hot(&mut inner, stale_key);
        let ticket = || SearchTicket {
            cache: Arc::clone(cache),
            key,
            stale_key,
            done: false,
        };
        let mut waited = false;
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                let value = entry.value;
                inner.hits += 1;
                cache.metrics.hits.inc();
                return TieredLookup::Hit(value);
            }
            if let Some((value, age)) = stale_within(&inner, &key, &stale_key, max_stale_epochs) {
                inner.stale_served += 1;
                cache.metrics.stale_served.inc();
                // First stale serve per flight group takes the refine
                // ticket; while the refine is in flight, later stale
                // serves answer immediately with no ticket (that is the
                // anti-stampede guarantee).
                return TieredLookup::Stale {
                    value,
                    age_epochs: age,
                    refresh: inner.inflight.insert(key).then(ticket),
                };
            }
            let owner = inner.inflight.insert(key);
            if owner || !block {
                inner.misses += 1;
                cache.metrics.misses.inc();
                return TieredLookup::Miss(owner.then(ticket));
            }
            // Someone else is searching this key: wait for it.
            if !waited {
                waited = true;
                inner.coalesced += 1;
                cache.metrics.singleflight_waits.inc();
            }
            inner = cache
                .resolved
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Tries to become the searcher for `key` without counting a lookup:
    /// `None` when the key is already cached or in flight. The prewarm
    /// path uses this to schedule next-epoch refines without disturbing
    /// the serving counters.
    pub fn try_ticket(
        cache: &Arc<MaskCache>,
        key: MaskKey,
        stale_key: StaleKey,
    ) -> Option<SearchTicket> {
        let mut inner = cache.lock();
        if inner.map.contains_key(&key) {
            return None;
        }
        inner.inflight.insert(key).then(|| SearchTicket {
            cache: Arc::clone(cache),
            key,
            stale_key,
            done: false,
        })
    }

    /// Inserts or refreshes `key` outside the single-flight protocol
    /// (tests, warm-up). Production paths go through the lookup family.
    pub fn insert(&self, key: MaskKey, value: CachedMask) {
        let mut inner = self.lock();
        let stale_key = key.synthetic_stale_key();
        self.insert_locked(&mut inner, key, value, stale_key);
        self.emit(CacheEvent::Insert {
            key,
            stale_key,
            value,
        });
    }

    /// Peeks at `key` without touching LRU order or counters.
    pub fn peek(&self, key: &MaskKey) -> Option<CachedMask> {
        self.lock().map.get(key).map(|e| e.value)
    }

    /// Removes every serving-map entry of `device` with an epoch below
    /// `min_epoch` (drift-triggered invalidation) and moves the removed
    /// values into the bounded stale store (newest epoch wins per
    /// identity; oldest entries evicted at the bound). Returns how many
    /// map entries were removed.
    pub fn invalidate_before(&self, device: DeviceId, min_epoch: u64) -> usize {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let stale_cap = self.stale_capacity;
        let mut moved: Vec<(StaleKey, StaleEntry)> = Vec::new();
        inner.map.retain(|k, e| {
            let drop = k.device == device && k.epoch < min_epoch;
            if drop {
                moved.push((
                    e.stale_key,
                    StaleEntry {
                        value: e.value,
                        epoch: k.epoch,
                        stored: tick,
                    },
                ));
            }
            !drop
        });
        let dropped = moved.len();
        if stale_cap > 0 {
            for (sk, se) in moved {
                // Never let an older epoch shadow a newer stale value.
                match inner.stale.get(&sk) {
                    Some(prev) if prev.epoch >= se.epoch => {}
                    _ => {
                        inner.stale.insert(sk, se);
                    }
                }
            }
            Self::evict_stale_over(&mut inner, stale_cap);
        }
        inner.invalidated += dropped as u64;
        self.metrics.invalidated.add(dropped as u64);
        self.metrics.len.set(inner.map.len() as i64);
        self.metrics.stale_len.set(inner.stale.len() as i64);
        // Journaled even when nothing dropped: recovery replays the
        // registry's epoch advance from this record, and an advance on a
        // device with no cached entries must still survive a restart.
        self.emit(CacheEvent::InvalidateBefore { device, min_epoch });
        dropped
    }

    /// Installs (or clears) the write-ahead journal sink. The sink runs
    /// under the cache lock on every insert and invalidation; it must
    /// never re-enter the cache. The persistence layer installs it only
    /// *after* recovery, so restores are never re-journaled.
    pub fn set_journal(&self, sink: Option<JournalSink>) {
        *self
            .journal
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = sink;
    }

    fn emit(&self, ev: CacheEvent) {
        let sink = self
            .journal
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(sink) = sink.as_ref() {
            sink(&ev);
        }
    }

    /// Runs `f` on a consistent export of the serving map and stale
    /// store while holding the cache lock, so no mutation (or journal
    /// event) can interleave with the exported state. Both exports are
    /// deterministically ordered — warm by LRU tick, stale by insertion
    /// order — so restoring them in sequence reproduces the eviction
    /// order of the original cache, and two identical runs produce
    /// byte-identical snapshots.
    pub fn with_export<T>(
        &self,
        f: impl FnOnce(&[(MaskKey, StaleKey, CachedMask)], &[(StaleKey, CachedMask, u64)]) -> T,
    ) -> T {
        let inner = self.lock();
        let mut warm: Vec<(u64, (MaskKey, StaleKey, CachedMask))> = inner
            .map
            .iter()
            .map(|(k, e)| (e.last_used, (*k, e.stale_key, e.value)))
            .collect();
        warm.sort_by_key(|&(tick, _)| tick);
        let warm: Vec<_> = warm.into_iter().map(|(_, row)| row).collect();
        type StaleRank = (u64, u64, u64, &'static str, u64);
        let mut stale: Vec<(StaleRank, (StaleKey, CachedMask, u64))> = inner
            .stale
            .iter()
            .map(|(k, s)| {
                (
                    // Entries demoted by one invalidation share a
                    // `stored` tick; the remaining fields break the
                    // tie deterministically.
                    (
                        s.stored,
                        s.epoch,
                        k.logical_hash,
                        k.device.name(),
                        kind_rank(k),
                    ),
                    (*k, s.value, s.epoch),
                )
            })
            .collect();
        stale.sort_by(|a, b| a.0.cmp(&b.0));
        let stale: Vec<_> = stale.into_iter().map(|(_, row)| row).collect();
        let out = f(&warm, &stale);
        drop(inner);
        out
    }

    /// Reinserts a recovered entry into the serving map. Recovery-only:
    /// unlike [`Self::insert`] this never emits a journal event (the
    /// sink is not installed yet, and a restore must not re-journal
    /// itself into the fresh WAL).
    pub fn restore_warm(&self, key: MaskKey, stale_key: StaleKey, value: CachedMask) {
        let mut inner = self.lock();
        self.insert_locked(&mut inner, key, value, stale_key);
    }

    /// Reinserts a recovered (or demoted) entry into the stale store,
    /// honoring the newest-epoch-wins rule and the capacity bound.
    /// Returns whether the value was stored. Recovery-only; never emits
    /// a journal event.
    pub fn restore_stale(&self, key: StaleKey, value: CachedMask, epoch: u64) -> bool {
        if self.stale_capacity == 0 {
            return false;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let stored = inner.tick;
        match inner.stale.get(&key) {
            Some(prev) if prev.epoch >= epoch => return false,
            _ => {
                inner.stale.insert(
                    key,
                    StaleEntry {
                        value,
                        epoch,
                        stored,
                    },
                );
            }
        }
        Self::evict_stale_over(&mut inner, self.stale_capacity);
        self.metrics.stale_len.set(inner.stale.len() as i64);
        true
    }

    fn evict_stale_over(inner: &mut Inner, cap: usize) {
        while inner.stale.len() > cap {
            if let Some(&oldest) = inner
                .stale
                .iter()
                .min_by_key(|(_, s)| (s.stored, s.epoch))
                .map(|(k, _)| k)
            {
                inner.stale.remove(&oldest);
            } else {
                break;
            }
        }
    }

    /// The top-`k` hottest identities of `device`, by occurrence count in
    /// the bounded lookup ring (ties broken by first appearance, so the
    /// ordering is deterministic for a deterministic request sequence).
    pub fn hot_keys(&self, device: DeviceId, k: usize) -> Vec<StaleKey> {
        let inner = self.lock();
        let mut counts: Vec<(StaleKey, usize, usize)> = Vec::new();
        for (idx, sk) in inner.hot_ring.iter().enumerate() {
            if sk.device != device {
                continue;
            }
            match counts.iter_mut().find(|(key, _, _)| key == sk) {
                Some((_, n, _)) => *n += 1,
                None => counts.push((*sk, 1, idx)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
        counts.into_iter().take(k).map(|(sk, _, _)| sk).collect()
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> MaskCacheStats {
        let inner = self.lock();
        MaskCacheStats {
            lookups: inner.lookups,
            hits: inner.hits,
            misses: inner.misses,
            stale_served: inner.stale_served,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            invalidated: inner.invalidated,
            len: inner.map.len(),
            capacity: self.capacity,
            stale_len: inner.stale.len(),
            stale_capacity: self.stale_capacity,
        }
    }

    fn record_hot(&self, inner: &mut Inner, stale_key: StaleKey) {
        if self.hot_ring_capacity == 0 {
            return;
        }
        if inner.hot_ring.len() >= self.hot_ring_capacity {
            inner.hot_ring.pop_front();
        }
        inner.hot_ring.push_back(stale_key);
    }

    fn insert_locked(
        &self,
        inner: &mut Inner,
        key: MaskKey,
        value: CachedMask,
        stale_key: StaleKey,
    ) {
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(&lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&lru);
                inner.evictions += 1;
                self.metrics.evictions.inc();
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
                stale_key,
            },
        );
        self.metrics.len.set(inner.map.len() as i64);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Recover from poisoning: the cache's invariants hold under any
        // interleaving of the (short, panic-free) critical sections, and
        // a worker panic elsewhere must not take the whole service down.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Deterministic ordering rank of a [`StaleKey`]'s protocol + decoy,
/// used only to break export-sort ties (see [`MaskCache::with_export`]).
fn kind_rank(key: &StaleKey) -> u64 {
    let p = match key.protocol {
        DdProtocol::Xy4 => 0,
        DdProtocol::IbmqDd => 1,
        DdProtocol::Cpmg => 2,
        DdProtocol::Xy8 => 3,
        DdProtocol::Udd { pulses } => 4 + pulses as u64,
    };
    let d = match key.decoy {
        DecoyKind::Clifford => 0,
        DecoyKind::CnotOnly => 1,
        DecoyKind::Seeded { max_seed_qubits } => 2 + max_seed_qubits as u64,
    };
    (p << 32) | (d & 0xFFFF_FFFF)
}

/// The stale value servable for `key` under `stale_key`, if one exists
/// within `max_stale_epochs`, with its age.
fn stale_within(
    inner: &Inner,
    key: &MaskKey,
    stale_key: &StaleKey,
    max_stale_epochs: u64,
) -> Option<(CachedMask, u64)> {
    if max_stale_epochs == 0 {
        return None;
    }
    let s = inner.stale.get(stale_key)?;
    if s.epoch >= key.epoch {
        return None;
    }
    let age = key.epoch - s.epoch;
    (age <= max_stale_epochs).then_some((s.value, age))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn key(epoch: u64, hash: u64) -> MaskKey {
        MaskKey {
            device: DeviceId::Rome,
            epoch,
            circuit_hash: hash,
            protocol: DdProtocol::Xy4,
            decoy: DecoyKind::Seeded { max_seed_qubits: 4 },
        }
    }

    /// The blocking, stale-free lookup of an epoch-agnostic key.
    fn blocking(cache: &Arc<MaskCache>, k: MaskKey) -> TieredLookup {
        MaskCache::lookup(cache, k, k.synthetic_stale_key(), 0, true)
    }

    fn mask(bits: u64) -> CachedMask {
        CachedMask {
            mask: DdMask::from_bits(bits, 5),
            decoy_fidelity: 0.9,
            decoy_runs: 20,
            degraded: false,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_key_sensitive() {
        let a = key(0, 42).fingerprint();
        assert_eq!(a, key(0, 42).fingerprint());
        assert_ne!(a, key(1, 42).fingerprint());
        assert_ne!(a, key(0, 43).fingerprint());
        let mut other = key(0, 42);
        other.protocol = DdProtocol::Cpmg;
        assert_ne!(a, other.fingerprint());
    }

    #[test]
    fn logical_hash_is_stable_and_circuit_sensitive() {
        let mut a = qcirc::Circuit::new(3);
        a.h(0).cx(0, 1).cx(1, 2).measure_all();
        let mut b = qcirc::Circuit::new(3);
        b.h(0).cx(0, 1).cx(1, 2).measure_all();
        assert_eq!(logical_hash(&a), logical_hash(&b));
        let mut c = qcirc::Circuit::new(3);
        c.h(0).cx(0, 2).cx(1, 2).measure_all();
        assert_ne!(logical_hash(&a), logical_hash(&c));
        let empty4 = qcirc::Circuit::new(4);
        let empty5 = qcirc::Circuit::new(5);
        assert_ne!(logical_hash(&empty4), logical_hash(&empty5));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = Arc::new(MaskCache::new(2));
        cache.insert(key(0, 1), mask(1));
        cache.insert(key(0, 2), mask(2));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(matches!(blocking(&cache, key(0, 1)), TieredLookup::Hit(_)));
        cache.insert(key(0, 3), mask(3));
        assert!(cache.peek(&key(0, 1)).is_some());
        assert!(cache.peek(&key(0, 2)).is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn epoch_invalidation_drops_only_stale_entries() {
        let cache = Arc::new(MaskCache::new(8));
        cache.insert(key(0, 1), mask(1));
        cache.insert(key(0, 2), mask(2));
        cache.insert(key(1, 1), mask(3));
        let mut other_dev = key(0, 9);
        other_dev.device = DeviceId::London;
        cache.insert(other_dev, mask(4));

        assert_eq!(cache.invalidate_before(DeviceId::Rome, 1), 2);
        assert!(cache.peek(&key(1, 1)).is_some());
        assert!(cache.peek(&other_dev).is_some(), "other devices untouched");
        assert_eq!(cache.stats().invalidated, 2);
    }

    #[test]
    fn single_flight_hands_out_one_ticket_and_wakes_waiters() {
        let cache = Arc::new(MaskCache::new(8));
        let k = key(0, 7);
        let TieredLookup::Miss(Some(ticket)) = blocking(&cache, k) else {
            panic!("first lookup must miss");
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || match blocking(&cache, k) {
                    TieredLookup::Hit(v) => v,
                    other => panic!("waiter must not become a searcher: {other:?}"),
                })
            })
            .collect();
        // Give the waiters time to block behind the in-flight key.
        thread::sleep(std::time::Duration::from_millis(30));
        ticket.complete(mask(5));
        for w in waiters {
            assert_eq!(w.join().expect("waiter").mask, mask(5).mask);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one search for the flight group");
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn abandoned_ticket_promotes_a_waiter_to_searcher() {
        let cache = Arc::new(MaskCache::new(8));
        let k = key(0, 8);
        let TieredLookup::Miss(Some(ticket)) = blocking(&cache, k) else {
            panic!("first lookup must miss");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || match blocking(&cache, k) {
                TieredLookup::Miss(Some(t)) => {
                    t.complete(mask(9));
                    true
                }
                _ => false,
            })
        };
        thread::sleep(std::time::Duration::from_millis(30));
        drop(ticket); // searcher fails without a result
        assert!(waiter.join().expect("waiter"), "waiter takes over the key");
        assert_eq!(
            cache.peek(&k).expect("resolved by waiter").mask,
            mask(9).mask
        );
        assert_eq!(cache.stats().misses, 2);
    }

    /// Satellite regression: under a storm of concurrent lookups across
    /// overlapping keys — where searchers randomly *abandon* their
    /// tickets (simulating worker errors/panics mid-search) — the
    /// accounting must still balance: every lookup resolves as exactly
    /// one hit or one miss, and the LRU bound holds.
    #[test]
    fn stats_stay_consistent_under_abandoned_ticket_storm() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 60;
        const KEYS: u64 = 12;
        const CAPACITY: usize = 6;

        let registry = adapt_obs::Registry::new();
        let cache = Arc::new(MaskCache::with_registry(CAPACITY, &registry));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    for r in 0..ROUNDS {
                        let k = key(0, ((t * ROUNDS + r) as u64 * 7) % KEYS);
                        match blocking(&cache, k) {
                            TieredLookup::Hit(_) => {}
                            TieredLookup::Stale { .. } | TieredLookup::Miss(None) => {
                                unreachable!("a blocking stale-free lookup hits or owns")
                            }
                            TieredLookup::Miss(Some(ticket)) => {
                                // Roughly every third searcher abandons its
                                // ticket, forcing waiter promotion.
                                if (t + r) % 3 == 0 {
                                    drop(ticket);
                                } else {
                                    ticket.complete(mask(k.circuit_hash));
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("storm thread");
        }

        let stats = cache.stats();
        assert_eq!(stats.lookups, (THREADS * ROUNDS) as u64);
        assert_eq!(
            stats.hits + stats.misses,
            stats.lookups,
            "every lookup resolves as exactly one hit or miss: {stats:?}"
        );
        assert!(
            stats.len <= CAPACITY,
            "LRU bound violated: {} > {CAPACITY}",
            stats.len
        );
        // The obs mirror must agree with the source-of-truth counters.
        let samples = adapt_obs::parse_prometheus(&registry.render_prometheus()).expect("parse");
        let get = |n: &str| adapt_obs::sample_value(&samples, n).unwrap_or(0.0) as u64;
        assert_eq!(get("adapt_service_cache_lookups_total"), stats.lookups);
        assert_eq!(get("adapt_service_cache_hits_total"), stats.hits);
        assert_eq!(get("adapt_service_cache_misses_total"), stats.misses);
    }

    fn stale_key_of(hash: u64) -> StaleKey {
        StaleKey {
            device: DeviceId::Rome,
            logical_hash: hash,
            protocol: DdProtocol::Xy4,
            decoy: DecoyKind::Seeded { max_seed_qubits: 4 },
        }
    }

    /// Insert a value at `epoch` under a real stale identity, via the
    /// tiered single-flight path.
    fn seed_tiered(cache: &Arc<MaskCache>, epoch: u64, hash: u64, value: CachedMask) {
        match MaskCache::lookup(cache, key(epoch, hash), stale_key_of(hash), 2, true) {
            TieredLookup::Miss(Some(t)) => t.complete(value),
            _ => panic!("seed must miss"),
        }
    }

    #[test]
    fn invalidation_moves_entries_to_the_stale_store_and_lookup_serves_them() {
        let registry = adapt_obs::Registry::new();
        let cache = Arc::new(MaskCache::with_tiers(8, 4, 16, &registry));
        seed_tiered(&cache, 0, 1, mask(3));
        assert_eq!(cache.invalidate_before(DeviceId::Rome, 1), 1);
        assert_eq!(cache.stats().stale_len, 1);

        // Within the bound: a stale serve carrying the refine ticket.
        let k1 = key(1, 99); // new epoch compiles to a new circuit hash
        match MaskCache::lookup(&cache, k1, stale_key_of(1), 2, true) {
            TieredLookup::Stale {
                value,
                age_epochs,
                refresh,
            } => {
                assert_eq!(value.mask, mask(3).mask);
                assert_eq!(age_epochs, 1);
                let ticket = refresh.expect("first stale serve takes the ticket");
                // Second stale lookup: served, but no duplicate ticket.
                match MaskCache::lookup(&cache, k1, stale_key_of(1), 2, true) {
                    TieredLookup::Stale { refresh: None, .. } => {}
                    other => panic!("expected deduped stale serve, got {other:?}"),
                }
                // The refine completes: the key is fresh, the stale entry gone.
                ticket.complete(mask(7));
            }
            other => panic!("expected stale serve, got {other:?}"),
        }
        assert!(matches!(
            MaskCache::lookup(&cache, k1, stale_key_of(1), 2, true),
            TieredLookup::Hit(v) if v.mask == mask(7).mask
        ));
        assert_eq!(cache.stats().stale_len, 0, "upgrade drops the stale entry");
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses + stats.stale_served,
            stats.lookups,
            "tiered accounting must balance: {stats:?}"
        );
    }

    #[test]
    fn stale_serving_respects_the_age_bound() {
        let registry = adapt_obs::Registry::new();
        let cache = Arc::new(MaskCache::with_tiers(8, 4, 16, &registry));
        seed_tiered(&cache, 0, 1, mask(3));
        cache.invalidate_before(DeviceId::Rome, 1);
        // Age 3 exceeds the bound of 2: cold, caller becomes searcher.
        match MaskCache::lookup(&cache, key(3, 55), stale_key_of(1), 2, true) {
            TieredLookup::Miss(Some(t)) => drop(t),
            other => panic!("an over-age stale value must not serve: {other:?}"),
        }
        // A zero bound disables stale serving entirely.
        match MaskCache::lookup(&cache, key(1, 56), stale_key_of(1), 0, true) {
            TieredLookup::Miss(Some(t)) => drop(t),
            other => panic!("zero bound must never serve stale: {other:?}"),
        }
    }

    #[test]
    fn stale_store_is_bounded_oldest_first() {
        let registry = adapt_obs::Registry::new();
        let cache = Arc::new(MaskCache::with_tiers(8, 2, 16, &registry));
        for hash in 0..4u64 {
            seed_tiered(&cache, 0, hash, mask(hash));
        }
        cache.invalidate_before(DeviceId::Rome, 1);
        assert_eq!(cache.stats().stale_len, 2, "stale store holds its bound");
    }

    #[test]
    fn non_blocking_lookup_never_waits_and_hands_out_one_cold_ticket() {
        let registry = adapt_obs::Registry::new();
        let cache = Arc::new(MaskCache::with_tiers(8, 4, 16, &registry));
        let k = key(0, 5);
        let sk = stale_key_of(5);
        let TieredLookup::Miss(Some(ticket)) = MaskCache::lookup(&cache, k, sk, 2, false) else {
            panic!("a cold non-blocking lookup must take the ticket");
        };
        // While the search is in flight, the lookup returns at once with
        // a ticketless miss instead of waiting.
        assert!(matches!(
            MaskCache::lookup(&cache, k, sk, 2, false),
            TieredLookup::Miss(None)
        ));
        ticket.complete(mask(9));
        assert!(matches!(
            MaskCache::lookup(&cache, k, sk, 2, false),
            TieredLookup::Hit(v) if v.mask == mask(9).mask
        ));
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses + stats.stale_served,
            stats.lookups
        );
        // The in-flight miss is a miss, never a coalesced wait.
        assert_eq!((stats.misses, stats.coalesced), (2, 0));
    }

    #[test]
    fn try_ticket_skips_cached_and_inflight_keys_without_counting() {
        let registry = adapt_obs::Registry::new();
        let cache = Arc::new(MaskCache::with_tiers(8, 4, 16, &registry));
        let k = key(1, 6);
        let sk = stale_key_of(6);
        let t = MaskCache::try_ticket(&cache, k, sk).expect("first taker wins");
        assert!(MaskCache::try_ticket(&cache, k, sk).is_none(), "in flight");
        t.complete(mask(2));
        assert!(MaskCache::try_ticket(&cache, k, sk).is_none(), "cached");
        assert_eq!(cache.stats().lookups, 0, "prewarm path counts no lookups");
    }

    #[test]
    fn hot_keys_ranks_by_frequency_then_first_seen() {
        let registry = adapt_obs::Registry::new();
        let cache = Arc::new(MaskCache::with_tiers(8, 4, 8, &registry));
        let serve = |hash: u64| match MaskCache::lookup(
            &cache,
            key(0, hash),
            stale_key_of(hash),
            0,
            true,
        ) {
            TieredLookup::Miss(Some(t)) => t.complete(mask(hash)),
            TieredLookup::Hit(_) => {}
            other => panic!("unexpected {other:?}"),
        };
        for hash in [1u64, 2, 1, 3, 1, 2] {
            serve(hash);
        }
        let hot = cache.hot_keys(DeviceId::Rome, 2);
        assert_eq!(
            hot.iter().map(|sk| sk.logical_hash).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(cache.hot_keys(DeviceId::London, 4).is_empty());
        // The ring is bounded: old observations age out.
        for hash in [4u64, 4, 4, 4, 4, 4, 4, 4] {
            serve(hash);
        }
        assert_eq!(cache.hot_keys(DeviceId::Rome, 1)[0].logical_hash, 4);
    }
}
