//! The query-result cache: LRU over `(normalized query, snapshot version)`.
//!
//! Invalidation is **by version, never by scan**: the snapshot version is
//! part of every key, so a write bumping the live index's mutation counter
//! makes all older entries unreachable without touching them. Stale
//! entries are reclaimed lazily — eviction prefers them over live LRU
//! victims — so a write costs the cache nothing at all.
//!
//! The lookup path is allocation-free: the key is hashed straight off the
//! request (`SipHash` over kind/model/k, the trimmed query bytes, and the
//! version), one probe of an index from key hash to slot finds the only
//! candidate in a flat entry array, the full key is compared, and a hit
//! hands back an `Arc` clone. Neither the array nor the index reallocates
//! after construction — capacity is reserved once in
//! [`ResultCache::new`].

use crate::pool::QueryRequest;
use crate::Answer;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cached result.
struct Entry {
    /// Full key hash — this entry's key in [`Inner::index`].
    hash: u64,
    /// Snapshot version the answer was computed for.
    version: u64,
    /// The normalized (trimmed) query text plus the request shape.
    query: String,
    /// Second token of a NEAR key; empty for single-text requests.
    query2: String,
    kind: KeyKind,
    /// The shared answer.
    value: Arc<Answer>,
    /// LRU clock stamp of the last hit (or the insertion).
    stamp: u64,
}

impl Entry {
    /// Whether this entry holds exactly this key; a hash match alone may
    /// be a collision.
    fn is(&self, kind: KeyKind, query: &str, query2: &str, version: u64) -> bool {
        self.version == version && self.kind == kind && self.query == query && self.query2 == query2
    }
}

/// The non-text part of a cache key: what kind of evaluation, under which
/// model, at what k. Two requests with the same text but different shapes
/// must never collide.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum KeyKind {
    Search,
    TopK { model_tag: u8, k: usize },
    Near { bound: u32, ordered: bool, k: usize },
}

fn key_of(req: &QueryRequest) -> (KeyKind, &str, &str) {
    match req {
        QueryRequest::Search { query } => (KeyKind::Search, query.trim(), ""),
        QueryRequest::TopK { query, model, k } => (
            KeyKind::TopK {
                model_tag: *model as u8,
                k: *k,
            },
            query.trim(),
            "",
        ),
        QueryRequest::Near {
            first,
            second,
            bound,
            ordered,
            k,
        } => (
            KeyKind::Near {
                bound: *bound,
                ordered: *ordered,
                k: *k,
            },
            first.trim(),
            second.trim(),
        ),
    }
}

fn hash_key(kind: KeyKind, query: &str, query2: &str, version: u64) -> u64 {
    let mut h = DefaultHasher::new();
    kind.hash(&mut h);
    query.hash(&mut h);
    query2.hash(&mut h);
    version.hash(&mut h);
    h.finish()
}

/// Point-in-time cache counters. `hits + misses` equals the number of
/// lookups exactly — the counters are bumped once per lookup, atomically,
/// so they stay exact under concurrent lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries written (first-time inserts and overwrites).
    pub insertions: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction of all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, version-keyed LRU result cache shared by all pool lanes.
pub struct ResultCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

struct Inner {
    entries: Vec<Entry>,
    /// Key hash → position in `entries`, one per entry.
    index: HashMap<u64, usize>,
    capacity: usize,
    clock: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` results (min 1); the
    /// entry array and its index are reserved up front so steady-state
    /// operation never grows them.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ResultCache {
            inner: Mutex::new(Inner {
                entries: Vec::with_capacity(capacity),
                // Twice the entries: with at most half the table live,
                // clearing the tombstones evictions leave rehashes in
                // place instead of reallocating.
                index: HashMap::with_capacity(2 * capacity),
                capacity,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `req` at snapshot `version`. A hit refreshes the entry's
    /// LRU stamp and returns a shared handle; allocation-free either way.
    pub fn lookup(&self, req: &QueryRequest, version: u64) -> Option<Arc<Answer>> {
        let (kind, query, query2) = key_of(req);
        let hash = hash_key(kind, query, query2, version);
        let mut inner = self.inner.lock().expect("result cache poisoned");
        let inner = &mut *inner;
        if let Some(&slot) = inner.index.get(&hash) {
            let e = &mut inner.entries[slot];
            if e.is(kind, query, query2, version) {
                inner.clock += 1;
                e.stamp = inner.clock;
                let value = Arc::clone(&e.value);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert (or overwrite) the answer for `req` at snapshot `version`.
    /// When full, eviction displaces a stale-version entry first — those
    /// are unreachable garbage — and only then the least-recently-used
    /// live entry.
    pub fn insert(&self, req: &QueryRequest, version: u64, value: Arc<Answer>) {
        let (kind, query, query2) = key_of(req);
        let hash = hash_key(kind, query, query2, version);
        let mut inner = self.inner.lock().expect("result cache poisoned");
        let inner = &mut *inner;
        inner.clock += 1;
        let clock = inner.clock;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let same_hash = inner.index.get(&hash).copied();
        if let Some(slot) = same_hash {
            let e = &mut inner.entries[slot];
            if e.is(kind, query, query2, version) {
                e.value = value;
                e.stamp = clock;
                return;
            }
        }
        let entry = Entry {
            hash,
            version,
            query: query.to_string(),
            query2: query2.to_string(),
            kind,
            value,
            stamp: clock,
        };
        let slot = match same_hash {
            // A 64-bit collision between two keys: the newer entry takes
            // the slot, so the older key's next lookup misses — never a
            // wrong answer.
            Some(slot) => slot,
            None if inner.entries.len() < inner.capacity => {
                inner.index.insert(hash, inner.entries.len());
                inner.entries.push(entry);
                return;
            }
            None => {
                // Victim: any stale-version entry beats every
                // current-version one; within a class, oldest stamp loses.
                let victim = inner
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.version == version, e.stamp))
                    .map(|(i, _)| i)
                    .expect("capacity >= 1");
                inner.index.remove(&inner.entries[victim].hash);
                inner.index.insert(hash, victim);
                victim
            }
        };
        inner.entries[slot] = entry;
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Exact counters plus occupancy.
    pub fn stats(&self) -> CacheStats {
        let entries = self.inner.lock().expect("result cache poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: entries.entries.len(),
            capacity: entries.capacity,
        }
    }
}
