//! The serving front door: N evaluation lanes, one shared engine, one
//! cache.
//!
//! Life of a request: [`ServePool::execute`] checks out a free lane — one
//! [`ServeContext`] plus its counters — under one short lock and runs the
//! request **on the calling thread**: it probes the
//! [`crate::ResultCache`] at the *current* mutation version, and on a miss
//! pins a snapshot and evaluates with the lane's long-lived
//! [`ExecScratch`] (top-k heap) plus the cursor-scratch pool `ftsl-index`
//! keeps per thread. It then records the lane's counters, the latency
//! histogram and the slow log, and hands the lane back. The answer is an
//! `Arc` — the same `Arc` the cache keeps, so concurrent requesters of a
//! hot query share one materialized result.
//!
//! At most N requests evaluate at once. A caller that finds every lane
//! checked out waits on a condvar, which is signalled only while someone
//! waits, so the uncontended path makes no wake-up call. No lock is held
//! while evaluating; a panicking query becomes its caller's `Err` and
//! costs the lane only its scratch. The writer side of the engine is
//! untouched: snapshots isolate readers, the version key isolates the
//! cache.

use crate::cache::ResultCache;
use crate::{thread_allocs, Answer, CacheStats};
use ftsl_core::{ExecScratch, Ftsl, FtslError, RankModel};
use ftsl_index::scratch_pool_stats;
use ftsl_obs::{Histogram, HistogramSnapshot, MetricValue, Registry, SlowEntry, SlowLog};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// What to run. The query text is COMP syntax (subsumes BOOL and DIST),
/// exactly as [`Ftsl::search`] / [`Ftsl::search_top_k`] take it.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryRequest {
    /// Engine-dispatched (unranked) evaluation.
    Search {
        /// COMP-syntax query text.
        query: String,
    },
    /// Scored top-k ([`Ftsl::search_top_k`]): the exhaustive ranking
    /// truncated to `k`, through the pruned union for a flat disjunction.
    TopK {
        /// COMP-syntax query text.
        query: String,
        /// Scoring model.
        model: RankModel,
        /// How many hits to keep.
        k: usize,
    },
    /// Proximity-ranked NEAR over the word-pair auxiliary index
    /// ([`Ftsl::search_near_top_k`]).
    Near {
        /// First token.
        first: String,
        /// Second token.
        second: String,
        /// Largest qualifying gap.
        bound: u32,
        /// Require `first` strictly before `second`.
        ordered: bool,
        /// How many hits to keep.
        k: usize,
    },
}

impl QueryRequest {
    /// An unranked search request.
    pub fn search(query: &str) -> Self {
        QueryRequest::Search {
            query: query.to_string(),
        }
    }

    /// A ranked top-k request.
    pub fn top_k(query: &str, model: RankModel, k: usize) -> Self {
        QueryRequest::TopK {
            query: query.to_string(),
            model,
            k,
        }
    }

    /// A proximity-ranked NEAR request.
    pub fn near(first: &str, second: &str, bound: u32, ordered: bool, k: usize) -> Self {
        QueryRequest::Near {
            first: first.to_string(),
            second: second.to_string(),
            bound,
            ordered,
            k,
        }
    }

    /// The query text (the first token for a NEAR request).
    pub fn query(&self) -> &str {
        match self {
            QueryRequest::Search { query } => query,
            QueryRequest::TopK { query, .. } => query,
            QueryRequest::Near { first, .. } => first,
        }
    }

    /// A one-line human rendering for logs (slow-query entries).
    pub fn describe(&self) -> String {
        match self {
            QueryRequest::Search { query } => query.clone(),
            QueryRequest::TopK { query, model, k } => {
                format!("top-k k={k} model={model:?} {query}")
            }
            QueryRequest::Near {
                first,
                second,
                bound,
                ordered,
                k,
            } => format!("near k={k} bound={bound} ordered={ordered} '{first}' '{second}'"),
        }
    }
}

/// A served answer plus where it came from.
#[derive(Clone, Debug)]
pub struct Served {
    /// The result, shared with the cache and concurrent requesters.
    pub answer: Arc<Answer>,
    /// True when the answer came out of the result cache.
    pub cached: bool,
    /// Mutation version the answer is valid for.
    pub version: u64,
}

/// Pool sizing and cache capacity. Every request is timed into the
/// latency histogram; the slow-query log keeps the last
/// [`SLOW_LOG_CAPACITY`] requests over its threshold, which starts at
/// [`SLOW_QUERY_US`] and is set at runtime through
/// [`SlowLog::set_threshold_us`] on [`ServePool::slow_log`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Evaluation lanes: at most this many requests evaluate at once, each
    /// on its caller's thread and stack. 0 is promoted to 1.
    /// `ftsl_lang::MAX_NESTING` was proven on std's 2 MB spawned-thread
    /// stack, so callers need at least that much.
    pub workers: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
}

/// The slow-query log's initial threshold: a request slower than this many
/// microseconds is captured (0 would disable capture).
pub const SLOW_QUERY_US: u64 = 10_000;

/// Ring-buffer capacity of the slow-query log.
pub const SLOW_LOG_CAPACITY: usize = 64;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 1024,
        }
    }
}

/// Per-lane counters, updated on the caller's thread after every request
/// the lane served and readable at any time through [`ServePool::stats`].
/// A lane runs on whichever thread calls [`ServePool::execute`], so every
/// count is a per-request delta summed per lane, not a thread's total.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Requests this lane completed (hits, misses and errors alike).
    pub served: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Heap allocations made while this lane evaluated, counted only when
    /// [`crate::CountingAlloc`] is installed in the binary; 0 otherwise.
    pub allocs: u64,
    /// Cursor scratch buffers recycled while this lane evaluated.
    pub scratch_reused: u64,
    /// Cursor scratch buffers heap-allocated while this lane evaluated.
    pub scratch_allocated: u64,
    /// Postings this lane resolved from word-pair auxiliary lists (cache
    /// misses only — a cached answer decodes nothing).
    pub pair_entries: u64,
    /// Requests whose evaluation panicked; each came back as
    /// [`FtslError::Internal`] and the lane's scratch was rebuilt.
    pub panics: u64,
}

/// Everything a lane updates, shared with the pool's collectors.
#[derive(Default)]
struct WorkerSlot {
    served: AtomicU64,
    cache_hits: AtomicU64,
    allocs: AtomicU64,
    scratch_reused: AtomicU64,
    scratch_allocated: AtomicU64,
    pair_entries: AtomicU64,
    panics: AtomicU64,
    /// Request wall time in µs. Per-lane so recording never contends;
    /// merged on read.
    latency_us: Histogram,
}

impl WorkerSlot {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            served: self.served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            scratch_reused: self.scratch_reused.load(Ordering::Relaxed),
            scratch_allocated: self.scratch_allocated.load(Ordering::Relaxed),
            pair_entries: self.pair_entries.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// Pool-wide counters: one [`WorkerStats`] per lane plus the cache's, the
/// merged request-latency histogram, and lane occupancy.
///
/// **Ordering caveat:** every counter is maintained with `Relaxed` atomic
/// operations and [`ServePool::stats`] reads them while lanes may still
/// be evaluating, so a snapshot is *per-counter* exact (each value is a
/// real value that counter held) but not a cross-counter atomic cut — e.g.
/// `served()` can momentarily trail `cache.hits + cache.misses` while a
/// request is between its cache lookup and its lane update. Once the pool
/// is quiescent (every `execute` has returned), every identity holds
/// exactly: `served() == cache.hits + cache.misses`,
/// `cache_hits() == cache.hits`, `in_flight == 0`, and
/// `latency.count() == served()` — the
/// reconciliation tests pin this down.
#[derive(Clone, Debug)]
pub struct PoolStats {
    /// Per-lane counters, index = lane id.
    pub workers: Vec<WorkerStats>,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Request wall-time histogram merged across lanes.
    pub latency: HistogramSnapshot,
    /// Lanes checked out right now.
    pub in_flight: usize,
    /// Executions that found every lane checked out and had to wait.
    pub lane_waits: u64,
}

impl PoolStats {
    /// Total requests served across lanes.
    pub fn served(&self) -> u64 {
        self.workers.iter().map(|w| w.served).sum()
    }

    /// Total cache hits across lanes.
    pub fn cache_hits(&self) -> u64 {
        self.workers.iter().map(|w| w.cache_hits).sum()
    }

    /// Total postings resolved from word-pair auxiliary lists.
    pub fn pair_entries(&self) -> u64 {
        self.workers.iter().map(|w| w.pair_entries).sum()
    }
}

type Reply = Result<Served, FtslError>;

/// One evaluation lane while it is checked in: its id (= index of its
/// [`WorkerSlot`]) and its serving context.
struct Lane {
    id: usize,
    ctx: ServeContext,
}

/// The lanes nobody has checked out, and how many callers wait for one.
struct Idle {
    lanes: Vec<Lane>,
    waiting: usize,
}

struct Shared {
    idle: Mutex<Idle>,
    /// Signalled when a lane is checked in while `Idle::waiting > 0`.
    lane_freed: Condvar,
    lane_waits: AtomicU64,
    slots: Vec<WorkerSlot>,
    slow: SlowLog,
}

impl Shared {
    /// Check out a free lane, waiting while every lane is checked out.
    fn checkout(&self) -> LaneGuard<'_> {
        let mut idle = self.idle.lock().expect("lane list poisoned");
        if idle.lanes.is_empty() {
            self.lane_waits.fetch_add(1, Ordering::Relaxed);
            idle.waiting += 1;
            idle = self
                .lane_freed
                .wait_while(idle, |idle| idle.lanes.is_empty())
                .expect("lane list poisoned");
            idle.waiting -= 1;
        }
        let lane = idle.lanes.pop().expect("a lane is free");
        LaneGuard {
            shared: self,
            lane: Some(lane),
        }
    }

    fn in_flight(&self) -> usize {
        let idle = self.idle.lock().expect("lane list poisoned");
        self.slots.len() - idle.lanes.len()
    }
}

/// A checked-out lane; dropping it checks the lane back in on every exit
/// path, unwinding included.
struct LaneGuard<'a> {
    shared: &'a Shared,
    /// `Some` until `drop`.
    lane: Option<Lane>,
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        let Some(lane) = self.lane.take() else { return };
        // Nothing panics while holding this lock (the push stays within
        // the capacity reserved for every lane), so a poisoned list is
        // still a valid one.
        let mut idle = self
            .shared
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        idle.lanes.push(lane);
        let wake = idle.waiting > 0;
        drop(idle);
        if wake {
            self.shared.lane_freed.notify_one();
        }
    }
}

/// One lane's (or a caller's) serving context: the engine, the shared
/// cache, and the reusable evaluation scratch. [`ServeContext::serve`] is
/// the exact code a pool lane runs per request — tests and benches can
/// drive it directly to measure the hot path without the lane checkout,
/// counters and panic guard around it.
pub struct ServeContext {
    engine: Arc<Ftsl>,
    cache: Arc<ResultCache>,
    scratch: ExecScratch,
}

impl ServeContext {
    /// A context over `engine` using `cache` for results.
    pub fn new(engine: Arc<Ftsl>, cache: Arc<ResultCache>) -> Self {
        ServeContext {
            engine,
            cache,
            scratch: ExecScratch::new(),
        }
    }

    /// Serve one request: cache lookup at the current mutation version,
    /// falling through to snapshot evaluation with reused scratch on a
    /// miss. The hit path allocates nothing. Errors are returned, never
    /// cached.
    pub fn serve(&mut self, req: &QueryRequest) -> Reply {
        let version = self.engine.version();
        if let Some(answer) = self.cache.lookup(req, version) {
            return Ok(Served {
                answer,
                cached: true,
                version,
            });
        }
        let answer =
            Arc::new(match req {
                QueryRequest::Search { query } => Answer::Search(self.engine.search(query)?),
                QueryRequest::TopK { query, model, k } => Answer::TopK(
                    self.engine
                        .search_top_k_with(query, *model, *k, &mut self.scratch)?,
                ),
                QueryRequest::Near {
                    first,
                    second,
                    bound,
                    ordered,
                    k,
                } => Answer::Near(self.engine.search_near_top_k_with(
                    first,
                    second,
                    *bound,
                    *ordered,
                    *k,
                    &mut self.scratch,
                )),
            });
        // Keyed under the version read *before* evaluation: if a write
        // landed in between, the current version moved past `version`, so
        // the entry is stale-from-birth and unreachable (versions only
        // grow) — it is never served, merely evicted early.
        self.cache.insert(req, version, Arc::clone(&answer));
        Ok(Served {
            answer,
            cached: false,
            version,
        })
    }
}

/// The concurrent serving front door over one [`Ftsl`]: N evaluation
/// lanes, used by whichever threads call [`ServePool::execute`]. The pool
/// owns no threads.
pub struct ServePool {
    shared: Arc<Shared>,
    cache: Arc<ResultCache>,
    registry: Registry,
}

impl ServePool {
    /// Build `config.workers` lanes (at least one) over a shared engine.
    pub fn new(engine: Arc<Ftsl>, config: ServeConfig) -> Self {
        let lanes = config.workers.max(1);
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
        let idle = (0..lanes)
            .map(|id| Lane {
                id,
                ctx: ServeContext::new(Arc::clone(&engine), Arc::clone(&cache)),
            })
            .collect();
        let shared = Arc::new(Shared {
            idle: Mutex::new(Idle {
                lanes: idle,
                waiting: 0,
            }),
            lane_freed: Condvar::new(),
            lane_waits: AtomicU64::new(0),
            slots: (0..lanes).map(|_| WorkerSlot::default()).collect(),
            slow: SlowLog::new(SLOW_QUERY_US, SLOW_LOG_CAPACITY),
        });
        let registry = build_registry(&shared, &cache, &engine);
        ServePool {
            shared,
            cache,
            registry,
        }
    }

    /// Serve one request on the calling thread through a free lane,
    /// waiting while every lane is checked out — the closed-loop client
    /// call. A query that panics comes back as [`FtslError::Internal`];
    /// the lane keeps serving with fresh scratch.
    pub fn execute(&self, req: QueryRequest) -> Reply {
        let shared = &*self.shared;
        let mut guard = shared.checkout();
        let lane = guard.lane.as_mut().expect("held until drop");
        let slot = &shared.slots[lane.id];
        let start = Instant::now();
        let allocs_before = thread_allocs();
        let scratch_before = scratch_pool_stats();
        let result = match panic::catch_unwind(AssertUnwindSafe(|| lane.ctx.serve(&req))) {
            Ok(result) => result,
            Err(payload) => {
                // The unwind may have left the scratch half-updated.
                lane.ctx =
                    ServeContext::new(Arc::clone(&lane.ctx.engine), Arc::clone(&lane.ctx.cache));
                slot.panics.fetch_add(1, Ordering::Relaxed);
                Err(FtslError::Internal(format!(
                    "query panicked: {}",
                    panic_message(payload.as_ref())
                )))
            }
        };
        slot.allocs
            .fetch_add(thread_allocs() - allocs_before, Ordering::Relaxed);
        let scratch = scratch_pool_stats();
        slot.scratch_reused
            .fetch_add(scratch.reused - scratch_before.reused, Ordering::Relaxed);
        slot.scratch_allocated.fetch_add(
            scratch.allocated - scratch_before.allocated,
            Ordering::Relaxed,
        );
        slot.served.fetch_add(1, Ordering::Relaxed);
        if let Ok(served) = &result {
            if served.cached {
                slot.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else if let Some(c) = served.answer.counters() {
                slot.pair_entries
                    .fetch_add(c.pair_entries, Ordering::Relaxed);
            }
        }
        let micros = start.elapsed().as_micros() as u64;
        slot.latency_us.record(micros);
        if shared.slow.should_log(micros) {
            shared.slow.record(slow_entry(&req, micros, &result));
        }
        result
    }

    /// Number of evaluation lanes.
    pub fn workers(&self) -> usize {
        self.shared.slots.len()
    }

    /// The shared result cache (for stats or pre-warming).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Per-lane and cache counters, the merged latency histogram, and lane
    /// occupancy.
    ///
    /// One snapshot per call; see the [`PoolStats`] ordering caveat for
    /// what "snapshot" means while lanes are still evaluating.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.shared;
        PoolStats {
            workers: shared.slots.iter().map(|s| s.snapshot()).collect(),
            cache: self.cache.stats(),
            latency: merged_latency(&shared.slots),
            in_flight: shared.in_flight(),
            lane_waits: shared.lane_waits.load(Ordering::Relaxed),
        }
    }

    /// The metrics registry. Collectors read the same atomics
    /// [`ServePool::stats`] reads, so exports reconcile exactly with
    /// [`PoolStats`] / [`CacheStats`] once the pool is quiescent.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// All metrics in the Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.registry.prometheus_text()
    }

    /// All metrics as a JSON object keyed by metric name.
    pub fn metrics_json(&self) -> String {
        self.registry.json()
    }

    /// The slow-query log: a ring of the last [`SLOW_LOG_CAPACITY`]
    /// requests over its threshold ([`SLOW_QUERY_US`] until
    /// [`SlowLog::set_threshold_us`] changes it).
    pub fn slow_log(&self) -> &SlowLog {
        &self.shared.slow
    }
}

fn merged_latency(slots: &[WorkerSlot]) -> HistogramSnapshot {
    slots.iter().fold(HistogramSnapshot::empty(), |acc, s| {
        acc.merge(&s.latency_us.snapshot())
    })
}

/// Wire up every collector: serve counters, lane occupancy, request
/// latency, result cache, slow log, engine liveness, and index footprint
/// (including the word-pair auxiliary lists).
fn build_registry(shared: &Arc<Shared>, cache: &Arc<ResultCache>, engine: &Arc<Ftsl>) -> Registry {
    let registry = Registry::new();
    let sum_slot = |shared: &Arc<Shared>, f: fn(&WorkerSlot) -> &AtomicU64| {
        let shared = Arc::clone(shared);
        move || {
            MetricValue::Counter(
                shared
                    .slots
                    .iter()
                    .map(|s| f(s).load(Ordering::Relaxed))
                    .sum(),
            )
        }
    };
    registry.register(
        "ftsl_serve_requests_total",
        "Requests completed across all lanes",
        sum_slot(shared, |s| &s.served),
    );
    registry.register(
        "ftsl_serve_panics_total",
        "Requests whose evaluation panicked (answered with an error; the lane kept serving)",
        sum_slot(shared, |s| &s.panics),
    );
    let sh = Arc::clone(shared);
    registry.register(
        "ftsl_serve_in_flight",
        "Lanes checked out by a request right now",
        move || MetricValue::Gauge(sh.in_flight() as u64),
    );
    let sh = Arc::clone(shared);
    registry.register(
        "ftsl_serve_lane_waits_total",
        "Requests that found every lane checked out and waited for one",
        move || MetricValue::Counter(sh.lane_waits.load(Ordering::Relaxed)),
    );
    registry.register(
        "ftsl_serve_cache_hits_total",
        "Requests answered from the result cache",
        sum_slot(shared, |s| &s.cache_hits),
    );
    registry.register(
        "ftsl_serve_pair_entries_total",
        "Postings resolved from word-pair auxiliary lists (cache misses only)",
        sum_slot(shared, |s| &s.pair_entries),
    );
    registry.register(
        "ftsl_serve_worker_allocs_total",
        "Heap allocations while lanes evaluated (0 unless CountingAlloc is installed)",
        sum_slot(shared, |s| &s.allocs),
    );
    registry.register(
        "ftsl_serve_scratch_reused",
        "Cursor scratch buffers recycled while lanes evaluated",
        sum_slot(shared, |s| &s.scratch_reused),
    );
    registry.register(
        "ftsl_serve_scratch_allocated",
        "Cursor scratch buffers heap-allocated while lanes evaluated",
        sum_slot(shared, |s| &s.scratch_allocated),
    );
    let sh = Arc::clone(shared);
    registry.register(
        "ftsl_request_duration_us",
        "Request wall time in microseconds",
        move || MetricValue::Histogram(merged_latency(&sh.slots)),
    );
    let ch = Arc::clone(cache);
    registry.register(
        "ftsl_result_cache_hits_total",
        "Result-cache lookups that found a current-version entry",
        move || MetricValue::Counter(ch.stats().hits),
    );
    let ch = Arc::clone(cache);
    registry.register(
        "ftsl_result_cache_misses_total",
        "Result-cache lookups that fell through to evaluation",
        move || MetricValue::Counter(ch.stats().misses),
    );
    let ch = Arc::clone(cache);
    registry.register(
        "ftsl_result_cache_insertions_total",
        "Answers inserted into the result cache",
        move || MetricValue::Counter(ch.stats().insertions),
    );
    let ch = Arc::clone(cache);
    registry.register(
        "ftsl_result_cache_evictions_total",
        "Entries evicted from the result cache",
        move || MetricValue::Counter(ch.stats().evictions),
    );
    let ch = Arc::clone(cache);
    registry.register(
        "ftsl_result_cache_entries",
        "Entries currently resident in the result cache",
        move || MetricValue::Gauge(ch.stats().entries as u64),
    );
    let ch = Arc::clone(cache);
    registry.register(
        "ftsl_result_cache_capacity",
        "Result-cache capacity in entries",
        move || MetricValue::Gauge(ch.stats().capacity as u64),
    );
    let sh = Arc::clone(shared);
    registry.register(
        "ftsl_slow_queries_total",
        "Requests captured by the slow-query log (lifetime, including evicted)",
        move || MetricValue::Counter(sh.slow.total()),
    );
    let sh = Arc::clone(shared);
    registry.register(
        "ftsl_slow_query_threshold_us",
        "Slow-query capture threshold in microseconds (0 = disabled)",
        move || MetricValue::Gauge(sh.slow.threshold_us()),
    );
    let en = Arc::clone(engine);
    registry.register(
        "ftsl_engine_version",
        "Mutation version of the live engine (result-cache key component)",
        move || MetricValue::Gauge(en.version()),
    );
    let en = Arc::clone(engine);
    registry.register(
        "ftsl_engine_segments",
        "Sealed segments currently live",
        move || MetricValue::Gauge(en.live_index().segment_count() as u64),
    );
    let en = Arc::clone(engine);
    registry.register(
        "ftsl_engine_live_docs",
        "Documents visible to readers (added minus deleted)",
        move || MetricValue::Gauge(en.live_index().live_doc_count() as u64),
    );
    let en = Arc::clone(engine);
    registry.register(
        "ftsl_engine_tombstones",
        "Deletions awaiting merge reclamation",
        move || MetricValue::Gauge(en.live_index().tombstone_count() as u64),
    );
    let en = Arc::clone(engine);
    registry.register(
        "ftsl_engine_merges_total",
        "Background segment merges committed",
        move || MetricValue::Counter(en.live_index().merges_completed()),
    );
    let en = Arc::clone(engine);
    registry.register(
        "ftsl_index_resident_bytes",
        "Resident heap bytes across live segments",
        move || {
            MetricValue::Gauge(
                en.segment_reports()
                    .iter()
                    .map(|r| r.resident_bytes as u64)
                    .sum(),
            )
        },
    );
    let en = Arc::clone(engine);
    registry.register(
        "ftsl_index_pair_bytes",
        "Bytes held by word-pair auxiliary lists across live segments",
        move || {
            MetricValue::Gauge(
                en.segment_reports()
                    .iter()
                    .map(|r| r.pair_bytes as u64)
                    .sum(),
            )
        },
    );
    registry
}

/// The message a panic carried, when it was a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        msg
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg
    } else {
        "non-string panic payload"
    }
}

/// Build the slow-log record for a request that crossed the threshold.
/// Runs only on the (rare, already-slow) capture path, so the `String`
/// allocations here never touch steady-state serving.
fn slow_entry(req: &QueryRequest, micros: u64, result: &Reply) -> SlowEntry {
    let (cached, summary, trace) = match result {
        Ok(served) => {
            let hits = match served.answer.as_ref() {
                Answer::Search(r) => r.len(),
                Answer::TopK(r) | Answer::Near(r) => r.hits.len(),
            };
            let c = served.answer.counters().unwrap_or_default();
            let summary = format!(
                "hits={} entries={} positions={} pair_entries={} blocks_skipped={} segments_skipped={}",
                hits, c.entries, c.positions, c.pair_entries, c.blocks_skipped, c.segments_skipped
            );
            (served.cached, summary, served.answer.trace().cloned())
        }
        Err(e) => (false, format!("error: {e}"), None),
    };
    SlowEntry {
        seq: 0, // assigned by SlowLog::record
        query: req.describe(),
        micros,
        cached,
        summary,
        trace,
    }
}
