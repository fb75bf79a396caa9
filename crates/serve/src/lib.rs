//! The serving front door: many queries in parallel over one engine.
//!
//! Everything below is std-only plumbing around the read path the rest of
//! the workspace already proved correct: a [`ServePool`] owns N evaluation
//! lanes, each holding its own reusable evaluation state
//! ([`ftsl_exec::ExecScratch`]; cursor scratch comes from the thread-local
//! pool inside `ftsl-index`). [`ServePool::execute`] checks out a free
//! lane and evaluates on the caller's own thread — no queue, no worker
//! threads, no channel — against a point-in-time
//! [`ftsl_index::Snapshot`] of a shared [`ftsl_core::Ftsl`]; at most N
//! requests evaluate at once. Writers keep writing; readers never block
//! them and never see a torn view.
//!
//! Results flow through a [`ResultCache`] keyed on `(normalized query,
//! snapshot version)`. The version is the live index's mutation counter,
//! so invalidation is free: a write bumps the version, and every entry
//! cached under the old version becomes unreachable by construction — no
//! scan, no epoch bookkeeping. The cache-hit path performs **zero heap
//! allocations** (hash, one index probe, `Arc` clone), and the miss
//! path's cursor and top-k state is recycled per lane, which is what makes
//! steady-state serving allocation-free on the hot paths — the
//! [`CountingAlloc`] test allocator pins that down.
//!
//! Serving adds **no index format change**: this crate never touches
//! bytes, only snapshots.
//!
//! ```
//! use ftsl_core::Ftsl;
//! use ftsl_serve::{QueryRequest, ServeConfig, ServePool};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Ftsl::new());
//! engine.add("usability of a software system");
//! let pool = ServePool::new(
//!     Arc::clone(&engine),
//!     ServeConfig {
//!         workers: 2,
//!         ..ServeConfig::default()
//!     },
//! );
//! let served = pool
//!     .execute(QueryRequest::search("'software'"))
//!     .unwrap();
//! assert_eq!(served.answer.as_search().unwrap().len(), 1);
//! // The same query at the same version comes out of the cache.
//! let again = pool.execute(QueryRequest::search("'software'")).unwrap();
//! assert!(again.cached);
//! ```

pub mod alloc;
pub mod cache;
pub mod pool;

pub use alloc::{
    reset_thread_peak, thread_allocs, thread_live_bytes, thread_peak_bytes, CountingAlloc,
};
pub use cache::{CacheStats, ResultCache};
pub use ftsl_obs::{HistogramSnapshot, MetricValue, Registry, SlowEntry, SlowLog};
pub use pool::{
    PoolStats, QueryRequest, ServeConfig, ServeContext, ServePool, Served, WorkerStats,
};

use ftsl_core::{QueryOutput, ScoredOutput};
use ftsl_index::AccessCounters;

/// A finished query result, shared between the cache and all requesters.
#[derive(Clone, Debug)]
pub enum Answer {
    /// BOOL/PPRED/NPRED/COMP matches (unranked).
    Search(QueryOutput),
    /// Ranked top-k hits.
    TopK(ScoredOutput),
    /// Proximity-ranked NEAR hits (word-pair index path).
    Near(ScoredOutput),
}

impl Answer {
    /// The unranked results, if this answer holds them.
    pub fn as_search(&self) -> Option<&QueryOutput> {
        match self {
            Answer::Search(r) => Some(r),
            _ => None,
        }
    }

    /// The ranked results, if this answer holds them.
    pub fn as_top_k(&self) -> Option<&ScoredOutput> {
        match self {
            Answer::TopK(r) => Some(r),
            _ => None,
        }
    }

    /// The NEAR results, if this answer holds them.
    pub fn as_near(&self) -> Option<&ScoredOutput> {
        match self {
            Answer::Near(r) => Some(r),
            _ => None,
        }
    }

    /// The evaluation's access counters. Always `Some` — every path reports
    /// them; the `Option` is kept for `benchmark/src/sut.rs`, which unwraps
    /// it, and is to be dropped by the next `benchmark` issue.
    pub fn counters(&self) -> Option<AccessCounters> {
        match self {
            Answer::Search(r) => Some(r.counters),
            Answer::TopK(r) | Answer::Near(r) => Some(r.counters),
        }
    }

    /// The span tree recorded during evaluation, when the engine ran with
    /// [`ftsl_exec::engine::ExecOptions::trace`] enabled (configure via
    /// [`ftsl_core::Ftsl::with_options`]); slow-query log entries for
    /// such engines carry the full profile.
    pub fn trace(&self) -> Option<&ftsl_obs::Trace> {
        match self {
            Answer::Search(r) => r.trace.as_deref(),
            Answer::TopK(r) | Answer::Near(r) => r.trace.as_deref(),
        }
    }
}
