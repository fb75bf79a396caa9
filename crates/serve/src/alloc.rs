//! A counting global allocator for allocation-budget tests and benches.
//!
//! Install it in a test or bench **binary** (never in a library):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ftsl_serve::CountingAlloc = ftsl_serve::CountingAlloc;
//! ```
//!
//! Every thread then counts its own allocations; [`thread_allocs`] reads
//! the calling thread's total, so a delta around a code region is an exact
//! per-thread allocation count with no cross-thread noise. When the
//! allocator is *not* installed the counter never moves and
//! [`thread_allocs`] reports 0 — [`crate::WorkerStats::allocs`] is
//! meaningful only under an instrumented binary.
//!
//! Beside the count, each thread keeps its live bytes (allocated minus
//! freed, by this thread) and their high-water mark. A region's transient
//! peak is [`thread_peak_bytes`] after [`reset_thread_peak`], minus
//! [`thread_live_bytes`] before it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One thread's counters.
struct Counters {
    allocs: Cell<u64>,
    /// Bytes this thread allocated minus bytes it freed — negative when it
    /// frees memory another thread allocated.
    live: Cell<i64>,
    /// Largest `live` since the thread started or last reset its peak.
    peak: Cell<i64>,
}

thread_local! {
    // `const` init: reading or bumping the counters must itself never
    // allocate, even on a thread's first allocation.
    static THREAD: Counters = const {
        Counters {
            allocs: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Allocations performed by the calling thread since it started, counted
/// only while [`CountingAlloc`] is the global allocator.
pub fn thread_allocs() -> u64 {
    THREAD.try_with(|c| c.allocs.get()).unwrap_or(0)
}

/// Bytes the calling thread has allocated and not freed (frees of other
/// threads' memory count against it), while [`CountingAlloc`] is the global
/// allocator.
pub fn thread_live_bytes() -> i64 {
    THREAD.try_with(|c| c.live.get()).unwrap_or(0)
}

/// The calling thread's largest [`thread_live_bytes`] since it started or
/// last called [`reset_thread_peak`].
pub fn thread_peak_bytes() -> i64 {
    THREAD.try_with(|c| c.peak.get()).unwrap_or(0)
}

/// Restart the calling thread's peak from its current live bytes.
pub fn reset_thread_peak() {
    let _ = THREAD.try_with(|c| c.peak.set(c.live.get()));
}

/// [`System`] with per-thread counters: allocations (a `realloc` counts as
/// one), and live and peak bytes. Frees are not counted as allocations:
/// the serving invariants bound how often the allocator is *entered* on
/// the hot path, and a region that allocates nothing frees nothing.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Count one allocation that changes live bytes by `grown`.
    #[inline]
    fn allocated(grown: i64) {
        let _ = THREAD.try_with(|c| {
            c.allocs.set(c.allocs.get() + 1);
            let live = c.live.get() + grown;
            c.live.set(live);
            c.peak.set(c.peak.get().max(live));
        });
    }
}

// SAFETY: delegates verbatim to `System`; the counters are per-thread
// state touched outside the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::allocated(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::allocated(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::allocated(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Live bytes only fall here, so the peak cannot move.
        let _ = THREAD.try_with(|c| c.live.set(c.live.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}
