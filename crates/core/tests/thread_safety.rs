//! Compile-time thread-safety assertions for everything the serving layer
//! shares across worker threads.
//!
//! Concurrent serving hands one `Arc<Ftsl>` to N workers, each of
//! which clones `Snapshot`s (Arc'd `SegmentData` + `DeleteSet`) and reads
//! shared `SnapshotStats`. All of that requires `Send + Sync` — and those
//! bounds are *structural*, so an innocent-looking refactor (an `Rc` in
//! the tokenizer, a `Cell` counter in shared index data) would silently
//! revoke them and only explode at the first `thread::spawn`. Asserting
//! the bounds here turns that integration-time failure into a compile
//! error pointing at the exact type.

use ftsl_core::Ftsl;
use ftsl_exec::ExecScratch;
use ftsl_index::{
    AccessCounters, BlockList, DeleteSet, InvertedIndex, LiveIndex, MemSegment, PostingArena,
    PostingList, SegmentData, Snapshot, SnapshotSegment,
};
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::{ScoreStats, SnapshotStats};

fn assert_send_sync<T: Send + Sync>() {}

/// `Copy + Send + Sync`: borrowed views any worker may copy freely.
fn assert_copy_send_sync<T: Copy + Send + Sync>() {}

/// `Send` without `Sync`: enough for types workers own exclusively and
/// may be handed between threads (per-worker scratch).
fn assert_send<T: Send>() {}

#[test]
fn snapshot_types_are_send_sync() {
    // The point-in-time view workers pin per query, and its parts.
    assert_send_sync::<Snapshot>();
    assert_send_sync::<SnapshotSegment>();
    assert_send_sync::<SegmentData>();
    assert_send_sync::<DeleteSet>();
}

#[test]
fn sealed_index_data_is_send_sync() {
    // Everything reachable from a sealed segment: the inverted index, its
    // posting arena and the list views into it, the write buffer the next
    // flush seals, raw lists.
    assert_send_sync::<InvertedIndex>();
    assert_send_sync::<MemSegment>();
    assert_send_sync::<PostingArena>();
    assert_copy_send_sync::<BlockList<'_>>();
    assert_send_sync::<PostingList>();
    assert_send_sync::<AccessCounters>();
}

#[test]
fn scoring_statistics_are_send_sync() {
    // Shared read-only between workers via `Arc<SnapshotStats>`.
    assert_send_sync::<SnapshotStats>();
    assert_send_sync::<ScoreStats>();
}

#[test]
fn engines_are_send_sync() {
    // The `Arc<Ftsl>` every pool worker holds, the live index underneath,
    // and the predicate registry queries consult.
    assert_send_sync::<Ftsl>();
    assert_send_sync::<LiveIndex>();
    assert_send_sync::<PredicateRegistry>();
}

#[test]
fn per_worker_scratch_is_send() {
    // Owned by exactly one worker but created on the spawning thread, so
    // it must move across the spawn boundary.
    assert_send::<ExecScratch>();
}
