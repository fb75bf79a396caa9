//! Steady-state allocation accounting: a counting global allocator proves
//! the two serving hot paths are allocation-free once warm.
//!
//! * **Cache-hit path** — `ServeContext::serve` on a warm entry: hash the
//!   key, probe the flat table, clone an `Arc`. Zero heap traffic.
//! * **Scratch-reuse path** — a warm `BlockCursor` walk: the decode
//!   buffers come from the thread-local scratch pool, so re-walking a
//!   block list (including position decode) allocates nothing.
//!
//! A top-k's memory follows its answer, not the `k` a caller asks for.

use ftsl_core::{Ftsl, LiveConfig, RankModel};
use ftsl_index::scratch_pool_stats;
use ftsl_obs::Histogram;
use ftsl_serve::{
    reset_thread_peak, thread_allocs, thread_live_bytes, thread_peak_bytes, CountingAlloc,
    QueryRequest, ResultCache, ServeContext, SlowLog,
};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn engine() -> Arc<Ftsl> {
    let engine = Ftsl::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    for i in 0..300 {
        engine.add(&format!(
            "document {i} about usability and software systems number{}",
            i % 7
        ));
    }
    engine.flush();
    Arc::new(engine)
}

/// A ranked PRA request resolves the idf of its own tokens, not of the
/// whole vocabulary: its allocations do not grow with the vocabulary.
#[test]
fn pra_top_k_allocations_do_not_grow_with_the_vocabulary() {
    let allocs = |width: usize| {
        let engine = Ftsl::with_config(LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        });
        // One document carries the vocabulary; the rest are what is ranked.
        let words: Vec<String> = (0..width).map(|i| format!("term{i}")).collect();
        engine.add(&words.join(" "));
        for i in 0..50 {
            engine.add(&format!("usability software number{}", i % 7));
        }
        engine.flush();
        let query = "'software' OR 'number3'";
        // Warm: the version's statistics are computed once, then cached.
        engine.search_top_k(query, RankModel::Pra, 10).unwrap();
        let before = thread_allocs();
        let ranked = engine.search_top_k(query, RankModel::Pra, 10).unwrap();
        let allocs = thread_allocs() - before;
        assert_eq!(ranked.hits.len(), 10);
        allocs
    };
    let (narrow, wide) = (allocs(2_000), allocs(50_000));
    println!("PRA top-k: {narrow} allocations at 2k tokens, {wide} at 50k");
    assert_eq!(
        narrow, wide,
        "a PRA top-k allocated {wide} times over 50k tokens, {narrow} over 2k"
    );
}

/// `k` is caller input (`:top`, `QueryRequest::TopK`): a top-k with a huge
/// `k` on a 10-document engine peaks no higher than one whose `k` already
/// exceeds the collection, instead of reserving `k` heap slots up front.
#[test]
fn a_huge_k_peaks_no_higher_than_the_collection() {
    let engine = Ftsl::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    for i in 0..10 {
        engine.add(&format!("usability software number{}", i % 3));
    }
    engine.flush();
    let query = "'software' OR 'number1'";
    // Warm: the version's statistics are computed once, then cached.
    engine.search_top_k(query, RankModel::TfIdf, 11).unwrap();
    let peak = |k: usize| {
        reset_thread_peak();
        let before = thread_live_bytes();
        let ranked = engine.search_top_k(query, RankModel::TfIdf, k).unwrap();
        let peak = thread_peak_bytes() - before;
        assert_eq!(ranked.hits.len(), 10);
        peak
    };
    let (fits, huge) = (peak(11), peak(1 << 24));
    println!("TF-IDF top-k peak: {fits} bytes at k = 11, {huge} at k = 2^24");
    assert!(
        huge <= fits,
        "k = 2^24 peaked at {huge} bytes, k = 11 at {fits}"
    );
}

#[test]
fn cache_hit_serving_allocates_nothing() {
    let engine = engine();
    let cache = Arc::new(ResultCache::new(32));
    let mut ctx = ServeContext::new(Arc::clone(&engine), Arc::clone(&cache));
    let reqs = [
        QueryRequest::search("'software' AND 'usability'"),
        QueryRequest::top_k("'software' OR 'number3'", RankModel::TfIdf, 10),
    ];
    // Warm: fill the cache (and any lazy statics in the path).
    for req in &reqs {
        assert!(!ctx.serve(req).unwrap().cached);
        assert!(ctx.serve(req).unwrap().cached);
    }
    for req in &reqs {
        let before = thread_allocs();
        for _ in 0..100 {
            let served = ctx.serve(req).unwrap();
            assert!(served.cached);
        }
        let delta = thread_allocs() - before;
        assert_eq!(delta, 0, "cache-hit path allocated {delta} times: {req:?}");
    }
}

/// The observability layer must not cost the zero-alloc guarantee: the
/// exact per-request instrumentation a pool lane performs with metrics
/// on (clock the request, record the latency histogram, check the
/// slow-log threshold) is replayed around the warm cache-hit path.
#[test]
fn metrics_recording_on_the_hit_path_allocates_nothing() {
    let engine = engine();
    let cache = Arc::new(ResultCache::new(32));
    let mut ctx = ServeContext::new(Arc::clone(&engine), Arc::clone(&cache));
    let req = QueryRequest::search("'software' AND 'usability'");
    assert!(!ctx.serve(&req).unwrap().cached);
    assert!(ctx.serve(&req).unwrap().cached);

    let hist = Histogram::new();
    // Threshold enabled (so the check is real) but unreachably high.
    let slow = SlowLog::new(u64::MAX, 8);
    let before = thread_allocs();
    for _ in 0..100 {
        let start = std::time::Instant::now();
        let served = ctx.serve(&req).unwrap();
        assert!(served.cached);
        let micros = start.elapsed().as_micros() as u64;
        hist.record(micros);
        assert!(!slow.should_log(micros));
    }
    let delta = thread_allocs() - before;
    assert_eq!(delta, 0, "instrumented hit path allocated {delta} times");
    assert_eq!(hist.snapshot().count(), 100);
}

#[test]
fn warm_block_cursor_walks_allocate_nothing() {
    let engine = engine();
    let snapshot = engine.live_index().snapshot();
    let seg = &snapshot.segments()[0];
    // Grab the widest couple of block lists in the sealed segment.
    let index = seg.data().index();
    let mut lists: Vec<_> = (0..index.num_tokens())
        .map(|t| index.block_list(ftsl_model::TokenId(t as u32)))
        .filter(|l| !l.is_empty())
        .collect();
    lists.sort_by_key(|l| std::cmp::Reverse(l.num_entries()));
    lists.truncate(3);
    assert!(!lists.is_empty());

    let walk = |allocs: &mut u64| {
        let before = thread_allocs();
        let mut checksum = 0u64;
        for list in &lists {
            let mut cur = list.cursor();
            while let Some(node) = cur.next_entry() {
                checksum ^= node.0 as u64 ^ (cur.tf() as u64) << 32;
                for p in cur.positions() {
                    checksum = checksum.wrapping_add(p.offset as u64);
                }
            }
        }
        *allocs += thread_allocs() - before;
        checksum
    };

    // Warm round: leases fresh scratch from the pool (allocates once per
    // buffer) and grows the decode buffers to their steady-state size.
    let mut warm_allocs = 0;
    let reference = walk(&mut warm_allocs);
    let pool_after_warm = scratch_pool_stats();

    // Steady state: every re-walk reuses pooled scratch, zero allocation.
    for round in 0..5 {
        let mut allocs = 0;
        assert_eq!(walk(&mut allocs), reference, "round {round}");
        assert_eq!(allocs, 0, "warm cursor walk allocated {allocs} times");
    }
    let pool = scratch_pool_stats();
    assert_eq!(
        pool.allocated, pool_after_warm.allocated,
        "steady state never allocated a new scratch buffer"
    );
    assert!(
        pool.reused >= pool_after_warm.reused + 15,
        "5 rounds x 3 lists"
    );
}
