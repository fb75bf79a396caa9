//! Allocation accounting for the word-pair index build: a segment's pair
//! index is one arena filled from flat, exactly sized buffers, so the
//! number of heap allocations the pair build adds does not grow with the
//! number of keys, and its transient peak stays under the sort-based build
//! it replaced.

use ftsl_index::{IndexBuilder, PairConfig, PairIndex};
use ftsl_model::Corpus;
use ftsl_serve::{
    reset_thread_peak, thread_allocs, thread_live_bytes, thread_peak_bytes, CountingAlloc,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// 1 200 documents of 40 words drawn from 1 000 by a fixed generator:
/// every word clears the default df cutoff, and most pairs within the
/// window occur in one document only — the shape that gives one key per
/// posting.
fn corpus() -> Corpus {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let texts: Vec<String> = (0..1_200)
        .map(|_| {
            (0..40)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    format!("w{}", state % 1_000)
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    Corpus::from_texts(&texts)
}

#[test]
fn pair_build_allocations_do_not_grow_with_keys() {
    let corpus = corpus();
    // One thread: the whole build runs here, where `thread_allocs` counts.
    let build = |pairs: PairConfig| {
        let before = thread_allocs();
        let index = IndexBuilder::new()
            .threads(1)
            .pair_config(pairs)
            .build(&corpus);
        (thread_allocs() - before, index)
    };
    let (without, _) = build(PairConfig::disabled());
    let (with, index) = build(PairConfig::default());
    let keys = index.pairs().num_keys();
    assert!(keys >= 100_000, "the corpus must yield many keys: {keys}");
    let pair_allocs = with - without;
    assert!(
        pair_allocs <= 150,
        "the pair build allocated {pair_allocs} times for {keys} keys"
    );
}

/// 1 024 documents of 100 words drawn from a 20 000-word vocabulary by a
/// Zipf(1.0) law — the shape of one `zipf_cold` segment.
fn zipf_corpus() -> Corpus {
    const VOCAB: usize = 20_000;
    let mut cumulative = Vec::with_capacity(VOCAB);
    let mut total = 0.0f64;
    for rank in 1..=VOCAB {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let texts: Vec<String> = (0..1_024)
        .map(|_| {
            (0..100)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
                    format!("w{}", cumulative.partition_point(|&c| c < u))
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    Corpus::from_texts(&texts)
}

/// Transient peak of the sort-based build this one replaced, on
/// [`zipf_corpus`] with this file's accounting: live bytes at their
/// high-water mark minus live bytes before the call, the returned
/// 16 793 404-byte arena included. The 16-byte `(key, node, gap)` postings
/// it sorted were alive while it wrote the arena.
const SORTED_BUILD_PEAK: i64 = 34_950_602;

#[test]
fn pair_build_peak_stays_under_the_sorted_build() {
    let corpus = zipf_corpus();
    let mut dfs = vec![0u32; corpus.interner().len()];
    let mut seen = vec![usize::MAX; dfs.len()];
    for (d, doc) in corpus.documents().iter().enumerate() {
        for &(t, _) in &doc.tokens {
            if seen[t.index()] != d {
                seen[t.index()] = d;
                dfs[t.index()] += 1;
            }
        }
    }
    reset_thread_peak();
    let before = thread_live_bytes();
    let pairs = PairIndex::build(corpus.documents(), &dfs, PairConfig::default());
    let peak = thread_peak_bytes() - before;
    let arena = pairs.resident_bytes();
    println!("pair build: peak {peak} bytes, arena {arena} bytes");
    assert!(pairs.num_keys() >= 500_000, "{} keys", pairs.num_keys());
    assert!(
        peak <= SORTED_BUILD_PEAK,
        "the pair build peaked at {peak} bytes (arena {arena}); the sorted build peaked at {SORTED_BUILD_PEAK}"
    );
}
