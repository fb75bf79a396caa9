//! Allocation accounting for the word-pair index build: a segment's pair
//! index is one arena filled from one sort, so the number of heap
//! allocations the pair build adds does not grow with the number of keys.

use ftsl_index::{IndexBuilder, PairConfig};
use ftsl_model::Corpus;
use ftsl_serve::{thread_allocs, CountingAlloc};

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
