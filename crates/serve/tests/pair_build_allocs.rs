//! Allocation accounting for a segment build. A segment's posting lists
//! are one arena filled by counting, so the number of heap allocations a
//! build makes does not grow with the vocabulary. Its pair index is one
//! arena filled from flat, exactly sized buffers, so the allocations the
//! pair build adds do not grow with the number of keys, and its transient
//! peak stays under the sort-based build it replaced. Writing or loading
//! an image allocates per neither list nor pair key.
//!
//! A large pair build runs on two threads, so this binary counts every
//! thread's allocations ([`ProcessAlloc`]), and each test measures in a
//! process that runs it alone ([`alone`], which says how to print the
//! figures).

use ftsl_index::{persist, IndexBuilder, PairConfig, PairIndex};
use ftsl_model::{Corpus, TokenInterner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// [`System`] with process-wide counters: allocations (a `realloc` counts
/// as one), live bytes, and their high-water mark, summed over every
/// thread.
struct ProcessAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

impl ProcessAlloc {
    /// Count one allocation that changes live bytes by `grown`.
    fn allocated(grown: i64) {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(grown, Relaxed) + grown;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counters are atomics touched
// outside the allocation itself.
unsafe impl GlobalAlloc for ProcessAlloc {
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
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: ProcessAlloc = ProcessAlloc;

/// Allocations by every thread so far.
fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes allocated and not freed, by every thread.
fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

/// The largest [`live_bytes`] since the last [`reset_peak`].
fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}

/// Restart the peak from the current live bytes.
fn reset_peak() {
    PEAK.store(live_bytes(), Relaxed);
}

/// Run `measure`, the body of the test `name`, where no thread of the test
/// harness allocates: in a copy of this binary that runs [`WARM_UP`], then
/// `name`, one at a time. Such a harness allocates while it starts a test
/// and, the first time only, when it starts to wait for one; from then on
/// it waits without allocating, so nothing but `measure` and the threads
/// it starts allocates while `name` runs. A process started so (with
/// `--test-threads=1` and [`WARM_UP`] among its filters) measures here;
/// `-- --test-threads=1 --nocapture --exact a_harness_warms_up <test>`
/// prints a test's figures.
fn alone(name: &str, measure: impl FnOnce()) {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|arg| arg == "--test-threads=1") && args.iter().any(|arg| arg == WARM_UP) {
        return measure();
    }
    let run = Command::new(std::env::current_exe().expect("the test binary has a path"))
        .args([WARM_UP, name, "--exact", "--test-threads=1", "--nocapture"])
        .output()
        .expect("the test binary starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success() && stdout.contains("test result: ok. 2 passed"),
        "{name}, run alone:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
}

/// The test [`alone`] runs before the one that measures. Tests run in name
/// order, so its name sorts before every other test's here.
const WARM_UP: &str = "a_harness_warms_up";

#[test]
fn a_harness_warms_up() {}

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
    alone("pair_build_allocations_do_not_grow_with_keys", || {
        let corpus = corpus();
        let build = |pairs: PairConfig| {
            let before = allocs();
            let index = IndexBuilder::new().pair_config(pairs).build(&corpus);
            (allocs() - before, index)
        };
        let (without, _) = build(PairConfig::disabled());
        let (with, index) = build(PairConfig::default());
        let keys = index.pairs().num_keys();
        assert!(keys >= 100_000, "the corpus must yield many keys: {keys}");
        let pair_allocs = with - without;
        println!("pair build: {pair_allocs} allocations for {keys} keys");
        assert!(
            pair_allocs <= 150,
            "the pair build allocated {pair_allocs} times for {keys} keys"
        );
    });
}

/// 1 024 documents of 100 words drawn from a 20 000-word vocabulary by a
/// Zipf(1.0) law — the shape of one `zipf_cold` segment.
fn zipf_corpus() -> Corpus {
    Corpus::from_texts(&zipf_texts(1_024))
}

/// The first `docs` texts of [`zipf_corpus`].
fn zipf_texts(docs: usize) -> Vec<String> {
    const VOCAB: usize = 20_000;
    let mut cumulative = Vec::with_capacity(VOCAB);
    let mut total = 0.0f64;
    for rank in 1..=VOCAB {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..docs)
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
        .collect()
}

/// Transient peak of the sort-based build this one replaced, on
/// [`zipf_corpus`] with this file's accounting: live bytes at their
/// high-water mark minus live bytes before the call, the returned
/// 16 793 404-byte arena included. The 16-byte `(key, node, gap)` postings
/// it sorted were alive while it wrote the arena.
const SORTED_BUILD_PEAK: i64 = 34_950_602;

#[test]
fn pair_build_peak_stays_under_the_sorted_build() {
    alone("pair_build_peak_stays_under_the_sorted_build", || {
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
        reset_peak();
        let before = live_bytes();
        let pairs = PairIndex::build(corpus.documents(), &dfs, PairConfig::default());
        let peak = peak_bytes() - before;
        let arena = pairs.resident_bytes();
        println!("pair build: peak {peak} bytes, arena {arena} bytes");
        assert!(pairs.num_keys() >= 500_000, "{} keys", pairs.num_keys());
        assert!(
            peak <= SORTED_BUILD_PEAK,
            "the pair build peaked at {peak} bytes (arena {arena}); the sorted build peaked at {SORTED_BUILD_PEAK}"
        );
    });
}

/// Ceiling on the pair arena of [`zipf_corpus`]. When every key kept a
/// block header, the arena was 16 793 404 bytes, 24 of them for each of the
/// 502 400 keys (of 613 570) that hold one document: its second token, a
/// block index slot and a 16-byte header. With such a key's second token,
/// node and gap stored inline at machine-word widths (9 bytes), it was
/// 9 310 632. The key tables now hold each second token in the narrowest
/// whole integer the vocabulary allows and the other fields in bit-packed
/// rows as wide as the segment's values need (an inline key takes 16 + 14
/// bits), and it is 6 184 070.
const ARENA_CEILING: usize = 7_000_000;

#[test]
fn one_document_keys_keep_the_arena_small() {
    alone("one_document_keys_keep_the_arena_small", || {
        let corpus = zipf_corpus();
        let index = IndexBuilder::new().build(&corpus);
        let pairs = index.pairs();
        let (keys, single) = (pairs.num_keys(), pairs.num_single_document_keys());
        let arena = pairs.resident_bytes();
        println!("pair arena: {arena} bytes, {keys} keys, {single} of one document");
        assert!(single * 5 >= keys * 4, "{single} of {keys} keys");
        assert!(
            arena <= ARENA_CEILING,
            "the pair arena is {arena} bytes, over {ARENA_CEILING}"
        );
    });
}

/// Documents of `texts` over an interner that already holds `width`
/// tokens the documents never use — the shape of a write-buffer chunk,
/// which shares the live index's whole vocabulary.
fn corpus_over(width: usize, texts: &[String]) -> Corpus {
    let mut interner = TokenInterner::new();
    for t in 0..width {
        interner.intern(&format!("unused{t}"));
    }
    let mut corpus = Corpus::with_interner(interner);
    for text in texts {
        corpus.add_text(text);
    }
    corpus
}

/// Allocations of a build with pairs disabled.
fn build_allocs(corpus: &Corpus) -> u64 {
    let before = allocs();
    let index = IndexBuilder::new()
        .pair_config(PairConfig::disabled())
        .build(corpus);
    let built = allocs() - before;
    drop(index);
    built
}

#[test]
fn list_build_allocations_do_not_grow_with_the_vocabulary() {
    alone(
        "list_build_allocations_do_not_grow_with_the_vocabulary",
        || {
            let texts: Vec<String> = (0..300)
                .map(|i| format!("w{} w{} w{} shared w{}", i % 7, i % 13, i % 101, i % 3))
                .collect();
            let narrow = corpus_over(1_000, &texts);
            let wide = corpus_over(20_000, &texts);
            assert!(wide.interner().len() >= 20_000);
            let (narrow_allocs, wide_allocs) = (build_allocs(&narrow), build_allocs(&wide));
            println!("list build: {narrow_allocs} allocations at 1k tokens, {wide_allocs} at 20k");
            assert_eq!(
                narrow_allocs, wide_allocs,
                "a 20k-token interner must cost no more allocations than a 1k-token one"
            );
            assert!(
                narrow_allocs <= 24,
                "a list build allocated {narrow_allocs} times"
            );
        },
    );
}

/// A region's transient peak: its high-water mark of live bytes minus the
/// live bytes it leaves behind — for a build, everything but the index.
fn transient_peak<T>(region: impl FnOnce() -> T) -> (i64, T) {
    reset_peak();
    let out = region();
    (peak_bytes() - live_bytes(), out)
}

#[test]
fn a_seal_peaks_the_same_under_any_vocabulary_width() {
    alone("a_seal_peaks_the_same_under_any_vocabulary_width", || {
        // 32 documents of 100 words: a write-buffer chunk.
        let texts = zipf_texts(32);
        let own = Corpus::from_texts(&texts);
        let wide = corpus_over(200_000, &texts);
        let seal = |corpus: &Corpus| {
            let (transient, index) = transient_peak(|| IndexBuilder::new().build(corpus));
            (transient, index.pairs().num_keys())
        };
        let (own_peak, own_keys) = seal(&own);
        let (wide_peak, wide_keys) = seal(&wide);
        println!(
            "32-document seal: transient {own_peak} bytes over {} tokens, {wide_peak} over {}",
            own.interner().len(),
            wide.interner().len()
        );
        assert!(
            own_keys > 1_000,
            "the chunk must carry pairs: {own_keys} keys"
        );
        assert_eq!(own_keys, wide_keys);
        assert!(
            wide_peak <= own_peak,
            "a seal over 200k tokens peaked {wide_peak} transient bytes, over its own {own_peak}"
        );
    });
}

/// Ceiling on the allocations [`persist::encode`] or [`persist::decode`]
/// makes for an image of [`zipf_corpus`]'s index, with or without its
/// 613 570 pair keys. Each is a step of a vector that doubles as it fills
/// (the image; a posting arena's headers and bytes; the pair arena's
/// stream and the one reused entries buffer), one allocation per arena
/// vector, or one shrink per arena vector, so the count grows with the
/// logarithm of the image, not with its lists or keys. Measured: decode
/// 31 allocations without pairs and 65 with (a 30 MB image), encode 17
/// and 32. At one allocation per pair key, decoding or encoding the image
/// with pairs took over 613 570.
const CODEC_ALLOCS: u64 = 80;

#[test]
fn decoding_an_image_does_not_allocate_per_list() {
    alone("decoding_an_image_does_not_allocate_per_list", || {
        let corpus = zipf_corpus();
        for pairs in [PairConfig::disabled(), PairConfig::default()] {
            let index = IndexBuilder::new().pair_config(pairs).build(&corpus);
            let (lists, keys) = (index.num_tokens() + 1, index.pairs().num_keys());
            assert!(lists >= 10_000, "{lists} lists");
            let image = persist::encode(&index);
            let before = allocs();
            let decoded = persist::decode(image.as_slice()).expect("a built image decodes");
            let allocs = allocs() - before;
            println!("decode: {allocs} allocations for {lists} lists and {keys} pair keys");
            assert_eq!(decoded.num_tokens(), index.num_tokens());
            assert_eq!(decoded.pairs().num_keys(), keys);
            assert!(
                allocs <= CODEC_ALLOCS,
                "decoding {lists} lists and {keys} pair keys allocated {allocs} times"
            );
        }
    });
}

#[test]
fn encoding_an_image_does_not_allocate_per_list() {
    alone("encoding_an_image_does_not_allocate_per_list", || {
        let corpus = zipf_corpus();
        for pairs in [PairConfig::disabled(), PairConfig::default()] {
            let index = IndexBuilder::new().pair_config(pairs).build(&corpus);
            let (lists, keys) = (index.num_tokens() + 1, index.pairs().num_keys());
            let before = allocs();
            let image = persist::encode(&index);
            let allocs = allocs() - before;
            println!(
                "encode: {allocs} allocations for {lists} lists and {keys} pair keys, {} bytes",
                image.len()
            );
            assert!(
                allocs <= CODEC_ALLOCS,
                "encoding {lists} lists and {keys} pair keys allocated {allocs} times"
            );
        }
    });
}
