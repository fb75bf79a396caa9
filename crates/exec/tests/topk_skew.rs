//! Acceptance test for streaming scored retrieval on a skewed (Zipf)
//! corpus: block-max/MaxScore-pruned top-k over a `'rare' OR 'common'`
//! disjunction must decode *measurably fewer* entries than the exhaustive
//! scored pass — which touches every entry of every query list — while
//! returning exactly the oracle's first k rows. Run through the
//! dispatcher, so the whole path under
//! [`SnapshotExecutor::run_top_k_with`] is exercised.

use ftsl_corpus::SynthConfig;
use ftsl_exec::{ExecScratch, ScoreModel, ScoredOutput, ScoredPath, ScoredTopK, SnapshotExecutor};
use ftsl_index::{InvertedIndex, LiveConfig, LiveIndex, Snapshot};
use ftsl_lang::{parse, Mode};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::classic::classic_tfidf;
use ftsl_scoring::stream::TfIdfEntryScorer;
use ftsl_scoring::{topk_union_into, union_cursors, ModelScorer, SnapshotStats, TopK};

fn manual() -> LiveConfig {
    LiveConfig {
        background_merge: false,
        flush_threshold: usize::MAX,
        ..LiveConfig::default()
    }
}

/// `corpus` sealed as the one segment of a snapshot, with its statistics.
fn sealed(corpus: Corpus) -> (Snapshot, SnapshotStats) {
    let snap = LiveIndex::from_corpus_with(corpus, manual()).snapshot();
    let stats = SnapshotStats::compute(&snap);
    (snap, stats)
}

/// The corpus and index of a one-segment snapshot.
fn only_segment(snap: &Snapshot) -> (&Corpus, &InvertedIndex) {
    assert_eq!(snap.num_segments(), 1);
    let data = snap.segments()[0].data();
    (data.corpus(), data.index())
}

/// One rare, high-impact token against one very common one, over a Zipf
/// background — the regime where pruning pays.
fn skewed_env() -> (Snapshot, SnapshotStats) {
    let config = SynthConfig {
        cnodes: 3000,
        vocabulary: 1500,
        tokens_per_doc: 60,
        ..SynthConfig::default()
    }
    .plant("rare", 0.03, 4)
    .plant("common", 0.8, 1);
    sealed(config.build())
}

/// The dispatcher under test.
fn top_k(
    snap: &Snapshot,
    stats: &SnapshotStats,
    query: &str,
    k: usize,
    model: &ScoreModel<'_>,
) -> ScoredOutput {
    let registry = PredicateRegistry::with_builtins();
    let query = parse(query, Mode::Bool).expect("parses");
    SnapshotExecutor::new(snap, &registry)
        .run_top_k_with(
            &query,
            ScoredTopK { k },
            stats,
            model,
            &mut ExecScratch::new(),
        )
        .expect("scored top-k runs")
}

/// Entries an exhaustive scored pass decodes: every entry of every list the
/// query mentions.
fn exhaustive_entries(corpus: &Corpus, index: &InvertedIndex, tokens: &[&str]) -> u64 {
    tokens
        .iter()
        .filter_map(|t| corpus.token_id(t))
        .map(|id| index.df(id) as u64)
        .sum()
}

#[test]
fn pruned_topk_decodes_a_fraction_of_the_exhaustive_pass() {
    let (snap, stats) = skewed_env();
    let (corpus, index) = only_segment(&snap);
    let tokens = ["rare", "common"];
    let total = exhaustive_entries(corpus, index, &tokens);
    assert!(total > 2000, "corpus not skewed as expected: {total}");

    let tfidf = stats.tfidf_model(&tokens, &snap);
    let oracle = classic_tfidf(&tokens, corpus, stats.segment(0), &tfidf);

    let model = ScoreModel::TfIdf(&tfidf);
    let out = top_k(&snap, &stats, "'rare' OR 'common'", 10, &model);
    assert_eq!(out.path, ScoredPath::PrunedUnion);

    // Exactness: the streamed top-10 is the oracle's first 10 rows.
    assert_eq!(out.hits.len(), 10);
    for ((gn, gs), (on, os)) in out.hits.iter().zip(&oracle) {
        assert_eq!(gn, on, "node order diverged");
        assert!((gs - os).abs() < 1e-9, "{gs} vs {os}");
    }

    // The acceptance bound: a fraction of the exhaustive decode count.
    // The rare list must be decoded in full (it drives candidates); the
    // common list should be almost entirely pruned once the heap fills
    // with rare+common nodes.
    assert!(
        out.counters.entries * 2 < total,
        "pruned top-10 decoded {} of {} entries",
        out.counters.entries,
        total
    );
}

/// Block-max pruning proper: once the heap threshold exceeds a block's
/// impact bound, the whole block is skipped without decoding. Doc 0 carries
/// the only tf=2 entry of `hot`; every later block holds tf=1 entries whose
/// bound falls below the top-1 threshold, so all of them are bypassed.
#[test]
fn block_max_skips_low_impact_blocks_wholesale() {
    let texts: Vec<String> = std::iter::once("hot hot".to_string())
        .chain((0..600).map(|i| format!("hot filler{}", i % 13)))
        .collect();
    let (snap, stats) = sealed(Corpus::from_texts(&texts));
    let (corpus, index) = only_segment(&snap);
    let pra = stats.pra_model(&["hot"], &snap);

    let out = top_k(&snap, &stats, "'hot'", 1, &ScoreModel::Pra(&pra));
    assert_eq!(out.hits.len(), 1);
    assert_eq!(out.hits[0].0, NodeId(0), "the tf=2 doc must win");

    let hot_entries = index.df(corpus.token_id("hot").unwrap()) as u64;
    assert_eq!(hot_entries, 601);
    // Block 0 (which holds the winner) decodes; blocks 1..4 are skipped
    // whole on their impact bound.
    assert!(
        out.counters.blocks_skipped >= 3,
        "low-impact blocks should be skipped whole: {:?}",
        out.counters
    );
    assert!(
        out.counters.entries < 200,
        "decoded {} of {hot_entries} entries",
        out.counters.entries
    );
    assert!(out.counters.skipped > 300, "counters: {:?}", out.counters);
}

#[test]
fn pra_disjunction_also_prunes_and_matches_its_oracle() {
    let (snap, stats) = skewed_env();
    let (corpus, index) = only_segment(&snap);
    let total = exhaustive_entries(corpus, index, &["rare", "common"]);

    let pra = ScoreModel::Pra(&stats.pra_model(&["rare", "common"], &snap));
    let query = parse("'rare' OR 'common'", Mode::Bool).expect("parses");
    let registry = PredicateRegistry::with_builtins();
    let oracle = SnapshotExecutor::new(&snap, &registry)
        .run_ranked(&query, &stats, &pra)
        .expect("exhaustive ranking")
        .hits;

    let out = top_k(&snap, &stats, "'rare' OR 'common'", 10, &pra);
    assert_eq!(out.path, ScoredPath::PrunedUnion);
    assert_eq!(out.hits.len(), 10);
    for ((gn, gs), (on, os)) in out.hits.iter().zip(&oracle) {
        assert_eq!(gn, on, "node order diverged");
        assert!((gs - os).abs() < 1e-9, "{gs} vs {os}");
    }
    assert!(
        out.counters.entries * 2 < total,
        "pruned top-10 decoded {} of {} entries",
        out.counters.entries,
        total
    );
}

/// Deterministic skewed texts (the live-index cousin of [`skewed_env`]):
/// a rare high-tf token and a very common one over an LCG background.
fn skewed_texts(docs: usize) -> Vec<String> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..docs)
        .map(|d| {
            let mut words: Vec<String> = (0..30).map(|_| format!("bg{}", rng() % 400)).collect();
            if d % 37 == 0 {
                for _ in 0..4 {
                    words.push("rare".to_string());
                }
            }
            if rng() % 5 != 0 {
                words.push("common".to_string());
            }
            words.join(" ")
        })
        .collect()
}

/// Build a live index holding `texts` spread over `segments` sealed
/// segments.
fn segmented_live(texts: &[String], segments: usize) -> LiveIndex {
    let live = LiveIndex::with_config(manual());
    let per = texts.len().div_ceil(segments);
    for (i, t) in texts.iter().enumerate() {
        live.add_document(t);
        if (i + 1) % per == 0 {
            live.flush();
        }
    }
    live.flush();
    live
}

/// The pruning invariant the global threshold buys: at 16 segments, the
/// shared-heap run decodes strictly fewer entries than sixteen independent
/// per-segment heaps (the pre-global baseline, rebuilt here from the
/// union primitives).
#[test]
fn global_heap_beats_per_segment_heaps_at_16_segments() {
    let texts = skewed_texts(2000);
    let live = segmented_live(&texts, 16);
    let snap = live.snapshot();
    assert_eq!(snap.num_segments(), 16);
    let stats = SnapshotStats::compute(&snap);
    let tokens = ["rare", "common"];
    let tfidf = stats.tfidf_model(&tokens, &snap);

    let model = ScoreModel::TfIdf(&tfidf);
    let global = top_k(&snap, &stats, "'rare' OR 'common'", 10, &model);
    assert_eq!(global.hits.len(), 10);

    // Baseline: each segment runs to its own exact top-10 with a fresh
    // heap, exactly what top-k did before the global threshold.
    let baseline = per_segment_heaps(&snap, &stats, &tokens, &tfidf, 10).entries;
    assert!(
        global.counters.entries < baseline,
        "global heap decoded {} entries, per-segment heaps {}",
        global.counters.entries,
        baseline
    );
}

/// Summed counters of one independent TF-IDF top-k per segment, each with
/// its own heap.
fn per_segment_heaps(
    snap: &Snapshot,
    stats: &SnapshotStats,
    tokens: &[&str],
    tfidf: &ftsl_scoring::TfIdfModel,
    k: usize,
) -> ftsl_index::AccessCounters {
    // TF-IDF's fold order, as the executor's union uses.
    let mut tokens = tokens.to_vec();
    tokens.sort();
    let mut summed = ftsl_index::AccessCounters::new();
    for (i, seg) in snap.segments().iter().enumerate() {
        let (corpus, index) = (seg.data().corpus(), seg.data().index());
        let scorer = ModelScorer(tfidf, stats.segment(i));
        let cursors = union_cursors(&tokens, corpus, index, Some(seg.deletes()), |t| {
            TfIdfEntryScorer::new(t, &scorer)
        });
        summed += topk_union_into(cursors, &scorer, &mut TopK::new(k), None);
    }
    summed
}

/// Whole-segment skipping on a graded-impact corpus: one segment holds the
/// only tf=4 document of the query token, so once it fills the k=1 heap
/// every tf=1 segment's total impact bound falls below the threshold and
/// the segment is bypassed without touching a posting.
#[test]
fn low_impact_segments_are_skipped_whole() {
    let live = LiveIndex::with_config(LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    });
    live.add_document("peak peak peak peak");
    live.flush();
    for s in 0..8 {
        for d in 0..4 {
            live.add_document(&format!("peak pad{s}x{d}"));
        }
        live.flush();
    }
    let snap = live.snapshot();
    assert_eq!(snap.num_segments(), 9);
    let stats = SnapshotStats::compute(&snap);
    let pra = stats.pra_model(&["peak"], &snap);

    let out = top_k(&snap, &stats, "'peak'", 1, &ScoreModel::Pra(&pra));
    assert_eq!(out.hits[0].0, NodeId(0), "the tf=4 document wins");
    assert_eq!(
        out.counters.segments_skipped, 8,
        "every tf=1 segment must be skipped whole: {:?}",
        out.counters
    );
    // A skipped segment contributes no decode work: only the peak
    // segment's 1-entry list is consumed.
    assert_eq!(out.counters.entries, 1, "{:?}", out.counters);
}

/// With `k` at least the full result size the heap never fills, nothing is
/// ever pruned or skipped, and the global run's counters equal the sum of
/// the per-segment runs exactly — segmentation changes where work happens,
/// never how it is counted.
#[test]
fn counters_sum_exactly_across_segments_when_nothing_prunes() {
    let texts = skewed_texts(300);
    let live = segmented_live(&texts, 4);
    let snap = live.snapshot();
    let stats = SnapshotStats::compute(&snap);
    let tokens = ["rare", "common"];
    let tfidf = stats.tfidf_model(&tokens, &snap);
    let k = texts.len(); // larger than any possible result set

    let model = ScoreModel::TfIdf(&tfidf);
    let global = top_k(&snap, &stats, "'rare' OR 'common'", k, &model);
    assert_eq!(global.counters.segments_skipped, 0);

    let summed = per_segment_heaps(&snap, &stats, &tokens, &tfidf, k);
    assert_eq!(
        global.counters, summed,
        "unpruned global counters must be the per-segment sum"
    );
}
