//! Differential property tests for streaming top-k retrieval: for random
//! corpora and distinct query tokens, the pruned TF-IDF union must return
//! exactly the first `k` rows of classic cosine TF-IDF — same nodes, scores
//! within 1e-9 (the summation order differs), same tie order. The PRA
//! union is checked against the algebra's exhaustive ranking by
//! `ftsl-core`'s `global_prune_prop`.

use ftsl_index::{AccessCounters, IndexBuilder, InvertedIndex};
use ftsl_model::{Corpus, NodeId};
use ftsl_scoring::classic::classic_tfidf;
use ftsl_scoring::stream::{topk_union_into, union_cursors, TfIdfEntryScorer};
use ftsl_scoring::{ModelScorer, ScoreStats, TfIdfModel, TopK};
use ftsl_testkit::{arb_corpus, prop_cases};
use proptest::prelude::*;
use std::ops::Range;

const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

/// Documents per corpus, and words per document, of [`arb_corpus`].
const DOCS: Range<usize> = 1..10;
const WORDS: Range<usize> = 0..12;

fn setup(corpus: &Corpus) -> (InvertedIndex, ScoreStats) {
    let index = IndexBuilder::new().build(corpus);
    let stats = ScoreStats::compute(corpus, &index);
    (index, stats)
}

/// The pruned TF-IDF union of `tokens` into a fresh `k`-heap: its hits in
/// ranking order and its counters.
fn union_top_k(
    tokens: &[&str],
    corpus: &Corpus,
    index: &InvertedIndex,
    stats: &ScoreStats,
    k: usize,
) -> (Vec<(NodeId, f64)>, AccessCounters) {
    let model = TfIdfModel::for_query(tokens, corpus, stats);
    // TF-IDF's fold order: the tokens sorted (VOCAB is lowercase).
    let mut tokens = tokens.to_vec();
    tokens.sort();
    let scorer = ModelScorer(&model, stats);
    let cursors = union_cursors(&tokens, corpus, index, None, |t| {
        TfIdfEntryScorer::new(t, &scorer)
    });
    let mut topk = TopK::new(k);
    let counters = topk_union_into(cursors, &scorer, &mut topk, None);
    (topk.into_ranked(), counters)
}

/// `got` must equal the first `k` of `oracle`.
///
/// The two sides compute the same sums in different association orders, so
/// scores may differ by float noise (up to `TOL`) and *near-ties* (oracle
/// scores within `TOL` of each other) may legitimately swap ranks: each
/// reported node must carry an oracle score within `TOL` of the oracle's
/// score at that rank.
fn assert_prefix(got: &[(NodeId, f64)], oracle: &[(NodeId, f64)], k: usize, ctx: &str) {
    const TOL: f64 = 1e-9;
    let want = &oracle[..k.min(oracle.len())];
    assert_eq!(
        got.len(),
        want.len(),
        "{ctx}: got {got:?}, oracle prefix {want:?}"
    );
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.1 - w.1).abs() <= TOL,
            "{ctx}: score at rank {i} diverged: {} vs {}",
            g.1,
            w.1
        );
        let oracle_score = oracle
            .iter()
            .find(|(n, _)| *n == g.0)
            .unwrap_or_else(|| panic!("{ctx}: node {} not in oracle: {got:?}", g.0 .0))
            .1;
        assert!(
            (oracle_score - w.1).abs() <= TOL,
            "{ctx}: node {} (oracle score {oracle_score}) ranked {i} where the \
             oracle has score {}: {got:?} vs {want:?}",
            g.0 .0,
            w.1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

    /// Pruned TF-IDF union == first k of classic cosine TF-IDF.
    #[test]
    fn tfidf_topk_matches_classic_oracle(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        token_idx in proptest::collection::btree_set(0..VOCAB.len(), 1..5),
        k in 1usize..8,
    ) {
        let tokens: Vec<&str> = token_idx.iter().map(|&i| VOCAB[i]).collect();
        let (index, stats) = setup(&corpus);
        let model = TfIdfModel::for_query(&tokens, &corpus, &stats);
        let oracle = classic_tfidf(&tokens, &corpus, &stats, &model);
        let (hits, _) = union_top_k(&tokens, &corpus, &index, &stats, k);
        assert_prefix(&hits, &oracle, k, &format!("tfidf k={k}"));
    }

    /// Streaming never decodes more entries than the corpus holds, and the
    /// pruned union's counters never exceed an exhaustive walk of the same
    /// lists.
    #[test]
    fn pruned_union_work_is_bounded_by_exhaustive(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        token_idx in proptest::collection::btree_set(0..VOCAB.len(), 1..5),
        k in 1usize..4,
    ) {
        let tokens: Vec<&str> = token_idx.iter().map(|&i| VOCAB[i]).collect();
        let (index, stats) = setup(&corpus);
        let exhaustive_entries: u64 = tokens
            .iter()
            .filter_map(|t| corpus.token_id(t))
            .map(|id| index.df(id) as u64)
            .sum();
        let (_, counters) = union_top_k(&tokens, &corpus, &index, &stats, k);
        prop_assert!(
            counters.entries <= exhaustive_entries,
            "decoded {} of {exhaustive_entries}",
            counters.entries
        );
    }
}
