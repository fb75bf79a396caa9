//! Differential property tests for streaming top-k retrieval: for random
//! corpora and queries, the pruned/streaming evaluators must return exactly
//! the first `k` rows of the exhaustive oracles — same nodes, same scores
//! (within 1e-9 for TF-IDF, whose summation order differs; bit-comparable
//! for PRA trees, which reuse the oracle's arithmetic), same tie order.

use ftsl_index::{IndexBuilder, InvertedIndex};
use ftsl_lang::SurfaceQuery;
use ftsl_model::{Corpus, NodeId};
use ftsl_scoring::bool_scores::run_bool_scored;
use ftsl_scoring::classic::classic_tfidf;
use ftsl_scoring::stream::{run_bool_topk, topk_pra_disjunction, topk_tfidf};
use ftsl_scoring::{PraModel, ScoreStats, TfIdfModel};
use proptest::prelude::*;

const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    proptest::collection::vec(proptest::collection::vec(0..VOCAB.len(), 0..12), 1..10).prop_map(
        |docs| {
            let texts: Vec<String> = docs
                .into_iter()
                .map(|toks| {
                    toks.into_iter()
                        .map(|t| VOCAB[t])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            Corpus::from_texts(&texts)
        },
    )
}

/// Random BOOL-shaped surface queries (literals, AND, OR, NOT).
fn arb_bool_query(depth: u32) -> BoxedStrategy<SurfaceQuery> {
    let leaf = prop_oneof![
        (0..VOCAB.len()).prop_map(|t| SurfaceQuery::Lit(VOCAB[t].to_string())),
        // Occasionally a token outside the corpus vocabulary.
        Just(SurfaceQuery::Lit("outofvocab".to_string())),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_bool_query(depth - 1);
    prop_oneof![
        2 => leaf,
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::And(Box::new(a), Box::new(b))),
        2 => (sub.clone(), sub.clone())
            .prop_map(|(a, b)| SurfaceQuery::Or(Box::new(a), Box::new(b))),
        1 => sub.prop_map(|q| SurfaceQuery::Not(Box::new(q))),
    ]
    .boxed()
}

fn setup(corpus: &Corpus) -> (InvertedIndex, ScoreStats) {
    let index = IndexBuilder::new().build(corpus);
    let stats = ScoreStats::compute(corpus, &index);
    (index, stats)
}

/// `got` must equal the first `k` of `oracle`.
///
/// With `tol == 0` the comparison is strict (same nodes, same scores, same
/// tie order — used where the streaming evaluator reuses the oracle's
/// arithmetic bit-for-bit). With `tol > 0` the two sides compute the same
/// sums in different association orders, so scores may differ by float
/// noise and *near-ties* (oracle scores within `tol` of each other) may
/// legitimately swap ranks: each reported node must then carry an oracle
/// score within `tol` of the oracle's score at that rank.
fn assert_prefix(got: &[(NodeId, f64)], oracle: &[(NodeId, f64)], k: usize, tol: f64, ctx: &str) {
    let want = &oracle[..k.min(oracle.len())];
    assert_eq!(
        got.len(),
        want.len(),
        "{ctx}: got {got:?}, oracle prefix {want:?}"
    );
    if tol == 0.0 {
        assert_eq!(got, want, "{ctx}: exact prefix diverged");
        return;
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.1 - w.1).abs() <= tol,
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
            (oracle_score - w.1).abs() <= tol,
            "{ctx}: node {} (oracle score {oracle_score}) ranked {i} where the \
             oracle has score {}: {got:?} vs {want:?}",
            g.0 .0,
            w.1
        );
    }
}

/// Property-case count: `FTSL_PROPTEST_CASES` raises it for the scheduled
/// deep-fuzz CI job; the default keeps PR builds quick.
fn prop_cases() -> u32 {
    std::env::var("FTSL_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases()))]

    /// Pruned TF-IDF union == first k of classic cosine TF-IDF.
    #[test]
    fn tfidf_topk_matches_classic_oracle(
        corpus in arb_corpus(),
        token_idx in proptest::collection::btree_set(0..VOCAB.len(), 1..5),
        k in 1usize..8,
    ) {
        let tokens: Vec<&str> = token_idx.iter().map(|&i| VOCAB[i]).collect();
        let (index, stats) = setup(&corpus);
        let model = TfIdfModel::for_query(&tokens, &corpus, &stats);
        let oracle = classic_tfidf(&tokens, &corpus, &stats, &model);
        let got = topk_tfidf(&tokens, &corpus, &index, &stats, &model, k);
        assert_prefix(&got.hits, &oracle, k, 1e-9, &format!("tfidf k={k}"));
    }

    /// Pruned PRA union over a flat disjunction == first k of the
    /// exhaustive scored-BOOL oracle on the equivalent OR query.
    #[test]
    fn pra_disjunction_topk_matches_bool_oracle(
        corpus in arb_corpus(),
        token_idx in proptest::collection::btree_set(0..VOCAB.len(), 1..5),
        k in 1usize..8,
    ) {
        let tokens: Vec<&str> = token_idx.iter().map(|&i| VOCAB[i]).collect();
        let (index, stats) = setup(&corpus);
        let model = PraModel::new(&corpus, &stats);
        let query = tokens
            .iter()
            .map(|t| SurfaceQuery::Lit(t.to_string()))
            .reduce(|a, b| SurfaceQuery::Or(Box::new(a), Box::new(b)))
            .expect("non-empty");
        let oracle = run_bool_scored(&query, &corpus, &index, &stats, &model).expect("oracle");
        let got =
            topk_pra_disjunction(&tokens, &corpus, &index, &stats, &model, k);
        assert_prefix(&got.hits, &oracle, k, 1e-9, &format!("pra-or k={k}"));
    }

    /// Streaming evaluation of arbitrary BOOL trees (AND/OR/NOT) == first k
    /// of the exhaustive oracle, with bit-identical arithmetic.
    #[test]
    fn bool_tree_topk_matches_exhaustive_oracle(
        corpus in arb_corpus(),
        query in arb_bool_query(3),
        k in 1usize..8,
    ) {
        let (index, stats) = setup(&corpus);
        let model = PraModel::new(&corpus, &stats);
        let oracle = run_bool_scored(&query, &corpus, &index, &stats, &model).expect("oracle");
        let got = run_bool_topk(&query, &corpus, &index, &stats, &model, k)
            .expect("streaming");
        assert_prefix(
            &got.hits,
            &oracle,
            k,
            0.0,
            &format!("bool k={k} query={}", query.render()),
        );
    }

    /// Streaming never decodes more entries than the corpus holds, and the
    /// pruned union's counters never exceed an exhaustive walk of the same
    /// lists.
    #[test]
    fn pruned_union_work_is_bounded_by_exhaustive(
        corpus in arb_corpus(),
        token_idx in proptest::collection::btree_set(0..VOCAB.len(), 1..5),
        k in 1usize..4,
    ) {
        let tokens: Vec<&str> = token_idx.iter().map(|&i| VOCAB[i]).collect();
        let (index, stats) = setup(&corpus);
        let model = TfIdfModel::for_query(&tokens, &corpus, &stats);
        let exhaustive_entries: u64 = tokens
            .iter()
            .filter_map(|t| corpus.token_id(t))
            .map(|id| index.df(id) as u64)
            .sum();
        let got = topk_tfidf(&tokens, &corpus, &index, &stats, &model, k);
        prop_assert!(
            got.counters.entries <= exhaustive_entries,
            "decoded {} of {exhaustive_entries}",
            got.counters.entries
        );
    }
}
