//! Property test for Theorem 2: the TF-IDF propagation of scores through
//! the algebra preserves classic TF-IDF semantics for conjunctive and
//! disjunctive queries.

use ftsl_algebra::expr::ops::*;
use ftsl_algebra::AlgebraEvaluator;
use ftsl_index::IndexBuilder;
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::classic::classic_tfidf;
use ftsl_scoring::{ModelScorer, ScoreStats, TfIdfModel};
use ftsl_testkit::{arb_corpus, prop_cases};
use proptest::prelude::*;
use std::ops::Range;

const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "eps"];

/// Documents per corpus, and words per document, of [`arb_corpus`].
const DOCS: Range<usize> = 2..7;
const WORDS: Range<usize> = 1..10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

    /// Conjunctive: π_CNode(R_t1 ⋈ ... ⋈ R_tk) scores equal classic TF-IDF
    /// on the nodes containing all tokens.
    #[test]
    fn conjunctive_queries_preserve_classic_tfidf(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        token_idx in proptest::collection::btree_set(0..VOCAB.len(), 1..4),
    ) {
        let tokens: Vec<&str> = token_idx.iter().map(|&i| VOCAB[i]).collect();
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&tokens, &corpus, &stats);

        let expr = tokens
            .iter()
            .map(|t| token(t))
            .reduce(join)
            .expect("non-empty");
        let expr = project_nodes(expr);

        let scorer = ModelScorer(&model, &stats);
        let got = AlgebraEvaluator::scored(&corpus, &index, &reg, scorer)
            .rank(&expr)
            .expect("evaluates");

        let classic = classic_tfidf(&tokens, &corpus, &stats, &model);
        for (node, score) in &got {
            let reference = classic
                .iter()
                .find(|(n, _)| n == node)
                .map(|(_, s)| *s)
                .expect("conjunctive results contain all tokens");
            prop_assert!(
                (score - reference).abs() < 1e-9,
                "node {node}: propagated {score} vs classic {reference} (tokens {tokens:?})"
            );
        }
    }

    /// Disjunctive: π_CNode(R_t1 ∪ ... ∪ R_tk) scores equal classic TF-IDF
    /// on nodes containing at least one token.
    #[test]
    fn disjunctive_queries_preserve_classic_tfidf(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        token_idx in proptest::collection::btree_set(0..VOCAB.len(), 1..4),
    ) {
        let tokens: Vec<&str> = token_idx.iter().map(|&i| VOCAB[i]).collect();
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&tokens, &corpus, &stats);

        let expr = tokens
            .iter()
            .map(|t| token(t))
            .reduce(union)
            .expect("non-empty");
        let expr = project_nodes(expr);

        let scorer = ModelScorer(&model, &stats);
        let got = AlgebraEvaluator::scored(&corpus, &index, &reg, scorer)
            .rank(&expr)
            .expect("evaluates");
        let classic = classic_tfidf(&tokens, &corpus, &stats, &model);

        prop_assert_eq!(got.len(), classic.len(), "support mismatch");
        for (node, score) in &got {
            let reference = classic
                .iter()
                .find(|(n, _)| n == node)
                .map(|(_, s)| *s)
                .expect("same support");
            prop_assert!(
                (score - reference).abs() < 1e-9,
                "node {node}: propagated {score} vs classic {reference}"
            );
        }
    }

    /// The PRA model keeps every intermediate and final score in [0, 1] on
    /// arbitrary operator trees.
    #[test]
    fn pra_scores_are_probabilities(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        t1 in 0..VOCAB.len(),
        t2 in 0..VOCAB.len(),
        d in 0..6i64,
    ) {
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let stats = ScoreStats::compute(&corpus, &index);
        let model = ftsl_scoring::PraModel::new(&corpus, &stats);
        let distance = reg.lookup("distance").unwrap();
        let expr = project_nodes(select(
            join(token(VOCAB[t1]), token(VOCAB[t2])),
            distance,
            &[0, 1],
            &[d],
        ));
        let scorer = ModelScorer(&model, &stats);
        let ranked = AlgebraEvaluator::scored(&corpus, &index, &reg, scorer)
            .rank(&expr)
            .expect("evaluates");
        for (node, s) in ranked {
            prop_assert!((0.0..=1.0).contains(&s), "node {node} score {s}");
        }
    }
}
