//! The "first law of thermodynamics" for TF-IDF (Section 3.1): joins and
//! projections conserve per-node total score through arbitrary
//! join/project chains over token relations.

use ftsl_algebra::expr::ops::*;
use ftsl_algebra::{AlgExpr, AlgebraEvaluator};
use ftsl_index::IndexBuilder;
use ftsl_model::NodeId;
use ftsl_predicates::PredicateRegistry;
use ftsl_scoring::{ModelScorer, ScoreStats, TfIdfModel};
use ftsl_testkit::{arb_corpus, prop_cases};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

const VOCAB: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Documents per corpus, and words per document, of [`arb_corpus`].
const DOCS: Range<usize> = 2..6;
const WORDS: Range<usize> = 1..12;

type Evaluator<'a> = AlgebraEvaluator<'a, ModelScorer<'a, TfIdfModel>>;

/// Per-node total score of a relation.
fn per_node_totals(ev: &mut Evaluator<'_>, expr: &AlgExpr) -> BTreeMap<NodeId, f64> {
    let rel = ev.relation(expr).expect("evaluates");
    let mut totals: BTreeMap<NodeId, f64> = BTreeMap::new();
    for ((n, _), s) in rel.iter().zip(rel.scores()) {
        *totals.entry(n).or_insert(0.0) += s;
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

    /// Join conserves the per-node total: for nodes where both sides have
    /// tuples, total(join) = total(left) + total(right).
    #[test]
    fn join_conserves_per_node_score(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        t1 in 0..VOCAB.len(),
        t2 in 0..VOCAB.len(),
    ) {
        prop_assume!(t1 != t2);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&[VOCAB[t1], VOCAB[t2]], &corpus, &stats);
        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, ModelScorer(&model, &stats));

        let left = per_node_totals(&mut ev, &token(VOCAB[t1]));
        let right = per_node_totals(&mut ev, &token(VOCAB[t2]));
        let joined = per_node_totals(&mut ev, &join(token(VOCAB[t1]), token(VOCAB[t2])));

        for (node, total) in &joined {
            let expected = left.get(node).copied().unwrap_or(0.0)
                + right.get(node).copied().unwrap_or(0.0);
            prop_assert!(
                (total - expected).abs() < 1e-9,
                "node {node}: joined {total} vs parts {expected}"
            );
        }
    }

    /// Projection re-aggregates without losing score, at any column subset.
    #[test]
    fn projection_conserves_per_node_score(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        t1 in 0..VOCAB.len(),
        t2 in 0..VOCAB.len(),
        keep_first in any::<bool>(),
    ) {
        prop_assume!(t1 != t2);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&[VOCAB[t1], VOCAB[t2]], &corpus, &stats);
        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, ModelScorer(&model, &stats));

        let joined = join(token(VOCAB[t1]), token(VOCAB[t2]));
        let before = per_node_totals(&mut ev, &joined);
        let cols: &[usize] = if keep_first { &[0] } else { &[] };
        let after = per_node_totals(&mut ev, &project(joined, cols));

        prop_assert_eq!(before.len(), after.len());
        for (node, total) in &after {
            let expected = before[node];
            prop_assert!(
                (total - expected).abs() < 1e-9,
                "node {node}: projected {total} vs {expected}"
            );
        }
    }

    /// Union adds scores; the three-way identity
    /// total(a ∪ b) + total(a ∩ b-ish overlap) is avoided by using disjoint
    /// token relations, where total(a ∪ b) = total(a) + total(b) exactly.
    #[test]
    fn union_of_disjoint_relations_adds_scores(
        corpus in arb_corpus(&VOCAB, DOCS, WORDS),
        t1 in 0..VOCAB.len(),
        t2 in 0..VOCAB.len(),
    ) {
        prop_assume!(t1 != t2);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&[VOCAB[t1], VOCAB[t2]], &corpus, &stats);
        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, ModelScorer(&model, &stats));

        let a = per_node_totals(&mut ev, &token(VOCAB[t1]));
        let b = per_node_totals(&mut ev, &token(VOCAB[t2]));
        let u = per_node_totals(&mut ev, &union(token(VOCAB[t1]), token(VOCAB[t2])));
        for (node, total) in &u {
            let expected =
                a.get(node).copied().unwrap_or(0.0) + b.get(node).copied().unwrap_or(0.0);
            prop_assert!((total - expected).abs() < 1e-9);
        }
    }
}
