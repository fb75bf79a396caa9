//! # ftsl-scoring — the scoring framework of Section 3
//!
//! The paper's framework rests on two extensions of the algebra: **per-tuple
//! scoring information** and **scoring transformations** attached to every
//! operator. No scoring method is hard-coded: the transformations are the
//! algebra's one [`ftsl_algebra::Scorer`] trait, and this crate implements
//! it, as a [`ModelScorer`], for the two instantiations the paper describes:
//!
//! * [`tfidf::TfIdfModel`] — Section 3.1. Token-relation tuples carry the
//!   precomputable `idf(t)/(unique_tokens(n)·‖n‖₂)` mass, scaled at query
//!   time; joins redistribute score (`t3 = t1/|R2| + t2/|R1|`, with `|·|`
//!   read as the per-node group cardinality, which is what makes the "first
//!   law of thermodynamics" conservation — and Theorem 2 — hold exactly);
//!   projections sum; unions add; intersections take the minimum.
//! * [`pra::PraModel`] — Section 3.2, the probabilistic relational algebra
//!   of Fuhr–Rölleke: scores are probabilities, joins multiply, projections
//!   combine as `1 − ∏(1 − sᵢ)`, predicates scale by a predicate-specific
//!   `f` (e.g. `1 − |p1−p2|/dist`), and a difference (the algebra's
//!   negation) keeps the left side's score.
//!
//! A model ranks through the algebra as a [`ModelScorer`], the model under
//! one segment's [`ScoreStats`]: the node-at-a-time
//! [`ftsl_algebra::AlgebraEvaluator`] — the COMP engine's evaluator, here
//! with a score column, under the same per-node budget — calls it once per
//! operator. [`classic`] computes textbook cosine TF-IDF directly so tests
//! can verify **Theorem 2** (the propagated scores equal classic TF-IDF for
//! conjunctive and disjunctive queries) mechanically.
//!
//! ## Streaming top-k retrieval
//!
//! Exhaustive ranking through the algebra scores *every* answer node. For a
//! flat disjunction, the ranked-query workhorse, [`stream`] computes the
//! same ranking's first `k` rows on the seeking-cursor substrate: per-list
//! [`ftsl_index::EntryScorer`]s attach scores at the cursor, a bounded
//! [`topk::TopK`] heap keeps only the requested results, and
//! MaxScore/block-max pruning skips lists and whole compressed blocks
//! whose impact bound cannot reach the heap threshold. The union combines
//! per-list scores through the model's own `∪`. A worked example:
//!
//! ```
//! use ftsl_index::IndexBuilder;
//! use ftsl_model::Corpus;
//! use ftsl_scoring::stream::{topk_union_into, union_cursors, TfIdfEntryScorer};
//! use ftsl_scoring::{ModelScorer, ScoreStats, TfIdfModel, TopK};
//!
//! let corpus = Corpus::from_texts(&[
//!     "usability usability usability",
//!     "usability software",
//!     "software tools",
//!     "unrelated words",
//! ]);
//! let index = IndexBuilder::new().build(&corpus);
//! let stats = ScoreStats::compute(&corpus, &index);
//! let query = ["usability", "software"];
//! let model = TfIdfModel::for_query(&query, &corpus, &stats);
//!
//! // Top 2 of the disjunction, streamed through the pruned union. TF-IDF
//! // folds its tokens in sorted order (these are already lowercase).
//! let mut tokens = query;
//! tokens.sort();
//! let scorer = ModelScorer(&model, &stats);
//! let cursors = union_cursors(&tokens, &corpus, &index, None, |t| {
//!     TfIdfEntryScorer::new(t, &scorer)
//! });
//! let mut topk = TopK::new(2);
//! let counters = topk_union_into(cursors, &scorer, &mut topk, None);
//! let top = topk.into_ranked();
//! assert_eq!(top.len(), 2);
//! assert!(top[0].1 >= top[1].1);
//! // The counters report exactly how much of the index was decoded.
//! assert!(counters.entries > 0);
//! ```
//!
//! Queries reach this union through `ftsl-exec`'s snapshot executor, which
//! shares one heap across a live index's segments.

#![warn(missing_docs)]

pub mod classic;
pub mod live;
pub mod pra;
pub mod proximity;
pub mod stats;
pub mod stream;
pub mod tfidf;
pub mod topk;

pub use live::SnapshotStats;
pub use pra::PraModel;
pub use proximity::closeness;
pub use stats::ScoreStats;
pub use stream::{topk_union_into, union_bound, union_cursors};
pub use tfidf::TfIdfModel;
pub use topk::TopK;

/// A scoring model under one segment's statistics: the algebra
/// evaluator's [`ftsl_algebra::Scorer`], implemented for
/// `ModelScorer<'_, TfIdfModel>` ([`tfidf`]) and `ModelScorer<'_, PraModel>`
/// ([`pra`]).
/// `AlgebraEvaluator::scored(corpus, index, registry, ModelScorer(&model, &stats))`
/// ranks a segment with it, and its `union` combines the lists of
/// [`topk_union_into`].
#[derive(Clone, Copy, Debug)]
pub struct ModelScorer<'a, M>(pub &'a M, pub &'a ScoreStats);

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_algebra::expr::ops::*;
    use ftsl_algebra::AlgebraEvaluator;
    use ftsl_index::{IndexBuilder, InvertedIndex};
    use ftsl_model::Corpus;
    use ftsl_predicates::PredicateRegistry;

    fn setup() -> (Corpus, InvertedIndex, PredicateRegistry, ScoreStats) {
        let corpus = Corpus::from_texts(&[
            "usability test usability",
            "test of things",
            "usability",
            "unrelated words here",
        ]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        (corpus, index, PredicateRegistry::with_builtins(), stats)
    }

    #[test]
    fn tfidf_ranks_higher_tf_first() {
        let (corpus, index, reg, stats) = setup();
        let model = TfIdfModel::for_query(&["usability"], &corpus, &stats);
        let scorer = ModelScorer(&model, &stats);
        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, scorer);
        let ranked = ev.rank(&project_nodes(token("usability"))).unwrap();
        assert_eq!(ranked.len(), 2);
        // Node 2 is a single-token document entirely about "usability";
        // node 0 mentions it twice among three tokens. Both beat absent docs.
        assert!(ranked.iter().all(|(_, s)| *s > 0.0));
        let nodes: Vec<u32> = ranked.iter().map(|(n, _)| n.0).collect();
        assert!(nodes.contains(&0) && nodes.contains(&2));
    }

    #[test]
    fn pra_scores_stay_probabilities_through_operators() {
        let (corpus, index, reg, stats) = setup();
        let model = PraModel::new(&corpus, &stats);
        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, ModelScorer(&model, &stats));
        let distance = reg.lookup("distance").unwrap();
        let e = project_nodes(select(
            join(token("usability"), token("test")),
            distance,
            &[0, 1],
            &[5],
        ));
        let ranked = ev.rank(&e).unwrap();
        assert!(!ranked.is_empty());
        for (_, s) in &ranked {
            assert!((0.0..=1.0).contains(s), "score {s} out of range");
        }
    }

    #[test]
    fn union_and_difference_scores() {
        let (corpus, index, reg, stats) = setup();
        let model = PraModel::new(&corpus, &stats);
        let mut ev = AlgebraEvaluator::scored(&corpus, &index, &reg, ModelScorer(&model, &stats));
        let u = ev
            .relation(&union(token("usability"), token("usability")))
            .unwrap();
        // Same tuple on both sides: 1-(1-s)^2 > s.
        let single = ev.relation(&token("usability")).unwrap();
        assert_eq!(u.len(), single.len());
        for (us, ss) in u.scores().iter().zip(single.scores()) {
            assert!(us > ss);
        }
        let d = ev
            .relation(&difference(
                project_nodes(token("test")),
                project_nodes(token("usability")),
            ))
            .unwrap();
        let nodes: Vec<u32> = d.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![1]);
    }
}
