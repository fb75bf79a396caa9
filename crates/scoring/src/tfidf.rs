//! TF-IDF scoring (Section 3.1).
//!
//! Each `R_t` tuple carries the per-occurrence TF-IDF mass
//! `w(t)·idf(t)/(unique_tokens(n)·‖n‖₂·‖q‖₂)` with the paper's implicit
//! weight `w(t) = idf(t)/unique_search_tokens`; summing a node's tuples
//! yields exactly its L2-normalized TF-IDF contribution for `t`. Every
//! transformation conserves per-node total score (the paper's "first law of
//! thermodynamics"): joins split mass across partners (per-node group
//! cardinalities — see the crate docs), projections re-aggregate it.

use crate::stats::ScoreStats;
use crate::ModelScorer;
use ftsl_algebra::Scorer;
use ftsl_model::{NodeId, Position};
use ftsl_predicates::Predicate;
use std::collections::HashMap;

/// TF-IDF scoring for one query's bag of search tokens.
#[derive(Clone, Debug)]
pub struct TfIdfModel {
    /// `idf(t)` per distinct search token.
    idf_by_token: HashMap<String, f64>,
    /// `unique_search_tokens`.
    unique_search_tokens: usize,
    /// `‖q‖₂`.
    query_norm: f64,
}

impl TfIdfModel {
    /// Build the model for a query's search tokens (duplicates allowed; the
    /// proof of Theorem 2 treats repeated tokens as weight-summed).
    pub fn for_query<S: AsRef<str>>(
        tokens: &[S],
        corpus: &ftsl_model::Corpus,
        stats: &ScoreStats,
    ) -> Self {
        Self::for_query_with_idf(tokens, |name| {
            corpus.token_id(name).map_or(0.0, |id| stats.idf(id))
        })
    }

    /// Build the model from an arbitrary idf source instead of one
    /// corpus+stats pair — how a live snapshot supplies *collection-wide*
    /// idf values that no single segment's corpus could resolve on its own
    /// (a query token may predate or postdate any given segment's
    /// vocabulary).
    pub fn for_query_with_idf<S: AsRef<str>>(tokens: &[S], idf_of: impl Fn(&str) -> f64) -> Self {
        let mut idf_by_token = HashMap::new();
        for t in tokens {
            let name = t.as_ref().to_lowercase();
            let idf = idf_of(&name);
            idf_by_token.insert(name, idf);
        }
        let unique_search_tokens = idf_by_token.len().max(1);
        // With w(t) = idf(t)/unique_search_tokens, ‖q‖₂ is the L2 norm of
        // the weight vector. Summed in sorted-token order so two models
        // over the same query agree to the last bit regardless of hash-map
        // iteration order (the live/monolithic differential suite compares
        // score bit patterns).
        let mut names: Vec<&String> = idf_by_token.keys().collect();
        names.sort();
        let sum_sq: f64 = names
            .iter()
            .map(|name| {
                let w = idf_by_token[*name] / unique_search_tokens as f64;
                w * w
            })
            .sum();
        let query_norm = if sum_sq > 0.0 { sum_sq.sqrt() } else { 1.0 };
        TfIdfModel {
            idf_by_token,
            unique_search_tokens,
            query_norm,
        }
    }

    /// `w(t) = idf(t)/unique_search_tokens`.
    pub fn weight(&self, token: &str) -> f64 {
        self.idf_by_token.get(token).copied().unwrap_or(0.0) / self.unique_search_tokens as f64
    }

    /// `idf(t)` for a search token (0 for tokens outside the query or the
    /// corpus vocabulary).
    pub fn token_idf(&self, token: &str) -> f64 {
        self.idf_by_token.get(token).copied().unwrap_or(0.0)
    }

    /// `‖q‖₂`.
    pub fn query_norm(&self) -> f64 {
        self.query_norm
    }
}

impl Scorer for ModelScorer<'_, TfIdfModel> {
    type Score = f64;

    fn token_tuple(&self, token: &str, node: NodeId) -> f64 {
        let ModelScorer(model, stats) = *self;
        let Some(&idf) = model.idf_by_token.get(token) else {
            return 0.0;
        };
        let w = idf / model.unique_search_tokens as f64;
        // Per-occurrence mass: summing occurs(n,t) of these gives
        // w(t)·tf(n,t)·idf(t)/(‖n‖₂·‖q‖₂).
        w * idf / (stats.unique_tokens(node) as f64 * stats.l2_norm(node) * model.query_norm)
    }

    fn any_tuple(&self) -> f64 {
        0.0
    }

    fn context_tuple(&self) -> f64 {
        0.0
    }

    fn join(&self, left: f64, right: f64, left_group: usize, right_group: usize) -> f64 {
        // t3 = t1/|R2| + t2/|R1| with per-node group cardinalities: the join
        // neither creates nor destroys score.
        left / right_group as f64 + right / left_group as f64
    }

    fn project(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    fn select(
        &self,
        score: f64,
        _pred: &dyn Predicate,
        _args: &[Position],
        _consts: &[i64],
    ) -> f64 {
        score
    }

    fn union(&self, left: Option<f64>, right: Option<f64>) -> f64 {
        left.unwrap_or(0.0) + right.unwrap_or(0.0)
    }

    fn intersect(&self, left: f64, right: f64) -> f64 {
        left.min(right)
    }

    fn difference(&self, left: f64) -> f64 {
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    #[test]
    fn token_tuple_mass_sums_to_classic_contribution() {
        let corpus = Corpus::from_texts(&["a a b", "b c"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&["a"], &corpus, &stats);
        let node = NodeId(0);
        let per_occurrence = ModelScorer(&model, &stats).token_tuple("a", node);
        let total = 2.0 * per_occurrence; // occurs(n0, a) = 2
        let a = corpus.token_id("a").unwrap();
        let idf = stats.idf(a);
        let tf = 2.0 / 2.0; // occurs / unique_tokens
        let expected = model.weight("a") * tf * idf / (stats.l2_norm(node) * model.query_norm());
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn join_conserves_score() {
        let corpus = Corpus::from_texts(&["x"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&["x"], &corpus, &stats);
        let scorer = ModelScorer(&model, &stats);
        // 2 left tuples (0.3, 0.5), 3 right tuples (0.1 each): total in =
        // 0.8 + 0.3; total out over the 6 joined tuples must match.
        let left = [0.3, 0.5];
        let right = [0.1, 0.1, 0.1];
        let mut total = 0.0;
        for &l in &left {
            for &r in &right {
                total += scorer.join(l, r, left.len(), right.len());
            }
        }
        assert!((total - 1.1f64).abs() < 1e-12);
    }

    #[test]
    fn unknown_tokens_have_zero_mass() {
        let corpus = Corpus::from_texts(&["a"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let model = TfIdfModel::for_query(&["missing"], &corpus, &stats);
        let scorer = ModelScorer(&model, &stats);
        assert_eq!(scorer.token_tuple("missing", NodeId(0)), 0.0);
        assert_eq!(model.weight("missing"), 0.0);
    }
}
