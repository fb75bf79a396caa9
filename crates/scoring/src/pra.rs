//! Probabilistic scoring (Section 3.2): the probabilistic relational algebra
//! adapted to full-text relations.
//!
//! Tuple scores are probabilities in `[0, 1]`. The initial score of an
//! `R_token` tuple is `IDF/NF` as the paper suggests — we normalize by the
//! maximum possible idf (`ln(1 + db_size)`, attained at `df = 1`) so scores
//! land in `(0, 1]`.

use crate::stats::ScoreStats;
use crate::ModelScorer;
use ftsl_algebra::Scorer;
use ftsl_model::{NodeId, Position};
use ftsl_predicates::Predicate;

/// Probabilistic relational algebra scoring.
#[derive(Clone, Debug)]
pub struct PraModel {
    /// Precomputed normalization factor `ln(1 + db_size)`.
    max_idf: f64,
    idf_lookup: std::collections::HashMap<String, f64>,
}

impl PraModel {
    /// Build the model over a corpus.
    pub fn new(corpus: &ftsl_model::Corpus, stats: &ScoreStats) -> Self {
        let idf_lookup = corpus
            .interner()
            .iter()
            .map(|(id, name)| (name.to_string(), stats.idf(id)))
            .collect();
        Self::with_idf_table(idf_lookup, stats.db_size)
    }

    /// Build the model from a precomputed `token → idf` table and a
    /// collection size — how a live snapshot supplies collection-wide
    /// values spanning every segment's vocabulary.
    pub fn with_idf_table(
        idf_lookup: std::collections::HashMap<String, f64>,
        db_size: usize,
    ) -> Self {
        PraModel {
            max_idf: (1.0 + db_size as f64).ln(),
            idf_lookup,
        }
    }
}

impl Scorer for ModelScorer<'_, PraModel> {
    type Score = f64;

    fn token_tuple(&self, token: &str, _node: NodeId) -> f64 {
        let model = self.0;
        let idf = model.idf_lookup.get(token).copied().unwrap_or(0.0);
        if model.max_idf > 0.0 {
            (idf / model.max_idf).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    fn any_tuple(&self) -> f64 {
        1.0
    }

    fn context_tuple(&self) -> f64 {
        1.0
    }

    fn join(&self, left: f64, right: f64, _left_group: usize, _right_group: usize) -> f64 {
        left * right
    }

    fn project(&self, scores: &[f64]) -> f64 {
        // 1 − ∏(1 − sᵢ): probabilistic OR of the collapsing tuples.
        1.0 - scores.iter().fold(1.0, |acc, &s| acc * (1.0 - s))
    }

    fn select(&self, score: f64, pred: &dyn Predicate, args: &[Position], consts: &[i64]) -> f64 {
        // The paper's example: f = 1 − |p1 − p2|/dist for the distance
        // predicate; other predicates keep f = 1.
        let f = if pred.name() == "distance" && args.len() == 2 && !consts.is_empty() {
            let dist = consts[0].max(1) as f64;
            let delta = f64::from(args[0].intervening(&args[1]));
            (1.0 - delta / dist).clamp(0.0, 1.0)
        } else {
            1.0
        };
        score * f
    }

    fn union(&self, left: Option<f64>, right: Option<f64>) -> f64 {
        let a = left.unwrap_or(0.0);
        let b = right.unwrap_or(0.0);
        1.0 - (1.0 - a) * (1.0 - b)
    }

    fn intersect(&self, left: f64, right: f64) -> f64 {
        left * right
    }

    fn difference(&self, left: f64) -> f64 {
        // Expr1 − Expr2 = Expr1 ∩ ¬Expr2; surviving tuples are absent from
        // Expr2 (score 0 there), so ¬Expr2 contributes factor 1.
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    fn model() -> (Corpus, ScoreStats, PraModel) {
        let corpus = Corpus::from_texts(&["a b", "a", "c d e"]);
        let index = IndexBuilder::new().build(&corpus);
        let stats = ScoreStats::compute(&corpus, &index);
        let model = PraModel::new(&corpus, &stats);
        (corpus, stats, model)
    }

    #[test]
    fn tuple_scores_are_probabilities() {
        let (corpus, stats, model) = model();
        let scorer = ModelScorer(&model, &stats);
        for (_, name) in corpus.interner().iter() {
            let s = scorer.token_tuple(name, NodeId(0));
            assert!((0.0..=1.0).contains(&s), "{name}: {s}");
            assert!(s > 0.0);
        }
        // Rarer tokens score higher.
        assert!(scorer.token_tuple("c", NodeId(2)) > scorer.token_tuple("a", NodeId(0)));
    }

    #[test]
    fn transformations_stay_in_unit_interval() {
        let (_, stats, model) = model();
        let scorer = ModelScorer(&model, &stats);
        assert!((scorer.join(0.7, 0.9, 3, 4) - 0.63).abs() < 1e-12);
        assert!((scorer.project(&[0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!((scorer.union(Some(0.5), Some(0.5)) - 0.75).abs() < 1e-12);
        assert_eq!(scorer.union(Some(0.4), None), 0.4);
        assert!((scorer.intersect(0.5, 0.5) - 0.25).abs() < 1e-12);
        assert_eq!(scorer.difference(0.8), 0.8);
    }

    #[test]
    fn distance_selection_scales_by_gap() {
        let (_, stats, model) = model();
        let scorer = ModelScorer(&model, &stats);
        let reg = ftsl_predicates::PredicateRegistry::with_builtins();
        let distance = reg.get(reg.lookup("distance").unwrap());
        let close = [Position::flat(0), Position::flat(1)];
        let far = [Position::flat(0), Position::flat(5)];
        let s_close = scorer.select(1.0, distance, &close, &[5]);
        let s_far = scorer.select(1.0, distance, &far, &[5]);
        assert!(s_close > s_far);
        assert!((0.0..=1.0).contains(&s_far));
    }
}
