//! Scored relations and the scored algebra evaluator.
//!
//! Mirrors `ftsl_algebra`'s materialized evaluator, threading per-tuple
//! scores through every operator according to a [`ScoringModel`].

use crate::stats::ScoreStats;
use crate::ScoringModel;
use ftsl_algebra::AlgExpr;
use ftsl_index::InvertedIndex;
use ftsl_model::{Corpus, NodeId, Position};
use ftsl_predicates::PredicateRegistry;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A materialized full-text relation with a score column.
#[derive(Clone, Debug, Default)]
pub struct ScoredRelation {
    /// Number of position attributes.
    pub arity: usize,
    /// Rows `(node, positions, score)`, canonical (sorted, unique tuples).
    pub rows: Vec<(NodeId, Vec<Position>, f64)>,
}

impl ScoredRelation {
    fn new(arity: usize) -> Self {
        ScoredRelation {
            arity,
            rows: Vec::new(),
        }
    }

    fn key(row: &(NodeId, Vec<Position>, f64)) -> (NodeId, Vec<u32>) {
        (row.0, row.1.iter().map(|p| p.offset).collect())
    }

    fn cmp_rows(a: &(NodeId, Vec<Position>, f64), b: &(NodeId, Vec<Position>, f64)) -> Ordering {
        Self::key(a).cmp(&Self::key(b))
    }

    /// Total score per node (the ranked-query output).
    pub fn node_scores<M: ScoringModel>(&self, model: &M) -> Vec<(NodeId, f64)> {
        let mut grouped: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
        for (n, _, s) in &self.rows {
            grouped.entry(*n).or_default().push(*s);
        }
        grouped
            .into_iter()
            .map(|(n, scores)| (n, model.project(&scores)))
            .collect()
    }
}

/// Score-propagating evaluator for algebra expressions.
pub struct ScoredEvaluator<'a, M: ScoringModel> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    registry: &'a PredicateRegistry,
    stats: &'a ScoreStats,
    model: M,
}

impl<'a, M: ScoringModel> ScoredEvaluator<'a, M> {
    /// Create an evaluator with a scoring model.
    pub fn new(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        registry: &'a PredicateRegistry,
        stats: &'a ScoreStats,
        model: M,
    ) -> Self {
        ScoredEvaluator {
            corpus,
            index,
            registry,
            stats,
            model,
        }
    }

    /// The scoring model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Evaluate an expression with score propagation.
    pub fn eval(&self, expr: &AlgExpr) -> Result<ScoredRelation, ftsl_algebra::AlgebraError> {
        expr.arity(self.registry)?;
        Ok(self.eval_unchecked(expr))
    }

    /// Evaluate a query and produce per-node scores, descending
    /// ([`f64::total_cmp`] with ascending node ids on ties — see
    /// [`crate::topk::rank_cmp`]).
    pub fn rank(&self, expr: &AlgExpr) -> Result<Vec<(NodeId, f64)>, ftsl_algebra::AlgebraError> {
        let rel = self.eval(expr)?;
        let mut scores = rel.node_scores(&self.model);
        crate::topk::sort_ranked(&mut scores);
        Ok(scores)
    }

    fn eval_unchecked(&self, expr: &AlgExpr) -> ScoredRelation {
        match expr {
            AlgExpr::SearchContext => {
                let mut r = ScoredRelation::new(0);
                for n in self.corpus.node_ids() {
                    r.rows.push((n, Vec::new(), self.model.context_tuple()));
                }
                r
            }
            AlgExpr::HasPos => {
                let mut r = ScoredRelation::new(1);
                let mut cur = self.index.any_block_cursor();
                while let Some(node) = cur.next_entry() {
                    for &p in cur.positions() {
                        r.rows.push((node, vec![p], self.model.any_tuple()));
                    }
                }
                r
            }
            AlgExpr::TokenRel(tok) => {
                let mut r = ScoredRelation::new(1);
                if let Some(id) = self.corpus.token_id(tok) {
                    let mut cur = self.index.block_cursor(id);
                    while let Some(node) = cur.next_entry() {
                        let s = self.model.token_tuple(tok, node, self.stats);
                        for &p in cur.positions() {
                            r.rows.push((node, vec![p], s));
                        }
                    }
                }
                r
            }
            AlgExpr::Project(input, cols) => {
                /// Rows grouped by projected key, carrying positions and
                /// the scores to merge.
                type Groups = BTreeMap<(NodeId, Vec<u32>), (Vec<Position>, Vec<f64>)>;
                let inner = self.eval_unchecked(input);
                let mut grouped: Groups = BTreeMap::new();
                for (n, ps, s) in &inner.rows {
                    let projected: Vec<Position> = cols.iter().map(|&c| ps[c]).collect();
                    let key = (*n, projected.iter().map(|p| p.offset).collect());
                    grouped
                        .entry(key)
                        .or_insert_with(|| (projected, Vec::new()))
                        .1
                        .push(*s);
                }
                let mut r = ScoredRelation::new(cols.len());
                for ((n, _), (ps, scores)) in grouped {
                    r.rows.push((n, ps, self.model.project(&scores)));
                }
                r
            }
            AlgExpr::Join(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                let mut r = ScoredRelation::new(left.arity + right.arity);
                let mut j_lo = 0usize;
                let mut i = 0usize;
                while i < left.rows.len() {
                    let node = left.rows[i].0;
                    let i_hi = left.rows[i..]
                        .iter()
                        .position(|(n, ..)| *n != node)
                        .map_or(left.rows.len(), |k| i + k);
                    while j_lo < right.rows.len() && right.rows[j_lo].0 < node {
                        j_lo += 1;
                    }
                    let j_hi = right.rows[j_lo..]
                        .iter()
                        .position(|(n, ..)| *n != node)
                        .map_or(right.rows.len(), |k| j_lo + k);
                    let (lg, rg) = (i_hi - i, j_hi - j_lo);
                    if rg > 0 {
                        for (_, lp, ls) in &left.rows[i..i_hi] {
                            for (_, rp, rs) in &right.rows[j_lo..j_hi] {
                                let mut ps = lp.clone();
                                ps.extend_from_slice(rp);
                                r.rows.push((node, ps, self.model.join(*ls, *rs, lg, rg)));
                            }
                        }
                    }
                    i = i_hi;
                }
                r
            }
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                let inner = self.eval_unchecked(input);
                let p = self.registry.get(*pred);
                let mut r = ScoredRelation::new(inner.arity);
                let mut args = Vec::with_capacity(cols.len());
                for (n, ps, s) in inner.rows {
                    args.clear();
                    args.extend(cols.iter().map(|&c| ps[c]));
                    if p.eval(&args, consts) {
                        let s2 = self.model.select(s, p, &args, consts);
                        r.rows.push((n, ps, s2));
                    }
                }
                r
            }
            AlgExpr::Union(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                let mut r = ScoredRelation::new(left.arity);
                let (mut i, mut j) = (0, 0);
                while i < left.rows.len() || j < right.rows.len() {
                    let ord = match (left.rows.get(i), right.rows.get(j)) {
                        (Some(l), Some(rr)) => ScoredRelation::cmp_rows(l, rr),
                        (Some(_), None) => Ordering::Less,
                        (None, Some(_)) => Ordering::Greater,
                        (None, None) => break,
                    };
                    match ord {
                        Ordering::Less => {
                            let (n, ps, s) = left.rows[i].clone();
                            r.rows.push((n, ps, self.model.union(Some(s), None)));
                            i += 1;
                        }
                        Ordering::Greater => {
                            let (n, ps, s) = right.rows[j].clone();
                            r.rows.push((n, ps, self.model.union(None, Some(s))));
                            j += 1;
                        }
                        Ordering::Equal => {
                            let (n, ps, s1) = left.rows[i].clone();
                            let s2 = right.rows[j].2;
                            r.rows.push((n, ps, self.model.union(Some(s1), Some(s2))));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                r
            }
            AlgExpr::Intersect(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                let mut r = ScoredRelation::new(left.arity);
                let (mut i, mut j) = (0, 0);
                while i < left.rows.len() && j < right.rows.len() {
                    match ScoredRelation::cmp_rows(&left.rows[i], &right.rows[j]) {
                        Ordering::Less => i += 1,
                        Ordering::Greater => j += 1,
                        Ordering::Equal => {
                            let (n, ps, s1) = left.rows[i].clone();
                            let s2 = right.rows[j].2;
                            r.rows.push((n, ps, self.model.intersect(s1, s2)));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                r
            }
            AlgExpr::Difference(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                let mut r = ScoredRelation::new(left.arity);
                let (mut i, mut j) = (0, 0);
                while i < left.rows.len() {
                    let ord = match right.rows.get(j) {
                        Some(rr) => ScoredRelation::cmp_rows(&left.rows[i], rr),
                        None => Ordering::Less,
                    };
                    match ord {
                        Ordering::Less => {
                            let (n, ps, s) = left.rows[i].clone();
                            r.rows.push((n, ps, self.model.difference(s)));
                            i += 1;
                        }
                        Ordering::Greater => j += 1,
                        Ordering::Equal => {
                            i += 1;
                            j += 1;
                        }
                    }
                }
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pra::PraModel;
    use crate::tfidf::TfIdfModel;
    use ftsl_algebra::expr::ops::*;
    use ftsl_index::IndexBuilder;

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
        let ev = ScoredEvaluator::new(&corpus, &index, &reg, &stats, model);
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
        let ev = ScoredEvaluator::new(&corpus, &index, &reg, &stats, model);
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
        let ev = ScoredEvaluator::new(&corpus, &index, &reg, &stats, model);
        let u = ev
            .eval(&union(token("usability"), token("usability")))
            .unwrap();
        // Same tuple on both sides: 1-(1-s)^2 > s.
        let single = ev.eval(&token("usability")).unwrap();
        assert_eq!(u.rows.len(), single.rows.len());
        for (us, ss) in u.rows.iter().zip(&single.rows) {
            assert!(us.2 > ss.2);
        }
        let d = ev
            .eval(&difference(
                project_nodes(token("test")),
                project_nodes(token("usability")),
            ))
            .unwrap();
        let nodes: Vec<u32> = d.rows.iter().map(|(n, ..)| n.0).collect();
        assert_eq!(nodes, vec![1]);
    }
}
