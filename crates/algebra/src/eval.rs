//! The materialized algebra evaluator (the COMP engine's backend,
//! Section 5.4).
//!
//! Evaluates bottom-up, fully materializing every intermediate full-text
//! relation — per-node cartesian products and all. This realizes the paper's
//! `O(cnodes × pos_per_cnode^toks_Q × (preds_Q + ops_Q + 1))` bound, and the
//! tuple counter lets benchmarks verify that growth directly.

use crate::error::AlgebraError;
use crate::expr::AlgExpr;
use crate::relation::FtRelation;
use ftsl_index::{AccessCounters, IndexLayout, InvertedIndex};
use ftsl_model::{Corpus, TokenId};
use ftsl_predicates::PredicateRegistry;

/// Evaluator for [`AlgExpr`] against a corpus + index. Leaf relations are
/// materialized by streaming the compressed lists entry by entry at the
/// cursor.
pub struct AlgebraEvaluator<'a> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    registry: &'a PredicateRegistry,
    counters: AccessCounters,
}

impl<'a> AlgebraEvaluator<'a> {
    /// Create an evaluator.
    pub fn new(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        registry: &'a PredicateRegistry,
    ) -> Self {
        AlgebraEvaluator {
            corpus,
            index,
            registry,
            counters: AccessCounters::new(),
        }
    }

    /// Alias of [`Self::new`] (there is one layout). Kept for
    /// `benchmark/src/sut.rs`, which names it; to be dropped by the next
    /// `benchmark` issue.
    pub fn with_layout(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        registry: &'a PredicateRegistry,
        _layout: IndexLayout,
    ) -> Self {
        Self::new(corpus, index, registry)
    }

    /// Counters accumulated across evaluations.
    pub fn counters(&self) -> AccessCounters {
        self.counters
    }

    /// Evaluate an expression to a materialized relation.
    pub fn eval(&mut self, expr: &AlgExpr) -> Result<FtRelation, AlgebraError> {
        expr.arity(self.registry)?;
        Ok(self.eval_unchecked(expr))
    }

    fn eval_unchecked(&mut self, expr: &AlgExpr) -> FtRelation {
        let rel = match expr {
            AlgExpr::SearchContext => {
                let mut r = FtRelation::new(0);
                for n in self.corpus.node_ids() {
                    r.push(n, &[]);
                }
                r
            }
            AlgExpr::HasPos => self.scan(None),
            AlgExpr::TokenRel(tok) => match self.corpus.token_id(tok) {
                Some(id) => self.scan(Some(id)),
                None => FtRelation::new(1),
            },
            AlgExpr::Project(e, cols) => self.eval_unchecked(e).project(cols),
            AlgExpr::Join(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                left.join(&right)
            }
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                let rel = self.eval_unchecked(input);
                rel.select(self.registry.get(*pred), cols, consts)
            }
            AlgExpr::Union(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                left.union(&right)
            }
            AlgExpr::Intersect(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                left.intersect(&right)
            }
            AlgExpr::Difference(a, b) => {
                let left = self.eval_unchecked(a);
                let right = self.eval_unchecked(b);
                left.difference(&right)
            }
        };
        self.counters.tuples += rel.len() as u64;
        rel
    }

    /// Materialize a leaf relation (a token's list, or `IL_ANY` for `None`).
    /// COMP inspects every position it materializes, so `positions_decoded`
    /// equals `positions` here — the streaming engines are where the two
    /// diverge.
    fn scan(&mut self, token: Option<TokenId>) -> FtRelation {
        let mut r = FtRelation::new(1);
        let mut cur = match token {
            Some(id) => self.index.block_cursor(id),
            None => self.index.any_block_cursor(),
        };
        while let Some(node) = cur.next_entry() {
            self.counters.entries += 1;
            for &p in cur.positions() {
                self.counters.positions += 1;
                self.counters.positions_decoded += 1;
                r.push(node, &[p]);
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ops::*;
    use ftsl_index::IndexBuilder;
    use ftsl_model::NodeId;

    fn setup() -> (Corpus, InvertedIndex, PredicateRegistry) {
        let corpus = Corpus::from_texts(&[
            "test driven usability",
            "usability test",
            "test test something",
            "nothing relevant here",
        ]);
        let index = IndexBuilder::new().build(&corpus);
        (corpus, index, PredicateRegistry::with_builtins())
    }

    fn nodes(r: &FtRelation) -> Vec<u32> {
        r.distinct_nodes().into_iter().map(|n| n.0).collect()
    }

    #[test]
    fn paper_query_conjunction() {
        // π_CNode(R_test ⋈ R_usability)
        let (corpus, index, reg) = setup();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let e = project_nodes(join(token("test"), token("usability")));
        let r = ev.eval(&e).unwrap();
        assert_eq!(nodes(&r), vec![0, 1]);
        assert_eq!(r.arity(), 0);
    }

    #[test]
    fn paper_query_distance() {
        // π_CNode(σ_distance(0,1,5)(R_test ⋈ R_usability))
        let (corpus, index, reg) = setup();
        let distance = reg.lookup("distance").unwrap();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let e = project_nodes(select(
            join(token("test"), token("usability")),
            distance,
            &[0, 1],
            &[5],
        ));
        let r = ev.eval(&e).unwrap();
        assert_eq!(nodes(&r), vec![0, 1]);
    }

    #[test]
    fn paper_query_double_occurrence_without_token() {
        // π_CNode(σ_diffpos(R_test ⋈ R_test)) ⋈ (SearchContext − π_CNode(R_usability))
        let (corpus, index, reg) = setup();
        let diffpos = reg.lookup("diffpos").unwrap();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let doubled = project_nodes(select(
            join(token("test"), token("test")),
            diffpos,
            &[0, 1],
            &[],
        ));
        let without = difference(AlgExpr::SearchContext, project_nodes(token("usability")));
        let e = join(doubled, without);
        let r = ev.eval(&e).unwrap();
        assert_eq!(nodes(&r), vec![2]);
    }

    #[test]
    fn unknown_token_gives_empty_relation() {
        let (corpus, index, reg) = setup();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let r = ev.eval(&token("zzzz")).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.arity(), 1);
    }

    #[test]
    fn search_context_includes_all_nodes() {
        let (corpus, index, reg) = setup();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let r = ev.eval(&AlgExpr::SearchContext).unwrap();
        assert_eq!(r.len(), corpus.len());
    }

    #[test]
    fn counters_track_materialized_tuples() {
        let (corpus, index, reg) = setup();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let e = join(token("test"), token("test"));
        let r = ev.eval(&e).unwrap();
        // node0: 1 test, node1: 1, node2: 2 -> join sizes 1+1+4 = 6
        assert_eq!(r.len(), 6);
        let c = ev.counters();
        assert!(c.tuples >= 6);
        assert!(c.positions >= 4);
    }

    #[test]
    fn bad_expression_is_rejected_before_evaluation() {
        let (corpus, index, reg) = setup();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let e = union(token("a"), AlgExpr::SearchContext);
        assert!(ev.eval(&e).is_err());
    }

    #[test]
    fn difference_on_node_sets() {
        let (corpus, index, reg) = setup();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let e = difference(AlgExpr::SearchContext, project_nodes(token("test")));
        let r = ev.eval(&e).unwrap();
        assert_eq!(r.distinct_nodes(), vec![NodeId(3)]);
    }
}
