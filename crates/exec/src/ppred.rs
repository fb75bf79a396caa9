//! The PPRED engine (Section 5.5): single-scan streaming evaluation.

use crate::build::{build_cursor, CursorCtx};
use crate::error::PlanError;
use crate::pairscan::{self, PairQuery};
use crate::plan::{build_plan, order_joins_by_selectivity, PlanNode};
use ftsl_calculus::ast::QueryExpr;
use ftsl_index::{AccessCounters, InvertedIndex};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::{AdvanceMode, PredicateRegistry};
use std::collections::HashMap;

/// Evaluate a (closed) calculus expression with the PPRED streaming engine
/// on one index, under an explicit [`AdvanceMode`]. Every query the
/// executor runs binds [`AdvanceMode::Aggressive`]; this is the only way to
/// run [`AdvanceMode::Conservative`], the differential oracle for the
/// aggressive skips.
///
/// Fails with a [`PlanError`] if the query is not in the PPRED fragment
/// (negative/general predicates, open negation, `EVERY`, mismatched `OR`).
pub fn run_ppred(
    expr: &QueryExpr,
    corpus: &Corpus,
    index: &InvertedIndex,
    registry: &PredicateRegistry,
    mode: AdvanceMode,
) -> Result<(Vec<NodeId>, AccessCounters), PlanError> {
    let (nodes, counters, _) =
        PpredPlan::prepare(expr, registry)?.bind(corpus, index, registry, mode);
    Ok((nodes, counters))
}

/// Which physical path answered a PPRED query — the observability handle
/// for the paper's central claim that proximity cost depends on the path
/// taken, not the query written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairAttribution {
    /// Answered from the word-pair index (one pair-list walk).
    PairList,
    /// Recognized as a proximity core, but the pair index could not cover
    /// it (df cutoff, window bound, or disabled pair section); fell back
    /// to position intersection.
    FallbackNotCovered,
    /// Plan shape outside the two-scan pair fragment; streamed through
    /// ordinary positional cursors.
    NotRecognized,
}

impl PairAttribution {
    /// Human-readable label used in EXPLAIN profiles.
    pub fn describe(self) -> &'static str {
        match self {
            PairAttribution::PairList => "pair path: word-pair list walk",
            PairAttribution::FallbackNotCovered => {
                "pair path: not covered — position-intersection fallback"
            }
            PairAttribution::NotRecognized => {
                "pair path: shape not recognized — streaming cursor evaluation"
            }
        }
    }
}

/// The PPRED engine's shape half, compiled once per query: the normalized
/// streaming plan and the proximity core [`pairscan::recognize`] found in
/// it, if any. [`Self::bind`] runs it on one segment.
#[derive(Clone, Debug)]
pub(crate) struct PpredPlan {
    root: PlanNode,
    pair: Option<PairQuery>,
}

impl PpredPlan {
    /// Plan `expr`; fails with a [`PlanError`] if the query is not in the
    /// PPRED fragment.
    pub(crate) fn prepare(
        expr: &QueryExpr,
        registry: &PredicateRegistry,
    ) -> Result<Self, PlanError> {
        let root = build_plan(expr, registry, false)?.root;
        let pair = pairscan::recognize(&root, registry);
        Ok(PpredPlan { root, pair })
    }

    /// Run the plan on one segment: the pair-list walk when the segment's
    /// pair index covers the recognized core, otherwise the single-scan
    /// cursors over a copy of the plan with its joins ordered by this
    /// segment's list lengths.
    pub(crate) fn bind(
        &self,
        corpus: &Corpus,
        index: &InvertedIndex,
        registry: &PredicateRegistry,
        mode: AdvanceMode,
    ) -> (Vec<NodeId>, AccessCounters, PairAttribution) {
        let attribution = match &self.pair {
            Some(q) => match pairscan::execute(q, corpus, index) {
                Some((nodes, counters)) => return (nodes, counters, PairAttribution::PairList),
                None => PairAttribution::FallbackNotCovered,
            },
            None => PairAttribution::NotRecognized,
        };
        let root = order_joins_by_selectivity(self.root.clone(), corpus, index);
        let ctx = CursorCtx {
            corpus,
            index,
            registry,
            mode,
        };
        let mut cursor = build_cursor(&root, &ctx, &HashMap::new());
        let mut nodes = Vec::new();
        while let Some(n) = cursor.advance_node() {
            nodes.push(n);
        }
        (nodes, cursor.counters(), attribution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;
    use ftsl_lang::{lower, parse, Mode};

    fn run(query: &str, texts: &[&str]) -> Vec<u32> {
        let corpus = Corpus::from_texts(texts);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(query, Mode::Comp).unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let (nodes, _) = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Aggressive).unwrap();
        nodes.into_iter().map(|n| n.0).collect()
    }

    #[test]
    fn conjunction_without_predicates() {
        let r = run(
            "'test' AND 'usability'",
            &["test usability", "test", "usability test"],
        );
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn ordered_and_distance_combination() {
        let r = run(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1,p2) AND distance(p1,p2,1))",
            &[
                "a b",       // ordered, adjacent
                "b a",       // wrong order
                "a x x x b", // too far
                "b x a b",   // a before final b, distance 1
            ],
        );
        assert_eq!(r, vec![0, 3]);
    }

    #[test]
    fn and_not_closed_subquery() {
        let r = run(
            "'test' AND NOT 'usability'",
            &["test usability", "test alone", "usability", "test"],
        );
        assert_eq!(r, vec![1, 3]);
    }

    #[test]
    fn union_of_token_alternatives() {
        let r = run(
            "SOME p1 SOME p2 ((p1 HAS 'a' OR p1 HAS 'b') AND p2 HAS 'c' AND distance(p1,p2,0))",
            &["a c", "b c", "a x c", "c"],
        );
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn samepara_requires_structured_positions() {
        let r = run(
            "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND samepara(p1,p2))",
            &["alpha beta", "alpha here.\n\nbeta there", "nothing"],
        );
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn shared_variable_conjunction() {
        // p1 must hold both tokens at the same position: impossible for
        // different tokens, trivial for the same token.
        let r = run("SOME p1 (p1 HAS 'a' AND p1 HAS 'b')", &["a b", "ab"]);
        assert!(r.is_empty());
        let r = run("SOME p1 (p1 HAS 'a' AND p1 HAS 'a')", &["a", "b"]);
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn negative_predicate_is_rejected() {
        let corpus = Corpus::from_texts(&["a b"]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_distance(p1,p2,3))",
            Mode::Comp,
        )
        .unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let err = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Aggressive);
        assert!(matches!(err, Err(PlanError::NegativePredicate(_))));
    }

    #[test]
    fn conservative_and_aggressive_modes_agree() {
        let corpus =
            Corpus::from_texts(&["a x x b x x a b", "b x x x x x x x x x a", "a b a b a b"]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,2) AND ordered(p1,p2))",
            Mode::Comp,
        )
        .unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let (fast, _) = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Aggressive).unwrap();
        let (slow, _) = run_ppred(&expr, &corpus, &index, &reg, AdvanceMode::Conservative).unwrap();
        assert_eq!(fast, slow);
    }
}
