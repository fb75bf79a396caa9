//! The COMP engine (Section 5.4): translate to the algebra and evaluate it
//! one context node at a time.
//!
//! A gap-bounding selection over two token scans — `exact_gap(p1,p2,g)`
//! implies `distance(p1,p2,g)` — has rows only at nodes that hold an
//! occurrence pair within the bound, which the word-pair lists list
//! without decoding a position. So prepare lists the plan's gap cores once
//! ([`pairscan::gap_cores`]), and each segment resolves every core
//! ([`pairscan::resolve`]): a covered one filters its subtree with the pair
//! walk, which the evaluator leapfrogs beside it
//! ([`ftsl_algebra::NodeGate`]), so no other node is evaluated; a provably
//! empty one lands the subtree on no node; an uncovered one runs as
//! translated. The filter removes no row, so the answer never changes.

use crate::error::ExecError;
use crate::pairscan::{self, MinGapWalk, PairPath, PairQuery, Resolved};
use ftsl_algebra::rewrite::push_down;
use ftsl_algebra::{AlgExpr, AlgebraEvaluator, NodeGate, NodeStats};
use ftsl_index::{AccessCounters, InvertedIndex};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::PredicateRegistry;

/// The COMP engine's shape half, compiled once per query: the algebra
/// translation with `σ` and `π` already pushed below `⋈`
/// ([`ftsl_algebra::rewrite::push_down`]) and its gap cores; the prepared
/// query keeps the translation itself beside it. [`Self::bind`] evaluates
/// it on one segment, one context node at a time. Complete; a predicate
/// over one join's columns filters that join, and a side no later operator
/// reads joins as one row per node, but a predicate binding both sides of
/// every join still costs
/// `O(cnodes × pos_per_cnode^toks_Q × (preds_Q + ops_Q + 1))`. A node whose
/// relations would pass [`ftsl_algebra::MAX_NODE_POSITIONS`] is an `Err`.
#[derive(Clone, Debug)]
pub(crate) struct CompPlan {
    pub(crate) plan: AlgExpr,
    /// Each gap core's pre-order position in `plan` and the pair query its
    /// declared bounds imply, ascending.
    cores: Vec<(usize, PairQuery)>,
}

/// What one segment's COMP evaluation did: its matches (local ids,
/// ascending), its counters and node walk, and, traced, the path each gap
/// core took.
pub(crate) struct CompRun {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) counters: AccessCounters,
    pub(crate) stats: NodeStats,
    paths: Vec<PairPath>,
}

impl CompPlan {
    /// Push the selections and projections of `translated`, a query's
    /// algebra translation, down, and list the result's gap cores.
    pub(crate) fn prepare(translated: &AlgExpr, registry: &PredicateRegistry) -> Self {
        let plan = push_down(translated, registry);
        let cores = pairscan::gap_cores(&plan, registry);
        CompPlan { plan, cores }
    }

    /// The plan as `EXPLAIN` prints it, each gap core's `σ` marked with
    /// the pair filter it may run under.
    pub(crate) fn render_tree(&self, registry: &PredicateRegistry) -> String {
        let mut cores = self.cores.iter().peekable();
        self.plan.render_tree_with(registry, |at| {
            let (_, q) = cores.next_if(|(core, _)| *core == at)?;
            Some(format!("pair filter {}", q.describe()))
        })
    }

    /// One span note per gap core of a traced `run`: the path it took.
    pub(crate) fn path_notes<'s>(&'s self, run: &'s CompRun) -> impl Iterator<Item = String> + 's {
        let cores = self.cores.iter().zip(&run.paths);
        cores.map(|((_, q), path)| format!("pair filter {}: {}", q.describe(), path.describe()))
    }

    /// Evaluate the plan one context node at a time over one segment, each
    /// covered gap core filtering its subtree with the pair walk.
    pub(crate) fn bind(
        &self,
        corpus: &Corpus,
        index: &InvertedIndex,
        registry: &PredicateRegistry,
        traced: bool,
    ) -> Result<CompRun, ExecError> {
        let mut gates = Vec::new();
        let mut paths = Vec::new();
        for (at, q) in &self.cores {
            let resolved = pairscan::resolve(q, corpus, index);
            let path = PairPath::of(&resolved);
            if traced {
                paths.push(path);
            }
            if let Resolved::Covered(lists) = resolved {
                let filter = Box::new(MinGapWalk::new(lists, q.bound));
                gates.push(NodeGate { at: *at, filter });
            }
        }
        let mut ev = AlgebraEvaluator::new(corpus, index, registry);
        let rel = ev.eval_pushed(&self.plan, gates)?;
        Ok(CompRun {
            nodes: rel.distinct_nodes(),
            counters: ev.counters(),
            stats: ev.node_stats(),
            paths,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{EngineKind, ExecOptions};
    use crate::error::ExecError;
    use crate::snapshot::run_on_texts;
    use ftsl_algebra::AlgebraError;

    fn run(query: &str, texts: &[&str]) -> Vec<u32> {
        let out = run_on_texts(texts, query, EngineKind::Comp, ExecOptions::default()).unwrap();
        out.nodes.into_iter().map(|n| n.0).collect()
    }

    #[test]
    fn evaluates_the_full_language() {
        // EVERY + general predicate, beyond PPRED/NPRED.
        let r = run("EVERY p1 (p1 HAS 'a')", &["a a", "a b", ""]);
        assert_eq!(r, vec![0, 2]);
        let r = run(
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND exact_gap(p1,p2,2))",
            &["a x x b", "a x b", "b x x a"],
        );
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn counters_reflect_materialization() {
        let options = ExecOptions {
            trace: true,
            ..ExecOptions::default()
        };
        let out = run_on_texts(
            &["a a a a b b b b"],
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,100))",
            EngineKind::Comp,
            options,
        )
        .unwrap();
        // The per-node cartesian product (4 × 4 = 16 tuples) is materialized.
        assert!(out.counters.tuples >= 16, "counters: {:?}", out.counters);
        let trace = out.trace.expect("traced");
        let span = trace.find("engine COMP").expect("engine span");
        assert!(
            span.notes()[0].starts_with("node-at-a-time: 1 nodes evaluated"),
            "{:?}",
            span.notes()
        );
    }

    #[test]
    fn a_cross_product_over_the_budget_is_an_error() {
        let text = vec!["t"; 200].join(" ");
        let err = run_on_texts(
            &[text.as_str()],
            "SOME p1 SOME p2 SOME p3 (p1 HAS 't' AND p2 HAS 't' AND p3 HAS 't' \
             AND diffpos(p1,p3))",
            EngineKind::Comp,
            ExecOptions::default(),
        )
        .unwrap_err();
        // `diffpos` binds both sides of the outer join, so it stays above
        // it: the 3-ary join alone needs 200³ rows × 3 positions.
        assert!(
            matches!(
                err,
                ExecError::Algebra(AlgebraError::BudgetExceeded { positions, .. })
                    if positions >= 24_000_000
            ),
            "{err}"
        );
    }
}
