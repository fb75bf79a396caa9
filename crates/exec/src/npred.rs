//! The NPRED engine (Section 5.6): per-ordering evaluation threads.
//!
//! The paper presents the algorithm with `toks_Q!` threads — one per total
//! order of the query's inverted-list cursors — and notes that "our
//! implementation generates only the necessary partial orders". Both are
//! implemented here:
//!
//! * **partial orders** (default): permute only the variables that occur in
//!   negative predicates; positive-only queries run a single thread;
//! * **full permutations**: permute every scan variable — the presented
//!   algorithm, used by the benchmarks to reproduce the paper's NPRED-POS
//!   overhead relative to PPRED-POS.
//!
//! The "threads" run one after another on the caller's thread; their
//! matches are unioned and their access counters summed.

use crate::build::{build_cursor, CursorCtx};
use crate::error::PlanError;
use crate::plan::{build_plan, order_joins_by_selectivity, Plan, PlanNode};
use ftsl_calculus::ast::{QueryExpr, VarId};
use ftsl_index::{AccessCounters, InvertedIndex};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::{AdvanceMode, PredicateRegistry};
use std::collections::HashMap;

/// The NPRED engine's shape half, compiled once per query: the normalized
/// streaming plan and the variable orderings its threads run.
/// [`Self::bind`] runs them on one segment.
#[derive(Clone, Debug)]
pub(crate) struct NpredPlan {
    root: PlanNode,
    orderings: Vec<Vec<VarId>>,
}

impl NpredPlan {
    /// Plan `expr` and enumerate its orderings: every permutation of the
    /// scan variables when `full_permutations` is set, otherwise of the
    /// negative-predicate variables only.
    pub(crate) fn prepare(
        expr: &QueryExpr,
        registry: &PredicateRegistry,
        full_permutations: bool,
    ) -> Result<Self, PlanError> {
        let plan = build_plan(expr, registry, true)?;
        let orderings = permutations(&ordering_vars(&plan, full_permutations));
        Ok(NpredPlan {
            root: plan.root,
            orderings,
        })
    }

    /// Run every ordering's thread on one segment, over a copy of the plan
    /// with its joins ordered by this segment's list lengths; matches are
    /// unioned and counters summed.
    pub(crate) fn bind(
        &self,
        corpus: &Corpus,
        index: &InvertedIndex,
        registry: &PredicateRegistry,
        mode: AdvanceMode,
    ) -> (Vec<NodeId>, AccessCounters) {
        let root = order_joins_by_selectivity(self.root.clone(), corpus, index);
        let ctx = CursorCtx {
            corpus,
            index,
            registry,
            mode,
        };
        let mut all_nodes: Vec<NodeId> = Vec::new();
        let mut counters = AccessCounters::new();
        for ordering in &self.orderings {
            let (nodes, c) = run_thread(&root, &ctx, ordering);
            all_nodes.extend(nodes);
            counters += c;
        }
        all_nodes.sort_unstable();
        all_nodes.dedup();
        (all_nodes, counters)
    }
}

fn ordering_vars(plan: &Plan, full: bool) -> Vec<VarId> {
    if full {
        let mut vars = plan.scan_vars.clone();
        vars.sort_unstable();
        vars.dedup();
        vars
    } else {
        plan.negative_vars.clone()
    }
}

fn run_thread(
    root: &PlanNode,
    ctx: &CursorCtx<'_>,
    ordering: &[VarId],
) -> (Vec<NodeId>, AccessCounters) {
    let ranks: HashMap<VarId, usize> = ordering
        .iter()
        .enumerate()
        .map(|(rank, &v)| (v, rank))
        .collect();
    let mut cursor = build_cursor(root, ctx, &ranks);
    let mut nodes = Vec::new();
    while let Some(n) = cursor.advance_node() {
        nodes.push(n);
    }
    (nodes, cursor.counters())
}

/// All permutations of `vars` (a single empty ordering for no vars).
fn permutations(vars: &[VarId]) -> Vec<Vec<VarId>> {
    if vars.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let mut work = vars.to_vec();
    permute_rec(&mut work, 0, &mut out);
    out
}

fn permute_rec(work: &mut Vec<VarId>, k: usize, out: &mut Vec<Vec<VarId>>) {
    if k == work.len() {
        out.push(work.clone());
        return;
    }
    for i in k..work.len() {
        work.swap(k, i);
        permute_rec(work, k + 1, out);
        work.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, ExecOptions};
    use crate::snapshot::run_on_texts;

    fn run(query: &str, texts: &[&str], options: ExecOptions) -> Vec<u32> {
        let out = run_on_texts(texts, query, EngineKind::Npred, options).unwrap();
        out.nodes.into_iter().map(|n| n.0).collect()
    }

    #[test]
    fn not_distance_section_5_6_2_example() {
        // Find nodes where "assignment" and "judge" are at least 40
        // positions apart (more than 40 intervening tokens).
        let filler = ["x"; 45].join(" ");
        let near = format!("assignment {} judge", ["x"; 5].join(" "));
        let far = format!("assignment {filler} judge");
        let reversed = format!("judge {filler} assignment");
        let r = run(
            "SOME p1 SOME p2 (p1 HAS 'assignment' AND p2 HAS 'judge' AND not_distance(p1,p2,40))",
            &[&near, &far, &reversed],
            ExecOptions::default(),
        );
        assert_eq!(r, vec![1, 2]);
    }

    #[test]
    fn diffpos_two_occurrences() {
        // Paper Section 2.2.1: two occurrences of 'test'.
        let r = run(
            "SOME p1 SOME p2 (p1 HAS 'test' AND p2 HAS 'test' AND diffpos(p1,p2))",
            &["test", "test test", "test x test", "none"],
            ExecOptions::default(),
        );
        assert_eq!(r, vec![1, 2]);
    }

    #[test]
    fn full_permutations_agree_with_partial_orders() {
        let texts = &[
            "a x x x x x x b c",
            "c b a",
            "a b c",
            "b x x x x x a x x x x c",
        ];
        let q = "SOME p1 SOME p2 SOME p3 (p1 HAS 'a' AND p2 HAS 'b' AND p3 HAS 'c' \
                 AND not_distance(p1,p2,3) AND ordered(p2,p3))";
        let partial = run(q, texts, ExecOptions::default());
        let full = run(
            q,
            texts,
            ExecOptions {
                npred_full_permutations: true,
                ..Default::default()
            },
        );
        assert_eq!(partial, full);
    }

    #[test]
    fn positive_queries_run_single_thread_with_partial_orders() {
        let q = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1,p2,1))";
        let r = run(q, &["a b", "a x x b"], ExecOptions::default());
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn mixed_positive_and_negative_predicates() {
        // a before b, but more than 2 intervening tokens.
        let q = "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1,p2) \
                 AND not_distance(p1,p2,2))";
        let r = run(
            q,
            &[
                "a b",         // ordered but close
                "a x x x x b", // ordered and far
                "b x x x x a", // far but wrong order
            ],
            ExecOptions::default(),
        );
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn permutation_count() {
        let vars: Vec<VarId> = (0..4).map(VarId).collect();
        assert_eq!(permutations(&vars).len(), 24);
        assert_eq!(permutations(&[]).len(), 1);
    }
}
