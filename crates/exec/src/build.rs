//! Build cursor trees from rewritten plans.

use crate::cursor::{FtCursor, ScanCursor};
use crate::join::JoinCursor;
use crate::plan::PlanNode;
use crate::project::ProjectCursor;
use crate::select::SelectCursor;
use crate::setops::{DiffCursor, UnionCursor};
use ftsl_calculus::ast::VarId;
use ftsl_index::InvertedIndex;
use ftsl_model::Corpus;
use ftsl_predicates::{AdvanceMode, PredKind, PredicateRegistry};
use std::collections::HashMap;

/// Everything a cursor tree needs to run.
pub struct CursorCtx<'a> {
    /// The corpus (token resolution).
    pub corpus: &'a Corpus,
    /// The inverted index.
    pub index: &'a InvertedIndex,
    /// Predicate registry.
    pub registry: &'a PredicateRegistry,
    /// Skip aggressiveness for positive predicates.
    pub mode: AdvanceMode,
}

/// Build a cursor tree. `ranks` is the evaluation thread's variable
/// ordering (empty for PPRED / threads without negative predicates).
pub fn build_cursor<'a>(
    node: &PlanNode,
    ctx: &CursorCtx<'a>,
    ranks: &HashMap<VarId, usize>,
) -> Box<dyn FtCursor + 'a> {
    build_rec(node, ctx, ranks).0
}

fn build_rec<'a>(
    node: &PlanNode,
    ctx: &CursorCtx<'a>,
    ranks: &HashMap<VarId, usize>,
) -> (Box<dyn FtCursor + 'a>, Vec<VarId>) {
    match node {
        PlanNode::Scan { token, var } => {
            let id = ctx
                .corpus
                .token_id(token)
                .unwrap_or(ftsl_model::TokenId(u32::MAX));
            let cursor = Box::new(ScanCursor::new(ctx.index.block_list(id)));
            (cursor, vec![*var])
        }
        PlanNode::ScanAny { var } => {
            let cursor = Box::new(ScanCursor::new(ctx.index.any_block_list()));
            (cursor, vec![*var])
        }
        PlanNode::Join(a, b) => {
            let (left, mut lv) = build_rec(a, ctx, ranks);
            let (right, rv) = build_rec(b, ctx, ranks);
            lv.extend(rv);
            (Box::new(JoinCursor::new(left, right)), lv)
        }
        PlanNode::Select {
            input,
            pred,
            arg_cols,
            consts,
        } => {
            let (inner, vars) = build_rec(input, ctx, ranks);
            let p = ctx.registry.get_shared(*pred);
            let cursor: Box<dyn FtCursor + 'a> = match p.kind() {
                PredKind::Negative => {
                    // Order the predicate's argument indices by thread rank.
                    let mut order: Vec<usize> = (0..arg_cols.len()).collect();
                    order.sort_by_key(|&i| {
                        ranks.get(&vars[arg_cols[i]]).copied().unwrap_or(usize::MAX)
                    });
                    Box::new(SelectCursor::negative(
                        inner,
                        p,
                        arg_cols.clone(),
                        consts.clone(),
                        order,
                    ))
                }
                _ => Box::new(SelectCursor::positive(
                    inner,
                    p,
                    arg_cols.clone(),
                    consts.clone(),
                    ctx.mode,
                )),
            };
            (cursor, vars)
        }
        PlanNode::Project { input, keep } => {
            let (inner, vars) = build_rec(input, ctx, ranks);
            let kept: Vec<VarId> = keep.iter().map(|&k| vars[k]).collect();
            (Box::new(ProjectCursor::new(inner, keep.clone())), kept)
        }
        PlanNode::Union(a, b) => {
            let (left, lv) = build_rec(a, ctx, ranks);
            let (right, _) = build_rec(b, ctx, ranks);
            (Box::new(UnionCursor::new(left, right)), lv)
        }
        PlanNode::Diff(a, b) => {
            let (left, lv) = build_rec(a, ctx, ranks);
            let (filter, _) = build_rec(b, ctx, ranks);
            (Box::new(DiffCursor::new(left, filter)), lv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
    use ftsl_index::IndexBuilder;
    use ftsl_lang::{lower, parse, Mode};

    #[test]
    fn cursor_tree_runs_a_ppred_query() {
        let corpus = Corpus::from_texts(&[
            "usability of a software",
            "software usability",
            "software only here",
        ]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let surface = parse(
            "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' AND distance(p1,p2,5))",
            Mode::Comp,
        )
        .unwrap();
        let expr = lower(&surface, &reg).unwrap();
        let plan = build_plan(&expr, &reg, false).unwrap();
        let ctx = CursorCtx {
            corpus: &corpus,
            index: &index,
            registry: &reg,
            mode: AdvanceMode::Aggressive,
        };
        let mut cursor = build_cursor(&plan.root, &ctx, &HashMap::new());
        let mut nodes = Vec::new();
        while let Some(n) = cursor.advance_node() {
            nodes.push(n.0);
        }
        assert_eq!(nodes, vec![0, 1]);
    }
}
