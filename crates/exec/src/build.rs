//! Build cursor trees from streaming plans.
//!
//! One walk per segment and ordering visits the plan in pre-order,
//! counting positions as COMP's evaluator does (a closed `NOT`'s
//! `Difference` and `SearchContext` included), so it finds the plan's pair
//! cores ([`crate::pairscan`]) by the position the one core table lists
//! them at. A `π_∅` whose input is an exact core becomes the pair walk
//! when the segment's pair index covers it; every other node becomes its
//! cursor.

use crate::cursor::{ContextCursor, FtCursor, ScanCursor};
use crate::join::JoinCursor;
use crate::pairscan::{leaf_at, resolve, Core, MinGapWalk, PairPath, Resolved};
use crate::plan::{as_filter, Plan};
use crate::project::ProjectCursor;
use crate::select::SelectCursor;
use crate::setops::{DiffCursor, UnionCursor};
use ftsl_algebra::AlgExpr;
use ftsl_index::{BlockList, InvertedIndex};
use ftsl_model::Corpus;
use ftsl_predicates::{AdvanceMode, PredKind, PredicateRegistry};
use std::slice;

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

/// Build the cursor tree of `plan` on one segment. `swaps` is the
/// segment's join order ([`crate::plan::order_joins_by_selectivity`]);
/// `arg_orders` is the evaluation thread's argument order for each
/// negative selection, depth-first (empty for PPRED). A `π_∅` whose input
/// is an exact pair core ([`Plan::cores`]) binds the pair walk when this
/// segment's pair index covers the core; `paths`, when given, collects the
/// path each such core takes, in plan order.
///
/// # Panics
///
/// If `plan` is not one [`crate::plan::build_plan`] built: a `∩` or `−`
/// outside a `NOT` filter, or fewer swap decisions or argument orders
/// than the tree needs.
pub(crate) fn build_cursor<'a>(
    plan: &Plan,
    swaps: &[bool],
    ctx: &CursorCtx<'a>,
    arg_orders: &[Vec<usize>],
    paths: Option<&mut Vec<PairPath>>,
) -> Box<dyn FtCursor + 'a> {
    let mut walk = Walk {
        ctx,
        swaps: swaps.iter(),
        cores: &plan.cores,
        at: 0,
        paths,
        arg_orders: arg_orders.iter(),
    };
    walk.build(&plan.root).0
}

/// One pre-order walk of a plan, reading its join decisions and negative
/// selections' argument orders in the order the plan lists them, and its
/// cores by position.
struct Walk<'w, 'a> {
    ctx: &'w CursorCtx<'a>,
    swaps: slice::Iter<'w, bool>,
    cores: &'w [Core],
    /// The next node's pre-order position, as [`Core::at`] counts it.
    at: usize,
    paths: Option<&'w mut Vec<PairPath>>,
    arg_orders: slice::Iter<'w, Vec<usize>>,
}

impl<'a> Walk<'_, 'a> {
    /// The cursor for `node` and its arity.
    fn build(&mut self, node: &AlgExpr) -> (Box<dyn FtCursor + 'a>, usize) {
        let at = self.at;
        self.at += 1;
        if let Some((left, filter)) = as_filter(node) {
            let (left, arity) = self.build(left);
            // The anti-join's `Difference` and its `SearchContext`.
            self.at += 2;
            let (filter, _) = self.build(filter);
            return (Box::new(DiffCursor::new(left, filter)), arity);
        }
        let ctx = self.ctx;
        if let Some(list) = self.list(node) {
            return (Box::new(ScanCursor::new(list)), 1);
        }
        match node {
            AlgExpr::SearchContext => (Box::new(ContextCursor::new(ctx.corpus.len() as u32)), 0),
            AlgExpr::Join(a, b) => {
                let swap = *self.swaps.next().expect("a decision per join");
                let (left, la) = self.build(a);
                let (right, lb) = self.build(b);
                if !swap {
                    return (Box::new(JoinCursor::new(left, right)), la + lb);
                }
                // Drive from the rarer right side; restore the column order
                // when both sides have columns.
                let join = Box::new(JoinCursor::new(right, left));
                if la == 0 || lb == 0 {
                    return (join, la + lb);
                }
                let keep: Vec<usize> = (lb..lb + la).chain(0..lb).collect();
                (Box::new(ProjectCursor::new(join, keep)), la + lb)
            }
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                let (inner, arity) = self.build(input);
                let p = ctx.registry.get_shared(*pred);
                let cursor: Box<dyn FtCursor + 'a> = match p.kind() {
                    PredKind::Negative => {
                        let order = self.arg_orders.next().expect("a negative selection");
                        Box::new(SelectCursor::negative(
                            inner,
                            p,
                            cols.clone(),
                            consts.clone(),
                            order.clone(),
                        ))
                    }
                    _ => Box::new(SelectCursor::positive(
                        inner,
                        p,
                        cols.clone(),
                        consts.clone(),
                        ctx.mode,
                    )),
                };
                (cursor, arity)
            }
            AlgExpr::Project(input, keep) => {
                if let Some(core) = leaf_at(self.cores, node, at) {
                    let resolved = resolve(&core.query, ctx.corpus, ctx.index);
                    if let Some(paths) = self.paths.as_deref_mut() {
                        paths.push(PairPath::of(&resolved));
                    }
                    // A covered or provably empty core: the pair walk, in
                    // place of the core's subtree and its one join decision.
                    if let Resolved::Covered(lists) = resolved {
                        self.swaps.next();
                        self.at += input.size();
                        return (Box::new(MinGapWalk::new(lists, core.query.bound)), 0);
                    }
                }
                // `π_∅` of a scan: the list's nodes, as one cursor.
                if keep.is_empty() {
                    if let Some(list) = self.list(input) {
                        self.at += 1;
                        return (Box::new(ScanCursor::nodes(list)), 0);
                    }
                }
                let (inner, _) = self.build(input);
                (
                    Box::new(ProjectCursor::new(inner, keep.clone())),
                    keep.len(),
                )
            }
            AlgExpr::Union(a, b) => {
                let (left, arity) = self.build(a);
                let (right, _) = self.build(b);
                (Box::new(UnionCursor::new(left, right)), arity)
            }
            AlgExpr::TokenRel(_) | AlgExpr::HasPos => unreachable!("a leaf scan"),
            AlgExpr::Intersect(..) | AlgExpr::Difference(..) => {
                unreachable!("the streaming lowering emits no {node:?} outside a NOT filter")
            }
        }
    }

    /// The inverted list a leaf scan reads: a token's (empty for a token
    /// this segment lacks) or `IL_ANY`; `None` for any other node.
    fn list(&self, node: &AlgExpr) -> Option<BlockList<'a>> {
        let index = self.ctx.index;
        match node {
            AlgExpr::TokenRel(token) => {
                let id = self.ctx.corpus.token_id(token);
                Some(index.block_list(id.unwrap_or(ftsl_model::TokenId(u32::MAX))))
            }
            AlgExpr::HasPos => Some(index.any_block_list()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, order_joins_by_selectivity};
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
        let swaps = order_joins_by_selectivity(&plan.root, &corpus, &index);
        let mut cursor = build_cursor(&plan, &swaps, &ctx, &[], None);
        let mut nodes = Vec::new();
        while let Some(n) = cursor.advance_node() {
            nodes.push(n.0);
        }
        assert_eq!(nodes, vec![0, 1]);
    }
}
