//! The node-at-a-time algebra evaluator (the COMP engine's backend,
//! Section 5.4).
//!
//! Every FTA operator is node-local — `⋈` matches on `CNode` equality, and
//! `σ`, `π` and the set operators never cross nodes — so the evaluator runs
//! the [`AlgExpr`] tree one context node at a time. Each leaf (`R_token`,
//! `HasPos`) owns a [`BlockCursor`], and candidate nodes are found
//! recursively: `⋈` and `∩` leapfrog their children with `seek`, `∪` takes
//! the smaller of its children's, `σ`, `π` and `−` follow their left (or
//! only) child, and `SearchContext` walks every node id. A node that some
//! joined leaf lacks is never materialized.
//!
//! At each candidate the tree is evaluated into per-operator `NodeRows`
//! buffers reused from node to node, and only the root's rows are appended
//! to the answer. Each operator's rows at a node are exactly the rows its
//! whole-segment relation would hold for it. [`AlgebraEvaluator::eval`]
//! first rewrites the plan with [`push_down`], sinking `σ` and `π` below
//! `⋈`: the root's rows are unchanged, but a node builds only the rows a
//! later operator reads. The paper's
//! `O(cnodes × pos_per_cnode^toks_Q × (preds_Q + ops_Q + 1))` stays the
//! worst case — a predicate that binds columns on both sides of every join
//! — and the tuple counter measures what was built; memory is one node's
//! tuples, capped across all operators by [`MAX_NODE_POSITIONS`].
//!
//! Ranking (Section 3) is the same walk with a score column: the evaluator
//! is generic over a [`Scorer`], whose transformations the kernels apply as
//! they build rows, and [`AlgebraEvaluator::rank`] combines each answer
//! node's root rows with `project` as the node is emitted. Unscored, the
//! column is `()` and every transformation compiles away. Scored walks run
//! the plan as translated: push-down would change the scores. When the
//! answer is already known — the executor's class engine found it —
//! [`AlgebraEvaluator::rank_among`] seeks the root to each answer node in
//! turn, so no node outside it is built.

use crate::error::AlgebraError;
use crate::expr::AlgExpr;
use crate::relation::{FtRelation, NodeRows, SetOp};
use crate::rewrite::push_down;
use crate::scorer::{Scorer, Unscored};
use ftsl_index::{AccessCounters, BlockCursor, IndexLayout, InvertedIndex};
use ftsl_model::{Corpus, NodeId};
use ftsl_predicates::{Predicate, PredicateRegistry};

/// Most positions (rows × arity, summed over every operator's buffer) the
/// evaluator may hold for one context node. A join — which is also how the
/// calculus translation's `HasPos^k` padding is built — and a projection
/// are checked from their input sizes before they allocate, since only
/// they can build more than their inputs hold; every operator's output is
/// added to the node's total and checked after it. A query that would
/// pass it fails with [`AlgebraError::BudgetExceeded`]. Buffer capacity
/// kept from earlier nodes is freed once it passes the cap too, so the
/// rows buffers never hold more than a small multiple of it: at 12 bytes a
/// position, 2²² positions are ≈ 50 MB. Ranking adds an 8-byte score to
/// every row — at most 8 more bytes a position, since rows of arity 0 (one
/// per operator at a node) hold none — so ≈ 84 MB.
///
/// 2²² ≈ 4.2 M positions is 4× the most any measured sweep holds at one
/// node (the `figures` binary's `all --scale medium`: 1.02 M positions
/// in 208 k rows, measured, before [`push_down`]) and far above every test
/// suite's. `class_ladder`'s `t4` plan built 10⁴ rows of four per node as
/// translated, ≈ 100× under the cap; pushed down, its widest relation is
/// the three-token join below the order predicate.
pub const MAX_NODE_POSITIONS: u64 = 1 << 22;

/// What the node-at-a-time walk did, accumulated across evaluations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Candidate nodes the expression was evaluated at.
    pub nodes_evaluated: u64,
    /// Leaf entries (one node each) that a `seek` moved past — landed on
    /// or stepped over — without materializing them.
    pub nodes_skipped: u64,
    /// Most rows held at once: the largest single node's tuples, summed
    /// over every operator's buffer.
    pub peak_node_tuples: u64,
}

/// Evaluator for [`AlgExpr`] against a corpus + index, one context node at
/// a time over the compressed lists, scoring every tuple with `S`.
pub struct AlgebraEvaluator<'a, S: Scorer = Unscored> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    registry: &'a PredicateRegistry,
    scorer: S,
    counters: AccessCounters,
    stats: NodeStats,
}

impl<'a> AlgebraEvaluator<'a> {
    /// Create an evaluator with no score column.
    pub fn new(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        registry: &'a PredicateRegistry,
    ) -> Self {
        Self::scored(corpus, index, registry, Unscored)
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

    /// Evaluate an expression to a materialized relation, running the
    /// [`push_down`] plan: the same rows, fewer built on the way. Not
    /// generic, so the COMP engine's walk is compiled once, in this crate,
    /// for every caller.
    pub fn eval(&mut self, expr: &AlgExpr) -> Result<FtRelation, AlgebraError> {
        self.eval_pushed(&push_down(expr, self.registry))
    }

    /// [`Self::eval`] of a plan [`push_down`] already rewrote, for callers
    /// that compile a query once and evaluate it on many segments.
    pub fn eval_pushed(&mut self, plan: &AlgExpr) -> Result<FtRelation, AlgebraError> {
        self.relation(plan)
    }
}

impl<'a, S: Scorer> AlgebraEvaluator<'a, S> {
    /// Create an evaluator whose relations carry `scorer`'s scores.
    pub fn scored(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        registry: &'a PredicateRegistry,
        scorer: S,
    ) -> Self {
        AlgebraEvaluator {
            corpus,
            index,
            registry,
            scorer,
            counters: AccessCounters::new(),
            stats: NodeStats::default(),
        }
    }

    /// Counters accumulated across evaluations.
    pub fn counters(&self) -> AccessCounters {
        self.counters
    }

    /// Node-walk statistics accumulated across evaluations.
    pub fn node_stats(&self) -> NodeStats {
        self.stats
    }

    /// Evaluate an expression, as given, to a materialized relation with
    /// its scores.
    pub fn relation(&mut self, expr: &AlgExpr) -> Result<FtRelation<S::Score>, AlgebraError> {
        let mut out = FtRelation::new(expr.arity(self.registry)?);
        self.walk(expr, None, |_, node, rows| out.push_node(node, rows))?;
        Ok(out)
    }

    /// Evaluate a query and score each node in its answer: `project` over
    /// the node's root rows, applied as the node is emitted. Nodes ascend.
    pub fn rank(&mut self, expr: &AlgExpr) -> Result<Vec<(NodeId, S::Score)>, AlgebraError> {
        self.scored_walk(expr, None)
    }

    /// [`Self::rank`] over `nodes` only, which must ascend: the root's
    /// candidate walk seeks to each listed node instead of stepping through
    /// every candidate. A node outside `expr`'s answer has no root rows, so
    /// over a list that holds the answer the hits — nodes, scores and
    /// order — are [`Self::rank`]'s; an empty list evaluates nothing.
    pub fn rank_among(
        &mut self,
        expr: &AlgExpr,
        nodes: &[NodeId],
    ) -> Result<Vec<(NodeId, S::Score)>, AlgebraError> {
        if nodes.is_empty() {
            return expr.arity(self.registry).map(|_| Vec::new());
        }
        self.scored_walk(expr, Some(nodes))
    }

    fn scored_walk(
        &mut self,
        expr: &AlgExpr,
        among: Option<&[NodeId]>,
    ) -> Result<Vec<(NodeId, S::Score)>, AlgebraError> {
        expr.arity(self.registry)?;
        let mut hits = Vec::new();
        self.walk(expr, among, |scorer, node, rows| {
            if !rows.is_empty() {
                hits.push((node, scorer.project(rows.scores())));
            }
        })?;
        Ok(hits)
    }

    /// Run `expr`, which must be well formed, at every root candidate (or
    /// at those of `among`), handing each one's root rows to `emit`, and
    /// fold the work into the counters.
    fn walk(
        &mut self,
        expr: &AlgExpr,
        among: Option<&[NodeId]>,
        mut emit: impl FnMut(&S, NodeId, &NodeRows<S::Score>),
    ) -> Result<(), AlgebraError> {
        let scorer = &self.scorer;
        let mut plan = Plan::new(expr, self.corpus, self.index, self.registry, scorer);
        let result = plan.run(among, &mut self.stats, |node, rows| {
            emit(scorer, node, rows)
        });
        plan.charge(&mut self.counters, &mut self.stats);
        result
    }
}

/// One compiled operator. Children always have smaller indices than their
/// parent (post-order), so a parent's buffer can be split off theirs.
#[derive(Clone, Copy)]
enum Op<'p> {
    Context,
    /// Index into [`Plan::leaves`].
    Leaf(usize),
    Project {
        input: usize,
        cols: &'p [usize],
    },
    Join(usize, usize),
    Select {
        input: usize,
        pred: &'p dyn Predicate,
        cols: &'p [usize],
        consts: &'p [i64],
    },
    Union(usize, usize),
    Intersect(usize, usize),
    Difference(usize, usize),
}

/// Where an operator's candidate walk stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Landing {
    Unset,
    At(NodeId),
    Done,
}

struct Leaf<'p> {
    /// `None` for a token the segment has never seen.
    cursor: Option<BlockCursor<'p>>,
    /// `R_token`'s token, which scores its tuples; `None` for `HasPos`.
    token: Option<&'p str>,
    /// Entries whose positions were materialized.
    materialized: u64,
    positions: u64,
}

struct Plan<'p, S: Scorer> {
    ops: Vec<Op<'p>>,
    landing: Vec<Landing>,
    rows: Vec<NodeRows<S::Score>>,
    leaves: Vec<Leaf<'p>>,
    scorer: &'p S,
    /// `SearchContext` is every node id below this.
    node_count: u32,
    /// Rows built at the node being evaluated, all operators.
    node_tuples: u64,
    /// Positions those rows hold, the quantity [`MAX_NODE_POSITIONS`] caps.
    node_positions: u64,
    tuples: u64,
}

impl<'p, S: Scorer> Plan<'p, S> {
    fn new(
        expr: &'p AlgExpr,
        corpus: &Corpus,
        index: &'p InvertedIndex,
        registry: &'p PredicateRegistry,
        scorer: &'p S,
    ) -> Self {
        let mut plan = Plan {
            ops: Vec::new(),
            landing: Vec::new(),
            rows: Vec::new(),
            leaves: Vec::new(),
            scorer,
            node_count: corpus.len() as u32,
            node_tuples: 0,
            node_positions: 0,
            tuples: 0,
        };
        plan.compile(expr, corpus, index, registry);
        plan
    }

    /// Append `expr`'s operators in post-order; returns the root's index.
    fn compile(
        &mut self,
        expr: &'p AlgExpr,
        corpus: &Corpus,
        index: &'p InvertedIndex,
        registry: &'p PredicateRegistry,
    ) -> usize {
        let sub = |e: &'p AlgExpr, plan: &mut Self| plan.compile(e, corpus, index, registry);
        let (op, arity) = match expr {
            AlgExpr::SearchContext => (Op::Context, 0),
            AlgExpr::HasPos => (self.leaf(Some(index.any_block_cursor()), None), 1),
            AlgExpr::TokenRel(tok) => {
                let cursor = corpus.token_id(tok).map(|id| index.block_cursor(id));
                (self.leaf(cursor, Some(tok)), 1)
            }
            AlgExpr::Project(e, cols) => (
                Op::Project {
                    input: sub(e, self),
                    cols,
                },
                cols.len(),
            ),
            AlgExpr::Join(a, b) => {
                let (a, b) = (sub(a, self), sub(b, self));
                (Op::Join(a, b), self.rows[a].arity() + self.rows[b].arity())
            }
            AlgExpr::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                let input = sub(input, self);
                let op = Op::Select {
                    input,
                    pred: registry.get(*pred),
                    cols,
                    consts,
                };
                (op, self.rows[input].arity())
            }
            AlgExpr::Union(a, b) => {
                let (a, b) = (sub(a, self), sub(b, self));
                (Op::Union(a, b), self.rows[a].arity())
            }
            AlgExpr::Intersect(a, b) => {
                let (a, b) = (sub(a, self), sub(b, self));
                (Op::Intersect(a, b), self.rows[a].arity())
            }
            AlgExpr::Difference(a, b) => {
                let (a, b) = (sub(a, self), sub(b, self));
                (Op::Difference(a, b), self.rows[a].arity())
            }
        };
        self.ops.push(op);
        self.landing.push(Landing::Unset);
        self.rows.push(NodeRows::new(arity));
        self.ops.len() - 1
    }

    fn leaf(&mut self, cursor: Option<BlockCursor<'p>>, token: Option<&'p str>) -> Op<'p> {
        self.leaves.push(Leaf {
            cursor,
            token,
            materialized: 0,
            positions: 0,
        });
        Op::Leaf(self.leaves.len() - 1)
    }

    /// The first candidate node ≥ `target` of operator `i`, or `None` when
    /// it has no more. Monotone and idempotent: an operator already at or
    /// past `target` stays put.
    fn seek(&mut self, i: usize, target: NodeId) -> Option<NodeId> {
        match self.landing[i] {
            Landing::At(n) if n >= target => return Some(n),
            Landing::Done => return None,
            _ => {}
        }
        let got = match self.ops[i] {
            Op::Context => (target.0 < self.node_count).then_some(target),
            Op::Leaf(k) => self.leaves[k].cursor.as_mut().and_then(|c| c.seek(target)),
            Op::Project { input, .. } | Op::Select { input, .. } | Op::Difference(input, _) => {
                self.seek(input, target)
            }
            Op::Join(a, b) | Op::Intersect(a, b) => self.leapfrog(a, b, target),
            Op::Union(a, b) => {
                let (x, y) = (self.seek(a, target), self.seek(b, target));
                x.into_iter().chain(y).min()
            }
        };
        self.landing[i] = got.map_or(Landing::Done, Landing::At);
        got
    }

    /// The first node ≥ `target` both `a` and `b` land on.
    fn leapfrog(&mut self, a: usize, b: usize, mut target: NodeId) -> Option<NodeId> {
        loop {
            let x = self.seek(a, target)?;
            let y = self.seek(b, x)?;
            if x == y {
                return Some(x);
            }
            target = y;
        }
    }

    /// Evaluate the whole expression at every candidate of the root — or,
    /// given `among`, at each listed node the root lands on when sought to
    /// it — handing each one's root rows to `emit`.
    fn run(
        &mut self,
        among: Option<&[NodeId]>,
        stats: &mut NodeStats,
        mut emit: impl FnMut(NodeId, &NodeRows<S::Score>),
    ) -> Result<(), AlgebraError> {
        let root = self.ops.len() - 1;
        if let Some(nodes) = among {
            for &node in nodes {
                match self.seek(root, node) {
                    Some(n) if n == node => self.visit(root, node, stats, &mut emit)?,
                    Some(_) => {}
                    None => break,
                }
            }
            return Ok(());
        }
        let mut next = NodeId(0);
        while let Some(node) = self.seek(root, next) {
            self.visit(root, node, stats, &mut emit)?;
            match node.0.checked_add(1) {
                Some(n) => next = NodeId(n),
                None => break,
            }
        }
        Ok(())
    }

    /// Evaluate the expression at `node`, which the root has landed on,
    /// and hand its root rows to `emit`.
    fn visit(
        &mut self,
        root: usize,
        node: NodeId,
        stats: &mut NodeStats,
        emit: &mut impl FnMut(NodeId, &NodeRows<S::Score>),
    ) -> Result<(), AlgebraError> {
        self.node_tuples = 0;
        self.node_positions = 0;
        self.eval(root, node)?;
        emit(node, &self.rows[root]);
        self.tuples += self.node_tuples;
        stats.nodes_evaluated += 1;
        stats.peak_node_tuples = stats.peak_node_tuples.max(self.node_tuples);
        self.trim();
        Ok(())
    }

    /// Free every buffer once their kept capacity passes the budget, so
    /// capacity grown at different nodes cannot add up past it.
    fn trim(&mut self) {
        let kept: usize = self.rows.iter().map(NodeRows::capacity).sum();
        if kept as u64 > MAX_NODE_POSITIONS {
            self.rows.iter_mut().for_each(NodeRows::release);
        }
    }

    /// `Err` unless the node can hold `more` positions on top of its own.
    fn reserve(&self, node: NodeId, more: u64) -> Result<(), AlgebraError> {
        let positions = self.node_positions.saturating_add(more);
        if positions > MAX_NODE_POSITIONS {
            return Err(AlgebraError::BudgetExceeded {
                node,
                positions,
                limit: MAX_NODE_POSITIONS,
            });
        }
        Ok(())
    }

    /// Fill `rows[i]` with operator `i`'s rows at `node`, which `i` has
    /// landed on. A join, intersection or difference whose left input is
    /// empty at the node skips its right input.
    fn eval(&mut self, i: usize, node: NodeId) -> Result<(), AlgebraError> {
        match self.ops[i] {
            Op::Context => self.rows[i].set_unit(self.scorer.context_tuple()),
            Op::Leaf(k) => {
                let leaf = &mut self.leaves[k];
                let positions = leaf
                    .cursor
                    .as_mut()
                    .expect("a leaf that landed has a cursor")
                    .positions();
                leaf.materialized += 1;
                leaf.positions += positions.len() as u64;
                let score = match leaf.token {
                    Some(token) => self.scorer.token_tuple(token, node),
                    None => self.scorer.any_tuple(),
                };
                self.rows[i].set_positions(positions, score);
            }
            Op::Project { input, cols } => {
                self.eval(input, node)?;
                let cells = self.rows[input].len() as u64 * cols.len() as u64;
                self.reserve(node, cells)?;
                let (inputs, out) = self.rows.split_at_mut(i);
                out[0].project(&inputs[input], cols, self.scorer);
            }
            Op::Select {
                input,
                pred,
                cols,
                consts,
            } => {
                self.eval(input, node)?;
                let (inputs, out) = self.rows.split_at_mut(i);
                out[0].select(&inputs[input], pred, cols, consts, self.scorer);
            }
            Op::Join(a, b) => {
                self.eval(a, node)?;
                if self.rows[a].is_empty() {
                    self.rows[i].clear();
                } else {
                    self.eval(b, node)?;
                    let cells = (self.rows[a].len() as u64)
                        .saturating_mul(self.rows[b].len() as u64)
                        .saturating_mul(self.rows[i].arity() as u64);
                    self.reserve(node, cells)?;
                    let (inputs, out) = self.rows.split_at_mut(i);
                    out[0].join(&inputs[a], &inputs[b], self.scorer);
                }
            }
            Op::Intersect(a, b) => {
                self.eval(a, node)?;
                if self.rows[a].is_empty() {
                    self.rows[i].clear();
                } else {
                    self.eval(b, node)?;
                    let (inputs, out) = self.rows.split_at_mut(i);
                    out[0].merge(&inputs[a], &inputs[b], SetOp::Intersect, self.scorer);
                }
            }
            Op::Difference(a, b) => {
                self.eval(a, node)?;
                if !self.rows[a].is_empty() && self.seek(b, node) == Some(node) {
                    self.eval(b, node)?;
                } else {
                    self.rows[b].clear();
                }
                let (inputs, out) = self.rows.split_at_mut(i);
                out[0].merge(&inputs[a], &inputs[b], SetOp::Difference, self.scorer);
            }
            Op::Union(a, b) => {
                for c in [a, b] {
                    if self.landing[c] == Landing::At(node) {
                        self.eval(c, node)?;
                    } else {
                        self.rows[c].clear();
                    }
                }
                let (inputs, out) = self.rows.split_at_mut(i);
                out[0].merge(&inputs[a], &inputs[b], SetOp::Union, self.scorer);
            }
        }
        let rows = &self.rows[i];
        self.node_tuples += rows.len() as u64;
        self.node_positions += (rows.len() * rows.arity()) as u64;
        self.reserve(node, 0)
    }

    /// Fold the walk's work into the evaluator's counters: the leaf
    /// cursors' own entry / skip / decode counts, plus the positions and
    /// tuples materialized.
    fn charge(self, counters: &mut AccessCounters, stats: &mut NodeStats) {
        counters.tuples += self.tuples;
        for leaf in self.leaves {
            let Some(cursor) = leaf.cursor else { continue };
            let c = cursor.counters();
            *counters += c;
            counters.positions += leaf.positions;
            stats.nodes_skipped += (c.entries + c.skipped).saturating_sub(leaf.materialized);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ops::*;
    use ftsl_index::IndexBuilder;

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
        let rows: Vec<(u32, u32, u32)> = r
            .iter()
            .map(|(n, ps)| (n.0, ps[0].offset, ps[1].offset))
            .collect();
        assert_eq!(
            rows,
            vec![
                (0, 0, 0),
                (1, 1, 1),
                (2, 0, 0),
                (2, 0, 1),
                (2, 1, 0),
                (2, 1, 1)
            ]
        );
        let c = ev.counters();
        // Two leaves of 1+1+2 rows, plus the 6 joined.
        assert_eq!(c.tuples, 8 + 6);
        assert_eq!(c.positions, 8);
        assert_eq!(c.positions_decoded, 8);
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

    #[test]
    fn ranking_among_listed_nodes_builds_only_those() {
        let (corpus, index, reg) = setup();
        // Answer: nodes 0 and 1; "test" alone also holds node 2.
        let e = project_nodes(join(token("test"), token("usability")));
        let full = AlgebraEvaluator::new(&corpus, &index, &reg)
            .rank(&e)
            .unwrap();
        assert_eq!(full, vec![(NodeId(0), ()), (NodeId(1), ())]);
        let among = |nodes: &[u32]| {
            let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
            let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
            let hits = ev.rank_among(&e, &nodes).unwrap();
            (hits, ev.node_stats().nodes_evaluated, ev.counters().tuples)
        };
        let (hits, evaluated, _) = among(&[0, 1]);
        assert_eq!((hits, evaluated), (full.clone(), 2));
        // Node 1 answers; sought to node 2, the root runs out.
        let (hits, evaluated, _) = among(&[1, 2, 3]);
        assert_eq!((hits, evaluated), (full[1..].to_vec(), 1));
        let (hits, evaluated, tuples) = among(&[]);
        assert_eq!((hits.len(), evaluated, tuples), (0, 0, 0));
    }

    #[test]
    fn nodes_missing_a_joined_leaf_are_never_materialized() {
        // "driven" is only in node 0: the join visits one node, and the
        // other "test" / "usability" entries are passed over by seek.
        let (corpus, index, reg) = setup();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let e = join(join(token("test"), token("usability")), token("driven"));
        let r = ev.eval(&e).unwrap();
        assert_eq!(nodes(&r), vec![0]);
        let stats = ev.node_stats();
        assert_eq!(stats.nodes_evaluated, 1);
        // "test" and "usability" each land on node 1 without building it.
        assert_eq!(stats.nodes_skipped, 2, "{stats:?}");
        // Three one-row leaves, one 1×1 join, one 1×1×1 join.
        assert_eq!(ev.counters().tuples, 5);
        assert_eq!(stats.peak_node_tuples, 5);
    }

    #[test]
    fn rows_held_at_once_peak_at_the_largest_node() {
        // Node n repeats "t" n+1 times: the join's per-node relations are
        // 1, 4, 9, 16 rows, 30 in all — the evaluator holds at most one
        // node's (the leaves' 4 + 4 and the join's 16).
        let corpus = Corpus::from_texts(&["t", "t t", "t t t", "t t t t"]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        let r = ev.eval(&join(token("t"), token("t"))).unwrap();
        assert_eq!(r.len(), 30);
        assert_eq!(ev.counters().tuples, 30 + 2 * 10);
        assert_eq!(ev.node_stats().peak_node_tuples, 16 + 2 * 4);
        assert_eq!(ev.node_stats().nodes_evaluated, 4);
    }

    #[test]
    fn a_cross_product_over_the_budget_is_refused() {
        let text = vec!["t"; 200].join(" ");
        let corpus = Corpus::from_texts(&["t", &text]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        // 200² rows of two positions fit; 200³ rows of three do not, on
        // top of the three leaves and the inner join already held.
        assert!(ev.eval(&join(token("t"), token("t"))).is_ok());
        let three = join(join(token("t"), token("t")), token("t"));
        assert_eq!(
            ev.eval(&three),
            Err(AlgebraError::BudgetExceeded {
                node: NodeId(1),
                positions: 3 * 200 + 2 * 200 * 200 + 3 * 200 * 200 * 200,
                limit: MAX_NODE_POSITIONS,
            })
        );
        // The padding HasPos^k is a join too.
        let padded = join(join(AlgExpr::HasPos, AlgExpr::HasPos), AlgExpr::HasPos);
        assert!(matches!(
            ev.eval(&padded),
            Err(AlgebraError::BudgetExceeded { .. })
        ));
    }

    /// Occurrences of each arm's token in the arm tests below.
    const ARM_TF: usize = 400;

    /// `∃a ∃b (a HAS tok ∧ b HAS tok ∧ diffpos(a, b))`: two leaves of
    /// [`ARM_TF`] positions, a join of `ARM_TF²` rows of two positions and
    /// the `ARM_TF² − ARM_TF` the predicate keeps, at a node repeating
    /// `tok` — well under the budget on its own. The predicate binds both
    /// join columns, so push-down cannot shrink the join.
    fn arm(tok: &str) -> AlgExpr {
        let diffpos = PredicateRegistry::with_builtins()
            .lookup("diffpos")
            .unwrap();
        project_nodes(select(join(token(tok), token(tok)), diffpos, &[0, 1], &[]))
    }

    /// How many arms together hold more than the budget at one node.
    fn arms_over_budget() -> usize {
        let per_arm = 2 * ARM_TF + 2 * ARM_TF * ARM_TF + 2 * (ARM_TF * ARM_TF - ARM_TF);
        MAX_NODE_POSITIONS as usize / per_arm + 1
    }

    #[test]
    fn arms_under_the_budget_are_refused_together() {
        // A union's arms all stay live at the node, so the budget counts
        // every operator's rows there, not one join's.
        let text = vec!["t"; ARM_TF].join(" ");
        let corpus = Corpus::from_texts(&[&text]);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let mut ev = AlgebraEvaluator::new(&corpus, &index, &reg);
        assert!(ev.eval(&arm("t")).is_ok());
        let chain = (1..arms_over_budget()).fold(arm("t"), |e, _| union(e, arm("t")));
        assert!(matches!(
            ev.eval(&chain),
            Err(AlgebraError::BudgetExceeded {
                node: NodeId(0),
                ..
            })
        ));
    }

    #[test]
    fn capacity_kept_from_earlier_nodes_is_freed_past_the_budget() {
        // Arm k's token fills only node k, so every node grows a different
        // arm's buffers; kept, they would add up past the budget.
        let arms = arms_over_budget();
        let tokens: Vec<String> = (0..arms).map(|k| format!("t{k}")).collect();
        let texts: Vec<String> = tokens
            .iter()
            .map(|t| vec![t.as_str(); ARM_TF].join(" "))
            .collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let reg = PredicateRegistry::with_builtins();
        let e = tokens[1..]
            .iter()
            .fold(arm(&tokens[0]), |e, t| union(e, arm(t)));
        let mut plan = Plan::new(&e, &corpus, &index, &reg, &Unscored);
        let mut out = FtRelation::new(0);
        plan.run(None, &mut NodeStats::default(), |node, rows| {
            out.push_node(node, rows)
        })
        .unwrap();
        assert_eq!(out.len(), arms);
        let kept: usize = plan.rows.iter().map(NodeRows::capacity).sum();
        assert!(kept as u64 <= MAX_NODE_POSITIONS, "{kept} positions kept");
    }
}
