//! Full-text relations: `R[CNode, att1..attm]` with flat row-major storage
//! and a score column.
//!
//! Every FTA operator is node-local, so relations come in two shapes:
//! [`FtRelation`], a whole segment's relation (the evaluator's answer), and
//! `NodeRows`, the rows of **one** context node — the unit the
//! node-at-a-time evaluator builds, and what the operator kernels below act
//! on. Both are **canonical**: rows sorted by their positions' offsets with
//! duplicates removed, so set operations are linear merges. Each row
//! carries a score of the evaluator's [`Scorer`], which the kernel building
//! the row computes; unscored, the column is `()` and takes no room.

use crate::scorer::Scorer;
use ftsl_model::{NodeId, Position};
use ftsl_predicates::Predicate;
use std::cmp::Ordering;

/// Row order: lexicographic over the positions' offsets (an offset
/// identifies a position within its node).
fn row_cmp(a: &[Position], b: &[Position]) -> Ordering {
    a.iter().map(|p| p.offset).cmp(b.iter().map(|p| p.offset))
}

/// A materialized full-text relation.
///
/// Tuples are stored row-major: `positions[i*arity .. (i+1)*arity]` are the
/// position attributes of row `i`, whose context node is `nodes[i]` and
/// whose score is `scores[i]`. Rows are canonical: sorted by
/// `(node, positions)`, no duplicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FtRelation<S = ()> {
    arity: usize,
    nodes: Vec<NodeId>,
    positions: Vec<Position>,
    scores: Vec<S>,
}

impl<S: Copy> FtRelation<S> {
    /// An empty relation with `arity` position attributes.
    pub fn new(arity: usize) -> Self {
        FtRelation {
            arity,
            nodes: Vec::new(),
            positions: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Number of position attributes (`m`).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append one node's rows. Nodes must arrive in ascending order.
    pub(crate) fn push_node(&mut self, node: NodeId, rows: &NodeRows<S>) {
        debug_assert_eq!(rows.arity, self.arity);
        debug_assert!(self.nodes.last().is_none_or(|&last| last < node));
        self.nodes.extend(std::iter::repeat_n(node, rows.len()));
        self.positions.extend_from_slice(&rows.cells);
        self.scores.extend_from_slice(&rows.scores);
    }

    /// The `i`-th tuple.
    pub fn tuple(&self, i: usize) -> (NodeId, &[Position]) {
        (
            self.nodes[i],
            &self.positions[i * self.arity..(i + 1) * self.arity],
        )
    }

    /// Iterate all tuples.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[Position])> {
        (0..self.len()).map(move |i| self.tuple(i))
    }

    /// The score column: the `i`-th tuple's score is the `i`-th entry.
    pub fn scores(&self) -> &[S] {
        &self.scores
    }

    /// The distinct node ids of all tuples (the final answer of an algebra
    /// query, which by definition has arity 0 — but useful at any arity).
    pub fn distinct_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.nodes.clone();
        out.dedup();
        out
    }
}

/// The set operators, which share one merge.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetOp {
    Union,
    Intersect,
    Difference,
}

/// One context node's rows of a full-text relation, canonical, with their
/// scores.
///
/// An arity-0 relation holds at most one (empty) row per node: "this node
/// is in the relation". The operator kernels write into `self` from inputs
/// that are canonical, and keep it canonical without a sort except where a
/// projection genuinely permutes columns. Buffers are reused node after
/// node, so after warm-up they allocate nothing.
#[derive(Clone, Debug)]
pub(crate) struct NodeRows<S> {
    arity: usize,
    cells: Vec<Position>,
    /// One score per row, so its length is the row count (arity-0 rows
    /// hold no cells).
    scores: Vec<S>,
    /// Projection and selection scratch (permuted rows, predicate args).
    spare: Vec<Position>,
    /// The permuted rows' scores, in sorted order.
    spare_scores: Vec<S>,
    /// Sort order for a permuting projection.
    order: Vec<u32>,
}

impl<S: Copy> NodeRows<S> {
    /// No rows, `arity` position attributes.
    pub(crate) fn new(arity: usize) -> Self {
        NodeRows {
            arity,
            cells: Vec::new(),
            scores: Vec::new(),
            spare: Vec::new(),
            spare_scores: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Number of position attributes.
    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.scores.len()
    }

    /// True iff there are no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The rows' scores, in row order.
    pub(crate) fn scores(&self) -> &[S] {
        &self.scores
    }

    /// The `i`-th row.
    pub(crate) fn row(&self, i: usize) -> &[Position] {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate the rows in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Position]> {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Drop every row, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
        self.scores.clear();
    }

    /// Positions (and sort slots) the buffers can hold without growing.
    /// Score slots are not counted: each belongs to a row, and every row
    /// but the one arity-0 row an operator holds at a node has positions.
    pub(crate) fn capacity(&self) -> usize {
        self.cells.capacity() + self.spare.capacity() + self.order.capacity()
    }

    /// Drop every row and free the buffers.
    pub(crate) fn release(&mut self) {
        *self = NodeRows::new(self.arity);
    }

    /// Append a row; rows must arrive in canonical order (or be followed
    /// by [`Self::canonicalize`]).
    pub(crate) fn push(&mut self, row: &[Position], score: S) {
        debug_assert_eq!(row.len(), self.arity);
        self.cells.extend_from_slice(row);
        self.scores.push(score);
    }

    /// The single arity-0 row: this node is in the relation.
    pub(crate) fn set_unit(&mut self, score: S) {
        debug_assert_eq!(self.arity, 0);
        self.clear();
        self.scores.push(score);
    }

    /// An arity-1 leaf: one row per position, each scored `score` (a
    /// posting's positions are ascending and distinct, hence already
    /// canonical).
    pub(crate) fn set_positions(&mut self, positions: &[Position], score: S) {
        debug_assert_eq!(self.arity, 1);
        self.cells.clear();
        self.cells.extend_from_slice(positions);
        self.scores.clear();
        self.scores.resize(positions.len(), score);
    }

    /// Sort rows and collapse equal ones — needed only after a projection
    /// that permutes columns. A collapsed row scores `project` over its
    /// rows' scores in the order the rows had: ties in the sort are broken
    /// by that order, a stable sort without a stable sort's buffer.
    pub(crate) fn canonicalize<Sc: Scorer<Score = S>>(&mut self, scorer: &Sc) {
        let arity = self.arity;
        let cells = &self.cells;
        let row = |i: u32| &cells[i as usize * arity..(i as usize + 1) * arity];
        self.order.clear();
        self.order.extend(0..self.scores.len() as u32);
        self.order
            .sort_unstable_by(|&a, &b| row_cmp(row(a), row(b)).then_with(|| a.cmp(&b)));
        // Sorted, each collapsing group's scores are one run of these.
        self.spare_scores.clear();
        self.spare_scores
            .extend(self.order.iter().map(|&i| self.scores[i as usize]));
        self.spare.clear();
        self.scores.clear();
        let mut start = 0;
        while start < self.order.len() {
            let first = row(self.order[start]);
            let end = start
                + self.order[start..]
                    .iter()
                    .take_while(|&&i| row(i) == first)
                    .count();
            self.spare.extend_from_slice(first);
            self.scores
                .push(scorer.project(&self.spare_scores[start..end]));
            start = end;
        }
        std::mem::swap(&mut self.cells, &mut self.spare);
    }

    /// `⋈` within one node: the cartesian product of the two inputs' rows.
    /// Rows come out in `(left, right)` order, which is canonical for
    /// canonical inputs — no sort.
    pub(crate) fn join<Sc: Scorer<Score = S>>(&mut self, left: &Self, right: &Self, scorer: &Sc) {
        debug_assert_eq!(self.arity, left.arity + right.arity);
        self.clear();
        let (lg, rg) = (left.len(), right.len());
        self.cells.reserve(lg * rg * self.arity);
        self.scores.reserve(lg * rg);
        for (l, &ls) in left.rows().zip(&left.scores) {
            for (r, &rs) in right.rows().zip(&right.scores) {
                self.cells.extend_from_slice(l);
                self.cells.extend_from_slice(r);
                self.scores.push(scorer.join(ls, rs, lg, rg));
            }
        }
    }

    /// `σ`: keep the input rows where `pred` holds on the columns `cols`
    /// with constants `consts`. Order is preserved.
    pub(crate) fn select<Sc: Scorer<Score = S>>(
        &mut self,
        input: &Self,
        pred: &dyn Predicate,
        cols: &[usize],
        consts: &[i64],
        scorer: &Sc,
    ) {
        debug_assert_eq!(self.arity, input.arity);
        self.clear();
        for (row, &score) in input.rows().zip(&input.scores) {
            self.spare.clear();
            self.spare.extend(cols.iter().map(|&c| row[c]));
            if pred.eval(&self.spare, consts) {
                let score = scorer.select(score, pred, &self.spare, consts);
                self.push(row, score);
            }
        }
    }

    /// `π` onto `cols` (in the given order; `CNode` is implicit). A column
    /// prefix — what `∃` over the innermost variable produces — keeps the
    /// input order, so each collapsing group's rows are adjacent; only a
    /// genuine permutation sorts.
    pub(crate) fn project<Sc: Scorer<Score = S>>(
        &mut self,
        input: &Self,
        cols: &[usize],
        scorer: &Sc,
    ) {
        debug_assert_eq!(self.arity, cols.len());
        self.clear();
        if cols.iter().enumerate().all(|(i, &c)| i == c) {
            let k = cols.len();
            let mut start = 0;
            for i in 1..=input.len() {
                if i == input.len() || input.row(i)[..k] != input.row(start)[..k] {
                    self.cells.extend_from_slice(&input.row(start)[..k]);
                    self.scores.push(scorer.project(&input.scores[start..i]));
                    start = i;
                }
            }
        } else {
            for (row, &score) in input.rows().zip(&input.scores) {
                self.cells.extend(cols.iter().map(|&c| row[c]));
                self.scores.push(score);
            }
            self.canonicalize(scorer);
        }
    }

    /// `∪`, `∩` or `−` of two canonical inputs: a linear merge keeping rows
    /// in either, in both, or only in `a`, each scored by `op`'s
    /// transformation.
    pub(crate) fn merge<Sc: Scorer<Score = S>>(
        &mut self,
        a: &Self,
        b: &Self,
        op: SetOp,
        scorer: &Sc,
    ) {
        debug_assert_eq!(a.arity, b.arity);
        debug_assert_eq!(self.arity, a.arity);
        self.clear();
        let (mut i, mut j) = (0, 0);
        loop {
            let ord = match (i < a.len(), j < b.len()) {
                (true, true) => row_cmp(a.row(i), b.row(j)),
                (true, false) if op != SetOp::Intersect => Ordering::Less,
                (false, true) if op == SetOp::Union => Ordering::Greater,
                _ => break,
            };
            match ord {
                Ordering::Less => {
                    let s = a.scores[i];
                    match op {
                        SetOp::Union => self.push(a.row(i), scorer.union(Some(s), None)),
                        SetOp::Difference => self.push(a.row(i), scorer.difference(s)),
                        SetOp::Intersect => {}
                    }
                    i += 1;
                }
                Ordering::Greater => {
                    if op == SetOp::Union {
                        self.push(b.row(j), scorer.union(None, Some(b.scores[j])));
                    }
                    j += 1;
                }
                Ordering::Equal => {
                    let (s, t) = (a.scores[i], b.scores[j]);
                    match op {
                        SetOp::Union => self.push(a.row(i), scorer.union(Some(s), Some(t))),
                        SetOp::Intersect => self.push(a.row(i), scorer.intersect(s, t)),
                        SetOp::Difference => {}
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::Unscored;
    use ftsl_predicates::PredicateRegistry;

    fn p(o: u32) -> Position {
        Position::flat(o)
    }

    /// One node's rows, canonicalized.
    fn rows(arity: usize, rows: &[&[u32]]) -> NodeRows<()> {
        let mut r = NodeRows::new(arity);
        for ps in rows {
            let row: Vec<Position> = ps.iter().map(|&o| p(o)).collect();
            r.push(&row, ());
        }
        r.canonicalize(&Unscored);
        r
    }

    fn offsets<S: Copy>(r: &NodeRows<S>) -> Vec<Vec<u32>> {
        r.rows()
            .map(|row| row.iter().map(|p| p.offset).collect())
            .collect()
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let r = rows(1, &[&[9], &[3], &[9], &[5]]);
        assert_eq!(offsets(&r), vec![vec![3], vec![5], vec![9]]);
        let r = rows(2, &[&[2, 1], &[1, 9], &[2, 1], &[1, 3]]);
        assert_eq!(offsets(&r), vec![vec![1, 3], vec![1, 9], vec![2, 1]]);
    }

    #[test]
    fn join_is_per_node_cartesian_product() {
        let a = rows(1, &[&[20], &[10]]);
        let b = rows(1, &[&[8], &[7]]);
        let mut j = NodeRows::new(2);
        j.join(&a, &b, &Unscored);
        assert_eq!(
            offsets(&j),
            vec![vec![10, 7], vec![10, 8], vec![20, 7], vec![20, 8]]
        );
        // Canonical with no sort: canonicalizing changes nothing.
        let before = offsets(&j);
        j.canonicalize(&Unscored);
        assert_eq!(offsets(&j), before);
    }

    #[test]
    fn join_with_arity0_is_a_semijoin() {
        let a = rows(1, &[&[10], &[30]]);
        let mut present = NodeRows::new(0);
        present.set_unit(());
        let mut j = NodeRows::new(1);
        j.join(&a, &present, &Unscored);
        assert_eq!(offsets(&j), vec![vec![10], vec![30]]);
        j.join(&a, &NodeRows::new(0), &Unscored);
        assert!(j.is_empty());
    }

    #[test]
    fn project_permutes_and_dedups() {
        let a = rows(2, &[&[10, 7], &[10, 8]]);
        let mut swapped = NodeRows::new(2);
        swapped.project(&a, &[1, 0], &Unscored);
        assert_eq!(offsets(&swapped), vec![vec![7, 10], vec![8, 10]]);
        let mut first_only = NodeRows::new(1);
        first_only.project(&a, &[0], &Unscored);
        assert_eq!(offsets(&first_only), vec![vec![10]]);
        // A non-prefix subset must sort: (1,9),(2,3) onto column 1.
        let b = rows(2, &[&[1, 9], &[2, 3]]);
        let mut second = NodeRows::new(1);
        second.project(&b, &[1], &Unscored);
        assert_eq!(offsets(&second), vec![vec![3], vec![9]]);
        let mut none = NodeRows::new(0);
        none.project(&b, &[], &Unscored);
        assert_eq!(none.len(), 1);
    }

    /// Scores are digits and every transformation writes its inputs'
    /// digits side by side, so a score spells the order it was built in.
    struct Digits;

    impl Scorer for Digits {
        type Score = u64;

        fn token_tuple(&self, _token: &str, _node: NodeId) -> u64 {
            0
        }

        fn any_tuple(&self) -> u64 {
            0
        }

        fn context_tuple(&self) -> u64 {
            0
        }

        fn join(&self, left: u64, right: u64, _: usize, _: usize) -> u64 {
            left * 10 + right
        }

        fn project(&self, scores: &[u64]) -> u64 {
            scores.iter().fold(0, |acc, &s| acc * 10 + s)
        }

        fn select(&self, score: u64, _: &dyn Predicate, _: &[Position], _: &[i64]) -> u64 {
            score
        }

        fn union(&self, left: Option<u64>, right: Option<u64>) -> u64 {
            left.unwrap_or(0) * 10 + right.unwrap_or(0)
        }

        fn intersect(&self, left: u64, right: u64) -> u64 {
            left * 10 + right
        }

        fn difference(&self, left: u64) -> u64 {
            left
        }
    }

    #[test]
    fn a_permuting_projection_folds_each_group_in_input_order() {
        // Onto column 1, rows 2 and 4 collapse into (3) and rows 1, 3 and
        // 5 into (9); each group's scores reach `project` as they arrived.
        let mut input = NodeRows::new(2);
        for (score, row) in [
            (1, [1, 9]),
            (2, [2, 3]),
            (3, [3, 9]),
            (4, [4, 3]),
            (5, [5, 9]),
        ] {
            input.push(&row.map(p), score);
        }
        let mut out = NodeRows::new(1);
        out.project(&input, &[1], &Digits);
        assert_eq!(offsets(&out), vec![vec![3], vec![9]]);
        assert_eq!(out.scores(), [24, 135]);
        // A prefix projection's groups are adjacent runs, folded alike.
        let mut none = NodeRows::new(0);
        none.project(&input, &[], &Digits);
        assert_eq!(none.scores(), [12345]);
    }

    #[test]
    fn select_applies_predicate_on_columns() {
        let reg = PredicateRegistry::with_builtins();
        let distance = reg.get(reg.lookup("distance").unwrap());
        let a = rows(2, &[&[3, 25], &[39, 42]]);
        let mut s = NodeRows::new(2);
        s.select(&a, distance, &[0, 1], &[5], &Unscored);
        assert_eq!(offsets(&s), vec![vec![39, 42]]);
    }

    #[test]
    fn set_operations() {
        let a = rows(1, &[&[1], &[2], &[3]]);
        let b = rows(1, &[&[2], &[4]]);
        let mut out = NodeRows::new(1);
        out.merge(&a, &b, SetOp::Union, &Unscored);
        assert_eq!(offsets(&out), vec![vec![1], vec![2], vec![3], vec![4]]);
        out.merge(&a, &b, SetOp::Intersect, &Unscored);
        assert_eq!(offsets(&out), vec![vec![2]]);
        out.merge(&a, &b, SetOp::Difference, &Unscored);
        assert_eq!(offsets(&out), vec![vec![1], vec![3]]);
        out.merge(&b, &a, SetOp::Difference, &Unscored);
        assert_eq!(offsets(&out), vec![vec![4]]);
    }

    #[test]
    fn arity0_relations_model_node_sets() {
        let mut whole = FtRelation::new(0);
        let mut present = NodeRows::new(0);
        present.set_unit(());
        whole.push_node(NodeId(1), &present);
        whole.push_node(NodeId(2), &NodeRows::new(0));
        whole.push_node(NodeId(3), &present);
        assert_eq!(whole.len(), 2);
        assert_eq!(whole.distinct_nodes(), vec![NodeId(1), NodeId(3)]);
        let mut out = NodeRows::new(0);
        out.merge(&present, &NodeRows::new(0), SetOp::Difference, &Unscored);
        assert_eq!(out.len(), 1);
        out.merge(&present, &present, SetOp::Difference, &Unscored);
        assert!(out.is_empty());
    }
}
