//! Full-text relations: `R[CNode, att1..attm]` with flat row-major storage.
//!
//! Every FTA operator is node-local, so relations come in two shapes:
//! [`FtRelation`], a whole segment's relation (the evaluator's answer), and
//! `NodeRows`, the rows of **one** context node — the unit the
//! node-at-a-time evaluator builds, and what the operator kernels below act
//! on. Both are **canonical**: rows sorted by their positions' offsets with
//! duplicates removed, so set operations are linear merges.

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
/// position attributes of row `i`, whose context node is `nodes[i]`. Rows
/// are canonical: sorted by `(node, positions)`, no duplicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FtRelation {
    arity: usize,
    nodes: Vec<NodeId>,
    positions: Vec<Position>,
}

impl FtRelation {
    /// An empty relation with `arity` position attributes.
    pub fn new(arity: usize) -> Self {
        FtRelation {
            arity,
            nodes: Vec::new(),
            positions: Vec::new(),
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
    pub(crate) fn push_node(&mut self, node: NodeId, rows: &NodeRows) {
        debug_assert_eq!(rows.arity, self.arity);
        debug_assert!(self.nodes.last().is_none_or(|&last| last < node));
        self.nodes.extend(std::iter::repeat_n(node, rows.len));
        self.positions.extend_from_slice(&rows.cells);
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

    /// The distinct node ids of all tuples (the final answer of an algebra
    /// query, which by definition has arity 0 — but useful at any arity).
    pub fn distinct_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.nodes.clone();
        out.dedup();
        out
    }
}

/// One context node's rows of a full-text relation, canonical.
///
/// An arity-0 relation holds at most one (empty) row per node: "this node
/// is in the relation". The operator kernels write into `self` from inputs
/// that are canonical, and keep it canonical without a sort except where a
/// projection genuinely permutes columns. Buffers are reused node after
/// node, so after warm-up they allocate nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeRows {
    arity: usize,
    len: usize,
    cells: Vec<Position>,
    /// Projection and selection scratch (permuted rows, predicate args).
    spare: Vec<Position>,
    /// Sort order for a permuting projection.
    order: Vec<u32>,
}

impl NodeRows {
    /// No rows, `arity` position attributes.
    pub(crate) fn new(arity: usize) -> Self {
        NodeRows {
            arity,
            ..NodeRows::default()
        }
    }

    /// Number of position attributes.
    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th row.
    pub(crate) fn row(&self, i: usize) -> &[Position] {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate the rows in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Position]> {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Drop every row, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.cells.clear();
    }

    /// Positions (and sort slots) the buffers can hold without growing.
    pub(crate) fn capacity(&self) -> usize {
        self.cells.capacity() + self.spare.capacity() + self.order.capacity()
    }

    /// Drop every row and free the buffers.
    pub(crate) fn release(&mut self) {
        *self = NodeRows::new(self.arity);
    }

    /// Append a row; rows must arrive in canonical order (or be followed
    /// by [`Self::canonicalize`]).
    pub(crate) fn push(&mut self, row: &[Position]) {
        debug_assert_eq!(row.len(), self.arity);
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    /// The single arity-0 row: this node is in the relation.
    pub(crate) fn set_unit(&mut self) {
        debug_assert_eq!(self.arity, 0);
        self.len = 1;
    }

    /// An arity-1 leaf: one row per position (a posting's positions are
    /// ascending and distinct, hence already canonical).
    pub(crate) fn set_positions(&mut self, positions: &[Position]) {
        debug_assert_eq!(self.arity, 1);
        self.cells.clear();
        self.cells.extend_from_slice(positions);
        self.len = positions.len();
    }

    /// Sort rows and remove duplicates — needed only after a projection
    /// that permutes columns.
    pub(crate) fn canonicalize(&mut self) {
        let arity = self.arity;
        if arity == 0 || self.len < 2 {
            return;
        }
        let cells = &self.cells;
        let row = |i: u32| &cells[i as usize * arity..(i as usize + 1) * arity];
        self.order.clear();
        self.order.extend(0..self.len as u32);
        self.order
            .sort_unstable_by(|&a, &b| row_cmp(row(a), row(b)));
        self.order.dedup_by(|a, b| row(*a) == row(*b));
        self.spare.clear();
        for &i in &self.order {
            self.spare.extend_from_slice(row(i));
        }
        std::mem::swap(&mut self.cells, &mut self.spare);
        self.len = self.order.len();
    }

    /// `⋈` within one node: the cartesian product of the two inputs' rows.
    /// Rows come out in `(left, right)` order, which is canonical for
    /// canonical inputs — no sort.
    pub(crate) fn join(&mut self, left: &NodeRows, right: &NodeRows) {
        debug_assert_eq!(self.arity, left.arity + right.arity);
        self.clear();
        self.cells.reserve(left.len * right.len * self.arity);
        for l in left.rows() {
            for r in right.rows() {
                self.cells.extend_from_slice(l);
                self.cells.extend_from_slice(r);
            }
        }
        self.len = left.len * right.len;
    }

    /// `σ`: keep the input rows where `pred` holds on the columns `cols`
    /// with constants `consts`. Order is preserved.
    pub(crate) fn select(
        &mut self,
        input: &NodeRows,
        pred: &dyn Predicate,
        cols: &[usize],
        consts: &[i64],
    ) {
        debug_assert_eq!(self.arity, input.arity);
        self.clear();
        for row in input.rows() {
            self.spare.clear();
            self.spare.extend(cols.iter().map(|&c| row[c]));
            if pred.eval(&self.spare, consts) {
                self.push(row);
            }
        }
    }

    /// `π` onto `cols` (in the given order; `CNode` is implicit). A column
    /// prefix — what `∃` over the innermost variable produces — keeps the
    /// input order, so duplicates are adjacent; only a genuine permutation
    /// sorts.
    pub(crate) fn project(&mut self, input: &NodeRows, cols: &[usize]) {
        debug_assert_eq!(self.arity, cols.len());
        self.clear();
        if cols.iter().enumerate().all(|(i, &c)| i == c) {
            let k = cols.len();
            for row in input.rows() {
                let prefix = &row[..k];
                if self.len == 0 || self.row(self.len - 1) != prefix {
                    self.push(prefix);
                }
            }
        } else {
            for row in input.rows() {
                self.cells.extend(cols.iter().map(|&c| row[c]));
            }
            self.len = input.len;
            self.canonicalize();
        }
    }

    /// `∪` of two canonical inputs: a linear merge.
    pub(crate) fn union(&mut self, a: &NodeRows, b: &NodeRows) {
        self.merge(a, b, true, true, true);
    }

    /// `∩` of two canonical inputs: a linear merge.
    pub(crate) fn intersect(&mut self, a: &NodeRows, b: &NodeRows) {
        self.merge(a, b, false, true, false);
    }

    /// `−` of two canonical inputs: a linear merge.
    pub(crate) fn difference(&mut self, a: &NodeRows, b: &NodeRows) {
        self.merge(a, b, true, false, false);
    }

    /// Merge two canonical row lists, keeping rows only in `a`, in both,
    /// and only in `b` as the three flags say.
    fn merge(&mut self, a: &NodeRows, b: &NodeRows, only_a: bool, both: bool, only_b: bool) {
        debug_assert_eq!(a.arity, b.arity);
        debug_assert_eq!(self.arity, a.arity);
        self.clear();
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            let (x, y) = (a.row(i), b.row(j));
            match row_cmp(x, y) {
                Ordering::Less => {
                    if only_a {
                        self.push(x);
                    }
                    i += 1;
                }
                Ordering::Greater => {
                    if only_b {
                        self.push(y);
                    }
                    j += 1;
                }
                Ordering::Equal => {
                    if both {
                        self.push(x);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        if only_a {
            (i..a.len).for_each(|i| self.push(a.row(i)));
        }
        if only_b {
            (j..b.len).for_each(|j| self.push(b.row(j)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_predicates::PredicateRegistry;

    fn p(o: u32) -> Position {
        Position::flat(o)
    }

    /// One node's rows, canonicalized.
    fn rows(arity: usize, rows: &[&[u32]]) -> NodeRows {
        let mut r = NodeRows::new(arity);
        for ps in rows {
            let row: Vec<Position> = ps.iter().map(|&o| p(o)).collect();
            r.push(&row);
        }
        r.canonicalize();
        r
    }

    fn offsets(r: &NodeRows) -> Vec<Vec<u32>> {
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
        j.join(&a, &b);
        assert_eq!(
            offsets(&j),
            vec![vec![10, 7], vec![10, 8], vec![20, 7], vec![20, 8]]
        );
        // Canonical with no sort: canonicalizing changes nothing.
        let before = offsets(&j);
        j.canonicalize();
        assert_eq!(offsets(&j), before);
    }

    #[test]
    fn join_with_arity0_is_a_semijoin() {
        let a = rows(1, &[&[10], &[30]]);
        let mut present = NodeRows::new(0);
        present.set_unit();
        let mut j = NodeRows::new(1);
        j.join(&a, &present);
        assert_eq!(offsets(&j), vec![vec![10], vec![30]]);
        j.join(&a, &NodeRows::new(0));
        assert!(j.is_empty());
    }

    #[test]
    fn project_permutes_and_dedups() {
        let a = rows(2, &[&[10, 7], &[10, 8]]);
        let mut swapped = NodeRows::new(2);
        swapped.project(&a, &[1, 0]);
        assert_eq!(offsets(&swapped), vec![vec![7, 10], vec![8, 10]]);
        let mut first_only = NodeRows::new(1);
        first_only.project(&a, &[0]);
        assert_eq!(offsets(&first_only), vec![vec![10]]);
        // A non-prefix subset must sort: (1,9),(2,3) onto column 1.
        let b = rows(2, &[&[1, 9], &[2, 3]]);
        let mut second = NodeRows::new(1);
        second.project(&b, &[1]);
        assert_eq!(offsets(&second), vec![vec![3], vec![9]]);
        let mut none = NodeRows::new(0);
        none.project(&b, &[]);
        assert_eq!(none.len(), 1);
    }

    #[test]
    fn select_applies_predicate_on_columns() {
        let reg = PredicateRegistry::with_builtins();
        let distance = reg.get(reg.lookup("distance").unwrap());
        let a = rows(2, &[&[3, 25], &[39, 42]]);
        let mut s = NodeRows::new(2);
        s.select(&a, distance, &[0, 1], &[5]);
        assert_eq!(offsets(&s), vec![vec![39, 42]]);
    }

    #[test]
    fn set_operations() {
        let a = rows(1, &[&[1], &[2], &[3]]);
        let b = rows(1, &[&[2], &[4]]);
        let mut out = NodeRows::new(1);
        out.union(&a, &b);
        assert_eq!(offsets(&out), vec![vec![1], vec![2], vec![3], vec![4]]);
        out.intersect(&a, &b);
        assert_eq!(offsets(&out), vec![vec![2]]);
        out.difference(&a, &b);
        assert_eq!(offsets(&out), vec![vec![1], vec![3]]);
        out.difference(&b, &a);
        assert_eq!(offsets(&out), vec![vec![4]]);
    }

    #[test]
    fn arity0_relations_model_node_sets() {
        let mut whole = FtRelation::new(0);
        let mut present = NodeRows::new(0);
        present.set_unit();
        whole.push_node(NodeId(1), &present);
        whole.push_node(NodeId(2), &NodeRows::new(0));
        whole.push_node(NodeId(3), &present);
        assert_eq!(whole.len(), 2);
        assert_eq!(whole.distinct_nodes(), vec![NodeId(1), NodeId(3)]);
        let mut out = NodeRows::new(0);
        out.difference(&present, &NodeRows::new(0));
        assert_eq!(out.len(), 1);
        out.difference(&present, &present);
        assert!(out.is_empty());
    }
}
