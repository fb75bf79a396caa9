//! Node-level union (Algorithm 4) and difference (Algorithm 5) cursors.
//!
//! The planner lowers straight to the node-level normal form, so these
//! operators only see node-level traffic: `advance_position` on a union is
//! unreachable (every union sits above every predicate), and difference
//! "implements only the advanceNode function (it works only at the level
//! of nodes)" exactly as the paper specifies.

use crate::cursor::FtCursor;
use ftsl_index::AccessCounters;
use ftsl_model::{NodeId, Position};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    NotStarted,
    At(NodeId),
    Done,
}

/// Node-level merge of two cursors with identical schemas.
pub struct UnionCursor<'a> {
    left: Box<dyn FtCursor + 'a>,
    right: Box<dyn FtCursor + 'a>,
    l_state: Side,
    r_state: Side,
    current: Option<NodeId>,
}

impl<'a> UnionCursor<'a> {
    /// Merge two cursors (same arity, same column variables).
    pub fn new(left: Box<dyn FtCursor + 'a>, right: Box<dyn FtCursor + 'a>) -> Self {
        debug_assert_eq!(left.arity(), right.arity());
        UnionCursor {
            left,
            right,
            l_state: Side::NotStarted,
            r_state: Side::NotStarted,
            current: None,
        }
    }
}

impl FtCursor for UnionCursor<'_> {
    fn arity(&self) -> usize {
        self.left.arity()
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        let last = self.current;
        let advance_left = match (self.l_state, last) {
            (Side::NotStarted, _) => true,
            (Side::At(n), Some(l)) => n == l,
            _ => false,
        };
        let advance_right = match (self.r_state, last) {
            (Side::NotStarted, _) => true,
            (Side::At(n), Some(l)) => n == l,
            _ => false,
        };
        if advance_left {
            self.l_state = match self.left.advance_node() {
                Some(n) => Side::At(n),
                None => Side::Done,
            };
        }
        if advance_right {
            self.r_state = match self.right.advance_node() {
                Some(n) => Side::At(n),
                None => Side::Done,
            };
        }
        self.current = match (self.l_state, self.r_state) {
            (Side::At(a), Side::At(b)) => Some(a.min(b)),
            (Side::At(a), _) => Some(a),
            (_, Side::At(b)) => Some(b),
            _ => None,
        };
        self.current
    }

    fn node(&self) -> Option<NodeId> {
        self.current
    }

    fn position(&self, col: usize) -> Position {
        // Prefer whichever side sits on the current node (left first).
        match (self.l_state, self.current) {
            (Side::At(n), Some(c)) if n == c => self.left.position(col),
            _ => self.right.position(col),
        }
    }

    fn counters(&self) -> AccessCounters {
        self.left.counters() + self.right.counters()
    }
}

/// Node-level anti-join: nodes of `left` absent from `filter`.
pub struct DiffCursor<'a> {
    left: Box<dyn FtCursor + 'a>,
    filter: Box<dyn FtCursor + 'a>,
    filter_state: Side,
}

impl<'a> DiffCursor<'a> {
    /// Keep `left` nodes that `filter` does not produce.
    pub fn new(left: Box<dyn FtCursor + 'a>, filter: Box<dyn FtCursor + 'a>) -> Self {
        DiffCursor {
            left,
            filter,
            filter_state: Side::NotStarted,
        }
    }

    /// True iff the filter does not produce `n`. Catches the filter up via
    /// seeks, so long filter lists are block-skipped, not decoded.
    fn passes_filter(&mut self, n: NodeId) -> bool {
        loop {
            match self.filter_state {
                Side::Done => return true,
                Side::At(f) if f >= n => return f != n,
                _ => {
                    self.filter_state = match self.filter.seek_node(n) {
                        Some(f) => Side::At(f),
                        None => Side::Done,
                    };
                }
            }
        }
    }
}

impl FtCursor for DiffCursor<'_> {
    fn arity(&self) -> usize {
        self.left.arity()
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        // Algorithm 5: emit the next left node not matched by the filter.
        loop {
            let n = self.left.advance_node()?;
            if self.passes_filter(n) {
                return Some(n);
            }
        }
    }

    fn node(&self) -> Option<NodeId> {
        self.left.node()
    }

    fn position(&self, col: usize) -> Position {
        self.left.position(col)
    }

    fn advance_position(&mut self, col: usize, min_offset: u32) -> bool {
        self.left.advance_position(col, min_offset)
    }

    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        if let Some(n) = self.left.node() {
            if n >= target {
                return Some(n);
            }
        }
        let mut bound = target;
        loop {
            let n = self.left.seek_node(bound)?;
            if self.passes_filter(n) {
                return Some(n);
            }
            bound = NodeId(n.0 + 1);
        }
    }

    fn counters(&self) -> AccessCounters {
        self.left.counters() + self.filter.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::ScanCursor;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    fn scan<'a>(
        corpus: &Corpus,
        index: &'a ftsl_index::InvertedIndex,
        tok: &str,
    ) -> Box<dyn FtCursor + 'a> {
        let id = corpus.token_id(tok).unwrap();
        Box::new(ScanCursor::new(index.block_list(id)))
    }

    #[test]
    fn union_merges_and_dedups_nodes() {
        let corpus = Corpus::from_texts(&["a", "b", "a b", "c", "b"]);
        let index = IndexBuilder::new().build(&corpus);
        let mut u = UnionCursor::new(scan(&corpus, &index, "a"), scan(&corpus, &index, "b"));
        let mut nodes = Vec::new();
        while let Some(n) = u.advance_node() {
            nodes.push(n.0);
        }
        assert_eq!(nodes, vec![0, 1, 2, 4]);
    }

    #[test]
    fn union_with_empty_side() {
        let corpus = Corpus::from_texts(&["a", "a"]);
        let index = IndexBuilder::new().build(&corpus);
        let b_scan: Box<dyn FtCursor> =
            Box::new(ScanCursor::new(index.block_list(ftsl_model::TokenId(9999))));
        let mut u = UnionCursor::new(scan(&corpus, &index, "a"), b_scan);
        let mut nodes = Vec::new();
        while let Some(n) = u.advance_node() {
            nodes.push(n.0);
        }
        assert_eq!(nodes, vec![0, 1]);
    }

    #[test]
    fn difference_filters_nodes() {
        let corpus = Corpus::from_texts(&["a", "a b", "a", "b", "a b"]);
        let index = IndexBuilder::new().build(&corpus);
        let mut d = DiffCursor::new(scan(&corpus, &index, "a"), scan(&corpus, &index, "b"));
        let mut nodes = Vec::new();
        while let Some(n) = d.advance_node() {
            nodes.push(n.0);
        }
        assert_eq!(nodes, vec![0, 2]);
    }

    #[test]
    fn difference_with_empty_filter_passes_everything() {
        let corpus = Corpus::from_texts(&["a", "a"]);
        let index = IndexBuilder::new().build(&corpus);
        let empty: Box<dyn FtCursor> =
            Box::new(ScanCursor::new(index.block_list(ftsl_model::TokenId(9999))));
        let mut d = DiffCursor::new(scan(&corpus, &index, "a"), empty);
        assert_eq!(d.advance_node().map(|n| n.0), Some(0));
        assert_eq!(d.advance_node().map(|n| n.0), Some(1));
        assert_eq!(d.advance_node(), None);
    }
}
