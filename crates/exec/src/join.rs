//! The streaming join (Algorithm 1, seek-driven): leapfrog on node ids;
//! position columns concatenate; `advance_position` routes to the owning
//! side.
//!
//! Where the paper's Algorithm 1 advances the lagging side one entry at a
//! time, this join *seeks*: each side jumps directly to the other side's
//! node id through [`FtCursor::seek_node`], so a conjunction is driven by
//! whichever side is currently rarer — skipped entries are galloped or
//! block-skipped over at the leaves instead of being decoded.

use crate::cursor::FtCursor;
use ftsl_index::AccessCounters;
use ftsl_model::{NodeId, Position};

/// Pipelined per-node join of two cursors.
pub struct JoinCursor<'a> {
    left: Box<dyn FtCursor + 'a>,
    right: Box<dyn FtCursor + 'a>,
    left_arity: usize,
    node: Option<NodeId>,
}

impl<'a> JoinCursor<'a> {
    /// Join two cursors.
    pub fn new(left: Box<dyn FtCursor + 'a>, right: Box<dyn FtCursor + 'a>) -> Self {
        let left_arity = left.arity();
        JoinCursor {
            left,
            right,
            left_arity,
            node: None,
        }
    }

    /// Leapfrog both sides to a common node ≥ `target`, starting from the
    /// left side's landing point.
    fn align(&mut self, mut target: NodeId) -> Option<NodeId> {
        loop {
            let r = self.right.seek_node(target)?;
            if r == target {
                return Some(r);
            }
            let l = self.left.seek_node(r)?;
            if l == r {
                return Some(l);
            }
            target = l;
        }
    }
}

impl FtCursor for JoinCursor<'_> {
    fn arity(&self) -> usize {
        self.left_arity + self.right.arity()
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        let first = match self.left.advance_node() {
            Some(n) => n,
            None => {
                self.node = None;
                return None;
            }
        };
        self.node = self.align(first);
        self.node
    }

    fn node(&self) -> Option<NodeId> {
        self.node
    }

    fn position(&self, col: usize) -> Position {
        if col < self.left_arity {
            self.left.position(col)
        } else {
            self.right.position(col - self.left_arity)
        }
    }

    fn advance_position(&mut self, col: usize, min_offset: u32) -> bool {
        if col < self.left_arity {
            self.left.advance_position(col, min_offset)
        } else {
            self.right
                .advance_position(col - self.left_arity, min_offset)
        }
    }

    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        if let Some(n) = self.node {
            if n >= target {
                return Some(n);
            }
        }
        let first = match self.left.seek_node(target) {
            Some(n) => n,
            None => {
                self.node = None;
                return None;
            }
        };
        self.node = self.align(first);
        self.node
    }

    fn counters(&self) -> AccessCounters {
        self.left.counters() + self.right.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::ScanCursor;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    #[test]
    fn join_merges_on_node_ids() {
        let corpus = Corpus::from_texts(&[
            "test usability", // 0: both
            "test only",      // 1: test
            "usability only", // 2: usability
            "test usability", // 3: both
        ]);
        let index = IndexBuilder::new().build(&corpus);
        let test = corpus.token_id("test").unwrap();
        let usability = corpus.token_id("usability").unwrap();
        let mut join = JoinCursor::new(
            Box::new(ScanCursor::new(index.block_list(test))),
            Box::new(ScanCursor::new(index.block_list(usability))),
        );
        assert_eq!(join.advance_node(), Some(NodeId(0)));
        assert_eq!(join.arity(), 2);
        assert_eq!(join.position(0).offset, 0);
        assert_eq!(join.position(1).offset, 1);
        assert_eq!(join.advance_node(), Some(NodeId(3)));
        assert_eq!(join.advance_node(), None);
    }

    #[test]
    fn advance_position_routes_by_column() {
        let corpus = Corpus::from_texts(&["a b a b a"]);
        let index = IndexBuilder::new().build(&corpus);
        let a = corpus.token_id("a").unwrap();
        let b = corpus.token_id("b").unwrap();
        let mut join = JoinCursor::new(
            Box::new(ScanCursor::new(index.block_list(a))),
            Box::new(ScanCursor::new(index.block_list(b))),
        );
        join.advance_node().unwrap();
        assert_eq!((join.position(0).offset, join.position(1).offset), (0, 1));
        assert!(join.advance_position(0, 1));
        assert_eq!(join.position(0).offset, 2);
        assert_eq!(join.position(1).offset, 1); // untouched
        assert!(join.advance_position(1, 2));
        assert_eq!(join.position(1).offset, 3);
        assert!(!join.advance_position(1, 4));
    }
}
