//! The streaming projection (Algorithm 3): a pure column re-mapping.
//!
//! In the planner's node-level normal form the consumers of a projection
//! are either node-level operators (union/difference/root) or predicate
//! selections over retained columns, so the paper's duplicate-elimination
//! loop is unnecessary for correctness; we keep the cheap mapping form.

use crate::cursor::FtCursor;
use ftsl_index::AccessCounters;
use ftsl_model::{NodeId, Position};

/// π over a streaming input.
pub struct ProjectCursor<'a> {
    input: Box<dyn FtCursor + 'a>,
    keep: Vec<usize>,
}

impl<'a> ProjectCursor<'a> {
    /// Keep the given input columns, in order.
    pub fn new(input: Box<dyn FtCursor + 'a>, keep: Vec<usize>) -> Self {
        debug_assert!(keep.iter().all(|&c| c < input.arity()));
        ProjectCursor { input, keep }
    }
}

impl FtCursor for ProjectCursor<'_> {
    fn arity(&self) -> usize {
        self.keep.len()
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        self.input.advance_node()
    }

    fn node(&self) -> Option<NodeId> {
        self.input.node()
    }

    fn position(&self, col: usize) -> Position {
        self.input.position(self.keep[col])
    }

    fn advance_position(&mut self, col: usize, min_offset: u32) -> bool {
        self.input.advance_position(self.keep[col], min_offset)
    }

    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        self.input.seek_node(target)
    }

    fn counters(&self) -> AccessCounters {
        self.input.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::ScanCursor;
    use crate::join::JoinCursor;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    #[test]
    fn projection_remaps_columns() {
        let corpus = Corpus::from_texts(&["a b"]);
        let index = IndexBuilder::new().build(&corpus);
        let a = corpus.token_id("a").unwrap();
        let b = corpus.token_id("b").unwrap();
        let join = JoinCursor::new(
            Box::new(ScanCursor::new(index.block_list(a))),
            Box::new(ScanCursor::new(index.block_list(b))),
        );
        // Swap the two columns.
        let mut proj = ProjectCursor::new(Box::new(join), vec![1, 0]);
        proj.advance_node().unwrap();
        assert_eq!(proj.arity(), 2);
        assert_eq!(proj.position(0).offset, 1);
        assert_eq!(proj.position(1).offset, 0);
        assert!(!proj.advance_position(0, 2));
    }
}
