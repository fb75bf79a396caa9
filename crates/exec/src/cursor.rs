//! The streaming cursor API (Section 5.5.3) and the leaf scan cursors.
//!
//! Every operator exposes the paper's four methods: `advanceNode`,
//! `getNode`, `advancePosition(i, pos)`, `getPosition(i)`. Our
//! `advance_position` takes an *inclusive* lower bound (the `f_i` value —
//! "the lower bound of the next possible solution"), which is equivalent to
//! the paper's exclusive formulation with `f_i − 1` and avoids off-by-one
//! arithmetic at every call site.
//!
//! Evaluation is fully pipelined: no operator materializes its output, and
//! each inverted-list position is consumed at most once per (thread, scan).

use ftsl_index::{AccessCounters, BlockCursor, BlockList};
use ftsl_model::{NodeId, Position};

/// A pipelined full-text cursor.
pub trait FtCursor {
    /// Number of position columns.
    fn arity(&self) -> usize;

    /// Advance to the next context node with at least one result tuple and
    /// position all columns at that node's componentwise-minimal candidate.
    fn advance_node(&mut self) -> Option<NodeId>;

    /// The current node, if positioned.
    fn node(&self) -> Option<NodeId>;

    /// The current position of column `col`. A node-level cursor (arity
    /// 0) keeps the default, which no caller reaches.
    fn position(&self, _col: usize) -> Position {
        unreachable!("a node-level cursor has no position column")
    }

    /// Advance column `col` to the next candidate tuple (within the current
    /// node) whose `col` offset is `>= min_offset`, leaving other columns at
    /// offsets `>=` their current values. Returns false when the node is
    /// exhausted for this constraint. A node-level cursor keeps the default.
    fn advance_position(&mut self, _col: usize, _min_offset: u32) -> bool {
        unreachable!("a node-level cursor has no position column")
    }

    /// Advance to the first result node with id `>= target` (the seek
    /// extension of the cursor contract). Stays put when the current node
    /// already satisfies the bound. The default implementation scans via
    /// [`FtCursor::advance_node`]; leaf scans override it with skip-header
    /// seeks over the inverted list, and joins use it to leapfrog both
    /// sides past non-matching node ranges without decoding them.
    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        if let Some(n) = self.node() {
            if n >= target {
                return Some(n);
            }
        }
        loop {
            let n = self.advance_node()?;
            if n >= target {
                return Some(n);
            }
        }
    }

    /// Aggregate access counters for this subtree.
    fn counters(&self) -> AccessCounters;
}

/// Leaf scan over one inverted list (a token's list or `IL_ANY`), driven
/// by a skip-aware [`BlockCursor`] that batch-decodes bit-packed blocks on
/// first touch, seeks via the block skip headers, and decompresses an
/// entry's positions only when a predicate inspects them.
///
/// The inner cursor sits behind a `RefCell` because the trait's `position`
/// accessor is `&self` while decompression materializes positions on first
/// touch. Repeated reads of the current position — the common case in
/// predicate evaluation, which inspects the same tuple several times — are
/// served from a `Cell` cache, so the dynamic borrow is paid once per
/// (entry, advance), not per read. Cursor trees are thread-confined (each
/// NPRED thread builds its own), so the dynamic borrow never contends.
pub struct ScanCursor<'a> {
    cursor: std::cell::RefCell<BlockCursor<'a>>,
    /// 1, or 0 for a node-level scan ([`ScanCursor::nodes`]).
    arity: usize,
    /// The current node, updated by every advancing call — `node()` reads
    /// it without touching the `RefCell`.
    cur_node: Option<NodeId>,
    /// The current position, filled on first read after an advance.
    cur_pos: std::cell::Cell<Option<Position>>,
}

impl<'a> ScanCursor<'a> {
    /// Open a scan over `list`.
    pub fn new(list: BlockList<'a>) -> Self {
        ScanCursor {
            cursor: std::cell::RefCell::new(list.cursor()),
            arity: 1,
            cur_node: None,
            cur_pos: std::cell::Cell::new(None),
        }
    }

    /// Open a scan over `list`'s nodes with no position column: `π_∅` of
    /// the scan, as one cursor.
    pub(crate) fn nodes(list: BlockList<'a>) -> Self {
        ScanCursor {
            arity: 0,
            ..Self::new(list)
        }
    }
}

impl FtCursor for ScanCursor<'_> {
    fn arity(&self) -> usize {
        self.arity
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        self.cur_pos.set(None);
        self.cur_node = self.cursor.get_mut().next_entry();
        self.cur_node
    }

    fn node(&self) -> Option<NodeId> {
        self.cur_node
    }

    fn position(&self, col: usize) -> Position {
        debug_assert!(col < self.arity);
        if let Some(p) = self.cur_pos.get() {
            return p;
        }
        let p = self
            .cursor
            .borrow_mut()
            .position()
            .expect("scan cursor positioned");
        self.cur_pos.set(Some(p));
        p
    }

    fn advance_position(&mut self, col: usize, min_offset: u32) -> bool {
        debug_assert!(col < self.arity);
        let hit = self.cursor.get_mut().advance_position(min_offset);
        self.cur_pos.set(hit);
        hit.is_some()
    }

    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        self.cur_pos.set(None);
        self.cur_node = self.cursor.get_mut().seek(target);
        self.cur_node
    }

    fn counters(&self) -> AccessCounters {
        self.cursor.borrow().counters()
    }
}

/// The `SearchContext` relation of one segment: every context node
/// `0..len`, in order, with no position column. It reads no list; each
/// node it steps to or seeks to counts one entry, as the node universe a
/// complement runs over is charged in Figure 3's `cnodes` term.
pub(crate) struct ContextCursor {
    len: u32,
    node: Option<NodeId>,
    /// The first node not yet stepped to.
    next: u32,
    entries: u64,
}

impl ContextCursor {
    /// Open a cursor over the nodes `0..len`.
    pub(crate) fn new(len: u32) -> Self {
        ContextCursor {
            len,
            node: None,
            next: 0,
            entries: 0,
        }
    }

    fn step_to(&mut self, id: u32) -> Option<NodeId> {
        self.node = (id < self.len).then(|| {
            self.entries += 1;
            NodeId(id)
        });
        self.next = id.saturating_add(1).min(self.len);
        self.node
    }
}

impl FtCursor for ContextCursor {
    fn arity(&self) -> usize {
        0
    }

    fn advance_node(&mut self) -> Option<NodeId> {
        self.step_to(self.next)
    }

    fn node(&self) -> Option<NodeId> {
        self.node
    }

    fn seek_node(&mut self, target: NodeId) -> Option<NodeId> {
        match self.node {
            Some(n) if n >= target => Some(n),
            _ => self.step_to(self.next.max(target.0)),
        }
    }

    fn counters(&self) -> AccessCounters {
        AccessCounters {
            entries: self.entries,
            ..AccessCounters::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;
    use ftsl_model::Corpus;

    #[test]
    fn scan_cursor_walks_entries_and_positions() {
        let corpus = Corpus::from_texts(&["a b a", "c", "a"]);
        let index = IndexBuilder::new().build(&corpus);
        let a = corpus.token_id("a").unwrap();
        let mut scan = ScanCursor::new(index.block_list(a));

        assert_eq!(scan.advance_node(), Some(NodeId(0)));
        assert_eq!(scan.position(0).offset, 0);
        assert!(scan.advance_position(0, 1));
        assert_eq!(scan.position(0).offset, 2);
        assert!(!scan.advance_position(0, 3));

        assert_eq!(scan.advance_node(), Some(NodeId(2)));
        assert_eq!(scan.position(0).offset, 0);
        assert_eq!(scan.advance_node(), None);
        assert_eq!(scan.node(), None);
    }

    #[test]
    fn context_cursor_steps_and_seeks_every_node_once() {
        let mut all = ContextCursor::new(5);
        assert_eq!(all.advance_node(), Some(NodeId(0)));
        assert_eq!(all.seek_node(NodeId(0)), Some(NodeId(0)));
        assert_eq!(all.seek_node(NodeId(3)), Some(NodeId(3)));
        assert_eq!(all.advance_node(), Some(NodeId(4)));
        assert_eq!(all.advance_node(), None);
        assert_eq!(all.seek_node(NodeId(9)), None);
        assert_eq!(all.counters().entries, 3);
    }
}
