//! Posting lists: the decoded form of the `R_token` relations — what
//! [`crate::block::PostingArena::from_posting`] compresses and
//! [`crate::block::BlockList::to_posting`] gives tests back. No index
//! keeps one resident, and the index builder never assembles one.
//!
//! Storage is flat/columnar: one `Vec<NodeId>`, one prefix-offset array, and
//! one shared `Vec<Position>` — no per-entry allocation, following the
//! many-small-entries advice of the Rust performance guide.

use ftsl_model::{NodeId, Position};

/// An inverted list: entries `(cn, PosList)` ordered by `cn`, positions
/// ordered by occurrence within each entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PostingList {
    nodes: Vec<NodeId>,
    /// `offsets[i]..offsets[i+1]` indexes `positions` for entry `i`;
    /// `offsets.len() == nodes.len() + 1` (or both empty).
    offsets: Vec<u32>,
    positions: Vec<Position>,
}

impl PostingList {
    /// An empty list (the inverted list of an out-of-vocabulary token).
    pub fn empty() -> Self {
        PostingList::default()
    }

    /// Build from `(node, positions)` pairs. Pairs must be supplied in
    /// strictly increasing node order with non-empty, offset-ordered
    /// position lists.
    pub fn from_entries(entries: Vec<(NodeId, Vec<Position>)>) -> Self {
        let mut list = PostingList {
            nodes: Vec::with_capacity(entries.len()),
            offsets: Vec::with_capacity(entries.len() + 1),
            positions: Vec::new(),
        };
        for (node, positions) in entries {
            list.push_entry(node, &positions);
        }
        list
    }

    /// Append one entry.
    ///
    /// # Panics
    /// Debug-asserts the ordering invariants of Section 5.1.2: entries
    /// ordered by node id, positions ordered by occurrence, entries non-empty.
    pub fn push_entry(&mut self, node: NodeId, positions: &[Position]) {
        debug_assert!(!positions.is_empty(), "inverted-list entries are non-empty");
        debug_assert!(
            self.nodes.last().is_none_or(|&last| last < node),
            "entries must be pushed in increasing node order"
        );
        debug_assert!(positions.windows(2).all(|w| w[0].offset < w[1].offset));
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.nodes.push(node);
        self.positions.extend_from_slice(positions);
        self.offsets.push(self.positions.len() as u32);
    }

    /// Number of entries (`df(t)`: nodes containing the token).
    pub fn num_entries(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of positions across all entries.
    pub fn num_positions(&self) -> usize {
        self.positions.len()
    }

    /// Maximum positions in any single entry (`pos_per_entry` contribution).
    /// Computed directly from adjacent offset differences — no per-entry
    /// slice construction.
    pub fn max_positions_per_entry(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The node id of entry `i`.
    pub fn node_of(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// The position list of entry `i`.
    pub fn positions_of(&self, i: usize) -> &[Position] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.positions[lo..hi]
    }

    /// Iterate entries as `(NodeId, &[Position])`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[Position])> {
        (0..self.num_entries()).map(move |i| (self.node_of(i), self.positions_of(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(o: u32) -> Position {
        Position::flat(o)
    }

    #[test]
    fn figure2_usability_list() {
        // Paper Figure 2: "usability" -> (1, [25, 29, 42]) in our 0-adjusted
        // positions the exact values differ; shape is what matters.
        let list = PostingList::from_entries(vec![
            (NodeId(1), vec![p(25), p(29), p(42)]),
            (NodeId(3), vec![p(12), p(39)]),
        ]);
        assert_eq!(list.num_entries(), 2);
        assert_eq!(list.num_positions(), 5);
        assert_eq!(list.node_of(0), NodeId(1));
        assert_eq!(list.positions_of(0).len(), 3);
        assert_eq!(list.positions_of(1), &[p(12), p(39)]);
        assert_eq!(list.max_positions_per_entry(), 3);
    }

    #[test]
    fn empty_list_behaves() {
        let list = PostingList::empty();
        assert!(list.is_empty());
        assert_eq!(list.num_entries(), 0);
        assert_eq!(list.num_positions(), 0);
        assert_eq!(list.max_positions_per_entry(), 0);
        assert_eq!(list.iter().count(), 0);
    }

    #[test]
    fn iter_yields_entries_in_node_order() {
        let list =
            PostingList::from_entries(vec![(NodeId(0), vec![p(1)]), (NodeId(2), vec![p(0), p(7)])]);
        let collected: Vec<(NodeId, usize)> = list.iter().map(|(n, ps)| (n, ps.len())).collect();
        assert_eq!(collected, vec![(NodeId(0), 1), (NodeId(2), 2)]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_order_nodes_panic_in_debug() {
        let mut list = PostingList::empty();
        list.push_entry(NodeId(5), &[p(0)]);
        list.push_entry(NodeId(2), &[p(0)]);
    }
}
