//! Score-at-the-cursor: scored views over the physical posting cursors.
//!
//! The paper's Section 5.3 extension attaches a score to every inverted-list
//! entry. This module makes that attachment *streaming*: a [`ScoredCursor`]
//! walks a posting list exactly like the unscored cursors (`next_entry`,
//! `seek`) while also exposing the entry's score and — crucially — **score
//! upper bounds** derived from the impact metadata stored in the index:
//!
//! * the list-level bound ([`ScoredCursor::max_score_list`]), from the
//!   list's largest term frequency — what MaxScore-style pruning uses to
//!   demote whole lists to probe-only;
//! * the block-level bound ([`ScoredCursor::max_score_current_block`] /
//!   [`ScoredCursor::max_score_at`]), from each compressed block's
//!   [`crate::block::BlockMeta::max_tf`] header — what block-max pruning
//!   uses to skip whole blocks ([`ScoredCursor::skip_block`]) without
//!   decoding an entry.
//!
//! The cursor itself is scoring-model-agnostic: the model contributes an
//! [`EntryScorer`], which turns `(node, term frequency)` into a score and a
//! maximal term frequency into a bound. TF-IDF and probabilistic scorers
//! live in `ftsl-scoring`; this layer only guarantees that whatever bound
//! the scorer reports is respected by the skipping machinery.
//!
//! [`ScoredBlocks`] implements the trait over the block cursor, with true
//! per-block bounds.

use crate::block::{BlockCursor, BlockList};
use crate::counters::AccessCounters;
use ftsl_model::NodeId;

/// A per-list scoring rule: what one inverted-list entry contributes.
///
/// Implementations must keep `bound` consistent with `score`:
/// `bound(m) >= score(n, t)` for every node `n` and every `t <= m`. The
/// pruning machinery in `ftsl-scoring` relies on this monotone-bound
/// contract to skip blocks soundly.
pub trait EntryScorer {
    /// Score of the entry for `node` with term frequency `tf`.
    fn score(&self, node: NodeId, tf: u32) -> f64;
    /// Upper bound on [`Self::score`] over *every* node and every term
    /// frequency `<= max_tf`.
    fn bound(&self, max_tf: u32) -> f64;
}

/// The scored cursor contract: the paper's sequential cursor plus `seek`,
/// entry scores, and impact-derived score upper bounds.
///
/// ```
/// use ftsl_index::block::PostingArena;
/// use ftsl_index::scored::{EntryScorer, ScoredBlocks, ScoredCursor};
/// use ftsl_index::PostingList;
/// use ftsl_model::{NodeId, Position};
///
/// /// One point per occurrence, whoever you are.
/// struct PerOccurrence;
/// impl EntryScorer for PerOccurrence {
///     fn score(&self, _node: NodeId, tf: u32) -> f64 { tf as f64 }
///     fn bound(&self, max_tf: u32) -> f64 { max_tf as f64 }
/// }
///
/// // 400 single-occurrence entries, then one 5-occurrence entry.
/// let mut entries: Vec<(NodeId, Vec<Position>)> = (0..400)
///     .map(|i| (NodeId(i), vec![Position::flat(0)]))
///     .collect();
/// entries.push((NodeId(400), (0..5).map(Position::flat).collect()));
/// let arena = PostingArena::from_posting(&PostingList::from_entries(entries));
///
/// let mut cur = ScoredBlocks::new(arena.list(0), PerOccurrence);
/// assert_eq!(cur.max_score_list(), 5.0);
/// // The first block holds only tf=1 entries: its bound is 1.0, so a
/// // top-k search that already has a threshold above 1.0 skips it whole.
/// assert_eq!(cur.max_score_current_block(), 1.0);
/// let landed = cur.skip_block();
/// assert_eq!(landed, Some(NodeId(128)));
/// assert!(cur.counters().blocks_skipped >= 1);
/// ```
pub trait ScoredCursor {
    /// The node id of the current entry, if positioned on one.
    fn node(&self) -> Option<NodeId>;
    /// Advance to the next entry and return its node id.
    fn next_entry(&mut self) -> Option<NodeId>;
    /// Advance to the first entry with node id ≥ `target`.
    fn seek(&mut self, target: NodeId) -> Option<NodeId>;
    /// Score of the current entry. Takes `&mut self` because the block
    /// cursor decodes its tf column lazily, on the block's first score.
    ///
    /// # Panics
    /// Panics if the cursor is not positioned on an entry.
    fn score(&mut self) -> f64;
    /// Upper bound on the score of any entry in the current block; 0 when
    /// exhausted.
    fn max_score_current_block(&self) -> f64;
    /// Upper bound on the score of any entry in the list.
    fn max_score_list(&self) -> f64;
    /// Upper bound on the score this cursor could contribute for node
    /// `target`, from its current position: 0 if the cursor has passed
    /// `target` or no remaining entry can reach it, else the bound of the
    /// block `target` would land in. Touches only skip headers — never
    /// decodes entries.
    fn max_score_at(&self, target: NodeId) -> f64;
    /// Skip the rest of the current block and land on the first entry of
    /// the next one, returning its node id.
    fn skip_block(&mut self) -> Option<NodeId>;
    /// True once every entry has been consumed or skipped.
    fn exhausted(&self) -> bool;
    /// Access counters accumulated by the underlying cursor.
    fn counters(&self) -> AccessCounters;
}

/// [`ScoredCursor`] over a block-compressed list, with true per-block
/// bounds from the [`crate::block::BlockMeta::max_tf`] headers.
pub struct ScoredBlocks<'a, S: EntryScorer> {
    cur: BlockCursor<'a>,
    scorer: S,
    list_bound: f64,
}

impl<'a, S: EntryScorer> ScoredBlocks<'a, S> {
    /// Open a scored cursor at the start of `list`.
    pub fn new(list: BlockList<'a>, scorer: S) -> Self {
        let list_bound = if list.is_empty() {
            0.0
        } else {
            scorer.bound(list.max_tf())
        };
        ScoredBlocks {
            cur: list.cursor(),
            scorer,
            list_bound,
        }
    }
}

impl<S: EntryScorer> ScoredCursor for ScoredBlocks<'_, S> {
    fn node(&self) -> Option<NodeId> {
        self.cur.node()
    }

    fn next_entry(&mut self) -> Option<NodeId> {
        self.cur.next_entry()
    }

    fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        self.cur.seek(target)
    }

    fn score(&mut self) -> f64 {
        let node = self.cur.node().expect("cursor not positioned on an entry");
        self.scorer.score(node, self.cur.tf())
    }

    fn max_score_current_block(&self) -> f64 {
        match self.cur.block_max_tf() {
            0 => 0.0,
            tf => self.scorer.bound(tf),
        }
    }

    fn max_score_list(&self) -> f64 {
        self.list_bound
    }

    fn max_score_at(&self, target: NodeId) -> f64 {
        if let Some(cur) = self.cur.node() {
            if cur > target {
                return 0.0;
            }
        }
        match self.cur.peek_max_tf_at(target) {
            Some(tf) => self.scorer.bound(tf),
            None => 0.0,
        }
    }

    fn skip_block(&mut self) -> Option<NodeId> {
        self.cur.skip_block()
    }

    fn exhausted(&self) -> bool {
        self.cur.exhausted()
    }

    fn counters(&self) -> AccessCounters {
        self.cur.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{PostingArena, BLOCK_ENTRIES};
    use crate::postings::PostingList;
    use ftsl_model::Position;

    /// tf-proportional scores, independent of the node.
    struct TfScorer;
    impl EntryScorer for TfScorer {
        fn score(&self, _node: NodeId, tf: u32) -> f64 {
            tf as f64
        }
        fn bound(&self, max_tf: u32) -> f64 {
            max_tf as f64
        }
    }

    /// 3 blocks; tf rises with the entry index so later blocks have higher
    /// bounds (first block max_tf = 1, second 2, third 3).
    fn graded_list() -> PostingList {
        PostingList::from_entries(
            (0..300u32)
                .map(|i| {
                    let tf = 1 + i / BLOCK_ENTRIES as u32;
                    (NodeId(2 * i), (0..tf).map(Position::flat).collect())
                })
                .collect(),
        )
    }

    #[test]
    fn scores_follow_the_tf_column_and_respect_both_bounds() {
        let list = graded_list();
        let arena = PostingArena::from_posting(&list);
        let mut blk = ScoredBlocks::new(arena.list(0), TfScorer);
        assert_eq!(blk.max_score_list(), 3.0);
        for (node, positions) in list.iter() {
            assert_eq!(blk.next_entry(), Some(node));
            assert_eq!(blk.score(), positions.len() as f64);
            assert!(blk.score() <= blk.max_score_current_block());
            assert!(blk.score() <= blk.max_score_list());
        }
        assert_eq!(blk.next_entry(), None);
    }

    #[test]
    fn block_bounds_are_tighter_than_list_bound() {
        let list = graded_list();
        let arena = PostingArena::from_posting(&list);
        let mut cur = ScoredBlocks::new(arena.list(0), TfScorer);
        cur.next_entry();
        assert_eq!(cur.max_score_current_block(), 1.0); // block 0: tf = 1
        assert_eq!(cur.max_score_list(), 3.0);
        // Probing a node in the last block sees that block's bound.
        assert_eq!(cur.max_score_at(NodeId(2 * 299)), 3.0);
        // Probing past the end sees nothing.
        assert_eq!(cur.max_score_at(NodeId(10_000)), 0.0);
    }

    #[test]
    fn skip_block_lands_on_next_block_and_counts() {
        let list = graded_list();
        let arena = PostingArena::from_posting(&list);
        let mut cur = ScoredBlocks::new(arena.list(0), TfScorer);
        cur.next_entry();
        let landed = cur.skip_block();
        assert_eq!(landed, Some(NodeId(2 * BLOCK_ENTRIES as u32)));
        let c = cur.counters();
        assert_eq!(c.blocks_skipped, 1);
        assert_eq!(c.skipped, BLOCK_ENTRIES as u64 - 1);
        assert_eq!(c.entries, 2); // first entry + landing entry
                                  // Two more skips exhaust the list.
        assert!(cur.skip_block().is_some());
        assert_eq!(cur.skip_block(), None);
        assert!(cur.exhausted());
        assert_eq!(cur.skip_block(), None); // idempotent at the end
    }

    #[test]
    fn empty_lists_bound_to_zero() {
        let arena = PostingArena::from_posting(&PostingList::empty());
        let mut blk = ScoredBlocks::new(arena.list(0), TfScorer);
        assert_eq!(blk.max_score_list(), 0.0);
        assert_eq!(blk.next_entry(), None);
        assert_eq!(blk.max_score_current_block(), 0.0);
    }

    #[test]
    fn max_score_at_is_zero_behind_the_cursor() {
        let list = graded_list();
        let arena = PostingArena::from_posting(&list);
        let mut cur = ScoredBlocks::new(arena.list(0), TfScorer);
        cur.seek(NodeId(300));
        assert_eq!(cur.max_score_at(NodeId(10)), 0.0);
    }
}
