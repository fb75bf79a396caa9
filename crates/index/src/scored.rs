//! Score-at-the-cursor: a scored view over the block posting cursor.
//!
//! The paper's Section 5.3 extension attaches a score to every inverted-list
//! entry. This module makes that attachment *streaming*: a [`ScoredBlocks`]
//! walks a posting list exactly like the unscored cursor (`next_entry`,
//! `seek`) while also exposing the entry's score and — crucially — **score
//! upper bounds** derived from the impact metadata stored in the index:
//!
//! * the list-level bound ([`ScoredBlocks::max_score_list`]), from the
//!   list's largest term frequency — what MaxScore-style pruning uses to
//!   demote whole lists to probe-only;
//! * the block-level bound ([`ScoredBlocks::max_score_current_block`] /
//!   [`ScoredBlocks::max_score_at`]), from each compressed block's
//!   [`crate::block::BlockMeta::max_tf`] header — what block-max pruning
//!   uses to skip whole blocks ([`ScoredBlocks::skip_block`]) without
//!   decoding an entry.
//!
//! The cursor itself is scoring-model-agnostic: the model contributes an
//! [`EntryScorer`], which turns `(node, term frequency)` into a score and a
//! maximal term frequency into a bound. TF-IDF and probabilistic scorers
//! live in `ftsl-scoring`; this layer only guarantees that whatever bound
//! the scorer reports is respected by the skipping machinery. Over a
//! segment with deletions the cursor steps over tombstoned entries, so a
//! deleted document is never scored.

use crate::block::{BlockCursor, BlockList};
use crate::counters::AccessCounters;
use crate::segment::DeleteSet;
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

/// The scored cursor: the paper's sequential cursor plus `seek`, entry
/// scores, and score upper bounds from the block-compressed list's
/// [`crate::block::BlockMeta::max_tf`] headers.
///
/// ```
/// use ftsl_index::block::PostingArena;
/// use ftsl_index::scored::{EntryScorer, ScoredBlocks};
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
/// let mut cur = ScoredBlocks::new(arena.list(0), PerOccurrence, None);
/// assert_eq!(cur.max_score_list(), 5.0);
/// // The first block holds only tf=1 entries: its bound is 1.0, so a
/// // top-k search that already has a threshold above 1.0 skips it whole.
/// assert_eq!(cur.max_score_current_block(), 1.0);
/// let landed = cur.skip_block();
/// assert_eq!(landed, Some(NodeId(128)));
/// assert!(cur.counters().blocks_skipped >= 1);
/// ```
pub struct ScoredBlocks<'a, S: EntryScorer> {
    cur: BlockCursor<'a>,
    scorer: S,
    list_bound: f64,
    /// The segment's tombstones, when it has any: every move lands on a
    /// live entry.
    deletes: Option<&'a DeleteSet>,
}

impl<'a, S: EntryScorer> ScoredBlocks<'a, S> {
    /// Open a scored cursor at the start of `list`, stepping over the
    /// entries `deletes` marks (local node ids). Bounds still cover the
    /// tombstoned entries: a bound over a superset of the live entries is
    /// still a sound upper bound.
    pub fn new(list: BlockList<'a>, scorer: S, deletes: Option<&'a DeleteSet>) -> Self {
        let list_bound = if list.is_empty() {
            0.0
        } else {
            scorer.bound(list.max_tf())
        };
        ScoredBlocks {
            cur: list.cursor(),
            scorer,
            list_bound,
            deletes: deletes.filter(|d| d.deleted_count() > 0),
        }
    }

    /// The first live entry from `node` on.
    fn live_from(&mut self, mut node: Option<NodeId>) -> Option<NodeId> {
        while let (Some(n), Some(deletes)) = (node, self.deletes) {
            if !deletes.is_deleted(n.index()) {
                break;
            }
            node = self.cur.next_entry();
        }
        node
    }

    /// The node id of the current entry, if positioned on one.
    pub fn node(&self) -> Option<NodeId> {
        self.cur.node()
    }

    /// Advance to the next live entry and return its node id.
    pub fn next_entry(&mut self) -> Option<NodeId> {
        let node = self.cur.next_entry();
        self.live_from(node)
    }

    /// Advance to the first live entry with node id ≥ `target`.
    pub fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        let node = self.cur.seek(target);
        self.live_from(node)
    }

    /// Score of the current entry. Takes `&mut self` because the block
    /// cursor decodes its tf column lazily, on the block's first score.
    ///
    /// # Panics
    /// Panics if the cursor is not positioned on an entry.
    pub fn score(&mut self) -> f64 {
        let node = self.cur.node().expect("cursor not positioned on an entry");
        self.scorer.score(node, self.cur.tf())
    }

    /// Upper bound on the score of any entry in the current block; 0 when
    /// exhausted.
    pub fn max_score_current_block(&self) -> f64 {
        self.cur
            .block_header()
            .map_or(0.0, |h| self.scorer.bound(h.max_tf))
    }

    /// Upper bound on the score of any entry in the list.
    pub fn max_score_list(&self) -> f64 {
        self.list_bound
    }

    /// Upper bound on the score this cursor could contribute for node
    /// `target`, from its current position: 0 if the cursor has passed
    /// `target` or no remaining entry can reach it, else the bound of the
    /// block `target` would land in. Touches only skip headers — never
    /// decodes entries.
    pub fn max_score_at(&self, target: NodeId) -> f64 {
        if let Some(cur) = self.cur.node() {
            if cur > target {
                return 0.0;
            }
        }
        self.cur
            .peek_header_at(target)
            .map_or(0.0, |h| self.scorer.bound(h.max_tf))
    }

    /// Skip the rest of the current block and land on the first live entry
    /// from the next one on, returning its node id.
    pub fn skip_block(&mut self) -> Option<NodeId> {
        let node = self.cur.skip_block();
        self.live_from(node)
    }

    /// True once every entry has been consumed or skipped.
    pub fn exhausted(&self) -> bool {
        self.cur.exhausted()
    }

    /// Access counters accumulated by the underlying cursor.
    pub fn counters(&self) -> AccessCounters {
        self.cur.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{PostingArena, BLOCK_ENTRIES};
    use crate::builder::IndexBuilder;
    use crate::postings::PostingList;
    use ftsl_model::{Corpus, Position};

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
        let mut blk = ScoredBlocks::new(arena.list(0), TfScorer, None);
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
        let mut cur = ScoredBlocks::new(arena.list(0), TfScorer, None);
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
        let mut cur = ScoredBlocks::new(arena.list(0), TfScorer, None);
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
        let mut blk = ScoredBlocks::new(arena.list(0), TfScorer, None);
        assert_eq!(blk.max_score_list(), 0.0);
        assert_eq!(blk.next_entry(), None);
        assert_eq!(blk.max_score_current_block(), 0.0);
    }

    #[test]
    fn max_score_at_is_zero_behind_the_cursor() {
        let list = graded_list();
        let arena = PostingArena::from_posting(&list);
        let mut cur = ScoredBlocks::new(arena.list(0), TfScorer, None);
        cur.seek(NodeId(300));
        assert_eq!(cur.max_score_at(NodeId(10)), 0.0);
    }

    #[test]
    fn next_seek_and_skip_block_step_over_tombstones() {
        let corpus = Corpus::from_texts(&["x", "x x", "x", "x", "x x x"]);
        let index = IndexBuilder::new().build(&corpus);
        let x = corpus.token_id("x").unwrap();
        let mut deletes = DeleteSet::new(5);
        deletes.delete(1);
        deletes.delete(3);
        deletes.delete(4);
        let mut cur = ScoredBlocks::new(index.block_list(x), TfScorer, Some(&deletes));
        assert_eq!(cur.next_entry(), Some(NodeId(0)));
        assert_eq!(cur.next_entry(), Some(NodeId(2)), "skips tombstoned 1");
        assert_eq!(cur.next_entry(), None, "4 is tombstoned, list ends");
        // Seek lands past tombstones too.
        let mut cur = ScoredBlocks::new(index.block_list(x), TfScorer, Some(&deletes));
        assert_eq!(cur.seek(NodeId(1)), Some(NodeId(2)));
        assert_eq!(cur.node(), Some(NodeId(2)));
        assert_eq!(cur.score(), 1.0);

        // And so does a block skip that lands on a tombstoned block head.
        let texts = vec!["x"; 2 * BLOCK_ENTRIES + 1];
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let mut deletes = DeleteSet::new(texts.len());
        deletes.delete(BLOCK_ENTRIES);
        deletes.delete(BLOCK_ENTRIES + 1);
        let mut cur = ScoredBlocks::new(index.block_list(x), TfScorer, Some(&deletes));
        assert_eq!(cur.next_entry(), Some(NodeId(0)));
        let live_head = NodeId(BLOCK_ENTRIES as u32 + 2);
        assert_eq!(cur.skip_block(), Some(live_head));
        assert_eq!(cur.node(), Some(live_head));
        assert_eq!(cur.counters().blocks_skipped, 1);
    }
}
