//! The inverted index: all `IL_tok` lists plus `IL_ANY`, in one
//! [`PostingArena`].

use crate::block::{BlockCursor, BlockList, PostingArena};
use crate::pair::PairIndex;
use crate::stats::IndexStats;
use ftsl_model::TokenId;

/// The physical list representation: block-compressed, the only one there
/// is. Kept for `benchmark/src/sut.rs`, which names it; to be dropped by
/// the next `benchmark` issue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexLayout {
    /// Block-compressed [`BlockList`]s.
    #[default]
    Blocks,
}

/// Resident memory cost of an index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Bytes held by the block-compressed lists (entry streams + skip/impact
    /// headers), including `IL_ANY`.
    pub compressed: usize,
    /// The portion of `compressed` spent on the resident
    /// [`crate::block::BlockMeta`] header arrays (skip + impact metadata)
    /// rather than packed entry data — the cost of being able to skip.
    pub block_headers: usize,
    /// Bytes of the reusable decoded-block scratch buffer **each open
    /// list cursor holds** ([`crate::block::BlockCursor`] and
    /// [`crate::pair::PairCursor`] alike: the v5 batch-decode columns).
    /// Per cursor, not per index: a query touching `t` token lists keeps
    /// `t` of these alive while it runs, so serving cost scales with
    /// concurrent cursors, not with corpus size.
    pub cursor_scratch: usize,
    /// Bytes held by the word-pair auxiliary index's arena (CSR key
    /// table, per-key block index, block headers, packed byte stream,
    /// coverage bitmap) — the vectors' capacities, which the build shrinks
    /// to their lengths. Zero when pairs are disabled.
    pub pairs: usize,
}

impl MemoryFootprint {
    /// Total resident bytes. `block_headers` is already inside
    /// `compressed`; `cursor_scratch` is per-open-cursor transient state,
    /// not index residency — neither is double-counted here.
    pub fn total(&self) -> usize {
        self.compressed + self.pairs
    }
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compressed={}B (headers {}B) pairs={}B total={}B (+{}B/open cursor)",
            self.compressed,
            self.block_headers,
            self.pairs,
            self.total(),
            self.cursor_scratch
        )
    }
}

/// A complete inverted index over a corpus.
///
/// `lists` holds `IL_t` for every token id `t` of the build's vocabulary,
/// in id order, then `IL_ANY` (one entry per non-empty context node
/// containing *all* its positions) — one [`PostingArena`], the order
/// [`crate::persist`] stores the lists in. Every list is resident in
/// exactly one physical form, the block-compressed [`BlockList`], and
/// every evaluation path streams it through skip-aware [`BlockCursor`]s.
#[derive(Clone, Debug, Default)]
pub struct InvertedIndex {
    pub(crate) lists: PostingArena,
    pub(crate) stats: IndexStats,
    pub(crate) pairs: PairIndex,
}

impl InvertedIndex {
    /// The inverted list for `token`. Out-of-vocabulary ids map to an empty
    /// list, so queries mentioning unseen tokens simply match nothing.
    #[inline]
    pub fn block_list(&self, token: TokenId) -> BlockList<'_> {
        if token.index() < self.num_tokens() {
            self.lists.list(token.index())
        } else {
            BlockList::default()
        }
    }

    /// `IL_ANY`: every non-empty node with all of its positions.
    pub fn any_block_list(&self) -> BlockList<'_> {
        self.lists.list(self.num_tokens())
    }

    /// Open a skip-aware cursor on a token's list.
    pub fn block_cursor(&self, token: TokenId) -> BlockCursor<'_> {
        self.block_list(token).cursor()
    }

    /// Open a skip-aware cursor on `IL_ANY`.
    pub fn any_block_cursor(&self) -> BlockCursor<'_> {
        self.any_block_list().cursor()
    }

    /// Total compressed bytes across all block lists (diagnostics): the
    /// arena's entry stream and block headers, not its per-list heads.
    pub fn compressed_bytes(&self) -> usize {
        self.lists.data_bytes() + self.lists.header_bytes()
    }

    /// Resident bytes of the index. Surfaced by `ftsl-cli`'s `:stats`.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            compressed: self.compressed_bytes(),
            block_headers: self.lists.header_bytes(),
            cursor_scratch: BlockCursor::scratch_bytes(),
            pairs: self.pairs.resident_bytes(),
        }
    }

    /// The word-pair auxiliary index (empty — every lookup `NotCovered` —
    /// when pairs are disabled).
    pub fn pairs(&self) -> &PairIndex {
        &self.pairs
    }

    /// Document frequency of a token (`df(t)` in Section 3.1).
    pub fn df(&self, token: TokenId) -> usize {
        self.block_list(token).num_entries()
    }

    /// `df(t)` of every token id in order, read from the list heads alone.
    pub fn dfs(&self) -> impl Iterator<Item = usize> + '_ {
        self.lists.entry_counts().take(self.num_tokens())
    }

    /// Number of token lists stored (vocabulary size).
    pub fn num_tokens(&self) -> usize {
        self.lists.len().saturating_sub(1)
    }

    /// Size parameters of Section 5.1.2.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use ftsl_model::Corpus;

    #[test]
    fn footprint_reports_headers_and_cursor_scratch() {
        let corpus = Corpus::from_texts(&["a b a", "b c", "a"]);
        let index = IndexBuilder::new().build(&corpus);
        let fp = index.memory_footprint();
        assert!(fp.block_headers > 0, "header bytes must be counted");
        assert!(
            fp.block_headers < fp.compressed,
            "headers are part of compressed"
        );
        assert_eq!(fp.total(), fp.compressed + fp.pairs);
        assert_eq!(
            fp.cursor_scratch,
            crate::block::BlockCursor::scratch_bytes()
        );
        assert!(fp.cursor_scratch >= 3 * 4 * crate::block::BLOCK_ENTRIES);
        let shown = format!("{fp}");
        assert!(
            shown.contains("headers"),
            "display names header bytes: {shown}"
        );
        assert!(
            shown.contains("cursor"),
            "display names cursor scratch: {shown}"
        );
    }

    #[test]
    fn out_of_vocabulary_token_yields_empty_list() {
        let corpus = Corpus::from_texts(&["hello world"]);
        let index = IndexBuilder::new().build(&corpus);
        let missing = TokenId(9999);
        assert!(index.block_list(missing).is_empty());
        // The first id past the vocabulary is not `IL_ANY`, stored there.
        let next = TokenId(index.num_tokens() as u32);
        assert!(index.block_list(next).is_empty());
        assert!(!index.any_block_list().is_empty());
        assert_eq!(index.df(missing), 0);
        let mut cur = index.block_cursor(missing);
        assert_eq!(cur.next_entry(), None);
    }
}
