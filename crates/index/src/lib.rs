//! # ftsl-index — inverted-list substrate
//!
//! Implements the paper's data model for query evaluation (Section 5.1.2):
//! for every token `tok` an inverted list `IL_tok` of `(cn, PosList)` entries
//! ordered by context-node id, with positions ordered by occurrence; plus
//! `IL_ANY`, the list of *all* positions of every node.
//!
//! "The only way to access an inverted list `IL_tok` is to open a cursor":
//! access goes through the paper's **sequential cursor API** —
//! `nextEntry()` and `getPositions()` ([`BlockCursor`]) — extended with one
//! operation the paper's cost model doesn't have: `seek(node)`
//! ([`BlockCursor::seek`]), which jumps to the first entry at or past a
//! node id. Every cursor counts the entries and positions it touches — and,
//! separately, the entries a seek bypasses — so complexity claims
//! (Figure 3) and skip-layout wins can both be validated with
//! machine-independent counters ([`AccessCounters`]).
//!
//! The word-pair lists of the [`pair`] index keep the same contract: a
//! [`PairCursor`] is the same walk ([`ListCursor`], generic over the block
//! header) with a gap in place of a posting's term frequency and
//! positions, over blocks of the same codec. One `next_entry` / `seek` /
//! `skip_block`, one pair of header probes for block-max pruning, and one
//! counting rule serve both kinds of list.
//!
//! Physically, every list exists in exactly one form: the block-compressed
//! [`block::BlockList`] (bit-packed frame-of-reference blocks of
//! [`block::BLOCK_ENTRIES`] entries — see [`bitpack`] — headed by an
//! implicit skip list, decoded a whole block at a time), a view into its
//! segment's one [`block::PostingArena`]. It is what [`persist`] stores on
//! disk, what stays resident, and what every engine reads.
//! [`IndexBuilder`] fills the arena with one counting pass over the
//! documents; decoded [`PostingList`]s are the test oracle's form.
//!
//! ## Live maintenance
//!
//! Everything above describes one frozen index. The [`live`] module turns
//! it into an LSM-style *serving* structure: a [`live::LiveIndex`] accepts
//! `add_document`/`delete_node`, seals write-buffer contents into immutable
//! segments (each an ordinary [`InvertedIndex`]), tombstones deletes in
//! per-segment bitmaps ([`segment::DeleteSet`]), compacts segments with a
//! background tiered merge, and serves readers through point-in-time
//! [`live::Snapshot`]s. [`manifest`] persists the whole segment set
//! atomically (format v8, embedding v7 segment images whose optional
//! sections carry the [`pair`] auxiliary index).

#![warn(missing_docs)]

pub mod bitpack;
mod bitrows;
pub mod block;
pub mod builder;
pub mod counters;
pub mod cursor;
mod frame;
pub mod index;
pub mod live;
mod local;
pub mod manifest;
pub mod pair;
pub mod persist;
pub mod postings;
pub mod scored;
pub mod segment;
pub mod stats;
pub mod varint;

pub use block::{scratch_pool_stats, BlockCursor, BlockList, PostingArena, ScratchPoolStats};
pub use builder::IndexBuilder;
pub use counters::AccessCounters;
pub use cursor::{BlockHeader, ListCursor};
pub use index::{IndexLayout, InvertedIndex, MemoryFootprint};
pub use live::{LiveConfig, LiveIndex, SegmentReport, Snapshot, SnapshotSegment};
pub use pair::{PairConfig, PairCursor, PairIndex, PairList, PairLookup, PairRowBits};
pub use postings::PostingList;
pub use scored::{EntryScorer, ScoredBlocks};
pub use segment::{DeleteSet, MemSegment, SegmentData};
pub use stats::IndexStats;
