//! Block-compressed posting lists with an implicit skip list — the **v5
//! bit-packed frame-of-reference layout**, decoded a whole block at a time.
//!
//! The physical layout of an inverted list ([`BlockList`]) groups entries
//! into blocks of [`BLOCK_ENTRIES`] entries. Each block's header
//! ([`BlockMeta`]) records the largest node id it contains plus its byte
//! offset, so the header array doubles as a one-level skip list: a cursor
//! seeking a node id binary-searches the headers, jumps straight to the
//! first candidate block, and only touches entries inside it.
//!
//! ## One arena per segment
//!
//! A segment's lists live in one [`PostingArena`]: a table with one
//! 16-byte head per list (first block, first byte, entry and position
//! counts) plus a sentinel, one `Vec<BlockMeta>` holding every list's
//! headers back to back, and one `Vec<u8>` holding every list's packed
//! bytes back to back. A [`BlockList`] is a `Copy` view of one list's run
//! of headers and bytes, so a list costs its head and nothing per
//! allocation; headers keep list-relative `byte_start` and `first_entry`,
//! so a view's bytes and headers are exactly one v7 list record
//! ([`crate::persist`]). The arena is filled in list order by one writer —
//! the index builder's counting pass, [`PostingArena::from_posting`], and
//! the persisted load path, which validates each stored list as it
//! appends it — and shrunk to fit once, when it is finished.
//!
//! ## Block encoding (format v5)
//!
//! Within a block, the three per-entry scalars travel as *columns*, each a
//! fixed-width bit-packed frame ([`crate::bitpack`]) rather than a stream
//! of per-entry varints:
//!
//! ```text
//! base:u32-le  id_width:u8  tf_width:u8  len_width:u8
//! id-delta frame   (⌈n·id_width/32⌉ words): lane 0 = 0, lane i = id[i]−id[i−1]−1
//! tf frame         (⌈n·tf_width/32⌉ words): lane i = tf[i] − 1
//! pos-length frame (⌈n·len_width/32⌉ words): lane i = byte length of entry
//!                                            i's encoded positions
//! position payloads: per entry, varint-encoded (unchanged from v4)
//! ```
//!
//! where `n` is the block's entry count (128 everywhere but the tail).
//! Unused bits of a frame's final word are zero. Node ids are strictly
//! increasing, so the delta−1 trick makes consecutive ids a width-0 (free)
//! frame; `tf − 1` does the same for all-single-occurrence blocks. Widths
//! are exception-free: the largest value in a frame sets the width for
//! every lane, buying a decoder with no data-dependent branches.
//!
//! A [`BlockCursor`] holds a reusable decoded-block scratch buffer: the
//! first touch of a block unpacks all its ids, term frequencies, and
//! position-payload offsets into flat `u32` arrays, after which
//! [`BlockCursor::next_entry`] is an array walk and [`BlockCursor::seek`]
//! binary-searches the decoded ids instead of linearly decoding varints.
//! Position payloads stay varint-encoded and lazily decoded: the unpacked
//! length column gives every entry's payload range, so entries rejected on
//! node id alone never pay a position decode.
//!
//! [`AccessCounters`] keep their established meaning: `entries` counts
//! entries the evaluator *consumed* (returned by `next_entry`/`seek`),
//! `skipped` counts entries bypassed without being returned — including
//! entries a `seek` now binary-searches past inside an unpacked block —
//! and `blocks_skipped` counts whole blocks stepped over via the headers,
//! exactly as before. Physical decode work is block-granular (a touched
//! block is unpacked whole), which is what makes the per-entry walk
//! branchless.

use crate::bitpack;
use crate::counters::AccessCounters;
use crate::postings::PostingList;
use crate::varint;
use ftsl_model::{NodeId, Position};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::mem::ManuallyDrop;

/// Entries per compressed block. 128 keeps the skip granularity fine while
/// letting the per-block header amortize to under 0.1 byte/entry, and
/// matches [`bitpack::LANES`] so one bit-packed frame covers one block.
pub const BLOCK_ENTRIES: usize = 128;

const _: () = assert!(
    BLOCK_ENTRIES == bitpack::LANES,
    "one bitpack frame must cover exactly one block"
);

/// Fixed per-block stream overhead: the absolute base id (4 bytes) plus the
/// three frame widths (1 byte each).
const BLOCK_PREFIX_BYTES: usize = 7;

/// Header of one compressed block — one implicit skip-list node.
///
/// Besides the skip information (`max_node`, `byte_start`, `first_entry`),
/// the header carries per-block *impact metadata*: `max_tf`, the largest
/// term frequency (position count) of any entry in the block. A scored
/// cursor turns `max_tf` into a score upper bound for the whole block, so
/// top-k evaluation can skip blocks whose bound falls below the current
/// threshold without decoding a single entry (block-max pruning).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMeta {
    /// Largest node id stored in the block (its last entry's id).
    pub max_node: NodeId,
    /// Byte offset of the block's encoding (its `base` field) in the data
    /// stream.
    pub byte_start: u32,
    /// Global index of the block's first entry.
    pub first_entry: u32,
    /// Largest position count (term frequency) of any entry in the block.
    pub max_tf: u32,
}

/// A block-compressed inverted list: a borrowed view of one list's block
/// headers and packed bytes inside a [`PostingArena`].
///
/// Equality compares the list itself — counts, headers and bytes — so two
/// views of the same list in different arenas are equal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockList<'a> {
    blocks: &'a [BlockMeta],
    /// This list's packed bytes alone: headers' `byte_start` index it.
    data: &'a [u8],
    entries: u32,
    positions: u64,
}

/// One block's column values, staged before packing.
struct BlockStage {
    ids: Vec<u32>,
    tfs: Vec<u32>,
    pos_lens: Vec<u32>,
    pos_bytes: Vec<u8>,
}

impl BlockStage {
    /// Room for a full block, so staging allocates once per writer (a
    /// block of long position lists aside).
    fn new() -> Self {
        BlockStage {
            ids: Vec::with_capacity(BLOCK_ENTRIES),
            tfs: Vec::with_capacity(BLOCK_ENTRIES),
            pos_lens: Vec::with_capacity(BLOCK_ENTRIES),
            pos_bytes: Vec::with_capacity(8 * BLOCK_ENTRIES),
        }
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.tfs.clear();
        self.pos_lens.clear();
        self.pos_bytes.clear();
    }

    /// Stage one entry — its node id, its term frequency, and its
    /// positions as varint deltas — and return the term frequency.
    fn push_entry(&mut self, node: u32, positions: impl IntoIterator<Item = Position>) -> u32 {
        let start = self.pos_bytes.len();
        let out = &mut self.pos_bytes;
        let mut tf = 0u32;
        let mut prev = Position::flat(0);
        for p in positions {
            if tf == 0 {
                varint::put_u32(out, p.offset);
                varint::put_u32(out, p.sentence);
                varint::put_u32(out, p.paragraph);
            } else {
                varint::put_u32(out, p.offset - prev.offset - 1);
                varint::put_u32(out, p.sentence - prev.sentence);
                varint::put_u32(out, p.paragraph - prev.paragraph);
            }
            prev = p;
            tf += 1;
        }
        debug_assert!(tf > 0, "inverted-list entries are non-empty");
        self.ids.push(node);
        self.tfs.push(tf);
        self.pos_lens.push((self.pos_bytes.len() - start) as u32);
        tf
    }

    /// Pack the staged block onto `data`, returning `(max_node, max_tf)`.
    fn flush(&self, data: &mut Vec<u8>) -> (u32, u32) {
        let count = self.ids.len();
        debug_assert!(0 < count && count <= BLOCK_ENTRIES);
        let mut frame = [0u32; bitpack::LANES];

        // Column 1: id deltas (lane 0 is 0 — the base is stored absolute).
        let mut max_delta = 0u32;
        for (lane, pair) in frame[1..count].iter_mut().zip(self.ids.windows(2)) {
            let d = pair[1] - pair[0] - 1;
            *lane = d;
            max_delta = max_delta.max(d);
        }
        let id_width = bitpack::width_for(max_delta);

        data.extend_from_slice(&self.ids[0].to_le_bytes());
        let widths_at = data.len();
        data.extend_from_slice(&[id_width, 0, 0]);
        bitpack::pack(&frame, count, id_width, data);

        // Column 2: tf − 1.
        let max_tf = *self.tfs.iter().max().expect("non-empty block");
        for (lane, &tf) in frame.iter_mut().zip(&self.tfs) {
            *lane = tf - 1;
        }
        let tf_width = bitpack::width_for(max_tf - 1);
        data[widths_at + 1] = tf_width;
        bitpack::pack(&frame, count, tf_width, data);

        // Column 3: position payload byte lengths.
        let max_len = *self.pos_lens.iter().max().expect("non-empty block");
        let len_width = bitpack::width_for(max_len);
        data[widths_at + 2] = len_width;
        bitpack::pack(&self.pos_lens, count, len_width, data);

        // Position payloads, varint-encoded exactly as staged.
        data.extend_from_slice(&self.pos_bytes);
        (self.ids[count - 1], max_tf)
    }
}

/// Where one list sits in its [`PostingArena`]: its first block header,
/// its first byte, and its entry and position counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ListHead {
    block: u32,
    byte: u32,
    entries: u32,
    /// Fits: every position takes at least three bytes of a stream whose
    /// offsets are `u32`.
    positions: u32,
}

/// Posting lists in one arena: a head per list (plus a sentinel), every
/// list's block headers in one vector and every list's packed bytes in
/// one stream (see the module docs' "One arena per segment").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PostingArena {
    /// One head per list, then a sentinel holding the arena's block and
    /// byte counts (empty in the default arena).
    heads: Vec<ListHead>,
    blocks: Vec<BlockMeta>,
    data: Vec<u8>,
}

impl PostingArena {
    /// An arena holding one list: `list` compressed into v5 bit-packed
    /// blocks.
    pub fn from_posting(list: &PostingList) -> Self {
        let blocks = list.num_entries().div_ceil(BLOCK_ENTRIES);
        let mut arena = PostingArenaWriter::with_capacity(1, blocks, 0);
        for (node, positions) in list.iter() {
            arena.push_entry(node, positions.iter().copied());
        }
        arena.end_list();
        arena.finish()
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.heads.len().saturating_sub(1)
    }

    /// True iff the arena holds no list.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// List number `i`, or the empty list when there is none.
    #[inline]
    pub fn list(&self, i: usize) -> BlockList<'_> {
        match (self.heads.get(i), self.heads.get(i + 1)) {
            (Some(head), Some(next)) => BlockList {
                blocks: &self.blocks[head.block as usize..next.block as usize],
                data: &self.data[head.byte as usize..next.byte as usize],
                entries: head.entries,
                positions: u64::from(head.positions),
            },
            _ => BlockList::default(),
        }
    }

    /// Every list, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = BlockList<'_>> {
        (0..self.len()).map(|i| self.list(i))
    }

    /// Every list's entry count, in order, read from the list heads alone.
    pub(crate) fn entry_counts(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.heads[..self.len()].iter().map(|h| h.entries as usize)
    }

    /// Bytes of every list's packed entry stream.
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes of every list's [`BlockMeta`] headers.
    pub fn header_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }
}

/// Appends lists, in order, to a new [`PostingArena`] — the one writer
/// behind the index builder, [`PostingArena::from_posting`] and the
/// persisted load path.
pub(crate) struct PostingArenaWriter {
    arena: PostingArena,
    /// Where the open list's blocks and bytes start.
    first_block: usize,
    first_byte: usize,
    /// The open list's counts so far.
    entries: u32,
    positions: u64,
    stage: BlockStage,
}

/// The one way an arena outgrows its `u32` offsets.
const ARENA_TOO_LARGE: &str = "posting arena exceeds u32 offsets";

impl PostingArenaWriter {
    /// An empty arena with room for `lists` lists, `blocks` block headers
    /// and `bytes` bytes.
    pub(crate) fn with_capacity(lists: usize, blocks: usize, bytes: usize) -> Self {
        PostingArenaWriter {
            arena: PostingArena {
                heads: Vec::with_capacity(lists + 1),
                blocks: Vec::with_capacity(blocks),
                data: Vec::with_capacity(bytes),
            },
            first_block: 0,
            first_byte: 0,
            entries: 0,
            positions: 0,
            stage: BlockStage::new(),
        }
    }

    /// Append one entry to the open list. Node ids strictly increase
    /// within a list; `positions` is non-empty and ascending by offset.
    #[inline]
    pub(crate) fn push_entry(
        &mut self,
        node: NodeId,
        positions: impl IntoIterator<Item = Position>,
    ) {
        if self.stage.ids.len() == BLOCK_ENTRIES {
            self.flush_block();
        }
        let tf = self.stage.push_entry(node.0, positions);
        self.entries += 1;
        self.positions += u64::from(tf);
    }

    /// Pack the staged block onto the stream, behind its header.
    fn flush_block(&mut self) {
        let arena = &mut self.arena;
        let byte_start = u32::try_from(arena.data.len() - self.first_byte).expect(ARENA_TOO_LARGE);
        let first_entry = ((arena.blocks.len() - self.first_block) * BLOCK_ENTRIES) as u32;
        let (max_node, max_tf) = self.stage.flush(&mut arena.data);
        arena.blocks.push(BlockMeta {
            max_node: NodeId(max_node),
            byte_start,
            first_entry,
            max_tf,
        });
        self.stage.clear();
    }

    /// Close the open list; the next entry opens the next one.
    ///
    /// # Panics
    /// Panics once the arena outgrows its `u32` offsets.
    pub(crate) fn end_list(&mut self) {
        if !self.stage.ids.is_empty() {
            self.flush_block();
        }
        self.close().expect(ARENA_TOO_LARGE);
    }

    /// Close empty lists until `lists` lists are closed, in one fill of
    /// the list heads: a token no document uses costs its head alone.
    pub(crate) fn pad_lists(&mut self, lists: usize) {
        debug_assert!(self.stage.ids.is_empty() && self.entries == 0);
        // `close` checked that the open list's start fits a head.
        let empty = ListHead {
            block: self.first_block as u32,
            byte: self.first_byte as u32,
            entries: 0,
            positions: 0,
        };
        let heads = &mut self.arena.heads;
        heads.resize(heads.len().max(lists), empty);
    }

    /// The block headers and the stream, for the load path to append one
    /// stored list to as it stands; [`Self::end_stored_list`] closes it.
    pub(crate) fn stored_parts(&mut self) -> (&mut Vec<BlockMeta>, &mut Vec<u8>) {
        debug_assert!(self.stage.ids.is_empty());
        (&mut self.arena.blocks, &mut self.arena.data)
    }

    /// Close a list appended through [`Self::stored_parts`] once it passes
    /// [`BlockList::validate`] as untrusted bytes with the stored counts.
    pub(crate) fn end_stored_list(
        &mut self,
        entries: u32,
        positions: u64,
    ) -> Result<(), &'static str> {
        let list = BlockList {
            blocks: &self.arena.blocks[self.first_block..],
            data: &self.arena.data[self.first_byte..],
            entries,
            positions,
        };
        list.validate()?;
        self.entries = entries;
        self.positions = positions;
        self.close()
    }

    /// Record the open list's head and open the next list after it. The
    /// next list's start must fit a head too, so the sentinel and every
    /// padded head always do.
    fn close(&mut self) -> Result<(), &'static str> {
        let arena = &mut self.arena;
        u32::try_from(arena.blocks.len()).map_err(|_| ARENA_TOO_LARGE)?;
        u32::try_from(arena.data.len()).map_err(|_| ARENA_TOO_LARGE)?;
        arena.heads.push(ListHead {
            block: self.first_block as u32,
            byte: self.first_byte as u32,
            entries: self.entries,
            positions: u32::try_from(self.positions).map_err(|_| ARENA_TOO_LARGE)?,
        });
        self.first_block = arena.blocks.len();
        self.first_byte = arena.data.len();
        self.entries = 0;
        self.positions = 0;
        Ok(())
    }

    /// Add the sentinel head and shrink every vector to its length.
    pub(crate) fn finish(self) -> PostingArena {
        debug_assert!(self.stage.ids.is_empty() && self.entries == 0);
        let mut arena = self.arena;
        // `close` checked that both counts fit, and nothing was appended
        // since (the counts are 0 if no list was).
        arena.heads.push(ListHead {
            block: arena.blocks.len() as u32,
            byte: arena.data.len() as u32,
            entries: 0,
            positions: 0,
        });
        arena.heads.shrink_to_fit();
        arena.blocks.shrink_to_fit();
        arena.data.shrink_to_fit();
        arena
    }
}

impl<'a> BlockList<'a> {
    /// Decode back into the flat columnar [`PostingList`] (test support:
    /// the round-trip oracle).
    pub fn to_posting(self) -> PostingList {
        let mut list = PostingList::empty();
        let mut cursor = self.cursor();
        let mut positions: Vec<Position> = Vec::new();
        while let Some(node) = cursor.next_entry() {
            positions.clear();
            positions.extend_from_slice(cursor.positions());
            list.push_entry(node, &positions);
        }
        list
    }

    /// Walk the whole list as *untrusted* bytes (the persisted load path):
    /// every width, frame, count, and ordering invariant is checked —
    /// including that tail-block padding lanes are zero, so each list has
    /// exactly one canonical encoding — and any violation returns `Err`
    /// with a description instead of panicking the way the trusting
    /// [`BlockCursor`] would. Nothing is retained: a list that passes is
    /// served from these same bytes.
    pub fn validate(self) -> Result<(), &'static str> {
        let entries = self.entries as usize;
        if self.blocks.len() != entries.div_ceil(BLOCK_ENTRIES) {
            return Err("block count disagrees with entry count");
        }
        let mut at = 0usize;
        let mut prev_node: Option<u32> = None;
        let mut total_positions = 0u64;
        let mut ids = [0u32; bitpack::LANES];
        let mut tfs = [0u32; bitpack::LANES];
        let mut lens = [0u32; bitpack::LANES];
        for (b, meta) in self.blocks.iter().enumerate() {
            let count = BLOCK_ENTRIES.min(entries - b * BLOCK_ENTRIES);
            if meta.byte_start as usize != at || meta.first_entry as usize != b * BLOCK_ENTRIES {
                return Err("block header disagrees with entry stream");
            }
            if self.data.len() - at < BLOCK_PREFIX_BYTES {
                return Err("truncated block prefix");
            }
            let base = u32::from_le_bytes([
                self.data[at],
                self.data[at + 1],
                self.data[at + 2],
                self.data[at + 3],
            ]);
            let id_width = self.data[at + 4];
            let tf_width = self.data[at + 5];
            let len_width = self.data[at + 6];
            at += BLOCK_PREFIX_BYTES;
            if id_width > 32 || tf_width > 32 || len_width > 32 {
                return Err("frame width exceeds 32 bits");
            }
            let frames = bitpack::packed_bytes(id_width, count)
                + bitpack::packed_bytes(tf_width, count)
                + bitpack::packed_bytes(len_width, count);
            if self.data.len() - at < frames {
                return Err("truncated block frames");
            }
            at += bitpack::unpack(&self.data[at..], id_width, count, &mut ids);
            at += bitpack::unpack(&self.data[at..], tf_width, count, &mut tfs);
            at += bitpack::unpack(&self.data[at..], len_width, count, &mut lens);
            if ids[0] != 0 {
                return Err("first id-delta lane not zero");
            }
            for lane in count..BLOCK_ENTRIES {
                if ids[lane] != 0 || tfs[lane] != 0 || lens[lane] != 0 {
                    return Err("non-zero padding lane");
                }
            }
            // Reconstruct the id column with overflow checks.
            if prev_node.is_some_and(|p| base <= p) {
                return Err("node ids not strictly increasing");
            }
            ids[0] = base;
            for i in 1..count {
                ids[i] = ids[i - 1]
                    .checked_add(ids[i])
                    .and_then(|n| n.checked_add(1))
                    .ok_or("node overflow")?;
            }
            prev_node = Some(ids[count - 1]);
            if NodeId(ids[count - 1]) != meta.max_node {
                return Err("block max node disagrees with entries");
            }
            // tf column: stored as tf − 1, so every entry has ≥1 position.
            let mut block_tf = 0u32;
            for tf in tfs.iter_mut().take(count) {
                *tf = tf.checked_add(1).ok_or("term frequency overflow")?;
                block_tf = block_tf.max(*tf);
            }
            if block_tf != meta.max_tf {
                return Err("block max_tf disagrees with entries");
            }
            // Position payloads: lengths must tile the remaining region.
            for i in 0..count {
                let end = at
                    .checked_add(lens[i] as usize)
                    .ok_or("position length overflow")?;
                if end > self.data.len() {
                    return Err("position bytes out of range");
                }
                let mut prev = Position::flat(0);
                for j in 0..tfs[i] {
                    let (offset, sentence, paragraph) = if j == 0 {
                        (
                            varint::get_u32(self.data, &mut at).ok_or("truncated offset")?,
                            varint::get_u32(self.data, &mut at).ok_or("truncated sentence")?,
                            varint::get_u32(self.data, &mut at).ok_or("truncated paragraph")?,
                        )
                    } else {
                        let doff = varint::get_u32(self.data, &mut at).ok_or("truncated offset")?;
                        let dsent =
                            varint::get_u32(self.data, &mut at).ok_or("truncated sentence")?;
                        let dpara =
                            varint::get_u32(self.data, &mut at).ok_or("truncated paragraph")?;
                        (
                            prev.offset
                                .checked_add(doff)
                                .and_then(|o| o.checked_add(1))
                                .ok_or("offset overflow")?,
                            prev.sentence
                                .checked_add(dsent)
                                .ok_or("sentence overflow")?,
                            prev.paragraph
                                .checked_add(dpara)
                                .ok_or("paragraph overflow")?,
                        )
                    };
                    if at > end {
                        return Err("positions overrun their declared length");
                    }
                    prev = Position {
                        offset,
                        sentence,
                        paragraph,
                    };
                }
                if at != end {
                    return Err("positions shorter than declared length");
                }
                total_positions += u64::from(tfs[i]);
            }
        }
        if at != self.data.len() {
            return Err("trailing bytes after last block");
        }
        if total_positions != self.positions {
            return Err("position count disagrees with payload");
        }
        Ok(())
    }

    /// Number of entries (`df(t)`).
    pub fn num_entries(self) -> usize {
        self.entries as usize
    }

    /// Total positions across all entries.
    pub fn num_positions(self) -> usize {
        self.positions as usize
    }

    /// True iff the list has no entries.
    pub fn is_empty(self) -> bool {
        self.entries == 0
    }

    /// Number of compressed blocks (skip-list length).
    pub fn num_blocks(self) -> usize {
        self.blocks.len()
    }

    /// Largest term frequency (positions per entry) across the whole list —
    /// the list-level impact bound, folded from the per-block headers.
    pub fn max_tf(self) -> u32 {
        self.blocks.iter().map(|b| b.max_tf).max().unwrap_or(0)
    }

    /// The block headers, with list-relative `byte_start` and
    /// `first_entry` (persistence and diagnostics).
    pub fn headers(self) -> &'a [BlockMeta] {
        self.blocks
    }

    /// The packed entry stream (persistence and diagnostics).
    pub fn bytes(self) -> &'a [u8] {
        self.data
    }

    /// Bytes of the packed entry stream alone (frames + position payloads),
    /// excluding the [`BlockMeta`] skip/impact headers.
    pub fn data_bytes(self) -> usize {
        self.data.len()
    }

    /// Bytes of the resident [`BlockMeta`] header array — skip-list and
    /// impact metadata the index pays for on top of the entry stream.
    pub fn header_bytes(self) -> usize {
        std::mem::size_of_val(self.blocks)
    }

    /// Compressed payload size in bytes (entry stream + skip headers).
    pub fn compressed_bytes(self) -> usize {
        self.data_bytes() + self.header_bytes()
    }

    /// Open a seeking, block-at-a-time cursor over the compressed stream.
    ///
    /// The cursor's decoded-block buffer is leased from the calling
    /// thread's scratch pool and returned on drop, so steady-state query
    /// work reuses warm buffers instead of heap-allocating per cursor
    /// (see [`scratch_pool_stats`]).
    pub fn cursor(self) -> BlockCursor<'a> {
        BlockCursor {
            list: self,
            idx: usize::MAX,
            run_start: 0,
            count: 0,
            first: 0,
            block: usize::MAX,
            started: false,
            done: false,
            pos_valid_for: u64::MAX,
            pos_idx: 0,
            pos_at: 0,
            pos_end: 0,
            pos_prev: Position::flat(0),
            scratch: ManuallyDrop::new(take_scratch()),
            counters: AccessCounters::new(),
        }
    }
}

/// The reusable decoded-block buffer a [`BlockCursor`] unpacks into.
///
/// The three per-entry columns decode independently, each on first demand:
/// touching a block unpacks its **id** column (every consumer needs node
/// ids); the **tf** column is unpacked the first time a scored consumer
/// asks for a term frequency; the **payload-offset** column the first time
/// positions are requested. A BOOL scan therefore pays for exactly one
/// frame per block, a top-k union for two, a positional query for all
/// three. Sized by [`BlockCursor::scratch_bytes`] for footprint
/// accounting.
#[derive(Clone, Debug)]
struct BlockScratch {
    /// Decoded node ids of the resident block.
    ids: [u32; BLOCK_ENTRIES],
    /// Decoded term frequencies (valid when `tf_block` matches).
    tfs: [u32; BLOCK_ENTRIES],
    /// Exclusive prefix sums of position-payload byte lengths, relative to
    /// `pos_base`: entry `i`'s payload is `pos_base + ends[i-1] .. pos_base
    /// + ends[i]` (with `ends[-1] = 0`). Valid when `len_block` matches.
    pos_ends: [u32; BLOCK_ENTRIES],
    /// Byte offset of the resident block's tf frame.
    tf_at: usize,
    /// Byte offset of the resident block's payload-length frame.
    len_at: usize,
    /// Absolute byte offset of the resident block's position region.
    pos_base: usize,
    /// Frame widths of the resident block's tf and length columns.
    tf_width: u8,
    len_width: u8,
    /// Block whose tf column is decoded; `usize::MAX` when stale.
    tf_block: usize,
    /// Block whose payload offsets are decoded; `usize::MAX` when stale.
    len_block: usize,
    /// Positions of the current entry decoded so far (a prefix of the
    /// payload — the cursor's sub-decoder materializes them on demand).
    /// Lives in the scratch so a pooled buffer keeps its capacity across
    /// cursors: positional queries stop allocating once warm.
    decoded: Vec<Position>,
}

impl Default for BlockScratch {
    fn default() -> Self {
        BlockScratch {
            ids: [0; BLOCK_ENTRIES],
            tfs: [0; BLOCK_ENTRIES],
            pos_ends: [0; BLOCK_ENTRIES],
            tf_at: 0,
            len_at: 0,
            pos_base: 0,
            tf_width: 0,
            len_width: 0,
            tf_block: usize::MAX,
            len_block: usize::MAX,
            decoded: Vec::new(),
        }
    }
}

impl BlockScratch {
    /// Make a recycled buffer indistinguishable from a fresh one: stale
    /// the column tags and empty (but keep the capacity of) the decoded
    /// positions. The id/tf/offset columns need no clearing — a fresh
    /// cursor holds no resident block, so their lanes are unreachable
    /// until `unpack_block` overwrites them.
    fn reset(&mut self) {
        self.tf_block = usize::MAX;
        self.len_block = usize::MAX;
        self.decoded.clear();
    }
}

/// Pooled buffers per thread. Bounds the memory a thread parks between
/// queries: enough for the widest realistic cursor fan-out (one cursor
/// per distinct query token), small enough that an idle worker holds
/// under ~100 KiB of scratch.
const SCRATCH_POOL_CAP: usize = 64;

struct ScratchPool {
    // Boxes on purpose: cursors hold `ManuallyDrop<Box<BlockScratch>>`,
    // so pooling the box itself makes take/return a pointer move — the
    // unboxed form clippy suggests would re-box (allocate) on every take.
    #[allow(clippy::vec_box)]
    free: Vec<Box<BlockScratch>>,
    reused: u64,
    allocated: u64,
}

thread_local! {
    static SCRATCH_POOL: RefCell<ScratchPool> = const {
        RefCell::new(ScratchPool {
            free: Vec::new(),
            reused: 0,
            allocated: 0,
        })
    };
}

/// Lease a scratch buffer from the calling thread's pool, falling back to
/// a heap allocation when the pool is empty (or the thread is tearing
/// down its locals).
fn take_scratch() -> Box<BlockScratch> {
    SCRATCH_POOL
        .try_with(|pool| {
            let mut pool = pool.borrow_mut();
            match pool.free.pop() {
                Some(mut scratch) => {
                    pool.reused += 1;
                    scratch.reset();
                    Some(scratch)
                }
                None => {
                    pool.allocated += 1;
                    None
                }
            }
        })
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Park a scratch buffer back in the calling thread's pool; buffers over
/// the cap (or arriving during thread teardown) are simply freed.
fn return_scratch(scratch: Box<BlockScratch>) {
    let _ = SCRATCH_POOL.try_with(move |pool| {
        let mut pool = pool.borrow_mut();
        if pool.free.len() < SCRATCH_POOL_CAP {
            pool.free.push(scratch);
        }
    });
}

/// Cumulative scratch-pool statistics for the **calling thread** — the
/// pool is thread-local, so a serving worker reads its own counters.
///
/// `allocated` counts cursors that had to heap-allocate a fresh buffer;
/// `reused` counts cursors served from the pool. A steady-state worker
/// (same query shapes, warm pool) should see `reused` grow while
/// `allocated` stays flat — the "queries allocate nothing on the hot
/// path" invariant the serve-layer allocation tests pin down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchPoolStats {
    /// Cursors served by recycling a pooled buffer.
    pub reused: u64,
    /// Cursors that heap-allocated a fresh buffer.
    pub allocated: u64,
    /// Buffers currently parked in the pool.
    pub pooled: usize,
}

/// Read the calling thread's [`ScratchPoolStats`].
pub fn scratch_pool_stats() -> ScratchPoolStats {
    SCRATCH_POOL
        .try_with(|pool| {
            let pool = pool.borrow();
            ScratchPoolStats {
                reused: pool.reused,
                allocated: pool.allocated,
                pooled: pool.free.len(),
            }
        })
        .unwrap_or_default()
}

/// A forward-only, skip-aware cursor over a [`BlockList`], decoding one
/// whole block at a time.
///
/// Implements the paper's sequential contract (`next_entry` /
/// `positions`) plus the [`BlockCursor::seek`] extension: jump to the first
/// entry with node id ≥ a target, skipping whole blocks via the header
/// array and binary-searching the decoded ids inside the landing block.
/// Skipped entries are counted separately from consumed ones in
/// [`AccessCounters`], so evaluation strategies can be compared on exact
/// access work.
///
/// ```
/// use ftsl_index::block::PostingArena;
/// use ftsl_index::PostingList;
/// use ftsl_model::{NodeId, Position};
///
/// // 1000 entries at even node ids 0, 2, 4, ...
/// let list = PostingList::from_entries(
///     (0..1000).map(|i| (NodeId(2 * i), vec![Position::flat(i)])).collect(),
/// );
/// let arena = PostingArena::from_posting(&list);
/// let mut cur = arena.list(0).cursor();
///
/// // Seek lands on the first entry with node id >= 1501.
/// assert_eq!(cur.seek(NodeId(1501)), Some(NodeId(1502)));
/// // Only the landing entry was consumed; everything before it was either
/// // stepped over through the header array or binary-searched past inside
/// // the landing block.
/// assert!(cur.counters().entries < 2 * ftsl_index::block::BLOCK_ENTRIES as u64);
/// assert!(cur.counters().skipped >= 600);
/// ```
#[derive(Debug)]
pub struct BlockCursor<'a> {
    list: BlockList<'a>,
    /// Index of the current entry within the resident block; `usize::MAX`
    /// when the cursor is not positioned inside it (fresh or exhausted).
    idx: usize,
    /// Index at which the current *counted run* began: entries consumed
    /// since the last landing. `AccessCounters::entries` is updated once
    /// per run (at block transitions and in [`BlockCursor::counters`]),
    /// not once per entry — the hot walk stays store-minimal and the
    /// counting is exactly branch-free.
    run_start: usize,
    /// Entries in the resident block (0 when none is decoded), copied out
    /// of the scratch so the hot walk tests it without a pointer chase.
    count: usize,
    /// Global index of the resident block's first entry.
    first: u32,
    /// Index of the resident block; `usize::MAX` when none is decoded.
    block: usize,
    started: bool,
    /// True once every entry has been consumed or skipped.
    done: bool,
    /// Global entry index the position sub-decoder is staged for;
    /// `u64::MAX` when stale (tag-based invalidation keeps it off the
    /// entry walk).
    pos_valid_for: u64,
    pos_idx: usize,
    /// Read offset of the next undecoded position varint.
    pos_at: usize,
    /// End of the current entry's payload — the decode bound.
    pos_end: usize,
    /// Delta base: the last position decoded.
    pos_prev: Position,
    /// Leased from the thread's scratch pool; `ManuallyDrop` lets `Drop`
    /// hand the box back to the pool instead of freeing it.
    scratch: ManuallyDrop<Box<BlockScratch>>,
    counters: AccessCounters,
}

impl Drop for BlockCursor<'_> {
    fn drop(&mut self) {
        // SAFETY: `scratch` is taken exactly once — drop runs once, and
        // nothing reads the field afterwards.
        return_scratch(unsafe { ManuallyDrop::take(&mut self.scratch) });
    }
}

impl Clone for BlockCursor<'_> {
    fn clone(&self) -> Self {
        // The clone leases its own buffer (pool-first, like `cursor()`)
        // and copies the resident decode state into it, so both cursors
        // keep the no-repeat-decode guarantee from their shared position.
        let mut scratch = take_scratch();
        scratch.clone_from(&*self.scratch);
        BlockCursor {
            list: self.list,
            idx: self.idx,
            run_start: self.run_start,
            count: self.count,
            first: self.first,
            block: self.block,
            started: self.started,
            done: self.done,
            pos_valid_for: self.pos_valid_for,
            pos_idx: self.pos_idx,
            pos_at: self.pos_at,
            pos_end: self.pos_end,
            pos_prev: self.pos_prev,
            scratch: ManuallyDrop::new(scratch),
            counters: self.counters,
        }
    }
}

impl<'a> BlockCursor<'a> {
    /// Bytes of the reusable decoded-block buffer every open cursor holds
    /// (three `u32` columns of [`BLOCK_ENTRIES`] lanes plus bookkeeping) —
    /// the per-cursor cost [`crate::index::MemoryFootprint`] reports.
    pub const fn scratch_bytes() -> usize {
        std::mem::size_of::<BlockScratch>()
    }

    /// Global index of the next entry to consume: 0 on a fresh cursor,
    /// one past the current entry when positioned, `entries` when done.
    fn global_next(&self) -> u32 {
        if self.done {
            self.list.entries
        } else if self.idx < self.count {
            self.first + self.idx as u32 + 1
        } else {
            0
        }
    }

    /// Batch-decode `block`'s id column into the scratch buffer: unpack
    /// the bit-packed delta frame, run the prefix transform, and record
    /// where the block's other frames and its position region start. The
    /// tf and payload-offset columns are left stale — they unpack on first
    /// demand ([`Self::ensure_tfs`] / [`Self::ensure_lens`]).
    ///
    /// Trusted-bytes path: lists built in memory are well-formed by
    /// construction, so this decodes without validation (the persisted
    /// load path re-validates through [`BlockList::validate`]).
    #[cold]
    fn unpack_block(&mut self, block: usize) {
        let s = &mut *self.scratch;
        let meta = &self.list.blocks[block];
        let count = BLOCK_ENTRIES.min(self.list.entries as usize - meta.first_entry as usize);
        let data = self.list.data;
        let mut at = meta.byte_start as usize;
        let base = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
        let (id_width, tf_width, len_width) = (data[at + 4], data[at + 5], data[at + 6]);
        at += BLOCK_PREFIX_BYTES;
        at += bitpack::unpack(&data[at..], id_width, count, &mut s.ids);
        // Prefix transform over all 128 lanes (fixed trip count; padding
        // lanes produce garbage ids that `count` guards from being read,
        // so the arithmetic wraps instead of checking). Running four
        // independent 32-lane chains and then propagating the chunk
        // offsets cuts the serial-dependency latency to roughly a quarter
        // of a straight 128-add chain.
        s.ids[0] = base;
        for c in 1..BLOCK_ENTRIES / 32 {
            s.ids[32 * c] = s.ids[32 * c].wrapping_add(1);
        }
        for c in 0..BLOCK_ENTRIES / 32 {
            let start = 32 * c;
            for i in start + 1..start + 32 {
                s.ids[i] = s.ids[i].wrapping_add(1).wrapping_add(s.ids[i - 1]);
            }
        }
        for c in 1..BLOCK_ENTRIES / 32 {
            let off = s.ids[32 * c - 1];
            for v in &mut s.ids[32 * c..32 * (c + 1)] {
                *v = v.wrapping_add(off);
            }
        }
        s.tf_at = at;
        s.len_at = at + bitpack::packed_bytes(tf_width, count);
        s.pos_base = s.len_at + bitpack::packed_bytes(len_width, count);
        s.tf_width = tf_width;
        s.len_width = len_width;
        s.tf_block = usize::MAX;
        s.len_block = usize::MAX;
        self.block = block;
        self.count = count;
        self.first = meta.first_entry;
    }

    /// Make `block` the resident block. The hit path is one comparison;
    /// the miss is kept out of line so the entry walk stays inlineable.
    #[inline(always)]
    fn ensure_decoded(&mut self, block: usize) {
        if self.block != block {
            self.unpack_block(block);
        }
    }

    /// Unpack the resident block's tf column on first demand.
    #[inline]
    fn ensure_tfs(&mut self) {
        if self.scratch.tf_block != self.block {
            let s = &mut *self.scratch;
            bitpack::unpack(
                &self.list.data[s.tf_at..],
                s.tf_width,
                self.count,
                &mut s.tfs,
            );
            for tf in s.tfs.iter_mut() {
                *tf = tf.wrapping_add(1); // stored as tf − 1; padding lanes unread
            }
            s.tf_block = self.block;
        }
    }

    /// Unpack the resident block's payload-length column on first demand
    /// and turn it into exclusive prefix ends.
    #[inline]
    fn ensure_lens(&mut self) {
        if self.scratch.len_block != self.block {
            let s = &mut *self.scratch;
            bitpack::unpack(
                &self.list.data[s.len_at..],
                s.len_width,
                self.count,
                &mut s.pos_ends,
            );
            let mut run = 0u32;
            for end in s.pos_ends.iter_mut() {
                run = run.wrapping_add(*end);
                *end = run;
            }
            s.len_block = self.block;
        }
    }

    /// Fold the current counted run (entries consumed since the last
    /// landing) into `counters.entries`. Called on every reposition —
    /// once per block on a sequential walk, never per entry. Idempotent:
    /// the run is emptied, so flushing twice (e.g. once before a seek
    /// swaps the resident block and again inside its landing) adds
    /// nothing the second time.
    fn flush_entry_run(&mut self) {
        if self.idx < self.count {
            self.counters.entries += (self.idx + 1 - self.run_start) as u64;
            self.run_start = self.idx + 1;
        }
    }

    /// Position the cursor on global entry `global` (callers guarantee it
    /// exists) and return its node id. The landing entry starts a new
    /// counted run.
    fn land(&mut self, global: u32) -> NodeId {
        self.flush_entry_run();
        self.ensure_decoded(global as usize / BLOCK_ENTRIES);
        let i = global as usize % BLOCK_ENTRIES;
        self.idx = i;
        self.run_start = i;
        self.started = true;
        NodeId(self.scratch.ids[i])
    }

    /// Transition to the exhausted state, folding the in-flight entry run
    /// but no skip accounting (callers charge whatever applies first).
    fn mark_done(&mut self) {
        self.flush_entry_run();
        self.done = true;
        self.started = true;
        self.idx = usize::MAX;
        self.count = 0;
    }

    /// Cold half of [`Self::next_entry`]: first call, block crossings, and
    /// end of list.
    #[cold]
    fn advance_cold(&mut self) -> Option<NodeId> {
        let global = self.global_next();
        if global >= self.list.entries {
            if !self.done {
                self.mark_done();
            }
            return None;
        }
        Some(self.land(global))
    }

    /// `nextEntry()`: consume the next entry and return its node id, or
    /// `None` at end of list. Inside a block this is a branch-predictable
    /// array walk — one bound test, one index store, one array read; the
    /// entry count accrues per *run* (see `run_start`), so counting adds
    /// no per-entry work at all. Block crossings take the cold path.
    #[inline]
    pub fn next_entry(&mut self) -> Option<NodeId> {
        let i = self.idx.wrapping_add(1);
        if i < self.count {
            self.idx = i;
            return Some(NodeId(self.scratch.ids[i]));
        }
        self.advance_cold()
    }

    /// `seek(node)`: advance to the first entry with node id ≥ `target`,
    /// skipping whole blocks via the header array and binary-searching the
    /// decoded ids of the landing block. Stays put if the current entry
    /// already satisfies the bound. Returns the landing node id, or `None`
    /// when the list has no such entry.
    pub fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        if let Some(cur) = self.node() {
            if cur >= target {
                return Some(cur);
            }
        }
        let from = self.global_next();
        if from >= self.list.entries {
            if !self.done {
                self.mark_done();
            }
            return None;
        }
        // Fast path for the leapfrog-common short hop: the target is still
        // inside the already-decoded resident block — no header search.
        let cur_block = from as usize / BLOCK_ENTRIES;
        let target_block =
            if cur_block == self.block && self.list.blocks[cur_block].max_node >= target {
                cur_block
            } else {
                // First candidate block whose max node reaches the target, at
                // or after the block holding the next entry.
                let rel = self.list.blocks[cur_block..].partition_point(|b| b.max_node < target);
                let target_block = cur_block + rel;
                if target_block >= self.list.blocks.len() {
                    // No block can contain the target: exhaust, counting the
                    // rest of the list as skipped (never consumed).
                    self.counters.skipped += u64::from(self.list.entries - from);
                    self.counters.blocks_skipped += (self.list.blocks.len())
                        .saturating_sub((from as usize).div_ceil(BLOCK_ENTRIES))
                        as u64;
                    self.mark_done();
                    return None;
                }
                target_block
            };
        let meta = self.list.blocks[target_block];
        let mut from = from;
        if meta.first_entry > from {
            self.counters.skipped += u64::from(meta.first_entry - from);
            self.counters.blocks_skipped +=
                (target_block - (from as usize).div_ceil(BLOCK_ENTRIES)) as u64;
            from = meta.first_entry;
        }
        // Search the decoded ids (the block's max_node reaches the target,
        // so a landing entry exists): scan a handful of lanes linearly —
        // leapfrog hops are usually short — then binary-search the rest.
        // Fold the in-flight entry run first: decoding the landing block
        // replaces the resident block the run is counted against.
        self.flush_entry_run();
        self.ensure_decoded(target_block);
        let lo = (from - meta.first_entry) as usize;
        let lanes = &self.scratch.ids[lo..self.count];
        const LINEAR: usize = 8;
        let mut within = 0usize;
        while within < lanes.len().min(LINEAR) && lanes[within] < target.0 {
            within += 1;
        }
        if within == LINEAR {
            within += lanes[LINEAR..].partition_point(|&id| id < target.0);
        }
        self.counters.skipped += within as u64;
        Some(self.land(meta.first_entry + (lo + within) as u32))
    }

    /// The node id of the current entry, read from the decoded id column
    /// (the cursor is positioned exactly when `idx` is inside the resident
    /// block, so no separate field needs updating on the entry walk).
    #[inline]
    pub fn node(&self) -> Option<NodeId> {
        if self.idx < self.count {
            Some(NodeId(self.scratch.ids[self.idx]))
        } else {
            None
        }
    }

    /// Term frequency of the current entry, read from the unpacked tf
    /// column (decoded for the whole block on the first request).
    ///
    /// # Panics
    /// Panics if called before the first successful [`Self::next_entry`].
    #[inline]
    pub fn tf(&mut self) -> u32 {
        assert!(self.idx < self.count, "cursor not positioned on an entry");
        self.ensure_tfs();
        self.scratch.tfs[self.idx]
    }

    /// Index of the block the cursor is parked in: the current entry's
    /// block, or the next block to decode when the cursor has not started.
    /// `None` once the list is exhausted (or empty).
    fn current_block(&self) -> Option<usize> {
        if self.idx < self.count {
            Some(self.block)
        } else if !self.started && !self.list.blocks.is_empty() {
            Some(0)
        } else {
            None
        }
    }

    /// Largest term frequency in the current block — the current entry's
    /// block, or the first block when the cursor has not started; 0 when
    /// exhausted.
    pub fn block_max_tf(&self) -> u32 {
        self.current_block()
            .map_or(0, |b| self.list.blocks[b].max_tf)
    }

    /// Largest term frequency of the block that would contain the first
    /// remaining entry with node id ≥ `target`, found by binary search over
    /// the skip headers — a pure bound probe that decodes nothing. `None`
    /// when no remaining entry can reach `target`.
    pub fn peek_max_tf_at(&self, target: NodeId) -> Option<u32> {
        if let Some(cur) = self.node() {
            if cur >= target {
                return self.current_block().map(|b| self.list.blocks[b].max_tf);
            }
        }
        let from = self.current_block()?;
        let rel = self.list.blocks[from..].partition_point(|b| b.max_node < target);
        self.list.blocks.get(from + rel).map(|b| b.max_tf)
    }

    /// Jump past the current block without consuming its remaining entries
    /// (they are counted as skipped; the block counts in
    /// [`AccessCounters::blocks_skipped`] only if at least one entry was
    /// actually bypassed) and land on the first entry of the next block,
    /// returning its node id — or `None` when the pruned block was the
    /// last one.
    pub fn skip_block(&mut self) -> Option<NodeId> {
        let block = self.current_block()?;
        let next = block + 1;
        let from = self.global_next();
        if next >= self.list.blocks.len() {
            let remaining = u64::from(self.list.entries - from);
            self.counters.skipped += remaining;
            self.counters.blocks_skipped += u64::from(remaining > 0);
            self.mark_done();
            return None;
        }
        let meta = self.list.blocks[next];
        let remaining = u64::from(meta.first_entry - from);
        self.counters.skipped += remaining;
        self.counters.blocks_skipped += u64::from(remaining > 0);
        Some(self.land(meta.first_entry))
    }

    /// Stage the current entry's payload for decoding and materialize its
    /// first position: resolve the byte range from the unpacked length
    /// column and reset the incremental sub-decoder. Tag-based: staging
    /// happens at most once per entry, however the accessors interleave;
    /// the hit path is a single comparison.
    #[inline(always)]
    fn ensure_positions(&mut self) {
        assert!(self.idx < self.count, "cursor not positioned on an entry");
        let global = u64::from(self.first) + self.idx as u64;
        if self.pos_valid_for != global {
            self.stage_positions(global);
        }
    }

    /// Cold half of [`Self::ensure_positions`]: resolve the payload range
    /// and decode the entry's first position (every accessor that stages an
    /// entry immediately needs at least one). Only the length column is
    /// consulted — the payload's byte range bounds the decode, so the tf
    /// column stays packed unless a scorer asks for it.
    fn stage_positions(&mut self, global: u64) {
        self.ensure_lens();
        let idx = self.idx;
        let s = &*self.scratch;
        self.pos_at = s.pos_base
            + if idx == 0 {
                0
            } else {
                s.pos_ends[idx - 1] as usize
            };
        self.pos_end = s.pos_base + s.pos_ends[idx] as usize;
        self.scratch.decoded.clear();
        self.pos_idx = 0;
        self.pos_valid_for = global;
        self.decode_next_position();
    }

    /// Materialize one more position of the current entry, if any remain.
    /// Each position is decoded at most once and counted in
    /// [`AccessCounters::positions_decoded`] when it is — an entry whose
    /// predicate accepts or rejects on its first position pays exactly one
    /// position decode, not `tf`.
    fn decode_next_position(&mut self) -> Option<Position> {
        if self.pos_at >= self.pos_end {
            return None;
        }
        let data: &[u8] = self.list.data;
        let mut at = self.pos_at;
        let a = varint::get_u32(data, &mut at).expect("well-formed positions");
        let b = varint::get_u32(data, &mut at).expect("well-formed positions");
        let c = varint::get_u32(data, &mut at).expect("well-formed positions");
        let p = if self.scratch.decoded.is_empty() {
            Position {
                offset: a,
                sentence: b,
                paragraph: c,
            }
        } else {
            Position {
                offset: self.pos_prev.offset + a + 1,
                sentence: self.pos_prev.sentence + b,
                paragraph: self.pos_prev.paragraph + c,
            }
        };
        debug_assert!(at <= self.pos_end, "positions overran their payload");
        self.pos_at = at;
        self.pos_prev = p;
        self.scratch.decoded.push(p);
        self.counters.positions_decoded += 1;
        Some(p)
    }

    /// `getPositions()`: decode (once) and return the current entry's full
    /// position list.
    ///
    /// Decoding is *lazy* at three levels: block unpacking materializes
    /// only the payload byte ranges (the length column, itself unpacked on
    /// the block's first position request); the varint payload is staged on
    /// first demand per entry; and the incremental accessors below decode
    /// single positions — only this whole-slice accessor pays for the full
    /// payload. Work is recorded per materialized position in
    /// [`AccessCounters::positions_decoded`].
    ///
    /// # Panics
    /// Panics if called before the first successful [`Self::next_entry`].
    pub fn positions(&mut self) -> &[Position] {
        self.ensure_positions();
        while self.decode_next_position().is_some() {}
        &self.scratch.decoded
    }

    /// The current position within the current entry, if any remain —
    /// materializing only as much of the payload as the index requires.
    pub fn position(&mut self) -> Option<Position> {
        self.ensure_positions();
        while self.scratch.decoded.len() <= self.pos_idx {
            self.decode_next_position()?;
        }
        Some(self.scratch.decoded[self.pos_idx])
    }

    /// Advance the position sub-cursor to the first position with
    /// `offset >= min_offset`, counting consumed positions — and decoding
    /// only as far as the search actually looks.
    pub fn advance_position(&mut self, min_offset: u32) -> Option<Position> {
        self.ensure_positions();
        let start = self.pos_idx;
        let mut i = start;
        let hit = loop {
            let p = if i < self.scratch.decoded.len() {
                self.scratch.decoded[i]
            } else if let Some(p) = self.decode_next_position() {
                p
            } else {
                break None;
            };
            if p.offset >= min_offset {
                break Some(p);
            }
            i += 1;
        };
        self.pos_idx = i;
        self.counters.positions += (i - start) as u64;
        hit
    }

    /// Access counters accumulated by this cursor, including the entry
    /// run currently in flight.
    pub fn counters(&self) -> AccessCounters {
        let mut c = self.counters;
        if self.idx < self.count {
            c.entries += (self.idx + 1 - self.run_start) as u64;
        }
        c
    }

    /// True if all entries have been consumed.
    pub fn exhausted(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(o: u32) -> Position {
        Position::flat(o)
    }

    fn sample(n: u32, stride: u32) -> PostingList {
        PostingList::from_entries(
            (0..n)
                .map(|i| {
                    (
                        NodeId(i * stride),
                        vec![
                            Position::new(i, i / 7, i / 31),
                            Position::new(i + 5, i / 7 + 1, i / 31),
                        ],
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn roundtrip_preserves_entries_and_positions() {
        for n in [0u32, 1, 2, 127, 128, 129, 1000] {
            let list = sample(n, 3);
            let arena = PostingArena::from_posting(&list);
            let blocks = arena.list(0);
            assert_eq!(blocks.num_entries(), list.num_entries());
            assert_eq!(blocks.num_positions(), list.num_positions());
            assert_eq!(blocks.to_posting(), list, "n = {n}");
        }
    }

    #[test]
    fn well_formed_lists_validate() {
        for n in [0u32, 1, 127, 128, 129, 513] {
            let arena = PostingArena::from_posting(&sample(n, 5));
            let blocks = arena.list(0);
            assert_eq!(blocks.validate(), Ok(()), "n = {n}");
        }
    }

    #[test]
    fn block_structure_has_expected_shape() {
        let arena = PostingArena::from_posting(&sample(300, 2));
        let blocks = arena.list(0);
        assert_eq!(blocks.num_blocks(), 3); // 128 + 128 + 44
        assert!(blocks.compressed_bytes() < 300 * 12); // beats raw u32 triples
        assert_eq!(
            blocks.compressed_bytes(),
            blocks.data_bytes() + blocks.header_bytes()
        );
        assert_eq!(blocks.header_bytes(), 3 * std::mem::size_of::<BlockMeta>());
    }

    #[test]
    fn constant_runs_pack_at_width_zero() {
        // Consecutive ids (delta-1 = 0) and uniform tf = 1: both columns
        // collapse to width 0, so a block costs its prefix, the length
        // frame, and the payloads — nothing for ids or tfs.
        let list = PostingList::from_entries(
            (0..BLOCK_ENTRIES as u32)
                .map(|i| (NodeId(i), vec![p(3)]))
                .collect(),
        );
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let (metas, data) = (blocks.headers(), blocks.bytes());
        assert_eq!(metas.len(), 1);
        assert_eq!(data[4], 0, "id width");
        assert_eq!(data[5], 0, "tf width");
        // Uniform 1-byte payloads also pack at width 1 (all lengths = 3).
        let len_width = data[6];
        assert!(len_width <= 2, "len width {len_width}");
    }

    #[test]
    fn cursor_walk_matches_posting_list() {
        let list = sample(200, 5);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        for i in 0..list.num_entries() {
            assert_eq!(cur.next_entry(), Some(list.node_of(i)));
            assert_eq!(cur.positions(), list.positions_of(i));
        }
        assert_eq!(cur.next_entry(), None);
        assert!(cur.exhausted());
        assert_eq!(cur.counters().entries, 200);
        assert_eq!(cur.counters().skipped, 0);
    }

    #[test]
    fn seek_skips_blocks_without_consuming() {
        let arena = PostingArena::from_posting(&sample(1000, 2));
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        assert_eq!(cur.seek(NodeId(1501)), Some(NodeId(1502)));
        let c = cur.counters();
        // Binary search inside the landing block: only the landing entry is
        // consumed, everything before it is skipped.
        assert_eq!(c.entries, 1, "consumed {}", c.entries);
        assert_eq!(c.skipped, 751, "skipped {}", c.skipped);
        assert_eq!(c.entries + c.skipped, 752); // landed on entry index 751
        assert_eq!(c.blocks_skipped, 5); // blocks 0..5 never touched
    }

    #[test]
    fn seek_is_stable_and_monotone() {
        let arena = PostingArena::from_posting(&sample(500, 3));
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        assert_eq!(cur.seek(NodeId(0)), Some(NodeId(0)));
        assert_eq!(cur.seek(NodeId(0)), Some(NodeId(0))); // stays put
        assert_eq!(cur.seek(NodeId(301)), Some(NodeId(303)));
        assert_eq!(cur.seek(NodeId(302)), Some(NodeId(303))); // current suffices
        assert_eq!(cur.seek(NodeId(10_000)), None);
        assert!(cur.exhausted());
        assert_eq!(cur.seek(NodeId(0)), None); // stays exhausted
    }

    #[test]
    fn seek_within_current_block_counts_bypassed_entries_as_skipped() {
        let arena = PostingArena::from_posting(&sample(100, 2)); // one block
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        cur.next_entry(); // node 0
        assert_eq!(cur.seek(NodeId(100)), Some(NodeId(100))); // entry 50
        let c = cur.counters();
        assert_eq!(c.entries, 2); // first + landing
        assert_eq!(c.skipped, 49); // entries 1..=49 binary-searched past
        assert_eq!(c.blocks_skipped, 0);
    }

    #[test]
    fn seek_positions_are_fresh_at_landing_entry() {
        let list = PostingList::from_entries(vec![
            (NodeId(1), vec![p(3), p(12)]),
            (NodeId(9), vec![p(51), p(56)]),
        ]);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        assert_eq!(cur.seek(NodeId(5)), Some(NodeId(9)));
        assert_eq!(cur.position(), Some(p(51)));
        assert_eq!(cur.advance_position(52), Some(p(56)));
    }

    #[test]
    fn position_payloads_decode_lazily_and_are_counted() {
        let list = sample(300, 3); // 2 positions per entry
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        // Walking entries alone decodes no position payloads.
        for _ in 0..10 {
            cur.next_entry();
        }
        assert_eq!(cur.counters().positions_decoded, 0);
        let _ = cur.positions();
        let _ = cur.positions(); // cached, not re-decoded
        assert_eq!(cur.counters().positions_decoded, 2);
        // Seeking over entries decodes none of their payloads either.
        cur.seek(NodeId(600));
        assert_eq!(cur.counters().positions_decoded, 2);
    }

    #[test]
    fn empty_list_cursor_behaves() {
        let arena = PostingArena::from_posting(&PostingList::empty());
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        assert_eq!(cur.seek(NodeId(0)), None);
        let mut cur = blocks.cursor();
        assert_eq!(cur.next_entry(), None);
        assert!(cur.exhausted());
    }

    #[test]
    fn wide_ids_and_tfs_roundtrip() {
        // Sparse ids up to u32::MAX and a tf spike force wide frames.
        let list = PostingList::from_entries(vec![
            (NodeId(0), vec![p(1)]),
            (NodeId(1 << 20), vec![p(2), p(9), p(100)]),
            (NodeId(u32::MAX - 1), (0..40).map(p).collect()),
            (NodeId(u32::MAX), vec![p(0)]),
        ]);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        assert_eq!(blocks.to_posting(), list);
        assert_eq!(blocks.validate(), Ok(()));
        assert_eq!(blocks.max_tf(), 40);
        let mut cur = blocks.cursor();
        assert_eq!(cur.seek(NodeId(u32::MAX - 5)), Some(NodeId(u32::MAX - 1)));
        assert_eq!(cur.tf(), 40);
    }

    #[test]
    fn compression_beats_flat_encoding_on_dense_lists() {
        // Dense ids and short gaps: the regime block compression targets.
        let list = PostingList::from_entries(
            (0..10_000)
                .map(|i| (NodeId(i), vec![p(i % 97), p(i % 97 + 3)]))
                .collect(),
        );
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let flat_bytes = 10_000 * (4 + 4 + 2 * 12); // node + offset count + positions
        assert!(
            blocks.compressed_bytes() * 3 < flat_bytes,
            "compressed {} vs flat {flat_bytes}",
            blocks.compressed_bytes()
        );
    }

    #[test]
    fn corrupt_padding_or_headers_are_errors_not_panics() {
        let list = sample(200, 3);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        // Flip bytes one at a time; decoding may fail or (for position
        // payload bytes) succeed with different positions, but never panic.
        for i in 0..blocks.data.len() {
            let mut raw = blocks.data.to_vec();
            raw[i] ^= 0x40;
            let candidate = BlockList {
                data: &raw,
                ..blocks
            };
            let _ = candidate.validate();
        }
        // A lying header is always an error.
        let mut bad = blocks.blocks.to_vec();
        bad[1].byte_start += 1;
        let candidate = BlockList {
            blocks: &bad,
            ..blocks
        };
        assert!(candidate.validate().is_err());
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        // Each test runs on its own thread, so the thread-local pool
        // counters start at zero and deltas are exact.
        let list = sample(1000, 2);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let base = scratch_pool_stats();
        assert_eq!((base.reused, base.pooled), (0, 0));
        {
            let mut cur = blocks.cursor();
            while cur.next_entry().is_some() {}
        }
        let after_first = scratch_pool_stats();
        assert_eq!(after_first.allocated, 1, "cold pool allocates once");
        assert_eq!(after_first.pooled, 1, "dropped cursor parks its buffer");
        {
            let mut cur = blocks.cursor();
            while cur.next_entry().is_some() {}
        }
        let after_second = scratch_pool_stats();
        assert_eq!(after_second.allocated, 1, "warm pool never re-allocates");
        assert_eq!(after_second.reused, 1);
        assert_eq!(after_second.pooled, 1);
    }

    #[test]
    fn recycled_scratch_decodes_identically() {
        // Drive a positional walk, return the buffer, and re-walk a
        // *different* list through the recycled buffer: results must match
        // fresh decodes exactly (stale tags may not leak across leases).
        let a = sample(300, 2);
        let b = sample(170, 5);
        let arena_a = PostingArena::from_posting(&a);
        let arena_b = PostingArena::from_posting(&b);
        let (blocks_a, blocks_b) = (arena_a.list(0), arena_b.list(0));
        let walk = |list: BlockList| {
            let mut out = Vec::new();
            let mut cur = list.cursor();
            while let Some(node) = cur.next_entry() {
                out.push((node, cur.tf(), cur.positions().to_vec()));
            }
            out
        };
        let fresh_a = walk(blocks_a);
        let fresh_b = walk(blocks_b);
        for _ in 0..4 {
            assert_eq!(walk(blocks_b), fresh_b);
            assert_eq!(walk(blocks_a), fresh_a);
        }
        let stats = scratch_pool_stats();
        assert_eq!(stats.allocated, 1);
        assert_eq!(stats.reused, 9);
    }

    #[test]
    fn cloned_cursor_leases_its_own_scratch() {
        let list = sample(400, 3);
        let arena = PostingArena::from_posting(&list);
        let blocks = arena.list(0);
        let mut cur = blocks.cursor();
        for _ in 0..200 {
            cur.next_entry();
        }
        let tf_here = cur.tf();
        let mut twin = cur.clone();
        // The twin continues independently from the shared position…
        assert_eq!(twin.tf(), tf_here);
        assert_eq!(twin.next_entry(), cur.next_entry());
        // …and advancing one does not disturb the other.
        twin.next_entry();
        assert_eq!(cur.node().map(|n| n.0 + 3), twin.node().map(|n| n.0));
        drop(twin);
        drop(cur);
        assert_eq!(scratch_pool_stats().pooled, 2);
    }

    /// Three lists — 300 entries, none, 129 entries — written into one
    /// arena.
    fn three_lists() -> ([PostingList; 3], PostingArena) {
        let lists = [sample(300, 2), PostingList::empty(), sample(129, 7)];
        let mut arena = PostingArenaWriter::with_capacity(3, 0, 0);
        for list in &lists {
            for (node, positions) in list.iter() {
                arena.push_entry(node, positions.iter().copied());
            }
            arena.end_list();
        }
        (lists, arena.finish())
    }

    #[test]
    fn arena_lists_equal_lists_compressed_alone() {
        let (lists, arena) = three_lists();
        assert_eq!(arena.len(), 3);
        for (i, list) in lists.iter().enumerate() {
            let alone = PostingArena::from_posting(list);
            assert_eq!(arena.list(i), alone.list(0), "list {i}");
            assert_eq!(arena.list(i).to_posting(), *list);
            assert_eq!(arena.list(i).validate(), Ok(()));
        }
        assert!(arena.list(3).is_empty(), "past the last list");
        assert!(PostingArena::default().list(0).is_empty());
        // The lists tile the arena, which is shrunk to fit.
        let views: Vec<BlockList> = arena.iter().collect();
        assert_eq!(
            views.iter().map(|l| l.data_bytes()).sum::<usize>(),
            arena.data_bytes()
        );
        assert_eq!(
            views.iter().map(|l| l.header_bytes()).sum::<usize>(),
            arena.header_bytes()
        );
        assert_eq!(arena.heads.len(), arena.heads.capacity());
        assert_eq!(arena.blocks.len(), arena.blocks.capacity());
        assert_eq!(arena.data.len(), arena.data.capacity());
    }

    #[test]
    fn stored_lists_close_only_once_they_validate() {
        let (_, source) = three_lists();
        let mut arena = PostingArenaWriter::with_capacity(3, 0, 0);
        for list in source.iter() {
            let (blocks, data) = arena.stored_parts();
            blocks.extend_from_slice(list.headers());
            data.extend_from_slice(list.bytes());
            arena
                .end_stored_list(list.num_entries() as u32, list.num_positions() as u64)
                .expect("a built list is valid");
        }
        assert_eq!(arena.finish(), source);

        // A stored list whose counts lie is refused.
        let list = source.list(0);
        let mut arena = PostingArenaWriter::with_capacity(1, 0, 0);
        let (blocks, data) = arena.stored_parts();
        blocks.extend_from_slice(list.headers());
        data.extend_from_slice(list.bytes());
        let positions = list.num_positions() as u64;
        assert!(arena
            .end_stored_list(list.num_entries() as u32 + 1, positions)
            .is_err());
        assert!(arena
            .end_stored_list(list.num_entries() as u32, positions + 1)
            .is_err());
    }
}
