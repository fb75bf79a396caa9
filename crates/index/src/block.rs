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
//! A posting block is a block of the codec the pair lists share
//! (`frame.rs`) with two value columns: the three per-entry scalars travel
//! as *columns*, each a fixed-width bit-packed frame ([`crate::bitpack`])
//! rather than a stream of per-entry varints, and the position payloads
//! follow them:
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
//! A [`BlockCursor`] is the one skip-list walk ([`crate::cursor`]) over
//! these blocks plus the posting list's own parts: term frequencies and
//! positions. Position payloads stay varint-encoded and lazily decoded:
//! the unpacked length column gives every entry's payload range, so
//! entries rejected on node id alone never pay a position decode.

use crate::bitpack;
pub use crate::cursor::{scratch_pool_stats, ScratchPoolStats};
use crate::cursor::{BlockHeader, Headers, ListCursor};
use crate::frame;
use crate::postings::PostingList;
use crate::varint;
use ftsl_model::{NodeId, Position};

/// Entries per compressed block. 128 keeps the skip granularity fine while
/// letting the per-block header amortize to under 0.1 byte/entry, and
/// matches [`bitpack::LANES`] so one bit-packed frame covers one block.
pub const BLOCK_ENTRIES: usize = 128;

const _: () = assert!(
    BLOCK_ENTRIES == bitpack::LANES,
    "one bitpack frame must cover exactly one block"
);

/// Header of one compressed block — one implicit skip-list node.
///
/// Besides the skip information (`max_node`, `byte_start`, `first_entry`),
/// the header carries per-block *impact metadata*: `max_tf`, the largest
/// term frequency (position count) of any entry in the block. A scored
/// cursor turns `max_tf` into a score upper bound for the whole block, so
/// top-k evaluation can skip blocks whose bound falls below the current
/// threshold without decoding a single entry (block-max pruning).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
        frame::pack(
            &self.ids,
            &[&self.tfs, &self.pos_lens],
            BlockMeta::BIASES,
            data,
        );
        // Position payloads, varint-encoded exactly as staged.
        data.extend_from_slice(&self.pos_bytes);
        let max_tf = *self.tfs.iter().max().expect("non-empty block");
        (self.ids[self.ids.len() - 1], max_tf)
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

/// Check one entry's untrusted position payload at `data[at..]`: `tf`
/// positions whose varint deltas decode without overflow to exactly
/// `len` bytes. Returns the offset past the payload.
fn check_positions(data: &[u8], mut at: usize, tf: u32, len: u32) -> Result<usize, &'static str> {
    let end = at
        .checked_add(len as usize)
        .filter(|&end| end <= data.len())
        .ok_or("position bytes out of range")?;
    let mut prev: Option<Position> = None;
    for _ in 0..tf {
        // The first position is absolute; each later field is a delta,
        // and offsets strictly increase (stored as delta − 1).
        let (offset, sentence, paragraph, step) =
            prev.map_or((0, 0, 0, 0), |p| (p.offset, p.sentence, p.paragraph, 1));
        let mut field = |base: u32, step: u32| {
            let delta = varint::get_u32(data, &mut at).ok_or("truncated position")?;
            base.checked_add(delta)
                .and_then(|v| v.checked_add(step))
                .ok_or("position overflow")
        };
        prev = Some(Position::new(
            field(offset, step)?,
            field(sentence, 0)?,
            field(paragraph, 0)?,
        ));
        if at > end {
            return Err("positions overrun their declared length");
        }
    }
    if at != end {
        return Err("positions shorter than declared length");
    }
    Ok(at)
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

    /// Walk the whole list as *untrusted* bytes (the persisted load path)
    /// and return `Err` with a description instead of panicking the way
    /// the trusting [`BlockCursor`] would. The block codec checks every
    /// width, frame, count, ordering and padding invariant, so each list
    /// has exactly one canonical encoding; this adds the posting list's
    /// own rules: each header's `max_tf` is its block's largest term
    /// frequency, each entry's position payload decodes to exactly its
    /// declared byte length and `tf` positions without overflow, and the
    /// positions add up to the list's count. Nothing is retained: a list
    /// that passes is served from these same bytes.
    pub fn validate(self) -> Result<(), &'static str> {
        let mut total_positions = 0u64;
        let skips = self.blocks.iter().map(|m| frame::Skip {
            max_node: m.max_node.0,
            byte_start: m.byte_start,
            first_entry: m.first_entry,
        });
        frame::check_list(
            self.data,
            self.entries as usize,
            skips,
            BlockMeta::BIASES,
            |b, block| {
                let [tfs, lens] = &block.values;
                let (tfs, lens) = (&tfs[..block.count], &lens[..block.count]);
                if tfs.iter().max() != Some(&self.blocks[b].max_tf) {
                    return Err("block max_tf disagrees with entries");
                }
                for (&tf, &len) in tfs.iter().zip(lens) {
                    block.at = check_positions(self.data, block.at, tf, len)?;
                    total_positions += u64::from(tf);
                }
                Ok(())
            },
        )?;
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
        ListCursor::new(Headers::Run(self.blocks), self.data, self.entries)
    }
}

impl BlockHeader for BlockMeta {
    /// `tf − 1`, then each entry's position-payload byte length.
    const BIASES: &'static [u32] = &[1, 0];
    const PAIR: bool = false;
    type Extra = PositionState;

    #[inline]
    fn max_node(&self) -> NodeId {
        self.max_node
    }

    #[inline]
    fn byte_start(&self) -> usize {
        self.byte_start as usize
    }
}

/// The position sub-decoder a [`BlockCursor`] keeps for its current entry.
#[derive(Clone, Debug)]
pub struct PositionState {
    /// List index of the entry the sub-decoder is staged for; `u64::MAX`
    /// when stale (tag-based invalidation keeps it off the entry walk).
    valid_for: u64,
    idx: usize,
    /// Read offset of the next undecoded position varint.
    at: usize,
    /// End of the current entry's payload — the decode bound.
    end: usize,
    /// Delta base: the last position decoded.
    prev: Position,
}

impl Default for PositionState {
    fn default() -> Self {
        PositionState {
            valid_for: u64::MAX,
            idx: 0,
            at: 0,
            end: 0,
            prev: Position::flat(0),
        }
    }
}

/// A forward-only, skip-aware cursor over a [`BlockList`], decoding one
/// whole block at a time: the one [`ListCursor`] walk plus term
/// frequencies and positions.
///
/// Implements the paper's sequential contract (`next_entry` /
/// `positions`) plus the [`BlockCursor::seek`] extension: jump to the first
/// entry with node id ≥ a target, skipping whole blocks via the header
/// array and binary-searching the decoded ids inside the landing block.
/// Skipped entries are counted separately from consumed ones in
/// [`crate::AccessCounters`], so evaluation strategies can be compared on
/// exact access work.
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
pub type BlockCursor<'a> = ListCursor<'a, BlockMeta>;

impl ListCursor<'_, BlockMeta> {
    /// Term frequency of the current entry, read from the unpacked tf
    /// column (decoded for the whole block on the first request).
    ///
    /// # Panics
    /// Panics if called before the first successful [`Self::next_entry`].
    #[inline]
    pub fn tf(&mut self) -> u32 {
        self.value()
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
        if self.extra.valid_for != global {
            self.stage_positions(global);
        }
    }

    /// Cold half of [`Self::ensure_positions`]: resolve the payload range
    /// and decode the entry's first position (every accessor that stages an
    /// entry immediately needs at least one). Only the length column is
    /// consulted — the payload's byte range bounds the decode, so the tf
    /// column stays packed unless a scorer asks for it.
    fn stage_positions(&mut self, global: u64) {
        if self.scratch.column_block[1] != self.block {
            // Payload byte lengths become exclusive prefix ends, in place.
            self.column(1);
            let mut run = 0u32;
            for end in self.scratch.values[1].iter_mut() {
                run = run.wrapping_add(*end);
                *end = run;
            }
        }
        let idx = self.idx;
        let s = &*self.scratch;
        let base = s.frames.end;
        let ends = &s.values[1];
        self.extra.at = base + if idx == 0 { 0 } else { ends[idx - 1] as usize };
        self.extra.end = base + ends[idx] as usize;
        self.scratch.decoded.clear();
        self.extra.idx = 0;
        self.extra.valid_for = global;
        self.decode_next_position();
    }

    /// Materialize one more position of the current entry, if any remain.
    /// Each position is decoded at most once and counted in
    /// [`crate::AccessCounters::positions_decoded`] when it is — an entry
    /// whose predicate accepts or rejects on its first position pays
    /// exactly one position decode, not `tf`.
    fn decode_next_position(&mut self) -> Option<Position> {
        let pos = &mut self.extra;
        if pos.at >= pos.end {
            return None;
        }
        let data: &[u8] = self.data;
        let mut at = pos.at;
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
                offset: pos.prev.offset + a + 1,
                sentence: pos.prev.sentence + b,
                paragraph: pos.prev.paragraph + c,
            }
        };
        debug_assert!(at <= pos.end, "positions overran their payload");
        pos.at = at;
        pos.prev = p;
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
    /// [`crate::AccessCounters::positions_decoded`].
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
        while self.scratch.decoded.len() <= self.extra.idx {
            self.decode_next_position()?;
        }
        Some(self.scratch.decoded[self.extra.idx])
    }

    /// Advance the position sub-cursor to the first position with
    /// `offset >= min_offset`, counting consumed positions — and decoding
    /// only as far as the search actually looks.
    pub fn advance_position(&mut self, min_offset: u32) -> Option<Position> {
        self.ensure_positions();
        let start = self.extra.idx;
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
        self.extra.idx = i;
        self.counters.positions += (i - start) as u64;
        hit
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
