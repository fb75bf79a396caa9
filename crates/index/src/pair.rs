//! Word-pair auxiliary index: proximity acceleration for phrase and
//! NEAR(k) queries (Veretennikov-style additional indexes with
//! multi-component keys).
//!
//! For every **directed** pair of tokens `(a, b)` that co-occur in a
//! document with `b` at most [`PairConfig::window`] offsets *after* `a`,
//! the pair index stores one posting per containing document carrying the
//! **minimum forward gap** `g = min { off(b) − off(a) | off(a) < off(b) ≤
//! off(a) + window }`. Because the predicate "some occurrence of `b`
//! follows some occurrence of `a` within `w`" is exactly `minGap(a→b) ≤
//! w`, an ordered phrase / window / distance query over two tokens
//! resolves from **one** pair list instead of intersecting two position
//! streams and walking their offsets.
//!
//! ## Frequency cutoff
//!
//! Only pairs of two frequent tokens get indexed: a pair `(a, b)` is
//! stored iff `df(a) ≥ cutoff` **and** `df(b) ≥ cutoff`
//! ([`PairConfig::df_cutoff`]), i.e. iff even its rarer token is
//! frequent. Rare pairs are exactly the ones the position-intersection
//! path already handles cheaply (the intersection is driven by the rarer
//! list), so skipping them keeps the auxiliary structure small where it
//! buys nothing. The resulting lookup is
//! tri-state ([`PairLookup`]): a key over two frequent tokens that is
//! *absent* proves the answer empty (no fallback needed), while a key
//! touching an infrequent token is simply **not covered** and the caller
//! must fall back to position intersection.
//!
//! ## Physical layout
//!
//! A segment's pair index is **one arena** — a handful of flat vectors,
//! with no allocation per key. A key's list takes one of two forms, picked
//! by `PairArenaWriter::push_list` from its entry count. A key table keeps
//! each key's second token in a column of whole values, `u16` when the
//! vocabulary fits one and `u32` otherwise, so the binary search a lookup
//! makes probes with plain loads. Every other field of a key table, its
//! CSR `starts` and the coverage bitmap are **fixed-width bit-packed
//! rows** (`bitrows.rs`): each field is as wide as the segment's own bound
//! or maximum for it needs — a node as many bits as the largest node of
//! any entry, `gap − 1` as many as the window (capped at a byte), a first
//! block as many as the block count — not a machine word, and is read with
//! one unaligned `u64` load once its key is found.
//!
//! * a key of **one** entry (most keys: 82 % of a Zipf segment's) is stored
//!   **inline**, as its second token and one row `(node, gap − 1)` of a
//!   CSR key table over the first token of its own: the keys `(a, _)` are
//!   `starts[a]..starts[a + 1]`, ascending by second token, so finding one
//!   is a binary search inside that run. In a segment of 1 024 Zipf
//!   documents of 100 words each, with a vocabulary of 13 306 words and a
//!   window of 16, such a key takes 30 bits (a 16-bit token, then 10 + 4),
//!   where word-wide columns took 9 bytes. Its [`PairList`] is the entry
//!   made into the header of a one-entry block, held by value;
//! * a key of two or more entries (or of one entry whose gap a byte cannot
//!   hold, which only a window over 255 makes) sits in a second CSR key
//!   table of the same shape, its second token and one row `(first_block)`
//!   per key (16 + 17 bits in that segment): key `k`'s blocks run from its
//!   `first_block` to the next key's, or to the end of `blocks` for the
//!   last key;
//! * each table's `starts`, `vocabulary + 1` rows as wide as its key count
//!   needs;
//! * `blocks`, one 16-byte [`PairBlock`] header per block of
//!   [`crate::block::BLOCK_ENTRIES`] entries — a skip-list node
//!   (`max_node`, an absolute `byte_start`, the list-relative `end` entry)
//!   carrying the block's **minimum gap**: since every proximity score is
//!   monotone *decreasing* in the gap, `min_gap` is the block-max score
//!   bound, and a query bounded by `g` can skip whole blocks whose
//!   `min_gap` exceeds `g` without decoding an entry;
//! * `data`, one byte stream holding every block of two or more entries in
//!   the block codec the posting lists use (`frame.rs`) with one value
//!   column: a 6-byte prefix (`base:u32-le id_width:u8 gap_width:u8`)
//!   followed by two exception-free frame-of-reference columns — node-id
//!   deltas (lane 0 = 0, lane *i* = `id[i] − id[i−1] − 1`) and `gap − 1`
//!   (gaps are ≥ 1 by construction);
//! * the coverage bitmap, one bit per vocabulary token.
//!
//! The writer is given the arena's shape before the first key — its key
//! counts, block count and largest node (`ArenaShape`) — so it sizes
//! every vector exactly and fixes every row width up front. The build
//! counts the shape while it groups the postings; the load path reads it
//! off the stored section's headers in one pass before it appends a list,
//! so a decoded image has the widths and the resident bytes of the built
//! one.
//!
//! A block of one entry stores no bytes: its header's `max_node` and
//! `min_gap` already are the entry. That is how a list's last block of
//! one entry is stored, and how an inline key's list is read. A lookup
//! searches the key table of lists first, then the inline one. A
//! [`PairCursor`] is the posting lists' skip-list walk ([`crate::cursor`])
//! over a list's headers, plus each entry's gap: an inline key's cursor
//! holds its one header by value, so both forms have one walk, one set of
//! header probes and one counting rule.
//!
//! ## Building
//!
//! Every seal, flush and merge builds the pair index from the new
//! segment's documents ([`PairIndex::build`]), and the build sorts and
//! hashes nothing. A document's
//! occurrences are walked grouped by token, each group stamping the other
//! token's slot with itself, so a key seen twice in the group finds its
//! posting and keeps the smaller gap. The postings, packed one per machine
//! word as wide as this build's token, node and gap values need, are
//! grouped by key with two stable counting passes: by second token, then
//! by first, which also counts the arena's shape. Documents arrive in
//! node order and both passes keep it, so each key's run is already in
//! node order when it is appended to the arena. Two posting buffers are
//! allocated, and the build is linear in the postings plus the covered
//! tokens: the passes number tokens by their place among the covered ones,
//! in token order, so a token the documents never use costs its coverage
//! bit and its CSR slot, both filled in bulk, and nothing else.
//!
//! A build of a few thousand occurrences or more runs on two cores, when
//! the machine has them. The covered tokens are cut into two contiguous
//! **first-token ranges** holding about as many occurrences each, and
//! each range groups the keys whose first token is in it on a thread of
//! its own: a document pass that starts groups only for its own first
//! tokens (each range walks every document), and its own two counting
//! passes and shape. A key's first token decides its range, so the ranges'
//! keys, range after range, are every key in key order. Their shapes sum
//! to the arena's, which fixes every row width, and the arena is then
//! written in two halves that share no byte: the key tables on one thread
//! and the block headers with the data stream on the other, each walking
//! the ranges in order (a 1 024-document build: 52 ms, against 62 ms for
//! both halves in one walk, on 2 vCPUs). Each half is therefore appended
//! in the order, and with the widths, of a build that never split, and
//! the arena is that build's byte for byte (a property test in
//! `pair/build.rs` checks one to five ranges against one). Below the
//! cut-over the same code runs as one range, in one walk, on the calling
//! thread; the cut-over is set from the cost of a scoped thread, 40–60 µs
//! to spawn and join on a 2-vCPU virtual machine.
//!
//! The persisted form is the unchanged per-list v7 pair section
//! ([`crate::persist`]): the encoder writes each list through the
//! stored-form encoder, and the load path validates each stored list and
//! appends it to a fresh arena.

use crate::bitpack::width_for;
use crate::bitrows::BitRows;
use crate::block::{BlockList, BLOCK_ENTRIES};
use crate::counters::AccessCounters;
use crate::cursor::{BlockHeader, Headers, ListCursor};
use crate::frame;
use crate::local::LocalTokens;
use ftsl_model::{Document, NodeId, TokenId};
use std::ops::Range;

mod build;

/// Default co-occurrence window: forward gaps up to this many offsets are
/// indexed. 16 covers adjacency (phrase), every `distance(_, _, d)` with
/// `d ≤ 15`, and `window(_, _, w)` with `w ≤ 16`, while keeping the pair
/// fan-out per occurrence small.
pub const DEFAULT_PAIR_WINDOW: u32 = 16;

/// Default document-frequency cutoff: both tokens of a pair must appear
/// in at least this many documents for the pair to be indexed.
pub const DEFAULT_PAIR_DF_CUTOFF: u32 = 2;

/// Build-time configuration of the pair index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairConfig {
    /// Largest forward gap indexed (`window = 0` disables pair indexing).
    pub window: u32,
    /// Both tokens of a pair must have `df ≥ df_cutoff` to be indexed
    /// (0 indexes every pair).
    pub df_cutoff: u32,
}

impl Default for PairConfig {
    fn default() -> Self {
        PairConfig {
            window: DEFAULT_PAIR_WINDOW,
            df_cutoff: DEFAULT_PAIR_DF_CUTOFF,
        }
    }
}

impl PairConfig {
    /// A configuration that builds no pair index at all.
    pub fn disabled() -> Self {
        PairConfig {
            window: 0,
            df_cutoff: 0,
        }
    }
}

/// Header of one pair block — skip-list node plus the block's proximity
/// impact bound. A key of two or more entries keeps one per block in its
/// segment's arena; a key of one entry keeps none, and its list is this
/// header made from the entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairBlock {
    /// Largest node id stored in the block (its last entry's id).
    pub max_node: NodeId,
    /// Offset of the block's packed bytes in the arena's data stream
    /// (where they would start, for a one-entry block, which has none).
    pub byte_start: u32,
    /// List-relative index one past the block's last entry: the block
    /// holds entries `block × 128 .. end`, and the last block's `end` is
    /// the list's length.
    pub end: u32,
    /// Smallest gap of any entry in the block. Proximity scores decrease
    /// with the gap, so this is the block-max score bound — and a query
    /// bounded by `g < min_gap` skips the block whole.
    pub min_gap: u32,
}

/// Pack one block of `(node, gap)` entries — at most
/// [`BLOCK_ENTRIES`], node ids strictly increasing, every gap ≥ 1 — onto
/// `out` through the block codec: the id-delta and `gap − 1` columns.
/// Returns the block's minimum gap. The arena and the persisted per-list
/// encoding share this, so a block of two or more entries has the same
/// bytes in both.
pub(crate) fn pack_block(chunk: &[(u32, u32)], out: &mut Vec<u8>) -> u32 {
    debug_assert!(
        chunk.iter().all(|&(_, g)| g >= 1),
        "pair gaps are forward distances ≥ 1"
    );
    let (ids, gaps) = (|i: usize| chunk[i].0, |_, i: usize| chunk[i].1);
    frame::pack_by(chunk.len(), ids, gaps, PairBlock::BIASES, out);
    chunk
        .iter()
        .map(|&(_, g)| g)
        .min()
        .expect("non-empty block")
}

/// One key's pair posting list: one `(node, min forward gap)` entry per
/// document containing the pair within the window. Never empty. A borrowed
/// view of the key's block headers and of the segment's data stream, or,
/// for a key the arena stores inline, its one entry as a header by value.
#[derive(Clone, Copy)]
pub struct PairList<'a> {
    blocks: Headers<'a, PairBlock>,
    /// The whole arena stream (`byte_start` is absolute); empty for an
    /// inline key.
    data: &'a [u8],
}

impl std::fmt::Debug for PairList<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairList")
            .field("entries", &self.num_entries())
            .field("blocks", &self.num_blocks())
            .finish()
    }
}

impl<'a> PairList<'a> {
    /// Decode every `(node, gap)` entry (trusted bytes — the arena is
    /// well-formed by construction or validated on load).
    pub fn to_entries(self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_entries());
        self.append_entries(&mut out);
        out
    }

    /// Append every `(node, gap)` entry to `out`.
    pub(crate) fn append_entries(self, out: &mut Vec<(u32, u32)>) {
        let mut cur = self.cursor();
        while let Some(node) = cur.next_entry() {
            out.push((node.0, cur.gap()));
        }
    }

    /// Number of `(node, gap)` entries.
    pub fn num_entries(self) -> usize {
        self.blocks.as_slice().last().map_or(0, |b| b.end as usize)
    }

    /// Number of blocks.
    pub fn num_blocks(self) -> usize {
        self.blocks.as_slice().len()
    }

    /// Smallest gap across the whole list — the list-level proximity
    /// impact bound.
    pub fn min_gap(self) -> u32 {
        self.blocks
            .as_slice()
            .iter()
            .map(|b| b.min_gap)
            .min()
            .unwrap_or(u32::MAX)
    }

    /// Open a seeking, block-at-a-time cursor.
    #[inline]
    pub fn cursor(self) -> PairCursor<'a> {
        ListCursor::new(self.blocks, self.data, self.num_entries() as u32)
    }
}

impl BlockHeader for PairBlock {
    /// `gap − 1`.
    const BIASES: &'static [u32] = &[1];
    const PAIR: bool = true;
    type Extra = ();

    #[inline]
    fn max_node(&self) -> NodeId {
        self.max_node
    }

    #[inline]
    fn byte_start(&self) -> usize {
        self.byte_start as usize
    }

    /// A block of one entry stores no bytes: its header's `max_node` and
    /// `min_gap` are the entry.
    #[inline]
    fn header_only(&self, count: usize) -> Option<u32> {
        (count == 1).then_some(self.min_gap)
    }
}

/// A forward-only, skip-aware cursor over a [`PairList`], decoding one
/// whole block at a time: the one [`ListCursor`] walk plus each entry's
/// gap.
///
/// Counter semantics follow the established contract: consumed entries
/// count in [`AccessCounters::entries`] *and* in
/// [`AccessCounters::pair_entries`] (so pair-path work stays comparable to
/// intersection work while remaining attributable), bypassed entries in
/// [`AccessCounters::skipped`], and whole-block jumps in
/// [`AccessCounters::blocks_skipped`].
pub type PairCursor<'a> = ListCursor<'a, PairBlock>;

impl ListCursor<'_, PairBlock> {
    /// Minimum forward gap of the current entry, read from the gap column
    /// (decoded for the whole block on the first request).
    ///
    /// # Panics
    /// Panics if the cursor is not positioned on an entry.
    #[inline]
    pub fn gap(&mut self) -> u32 {
        self.value()
    }
}

/// Result of a pair-index lookup — the planner's coverage contract.
#[derive(Debug)]
pub enum PairLookup<'a> {
    /// Both tokens are frequent and the pair co-occurs: here is its list.
    List(PairList<'a>),
    /// Both tokens are frequent but the pair never co-occurs within the
    /// window: the answer is **provably empty**, no fallback needed.
    Empty,
    /// At least one token is below the df cutoff (or the index was built
    /// without pairs): the pair is outside the index's coverage and the
    /// caller must fall back to position intersection.
    NotCovered,
}

/// The second tokens of a key table, one per key, as `u16` when every
/// token of the vocabulary fits one, else as `u32`: whole aligned values,
/// so the binary search a lookup makes inside a run probes with plain
/// loads, not the variable shifts a bit-packed field needs.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Seconds {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Default for Seconds {
    fn default() -> Self {
        Seconds::U16(Vec::new())
    }
}

/// The index of `b` in `column[run]`, which ascends, as an index of
/// `column`.
#[inline]
fn search<T: Ord + TryFrom<u32>>(column: &[T], run: Range<usize>, b: u32) -> Option<usize> {
    let start = run.start;
    let b = T::try_from(b).ok()?;
    column[run].binary_search(&b).ok().map(|i| start + i)
}

impl Seconds {
    /// An empty column for tokens of `width` bits, with room for `keys`.
    fn with_capacity(width: u8, keys: usize) -> Self {
        if width <= 16 {
            Seconds::U16(Vec::with_capacity(keys))
        } else {
            Seconds::U32(Vec::with_capacity(keys))
        }
    }

    fn len(&self) -> usize {
        match self {
            Seconds::U16(v) => v.len(),
            Seconds::U32(v) => v.len(),
        }
    }

    /// Bits per token.
    fn bits(&self) -> u32 {
        match self {
            Seconds::U16(_) => 16,
            Seconds::U32(_) => 32,
        }
    }

    #[inline]
    fn get(&self, key: usize) -> u32 {
        match self {
            Seconds::U16(v) => u32::from(v[key]),
            Seconds::U32(v) => v[key],
        }
    }

    /// Append `b`; refuses a token wider than the column.
    fn push(&mut self, b: u32) -> Result<(), &'static str> {
        const WIDE: &str = "token wider than its key column";
        match self {
            Seconds::U16(v) => v.push(u16::try_from(b).map_err(|_| WIDE)?),
            Seconds::U32(v) => v.push(b),
        }
        Ok(())
    }

    /// The key in `run` whose second token is `b`.
    #[inline]
    fn find(&self, run: Range<usize>, b: u32) -> Option<usize> {
        match self {
            Seconds::U16(v) => search(v, run, b),
            Seconds::U32(v) => search(v, run, b),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Seconds::U16(v) => v.shrink_to_fit(),
            Seconds::U32(v) => v.shrink_to_fit(),
        }
    }

    fn resident_bytes(&self) -> usize {
        let capacity = match self {
            Seconds::U16(v) => v.capacity(),
            Seconds::U32(v) => v.capacity(),
        };
        capacity * self.bits() as usize / 8
    }
}

/// A CSR table of keys over the first token: the keys `(a, _)` are
/// `starts[a]..starts[a + 1]`, ascending by second token; a key's number
/// is its place in the table. The second tokens are one byte-aligned
/// column ([`Seconds`]); the key form's own `N` fields are bit-packed rows
/// ([`BitRows`]), read once a key is found.
#[derive(Clone, Debug, Default)]
#[cfg_attr(test, derive(PartialEq, Eq))]
struct Keys<const N: usize> {
    /// `vocabulary + 1` rows once finished, each as wide as the number of
    /// keys needs (empty when pairs are disabled).
    starts: BitRows<1>,
    /// Each key's second token.
    seconds: Seconds,
    /// One row per key: the form's fields.
    rows: BitRows<N>,
}

impl<const N: usize> Keys<N> {
    /// An empty table over `vocab` first tokens of `token` bits with room
    /// for `keys` keys whose rows are `widths`.
    fn with_capacity(vocab: usize, keys: usize, token: u8, widths: [u8; N]) -> Self {
        Keys {
            starts: BitRows::with_capacity([width_of(keys)], vocab + 1),
            seconds: Seconds::with_capacity(token, keys),
            rows: BitRows::with_capacity(widths, keys),
        }
    }

    fn len(&self) -> usize {
        self.seconds.len()
    }

    /// The numbers of the keys `(a, _)`. `a` must be below the vocabulary
    /// the table was finished over.
    #[inline]
    fn run(&self, a: usize) -> Range<usize> {
        self.starts.get(a, 0) as usize..self.starts.get(a + 1, 0) as usize
    }

    /// The number of key `(a, b)`, if the table holds it.
    #[inline]
    fn find(&self, a: usize, b: u32) -> Option<usize> {
        self.seconds.find(self.run(a), b)
    }

    /// Append key `(a, b)`, whose row is `row`, after every key already
    /// held.
    fn push(&mut self, a: u32, b: u32, row: [u32; N]) -> Result<(), &'static str> {
        let key = u32::try_from(self.len()).map_err(|_| TOO_LARGE)?;
        if self.starts.len() <= a as usize {
            self.starts.extend_to(a as usize + 1, [key])?;
        }
        self.rows.push(row)?;
        self.seconds.push(b)
    }

    /// Close the CSR table over `vocab` first tokens and shrink it.
    fn finish(&mut self, vocab: usize) -> Result<(), &'static str> {
        let keys = u32::try_from(self.len()).map_err(|_| TOO_LARGE)?;
        self.starts.extend_to(vocab + 1, [keys])?;
        self.starts.shrink_to_fit();
        self.seconds.shrink_to_fit();
        self.rows.shrink_to_fit();
        Ok(())
    }

    /// Bits per key: its second token and its row.
    fn key_bits(&self) -> u32 {
        self.seconds.bits() + self.rows.row_bits()
    }

    fn resident_bytes(&self) -> usize {
        self.starts.resident_bytes() + self.seconds.resident_bytes() + self.rows.resident_bytes()
    }
}

/// The bit width of values up to `max`.
fn width_of(max: usize) -> u8 {
    width_for(u32::try_from(max).unwrap_or(u32::MAX))
}

/// The refusal of an arena past `u32` offsets.
const TOO_LARGE: &str = "pair arena exceeds u32 offsets";

/// Whether the coverage bitmap `frequent` covers `token`.
#[inline]
fn covered(frequent: &BitRows<1>, token: u32) -> bool {
    let t = token as usize;
    t < frequent.len() && frequent.get(t, 0) == 1
}

/// Whether the arena stores a list of `len` entries, the first with gap
/// `gap`, inline: one entry, with a gap a byte holds.
fn is_inline(len: usize, gap: u32) -> bool {
    len == 1 && (1..=u32::from(u8::MAX)).contains(&gap)
}

/// Bits per key of each of a [`PairIndex`]'s key tables: the widths its
/// segment's bounds and maxima need, not machine words. A key's second
/// token takes 16 bits, or 32 when the vocabulary does not fit 16; its
/// other fields are bit-packed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairRowBits {
    /// An inline key: second token, node and `gap − 1`.
    pub inline: u32,
    /// A list key: second token and first block.
    pub lists: u32,
    /// A row of the inline table's `starts`.
    pub inline_starts: u32,
    /// A row of the list table's `starts`.
    pub list_starts: u32,
}

/// The word-pair auxiliary index over one segment's corpus, stored as one
/// arena (see the module docs' "Physical layout"): two CSR key tables,
/// each a column of second tokens beside bit-packed rows, the coverage
/// bitmap, block headers and one byte stream.
///
/// An index built with [`PairConfig::disabled`] (or loaded from an image
/// without a pair section) is empty and reports every lookup as
/// [`PairLookup::NotCovered`], so callers degrade to the intersection
/// path uniformly.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct PairIndex {
    /// The window/cutoff the index was built with (`window == 0` when
    /// disabled or absent).
    config: PairConfig,
    /// The keys of two or more entries (and of one entry whose gap is
    /// wider than a byte): rows `(first_block)`, key `k`'s blocks running
    /// to the next key's first block (or to the end of `blocks`).
    lists: Keys<1>,
    blocks: Vec<PairBlock>,
    /// Packed bytes of every block of two or more entries.
    data: Vec<u8>,
    /// The keys stored inline: rows `(node, gap − 1)`.
    inline: Keys<2>,
    /// Per-token coverage, one bit per token: set iff `df(t) ≥ df_cutoff`
    /// at build time. Empty when the index is disabled.
    frequent: BitRows<1>,
    /// Total pair postings across all lists.
    entries: u64,
}

impl Default for PairIndex {
    /// The absent index: disabled config, no coverage — every lookup
    /// reports [`PairLookup::NotCovered`].
    fn default() -> Self {
        PairIndex {
            config: PairConfig::disabled(),
            lists: Keys::default(),
            blocks: Vec::new(),
            data: Vec::new(),
            inline: Keys::default(),
            frequent: BitRows::default(),
            entries: 0,
        }
    }
}

impl PairIndex {
    /// Build the pair index for `docs` (ordered by node id, as the segment
    /// builder guarantees). `dfs[t]` is the document frequency of token
    /// `t` in the same document set.
    ///
    /// # Panics
    /// Panics past `u32::MAX` postings (the arena's offsets are `u32`).
    pub fn build(docs: &[Document], dfs: &[u32], config: PairConfig) -> PairIndex {
        let tokens = LocalTokens::of(docs);
        let used_dfs: Vec<u32> = tokens.used.iter().map(|&(t, _)| dfs[t as usize]).collect();
        Self::build_local(docs, tokens, &used_dfs, dfs.len(), config)
    }

    /// Look up the directed pair `(a, b)` — see [`PairLookup`] for the
    /// coverage contract.
    pub fn lookup(&self, a: TokenId, b: TokenId) -> PairLookup<'_> {
        if !self.covers(a) || !self.covers(b) {
            return PairLookup::NotCovered;
        }
        // Covered ⇒ `a` is below the vocabulary, so both tables have its run.
        if let Some(key) = self.lists.find(a.index(), b.0) {
            PairLookup::List(self.list(key))
        } else if let Some(key) = self.inline.find(a.index(), b.0) {
            PairLookup::List(self.inline_list(key))
        } else {
            PairLookup::Empty
        }
    }

    /// The list of key number `key` of `lists`.
    fn list(&self, key: usize) -> PairList<'_> {
        let from = self.lists.rows.get(key, 0) as usize;
        let to = if key + 1 < self.lists.len() {
            self.lists.rows.get(key + 1, 0) as usize
        } else {
            self.blocks.len()
        };
        PairList {
            blocks: Headers::Run(&self.blocks[from..to]),
            data: &self.data,
        }
    }

    /// The list of key number `key` of `inline`: its entry as the header
    /// of a one-entry block.
    fn inline_list(&self, key: usize) -> PairList<'_> {
        let rows = &self.inline.rows;
        PairList {
            blocks: Headers::One(PairBlock {
                max_node: NodeId(rows.get(key, 0)),
                byte_start: 0,
                end: 1,
                min_gap: rows.get(key, 1) + 1,
            }),
            data: &[],
        }
    }

    /// Whether `token` is within the index's coverage (frequent enough at
    /// build time). False for every token when the index is disabled.
    #[inline]
    pub fn covers(&self, token: TokenId) -> bool {
        covered(&self.frequent, token.0)
    }

    /// The window/cutoff the index was built with.
    pub fn config(&self) -> PairConfig {
        self.config
    }

    /// True when the index holds no pair lists (disabled, or nothing met
    /// the window/cutoff).
    pub fn is_empty(&self) -> bool {
        self.num_keys() == 0
    }

    /// Number of distinct directed pairs indexed.
    pub fn num_keys(&self) -> usize {
        self.lists.len() + self.inline.len()
    }

    /// Number of keys whose list holds one document. All but a key whose
    /// gap is wider than a byte are stored inline.
    pub fn num_single_document_keys(&self) -> usize {
        let wide = self.blocks.iter().filter(|b| b.end == 1).count();
        self.inline.len() + wide
    }

    /// Total pair postings across all lists.
    pub fn num_entries(&self) -> u64 {
        self.entries
    }

    /// Bits per key of each key table, and per row of each `starts`.
    pub fn row_bits(&self) -> PairRowBits {
        PairRowBits {
            inline: self.inline.key_bits(),
            lists: self.lists.key_bits(),
            inline_starts: self.inline.starts.row_bits(),
            list_starts: self.lists.starts.row_bits(),
        }
    }

    /// Resident bytes: the arena's vectors — both key tables, block
    /// headers, packed stream, and the coverage bitmap.
    pub fn resident_bytes(&self) -> usize {
        self.lists.resident_bytes()
            + self.inline.resident_bytes()
            + self.blocks.capacity() * std::mem::size_of::<PairBlock>()
            + self.data.capacity()
            + self.frequent.resident_bytes()
    }

    /// Iterate `(a, b, list)` in key order (persistence and diagnostics):
    /// per first token, its keys of both tables merged by second token.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, TokenId, PairList<'_>)> {
        let firsts = self.lists.starts.len().saturating_sub(1);
        (0..firsts).flat_map(move |a| {
            let (mut lists, mut inline) = (self.lists.run(a), self.inline.run(a));
            std::iter::from_fn(move || {
                let list_b = (!lists.is_empty()).then(|| self.lists.seconds.get(lists.start));
                let inline_b = (!inline.is_empty()).then(|| self.inline.seconds.get(inline.start));
                let (b, list) = match (list_b, inline_b) {
                    (None, None) => return None,
                    (Some(l), Some(i)) if i < l => (i, self.inline_list(inline.next()?)),
                    (Some(l), _) => (l, self.list(lists.next()?)),
                    (None, Some(i)) => (i, self.inline_list(inline.next()?)),
                };
                Some((TokenId(a as u32), TokenId(b), list))
            })
        })
    }

    /// The coverage bitmap (exposed for persistence): the vocabulary it
    /// spans and its packed bits, bit `t` of byte `t / 8` for token `t`.
    pub(crate) fn coverage(&self) -> (usize, &[u8]) {
        (self.frequent.len(), self.frequent.packed())
    }
}

/// What an arena will hold — how many keys of each form, how many block
/// headers, and the largest node of any entry — from which the writer
/// sizes every vector and picks the width of every packed row.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ArenaShape {
    /// Keys stored with block headers.
    pub(crate) lists: usize,
    /// Block headers of those keys.
    pub(crate) blocks: usize,
    /// Keys stored inline.
    pub(crate) inline: usize,
    /// The largest node of any entry.
    pub(crate) max_node: u32,
}

impl ArenaShape {
    /// Make room for a list of `len` entries whose first gap is `gap`.
    pub(crate) fn add(&mut self, len: usize, gap: u32) {
        if is_inline(len, gap) {
            self.inline += 1;
        } else {
            self.lists += 1;
            self.blocks += len.div_ceil(BLOCK_ENTRIES);
        }
    }

    /// The shape of an arena holding this one's keys, then `next`'s.
    pub(crate) fn then(self, next: ArenaShape) -> ArenaShape {
        ArenaShape {
            lists: self.lists + next.lists,
            blocks: self.blocks + next.blocks,
            inline: self.inline + next.inline,
            max_node: self.max_node.max(next.max_node),
        }
    }
}

/// Appends pair lists, in strictly increasing key order, to a new arena —
/// the one writer behind [`PairIndex::build`] and the persisted load path,
/// and the one place that checks the keys the CSR tables are sized by and
/// picks each key's form.
///
/// The arena has two halves, each filled in key order and sharing nothing
/// with the other: the key tables ([`KeyTables`]), and the block headers
/// with the data stream of the keys stored with blocks ([`Blocks`]). A
/// builder may take them out ([`Self::halves`]) and fill them on two
/// threads.
pub(crate) struct PairArenaWriter {
    config: PairConfig,
    frequent: BitRows<1>,
    keys: KeyTables,
    blocks: Blocks,
}

impl PairArenaWriter {
    /// An empty arena over the coverage bitmap `frequent`, holding what
    /// `shape` describes. Every width comes from a bound or a maximum: a
    /// second token's column from the vocabulary, a node from the shape,
    /// `gap − 1` from the window (capped at a byte), a first block from the
    /// block count, and a CSR start from its table's key count.
    pub(crate) fn with_shape(config: PairConfig, frequent: BitRows<1>, shape: ArenaShape) -> Self {
        let vocab = frequent.len();
        let token = width_of(vocab.saturating_sub(1));
        let gap = width_for(config.window.min(u32::from(u8::MAX)).saturating_sub(1));
        let node = width_for(shape.max_node);
        PairArenaWriter {
            config,
            frequent,
            keys: KeyTables {
                lists: Keys::with_capacity(vocab, shape.lists, token, [width_of(shape.blocks)]),
                inline: Keys::with_capacity(vocab, shape.inline, token, [node, gap]),
                ..KeyTables::default()
            },
            blocks: Blocks {
                blocks: Vec::with_capacity(shape.blocks),
                data: Vec::new(),
            },
        }
    }

    /// Check that key `(a, b)` may come next: both tokens covered, and
    /// after the previous key.
    fn check_key(&self, a: u32, b: u32) -> Result<(), &'static str> {
        if !covered(&self.frequent, a) || !covered(&self.frequent, b) {
            return Err("pair key token not covered");
        }
        if self.keys.last.is_some_and(|last| (a, b) <= last) {
            return Err("pair keys not sorted and unique");
        }
        Ok(())
    }

    /// Append key `(a, b)`'s `(node, gap)` entries (node ids strictly
    /// increasing, gaps in `1..=window`): inline when it has one entry
    /// with a gap a byte holds, otherwise as blocks. Refuses a key outside
    /// the coverage bitmap or not covered, a key with no entries, a key
    /// not after the previous one, a value wider than the arena's shape
    /// gave its row, and an arena past `u32` offsets — none of which the
    /// builder emits, so each is a corrupt persisted section.
    pub(crate) fn push_list(
        &mut self,
        a: u32,
        b: u32,
        entries: &[(u32, u32)],
    ) -> Result<(), &'static str> {
        self.check_key(a, b)?;
        let Some(&first) = entries.first() else {
            return Err("pair key with no entries");
        };
        self.keys.push(a, b, entries.len(), first)?;
        self.blocks.push(entries)
    }

    /// Take out the arena's two halves, to be filled with the same keys in
    /// the same order and given back ([`Self::restore`]).
    pub(crate) fn halves(&mut self) -> (KeyTables, Blocks) {
        (
            std::mem::take(&mut self.keys),
            std::mem::take(&mut self.blocks),
        )
    }

    /// Give back the halves [`Self::halves`] took out.
    pub(crate) fn restore(&mut self, keys: KeyTables, blocks: Blocks) {
        debug_assert_eq!(
            keys.blocks,
            blocks.blocks.len(),
            "both halves hold every key"
        );
        (self.keys, self.blocks) = (keys, blocks);
    }

    /// Close the CSR tables, and shrink every vector to its length.
    pub(crate) fn finish(self) -> Result<PairIndex, &'static str> {
        let PairArenaWriter {
            config,
            mut frequent,
            keys:
                KeyTables {
                    mut lists,
                    mut inline,
                    entries,
                    ..
                },
            blocks: Blocks {
                mut blocks,
                mut data,
            },
        } = self;
        let vocab = frequent.len();
        lists.finish(vocab)?;
        inline.finish(vocab)?;
        blocks.shrink_to_fit();
        data.shrink_to_fit();
        frequent.shrink_to_fit();
        Ok(PairIndex {
            config,
            lists,
            blocks,
            data,
            inline,
            frequent,
            entries,
        })
    }
}

/// The key tables of an arena being written ([`PairArenaWriter`]): every
/// key's second token and row, and the CSR starts.
#[derive(Default)]
pub(crate) struct KeyTables {
    lists: Keys<1>,
    inline: Keys<2>,
    entries: u64,
    /// Block headers the keys so far take: the next list key's first.
    blocks: usize,
    last: Option<(u32, u32)>,
}

impl KeyTables {
    /// Append key `(a, b)` of `len ≥ 1` entries, the first `(node, gap)`,
    /// which must come after the previous key and be covered (the builder's
    /// keys are by construction; [`PairArenaWriter::push_list`] checks).
    /// Refuses a value wider than the arena's shape gave its row, and an
    /// arena past `u32` offsets.
    pub(crate) fn push(
        &mut self,
        a: u32,
        b: u32,
        len: usize,
        (node, gap): (u32, u32),
    ) -> Result<(), &'static str> {
        debug_assert!(len > 0 && self.last < Some((a, b)));
        // `a` is covered, so a table's `push` fills at most
        // `frequent.len()` CSR slots.
        if is_inline(len, gap) {
            self.inline.push(a, b, [node, gap - 1])?;
        } else {
            let first_block = u32::try_from(self.blocks).map_err(|_| TOO_LARGE)?;
            u32::try_from(len).map_err(|_| TOO_LARGE)?;
            self.lists.push(a, b, [first_block])?;
            self.blocks += len.div_ceil(BLOCK_ENTRIES);
        }
        self.entries += len as u64;
        self.last = Some((a, b));
        Ok(())
    }
}

/// The block headers and the data stream of an arena being written
/// ([`PairArenaWriter`]).
#[derive(Default)]
pub(crate) struct Blocks {
    blocks: Vec<PairBlock>,
    data: Vec<u8>,
}

impl Blocks {
    /// Append the blocks of the next key's `(node, gap)` entries, if it is
    /// not stored inline ([`is_inline`]). Refuses a key with no entries
    /// and an arena past `u32` offsets.
    pub(crate) fn push(&mut self, entries: &[(u32, u32)]) -> Result<(), &'static str> {
        let Some(&(_, gap)) = entries.first() else {
            return Err("pair key with no entries");
        };
        if is_inline(entries.len(), gap) {
            return Ok(());
        }
        for (i, chunk) in entries.chunks(BLOCK_ENTRIES).enumerate() {
            let byte_start = u32::try_from(self.data.len()).map_err(|_| TOO_LARGE)?;
            let last = chunk[chunk.len() - 1];
            let min_gap = if chunk.len() == 1 {
                last.1
            } else {
                pack_block(chunk, &mut self.data)
            };
            self.blocks.push(PairBlock {
                max_node: NodeId(last.0),
                byte_start,
                end: (i * BLOCK_ENTRIES + chunk.len()) as u32,
                min_gap,
            });
        }
        Ok(())
    }
}

/// Position-intersection oracle for the pair semantics: the minimum
/// forward gap (within `window`) between occurrences of `a` and `b` for
/// every node on both lists. This is both the differential-test oracle
/// and the segment-level fallback for pairs outside the index's coverage.
/// Returns `(node, min_gap)` pairs in node order. `counters` receives the
/// work the pair index would have saved — two entries and both position
/// lists per co-occurring node; entries leapfrogged past are not charged.
pub fn min_forward_gaps(
    a: BlockList<'_>,
    b: BlockList<'_>,
    window: u32,
    counters: &mut AccessCounters,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (mut ca, mut cb) = (a.cursor(), b.cursor());
    let (mut na, mut nb) = (ca.next_entry(), cb.next_entry());
    while let (Some(da), Some(db)) = (na, nb) {
        if da < db {
            na = ca.seek(db);
        } else if db < da {
            nb = cb.seek(da);
        } else {
            counters.entries += 2;
            let pa = ca.positions();
            let pb = cb.positions();
            counters.positions += (pa.len() + pb.len()) as u64;
            let mut best = u32::MAX;
            let mut bi = 0usize;
            for p in pb {
                while bi < pa.len() && pa[bi].offset < p.offset {
                    bi += 1;
                }
                // pa[bi - 1] is the closest occurrence of `a` strictly
                // before `p` (offsets are unique within a document).
                if bi > 0 {
                    let gap = p.offset - pa[bi - 1].offset;
                    if gap >= 1 {
                        best = best.min(gap);
                    }
                }
            }
            if best <= window {
                out.push((da.0, best));
            }
            na = ca.next_entry();
            nb = cb.next_entry();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_model::Corpus;

    fn build_for(texts: &[&str], config: PairConfig) -> (Corpus, PairIndex) {
        let corpus = Corpus::from_texts(texts);
        let vocab = corpus.interner().len();
        let mut dfs = vec![0u32; vocab];
        let mut seen = vec![u32::MAX; vocab];
        for (d, doc) in corpus.documents().iter().enumerate() {
            for &(t, _) in &doc.tokens {
                if seen[t.index()] != d as u32 {
                    seen[t.index()] = d as u32;
                    dfs[t.index()] += 1;
                }
            }
        }
        let pairs = PairIndex::build(corpus.documents(), &dfs, config);
        (corpus, pairs)
    }

    fn all_pairs() -> PairConfig {
        PairConfig {
            window: 4,
            df_cutoff: 0,
        }
    }

    fn tok(corpus: &Corpus, s: &str) -> TokenId {
        corpus.token_id(s).unwrap()
    }

    /// The coverage bitmap of `flags`.
    fn bits(flags: &[bool]) -> BitRows<1> {
        let mut bits = BitRows::zeroed([1], flags.len());
        for (t, _) in flags.iter().enumerate().filter(|&(_, &f)| f) {
            bits.set(t, 0, 1);
        }
        bits
    }

    /// Field `field` of every row of `rows`.
    fn column<const N: usize>(rows: &BitRows<N>, field: usize) -> Vec<u32> {
        (0..rows.len()).map(|i| rows.get(i, field)).collect()
    }

    /// A two-token arena holding `entries` as key `(0, 1)`.
    fn arena_of(entries: &[(u32, u32)]) -> PairIndex {
        let mut shape = ArenaShape {
            max_node: entries[entries.len() - 1].0,
            ..ArenaShape::default()
        };
        shape.add(entries.len(), entries[0].1);
        let mut arena = PairArenaWriter::with_shape(PairConfig::default(), bits(&[true; 2]), shape);
        arena.push_list(0, 1, entries).expect("valid list");
        arena.finish().expect("the shape holds the list")
    }

    fn list_of(index: &PairIndex) -> PairList<'_> {
        match index.lookup(TokenId(0), TokenId(1)) {
            PairLookup::List(list) => list,
            other => panic!("expected list, got {other:?}"),
        }
    }

    /// The `u128` words, which only a covered vocabulary, node ids and a
    /// window wide enough together to overflow 64 bits reach, build what
    /// the `u64` words build.
    #[test]
    fn wide_words_build_what_narrow_words_build() {
        let texts = ["a b c a b d", "", "b c d e a a", "e d c b a", "f a f b f c"];
        let corpus = Corpus::from_texts(&texts);
        let docs = corpus.documents();
        let dfs: Vec<u32> = (0..corpus.interner().len() as u32)
            .map(|t| {
                docs.iter()
                    .filter(|d| d.tokens.iter().any(|x| x.0 .0 == t))
                    .count() as u32
            })
            .collect();
        let lists = |index: &PairIndex| -> Vec<_> {
            index
                .iter()
                .map(|(a, b, list)| (a, b, list.to_entries()))
                .collect()
        };
        for (window, cutoff) in [(1, 0), (4, 2), (u32::MAX, 1)] {
            let config = PairConfig {
                window,
                df_cutoff: cutoff,
            };
            let build = |wide: bool| build::build_with_words(docs, &dfs, config, wide);
            let (narrow, wide) = (build(false), build(true));
            assert!(!narrow.is_empty(), "window {window}");
            assert_eq!(lists(&wide), lists(&narrow), "window {window}");
            assert_eq!(wide.coverage(), narrow.coverage());
            assert_eq!(wide.lists.starts, narrow.lists.starts);
            assert_eq!(wide.inline.starts, narrow.inline.starts);
        }
    }

    #[test]
    fn directed_pairs_store_min_forward_gaps() {
        let (corpus, pairs) = build_for(&["a b c a b"], all_pairs());
        let (a, b, c) = (tok(&corpus, "a"), tok(&corpus, "b"), tok(&corpus, "c"));
        match pairs.lookup(a, b) {
            PairLookup::List(list) => assert_eq!(list.to_entries(), vec![(0, 1)]),
            other => panic!("expected list, got {other:?}"),
        }
        // b → a exists too (gap 2: b at 1, a at 3), direction matters.
        match pairs.lookup(b, a) {
            PairLookup::List(list) => assert_eq!(list.to_entries(), vec![(0, 2)]),
            other => panic!("expected list, got {other:?}"),
        }
        // c → a: gap 1 (c at 2, a at 3).
        match pairs.lookup(c, a) {
            PairLookup::List(list) => assert_eq!(list.to_entries(), vec![(0, 1)]),
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn repeated_token_pairs_index_self_pairs() {
        let (corpus, pairs) = build_for(&["a a a"], all_pairs());
        let a = tok(&corpus, "a");
        match pairs.lookup(a, a) {
            PairLookup::List(list) => assert_eq!(list.to_entries(), vec![(0, 1)]),
            other => panic!("expected list, got {other:?}"),
        }
    }

    #[test]
    fn window_bounds_what_gets_indexed() {
        let (corpus, pairs) = build_for(
            &["a x x x x b"],
            PairConfig {
                window: 4,
                df_cutoff: 0,
            },
        );
        let (a, b) = (tok(&corpus, "a"), tok(&corpus, "b"));
        // Gap is 5 > window 4: both tokens frequent, pair absent → Empty.
        assert!(matches!(pairs.lookup(a, b), PairLookup::Empty));
    }

    #[test]
    fn df_cutoff_excludes_rare_tokens_from_coverage() {
        let (corpus, pairs) = build_for(
            &["common rare common", "common other", "common again"],
            PairConfig {
                window: 4,
                df_cutoff: 2,
            },
        );
        let common = tok(&corpus, "common");
        let rare = tok(&corpus, "rare");
        assert!(pairs.covers(common));
        assert!(!pairs.covers(rare));
        assert!(matches!(pairs.lookup(common, rare), PairLookup::NotCovered));
        assert!(matches!(pairs.lookup(rare, common), PairLookup::NotCovered));
    }

    #[test]
    fn disabled_config_builds_an_empty_uncovered_index() {
        let (corpus, pairs) = build_for(&["a b"], PairConfig::disabled());
        assert!(pairs.is_empty());
        assert_eq!(pairs.resident_bytes(), 0);
        let (a, b) = (tok(&corpus, "a"), tok(&corpus, "b"));
        assert!(matches!(pairs.lookup(a, b), PairLookup::NotCovered));
    }

    #[test]
    fn list_roundtrips_across_block_boundaries() {
        // 300 entries span 3 blocks; sparse ids and varied gaps. 257 and
        // 129 entries end in a byteless one-entry block.
        for n in [300u32, 257, 129, 128, 2, 1] {
            let entries: Vec<(u32, u32)> = (0..n).map(|i| (i * 7 + 3, 1 + (i % 9))).collect();
            let index = arena_of(&entries);
            let list = list_of(&index);
            assert_eq!(list.num_blocks(), (n as usize).div_ceil(BLOCK_ENTRIES));
            assert_eq!(list.num_entries(), n as usize);
            assert_eq!(list.to_entries(), entries, "{n} entries");
            assert_eq!(list.min_gap(), 1);
            assert_eq!(index.num_entries(), u64::from(n));
        }
    }

    #[test]
    fn one_entry_blocks_store_no_bytes() {
        // 128 entries fill one packed block; the 129th is its header alone.
        let entries: Vec<(u32, u32)> = (0..129u32).map(|i| (2 * i, 1 + (i % 3))).collect();
        let full = arena_of(&entries[..128]);
        let tailed = arena_of(&entries);
        assert_eq!(tailed.data.len(), full.data.len());
        assert_eq!(tailed.blocks.len(), 2);
        assert_eq!(
            tailed.blocks[1],
            PairBlock {
                max_node: NodeId(256),
                byte_start: full.data.len() as u32,
                end: 129,
                min_gap: 1 + (128 % 3),
            }
        );
        assert!(arena_of(&[(5, 3)]).data.is_empty());
    }

    #[test]
    fn byteless_tail_block_seeks_skips_and_probes() {
        // The 129th entry (node 1000, gap 2) lives in its header only.
        let mut entries: Vec<(u32, u32)> = (0..128u32).map(|i| (i, 5)).collect();
        entries.push((1000, 2));
        let index = arena_of(&entries);
        let list = list_of(&index);

        let min_gap = |header: Option<PairBlock>| header.map(|h| h.min_gap);
        let mut cur = list.cursor();
        assert_eq!(min_gap(cur.peek_header_at(NodeId(500))), Some(2));
        assert_eq!(cur.seek(NodeId(500)), Some(NodeId(1000)));
        assert_eq!(cur.gap(), 2);
        assert_eq!(min_gap(cur.block_header()), Some(2));
        let c = cur.counters();
        assert_eq!((c.entries, c.skipped, c.blocks_skipped), (1, 128, 1));
        assert_eq!(cur.next_entry(), None);
        assert!(cur.exhausted());

        let mut cur = list.cursor();
        assert_eq!(cur.next_entry(), Some(NodeId(0)));
        assert_eq!(min_gap(cur.block_header()), Some(5));
        assert_eq!(cur.skip_block(), Some(NodeId(1000)));
        assert_eq!(cur.gap(), 2);
        assert_eq!(cur.counters().skipped, 127);
        assert_eq!(cur.skip_block(), None);
        assert!(cur.exhausted());

        // Seeking within the packed block, then stepping into the tail.
        let mut cur = list.cursor();
        assert_eq!(cur.seek(NodeId(127)), Some(NodeId(127)));
        assert_eq!(min_gap(cur.peek_header_at(NodeId(1000))), Some(2));
        assert_eq!(cur.next_entry(), Some(NodeId(1000)));
        assert_eq!(cur.seek(NodeId(1001)), None);
    }

    #[test]
    fn cursor_seeks_and_skips_blocks() {
        let entries: Vec<(u32, u32)> = (0..1000u32).map(|i| (2 * i, 1 + (i % 3))).collect();
        let index = arena_of(&entries);
        let mut cur = list_of(&index).cursor();
        assert_eq!(cur.seek(NodeId(1501)), Some(NodeId(1502)));
        assert_eq!(cur.gap(), 1 + (751 % 3));
        let c = cur.counters();
        assert_eq!(c.entries, 1);
        assert_eq!(c.pair_entries, 1);
        assert!(c.blocks_skipped >= 5);
        assert!(c.skipped >= 700);
        // Walk off the end.
        assert_eq!(cur.seek(NodeId(10_000)), None);
        assert!(cur.exhausted());
    }

    #[test]
    fn block_min_gap_probes_match_headers() {
        // First two blocks gap 5, third block gap 1.
        let entries: Vec<(u32, u32)> = (0..300u32)
            .map(|i| (i, if i < 256 { 5 } else { 1 }))
            .collect();
        let index = arena_of(&entries);
        let mut cur = list_of(&index).cursor();
        let min_gap = |header: Option<PairBlock>| header.map(|h| h.min_gap);
        cur.next_entry();
        assert_eq!(min_gap(cur.block_header()), Some(5));
        assert_eq!(min_gap(cur.peek_header_at(NodeId(290))), Some(1));
        // Skip to the third block: min gap drops to 1.
        cur.skip_block();
        cur.skip_block();
        assert_eq!(min_gap(cur.block_header()), Some(1));
        assert!(cur.counters().blocks_skipped >= 2);
    }

    #[test]
    fn keys_outside_coverage_are_refused() {
        let one = [(0, 1)];
        let mut shape = ArenaShape::default();
        shape.add(1, 1);
        shape.add(1, 1);
        let coverage = bits(&[true, false, true]);
        let mut arena = PairArenaWriter::with_shape(PairConfig::default(), coverage, shape);
        assert!(arena.push_list(u32::MAX, 0, &one).is_err());
        assert!(arena.push_list(0, 3, &one).is_err());
        assert!(arena.push_list(1, 0, &one).is_err());
        assert!(arena.push_list(0, 1, &one).is_err());
        assert!(arena.push_list(0, 2, &[]).is_err());
        arena.push_list(0, 2, &one).expect("covered key");
        assert!(arena.push_list(0, 2, &one).is_err(), "duplicate key");
        assert!(arena.push_list(0, 0, &one).is_err(), "descending key");
        arena.push_list(2, 0, &one).expect("covered key");
        let index = arena.finish().expect("the shape holds both keys");
        assert_eq!(column(&index.inline.starts, 0), vec![0, 1, 1, 2]);
        assert_eq!(column(&index.lists.starts, 0), vec![0; 4]);
        assert_eq!(index.num_keys(), 2);

        // A value wider than the shape gave its row field is refused.
        let narrow = || PairArenaWriter::with_shape(PairConfig::default(), bits(&[true; 3]), shape);
        assert!(
            narrow().push_list(0, 1, &[(1, 1)]).is_err(),
            "node past the shape"
        );
        assert!(
            narrow().push_list(0, 1, &[(0, 17)]).is_err(),
            "gap past the window"
        );
    }

    #[test]
    fn resident_bytes_are_the_arena_vectors() {
        // The `w` pairs repeat within 200 documents; most pairs of a `v`
        // and a `u` occur once.
        let texts: Vec<String> = (0..200)
            .map(|i| {
                let (w, v, u) = (i % 7, i % 97, i % 89);
                format!(
                    "w{w} w{} w{} w{} w{} v{v} u{u}",
                    i % 11,
                    i % 13,
                    i % 5,
                    i % 3
                )
            })
            .collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (corpus, pairs) = build_for(&texts, PairConfig::default());
        assert!(pairs.lists.len() > 100);
        assert!(pairs.inline.len() > 100);
        let vocab = corpus.interner().len();
        // Widths: second tokens the whole bytes the vocabulary needs, nodes
        // from the largest node of any entry, `gap − 1` from the window,
        // first blocks from the block count, starts from each table's key
        // count.
        assert!(vocab < 1 << 16);
        let token = 16;
        let blocks = u32::from(width_of(pairs.blocks.len()));
        let entries = pairs.iter().flat_map(|(_, _, list)| list.to_entries());
        let node = u32::from(width_for(entries.map(|(node, _)| node).max().unwrap()));
        assert_eq!(
            pairs.row_bits(),
            PairRowBits {
                inline: token + node + 4,
                lists: token + blocks,
                inline_starts: u32::from(width_of(pairs.inline.len())),
                list_starts: u32::from(width_of(pairs.lists.len())),
            }
        );
        let packed = |bits: usize| bits.div_ceil(8) + 8;
        let tables = [
            (
                &pairs.lists.starts,
                (vocab + 1) * width_of(pairs.lists.len()) as usize,
            ),
            (
                &pairs.inline.starts,
                (vocab + 1) * width_of(pairs.inline.len()) as usize,
            ),
            (&pairs.frequent, vocab),
        ];
        let mut want = pairs.blocks.len() * std::mem::size_of::<PairBlock>() + pairs.data.len();
        for (table, bits) in tables {
            assert_eq!(table.resident_bytes(), packed(bits), "shrunk to fit");
            want += packed(bits);
        }
        for (table, rows) in [
            (
                pairs.lists.rows.resident_bytes(),
                pairs.lists.len() * blocks as usize,
            ),
            (
                pairs.inline.rows.resident_bytes(),
                pairs.inline.len() * (node + 4) as usize,
            ),
        ] {
            assert_eq!(table, packed(rows), "shrunk to fit");
            want += packed(rows);
        }
        for seconds in [&pairs.lists.seconds, &pairs.inline.seconds] {
            assert_eq!(seconds.resident_bytes(), 2 * seconds.len(), "shrunk to fit");
            want += 2 * seconds.len();
        }
        assert_eq!(std::mem::size_of::<PairBlock>(), 16);
        assert_eq!(pairs.blocks.capacity(), pairs.blocks.len());
        assert_eq!(pairs.data.capacity(), pairs.data.len());
        assert_eq!(pairs.resident_bytes(), want);
        assert_eq!(pairs.lists.starts.len(), vocab + 1);
        assert_eq!(pairs.inline.starts.len(), vocab + 1);
        assert_eq!(pairs.frequent.len(), vocab);
        assert_eq!(pairs.num_keys(), pairs.lists.len() + pairs.inline.len());
    }

    #[test]
    fn one_entry_keys_are_stored_inline() {
        let index = arena_of(&[(7, 3)]);
        assert!(index.blocks.is_empty() && index.data.is_empty());
        let rows = &index.inline.rows;
        assert_eq!((rows.len(), rows.get(0, 0), rows.get(0, 1)), (1, 7, 2));
        assert_eq!(index.inline.seconds, Seconds::U16(vec![1]));
        assert_eq!(index.num_single_document_keys(), 1);
        let list = list_of(&index);
        assert_eq!((list.num_entries(), list.num_blocks()), (1, 1));
        assert_eq!(list.min_gap(), 3);
        assert_eq!(list.to_entries(), vec![(7, 3)]);

        // The one header is a one-entry block: probes, seeks and skips
        // walk and count it as they would an arena's.
        let min_gap = |header: Option<PairBlock>| header.map(|h| h.min_gap);
        let mut cur = list.cursor();
        assert_eq!(min_gap(cur.peek_header_at(NodeId(5))), Some(3));
        assert_eq!(cur.peek_header_at(NodeId(8)), None);
        assert_eq!(cur.seek(NodeId(5)), Some(NodeId(7)));
        assert_eq!(cur.gap(), 3);
        assert_eq!(cur.seek(NodeId(8)), None);
        let c = cur.counters();
        assert_eq!((c.entries, c.pair_entries, c.skipped), (1, 1, 0));
        let mut cur = list.cursor();
        assert_eq!(cur.skip_block(), None);
        let c = cur.counters();
        assert_eq!((c.entries, c.skipped, c.blocks_skipped), (0, 1, 1));

        // A gap no byte holds keeps the block form.
        let wide = arena_of(&[(7, 300)]);
        assert!(wide.inline.len() == 0 && wide.blocks.len() == 1);
        assert_eq!(wide.num_single_document_keys(), 1);
        assert_eq!(list_of(&wide).to_entries(), vec![(7, 300)]);
    }

    /// A corpus over the tokens `names`, one document per `(token, offset)`
    /// list, after `skip` empty documents.
    fn corpus_at(names: &[&str], skip: usize, docs: &[&[(usize, u32)]]) -> Corpus {
        let mut corpus = Corpus::from_texts(&vec![""; skip]);
        let ids: Vec<TokenId> = names.iter().map(|n| corpus.intern(n)).collect();
        for (d, doc) in docs.iter().enumerate() {
            let tokens = doc
                .iter()
                .map(|&(t, offset)| (ids[t], ftsl_model::Position::flat(offset)))
                .collect();
            corpus.add_tokens(format!("doc{d}"), tokens);
        }
        corpus
    }

    /// Build `corpus`'s index under `config` and check its packed rows:
    /// `lookup` of every covered `(a, b)` against [`min_forward_gaps`],
    /// `iter()` against those lookups, and the decoded image against both.
    /// Returns the pair index.
    fn check_rows(corpus: &Corpus, config: PairConfig) -> PairIndex {
        let index = crate::builder::IndexBuilder::new()
            .pair_config(config)
            .build(corpus);
        let pairs = index.pairs();
        let vocab = corpus.interner().len() as u32;
        let mut want = Vec::new();
        for a in (0..vocab).map(TokenId) {
            for b in (0..vocab).map(TokenId) {
                let got = match pairs.lookup(a, b) {
                    PairLookup::List(list) => list.to_entries(),
                    PairLookup::Empty => Vec::new(),
                    PairLookup::NotCovered => {
                        assert!(!pairs.covers(a) || !pairs.covers(b));
                        continue;
                    }
                };
                let (la, lb) = (index.block_list(a), index.block_list(b));
                let oracle = min_forward_gaps(la, lb, config.window, &mut AccessCounters::new());
                assert_eq!(got, oracle, "pair ({}, {})", a.0, b.0);
                if !got.is_empty() {
                    want.push((a, b, got));
                }
            }
        }
        let lists = |pairs: &PairIndex| -> Vec<_> {
            pairs
                .iter()
                .map(|(a, b, list)| (a, b, list.to_entries()))
                .collect()
        };
        assert_eq!(lists(pairs), want);
        let decoded = crate::persist::decode(crate::persist::encode(&index)).expect("decodes");
        assert_eq!(lists(decoded.pairs()), want);
        assert_eq!(decoded.pairs().resident_bytes(), pairs.resident_bytes());
        assert_eq!(decoded.pairs().row_bits(), pairs.row_bits());
        pairs.clone()
    }

    #[test]
    fn packed_rows_answer_what_the_oracle_answers() {
        // 40 tokens, each document a run of them: hundreds of one-document
        // keys in 21-bit inline rows (17-bit nodes, 4-bit gaps) beside
        // their 16-bit second tokens, many rows straddling a `u64` word,
        // with node ids past 2¹⁶.
        let names: Vec<String> = (0..40).map(|t| format!("t{t}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let runs: Vec<Vec<(usize, u32)>> = (0..24)
            .map(|_| {
                (0..12)
                    .map(|i| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        ((state % 40) as usize, i * 2)
                    })
                    .collect()
            })
            .collect();
        let runs: Vec<&[(usize, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let high = check_rows(&corpus_at(&names, 70_000, &runs), PairConfig::default());
        let rows = &high.inline.rows;
        assert_eq!(rows.row_bits(), 17 + 4);
        assert_eq!(high.row_bits().inline, 16 + 17 + 4);
        assert!((0..rows.len()).any(|k| rows.get(k, 0) >= 1 << 16));
        let row = rows.row_bits() as usize;
        let straddles = (0..rows.len()).filter(|&k| (k * row) / 64 != ((k + 1) * row - 1) / 64);
        assert!(straddles.count() > 10);

        // Window 1 over the same runs, adjacent: `gap − 1` is always 0 and
        // takes no bits.
        let runs: Vec<Vec<(usize, u32)>> = runs
            .iter()
            .map(|run| run.iter().map(|&(t, offset)| (t, offset / 2)).collect())
            .collect();
        let runs: Vec<&[(usize, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let config = PairConfig {
            window: 1,
            df_cutoff: 0,
        };
        let adjacent = check_rows(&corpus_at(&names, 0, &runs), config);
        assert_eq!(adjacent.row_bits().inline, 16 + 5);
        assert!(adjacent.inline.len() > 100);

        // Windows 255 and 300, one document with gaps 255 and 280: at 255
        // both keys are inline in 8-bit gaps; at 300 the key of gap 280
        // keeps a block, and the other stays inline.
        let far: &[&[(usize, u32)]] = &[&[(0, 0), (1, 255), (2, 535)]];
        let corpus = corpus_at(&["a", "b", "c"], 0, far);
        let narrow = check_rows(
            &corpus,
            PairConfig {
                window: 255,
                df_cutoff: 0,
            },
        );
        assert_eq!((narrow.inline.len(), narrow.lists.len()), (1, 0));
        assert_eq!(narrow.row_bits().inline, 16 + 8);
        let wide = check_rows(
            &corpus,
            PairConfig {
                window: 300,
                df_cutoff: 0,
            },
        );
        assert_eq!((wide.inline.len(), wide.lists.len()), (1, 1));
        assert_eq!(wide.num_single_document_keys(), 2);
        assert_eq!(wide.row_bits().inline, 16 + 8);

        // A one-token vocabulary, inline (one document, a row of no node
        // bits) and as a list (two).
        let one = check_rows(&Corpus::from_texts(&["a a a"]), all_pairs());
        assert_eq!((one.inline.len(), one.row_bits().inline), (1, 16 + 2));
        let two = check_rows(&Corpus::from_texts(&["a a", "a a"]), all_pairs());
        assert_eq!((two.lists.len(), two.row_bits().lists), (1, 16 + 1));

        // The last vocabulary id is first and second in keys, in both
        // tables: its run is the last of each `starts`.
        let texts = ["a b c", "c z a z", "c z a z", "z a"];
        let last = check_rows(&Corpus::from_texts(&texts), all_pairs());
        let z = TokenId(3);
        assert!(last.lists.run(3).len() + last.inline.run(3).len() >= 2);
        assert!(last.iter().any(|(a, b, _)| a == z && b == z));
        assert!(matches!(last.lookup(z, TokenId(0)), PairLookup::List(_)));
    }

    #[test]
    fn second_token_columns_find_every_token_they_hold() {
        for (width, bits) in [(0, 16), (9, 16), (16, 16), (17, 32), (32, 32)] {
            let max = if width == 0 {
                0
            } else {
                u32::MAX >> (32 - width)
            };
            let mut column = Seconds::with_capacity(width, 0);
            let mut held = vec![0, 1.min(max), max / 3, max / 2, max.saturating_sub(1), max];
            held.dedup();
            for &t in &held {
                column.push(t).expect("fits");
            }
            assert_eq!(column.bits(), bits);
            for (key, &t) in held.iter().enumerate() {
                assert_eq!(column.get(key), t);
                assert_eq!(column.find(0..held.len(), t), Some(key), "w {width}");
                assert_eq!(column.find(key + 1..held.len(), t), None);
            }
            if bits < 32 {
                let wide = 1 << bits;
                assert!(column.push(wide).is_err());
                assert_eq!(column.find(0..held.len(), wide), None);
            }
            assert_eq!(column.find(1..1, 0), None);
        }
    }

    #[test]
    fn oracle_agrees_with_the_built_index() {
        let texts = [
            "the quick brown fox jumps over the lazy dog",
            "the brown dog sleeps",
            "fox and dog and fox",
            "quick quick brown",
        ];
        let (corpus, pairs) = build_for(&texts, all_pairs());
        let index = crate::builder::IndexBuilder::new().build(&corpus);
        let vocab = corpus.interner().len();
        let mut keys = 0;
        for a in 0..vocab {
            for b in 0..vocab {
                let (ta, tb) = (TokenId(a as u32), TokenId(b as u32));
                let mut c = AccessCounters::new();
                let oracle =
                    min_forward_gaps(index.block_list(ta), index.block_list(tb), 4, &mut c);
                let got = match pairs.lookup(ta, tb) {
                    PairLookup::List(list) => list.to_entries(),
                    PairLookup::Empty => Vec::new(),
                    PairLookup::NotCovered => panic!("cutoff 0 covers everything"),
                };
                keys += usize::from(!got.is_empty());
                assert_eq!(got, oracle, "pair ({a}, {b})");
            }
        }
        assert_eq!(keys, pairs.num_keys());
        let listed: Vec<(TokenId, TokenId)> = pairs.iter().map(|(a, b, _)| (a, b)).collect();
        assert!(listed.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(listed.len(), keys);
    }
}
