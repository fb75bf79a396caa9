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
//! Only pairs whose *cheaper* term is frequent enough get indexed: a pair
//! `(a, b)` is stored iff `df(a) ≥ cutoff` **and** `df(b) ≥ cutoff`
//! ([`PairConfig::df_cutoff`]). Rare pairs are exactly the ones the
//! position-intersection path already handles cheaply (the intersection is
//! driven by the rarer list), so skipping them keeps the auxiliary
//! structure small where it buys nothing. The resulting lookup is
//! tri-state ([`PairLookup`]): a key over two frequent tokens that is
//! *absent* proves the answer empty (no fallback needed), while a key
//! touching an infrequent token is simply **not covered** and the caller
//! must fall back to position intersection.
//!
//! ## Physical layout
//!
//! Pair lists reuse the v5 bit-packed block machinery: blocks of
//! [`crate::block::BLOCK_ENTRIES`] entries, each a 6-byte prefix
//! (`base:u32-le id_width:u8 gap_width:u8`) followed by two exception-free
//! frame-of-reference columns — node-id deltas (lane 0 = 0, lane *i* =
//! `id[i] − id[i−1] − 1`) and `gap − 1` (gaps are ≥ 1 by construction).
//! Each block header ([`PairBlockMeta`]) doubles as a skip-list node
//! (`max_node`, `byte_start`, `first_entry`) and carries the block's
//! **minimum gap**: since every proximity score is monotone *decreasing*
//! in the gap, `min_gap` is the block-max score bound, and a query bounded
//! by `g` can skip whole blocks whose `min_gap` exceeds `g` without
//! decoding an entry.

use crate::bitpack;
use crate::block::{BlockList, BLOCK_ENTRIES};
use crate::counters::AccessCounters;
use ftsl_model::{Document, NodeId, TokenId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fixed per-block stream overhead: the absolute base node id (4 bytes)
/// plus the two frame widths (1 byte each).
const PAIR_PREFIX_BYTES: usize = 6;

/// Default co-occurrence window: forward gaps up to this many offsets are
/// indexed. 16 covers adjacency (phrase), every `distance(_, _, d)` with
/// `d ≤ 15`, and `window(_, _, w)` with `w ≤ 16`, while keeping the pair
/// fan-out per occurrence small.
pub const DEFAULT_PAIR_WINDOW: u32 = 16;

/// Default document-frequency cutoff: both tokens of a pair must appear
/// in at least this many documents for the pair to be indexed.
pub const DEFAULT_PAIR_DF_CUTOFF: u32 = 2;

/// Build-time configuration of the pair index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

/// Header of one compressed pair block — skip-list node plus the block's
/// proximity impact bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairBlockMeta {
    /// Largest node id stored in the block (its last entry's id).
    pub max_node: NodeId,
    /// Byte offset of the block's encoding in the data stream.
    pub byte_start: u32,
    /// Global index of the block's first entry.
    pub first_entry: u32,
    /// Smallest gap of any entry in the block. Proximity scores decrease
    /// with the gap, so this is the block-max score bound — and a query
    /// bounded by `g < min_gap` skips the block whole.
    pub min_gap: u32,
}

/// A block-compressed pair posting list: one `(node, min forward gap)`
/// entry per document containing the pair within the window.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairList {
    blocks: Vec<PairBlockMeta>,
    data: Vec<u8>,
    entries: u32,
}

impl PairList {
    /// Encode `(node, gap)` entries (strictly increasing node ids, every
    /// gap ≥ 1) into bit-packed blocks.
    pub fn from_entries(entries: &[(u32, u32)]) -> Self {
        let mut out = PairList::default();
        let mut frame = [0u32; bitpack::LANES];
        for chunk in entries.chunks(BLOCK_ENTRIES) {
            let count = chunk.len();
            let byte_start = out.data.len() as u32;
            let first_entry = out.entries;

            // Column 1: id deltas (lane 0 is 0 — the base is absolute).
            let mut max_delta = 0u32;
            for (lane, pair) in frame[1..count].iter_mut().zip(chunk.windows(2)) {
                let d = pair[1].0 - pair[0].0 - 1;
                *lane = d;
                max_delta = max_delta.max(d);
            }
            frame[0] = 0;
            for lane in &mut frame[count..] {
                *lane = 0;
            }
            let id_width = bitpack::width_for(max_delta);

            // Column 2: gap − 1 (every stored gap is ≥ 1).
            let mut min_gap = u32::MAX;
            let mut max_gm1 = 0u32;
            for &(_, gap) in chunk {
                debug_assert!(gap >= 1, "pair gaps are forward distances ≥ 1");
                min_gap = min_gap.min(gap);
                max_gm1 = max_gm1.max(gap - 1);
            }
            let gap_width = bitpack::width_for(max_gm1);

            out.data.extend_from_slice(&chunk[0].0.to_le_bytes());
            out.data.extend_from_slice(&[id_width, gap_width]);
            bitpack::pack(&frame, count, id_width, &mut out.data);
            for (lane, &(_, gap)) in frame.iter_mut().zip(chunk) {
                *lane = gap - 1;
            }
            for lane in &mut frame[count..] {
                *lane = 0;
            }
            bitpack::pack(&frame, count, gap_width, &mut out.data);

            out.entries += count as u32;
            out.blocks.push(PairBlockMeta {
                max_node: NodeId(chunk[count - 1].0),
                byte_start,
                first_entry,
                min_gap,
            });
        }
        out
    }

    /// Decode every `(node, gap)` entry (trusted bytes — lists built in
    /// memory are well-formed by construction).
    pub fn to_entries(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.entries as usize);
        let mut cur = self.cursor();
        while let Some(node) = cur.next_entry() {
            out.push((node.0, cur.gap()));
        }
        out
    }

    /// Like [`Self::to_entries`], but over *untrusted* bytes (the persisted
    /// load path): every width, frame, count, ordering, and padding
    /// invariant is checked — including that gaps stay within `1..=window`
    /// and that each header's `max_node`/`min_gap` agree with the entries —
    /// so each list has exactly one canonical encoding. Any violation
    /// returns `Err` with a description instead of panicking.
    pub fn try_to_entries(&self, window: u32) -> Result<Vec<(u32, u32)>, &'static str> {
        let entries = self.entries as usize;
        if self.blocks.len() != entries.div_ceil(BLOCK_ENTRIES) {
            return Err("pair block count disagrees with entry count");
        }
        let mut out = Vec::with_capacity(entries);
        let mut at = 0usize;
        let mut prev_node: Option<u32> = None;
        let mut ids = [0u32; bitpack::LANES];
        let mut gaps = [0u32; bitpack::LANES];
        for (b, meta) in self.blocks.iter().enumerate() {
            let count = BLOCK_ENTRIES.min(entries - b * BLOCK_ENTRIES);
            if meta.byte_start as usize != at || meta.first_entry as usize != b * BLOCK_ENTRIES {
                return Err("pair block header disagrees with entry stream");
            }
            if self.data.len() - at < PAIR_PREFIX_BYTES {
                return Err("truncated pair block prefix");
            }
            let base = u32::from_le_bytes([
                self.data[at],
                self.data[at + 1],
                self.data[at + 2],
                self.data[at + 3],
            ]);
            let id_width = self.data[at + 4];
            let gap_width = self.data[at + 5];
            at += PAIR_PREFIX_BYTES;
            if id_width > 32 || gap_width > 32 {
                return Err("pair frame width exceeds 32 bits");
            }
            let frames =
                bitpack::packed_bytes(id_width, count) + bitpack::packed_bytes(gap_width, count);
            if self.data.len() - at < frames {
                return Err("truncated pair block frames");
            }
            at += bitpack::unpack(&self.data[at..], id_width, count, &mut ids);
            at += bitpack::unpack(&self.data[at..], gap_width, count, &mut gaps);
            if ids[0] != 0 {
                return Err("first pair id-delta lane not zero");
            }
            for lane in count..BLOCK_ENTRIES {
                if ids[lane] != 0 || gaps[lane] != 0 {
                    return Err("non-zero pair padding lane");
                }
            }
            if prev_node.is_some_and(|p| base <= p) {
                return Err("pair node ids not strictly increasing");
            }
            ids[0] = base;
            for i in 1..count {
                ids[i] = ids[i - 1]
                    .checked_add(ids[i])
                    .and_then(|n| n.checked_add(1))
                    .ok_or("pair node overflow")?;
            }
            prev_node = Some(ids[count - 1]);
            if NodeId(ids[count - 1]) != meta.max_node {
                return Err("pair block max node disagrees with entries");
            }
            let mut block_min = u32::MAX;
            for i in 0..count {
                let gap = gaps[i].checked_add(1).ok_or("pair gap overflow")?;
                if gap > window {
                    return Err("pair gap exceeds the index window");
                }
                block_min = block_min.min(gap);
                out.push((ids[i], gap));
            }
            if block_min != meta.min_gap {
                return Err("pair block min_gap disagrees with entries");
            }
        }
        if at != self.data.len() {
            return Err("trailing bytes after last pair block");
        }
        Ok(out)
    }

    /// Number of `(node, gap)` entries.
    pub fn num_entries(&self) -> usize {
        self.entries as usize
    }

    /// True iff the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of compressed blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Smallest gap across the whole list — the list-level proximity
    /// impact bound (`u32::MAX` for an empty list).
    pub fn min_gap(&self) -> u32 {
        self.blocks
            .iter()
            .map(|b| b.min_gap)
            .min()
            .unwrap_or(u32::MAX)
    }

    /// Compressed payload size in bytes (entry stream + skip headers).
    pub fn compressed_bytes(&self) -> usize {
        self.data.len() + self.blocks.len() * std::mem::size_of::<PairBlockMeta>()
    }

    /// Open a seeking, block-at-a-time cursor.
    pub fn cursor(&self) -> PairCursor<'_> {
        PairCursor {
            list: self,
            ids: [0; BLOCK_ENTRIES],
            gaps: [0; BLOCK_ENTRIES],
            idx: usize::MAX,
            count: 0,
            first: 0,
            block: usize::MAX,
            started: false,
            done: false,
            counters: AccessCounters::new(),
        }
    }

    /// Skip headers and raw stream (exposed for persistence).
    pub(crate) fn parts(&self) -> (&[PairBlockMeta], &[u8], u32) {
        (&self.blocks, &self.data, self.entries)
    }

    /// Reassemble from persisted parts (validated by
    /// [`Self::try_to_entries`] on the load path).
    pub(crate) fn from_parts(blocks: Vec<PairBlockMeta>, data: Vec<u8>, entries: u32) -> Self {
        PairList {
            blocks,
            data,
            entries,
        }
    }
}

/// A forward-only, skip-aware cursor over a [`PairList`], decoding one
/// whole block (both columns) at a time.
///
/// Counter semantics follow the established contract: consumed entries
/// count in [`AccessCounters::entries`] *and* in
/// [`AccessCounters::pair_entries`] (so pair-path work stays comparable to
/// intersection work while remaining attributable), bypassed entries in
/// [`AccessCounters::skipped`], and whole-block jumps in
/// [`AccessCounters::blocks_skipped`].
#[derive(Clone, Debug)]
pub struct PairCursor<'a> {
    list: &'a PairList,
    ids: [u32; BLOCK_ENTRIES],
    gaps: [u32; BLOCK_ENTRIES],
    /// Index of the current entry within the resident block; `usize::MAX`
    /// when not positioned.
    idx: usize,
    /// Entries in the resident block (0 when none is decoded).
    count: usize,
    /// Global index of the resident block's first entry.
    first: u32,
    /// Index of the resident block; `usize::MAX` when none is decoded.
    block: usize,
    started: bool,
    done: bool,
    counters: AccessCounters,
}

impl<'a> PairCursor<'a> {
    /// Global index of the next entry to consume.
    fn global_next(&self) -> u32 {
        if self.done {
            self.list.entries
        } else if self.idx < self.count {
            self.first + self.idx as u32 + 1
        } else {
            0
        }
    }

    /// Batch-decode both columns of `block`.
    #[cold]
    fn unpack_block(&mut self, block: usize) {
        let meta = &self.list.blocks[block];
        let count = BLOCK_ENTRIES.min(self.list.entries as usize - meta.first_entry as usize);
        let data = &self.list.data;
        let mut at = meta.byte_start as usize;
        let base = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
        let (id_width, gap_width) = (data[at + 4], data[at + 5]);
        at += PAIR_PREFIX_BYTES;
        at += bitpack::unpack(&data[at..], id_width, count, &mut self.ids);
        bitpack::unpack(&data[at..], gap_width, count, &mut self.gaps);
        self.ids[0] = base;
        for i in 1..count {
            self.ids[i] = self.ids[i].wrapping_add(self.ids[i - 1]).wrapping_add(1);
        }
        for gap in self.gaps[..count].iter_mut() {
            *gap = gap.wrapping_add(1); // stored as gap − 1
        }
        self.block = block;
        self.count = count;
        self.first = meta.first_entry;
    }

    fn ensure_decoded(&mut self, block: usize) {
        if self.block != block {
            self.unpack_block(block);
        }
    }

    /// Position on global entry `global` (callers guarantee it exists).
    fn land(&mut self, global: u32) -> NodeId {
        self.ensure_decoded(global as usize / BLOCK_ENTRIES);
        self.idx = global as usize % BLOCK_ENTRIES;
        self.started = true;
        self.counters.entries += 1;
        self.counters.pair_entries += 1;
        NodeId(self.ids[self.idx])
    }

    fn mark_done(&mut self) {
        self.done = true;
        self.started = true;
        self.idx = usize::MAX;
        self.count = 0;
    }

    /// Consume the next entry and return its node id.
    #[inline]
    pub fn next_entry(&mut self) -> Option<NodeId> {
        let global = self.global_next();
        if global >= self.list.entries {
            if !self.done {
                self.mark_done();
            }
            return None;
        }
        Some(self.land(global))
    }

    /// Advance to the first entry with node id ≥ `target`, skipping whole
    /// blocks via the headers and binary-searching the landing block.
    /// Stays put if the current entry already satisfies the bound.
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
        let cur_block = from as usize / BLOCK_ENTRIES;
        let rel = self.list.blocks[cur_block..].partition_point(|b| b.max_node < target);
        let target_block = cur_block + rel;
        if target_block >= self.list.blocks.len() {
            self.counters.skipped += u64::from(self.list.entries - from);
            self.counters.blocks_skipped += (self.list.blocks.len())
                .saturating_sub((from as usize).div_ceil(BLOCK_ENTRIES))
                as u64;
            self.mark_done();
            return None;
        }
        let meta = self.list.blocks[target_block];
        let mut from = from;
        if meta.first_entry > from {
            self.counters.skipped += u64::from(meta.first_entry - from);
            self.counters.blocks_skipped +=
                (target_block - (from as usize).div_ceil(BLOCK_ENTRIES)) as u64;
            from = meta.first_entry;
        }
        self.ensure_decoded(target_block);
        let lo = (from - meta.first_entry) as usize;
        let within = self.ids[lo..self.count].partition_point(|&id| id < target.0);
        self.counters.skipped += within as u64;
        Some(self.land(meta.first_entry + (lo + within) as u32))
    }

    /// The node id of the current entry.
    #[inline]
    pub fn node(&self) -> Option<NodeId> {
        if self.idx < self.count {
            Some(NodeId(self.ids[self.idx]))
        } else {
            None
        }
    }

    /// Minimum forward gap of the current entry.
    ///
    /// # Panics
    /// Panics if the cursor is not positioned on an entry.
    #[inline]
    pub fn gap(&self) -> u32 {
        assert!(self.idx < self.count, "cursor not positioned on an entry");
        self.gaps[self.idx]
    }

    /// Index of the block the cursor is parked in (the next block to
    /// decode when the cursor has not started); `None` once exhausted.
    fn current_block(&self) -> Option<usize> {
        if self.idx < self.count {
            Some(self.block)
        } else if !self.started && !self.list.blocks.is_empty() {
            Some(0)
        } else {
            None
        }
    }

    /// Smallest gap in the current block — the block-max proximity bound;
    /// `u32::MAX` when exhausted (nothing left to bound).
    pub fn block_min_gap(&self) -> u32 {
        self.current_block()
            .map_or(u32::MAX, |b| self.list.blocks[b].min_gap)
    }

    /// Smallest gap of the block that would contain the first remaining
    /// entry with node id ≥ `target` — a pure header probe. `None` when no
    /// remaining entry can reach `target`.
    pub fn peek_min_gap_at(&self, target: NodeId) -> Option<u32> {
        if let Some(cur) = self.node() {
            if cur >= target {
                return self.current_block().map(|b| self.list.blocks[b].min_gap);
            }
        }
        let from = self.current_block()?;
        let rel = self.list.blocks[from..].partition_point(|b| b.max_node < target);
        self.list.blocks.get(from + rel).map(|b| b.min_gap)
    }

    /// Jump past the current block without consuming its remaining entries
    /// and land on the first entry of the next one.
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

    /// True once every entry has been consumed or skipped.
    pub fn exhausted(&self) -> bool {
        self.done
    }

    /// Access counters accumulated by this cursor.
    pub fn counters(&self) -> AccessCounters {
        self.counters
    }
}

/// Result of a pair-index lookup — the planner's coverage contract.
#[derive(Debug)]
pub enum PairLookup<'a> {
    /// Both tokens are frequent and the pair co-occurs: here is its list.
    List(&'a PairList),
    /// Both tokens are frequent but the pair never co-occurs within the
    /// window: the answer is **provably empty**, no fallback needed.
    Empty,
    /// At least one token is below the df cutoff (or the index was built
    /// without pairs): the pair is outside the index's coverage and the
    /// caller must fall back to position intersection.
    NotCovered,
}

/// The word-pair auxiliary index over one segment's corpus.
///
/// An index built with [`PairConfig::disabled`] (or loaded from a
/// pre-pair-format image) is empty and reports every lookup as
/// [`PairLookup::NotCovered`], so callers degrade to the intersection
/// path uniformly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PairIndex {
    /// The window/cutoff the index was built with (`window == 0` when
    /// disabled or absent).
    config: PairConfig,
    /// Directed token pairs, sorted lexicographically; parallel to
    /// `lists`.
    keys: Vec<(u32, u32)>,
    lists: Vec<PairList>,
    /// Per-token coverage: `frequent[t]` iff `df(t) ≥ df_cutoff` at build
    /// time. Empty when the index is disabled.
    frequent: Vec<bool>,
    /// Total pair postings across all lists.
    entries: u64,
}

impl Default for PairIndex {
    /// The absent index: disabled config, no coverage — every lookup
    /// reports [`PairLookup::NotCovered`].
    fn default() -> Self {
        PairIndex {
            config: PairConfig::disabled(),
            keys: Vec::new(),
            lists: Vec::new(),
            frequent: Vec::new(),
            entries: 0,
        }
    }
}

impl PairIndex {
    /// Build the pair index for `docs` (ordered by node id, as the segment
    /// builder guarantees). `dfs[t]` is the document frequency of token
    /// `t` in the same document set.
    pub fn build(docs: &[Document], dfs: &[u32], config: PairConfig) -> PairIndex {
        if config.window == 0 {
            return PairIndex::default();
        }
        let frequent: Vec<bool> = dfs.iter().map(|&df| df >= config.df_cutoff).collect();
        let mut postings: HashMap<(u32, u32), Vec<(u32, u32)>> = HashMap::new();
        let mut local: HashMap<(u32, u32), u32> = HashMap::new();
        let mut touched: Vec<(u32, u32)> = Vec::new();
        for doc in docs {
            local.clear();
            touched.clear();
            let toks = &doc.tokens;
            for (i, &(ta, pa)) in toks.iter().enumerate() {
                if !frequent[ta.index()] {
                    continue;
                }
                for &(tb, pb) in &toks[i + 1..] {
                    let gap = pb.offset - pa.offset;
                    if gap > config.window {
                        break; // offsets are strictly increasing
                    }
                    if !frequent[tb.index()] {
                        continue;
                    }
                    let key = (ta.0, tb.0);
                    match local.entry(key) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            if gap < *e.get() {
                                e.insert(gap);
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(gap);
                            touched.push(key);
                        }
                    }
                }
            }
            for &key in &touched {
                postings
                    .entry(key)
                    .or_default()
                    .push((doc.node.0, local[&key]));
            }
        }
        let mut keys: Vec<(u32, u32)> = postings.keys().copied().collect();
        keys.sort_unstable();
        let mut entries = 0u64;
        let lists: Vec<PairList> = keys
            .iter()
            .map(|key| {
                let posting = &postings[key];
                entries += posting.len() as u64;
                PairList::from_entries(posting)
            })
            .collect();
        PairIndex {
            config,
            keys,
            lists,
            frequent,
            entries,
        }
    }

    /// Look up the directed pair `(a, b)` — see [`PairLookup`] for the
    /// coverage contract.
    pub fn lookup(&self, a: TokenId, b: TokenId) -> PairLookup<'_> {
        if !self.covers(a) || !self.covers(b) {
            return PairLookup::NotCovered;
        }
        match self.keys.binary_search(&(a.0, b.0)) {
            Ok(i) => PairLookup::List(&self.lists[i]),
            Err(_) => PairLookup::Empty,
        }
    }

    /// Whether `token` is within the index's coverage (frequent enough at
    /// build time). False for every token when the index is disabled.
    pub fn covers(&self, token: TokenId) -> bool {
        self.frequent.get(token.index()).copied().unwrap_or(false)
    }

    /// The window/cutoff the index was built with.
    pub fn config(&self) -> PairConfig {
        self.config
    }

    /// True when the index holds no pair lists (disabled, or nothing met
    /// the window/cutoff).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of distinct directed pairs indexed.
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total pair postings across all lists.
    pub fn num_entries(&self) -> u64 {
        self.entries
    }

    /// Resident bytes: packed streams, skip headers, the key array, and
    /// the coverage bitmap.
    pub fn resident_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(PairList::compressed_bytes)
            .sum::<usize>()
            + self.keys.len() * std::mem::size_of::<(u32, u32)>()
            + self.frequent.len()
    }

    /// Iterate `(a, b, list)` in key order (persistence and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, TokenId, &PairList)> {
        self.keys
            .iter()
            .zip(&self.lists)
            .map(|(&(a, b), list)| (TokenId(a), TokenId(b), list))
    }

    /// Keys, lists, and the coverage bitmap (exposed for persistence).
    pub(crate) fn parts(&self) -> (&[(u32, u32)], &[PairList], &[bool]) {
        (&self.keys, &self.lists, &self.frequent)
    }

    /// Reassemble from persisted parts. Keys must arrive sorted and
    /// unique; the caller validates each list via
    /// [`PairList::try_to_entries`] before trusting it.
    pub(crate) fn from_parts(
        config: PairConfig,
        keys: Vec<(u32, u32)>,
        lists: Vec<PairList>,
        frequent: Vec<bool>,
    ) -> Result<PairIndex, &'static str> {
        if keys.len() != lists.len() {
            return Err("pair key/list count mismatch");
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("pair keys not sorted and unique");
        }
        let entries = lists.iter().map(|l| l.entries as u64).sum();
        Ok(PairIndex {
            config,
            keys,
            lists,
            frequent,
            entries,
        })
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
    a: &BlockList,
    b: &BlockList,
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
        let (a, b) = (tok(&corpus, "a"), tok(&corpus, "b"));
        assert!(matches!(pairs.lookup(a, b), PairLookup::NotCovered));
    }

    #[test]
    fn list_roundtrips_across_block_boundaries() {
        // 300 entries spans 3 blocks; sparse ids and varied gaps.
        let entries: Vec<(u32, u32)> = (0..300u32).map(|i| (i * 7 + 3, 1 + (i % 9))).collect();
        let list = PairList::from_entries(&entries);
        assert_eq!(list.num_blocks(), 3);
        assert_eq!(list.num_entries(), 300);
        assert_eq!(list.to_entries(), entries);
        assert_eq!(list.try_to_entries(16).expect("valid"), entries);
        assert_eq!(list.min_gap(), 1);
    }

    #[test]
    fn cursor_seeks_and_skips_blocks() {
        let entries: Vec<(u32, u32)> = (0..1000u32).map(|i| (2 * i, 1 + (i % 3))).collect();
        let list = PairList::from_entries(&entries);
        let mut cur = list.cursor();
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
        let list = PairList::from_entries(&entries);
        let mut cur = list.cursor();
        cur.next_entry();
        assert_eq!(cur.block_min_gap(), 5);
        assert_eq!(cur.peek_min_gap_at(NodeId(290)), Some(1));
        // Skip to the third block: min gap drops to 1.
        cur.skip_block();
        cur.skip_block();
        assert_eq!(cur.block_min_gap(), 1);
        assert!(cur.counters().blocks_skipped >= 2);
    }

    #[test]
    fn corrupt_pair_bytes_are_errors_not_panics() {
        let entries: Vec<(u32, u32)> = (0..200u32).map(|i| (i * 3, 1 + (i % 4))).collect();
        let list = PairList::from_entries(&entries);
        let (metas, data, count) = list.parts();
        for i in 0..data.len() {
            let mut raw = data.to_vec();
            raw[i] ^= 0x40;
            let candidate = PairList::from_parts(metas.to_vec(), raw, count);
            let _ = candidate.try_to_entries(16);
        }
        // A lying header is always an error.
        let mut bad = metas.to_vec();
        bad[1].min_gap += 1;
        let candidate = PairList::from_parts(bad, data.to_vec(), count);
        assert!(candidate.try_to_entries(16).is_err());
        // Gaps past the declared window are rejected.
        assert!(list.try_to_entries(2).is_err());
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
                assert_eq!(got, oracle, "pair ({a}, {b})");
            }
        }
    }
}
