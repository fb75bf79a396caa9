//! The one skip-list walk over a block-compressed inverted list.
//!
//! The paper's Section 5.1.2 gives one access path to an inverted list:
//! open a cursor, then call `nextEntry` / `getPositions`. Both kinds of
//! list this crate stores — the `IL_tok` posting lists
//! ([`crate::block::BlockList`]) and the word-pair lists
//! ([`crate::pair::PairList`]) — are runs of 128-entry blocks in one
//! codec, each under a header whose `max_node` makes the header array a
//! one-level skip list. [`ListCursor`] is the walk over such a list,
//! generic over the header type ([`BlockHeader`]): `next_entry`, `seek`
//! (the header binary search, then a search inside the landing block),
//! `skip_block`, the header probes that block-max pruning reads, and the
//! access counters. The list kinds add only their own parts on top:
//! [`crate::block::BlockCursor`] its term frequencies and positions,
//! [`crate::pair::PairCursor`] its gaps.
//!
//! A cursor walks a list's run of its arena's header array, or a single
//! header it holds by value (`Headers`): a pair key of one entry keeps
//! no header in its arena, and its list is that entry as the header of a
//! one-entry block.
//!
//! A cursor decodes one whole block at a time into a scratch buffer it
//! leases from the calling thread's pool and hands back on drop, so
//! steady-state query work reuses warm buffers instead of heap-allocating
//! per cursor ([`scratch_pool_stats`]). Touching a block unpacks its id
//! column; each value column unpacks the first time it is asked for, so a
//! BOOL scan pays for one frame per block.
//!
//! [`AccessCounters`] keep one meaning for both kinds: `entries` counts
//! entries returned by `next_entry` / `seek` (a pair cursor counts them
//! in `pair_entries` too), `skipped` counts entries passed over without
//! being returned — whole blocks stepped over through the headers and
//! entries a `seek` searches past inside a block — and `blocks_skipped`
//! counts whole blocks stepped over.

use crate::block::BLOCK_ENTRIES;
use crate::counters::AccessCounters;
use crate::frame::{self, Frames, MAX_VALUE_COLUMNS};
use ftsl_model::{NodeId, Position};
use std::cell::RefCell;
use std::fmt::Debug;
use std::mem::ManuallyDrop;

/// A block header: one node of a list's skip list. Implemented by the
/// posting list's [`crate::block::BlockMeta`] and the pair list's
/// [`crate::pair::PairBlock`].
pub trait BlockHeader: Copy + Debug {
    /// Per value column of the block, the bias its frame subtracts.
    const BIASES: &'static [u32];
    /// Whether entries consumed from these blocks also count as
    /// [`AccessCounters::pair_entries`].
    const PAIR: bool;
    /// What a cursor over these blocks keeps besides the walk.
    type Extra: Clone + Debug + Default;

    /// Largest node id in the block (its last entry's id).
    fn max_node(&self) -> NodeId;

    /// Offset of the block's bytes in the data the cursor holds.
    fn byte_start(&self) -> usize;

    /// The value of a block of `count` entries that is stored as its
    /// header alone, or `None` when the block has bytes.
    fn header_only(&self, count: usize) -> Option<u32> {
        let _ = count;
        None
    }
}

/// The headers a [`ListCursor`] walks: a list's run of its arena's header
/// array, or the one header of a list the arena keeps without any (a pair
/// key of one entry, whose header is made from the entry itself).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Headers<'a, H> {
    /// Borrowed from the arena.
    Run(&'a [H]),
    /// Held by value.
    One(H),
}

impl<H> Headers<'_, H> {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[H] {
        match self {
            Headers::Run(run) => run,
            Headers::One(header) => std::slice::from_ref(header),
        }
    }
}

/// The reusable decoded-block buffer a [`ListCursor`] unpacks into.
///
/// Touching a block unpacks its id column; each value column unpacks on
/// first demand (a scored consumer's term frequencies, a pair walk's
/// gaps, a positional query's payload ends). Sized by
/// [`ListCursor::scratch_bytes`] for footprint accounting.
#[derive(Clone, Debug)]
pub(crate) struct Scratch {
    /// Decoded node ids of the resident block.
    pub(crate) ids: [u32; BLOCK_ENTRIES],
    /// Decoded value columns, valid where `column_block` matches.
    pub(crate) values: [[u32; BLOCK_ENTRIES]; MAX_VALUE_COLUMNS],
    /// Per value column, the block it holds; `usize::MAX` when stale.
    pub(crate) column_block: [usize; MAX_VALUE_COLUMNS],
    /// Where the resident block's value frames and payload sit.
    pub(crate) frames: Frames,
    /// Positions of the current entry decoded so far (posting lists).
    /// Lives in the scratch so a pooled buffer keeps its capacity across
    /// cursors: positional queries stop allocating once warm.
    pub(crate) decoded: Vec<Position>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            ids: [0; BLOCK_ENTRIES],
            values: [[0; BLOCK_ENTRIES]; MAX_VALUE_COLUMNS],
            column_block: [usize::MAX; MAX_VALUE_COLUMNS],
            frames: Frames::default(),
            decoded: Vec::new(),
        }
    }
}

impl Scratch {
    /// Make a recycled buffer indistinguishable from a fresh one: stale
    /// the column tags and empty (but keep the capacity of) the decoded
    /// positions. The columns need no clearing — a fresh cursor holds no
    /// resident block, so their lanes are unreachable until a block is
    /// unpacked over them.
    fn reset(&mut self) {
        self.column_block = [usize::MAX; MAX_VALUE_COLUMNS];
        self.decoded.clear();
    }
}

/// Pooled buffers per thread. Bounds the memory a thread parks between
/// queries: enough for the widest realistic cursor fan-out (one cursor
/// per distinct query token), small enough that an idle worker holds
/// under ~100 KiB of scratch.
const SCRATCH_POOL_CAP: usize = 64;

struct ScratchPool {
    // Boxes on purpose: cursors hold `ManuallyDrop<Box<Scratch>>`, so
    // pooling the box itself makes take/return a pointer move — the
    // unboxed form clippy suggests would re-box (allocate) on every take.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Scratch>>,
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
fn take_scratch() -> Box<Scratch> {
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
fn return_scratch(scratch: Box<Scratch>) {
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

/// A forward-only, skip-aware cursor over a block-compressed list whose
/// blocks carry headers of type `H`, decoding one whole block at a time.
///
/// Used through its aliases, [`crate::block::BlockCursor`] and
/// [`crate::pair::PairCursor`]; see the module docs for the contract.
#[derive(Debug)]
pub struct ListCursor<'a, H: BlockHeader> {
    headers: Headers<'a, H>,
    /// The bytes the headers' `byte_start` index.
    pub(crate) data: &'a [u8],
    /// The list's length.
    entries: u32,
    /// Index of the current entry within the resident block; `usize::MAX`
    /// when the cursor is not positioned inside it (fresh or exhausted).
    pub(crate) idx: usize,
    /// Index at which the current *counted run* began: entries consumed
    /// since the last landing. `AccessCounters::entries` is updated once
    /// per run (at block transitions and in [`ListCursor::counters`]),
    /// not once per entry — the hot walk stays store-minimal and the
    /// counting is exactly branch-free.
    run_start: usize,
    /// Entries in the resident block (0 when none is decoded), kept out
    /// of the scratch so the hot walk tests it without a pointer chase.
    pub(crate) count: usize,
    /// List index of the resident block's first entry.
    pub(crate) first: u32,
    /// Index of the resident block; `usize::MAX` when none is decoded.
    pub(crate) block: usize,
    started: bool,
    /// True once every entry has been consumed or skipped.
    done: bool,
    /// What the list kind keeps besides the walk.
    pub(crate) extra: H::Extra,
    /// Leased from the thread's scratch pool; `ManuallyDrop` lets `Drop`
    /// hand the box back to the pool instead of freeing it.
    pub(crate) scratch: ManuallyDrop<Box<Scratch>>,
    pub(crate) counters: AccessCounters,
}

impl<H: BlockHeader> Drop for ListCursor<'_, H> {
    fn drop(&mut self) {
        // SAFETY: `scratch` is taken exactly once — drop runs once, and
        // nothing reads the field afterwards.
        return_scratch(unsafe { ManuallyDrop::take(&mut self.scratch) });
    }
}

impl<H: BlockHeader> Clone for ListCursor<'_, H> {
    fn clone(&self) -> Self {
        // The clone leases its own buffer (pool-first, like a new cursor)
        // and copies the resident decode state into it, so both cursors
        // keep the no-repeat-decode guarantee from their shared position.
        let mut scratch = take_scratch();
        scratch.clone_from(&*self.scratch);
        ListCursor {
            headers: self.headers,
            data: self.data,
            entries: self.entries,
            idx: self.idx,
            run_start: self.run_start,
            count: self.count,
            first: self.first,
            block: self.block,
            started: self.started,
            done: self.done,
            extra: self.extra.clone(),
            scratch: ManuallyDrop::new(scratch),
            counters: self.counters,
        }
    }
}

impl<'a, H: BlockHeader> ListCursor<'a, H> {
    /// A cursor at the start of the `entries`-entry list under `headers`,
    /// whose `byte_start`s index `data`.
    #[inline]
    pub(crate) fn new(headers: Headers<'a, H>, data: &'a [u8], entries: u32) -> Self {
        ListCursor {
            headers,
            data,
            entries,
            idx: usize::MAX,
            run_start: 0,
            count: 0,
            first: 0,
            block: usize::MAX,
            started: false,
            done: false,
            extra: H::Extra::default(),
            scratch: ManuallyDrop::new(take_scratch()),
            counters: AccessCounters::new(),
        }
    }

    /// Bytes of the reusable decoded-block buffer every open cursor holds
    /// (the id column and two value columns of [`BLOCK_ENTRIES`] lanes,
    /// plus bookkeeping) — the per-cursor cost
    /// [`crate::index::MemoryFootprint`] reports.
    pub const fn scratch_bytes() -> usize {
        std::mem::size_of::<Scratch>()
    }

    /// The list's block headers.
    #[inline]
    fn headers(&self) -> &[H] {
        self.headers.as_slice()
    }

    /// List index of the next entry to consume: 0 on a fresh cursor, one
    /// past the current entry when positioned, `entries` when done.
    fn global_next(&self) -> u32 {
        if self.done {
            self.entries
        } else if self.idx < self.count {
            self.first + self.idx as u32 + 1
        } else {
            0
        }
    }

    /// Decode `block`'s id column into the scratch buffer and record where
    /// its value frames sit; the value columns are left stale until asked
    /// for. A block stored as its header alone is read from the header.
    #[cold]
    fn unpack_block(&mut self, block: usize) {
        let meta = self.headers()[block];
        let first = block * BLOCK_ENTRIES;
        let count = (self.entries as usize - first).min(BLOCK_ENTRIES);
        let s = &mut *self.scratch;
        s.column_block = [usize::MAX; MAX_VALUE_COLUMNS];
        if let Some(value) = meta.header_only(count) {
            s.ids[0] = meta.max_node().0;
            s.values[0][0] = value;
            s.column_block[0] = block;
        } else {
            s.frames = frame::unpack_ids(
                self.data,
                meta.byte_start(),
                H::BIASES.len(),
                count,
                &mut s.ids,
            );
        }
        self.block = block;
        self.count = count;
        self.first = first as u32;
    }

    /// Make `block` the resident block. The hit path is one comparison;
    /// the miss is kept out of line so the entry walk stays inlineable.
    #[inline(always)]
    fn ensure_decoded(&mut self, block: usize) {
        if self.block != block {
            self.unpack_block(block);
        }
    }

    /// Value column `c` of the resident block, unpacked on first demand.
    #[inline]
    pub(crate) fn column(&mut self, c: usize) -> &[u32; BLOCK_ENTRIES] {
        if self.scratch.column_block[c] != self.block {
            let s = &mut *self.scratch;
            frame::unpack_column(
                self.data,
                &s.frames,
                c,
                self.count,
                H::BIASES[c],
                &mut s.values[c],
            );
            s.column_block[c] = self.block;
        }
        &self.scratch.values[c]
    }

    /// The current entry's value in the block's first value column (a
    /// posting's term frequency, a pair's gap).
    ///
    /// # Panics
    /// Panics if the cursor is not positioned on an entry.
    #[inline]
    pub(crate) fn value(&mut self) -> u32 {
        assert!(self.idx < self.count, "cursor not positioned on an entry");
        let idx = self.idx;
        self.column(0)[idx]
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

    /// Position the cursor on list entry `global` (callers guarantee it
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
        if global >= self.entries {
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

    /// The first block at or after `from` whose `max_node` reaches
    /// `target` (`headers.len()` when none does).
    fn find_block(&self, from: usize, target: NodeId) -> usize {
        from + self.headers()[from..].partition_point(|b| b.max_node() < target)
    }

    /// `seek(node)`: advance to the first entry with node id ≥ `target`,
    /// skipping whole blocks via the header array and searching the
    /// decoded ids of the landing block. Stays put if the current entry
    /// already satisfies the bound. Returns the landing node id, or `None`
    /// when the list has no such entry.
    pub fn seek(&mut self, target: NodeId) -> Option<NodeId> {
        if let Some(cur) = self.node() {
            if cur >= target {
                return Some(cur);
            }
        }
        // Fast path for a hop of one entry inside the resident block: the
        // step `next_entry` takes, counted the same.
        let i = self.idx.wrapping_add(1);
        if i < self.count && self.scratch.ids[i] >= target.0 {
            self.idx = i;
            return Some(NodeId(self.scratch.ids[i]));
        }
        let from = self.global_next();
        if from >= self.entries {
            if !self.done {
                self.mark_done();
            }
            return None;
        }
        // Fast path for the leapfrog-common short hop: the target is still
        // inside the already-decoded resident block — no header search.
        let cur_block = from as usize / BLOCK_ENTRIES;
        let target_block =
            if cur_block == self.block && self.headers()[cur_block].max_node() >= target {
                cur_block
            } else {
                let target_block = self.find_block(cur_block, target);
                if target_block >= self.headers().len() {
                    // No block can contain the target: exhaust, counting the
                    // rest of the list as skipped (never consumed).
                    self.counters.skipped += u64::from(self.entries - from);
                    self.counters.blocks_skipped += (self.headers().len())
                        .saturating_sub((from as usize).div_ceil(BLOCK_ENTRIES))
                        as u64;
                    self.mark_done();
                    return None;
                }
                target_block
            };
        let first = (target_block * BLOCK_ENTRIES) as u32;
        let mut from = from;
        if first > from {
            self.counters.skipped += u64::from(first - from);
            self.counters.blocks_skipped +=
                (target_block - (from as usize).div_ceil(BLOCK_ENTRIES)) as u64;
            from = first;
        }
        // Search the decoded ids (the block's max_node reaches the target,
        // so a landing entry exists): scan a handful of lanes linearly —
        // leapfrog hops are usually short — then binary-search the rest.
        // Fold the in-flight entry run first: decoding the landing block
        // replaces the resident block the run is counted against.
        self.flush_entry_run();
        self.ensure_decoded(target_block);
        let lo = (from - first) as usize;
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
        Some(self.land(first + (lo + within) as u32))
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

    /// Index of the block the cursor is parked in: the current entry's
    /// block, or the next block to decode when the cursor has not started.
    /// `None` once the list is exhausted (or empty).
    fn current_block(&self) -> Option<usize> {
        if self.idx < self.count {
            Some(self.block)
        } else if !self.started && !self.headers().is_empty() {
            Some(0)
        } else {
            None
        }
    }

    /// Header of the current block — the current entry's block, or the
    /// first block when the cursor has not started; `None` when exhausted.
    /// A pure bound probe: block-max pruning reads `max_tf` or `min_gap`
    /// from it.
    pub fn block_header(&self) -> Option<H> {
        self.current_block().map(|b| self.headers()[b])
    }

    /// Header of the block that would hold the first remaining entry with
    /// node id ≥ `target`, found by binary search over the headers — a
    /// pure bound probe that decodes nothing. `None` when no remaining
    /// entry can reach `target`.
    pub fn peek_header_at(&self, target: NodeId) -> Option<H> {
        if self.node().is_some_and(|cur| cur >= target) {
            return self.block_header();
        }
        let from = self.current_block()?;
        self.headers().get(self.find_block(from, target)).copied()
    }

    /// Jump past the current block without consuming its remaining entries
    /// (they are counted as skipped; the block counts in
    /// [`AccessCounters::blocks_skipped`] only if at least one entry was
    /// actually bypassed) and land on the first entry of the next block,
    /// returning its node id — or `None` when the pruned block was the
    /// last one.
    pub fn skip_block(&mut self) -> Option<NodeId> {
        let next = self.current_block()? + 1;
        let from = self.global_next();
        let first = if next < self.headers().len() {
            (next * BLOCK_ENTRIES) as u32
        } else {
            self.entries
        };
        let remaining = u64::from(first - from);
        self.counters.skipped += remaining;
        self.counters.blocks_skipped += u64::from(remaining > 0);
        if next < self.headers().len() {
            Some(self.land(first))
        } else {
            self.mark_done();
            None
        }
    }

    /// Access counters accumulated by this cursor, including the entry
    /// run currently in flight.
    pub fn counters(&self) -> AccessCounters {
        let mut c = self.counters;
        if self.idx < self.count {
            c.entries += (self.idx + 1 - self.run_start) as u64;
        }
        if H::PAIR {
            c.pair_entries = c.entries;
        }
        c
    }

    /// True once every entry has been consumed or skipped.
    pub fn exhausted(&self) -> bool {
        self.done
    }
}
