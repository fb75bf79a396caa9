//! The live index: LSM-style incremental maintenance over sealed segments.
//!
//! The paper evaluates every engine over a collection built once and
//! frozen. [`LiveIndex`] removes that restriction without touching the
//! engines: documents are added to a mutable in-memory write buffer
//! ([`crate::segment::MemSegment`]), flushes seal the buffer into immutable
//! segments (each one an ordinary [`crate::InvertedIndex`] over a local
//! corpus), deletes mark per-segment tombstone bitmaps, and a background
//! tiered-merge thread compacts small segments into bigger ones. Readers
//! never see any of this mid-flight: [`LiveIndex::snapshot`] returns a
//! cheap point-in-time [`Snapshot`] (a handful of `Arc` clones) whose
//! segments, tombstones, and corpus statistics are frozen — later adds,
//! deletes, flushes, and merges leave every held snapshot untouched.
//!
//! ## Global node ids
//!
//! Every added document gets the next global node id, forever. A segment
//! records which global ids its local ids `0..n` stand for
//! ([`crate::segment::SegmentData::globals`]); unmerged segments own
//! contiguous ranges, merged segments keep the surviving ids (holes where
//! tombstoned documents were dropped). Segments are kept ordered by their
//! disjoint global ranges, so per-segment results concatenate into globally
//! ascending result lists.
//!
//! ## Vocabulary
//!
//! One append-only token vocabulary, a `TokenInterner` behind an `Arc`,
//! serves the whole live index. The write buffer's corpus owns it; every
//! buffer chunk, flush, merge output and [`Snapshot`] shares it, and the
//! buffer copies it only to intern while it is shared, so what a segment
//! holds never changes. A segment's own width is its index's
//! [`InvertedIndex::num_tokens`], the vocabulary length at its seal (for a
//! merge output, when the merge was taken). Token ids are therefore
//! *prefix-consistent* — the same id means the same string in every
//! segment that knows it — which is what lets merged corpus statistics
//! (`df`, `db_size`) be summed per token id across segments.

use crate::segment::{DeleteSet, MemSegment, SegmentData};
use crate::InvertedIndex;
use ftsl_model::{Corpus, Document, NodeId, TokenInterner, Tokenizer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Tuning knobs for a [`LiveIndex`].
#[derive(Clone, Copy, Debug)]
pub struct LiveConfig {
    /// Seal the write buffer automatically once it holds this many
    /// documents.
    pub flush_threshold: usize,
    /// Tiered merge fan-in: an adjacent run of this many sealed segments in
    /// the same size tier is compacted into one.
    pub merge_fanin: usize,
    /// Run the tiered merge policy on a background thread. When `false`,
    /// merges happen only through [`LiveIndex::merge_all`] /
    /// [`LiveIndex::maybe_merge`] — the deterministic mode tests use.
    pub background_merge: bool,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            flush_threshold: 1024,
            merge_fanin: 4,
            background_merge: true,
        }
    }
}

/// A segment whose tombstoned fraction reaches this ratio is rewritten on
/// its own (dropping the dead documents) even without same-tier
/// neighbours.
const MERGE_TOMBSTONE_RATIO: f64 = 0.5;

/// Cost-driven compaction trigger: when the *measured* per-segment query
/// cost (decoded-entry counters from a cheap first-block probe of each
/// segment's hottest list) exceeds this multiple of what one merged
/// segment would pay for the same probe, every sealed segment is compacted
/// into one — even when the size tiers see nothing to do. This is what
/// catches the "many medium segments, each forcing its own block decode"
/// shape that size tiers are blind to.
const MERGE_COST_RATIO: f64 = 3.0;

/// A live index's sealed state, as a manifest holds it: the segments, the
/// vocabulary they share, and the id high-water marks.
#[derive(Debug)]
pub(crate) struct SealedParts {
    pub(crate) sealed: Vec<SnapshotSegment>,
    pub(crate) vocabulary: Arc<TokenInterner>,
    pub(crate) next_global: u32,
    pub(crate) next_segment_id: u64,
}

/// Mutable state behind the lock.
#[derive(Debug)]
struct State {
    mem: MemSegment,
    /// Tombstones for the buffered documents (copy-on-write like the sealed
    /// ones, so snapshots freeze them too).
    mem_deletes: Arc<DeleteSet>,
    /// Sealed views of the buffer, in order: contiguous slices from slot 0,
    /// each sealed by a snapshot over the documents the chunks before it
    /// did not cover. A snapshot reuses them and seals only the rest, so
    /// the first read after a write indexes that write's documents, not
    /// the whole buffer. Never more than `merge_fanin − 1` chunks.
    mem_chunks: Vec<Arc<SegmentData>>,
    /// Sealed segments ordered by their disjoint global-id ranges.
    sealed: Vec<SnapshotSegment>,
    next_global: u32,
    next_segment_id: u64,
    /// Bumped on every mutation; snapshots carry the version they saw.
    version: u64,
    /// At most one merge builds at a time (background or synchronous).
    merging: bool,
    /// Merges committed over the index's lifetime (metrics surface).
    merges_completed: u64,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the background merger (new work) and synchronous mergers
    /// waiting for `merging` to clear.
    wake: Condvar,
    shutdown: AtomicBool,
    config: LiveConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("live index lock poisoned")
    }
}

/// A dynamically maintained, segmented index over one growing collection.
///
/// All methods take `&self`: mutations synchronize internally, so a
/// `LiveIndex` can be shared across threads (the background merger is one
/// such thread).
///
/// ```
/// use ftsl_index::live::{LiveConfig, LiveIndex};
///
/// let live = LiveIndex::with_config(LiveConfig {
///     background_merge: false,
///     ..LiveConfig::default()
/// });
/// let a = live.add_document("rust makes systems programming approachable");
/// let b = live.add_document("full text search in rust");
/// live.flush();
/// live.delete_node(a);
/// let snap = live.snapshot();
/// assert_eq!(snap.live_doc_count(), 1);
/// assert!(snap.document(b).is_some());
/// assert!(snap.document(a).is_none(), "tombstoned");
/// ```
pub struct LiveIndex {
    shared: Arc<Shared>,
    tokenizer: Tokenizer,
    merger: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LiveIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveIndex")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl Default for LiveIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveIndex {
    /// An empty live index with default configuration (background merging
    /// on).
    pub fn new() -> Self {
        Self::with_config(LiveConfig::default())
    }

    /// An empty live index with explicit configuration.
    pub fn with_config(config: LiveConfig) -> Self {
        Self::from_corpus_with(Corpus::new(), config)
    }

    /// Seed a live index from an existing corpus, sealed as segment 0 (the
    /// "bulk load, then serve writes" path).
    pub fn from_corpus(corpus: Corpus) -> Self {
        Self::from_corpus_with(corpus, LiveConfig::default())
    }

    /// [`Self::from_corpus`] with explicit configuration.
    pub fn from_corpus_with(seed: Corpus, config: LiveConfig) -> Self {
        let vocabulary = Arc::clone(seed.interner());
        let n = seed.len();
        let sealed: Vec<SnapshotSegment> = (n > 0)
            .then(|| SnapshotSegment {
                data: Arc::new(SegmentData::seal(0, seed, (0..n as u32).collect())),
                deletes: Arc::new(DeleteSet::new(n)),
            })
            .into_iter()
            .collect();
        let parts = SealedParts {
            next_segment_id: sealed.len() as u64,
            sealed,
            vocabulary,
            next_global: n as u32,
        };
        Self::from_sealed_parts(parts, config)
    }

    /// A live index over sealed parts (a seed segment, or a decoded
    /// manifest's segments). The write buffer starts empty on their
    /// vocabulary.
    pub(crate) fn from_sealed_parts(parts: SealedParts, config: LiveConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                mem: MemSegment::new(parts.vocabulary),
                mem_deletes: Arc::new(DeleteSet::new(0)),
                mem_chunks: Vec::new(),
                sealed: parts.sealed,
                next_global: parts.next_global,
                next_segment_id: parts.next_segment_id,
                version: 0,
                merging: false,
                merges_completed: 0,
            }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let merger = config.background_merge.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || merger_loop(&shared))
        });
        LiveIndex {
            shared,
            tokenizer: Tokenizer::new(),
            merger,
        }
    }

    /// Replace the tokenizer used by [`Self::add_document`] (e.g. to apply
    /// the analyzed stemming/stop-word pipeline).
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> LiveConfig {
        self.shared.config
    }

    /// Tokenize and add one document, returning its global node id. The
    /// write buffer auto-flushes at [`LiveConfig::flush_threshold`].
    pub fn add_document(&self, text: &str) -> NodeId {
        let mut st = self.shared.lock();
        let global = st.next_global;
        st.next_global += 1;
        st.mem.add(&self.tokenizer, text, global);
        Arc::make_mut(&mut st.mem_deletes).push_slot();
        st.version += 1;
        if st.mem.len() >= self.shared.config.flush_threshold {
            flush_locked(&mut st);
            self.shared.wake.notify_all();
        }
        NodeId(global)
    }

    /// Tombstone a document by global node id. Returns `false` when the id
    /// was never assigned or is already deleted. The document's bytes stay
    /// in its segment until a merge rewrites it; queries stop seeing it
    /// immediately (on snapshots taken after this call).
    pub fn delete_node(&self, node: NodeId) -> bool {
        let mut st = self.shared.lock();
        if node.0 >= st.next_global {
            return false;
        }
        let deleted = if let Some(local) = st.mem.local_of(node) {
            Arc::make_mut(&mut st.mem_deletes).delete(local)
        } else {
            let found = st
                .sealed
                .iter()
                .enumerate()
                .find_map(|(i, e)| e.data.local_of(node).map(|local| (i, local)));
            match found {
                Some((i, local)) => Arc::make_mut(&mut st.sealed[i].deletes).delete(local),
                None => false, // id fell in a hole a merge already dropped
            }
        };
        if deleted {
            st.version += 1;
            drop(st);
            // A delete can push a segment over the tombstone-ratio trigger.
            self.shared.wake.notify_all();
        }
        deleted
    }

    /// Seal the write buffer into a new immutable segment. Returns `false`
    /// when the buffer was empty.
    pub fn flush(&self) -> bool {
        let mut st = self.shared.lock();
        let flushed = flush_locked(&mut st);
        if flushed {
            drop(st);
            self.shared.wake.notify_all();
        }
        flushed
    }

    /// A point-in-time view of the whole collection: every sealed segment
    /// plus (if non-empty) the write buffer as one or more chunks, with the
    /// tombstone bitmaps frozen as of now. O(segments) `Arc` clones, except
    /// when documents were added since the last snapshot — then those
    /// documents alone are sealed as one more chunk, and later snapshots
    /// reuse it. A snapshot that finds `merge_fanin − 1` chunks already
    /// seals the whole buffer as one chunk instead, so readers never see
    /// more. Each chunk's tombstones are its slice of the buffer's bitmap.
    pub fn snapshot(&self) -> Snapshot {
        let mut st = self.shared.lock();
        let mut segments = st.sealed.clone();
        let covered: usize = st.mem_chunks.iter().map(|c| c.num_docs()).sum();
        if covered < st.mem.len() {
            let from = if st.mem_chunks.len() + 1 >= self.shared.config.merge_fanin.max(2) {
                st.mem_chunks.clear();
                0
            } else {
                covered
            };
            // A chunk borrows the *next* segment id: if the buffer is later
            // flushed as one unchanged chunk, the flushed segment is this
            // very chunk under the id it would get anyway.
            let chunk = Arc::new(st.mem.seal_from(st.next_segment_id, from));
            st.mem_chunks.push(chunk);
        }
        let mut start = 0;
        for chunk in &st.mem_chunks {
            let end = start + chunk.num_docs();
            let deletes = if start == 0 && end == st.mem_deletes.len() {
                Arc::clone(&st.mem_deletes)
            } else {
                Arc::new(st.mem_deletes.slice(start, end))
            };
            segments.push(SnapshotSegment {
                data: Arc::clone(chunk),
                deletes,
            });
            start = end;
        }
        Snapshot {
            segments,
            version: st.version,
            vocabulary: Arc::clone(st.mem.corpus().interner()),
        }
    }

    /// Flush, then compact every sealed segment into one, synchronously
    /// (waits for a background merge in flight). Returns `false` when there
    /// was nothing to compact.
    pub fn merge_all(&self) -> bool {
        self.flush();
        run_merge(&self.shared, |st| {
            let worth_it = st.sealed.len() > 1
                || st
                    .sealed
                    .first()
                    .is_some_and(|e| e.deletes.deleted_count() > 0);
            worth_it.then_some((0, st.sealed.len()))
        })
    }

    /// Apply one round of the tiered merge policy synchronously. Returns
    /// whether a merge ran (useful when background merging is off).
    pub fn maybe_merge(&self) -> bool {
        run_merge(&self.shared, |st| plan_merge(st, &self.shared.config))
    }

    /// Number of sealed segments (the write buffer not included).
    pub fn segment_count(&self) -> usize {
        self.shared.lock().sealed.len()
    }

    /// Documents currently sitting in the write buffer.
    pub fn buffered_docs(&self) -> usize {
        self.shared.lock().mem.len()
    }

    /// Live (non-tombstoned) documents across segments and buffer.
    pub fn live_doc_count(&self) -> usize {
        let st = self.shared.lock();
        let sealed: usize = st
            .sealed
            .iter()
            .map(|e| e.data.num_docs() - e.deletes.deleted_count())
            .sum();
        sealed + st.mem.len() - st.mem_deletes.deleted_count()
    }

    /// Total tombstones not yet reclaimed by a merge.
    pub fn tombstone_count(&self) -> usize {
        let st = self.shared.lock();
        st.sealed
            .iter()
            .map(|e| e.deletes.deleted_count())
            .sum::<usize>()
            + st.mem_deletes.deleted_count()
    }

    /// The mutation version (bumped by every add/delete/flush/merge).
    /// Snapshots record the version they were taken at, so callers can
    /// cache derived structures per version.
    pub fn version(&self) -> u64 {
        self.shared.lock().version
    }

    /// Merges committed over the index's lifetime (background or
    /// synchronous).
    pub fn merges_completed(&self) -> u64 {
        self.shared.lock().merges_completed
    }

    /// Flush the buffer and hand the manifest encoder a consistent view of
    /// the sealed segment set, the vocabulary, and the id high-water marks.
    pub(crate) fn sealed_parts(&self) -> SealedParts {
        let mut st = self.shared.lock();
        flush_locked(&mut st);
        SealedParts {
            sealed: st.sealed.clone(),
            vocabulary: Arc::clone(st.mem.corpus().interner()),
            next_global: st.next_global,
            next_segment_id: st.next_segment_id,
        }
    }
}

impl Drop for LiveIndex {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(handle) = self.merger.take() {
            let _ = handle.join();
        }
    }
}

/// Seal the buffer into the sealed list; `false` when empty.
fn flush_locked(st: &mut State) -> bool {
    if st.mem.is_empty() {
        return false;
    }
    // A read view is reusable only if it is one chunk covering the whole
    // buffer AND still carries the id this flush is about to hand out — a
    // merge may have consumed ids since the chunk was sealed, and sealing
    // it as-is would produce two segments with the same id (breaking the
    // id-based merge-commit bookkeeping).
    let whole = match st.mem_chunks.as_slice() {
        [one] if one.num_docs() == st.mem.len() && one.id() == st.next_segment_id => {
            Some(Arc::clone(one))
        }
        _ => None,
    };
    st.mem_chunks.clear();
    // Otherwise the drained buffer itself is sealed, not a clone of its
    // documents.
    let (corpus, globals) = st.mem.drain();
    let data =
        whole.unwrap_or_else(|| Arc::new(SegmentData::seal(st.next_segment_id, corpus, globals)));
    st.next_segment_id += 1;
    st.sealed.push(SnapshotSegment {
        data,
        deletes: Arc::clone(&st.mem_deletes),
    });
    st.mem_deletes = Arc::new(DeleteSet::new(0));
    st.version += 1;
    true
}

/// The tiered policy: prefer compacting an adjacent run of `merge_fanin`
/// same-tier segments (smallest tiers merge first); otherwise rewrite a
/// single segment drowning in tombstones; otherwise ask the measured query
/// cost whether full compaction pays ([`MERGE_COST_RATIO`]).
fn plan_merge(st: &State, config: &LiveConfig) -> Option<(usize, usize)> {
    let fanin = config.merge_fanin.max(2);
    let tier = |e: &SnapshotSegment| {
        let mut live = e.data.num_docs() - e.deletes.deleted_count();
        let mut t = 0u32;
        while live >= fanin {
            live /= fanin;
            t += 1;
        }
        t
    };
    let tiers: Vec<u32> = st.sealed.iter().map(tier).collect();
    let mut run_start = 0;
    for i in 1..=tiers.len() {
        if i == tiers.len() || tiers[i] != tiers[run_start] {
            if i - run_start >= fanin {
                return Some((run_start, run_start + fanin));
            }
            run_start = i;
        }
    }
    if let Some(solo) = st.sealed.iter().position(|e| {
        let n = e.data.num_docs();
        n > 0
            && e.deletes.deleted_count() > 0
            && e.deletes.deleted_count() as f64 >= MERGE_TOMBSTONE_RATIO * n as f64
    }) {
        return Some((solo, solo + 1));
    }
    plan_cost_compaction(st)
}

/// Measure what segmentation costs a query *right now* and compact when it
/// pays: probe each sealed segment's hottest posting list by walking its
/// first block and reading the decoded-entry counter — the same counter a
/// real query reports — then compare the per-segment sum against the
/// first-block cost a single merged segment would pay for the same list.
/// Size tiers never see this shape (N medium segments, none of them small
/// enough to merge), but the measured ratio does.
fn plan_cost_compaction(st: &State) -> Option<(usize, usize)> {
    if st.sealed.len() < 2 {
        return None;
    }
    let mut segmented_cost = 0u64;
    let mut hottest_df_total = 0u64;
    for e in &st.sealed {
        let index = e.data.index();
        let Some(hottest) = e.data.hottest_token() else {
            continue;
        };
        hottest_df_total += index.df(hottest) as u64;
        let mut probe = index.block_list(hottest).cursor();
        for _ in 0..crate::block::BLOCK_ENTRIES {
            if probe.next_entry().is_none() {
                break;
            }
        }
        segmented_cost += probe.counters().entries;
    }
    // One merged segment pays at most a single first block for the probe
    // (its hottest list holds at most the sum of the per-segment hottest
    // lists, capped at one block's worth of decoding).
    let merged_cost = hottest_df_total.min(crate::block::BLOCK_ENTRIES as u64);
    (merged_cost > 0 && segmented_cost as f64 > MERGE_COST_RATIO * merged_cost as f64)
        .then_some((0, st.sealed.len()))
}

/// Run one merge chosen by `pick` (a range over the sealed list),
/// serialized against any other merge: wait for a merge in flight, reserve
/// the output's segment id and take the inputs and the writer's current
/// vocabulary under the lock, build outside it, then commit. `false` when
/// `pick` finds nothing to do.
fn run_merge(shared: &Shared, pick: impl FnOnce(&State) -> Option<(usize, usize)>) -> bool {
    let (id, inputs, vocabulary) = {
        let mut st = shared.lock();
        while st.merging {
            if shared.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            st = shared.wake.wait(st).expect("live index lock poisoned");
        }
        let Some((start, end)) = pick(&st) else {
            return false;
        };
        st.merging = true;
        let id = st.next_segment_id;
        st.next_segment_id += 1;
        let vocabulary = Arc::clone(st.mem.corpus().interner());
        (id, st.sealed[start..end].to_vec(), vocabulary)
    };
    let merged = build_merged(id, &inputs, vocabulary);
    commit_merge(shared, &inputs, merged);
    true
}

/// Build the compacted segment: surviving documents of `entries` (as of the
/// captured tombstone bitmaps) re-sealed under one corpus over `vocabulary`,
/// the writer's as the merge was taken — token ids stay prefix-consistent,
/// and no retokenization happens (analyzed corpora survive merges
/// unchanged).
fn build_merged(
    id: u64,
    entries: &[SnapshotSegment],
    vocabulary: Arc<TokenInterner>,
) -> SegmentData {
    let mut corpus = Corpus::with_interner(vocabulary);
    let mut globals = Vec::new();
    for e in entries {
        for local in 0..e.data.num_docs() {
            if e.deletes.is_live(local) {
                let doc = e.data.document(local);
                corpus.add_tokens(doc.label.clone(), doc.tokens.clone());
                globals.push(e.data.global_of(local).0);
            }
        }
    }
    SegmentData::seal(id, corpus, globals)
}

/// Swap the merged inputs for the merged output under the lock, carrying
/// over tombstones that arrived while the merge was building (they apply to
/// the *current* bitmaps, which may have moved past the captured ones).
fn commit_merge(shared: &Shared, inputs: &[SnapshotSegment], merged: SegmentData) {
    let mut st = shared.lock();
    let mut deletes = DeleteSet::new(merged.num_docs());
    for captured in inputs {
        let Some(current) = st.sealed.iter().find(|e| e.data.id() == captured.data.id()) else {
            continue;
        };
        for local in current.deletes.iter_deleted() {
            if captured.deletes.is_live(local) {
                if let Some(nl) = merged.local_of(current.data.global_of(local)) {
                    deletes.delete(nl);
                }
            }
        }
    }
    let ids: Vec<u64> = inputs.iter().map(|e| e.data.id()).collect();
    let start = st
        .sealed
        .iter()
        .position(|e| ids.contains(&e.data.id()))
        .expect("merge inputs vanished");
    // Only merges remove sealed entries and merges are serialized, so the
    // captured run is still contiguous at `start`.
    let replacement = (merged.num_docs() > 0).then(|| SnapshotSegment {
        data: Arc::new(merged),
        deletes: Arc::new(deletes),
    });
    st.sealed.splice(start..start + ids.len(), replacement);
    st.merging = false;
    st.version += 1;
    st.merges_completed += 1;
    drop(st);
    shared.wake.notify_all();
}

/// The background merger: run the tiered policy once, and when it finds
/// nothing, sleep until woken (or 100 ms). Exits when the owning
/// [`LiveIndex`] drops.
fn merger_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        if !run_merge(shared, |st| plan_merge(st, &shared.config)) {
            let st = shared.lock();
            let _ = shared
                .wake
                .wait_timeout(st, Duration::from_millis(100))
                .expect("live index lock poisoned");
        }
    }
}

/// One sealed segment plus its copy-on-write tombstone bitmap: as the live
/// index holds it, and as a snapshot sees it, immutable data plus the
/// bitmap frozen at snapshot time.
#[derive(Clone, Debug)]
pub struct SnapshotSegment {
    pub(crate) data: Arc<SegmentData>,
    pub(crate) deletes: Arc<DeleteSet>,
}

impl SnapshotSegment {
    /// The sealed segment (corpus + index + global id map).
    pub fn data(&self) -> &SegmentData {
        &self.data
    }

    /// The frozen tombstone bitmap (local node ids).
    pub fn deletes(&self) -> &DeleteSet {
        &self.deletes
    }

    /// Live documents in this segment.
    pub fn live_count(&self) -> usize {
        self.data.num_docs() - self.deletes.deleted_count()
    }
}

/// A point-in-time view over a [`LiveIndex`]: an ordered list of segments
/// with frozen tombstones. Holding a snapshot pins the segment data it
/// references (via `Arc`), so concurrent merges cost memory, not
/// correctness.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    segments: Vec<SnapshotSegment>,
    version: u64,
    /// The writer's vocabulary at snapshot time: every segment's is a
    /// prefix of it.
    vocabulary: Arc<TokenInterner>,
}

impl Snapshot {
    /// A fully live, one-segment snapshot over a prebuilt corpus and its
    /// index: global ids `0..n` are the local ids, no document is
    /// tombstoned, and the version is 0. This is how an index sealed under
    /// a non-default [`crate::PairConfig`], or decoded from a persisted
    /// image, is read through the same executor as a live index.
    pub fn of_index(corpus: Corpus, index: InvertedIndex) -> Snapshot {
        let n = corpus.len();
        let vocabulary = Arc::clone(corpus.interner());
        let data = SegmentData::from_parts(0, corpus, (0..n as u32).collect(), index);
        Snapshot {
            segments: vec![SnapshotSegment {
                data: Arc::new(data),
                deletes: Arc::new(DeleteSet::new(n)),
            }],
            version: 0,
            vocabulary,
        }
    }

    /// The segments, ordered by their disjoint global-id ranges (the write
    /// buffer's chunks last).
    pub fn segments(&self) -> &[SnapshotSegment] {
        &self.segments
    }

    /// Number of segments in the view.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The [`LiveIndex::version`] this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Live documents across all segments.
    pub fn live_doc_count(&self) -> usize {
        self.segments.iter().map(SnapshotSegment::live_count).sum()
    }

    /// Tombstoned documents still physically present.
    pub fn tombstone_count(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.deletes.deleted_count())
            .sum()
    }

    /// True when the snapshot holds no live document.
    pub fn is_empty(&self) -> bool {
        self.live_doc_count() == 0
    }

    /// The live index's vocabulary as of this snapshot. It only ever
    /// grows, so every segment's vocabulary is a prefix of it — the right
    /// place to resolve query tokens to global idf values.
    pub fn vocabulary(&self) -> &TokenInterner {
        &self.vocabulary
    }

    /// Look up a live document by global node id.
    pub fn document(&self, global: NodeId) -> Option<&Document> {
        for seg in &self.segments {
            if let Some(local) = seg.data.local_of(global) {
                return seg.deletes.is_live(local).then(|| seg.data.document(local));
            }
        }
        None
    }

    /// Iterate `(global id, document)` over live documents in ascending
    /// global order — exactly the collection a monolithic rebuild would
    /// index, in the same order.
    pub fn live_documents(&self) -> impl Iterator<Item = (NodeId, &Document)> + '_ {
        self.segments.iter().flat_map(|seg| {
            (0..seg.data.num_docs())
                .filter(move |&local| seg.deletes.is_live(local))
                .map(move |local| (seg.data.global_of(local), seg.data.document(local)))
        })
    }

    /// Per-segment footprint/tombstone report (what `:stats` prints).
    pub fn segment_reports(&self) -> Vec<SegmentReport> {
        self.segments
            .iter()
            .map(|s| {
                let footprint = s.data.index().memory_footprint();
                SegmentReport {
                    id: s.data.id(),
                    docs: s.data.num_docs(),
                    tombstones: s.deletes.deleted_count(),
                    resident_bytes: footprint.total(),
                    pair_bytes: footprint.pairs,
                }
            })
            .collect()
    }
}

/// Per-segment diagnostics for stats reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segment id.
    pub id: u64,
    /// Documents physically present (live + tombstoned).
    pub docs: usize,
    /// Tombstoned documents awaiting a merge.
    pub tombstones: usize,
    /// Resident bytes of the segment's index (pair lists included).
    pub resident_bytes: usize,
    /// Bytes of [`Self::resident_bytes`] attributable to the word-pair
    /// auxiliary index, so footprint attribution separates pair lists
    /// from core postings.
    pub pair_bytes: usize,
}

impl SegmentReport {
    /// Fraction of physically present documents still live (1.0 for an
    /// empty segment).
    pub fn live_ratio(&self) -> f64 {
        if self.docs == 0 {
            1.0
        } else {
            (self.docs - self.tombstones) as f64 / self.docs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> LiveConfig {
        LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        }
    }

    #[test]
    fn adds_assign_increasing_global_ids_across_flushes() {
        let live = LiveIndex::with_config(manual());
        let a = live.add_document("one two");
        let b = live.add_document("two three");
        live.flush();
        let c = live.add_document("three four");
        assert_eq!((a, b, c), (NodeId(0), NodeId(1), NodeId(2)));
        assert_eq!(live.segment_count(), 1);
        assert_eq!(live.buffered_docs(), 1);
        let snap = live.snapshot();
        assert_eq!(snap.num_segments(), 2, "buffer appears as a segment");
        assert_eq!(snap.live_doc_count(), 3);
        let globals: Vec<u32> = snap.live_documents().map(|(n, _)| n.0).collect();
        assert_eq!(globals, vec![0, 1, 2]);
    }

    #[test]
    fn of_index_is_one_fully_live_segment_with_identity_globals() {
        let corpus = Corpus::from_texts(&["alpha beta", "beta", "gamma"]);
        let index = crate::IndexBuilder::new().build(&corpus);
        let snap = Snapshot::of_index(corpus, index);
        assert_eq!((snap.num_segments(), snap.version()), (1, 0));
        assert_eq!((snap.live_doc_count(), snap.tombstone_count()), (3, 0));
        assert_eq!(snap.segments()[0].data().globals(), &[0, 1, 2]);
        let beta = snap.segments()[0].data().corpus().token_id("beta").unwrap();
        assert_eq!(snap.segments()[0].data().index().df(beta), 2);
    }

    #[test]
    fn snapshots_are_isolated_from_later_mutations() {
        let live = LiveIndex::with_config(manual());
        let a = live.add_document("alpha beta");
        live.add_document("beta gamma");
        live.flush();
        let before = live.snapshot();
        live.delete_node(a);
        live.add_document("delta");
        live.merge_all();
        assert_eq!(before.live_doc_count(), 2, "held snapshot unchanged");
        assert!(before.document(a).is_some());
        let after = live.snapshot();
        assert_eq!(after.live_doc_count(), 2); // one deleted, one added
        assert!(after.document(a).is_none());
    }

    #[test]
    fn merge_all_compacts_to_one_segment_dropping_tombstones() {
        let live = LiveIndex::with_config(manual());
        for i in 0..6 {
            live.add_document(&format!("tok{} shared", i));
            live.flush();
        }
        live.delete_node(NodeId(2));
        assert_eq!(live.segment_count(), 6);
        assert!(live.merge_all());
        assert_eq!(live.segment_count(), 1);
        assert_eq!(live.tombstone_count(), 0, "merge reclaims tombstones");
        let snap = live.snapshot();
        // Surviving global ids keep their values, with a hole at 2.
        let globals: Vec<u32> = snap.live_documents().map(|(n, _)| n.0).collect();
        assert_eq!(globals, vec![0, 1, 3, 4, 5]);
        // Deleting into the hole reports false; survivors still deletable.
        assert!(!live.delete_node(NodeId(2)));
        assert!(live.delete_node(NodeId(3)));
    }

    #[test]
    fn tiered_policy_merges_same_tier_runs() {
        let live = LiveIndex::with_config(LiveConfig {
            merge_fanin: 3,
            ..manual()
        });
        for i in 0..3 {
            live.add_document(&format!("doc{i}"));
            live.flush();
        }
        assert_eq!(live.segment_count(), 3);
        assert!(live.maybe_merge(), "three tier-0 segments merge");
        assert_eq!(live.segment_count(), 1);
        assert!(!live.maybe_merge(), "nothing left to do");
    }

    #[test]
    fn tombstone_ratio_triggers_solo_compaction() {
        let live = LiveIndex::with_config(manual());
        for i in 0..4 {
            live.add_document(&format!("doc{i} filler"));
        }
        live.flush();
        live.delete_node(NodeId(0));
        assert!(!live.maybe_merge(), "1/4 deleted is under the ratio");
        live.delete_node(NodeId(1));
        assert!(live.maybe_merge(), "2/4 deleted hits the ratio");
        assert_eq!(live.tombstone_count(), 0);
        assert_eq!(live.live_doc_count(), 2);
    }

    #[test]
    fn measured_query_cost_triggers_full_compaction() {
        // Four 150-doc segments sharing one hot token: the size tiers see a
        // same-tier run of 4 < fanin 8 and do nothing, but probing each
        // segment's hottest list decodes a full first block per segment
        // (4 × 128 entries) where one merged segment would pay 128 — over
        // the 3× default ratio, so the measured cost forces compaction.
        let live = LiveIndex::with_config(LiveConfig {
            merge_fanin: 8,
            ..manual()
        });
        for s in 0..4 {
            for i in 0..150 {
                live.add_document(&format!("common doc{s}x{i}"));
            }
            live.flush();
        }
        assert_eq!(live.segment_count(), 4);
        assert!(live.maybe_merge(), "4x first-block probe cost must trigger");
        assert_eq!(live.segment_count(), 1);
        assert!(!live.maybe_merge(), "a single segment has nothing to gain");
        assert_eq!(live.live_doc_count(), 600);
    }

    #[test]
    fn cost_probe_leaves_cheap_shapes_alone() {
        // Two such segments probe at 2 × 128 = 256 entries against 128
        // merged — a 2× ratio, under the 3× trigger: segmentation is not
        // yet hurting enough to pay for a rewrite.
        let live = LiveIndex::with_config(LiveConfig {
            merge_fanin: 8,
            ..manual()
        });
        for s in 0..2 {
            for i in 0..150 {
                live.add_document(&format!("common doc{s}x{i}"));
            }
            live.flush();
        }
        assert!(!live.maybe_merge(), "2x probe cost is under the ratio");
        assert_eq!(live.segment_count(), 2);
    }

    #[test]
    fn fully_deleted_segment_disappears_on_merge() {
        let live = LiveIndex::with_config(manual());
        live.add_document("only");
        live.flush();
        live.delete_node(NodeId(0));
        assert!(live.maybe_merge());
        assert_eq!(live.segment_count(), 0);
        assert!(live.snapshot().is_empty());
    }

    #[test]
    fn background_merger_compacts_eventually() {
        let live = LiveIndex::with_config(LiveConfig {
            merge_fanin: 2,
            background_merge: true,
            ..LiveConfig::default()
        });
        for i in 0..8 {
            live.add_document(&format!("doc{i} word"));
            live.flush();
        }
        // 8 tier-0 segments; the background thread should fold them up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while live.segment_count() > 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            live.segment_count() <= 2,
            "background merge did not run: {} segments",
            live.segment_count()
        );
        assert_eq!(live.live_doc_count(), 8);
    }

    #[test]
    fn vocabulary_is_prefix_consistent_across_segments() {
        let live = LiveIndex::with_config(manual());
        live.add_document("alpha beta");
        live.flush();
        live.add_document("beta gamma");
        live.flush();
        let snap = live.snapshot();
        let vocabulary = snap.vocabulary();
        let beta = vocabulary.get("beta").unwrap();
        for seg in snap.segments() {
            if let Some(local) = seg.data().corpus().token_id("beta") {
                assert_eq!(local, beta, "same id in every segment that knows it");
            }
        }
        assert!(vocabulary.get("gamma").is_some());
        assert_eq!(
            snap.segments()[0].data().corpus().token_id("gamma"),
            None,
            "earlier segment predates the token"
        );
    }

    #[test]
    fn auto_flush_honours_threshold() {
        let live = LiveIndex::with_config(LiveConfig {
            flush_threshold: 3,
            ..manual()
        });
        for i in 0..7 {
            live.add_document(&format!("doc{i}"));
        }
        assert_eq!(live.segment_count(), 2);
        assert_eq!(live.buffered_docs(), 1);
    }

    #[test]
    fn flush_after_merge_does_not_reuse_a_consumed_segment_id() {
        // One read leaves one buffer chunk, two reads between adds two.
        for reads in [1, 2] {
            let live = LiveIndex::with_config(manual());
            live.add_document("one two");
            live.add_document("three four");
            live.flush(); // segment 0
            live.delete_node(NodeId(0)); // 1/2 tombstoned = at the ratio
            for i in 0..reads {
                live.add_document(&format!("buffered five{i}"));
                // Cache a buffer chunk (it borrows the next id, 1)...
                let _pinned = live.snapshot();
            }
            // ...then let a solo compaction consume that id.
            assert!(live.maybe_merge());
            live.flush();
            let ids: Vec<u64> = live
                .snapshot()
                .segments()
                .iter()
                .map(|s| s.data().id())
                .collect();
            assert_eq!(ids.len(), 2);
            assert_ne!(ids[0], ids[1], "segment ids must stay unique: {ids:?}");
        }
    }

    #[test]
    fn snapshot_reuses_cached_buffer_view() {
        let live = LiveIndex::with_config(manual());
        live.add_document("cached view");
        let a = live.snapshot();
        let b = live.snapshot();
        assert!(Arc::ptr_eq(&a.segments[0].data, &b.segments[0].data));
        live.add_document("another");
        let c = live.snapshot();
        assert_eq!(c.num_segments(), 2, "the new document is one more chunk");
        assert!(Arc::ptr_eq(&a.segments[0].data, &c.segments[0].data));
        assert_eq!(c.segments[1].data.globals(), &[1]);
    }

    /// With `merge_fanin` 4 a read after every add grows the buffer by one
    /// chunk of one document; the read that finds three chunks seals the
    /// whole buffer as one instead. Every view holds every document once.
    #[test]
    fn reads_between_adds_never_expose_more_than_fanin_minus_one_chunks() {
        let live = LiveIndex::with_config(LiveConfig {
            merge_fanin: 4,
            ..manual()
        });
        let mut chunks = Vec::new();
        for i in 0..10u32 {
            live.add_document(&format!("doc{i} shared"));
            let snap = live.snapshot();
            chunks.push(snap.num_segments());
            let globals: Vec<u32> = snap.live_documents().map(|(n, _)| n.0).collect();
            assert_eq!(globals, (0..=i).collect::<Vec<_>>());
        }
        assert_eq!(chunks, vec![1, 2, 3, 1, 2, 3, 1, 2, 3, 1]);
    }

    /// Deletes of buffered documents reach the chunk that holds them, and
    /// later snapshots of an unchanged buffer see later deletes.
    #[test]
    fn buffered_deletes_land_in_their_chunk() {
        let live = LiveIndex::with_config(manual());
        for i in 0..3 {
            live.add_document(&format!("doc{i}"));
            let _ = live.snapshot();
        }
        assert!(live.delete_node(NodeId(1)));
        let snap = live.snapshot();
        assert_eq!(snap.num_segments(), 3);
        let dead: Vec<usize> = snap
            .segments()
            .iter()
            .map(|s| s.deletes().deleted_count())
            .collect();
        assert_eq!(dead, vec![0, 1, 0]);
        assert!(snap.document(NodeId(1)).is_none());
        assert_eq!(snap.live_doc_count(), 2);
    }

    /// A flush after several chunks seals the buffer as one segment, the
    /// same one a buffer never read before its flush seals.
    #[test]
    fn flush_after_chunks_seals_one_segment_equal_to_a_rebuild() {
        let texts = [
            "alpha beta",
            "beta gamma",
            "gamma alpha delta",
            "alpha",
            "eps",
            "beta",
        ];
        let chunked = LiveIndex::with_config(manual());
        let rebuilt = LiveIndex::with_config(manual());
        for text in texts {
            chunked.add_document(text);
            let _ = chunked.snapshot();
            rebuilt.add_document(text);
        }
        chunked.delete_node(NodeId(2));
        rebuilt.delete_node(NodeId(2));
        assert_eq!(chunked.snapshot().num_segments(), 3, "buffer was chunked");
        assert!(chunked.flush() && rebuilt.flush());
        let (a, b) = (chunked.snapshot(), rebuilt.snapshot());
        assert_eq!((a.num_segments(), b.num_segments()), (1, 1));
        let (sa, sb) = (&a.segments()[0], &b.segments()[0]);
        assert_eq!(sa.data().globals(), sb.data().globals());
        assert_eq!(sa.deletes(), sb.deletes());
        assert_eq!(
            crate::persist::encode(sa.data().index()),
            crate::persist::encode(sb.data().index()),
            "the flushed segment is the rebuild, byte for byte"
        );
    }

    #[test]
    fn segment_reports_cover_footprint_and_live_ratio() {
        let live = LiveIndex::with_config(manual());
        for i in 0..4 {
            live.add_document(&format!("doc{i} shared tokens here"));
        }
        live.flush();
        live.delete_node(NodeId(1));
        let reports = live.snapshot().segment_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].docs, 4);
        assert_eq!(reports[0].tombstones, 1);
        assert!(reports[0].resident_bytes > 0);
        assert!((reports[0].live_ratio() - 0.75).abs() < 1e-12);
    }
}
