//! Segments: the building blocks of the live (LSM-style) index.
//!
//! A [`SegmentData`] is one sealed, immutable slice of the collection — a
//! per-segment [`Corpus`] (local node ids `0..n`) plus the
//! [`InvertedIndex`] built over it, plus the mapping from local node ids to
//! the *global* node ids the [`crate::live::LiveIndex`] hands out. Deletes
//! never touch a sealed segment; they live next to it in a copy-on-write
//! [`DeleteSet`] bitmap, so a held snapshot keeps the bits it saw while the
//! live index keeps marking new tombstones.
//!
//! The [`MemSegment`] is the mutable write buffer: documents accumulate in
//! a plain [`Corpus`] (which holds the live index's one vocabulary, shared
//! with every segment) until a flush seals them into a [`SegmentData`].

use crate::builder::IndexBuilder;
use crate::index::InvertedIndex;
use ftsl_model::{Corpus, Document, NodeId, TokenId, TokenInterner, Tokenizer};
use std::sync::{Arc, OnceLock};

/// A per-segment tombstone bitmap over local node ids.
///
/// Cloning is cheap relative to segment size (one word per 64 documents),
/// which is what makes copy-on-write snapshots work: the live index mutates
/// a fresh clone (`Arc::make_mut`) while snapshots keep the frozen one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeleteSet {
    words: Vec<u64>,
    len: usize,
    deleted: usize,
}

impl DeleteSet {
    /// An all-live bitmap over `len` local node ids.
    pub fn new(len: usize) -> Self {
        DeleteSet {
            words: vec![0; len.div_ceil(64)],
            len,
            deleted: 0,
        }
    }

    /// Number of local node ids covered (live or deleted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the bitmap covers no documents at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Extend the bitmap with one more live slot (write-buffer growth).
    pub fn push_slot(&mut self) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
    }

    /// Mark a local node deleted. Returns `false` if it was already deleted
    /// or out of range (so callers can report idempotent deletes honestly).
    pub fn delete(&mut self, local: usize) -> bool {
        if local >= self.len || self.is_deleted(local) {
            return false;
        }
        self.words[local / 64] |= 1 << (local % 64);
        self.deleted += 1;
        true
    }

    /// Whether a local node is tombstoned. Out-of-range ids read as live.
    pub fn is_deleted(&self, local: usize) -> bool {
        local < self.len && self.words[local / 64] & (1 << (local % 64)) != 0
    }

    /// Whether a local node is still live.
    pub fn is_live(&self, local: usize) -> bool {
        !self.is_deleted(local)
    }

    /// Number of tombstoned documents.
    pub fn deleted_count(&self) -> usize {
        self.deleted
    }

    /// Number of live documents.
    pub fn live_count(&self) -> usize {
        self.len - self.deleted
    }

    /// The bitmap of slots `start..end`, renumbered from 0 (a write-buffer
    /// chunk's tombstones, cut from the buffer's).
    pub(crate) fn slice(&self, start: usize, end: usize) -> DeleteSet {
        let mut out = DeleteSet::new(end - start);
        for local in start..end {
            if self.is_deleted(local) {
                out.delete(local - start);
            }
        }
        out
    }

    /// Iterate the tombstoned local node ids in ascending order, a bitmap
    /// word at a time: the cost is the words plus the tombstones, not one
    /// test per slot.
    pub fn iter_deleted(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                Some(rest & (rest - 1)).filter(|&r| r != 0)
            })
            .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// The raw bitmap words (for persistence; `len` words cover
    /// [`Self::len`] slots, trailing bits zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a bitmap from persisted parts.
    ///
    /// Returns `None` when the parts are inconsistent (wrong word count,
    /// set bits past `len`, or a popcount that disagrees with `deleted`) —
    /// persistence treats that as corruption, never as a panic.
    pub fn from_parts(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if let Some(&last) = words.last() {
            let used = len - (words.len() - 1) * 64;
            if used < 64 && last >> used != 0 {
                return None;
            }
        }
        let deleted = words.iter().map(|w| w.count_ones() as usize).sum();
        Some(DeleteSet {
            words,
            len,
            deleted,
        })
    }
}

/// One sealed, immutable segment: a local corpus, its inverted index, and
/// the global node ids its local ids map to.
#[derive(Clone, Debug)]
pub struct SegmentData {
    id: u64,
    corpus: Corpus,
    index: InvertedIndex,
    /// `globals[local]` is the global node id of local node `local`;
    /// strictly ascending (segments own disjoint, ordered global ranges).
    globals: Vec<u32>,
    /// The token with the longest posting list, found on first use and
    /// kept (see [`Self::hottest_token`]).
    hottest: OnceLock<Option<TokenId>>,
}

impl SegmentData {
    /// Seal a corpus (local node ids `0..n`) into a segment.
    ///
    /// # Panics
    /// Panics if `globals` is not strictly ascending or disagrees with the
    /// corpus length — both would corrupt the global id space silently.
    pub fn seal(id: u64, corpus: Corpus, globals: Vec<u32>) -> Self {
        assert_eq!(globals.len(), corpus.len(), "one global id per document");
        assert!(
            globals.windows(2).all(|w| w[0] < w[1]),
            "global ids must be strictly ascending"
        );
        let index = IndexBuilder::new().build(&corpus);
        SegmentData {
            id,
            corpus,
            index,
            globals,
            hottest: OnceLock::new(),
        }
    }

    /// Reassemble a segment from persisted parts, trusting the caller (the
    /// manifest decoder) to have validated corpus/index agreement. The
    /// ascending-globals invariant is still enforced here.
    pub(crate) fn from_parts(
        id: u64,
        corpus: Corpus,
        globals: Vec<u32>,
        index: InvertedIndex,
    ) -> Self {
        assert_eq!(globals.len(), corpus.len(), "one global id per document");
        assert!(
            globals.windows(2).all(|w| w[0] < w[1]),
            "global ids must be strictly ascending"
        );
        SegmentData {
            id,
            corpus,
            index,
            globals,
            hottest: OnceLock::new(),
        }
    }

    /// The segment's identity (unique within one live index; merge commits
    /// locate their inputs by it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The per-segment corpus (local node ids). Its shared vocabulary may
    /// be wider than the index's [`InvertedIndex::num_tokens`].
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The per-segment inverted index (local node ids).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Number of documents sealed into the segment (including tombstoned
    /// ones — tombstones live outside the immutable data).
    pub fn num_docs(&self) -> usize {
        self.globals.len()
    }

    /// The global node id of a local node.
    pub fn global_of(&self, local: usize) -> NodeId {
        NodeId(self.globals[local])
    }

    /// The local node id holding `global`, if this segment owns it.
    pub fn local_of(&self, global: NodeId) -> Option<usize> {
        self.globals.binary_search(&global.0).ok()
    }

    /// The global id range `[first, last]` this segment covers (`None` when
    /// empty). Ranges of distinct segments never overlap.
    pub fn global_range(&self) -> Option<(u32, u32)> {
        Some((*self.globals.first()?, *self.globals.last()?))
    }

    /// All `(local, global)` pairs in ascending order.
    pub fn globals(&self) -> &[u32] {
        &self.globals
    }

    /// The document at a local node id.
    pub fn document(&self, local: usize) -> &Document {
        self.corpus.document(NodeId(local as u32))
    }

    /// The token with the highest document frequency, the last one on ties
    /// (`None` for an empty vocabulary) — the list the merge policy's cost
    /// probe walks. Scanned once per segment, on first use, so the merge
    /// policy does not rescan every vocabulary on every call and write
    /// buffer chunks, which it never probes, do not pay for it.
    pub(crate) fn hottest_token(&self) -> Option<TokenId> {
        *self.hottest.get_or_init(|| {
            (0..self.index.num_tokens())
                .map(|t| TokenId(t as u32))
                .max_by_key(|&t| self.index.df(t))
        })
    }
}

/// The mutable in-memory write buffer: documents accumulate here between
/// flushes. Its corpus holds the live index's one vocabulary and every
/// segment it seals shares it, which keeps token ids prefix-consistent
/// across the whole live index.
#[derive(Clone, Debug)]
pub struct MemSegment {
    corpus: Corpus,
    globals: Vec<u32>,
}

impl MemSegment {
    /// An empty buffer continuing from an existing vocabulary.
    pub fn new(vocabulary: Arc<TokenInterner>) -> Self {
        MemSegment {
            corpus: Corpus::with_interner(vocabulary),
            globals: Vec::new(),
        }
    }

    /// Tokenize and append one document under global id `global`.
    pub fn add(&mut self, tokenizer: &Tokenizer, text: &str, global: u32) {
        debug_assert!(self.globals.last().is_none_or(|&g| g < global));
        self.corpus.add_text_with(tokenizer, text);
        self.globals.push(global);
    }

    /// Number of buffered documents.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// True iff nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// The local slot of `global`, if buffered here.
    pub fn local_of(&self, global: NodeId) -> Option<usize> {
        self.globals.binary_search(&global.0).ok()
    }

    /// The buffered corpus (which owns the live vocabulary).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Seal buffer slots `from..` into a [`SegmentData`] under segment id
    /// `id`, sharing the current vocabulary, leaving the buffer itself
    /// untouched (the caller decides whether this is a flush or a chunk of
    /// a point-in-time read view).
    pub fn seal_from(&self, id: u64, from: usize) -> SegmentData {
        let mut corpus = Corpus::with_interner(Arc::clone(self.corpus.interner()));
        for doc in &self.corpus.documents()[from..] {
            corpus.add_tokens(doc.label.clone(), doc.tokens.clone());
        }
        SegmentData::seal(id, corpus, self.globals[from..].to_vec())
    }

    /// Drain the buffer: return its contents and reset it to an empty
    /// corpus that shares the (grown) vocabulary.
    pub fn drain(&mut self) -> (Corpus, Vec<u32>) {
        let empty = MemSegment::new(Arc::clone(self.corpus.interner()));
        let MemSegment { corpus, globals } = std::mem::replace(self, empty);
        (corpus, globals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_set_marks_counts_and_iterates() {
        let mut d = DeleteSet::new(130);
        assert_eq!(d.len(), 130);
        assert_eq!(d.live_count(), 130);
        assert!(d.delete(0));
        assert!(d.delete(129));
        assert!(d.delete(64));
        assert!(!d.delete(64), "double delete is reported");
        assert!(!d.delete(500), "out of range is reported");
        assert!(d.is_deleted(129) && d.is_live(1));
        assert_eq!(d.deleted_count(), 3);
        assert_eq!(d.live_count(), 127);
        assert_eq!(d.iter_deleted().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn iter_deleted_walks_the_set_bits_as_the_slot_filter_does() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in [0, 1, 63, 64, 65, 128, 200, 1_000] {
            // Densities from none through about half to every slot.
            for keep in [0u64, 1, 8, 32, 64] {
                let mut d = DeleteSet::new(len);
                for local in 0..len {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 64 < keep {
                        d.delete(local);
                    }
                }
                let by_slot: Vec<usize> = (0..len).filter(|&i| d.is_deleted(i)).collect();
                assert_eq!(d.iter_deleted().collect::<Vec<_>>(), by_slot, "len {len}");
                assert_eq!(by_slot.len(), d.deleted_count());
            }
        }
    }

    #[test]
    fn delete_set_roundtrips_through_parts() {
        let mut d = DeleteSet::new(70);
        d.delete(3);
        d.delete(69);
        let back = DeleteSet::from_parts(d.words().to_vec(), d.len()).unwrap();
        assert_eq!(back, d);
        // Wrong word count and stray high bits are rejected.
        assert!(DeleteSet::from_parts(vec![0], 70).is_none());
        assert!(DeleteSet::from_parts(vec![0, 1 << 63], 70).is_none());
    }

    #[test]
    fn segment_maps_locals_to_globals() {
        let corpus = Corpus::from_texts(&["a b", "b c", "c"]);
        let seg = SegmentData::seal(7, corpus, vec![10, 12, 40]);
        assert_eq!(seg.id(), 7);
        assert_eq!(seg.num_docs(), 3);
        assert_eq!(seg.global_of(1), NodeId(12));
        assert_eq!(seg.local_of(NodeId(40)), Some(2));
        assert_eq!(seg.local_of(NodeId(11)), None);
        assert_eq!(seg.global_range(), Some((10, 40)));
    }

    #[test]
    fn hottest_token_is_the_last_maximum_of_a_full_scan() {
        // "b" and "c" tie at df 3; "a" (df 2) comes first, "d" (df 1) last.
        let corpus = Corpus::from_texts(&["a b c", "b c d", "a b c"]);
        let seg = SegmentData::seal(0, corpus, vec![0, 1, 2]);
        let index = seg.index();
        let scan = (0..index.num_tokens())
            .map(|t| TokenId(t as u32))
            .max_by_key(|&t| index.df(t));
        assert_eq!(seg.hottest_token(), scan);
        assert_eq!(seg.hottest_token(), seg.corpus().token_id("c"));
        let empty = SegmentData::seal(1, Corpus::new(), Vec::new());
        assert_eq!(empty.hottest_token(), None);
    }

    #[test]
    fn delete_set_slices_renumber_from_zero() {
        let mut d = DeleteSet::new(130);
        for i in [3, 64, 100, 129] {
            d.delete(i);
        }
        let s = d.slice(64, 130);
        assert_eq!(s.len(), 66);
        assert_eq!(s.iter_deleted().collect::<Vec<_>>(), vec![0, 36, 65]);
        assert_eq!(d.slice(0, 130), d);
        assert_eq!(d.slice(4, 64).deleted_count(), 0);
    }

    #[test]
    fn mem_segment_buffers_and_drains_keeping_vocabulary() {
        let mut mem = MemSegment::new(Default::default());
        let tok = Tokenizer::new();
        mem.add(&tok, "alpha beta", 0);
        mem.add(&tok, "beta gamma", 1);
        assert_eq!(mem.len(), 2);
        assert_eq!(mem.local_of(NodeId(1)), Some(1));
        let view = mem.seal_from(99, 0);
        assert_eq!(view.num_docs(), 2);
        let tail = mem.seal_from(99, 1);
        assert_eq!(tail.globals(), &[1]);
        assert_eq!(tail.document(0).label, mem.corpus().documents()[1].label);
        assert!(
            tail.corpus().token_id("alpha").is_some(),
            "whole vocabulary"
        );
        let (corpus, globals) = mem.drain();
        assert_eq!(globals, vec![0, 1]);
        assert_eq!(corpus.len(), 2);
        assert!(mem.is_empty());
        // The drained-out buffer keeps the vocabulary it grew.
        assert!(mem.corpus().token_id("gamma").is_some());
    }
}
