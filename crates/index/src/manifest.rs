//! Manifest persistence for live, segmented indexes — format **v8**.
//!
//! A [`crate::live::LiveIndex`] is more than one inverted index: it is a
//! *segment set* (each segment an ordinary v7 index image over a local
//! corpus), the tombstone bitmaps, the global-id maps, and the shared
//! vocabulary. The manifest records all of it in one buffer so a
//! multi-segment index reloads bit-identically — same segments, same
//! tombstones, same global ids, same vocabulary prefixes.
//!
//! ## Format versioning
//!
//! The manifest continues the version line of [`crate::persist`]: same
//! `"FTSI"` magic, version **8** (v4 was the manifest built on v3 varint
//! segment images; v6 embedded the bit-packed v5 images; v8 embeds v7
//! images, whose optional-section table carries the word-pair auxiliary
//! index). v8 is the only loadable generation: v1–v7 (bare-index formats
//! and the retired v4/v6 manifests) and unknown versions are rejected
//! loudly with [`PersistError::BadVersion`] — regenerate from the corpus —
//! and, symmetrically, the bare-index decoder rejects a manifest the same
//! way. Neither ever panics on foreign bytes.
//!
//! Layout of a v8 buffer (integers little-endian):
//!
//! ```text
//! magic:u32  version:u32  next_global:u32  next_segment_id:u64
//! num_segments:u32
//! per segment (ascending, disjoint global ranges):
//!   id:u64  num_docs:u32
//!   num_docs × global:u32                     (strictly ascending)
//!   num_words:u32  num_words × word:u64       (tombstone bitmap)
//!   vocab_len:u32                             (the image's token-list count)
//!   per doc: label_len:u32 label:[u8]
//!            num_tokens:u32
//!            num_tokens × (token:u32 offset:u32 sentence:u32 paragraph:u32)
//!   index_len:u32  index:[u8]                 (a v7 image, persist::decode)
//! vocab_total:u32  per token: len:u32 name:[u8]   (shared vocabulary)
//! ```
//!
//! Segments store only their vocabulary *prefix length* (their image's
//! token-list count): token ids are prefix-consistent across segments (see
//! [`crate::live`]), so the one name table at the end, interned once, is the
//! vocabulary every decoded segment shares. [`encode`] writes each segment's
//! image into the manifest's one buffer and patches `index_len` behind it;
//! decoding reads labels, names and images where they lie.
//!
//! [`save`] writes atomically: the buffer goes to a sibling temp file that
//! is persisted with a single `rename`, so a crash mid-write leaves either
//! the old manifest or the new one, never a torn hybrid.

use crate::live::{LiveConfig, LiveIndex, SealedParts, SnapshotSegment};
use crate::persist::{
    self, begin_len, end_len, get_bytes, get_count, get_header, get_u32, get_u64, put_header,
    put_u32, put_u64, PersistError,
};
use crate::segment::{DeleteSet, SegmentData};
use ftsl_model::{Corpus, Position, TokenId, TokenInterner};
use std::path::Path;
use std::sync::Arc;

const VERSION: u32 = 8;
/// Fewest bytes one encoded segment can occupy: `id`, `num_docs`,
/// `num_words`, `vocab_len`, `index_len`.
const SEGMENT_MIN_BYTES: usize = 8 + 4 * 4;

/// Serialize a live index to a v8 manifest buffer. The write buffer is
/// flushed first, so the image covers every document added so far.
/// The image is sized first, so its buffer is reserved once and handed
/// back full.
pub fn encode(live: &LiveIndex) -> Vec<u8> {
    let parts = live.sealed_parts();
    let segments = parts.sealed.iter().map(segment_len).sum::<usize>();
    let names = parts.vocabulary.iter().map(|(_, name)| 4 + name.len());
    // Header, next global id, next segment id, the segments, then the
    // vocabulary.
    let len = 8 + 4 + 8 + 4 + segments + 4 + names.sum::<usize>();
    let mut buf = Vec::with_capacity(len);
    put_header(&mut buf, VERSION);
    put_u32(&mut buf, parts.next_global);
    put_u64(&mut buf, parts.next_segment_id);
    put_u32(&mut buf, parts.sealed.len() as u32);
    for entry in &parts.sealed {
        encode_segment(&mut buf, entry);
    }
    put_u32(&mut buf, parts.vocabulary.len() as u32);
    for (_, name) in parts.vocabulary.iter() {
        put_str(&mut buf, name);
    }
    debug_assert_eq!(buf.len(), buf.capacity(), "the image was sized exactly");
    buf
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bytes of the record [`encode_segment`] writes for `entry`.
fn segment_len(entry: &SnapshotSegment) -> usize {
    let data = &entry.data;
    let docs = data.corpus().documents().iter();
    let docs = docs.map(|doc| 4 + doc.label.len() + 4 + 16 * doc.tokens.len());
    8 + 4
        + 4 * data.globals().len()
        + 4
        + 8 * entry.deletes.words().len()
        + 4
        + docs.sum::<usize>()
        + 4
        + persist::encoded_len(data.index())
}

/// Write one segment; its index image goes straight into `buf`, behind a
/// length word patched afterwards.
fn encode_segment(buf: &mut Vec<u8>, entry: &SnapshotSegment) {
    let data = &entry.data;
    put_u64(buf, data.id());
    put_u32(buf, data.num_docs() as u32);
    for &g in data.globals() {
        put_u32(buf, g);
    }
    let words = entry.deletes.words();
    put_u32(buf, words.len() as u32);
    for &w in words {
        put_u64(buf, w);
    }
    put_u32(buf, data.index().num_tokens() as u32);
    for doc in data.corpus().documents() {
        put_str(buf, &doc.label);
        put_u32(buf, doc.tokens.len() as u32);
        for &(t, p) in &doc.tokens {
            for word in [t.0, p.offset, p.sentence, p.paragraph] {
                put_u32(buf, word);
            }
        }
    }
    let len_at = begin_len(buf);
    persist::encode_into(buf, data.index());
    end_len(buf, len_at);
}

/// Deserialize a v8 manifest with default [`LiveConfig`].
pub fn decode(image: impl AsRef<[u8]>) -> Result<LiveIndex, PersistError> {
    decode_with(image, LiveConfig::default())
}

/// Deserialize a v8 manifest into a live index with explicit
/// configuration. v1–v7 buffers (bare-index formats and the retired v4/v6
/// manifests) and unknown versions are rejected with
/// [`PersistError::BadVersion`]; structural lies (non-ascending global
/// ids, bitmap/corpus disagreements, out-of-range token ids) with
/// [`PersistError::Corrupt`]. Never panics on foreign bytes.
pub fn decode_with(image: impl AsRef<[u8]>, config: LiveConfig) -> Result<LiveIndex, PersistError> {
    let buf = &mut image.as_ref();
    get_header(buf, VERSION)?;
    let next_global = get_u32(buf)?;
    let next_segment_id = get_u64(buf)?;
    let num_segments = get_count(buf, SEGMENT_MIN_BYTES)?;
    let mut raw: Vec<RawSegment> = Vec::with_capacity(num_segments);
    for _ in 0..num_segments {
        raw.push(decode_segment(buf)?);
    }
    // Each name is at least its length word.
    let vocab_total = get_count(buf, 4)?;
    let mut vocabulary = TokenInterner::new();
    for _ in 0..vocab_total {
        vocabulary.intern(get_str(buf)?);
    }
    if vocabulary.len() != vocab_total {
        return Err(PersistError::Corrupt("vocabulary names not distinct"));
    }
    let vocabulary = Arc::new(vocabulary);

    let mut sealed = Vec::with_capacity(num_segments);
    let mut prev_last: Option<u32> = None;
    for seg in raw {
        let entry = seg.into_entry(&vocabulary, next_global)?;
        if let Some((first, last)) = entry.data.global_range() {
            if prev_last.is_some_and(|p| first <= p) {
                return Err(PersistError::Corrupt("segment global ranges overlap"));
            }
            prev_last = Some(last);
        }
        sealed.push(entry);
    }
    let parts = SealedParts {
        sealed,
        vocabulary,
        next_global,
        next_segment_id,
    };
    Ok(LiveIndex::from_sealed_parts(parts, config))
}

/// A segment as read off the wire, before vocabulary reconstruction: its
/// labels and index image are where they lie in the manifest.
struct RawSegment<'a> {
    id: u64,
    globals: Vec<u32>,
    delete_words: Vec<u64>,
    vocab_len: usize,
    docs: Vec<(&'a str, Vec<(TokenId, Position)>)>,
    index_image: &'a [u8],
}

impl RawSegment<'_> {
    fn into_entry(
        self,
        vocabulary: &Arc<TokenInterner>,
        next_global: u32,
    ) -> Result<SnapshotSegment, PersistError> {
        if self.globals.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PersistError::Corrupt("global ids not ascending"));
        }
        if self.globals.last().is_some_and(|&g| g >= next_global) {
            return Err(PersistError::Corrupt("global id past the high-water mark"));
        }
        if self.vocab_len > vocabulary.len() {
            return Err(PersistError::Corrupt("segment vocabulary exceeds table"));
        }
        let deletes = DeleteSet::from_parts(self.delete_words, self.globals.len())
            .ok_or(PersistError::Corrupt("tombstone bitmap malformed"))?;
        let mut corpus = Corpus::with_interner(Arc::clone(vocabulary));
        for (label, tokens) in self.docs {
            if tokens.windows(2).any(|w| w[0].1.offset >= w[1].1.offset) {
                return Err(PersistError::Corrupt("document offsets not increasing"));
            }
            if tokens.iter().any(|&(t, _)| t.index() >= self.vocab_len) {
                return Err(PersistError::Corrupt("token id outside segment vocabulary"));
            }
            corpus.add_tokens(label, tokens);
        }
        if corpus.len() != self.globals.len() {
            return Err(PersistError::Corrupt("document count disagrees with ids"));
        }
        let index = persist::decode(self.index_image)?;
        if index.num_tokens() != self.vocab_len {
            return Err(PersistError::Corrupt("vocab_len disagrees with index"));
        }
        if index.any_block_list().num_entries() > corpus.len() {
            return Err(PersistError::Corrupt("segment index disagrees with corpus"));
        }
        Ok(SnapshotSegment {
            data: Arc::new(SegmentData::from_parts(
                self.id,
                corpus,
                self.globals,
                index,
            )),
            deletes: Arc::new(deletes),
        })
    }
}

fn decode_segment<'a>(buf: &mut &'a [u8]) -> Result<RawSegment<'a>, PersistError> {
    let id = get_u64(buf)?;
    // Each document has a 4-byte global id.
    let num_docs = get_count(buf, 4)?;
    let mut globals = Vec::with_capacity(num_docs);
    for _ in 0..num_docs {
        globals.push(get_u32(buf)?);
    }
    let num_words = get_count(buf, 8)?;
    let mut delete_words = Vec::with_capacity(num_words);
    for _ in 0..num_words {
        delete_words.push(get_u64(buf)?);
    }
    let vocab_len = get_u32(buf)? as usize;
    let mut docs = Vec::with_capacity(num_docs);
    for _ in 0..num_docs {
        let label = get_str(buf)?;
        let num_tokens = get_count(buf, 16)?;
        let mut tokens = Vec::with_capacity(num_tokens);
        for _ in 0..num_tokens {
            let t = TokenId(get_u32(buf)?);
            let offset = get_u32(buf)?;
            let sentence = get_u32(buf)?;
            let paragraph = get_u32(buf)?;
            tokens.push((t, Position::new(offset, sentence, paragraph)));
        }
        docs.push((label, tokens));
    }
    let index_len = get_u32(buf)? as usize;
    let index_image = get_bytes(buf, index_len)?;
    Ok(RawSegment {
        id,
        globals,
        delete_words,
        vocab_len,
        docs,
        index_image,
    })
}

/// Write a manifest to `path` atomically: encode, write and **fsync** a
/// sibling `<path>.tmp`, `rename` into place, then fsync the parent
/// directory (best-effort on platforms where directories can't be
/// opened). Without the fsyncs the rename could reach disk before the
/// data blocks, leaving a truncated file under the final name after a
/// crash — exactly the torn state atomicity is supposed to rule out.
pub fn save(live: &LiveIndex, path: &Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let bytes = encode(live);
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load a manifest previously written by [`save`].
pub fn load(path: &Path, config: LiveConfig) -> Result<LiveIndex, LoadError> {
    let bytes = std::fs::read(path).map_err(LoadError::Io)?;
    decode_with(&bytes[..], config).map_err(LoadError::Persist)
}

/// Errors from [`load`]: the file was unreadable, or its contents were.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The bytes were not a valid manifest.
    Persist(PersistError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "manifest io: {e}"),
            LoadError::Persist(e) => write!(f, "manifest decode: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, PersistError> {
    let len = get_u32(buf)? as usize;
    std::str::from_utf8(get_bytes(buf, len)?).map_err(|_| PersistError::Corrupt("label not utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_model::NodeId;

    fn sample_live() -> LiveIndex {
        let live = LiveIndex::with_config(LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        });
        live.add_document("usability of a software measures");
        live.add_document("software testing tools");
        live.flush();
        live.add_document("task completion experiment");
        live.add_document("usability by task completion");
        live.flush();
        live.delete_node(NodeId(1));
        live.add_document("buffered document, flushed by encode");
        live
    }

    fn assert_same(live: &LiveIndex, back: &LiveIndex) {
        let a = live.snapshot();
        let b = back.snapshot();
        assert_eq!(a.num_segments(), b.num_segments());
        assert_eq!(a.live_doc_count(), b.live_doc_count());
        assert_eq!(a.tombstone_count(), b.tombstone_count());
        assert!(a.vocabulary().iter().eq(b.vocabulary().iter()));
        for (sa, sb) in a.segments().iter().zip(b.segments()) {
            assert_eq!(sa.data().id(), sb.data().id());
            assert_eq!(sa.data().globals(), sb.data().globals());
            assert_eq!(sa.deletes(), sb.deletes());
            let (ca, cb) = (sa.data().corpus(), sb.data().corpus());
            assert_eq!(ca.len(), cb.len());
            for (da, db) in ca.documents().iter().zip(cb.documents()) {
                assert_eq!(da.label, db.label);
                assert_eq!(da.tokens, db.tokens);
            }
            // Index images bit-identical.
            assert_eq!(
                persist::encode(sa.data().index()),
                persist::encode(sb.data().index())
            );
        }
    }

    #[test]
    fn multi_segment_roundtrip_is_bit_identical() {
        let live = sample_live();
        let bytes = encode(&live);
        // No background merger: it could compact the half-tombstoned
        // segment between the decode and the re-encode below.
        let back = decode_with(
            bytes.clone(),
            LiveConfig {
                background_merge: false,
                ..LiveConfig::default()
            },
        )
        .expect("decode");
        assert_same(&live, &back);
        // Encoding the reloaded index reproduces the same bytes.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn reloaded_index_keeps_accepting_writes() {
        let live = sample_live();
        let back = decode(encode(&live)).expect("decode");
        let n = back.add_document("a brand new document");
        assert_eq!(n.0 as usize, 5, "global ids continue past the manifest");
        assert!(back.delete_node(NodeId(0)));
        // Vocabulary continuity: an old token resolves to its old id.
        let snap = back.snapshot();
        assert!(snap.vocabulary().get("usability").is_some());
    }

    /// One row per rule on the shared name table and the per-segment
    /// `vocab_len`: each lie is `Corrupt`, never a panic.
    #[test]
    fn vocabulary_table_lies_are_corrupt() {
        let live = sample_live();
        let (bytes, snap) = (encode(&live), live.snapshot());
        let vocab_total = snap.vocabulary().len() as u32;
        let names: usize = snap.vocabulary().iter().map(|(_, n)| 4 + n.len()).sum();
        let table_at = bytes.len() - names - 4;
        // Segment 0's `vocab_len` follows the header, its id, `num_docs`,
        // two global ids and one tombstone word.
        let vocab_len_at = 24 + 8 + 4 + 2 * 4 + 4 + 8;
        let vocab_len = snap.segments()[0].data().index().num_tokens() as u32;
        let patched = |at: usize, v: u32, tail: &[u8]| {
            let mut raw = bytes.clone();
            raw[at..at + 4].copy_from_slice(&v.to_le_bytes());
            raw.extend_from_slice(tail);
            raw
        };
        let repeated = [&9u32.to_le_bytes()[..], b"usability"].concat();
        let rows = [
            // A name repeated past every segment's prefix.
            (
                patched(table_at, vocab_total + 1, &repeated),
                "vocabulary names not distinct",
            ),
            (
                patched(vocab_len_at, vocab_len + 1, &[]),
                "vocab_len disagrees with index",
            ),
            (
                patched(vocab_len_at, vocab_total + 1, &[]),
                "segment vocabulary exceeds table",
            ),
        ];
        for (raw, want) in rows {
            assert_eq!(decode(&raw[..]).unwrap_err(), PersistError::Corrupt(want));
        }
    }

    #[test]
    fn bare_index_versions_are_rejected() {
        for v in [1u32, 2, 3, 4, 5, 6, 7, 99] {
            let mut buf = Vec::new();
            put_header(&mut buf, v);
            assert!(
                matches!(decode(buf), Err(PersistError::BadVersion(got)) if got == v),
                "version {v} must be rejected"
            );
        }
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xbad_f00d);
        put_u32(&mut buf, VERSION);
        assert!(matches!(decode(buf), Err(PersistError::BadMagic(_))));
    }

    #[test]
    fn persist_decode_rejects_a_manifest_buffer() {
        let bytes = encode(&sample_live());
        assert!(matches!(
            persist::decode(bytes),
            Err(PersistError::BadVersion(8))
        ));
    }

    #[test]
    fn legacy_v6_manifests_are_rejected() {
        // v6 shares v8's outer layout (only the embedded images differ), so
        // an old manifest is a current buffer with the version rewound.
        let mut raw = encode(&sample_live());
        raw[4..8].copy_from_slice(&6u32.to_le_bytes());
        assert!(matches!(decode(&raw[..]), Err(PersistError::BadVersion(6))));
    }

    #[test]
    fn oversized_num_segments_is_an_error_not_an_allocation() {
        let mut raw = encode(&sample_live());
        // num_segments follows magic, version, next_global, next_segment_id.
        raw[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&raw[..]).unwrap_err(), PersistError::Truncated);
    }

    #[test]
    fn oversized_vocab_total_is_an_error_not_an_allocation() {
        let live = sample_live();
        let mut raw = encode(&live);
        // vocab_total precedes the name table that ends the buffer.
        let snapshot = live.snapshot();
        let names: usize = snapshot
            .vocabulary()
            .iter()
            .map(|(_, name)| 4 + name.len())
            .sum();
        let at = raw.len() - names - 4;
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&raw[..]).unwrap_err(), PersistError::Truncated);
    }

    #[test]
    fn truncations_and_bitflips_never_panic() {
        let bytes = encode(&sample_live());
        for cut in [0, 3, 9, bytes.len() / 3, bytes.len() - 1] {
            let sliced = &bytes[..cut];
            assert!(decode(sliced).is_err(), "cut at {cut} must error");
        }
        // Flip one byte at a time across a sample of offsets; decoding may
        // succeed (a label byte) but must never panic.
        for i in (8..bytes.len()).step_by(7) {
            let mut raw = bytes.to_vec();
            raw[i] ^= 0x5a;
            let _ = decode(&raw[..]);
        }
    }

    #[test]
    fn empty_live_index_roundtrips() {
        let live = LiveIndex::with_config(LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        });
        let back = decode(encode(&live)).expect("decode");
        assert_eq!(back.snapshot().num_segments(), 0);
        let n = back.add_document("first");
        assert_eq!(n, NodeId(0));
    }

    #[test]
    fn save_and_load_are_atomic_rename() {
        let live = sample_live();
        let dir = std::env::temp_dir().join("ftsl-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.ftsm");
        save(&live, &path).expect("save");
        assert!(!path.with_extension("tmp").exists(), "temp file renamed");
        let back = load(
            &path,
            LiveConfig {
                background_merge: false,
                ..LiveConfig::default()
            },
        )
        .expect("load");
        assert_same(&live, &back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
