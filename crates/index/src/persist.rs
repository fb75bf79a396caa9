//! Binary persistence for inverted indexes.
//!
//! A small hand-rolled little-endian codec, the one persisted form: the
//! data types derive no serialization of their own, and the workspace
//! depends on no serialization crate. [`encode`] writes one image into
//! one `Vec<u8>`; [`decode`] reads a borrowed `&[u8]` in place, through
//! checked reads that return [`PersistError::Truncated`] past its end.
//!
//! ## Format versioning
//!
//! Every buffer starts with the magic number `"FTSI"` and a format version;
//! decoding rejects unknown magics and versions loudly
//! ([`PersistError::BadMagic`] / [`PersistError::BadVersion`]) rather than
//! silently misparsing.
//!
//! * **v1** (retired): decoded posting lists as raw `(node, positions[])`
//!   u32 triples — roughly 12 bytes per position.
//! * **v2** (retired): the block-compressed layout with plain skip headers
//!   (`max_node`, `byte_start`, `first_entry`).
//! * **v3** (retired): v2's layout with per-block *impact metadata*
//!   (`max_tf` in each block header).
//! * **v4** (retired): the live-index *manifest* built on v3 segment
//!   images — see [`crate::manifest`], whose current format is **v8**
//!   (v6 retired). Version numbers are shared across the bare-index and
//!   manifest lineages precisely so that a buffer's version field
//!   identifies its format unambiguously; [`decode`] therefore rejects 6
//!   and 8 (manifest formats) with `BadVersion`, never misparsing.
//! * **v5** (retired): v3's outer structure, but each list's data stream
//!   holds the **bit-packed frame-of-reference block encoding** of
//!   [`crate::block`]: per block, an absolute base id, three frame widths,
//!   and three fixed-width [`crate::bitpack`] frames (id deltas, `tf − 1`,
//!   position-payload byte lengths) followed by the varint position
//!   payloads.
//! * **v7** (current, the only loadable one): v5's lists followed by a
//!   table of **optional sections** — each a `(section_id, byte_len)`
//!   header plus payload. Section id 1 is the word-pair auxiliary index
//!   ([`crate::pair::PairIndex`]); readers reject *unknown* section ids
//!   loudly with `Corrupt(..)` rather than skipping data they cannot
//!   audit. Each stored token list's headers and bytes are exactly one
//!   list of the segment's resident posting arena
//!   ([`crate::block::PostingArena`]), which holds them back to back: on
//!   load every list record is appended to the arena as it stands and kept
//!   only once the fallible block decoder
//!   ([`crate::block::BlockList::validate`]) has re-checked every
//!   structural invariant; it is then served from those same bytes, and
//!   the encoder writes each list view back as its record. The pair
//!   section is stored the same way, one list per key, while a segment
//!   keeps all of them in one arena ([`crate::pair`]) — on load the
//!   section's records are walked where they lie once for the arena's
//!   shape (key and block counts, largest node), then each is validated
//!   and appended to the arena, and the encoder packs each list back into
//!   its stored form, so images do not change. Decoding reserves nothing
//!   from a count the remaining bytes have not bounded, grows each arena
//!   by amortized doubling, not per list, and walks every pair key through
//!   one reused entries buffer. v1–v6 buffers are rejected with
//!   `BadVersion(..)`; there is no migration path because older images
//!   can be regenerated from their corpora.
//!
//! Layout of a v7 buffer (all integers little-endian):
//!
//! ```text
//! magic:u32  version:u32  stats:5×u64  num_token_lists:u32
//! then per list (token lists in id order, IL_ANY last):
//!   entries:u32  positions:u64  num_blocks:u32
//!   num_blocks × (max_node:u32 byte_start:u32 first_entry:u32 max_tf:u32)
//!   data_len:u32  data:[u8]          (v5 block encoding, see docs/FORMAT.md)
//! num_sections:u32
//! per section: section_id:u32  byte_len:u32  payload:[u8]
//! ```
//!
//! The pair-index section payload (section id 1):
//!
//! ```text
//! window:u32  df_cutoff:u32
//! vocab:u32  coverage bitmap: ⌈vocab/8⌉ bytes (bit t ⇔ df(t) ≥ cutoff)
//! num_keys:u32
//! per key (keys strictly increasing lexicographically):
//!   token_a:u32  token_b:u32  entries:u32  num_blocks:u32
//!   num_blocks × (max_node:u32 byte_start:u32 first_entry:u32 min_gap:u32)
//!   data_len:u32  data:[u8]          (pair block encoding, see FORMAT.md)
//! ```

use crate::bitrows::BitRows;
use crate::block::{BlockList, BlockMeta, PostingArenaWriter, BLOCK_ENTRIES};
use crate::cursor::BlockHeader;
use crate::frame;
use crate::index::InvertedIndex;
use crate::pair::{pack_block, ArenaShape, PairArenaWriter, PairBlock, PairConfig, PairIndex};
use crate::stats::IndexStats;
use ftsl_model::NodeId;

/// `"FTSI"`, shared with the manifest lineage ([`crate::manifest`]).
const MAGIC: u32 = 0x4654_5349;
const VERSION: u32 = 7;
/// Optional-section id of the word-pair auxiliary index.
const SECTION_PAIRS: u32 = 1;

/// Errors produced when decoding a persisted index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer does not start with the expected magic number.
    BadMagic(u32),
    /// The format version is unsupported.
    BadVersion(u32),
    /// The buffer ended before decoding completed.
    Truncated,
    /// Structurally invalid contents (counts that contradict the payload).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic(m) => write!(f, "bad index magic 0x{m:08x}"),
            PersistError::BadVersion(v) => write!(f, "unsupported index version {v}"),
            PersistError::Truncated => write!(f, "truncated index buffer"),
            PersistError::Corrupt(what) => write!(f, "corrupt index buffer: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize an index to a byte buffer (format v7: bit-packed
/// frame-of-reference blocks with per-block skip/impact headers, followed
/// by the optional-section table).
pub fn encode(index: &InvertedIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(&mut buf, index);
    buf
}

/// Append `index`'s image to `buf`.
pub(crate) fn encode_into(buf: &mut Vec<u8>, index: &InvertedIndex) {
    put_header(buf, VERSION);
    let s = index.stats();
    for v in [
        s.cnodes,
        s.pos_per_cnode,
        s.entries_per_token,
        s.pos_per_entry,
        s.vocabulary,
    ] {
        put_u64(buf, v as u64);
    }
    // The arena holds the token lists in id order, then `IL_ANY`: the
    // order of the image's list records (the default index's empty arena
    // reads as one empty `IL_ANY`).
    put_u32(buf, index.num_tokens() as u32);
    for i in 0..=index.num_tokens() {
        encode_list(buf, index.lists.list(i));
    }
    encode_sections(buf, index.pairs());
}

/// Write the optional-section table. A disabled pair index writes an empty
/// table rather than an empty section, so each index has one byte image.
fn encode_sections(buf: &mut Vec<u8>, pairs: &PairIndex) {
    if pairs.config().window == 0 {
        put_u32(buf, 0);
        return;
    }
    put_u32(buf, 1);
    put_u32(buf, SECTION_PAIRS);
    let len_at = begin_len(buf);
    let (vocab, frequent) = pairs.coverage();
    let config = pairs.config();
    put_u32(buf, config.window);
    put_u32(buf, config.df_cutoff);
    put_u32(buf, vocab as u32);
    // The resident bitmap's packed bytes are the stored ones.
    buf.extend_from_slice(frequent);
    put_u32(buf, pairs.num_keys() as u32);
    // One entries buffer, reused from key to key.
    let mut entries = Vec::new();
    for (a, b, list) in pairs.iter() {
        entries.clear();
        list.append_entries(&mut entries);
        put_pair_list(buf, (a.0, b.0), &entries);
    }
    end_len(buf, len_at);
}

/// Write key `(a, b)`'s `<pair list>` record of `(node, gap)` entries
/// (strictly increasing node ids, every gap ≥ 1): per-list block headers
/// and a per-list packed stream in which every block, one-entry blocks
/// included, has its bytes. The headers are patched in once each block is
/// packed behind them. Persistence-only — the resident form is the
/// segment's arena ([`crate::pair`]).
fn put_pair_list(buf: &mut Vec<u8>, (a, b): (u32, u32), entries: &[(u32, u32)]) {
    let num_blocks = entries.len().div_ceil(BLOCK_ENTRIES);
    for word in [a, b, entries.len() as u32, num_blocks as u32] {
        put_u32(buf, word);
    }
    let headers_at = buf.len();
    buf.resize(headers_at + num_blocks * BLOCK_META_BYTES, 0);
    let len_at = begin_len(buf);
    let data_at = len_at + 4;
    for (i, chunk) in entries.chunks(BLOCK_ENTRIES).enumerate() {
        let byte_start = (buf.len() - data_at) as u32;
        let min_gap = pack_block(chunk, buf);
        let (max_node, first_entry) = (chunk[chunk.len() - 1].0, (i * BLOCK_ENTRIES) as u32);
        let words = [max_node, byte_start, first_entry, min_gap];
        for (k, word) in words.into_iter().enumerate() {
            patch_u32(buf, headers_at + i * BLOCK_META_BYTES + 4 * k, word);
        }
    }
    end_len(buf, len_at);
}

/// Write one list record; the view's headers and bytes are the record's.
fn encode_list(buf: &mut Vec<u8>, list: BlockList<'_>) {
    put_u32(buf, list.num_entries() as u32);
    put_u64(buf, list.num_positions() as u64);
    put_u32(buf, list.num_blocks() as u32);
    for b in list.headers() {
        for word in [b.max_node.0, b.byte_start, b.first_entry, b.max_tf] {
            put_u32(buf, word);
        }
    }
    put_u32(buf, list.data_bytes() as u32);
    buf.extend_from_slice(list.bytes());
}

/// Write the magic number and `version`.
pub(crate) fn put_header(buf: &mut Vec<u8>, version: u32) {
    put_u32(buf, MAGIC);
    put_u32(buf, version);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn patch_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Write a placeholder length word; returns where it is.
pub(crate) fn begin_len(buf: &mut Vec<u8>) -> usize {
    put_u32(buf, 0);
    buf.len() - 4
}

/// Patch the length word at `at` with the bytes written after it.
pub(crate) fn end_len(buf: &mut [u8], at: usize) {
    patch_u32(buf, at, (buf.len() - at - 4) as u32);
}

/// Deserialize an index previously produced by [`encode`].
pub fn decode(image: impl AsRef<[u8]>) -> Result<InvertedIndex, PersistError> {
    let buf = &mut image.as_ref();
    get_header(buf, VERSION)?;
    let mut fields = [0usize; 5];
    for f in &mut fields {
        *f = get_u64(buf)? as usize;
    }
    let stats = IndexStats {
        cnodes: fields[0],
        pos_per_cnode: fields[1],
        entries_per_token: fields[2],
        pos_per_entry: fields[3],
        vocabulary: fields[4],
    };
    let num_tokens = get_count(buf, LIST_MIN_BYTES)?;
    // Headers and bytes grow with what the image really holds: nothing is
    // reserved from a count the buffer has not bounded.
    let mut lists = PostingArenaWriter::with_capacity(num_tokens + 1, 0, 0);
    // The token lists, then `IL_ANY`.
    for _ in 0..=num_tokens {
        decode_list(buf, &mut lists)?;
    }
    let lists = lists.finish();
    let pairs = decode_sections(buf)?;
    Ok(InvertedIndex {
        lists,
        stats,
        pairs,
    })
}

/// Fewest bytes one encoded token list can occupy: `entries`, `positions`,
/// `num_blocks`, `data_len`.
const LIST_MIN_BYTES: usize = 4 + 8 + 4 + 4;
/// Bytes of one encoded block header (primary and pair lists alike).
const BLOCK_META_BYTES: usize = 16;
/// Fewest bytes one encoded pair key can occupy: both token ids, `entries`,
/// `num_blocks`, `data_len`.
const PAIR_KEY_MIN_BYTES: usize = 5 * 4;

/// Read the magic number and a format version, refusing any but `version`.
pub(crate) fn get_header(buf: &mut &[u8], version: u32) -> Result<(), PersistError> {
    let magic = get_u32(buf)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic(magic));
    }
    match get_u32(buf)? {
        v if v == version => Ok(()),
        v => Err(PersistError::BadVersion(v)),
    }
}

/// Read a `u32` element count and bound it by what the rest of the buffer
/// can hold at `min_item_bytes` per element, so a corrupt count is
/// `Truncated` before it sizes an allocation.
pub(crate) fn get_count(buf: &mut &[u8], min_item_bytes: usize) -> Result<usize, PersistError> {
    let count = get_u32(buf)? as usize;
    if count > buf.len() / min_item_bytes {
        return Err(PersistError::Truncated);
    }
    Ok(count)
}

/// Read the optional-section table. Unknown section ids are rejected
/// loudly: a section this reader cannot validate is a section it must not
/// silently drop (the writer considered it part of the index).
fn decode_sections(buf: &mut &[u8]) -> Result<PairIndex, PersistError> {
    let num_sections = get_u32(buf)?;
    let mut pairs: Option<PairIndex> = None;
    for _ in 0..num_sections {
        let id = get_u32(buf)?;
        let byte_len = get_u32(buf)? as usize;
        let payload = get_bytes(buf, byte_len)?;
        match id {
            SECTION_PAIRS => {
                if pairs.is_some() {
                    return Err(PersistError::Corrupt("duplicate pair section"));
                }
                pairs = Some(decode_pair_section(payload)?);
            }
            _ => return Err(PersistError::Corrupt("unknown optional section")),
        }
    }
    Ok(pairs.unwrap_or_default())
}

fn decode_pair_section(mut buf: &[u8]) -> Result<PairIndex, PersistError> {
    let buf = &mut buf;
    let window = get_u32(buf)?;
    let df_cutoff = get_u32(buf)?;
    if window == 0 {
        // Disabled pair indexes are expressed as an *absent* section.
        return Err(PersistError::Corrupt("pair section with zero window"));
    }
    let vocab = get_u32(buf)? as usize;
    let bitmap = get_bytes(buf, vocab.div_ceil(8))?;
    if !vocab.is_multiple_of(8) {
        // Canonical encoding: bits past `vocab` in the last byte are zero,
        // keeping the byte image of a given index unique.
        let last = bitmap[vocab / 8];
        if last >> (vocab % 8) != 0 {
            return Err(PersistError::Corrupt("stray bits in pair coverage bitmap"));
        }
    }
    let frequent = BitRows::from_packed([1], vocab, bitmap);
    let num_keys = get_count(buf, PAIR_KEY_MIN_BYTES)?;
    let config = PairConfig { window, df_cutoff };
    let mut arena = PairArenaWriter::with_shape(config, frequent, pair_shape(buf, num_keys));
    let mut entries = Vec::new();
    for _ in 0..num_keys {
        let record = PairRecord::read(buf)?;
        record
            .entries_into(window, &mut entries)
            .map_err(PersistError::Corrupt)?;
        let (a, b) = record.key;
        arena
            .push_list(a, b, &entries)
            .map_err(PersistError::Corrupt)?;
    }
    if !buf.is_empty() {
        return Err(PersistError::Corrupt("trailing bytes in pair section"));
    }
    arena.finish().map_err(PersistError::Corrupt)
}

/// One `<pair list>` record where it lies in the image: its key, its
/// entry count, its block headers' bytes and its stream. Nothing is
/// validated beyond its lengths; [`PairRecord::entries_into`] does that.
#[derive(Clone, Copy)]
struct PairRecord<'a> {
    key: (u32, u32),
    entries: u32,
    /// `num_blocks × (max_node byte_start first_entry min_gap)`.
    headers: &'a [u8],
    data: &'a [u8],
}

impl<'a> PairRecord<'a> {
    /// Read the next record of `buf`.
    fn read(buf: &mut &'a [u8]) -> Result<Self, PersistError> {
        let key = (get_u32(buf)?, get_u32(buf)?);
        let entries = get_u32(buf)?;
        let num_blocks = get_count(buf, BLOCK_META_BYTES)?;
        let headers = get_bytes(buf, num_blocks * BLOCK_META_BYTES)?;
        let data_len = get_u32(buf)? as usize;
        let data = get_bytes(buf, data_len)?;
        Ok(PairRecord {
            key,
            entries,
            headers,
            data,
        })
    }

    /// Each block's header `[max_node, byte_start, first_entry, min_gap]`.
    fn headers(&self) -> impl DoubleEndedIterator<Item = [u32; 4]> + ExactSizeIterator + 'a {
        let headers = self.headers.chunks_exact(BLOCK_META_BYTES);
        headers.map(|h| std::array::from_fn(|k| word_at(h, 4 * k)))
    }

    /// Replace `out` with every entry of the record's *untrusted* bytes.
    /// The block codec checks every width, frame, count, ordering and
    /// padding invariant, so each list has exactly one canonical encoding;
    /// this adds the pair list's own rules: every gap lies in
    /// `1..=window`, and each header's `min_gap` is its block's smallest
    /// gap. Any violation returns `Err` with a description instead of
    /// panicking. `out` grows with the blocks that check out, so a corrupt
    /// entry count sizes nothing.
    fn entries_into(&self, window: u32, out: &mut Vec<(u32, u32)>) -> Result<(), &'static str> {
        out.clear();
        let skips = self
            .headers()
            .map(|[max_node, byte_start, first_entry, _]| frame::Skip {
                max_node,
                byte_start,
                first_entry,
            });
        // Block `b`'s `min_gap`, the last word of its header.
        let min_gap = |b: usize| word_at(self.headers, (b + 1) * BLOCK_META_BYTES - 4);
        frame::check_list(
            self.data,
            self.entries as usize,
            skips,
            PairBlock::BIASES,
            |b, block| {
                let (ids, gaps) = (&block.ids[..block.count], &block.values[0][..block.count]);
                if !gaps.iter().all(|gap| (1..=window).contains(gap)) {
                    return Err("pair gap exceeds the index window");
                }
                if gaps.iter().min() != Some(&min_gap(b)) {
                    return Err("pair block min_gap disagrees with entries");
                }
                out.extend(ids.iter().copied().zip(gaps.iter().copied()));
                Ok(())
            },
        )
    }
}

/// The shape of the arena the next `num_keys` key records of `buf` fill
/// ([`ArenaShape`]): one walk over their entry counts and block headers.
/// The records are untrusted here, so the walk stops at the first one it
/// cannot read — the load reports that record — and bounds each record's
/// length by its headers, which the section's bytes bound. Each list is
/// checked again as it is appended; for a section that checks out, the
/// shape is the one the build gave the arena, so its rows have the same
/// widths and its vectors the same capacities.
fn pair_shape(mut buf: &[u8], num_keys: usize) -> ArenaShape {
    let mut shape = ArenaShape::default();
    for _ in 0..num_keys {
        let Ok(record) = PairRecord::read(&mut buf) else {
            break;
        };
        let blocks = record.headers().len();
        let gap = record.headers().next().map_or(0, |h| h[3]);
        shape.add((record.entries as usize).min(blocks * BLOCK_ENTRIES), gap);
        let node = record.headers().next_back().map_or(0, |h| h[0]);
        shape.max_node = shape.max_node.max(node);
    }
    shape
}

/// Append one stored list record to the arena, which keeps it only once
/// it validates as untrusted bytes ([`BlockList::validate`]).
fn decode_list(buf: &mut &[u8], lists: &mut PostingArenaWriter) -> Result<(), PersistError> {
    let entries = get_u32(buf)?;
    let positions = get_u64(buf)?;
    let num_blocks = get_count(buf, BLOCK_META_BYTES)?;
    if num_blocks != (entries as usize).div_ceil(BLOCK_ENTRIES) {
        return Err(PersistError::Corrupt(
            "block count disagrees with entry count",
        ));
    }
    let headers = get_bytes(buf, num_blocks * BLOCK_META_BYTES)?;
    let (blocks, data) = lists.stored_parts();
    blocks.extend(headers.chunks_exact(BLOCK_META_BYTES).map(|h| BlockMeta {
        max_node: NodeId(word_at(h, 0)),
        byte_start: word_at(h, 4),
        first_entry: word_at(h, 8),
        max_tf: word_at(h, 12),
    }));
    let data_len = get_u32(buf)? as usize;
    data.extend_from_slice(get_bytes(buf, data_len)?);
    lists
        .end_stored_list(entries, positions)
        .map_err(PersistError::Corrupt)
}

/// The little-endian `u32` at `at` of `bytes`, which must hold it.
fn word_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Split the next `len` bytes off `buf`.
pub(crate) fn get_bytes<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], PersistError> {
    if buf.len() < len {
        return Err(PersistError::Truncated);
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32, PersistError> {
    Ok(word_at(get_bytes(buf, 4)?, 0))
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64, PersistError> {
    let bytes = get_bytes(buf, 8)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use ftsl_model::Corpus;

    #[test]
    fn roundtrip_preserves_index() {
        let corpus = Corpus::from_texts(&["usability of a software", "software testing. done"]);
        let index = IndexBuilder::new().build(&corpus);
        let bytes = encode(&index);
        let decoded = decode(bytes).expect("decode");
        assert_eq!(decoded.stats(), index.stats());
        assert_eq!(decoded.lists, index.lists);
    }

    #[test]
    fn retired_versions_are_rejected() {
        for v in 1u32..=5 {
            let mut buf = Vec::new();
            put_u32(&mut buf, MAGIC);
            put_u32(&mut buf, v);
            assert!(
                matches!(decode(buf), Err(PersistError::BadVersion(got)) if got == v),
                "version {v} must be rejected"
            );
        }
    }

    #[test]
    fn manifest_versions_are_not_bare_indexes() {
        // 6 and 8 belong to the manifest lineage (crate::manifest); a bare
        // index decoder must refuse them rather than misparse.
        for v in [6u32, 8] {
            let mut buf = Vec::new();
            put_u32(&mut buf, MAGIC);
            put_u32(&mut buf, v);
            assert!(
                matches!(decode(buf), Err(PersistError::BadVersion(got)) if got == v),
                "manifest version {v} must be rejected"
            );
        }
    }

    #[test]
    fn v5_images_without_sections_are_rejected() {
        let texts: Vec<String> = (0..30)
            .map(|i| format!("alpha beta t{} alpha", i % 6))
            .collect();
        let corpus = Corpus::from_texts(&texts);
        // A disabled pair index writes an empty section table, so a retired
        // v5 image is exactly that buffer minus the trailing `num_sections`
        // word, with the version field rewound.
        let index = IndexBuilder::new()
            .pair_config(crate::pair::PairConfig::disabled())
            .build(&corpus);
        let bytes = encode(&index);
        let mut raw = bytes.as_slice()[..bytes.len() - 4].to_vec();
        raw[4..8].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(decode(&raw[..]), Err(PersistError::BadVersion(5))));
    }

    /// Byte offset of `num_token_lists`: magic, version, five stats words.
    const NUM_LISTS_AT: usize = 4 + 4 + 5 * 8;

    /// Forty documents over five covered tokens, then one holding `rare`
    /// (df 1, below the default cutoff).
    fn pair_corpus() -> Corpus {
        let mut texts: Vec<String> = (0..40)
            .map(|i| format!("alpha beta gamma{} alpha beta", i % 3))
            .collect();
        texts.push("alpha rare beta".into());
        Corpus::from_texts(&texts)
    }

    /// An image with a populated pair section, plus the offset of that
    /// section's `num_keys` field.
    fn image_with_pairs() -> (Vec<u8>, usize) {
        let corpus = pair_corpus();
        let index = IndexBuilder::new().build(&corpus);
        assert!(!index.pairs().is_empty());
        // The token lists encode identically with pairs off, and that image
        // ends in one `num_sections` word: its length locates the table.
        let bare = IndexBuilder::new()
            .pair_config(crate::pair::PairConfig::disabled())
            .build(&corpus);
        let table_at = encode(&bare).len() - 4;
        let vocab = corpus.interner().len();
        // num_sections, section id, byte_len, window, df_cutoff, vocab, bitmap.
        let num_keys_at = table_at + 6 * 4 + vocab.div_ceil(8);
        (encode(&index), num_keys_at)
    }

    fn with_u32_max_at(mut raw: Vec<u8>, at: usize) -> Vec<u8> {
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        raw
    }

    #[test]
    fn oversized_num_lists_is_an_error_not_an_allocation() {
        let (raw, _) = image_with_pairs();
        let raw = with_u32_max_at(raw, NUM_LISTS_AT);
        assert_eq!(decode(&raw[..]).unwrap_err(), PersistError::Truncated);
    }

    #[test]
    fn oversized_num_blocks_is_an_error_not_an_allocation() {
        let (raw, num_keys_at) = image_with_pairs();
        // First token list: entries:u32 positions:u64 then num_blocks.
        let primary = with_u32_max_at(raw.clone(), NUM_LISTS_AT + 4 + 4 + 8);
        assert_eq!(decode(&primary[..]).unwrap_err(), PersistError::Truncated);
        // First pair list: token_a token_b entries then num_blocks.
        let pair = with_u32_max_at(raw, num_keys_at + 4 + 3 * 4);
        assert_eq!(decode(&pair[..]).unwrap_err(), PersistError::Truncated);
    }

    #[test]
    fn oversized_num_keys_is_an_error_not_an_allocation() {
        let (raw, num_keys_at) = image_with_pairs();
        let raw = with_u32_max_at(raw, num_keys_at);
        assert_eq!(decode(&raw[..]).unwrap_err(), PersistError::Truncated);
    }

    #[test]
    fn pair_keys_outside_coverage_are_errors_not_allocations() {
        // The resident key table is sized by token id: a key token past the
        // coverage bitmap, or one the bitmap does not cover, must be refused
        // before it can size anything.
        let (raw, num_keys_at) = image_with_pairs();
        let rare = pair_corpus().token_id("rare").expect("rare token");
        let token_a_at = num_keys_at + 4;
        for token in [u32::MAX, rare.0] {
            for at in [token_a_at, token_a_at + 4] {
                let mut bad = raw.clone();
                bad[at..at + 4].copy_from_slice(&token.to_le_bytes());
                assert_eq!(
                    decode(&bad[..]).unwrap_err(),
                    PersistError::Corrupt("pair key token not covered"),
                    "token {token} at byte {at}"
                );
            }
        }
    }

    /// A hand-written image over two covered tokens whose pair section
    /// holds the one key `(0, 1)`: `list` is the words after the key
    /// (`entries`, `num_blocks`, the headers), `data` its stream.
    fn image_with_one_pair_key(list: &[u32], data: &[u8]) -> Vec<u8> {
        let corpus = Corpus::from_texts(&["a b"]);
        let bare = IndexBuilder::new()
            .pair_config(PairConfig::disabled())
            .build(&corpus);
        let bytes = encode(&bare);
        let mut section = Vec::new();
        // window, df_cutoff, vocab, then the bitmap covering both tokens.
        for word in [16u32, 0, 2] {
            section.extend_from_slice(&word.to_le_bytes());
        }
        section.push(0b11);
        // num_keys, token_a, token_b, then the list's own words.
        for word in [1u32, 0, 1].iter().chain(list) {
            section.extend_from_slice(&word.to_le_bytes());
        }
        section.extend_from_slice(&(data.len() as u32).to_le_bytes());
        section.extend_from_slice(data);
        let mut raw = bytes.as_slice()[..bytes.len() - 4].to_vec();
        for word in [1u32, SECTION_PAIRS, section.len() as u32] {
            raw.extend_from_slice(&word.to_le_bytes());
        }
        raw.extend_from_slice(&section);
        raw
    }

    #[test]
    fn pair_keys_without_entries_are_rejected() {
        // entries 0, num_blocks 0, no bytes.
        let empty = image_with_one_pair_key(&[0, 0], &[]);
        assert_eq!(
            decode(&empty[..]).unwrap_err(),
            PersistError::Corrupt("pair key with no entries")
        );
        // The same key with one entry (node 0, gap 1): entries 1, one block
        // (max_node 0, byte_start 0, first_entry 0, min_gap 1), and a stream
        // of base 0 with both frames at width 0.
        let one = image_with_one_pair_key(&[1, 1, 0, 0, 0, 1], &[0, 0, 0, 0, 0, 0]);
        let index = decode(&one[..]).expect("a one-entry key loads");
        assert_eq!(index.pairs().num_keys(), 1);
        assert_eq!(encode(&index).as_slice(), &one[..]);
    }

    /// `entries` as the `<pair list>` record of key `(0, 1)`.
    fn pair_record_bytes(entries: &[(u32, u32)]) -> Vec<u8> {
        let mut raw = Vec::new();
        put_pair_list(&mut raw, (0, 1), entries);
        raw
    }

    fn read_record(raw: &[u8]) -> PairRecord<'_> {
        PairRecord::read(&mut &raw[..]).expect("a whole record")
    }

    /// The entries `record` decodes to under `window`.
    fn entries_of(record: &PairRecord<'_>, window: u32) -> Result<Vec<(u32, u32)>, &'static str> {
        let mut out = Vec::new();
        record.entries_into(window, &mut out).map(|()| out)
    }

    #[test]
    fn stored_pair_lists_roundtrip_across_block_boundaries() {
        // 300 entries span 3 blocks; 129 and 257 end in a one-entry block,
        // which the stored form packs like any other.
        for n in [300u32, 257, 129, 128, 1] {
            let entries: Vec<(u32, u32)> = (0..n).map(|i| (i * 7 + 3, 1 + (i % 9))).collect();
            let raw = pair_record_bytes(&entries);
            let stored = read_record(&raw);
            assert_eq!(stored.headers().len(), (n as usize).div_ceil(BLOCK_ENTRIES));
            assert_eq!(stored.entries, n);
            assert_eq!(entries_of(&stored, 16).expect("valid"), entries);
        }
    }

    #[test]
    fn corrupt_stored_pair_bytes_are_errors_not_panics() {
        let entries: Vec<(u32, u32)> = (0..200u32).map(|i| (i * 3, 1 + (i % 4))).collect();
        let raw = pair_record_bytes(&entries);
        let list = read_record(&raw);
        for i in 0..list.data.len() {
            let mut data = list.data.to_vec();
            data[i] ^= 0x40;
            let _ = entries_of(
                &PairRecord {
                    data: &data,
                    ..list
                },
                16,
            );
        }
        // A lying header is always an error: block 1's min_gap.
        let mut headers = list.headers.to_vec();
        headers[BLOCK_META_BYTES + 12] += 1;
        assert!(entries_of(
            &PairRecord {
                headers: &headers,
                ..list
            },
            16
        )
        .is_err());
        // Gaps past the declared window are rejected.
        assert!(entries_of(&list, 2).is_err());
    }

    /// One stored list of either kind as its image record holds it.
    #[derive(Clone)]
    struct Stored {
        entries: u32,
        /// `max_node byte_start first_entry max_tf|min_gap` per block.
        headers: Vec<[u32; 4]>,
        data: Vec<u8>,
        /// Value columns per block: 2 for a posting list, 1 for a pair list.
        columns: usize,
    }

    impl Stored {
        /// Where block `b` starts, and where its frames start.
        fn block_at(&self, b: usize) -> (usize, usize) {
            let start = self.headers[b][1] as usize;
            (start, start + 5 + self.columns)
        }

        /// Overwrite block `b`'s base id.
        fn set_base(&mut self, b: usize, base: u32) {
            let (start, _) = self.block_at(b);
            self.data[start..start + 4].copy_from_slice(&base.to_le_bytes());
        }

        /// Re-pack the last block with its first stored value `u32::MAX`,
        /// keeping its ids, its other values and its payload.
        fn overflow_first_value(&mut self) {
            let (start, _) = self.block_at(self.headers.len() - 1);
            let count = self.entries as usize % BLOCK_ENTRIES;
            let mut ids = [0; BLOCK_ENTRIES];
            let frames = frame::unpack_ids(&self.data, start, self.columns, count, &mut ids);
            let mut columns = vec![[0; BLOCK_ENTRIES]; self.columns];
            for (c, column) in columns.iter_mut().enumerate() {
                frame::unpack_column(&self.data, &frames, c, count, 0, column);
            }
            columns[0][0] = u32::MAX;
            let payload = self.data.split_off(frames.end);
            self.data.truncate(start);
            let stored: Vec<&[u32]> = columns.iter().map(|c| &c[..count]).collect();
            let unbiased = vec![0; self.columns];
            frame::pack(&ids[..count], &stored, &unbiased, &mut self.data);
            self.data.extend_from_slice(&payload);
        }
    }

    /// A 130-entry posting list (ids `3i + 1`, one position each): two
    /// blocks, the second of two entries.
    fn stored_posting_list() -> Stored {
        let list = crate::postings::PostingList::from_entries(
            (0..130)
                .map(|i| (NodeId(3 * i + 1), vec![ftsl_model::Position::flat(i)]))
                .collect(),
        );
        let arena = crate::block::PostingArena::from_posting(&list);
        let list = arena.list(0);
        Stored {
            entries: 130,
            headers: list
                .headers()
                .iter()
                .map(|h| [h.max_node.0, h.byte_start, h.first_entry, h.max_tf])
                .collect(),
            data: list.bytes().to_vec(),
            columns: BlockMeta::BIASES.len(),
        }
    }

    /// The pair list over the same ids, gaps `1 + i % 3`.
    fn stored_pair_list() -> Stored {
        let entries: Vec<(u32, u32)> = (0..130).map(|i| (3 * i + 1, 1 + i % 3)).collect();
        let raw = pair_record_bytes(&entries);
        let list = read_record(&raw);
        Stored {
            entries: list.entries,
            headers: list.headers().collect(),
            data: list.data.to_vec(),
            columns: PairBlock::BIASES.len(),
        }
    }

    /// An image whose one list (its `IL_ANY`, with no token lists) is `s`.
    fn posting_image(s: &Stored) -> Vec<u8> {
        let mut raw = Vec::new();
        for word in [MAGIC, VERSION] {
            raw.extend_from_slice(&word.to_le_bytes());
        }
        raw.extend_from_slice(&[0; 5 * 8]); // stats
        raw.extend_from_slice(&0u32.to_le_bytes()); // num_token_lists
        raw.extend_from_slice(&s.entries.to_le_bytes());
        raw.extend_from_slice(&130u64.to_le_bytes()); // positions
        raw.extend_from_slice(&(s.headers.len() as u32).to_le_bytes());
        for word in s.headers.iter().flatten() {
            raw.extend_from_slice(&word.to_le_bytes());
        }
        raw.extend_from_slice(&(s.data.len() as u32).to_le_bytes());
        raw.extend_from_slice(&s.data);
        raw.extend_from_slice(&0u32.to_le_bytes()); // num_sections
        raw
    }

    fn pair_image(s: &Stored) -> Vec<u8> {
        let mut words = vec![s.entries, s.headers.len() as u32];
        words.extend(s.headers.iter().flatten());
        image_with_one_pair_key(&words, &s.data)
    }

    /// Each rule of the shared block codec's checked decode, broken alone
    /// in a stored posting list and a stored pair list: `decode` returns
    /// `Corrupt` naming it and does not panic. A rule that other tests
    /// already break through `decode` for a list kind has no row for it
    /// here: for posting lists the block count (`decode_list`'s own check,
    /// same message), `byte_start` and `first_entry` (and `max_node`) in
    /// `corrupt_list_records_are_errors`.
    #[test]
    fn each_codec_rule_is_corrupt_for_both_list_kinds() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Kind {
            Posting,
            Pair,
        }
        use Kind::{Pair, Posting};
        type Corruption = fn(&mut Stored);
        let rows: [(&str, &[Kind], Corruption); 13] = [
            ("block count disagrees with entry count", &[Pair], |s| {
                s.entries += 128
            }),
            ("block header disagrees with entry stream", &[Pair], |s| {
                s.headers[1][1] += 1 // byte_start
            }),
            ("block header disagrees with entry stream", &[Pair], |s| {
                s.headers[1][2] += 1 // first_entry
            }),
            ("truncated block prefix", &[Posting, Pair], |s| {
                let (start, _) = s.block_at(1);
                s.data.truncate(start + 3)
            }),
            ("frame width exceeds 32 bits", &[Posting, Pair], |s| {
                let (start, _) = s.block_at(1);
                s.data[start + 4] = 33
            }),
            ("truncated block frames", &[Posting, Pair], |s| {
                let (_, frames) = s.block_at(1);
                s.data.truncate(frames)
            }),
            ("first id-delta lane not zero", &[Posting, Pair], |s| {
                let (_, frames) = s.block_at(0);
                s.data[frames] |= 1
            }),
            // The last block holds 2 ids at width 2: bit 5 is lane 2's.
            ("non-zero padding lane", &[Posting, Pair], |s| {
                let (_, frames) = s.block_at(1);
                s.data[frames] |= 1 << 5
            }),
            ("node ids not strictly increasing", &[Posting, Pair], |s| {
                s.set_base(1, s.headers[0][0])
            }),
            ("node overflow", &[Posting, Pair], |s| {
                s.set_base(1, u32::MAX - 1)
            }),
            ("block max node disagrees with entries", &[Pair], |s| {
                s.headers[0][0] += 1
            }),
            ("stored value overflows", &[Posting, Pair], |s| {
                s.overflow_first_value()
            }),
            ("trailing bytes after last block", &[Posting, Pair], |s| {
                s.data.push(0)
            }),
        ];
        let kinds = [
            (
                Posting,
                stored_posting_list(),
                posting_image as fn(&Stored) -> Vec<u8>,
            ),
            (Pair, stored_pair_list(), pair_image),
        ];
        for (kind, valid, image) in &kinds {
            assert!(decode(&image(valid)[..]).is_ok(), "{kind:?}");
        }
        let mut broken = 0;
        for (rule, row_kinds, corrupt) in rows {
            for (kind, valid, image) in kinds.iter().filter(|k| row_kinds.contains(&k.0)) {
                let mut list = valid.clone();
                corrupt(&mut list);
                assert_eq!(
                    decode(&image(&list)[..]).err(),
                    Some(PersistError::Corrupt(rule)),
                    "{kind:?}: {rule}"
                );
                broken += 1;
            }
        }
        assert_eq!(broken, 22);
    }

    #[test]
    fn pair_section_roundtrips() {
        let texts: Vec<String> = (0..40)
            .map(|i| format!("alpha beta gamma{} alpha beta", i % 3))
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        assert!(
            !index.pairs().is_empty(),
            "test needs a populated pair index"
        );
        let decoded = decode(encode(&index)).expect("decode");
        let (got, want) = (decoded.pairs(), index.pairs());
        assert_eq!(got.config(), want.config());
        assert_eq!(got.num_keys(), want.num_keys());
        assert_eq!(got.num_entries(), want.num_entries());
        assert_eq!(got.resident_bytes(), want.resident_bytes());
        for ((ga, gb, gl), (wa, wb, wl)) in got.iter().zip(want.iter()) {
            assert_eq!((ga, gb), (wa, wb));
            assert_eq!(gl.to_entries(), wl.to_entries());
        }
        for t in 0..corpus.interner().len() {
            let tok = ftsl_model::TokenId(t as u32);
            assert_eq!(got.covers(tok), want.covers(tok), "coverage of token {t}");
        }
    }

    #[test]
    fn unknown_sections_are_rejected_loudly() {
        let corpus = Corpus::from_texts(&["a b c"]);
        let index = IndexBuilder::new()
            .pair_config(crate::pair::PairConfig::disabled())
            .build(&corpus);
        let bytes = encode(&index);
        // Rewrite the empty section table into one section of unknown id.
        let mut raw = bytes.as_slice()[..bytes.len() - 4].to_vec();
        raw.extend_from_slice(&1u32.to_le_bytes()); // num_sections
        raw.extend_from_slice(&99u32.to_le_bytes()); // unknown id
        raw.extend_from_slice(&0u32.to_le_bytes()); // empty payload
        assert!(matches!(
            decode(&raw[..]),
            Err(PersistError::Corrupt("unknown optional section"))
        ));
    }

    #[test]
    fn corrupt_pair_sections_are_errors_not_panics() {
        let texts: Vec<String> = (0..40)
            .map(|i| format!("alpha beta gamma{} alpha beta", i % 3))
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let bytes = encode(&index);
        assert!(!index.pairs().is_empty());
        // Truncations anywhere in the buffer (section table included) and
        // bit flips across the trailing pair section must never panic.
        for cut in (bytes.len().saturating_sub(64)..bytes.len()).rev() {
            let _ = decode(&bytes.as_slice()[..cut]);
        }
        let section_start = bytes.len().saturating_sub(96);
        for at in section_start..bytes.len() {
            for bit in 0..8 {
                let mut raw = bytes.as_slice().to_vec();
                raw[at] ^= 1 << bit;
                let _ = decode(&raw[..]); // must not panic
            }
        }
    }

    #[test]
    fn encode_decode_encode_is_a_fixpoint() {
        let texts: Vec<String> = (0..120)
            .map(|i| {
                format!(
                    "alpha beta{} gamma{} {}",
                    i % 11,
                    i % 5,
                    "hot ".repeat(1 + i % 4)
                )
            })
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let first = encode(&index);
        let back = decode(first.clone()).expect("decode");
        let second = encode(&back);
        assert_eq!(first, second, "encode∘decode∘encode must be the identity");
    }

    #[test]
    fn decode_encode_is_a_fixpoint_over_vocabulary_sizes() {
        for vocab in [3usize, 700, 20_000] {
            let texts: Vec<String> = (0..vocab.max(300))
                .map(|i| format!("w{} w{} hot w{}", i % vocab, (i * 7) % vocab, i % 3))
                .collect();
            let corpus = Corpus::from_texts(&texts);
            assert!(corpus.interner().len() >= vocab);
            let index = IndexBuilder::new().build(&corpus);
            let image = encode(&index);
            let decoded = decode(image.clone()).expect("decode");
            assert_eq!(decoded.lists, index.lists, "vocabulary {vocab}");
            assert_eq!(encode(&decoded), image, "vocabulary {vocab}");
        }
    }

    /// An image whose first token list (`alpha`, in all 300 documents) has
    /// three blocks, and the offset of that list's record.
    fn image_with_long_first_list() -> (Vec<u8>, usize) {
        let texts: Vec<String> = (0..300).map(|i| format!("alpha beta{}", i % 4)).collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new()
            .pair_config(PairConfig::disabled())
            .build(&corpus);
        assert_eq!(index.block_list(ftsl_model::TokenId(0)).num_blocks(), 3);
        (encode(&index), NUM_LISTS_AT + 4)
    }

    #[test]
    fn corrupt_list_records_are_errors() {
        let (raw, list_at) = image_with_long_first_list();
        assert!(decode(&raw[..]).is_ok());
        let entries_at = list_at;
        let positions_at = list_at + 4;
        let num_blocks_at = list_at + 12;
        let header_at = |block: usize, field: usize| num_blocks_at + 4 + 16 * block + 4 * field;
        let data_len_at = header_at(3, 0);
        let data_len = u32::from_le_bytes(raw[data_len_at..data_len_at + 4].try_into().unwrap());
        let with_u32 = |at: usize, value: u32| {
            let mut bad = raw.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            decode(&bad[..])
        };
        let corrupt = |result: Result<InvertedIndex, PersistError>| {
            matches!(result, Err(PersistError::Corrupt(_)))
        };
        // Truncated inside the list's bytes.
        assert_eq!(
            decode(&raw[..data_len_at + 4 + data_len as usize / 2]).unwrap_err(),
            PersistError::Truncated
        );
        // A header out of range: past the list's bytes, or past its entries.
        assert!(corrupt(with_u32(header_at(1, 1), data_len + 1)));
        assert!(corrupt(with_u32(header_at(2, 2), 301)));
        assert!(corrupt(with_u32(header_at(0, 0), u32::MAX)));
        // A block count that is not ⌈entries / 128⌉, either way round.
        assert_eq!(
            with_u32(num_blocks_at, 2).unwrap_err(),
            PersistError::Corrupt("block count disagrees with entry count")
        );
        assert_eq!(
            with_u32(entries_at, 256).unwrap_err(),
            PersistError::Corrupt("block count disagrees with entry count")
        );
        // Entry and position counts the bytes do not hold.
        assert!(corrupt(with_u32(entries_at, 299)));
        assert!(corrupt(with_u32(positions_at, 299)));
    }

    #[test]
    fn roundtrip_preserves_block_impact_metadata() {
        // Documents with very different token repetition so max_tf varies.
        let texts: Vec<String> = (0..50)
            .map(|i| format!("{} filler", "hot ".repeat(1 + i % 7)))
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let decoded = decode(encode(&index)).expect("decode");
        for (a, b) in decoded.lists.iter().zip(index.lists.iter()) {
            assert_eq!(a, b); // BlockMeta::max_tf participates in PartialEq
            assert!(a.max_tf() > 0 || a.is_empty());
        }
    }

    #[test]
    fn compressed_format_is_smaller_than_v1_layout() {
        let texts: Vec<String> = (0..300)
            .map(|i| format!("common tokens everywhere plus t{} t{}", i % 9, i % 4))
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let v5_len = encode(&index).len();
        // The retired v1 layout spent 12 bytes per position plus 8 per entry.
        let v1_estimate: usize = index
            .lists
            .iter()
            .map(|l| 4 + l.num_entries() * 8 + l.num_positions() * 12)
            .sum();
        assert!(
            v5_len * 2 < v1_estimate,
            "v5 {v5_len} bytes vs v1-equivalent {v1_estimate}"
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdead_beef);
        put_u32(&mut buf, VERSION);
        assert!(matches!(decode(buf), Err(PersistError::BadMagic(_))));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let corpus = Corpus::from_texts(&["a b c"]);
        let index = IndexBuilder::new().build(&corpus);
        let bytes = encode(&index);
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(decode(cut), Err(PersistError::Truncated)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAGIC);
        put_u32(&mut buf, 99);
        assert!(matches!(decode(buf), Err(PersistError::BadVersion(99))));
    }

    #[test]
    fn corrupt_entry_stream_is_an_error_not_a_panic() {
        let texts: Vec<String> = (0..40).map(|i| format!("alpha beta t{i}")).collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let bytes = encode(&index);
        // Set the varint continuation bit on a byte near the end of the last
        // list's data stream: the entry stream no longer matches its declared
        // counts and must decode to Err, never panic.
        let mut raw = bytes.as_slice().to_vec();
        let target = raw.len() - 2;
        raw[target] |= 0x80;
        assert!(matches!(
            decode(&raw[..]),
            Err(PersistError::Corrupt(_) | PersistError::Truncated)
        ));
    }
}
