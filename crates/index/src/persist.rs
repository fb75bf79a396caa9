//! Binary persistence for inverted indexes.
//!
//! A small hand-rolled little-endian codec over `bytes::{Buf, BufMut}` (no
//! serde *format* crate is available offline; the serde derives on the data
//! types remain useful for other tooling).
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
//!   audit. The on-disk image *is* the physical in-memory layout: on load
//!   every list is walked once by the fallible block decoder
//!   ([`crate::block::BlockList::validate`]), re-checking every structural
//!   invariant, and then served from those same bytes. v1–v6 buffers are
//!   rejected with `BadVersion(..)`; there is no migration path because
//!   older images can be regenerated from their corpora.
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

use crate::block::{BlockList, BlockMeta};
use crate::index::InvertedIndex;
use crate::pair::{PairBlockMeta, PairConfig, PairIndex, PairList};
use crate::stats::IndexStats;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ftsl_model::NodeId;

const MAGIC: u32 = 0x4654_5349; // "FTSI"
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
pub fn encode(index: &InvertedIndex) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    let s = index.stats();
    for v in [
        s.cnodes,
        s.pos_per_cnode,
        s.entries_per_token,
        s.pos_per_entry,
        s.vocabulary,
    ] {
        buf.put_u64_le(v as u64);
    }
    buf.put_u32_le(index.blocks.len() as u32);
    for list in &index.blocks {
        encode_list(&mut buf, list);
    }
    encode_list(&mut buf, &index.any_blocks);
    encode_sections(&mut buf, index);
    buf.freeze()
}

/// Write the optional-section table. A disabled pair index writes an empty
/// table rather than an empty section, so each index has one byte image.
fn encode_sections(buf: &mut BytesMut, index: &InvertedIndex) {
    let pairs = index.pairs();
    if pairs.config().window == 0 {
        buf.put_u32_le(0);
        return;
    }
    buf.put_u32_le(1);
    buf.put_u32_le(SECTION_PAIRS);
    let payload = encode_pair_section(pairs).freeze();
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload.as_slice());
}

fn encode_pair_section(pairs: &PairIndex) -> BytesMut {
    let (keys, lists, frequent) = pairs.parts();
    let config = pairs.config();
    let mut buf = BytesMut::new();
    buf.put_u32_le(config.window);
    buf.put_u32_le(config.df_cutoff);
    buf.put_u32_le(frequent.len() as u32);
    let mut byte = 0u8;
    for (i, &covered) in frequent.iter().enumerate() {
        if covered {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.put_u8(byte);
            byte = 0;
        }
    }
    if frequent.len() % 8 != 0 {
        buf.put_u8(byte);
    }
    buf.put_u32_le(keys.len() as u32);
    for (&(a, b), list) in keys.iter().zip(lists) {
        let (metas, data, entries) = list.parts();
        buf.put_u32_le(a);
        buf.put_u32_le(b);
        buf.put_u32_le(entries);
        buf.put_u32_le(metas.len() as u32);
        for m in metas {
            buf.put_u32_le(m.max_node.0);
            buf.put_u32_le(m.byte_start);
            buf.put_u32_le(m.first_entry);
            buf.put_u32_le(m.min_gap);
        }
        buf.put_u32_le(data.len() as u32);
        buf.put_slice(data);
    }
    buf
}

fn encode_list(buf: &mut BytesMut, list: &BlockList) {
    let (blocks, data, entries, positions) = list.parts();
    buf.put_u32_le(entries);
    buf.put_u64_le(positions);
    buf.put_u32_le(blocks.len() as u32);
    for b in blocks {
        buf.put_u32_le(b.max_node.0);
        buf.put_u32_le(b.byte_start);
        buf.put_u32_le(b.first_entry);
        buf.put_u32_le(b.max_tf);
    }
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

/// Deserialize an index previously produced by [`encode`].
pub fn decode(mut buf: impl Buf) -> Result<InvertedIndex, PersistError> {
    let magic = get_u32(&mut buf)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic(magic));
    }
    let version = get_u32(&mut buf)?;
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let mut fields = [0usize; 5];
    for f in &mut fields {
        *f = get_u64(&mut buf)? as usize;
    }
    let stats = IndexStats {
        cnodes: fields[0],
        pos_per_cnode: fields[1],
        entries_per_token: fields[2],
        pos_per_entry: fields[3],
        vocabulary: fields[4],
    };
    let num_lists = get_count(&mut buf, LIST_MIN_BYTES)?;
    let mut blocks = Vec::with_capacity(num_lists);
    for _ in 0..num_lists {
        blocks.push(decode_list(&mut buf)?);
    }
    let any_blocks = decode_list(&mut buf)?;
    let pairs = decode_sections(&mut buf)?;
    Ok(InvertedIndex {
        blocks,
        any_blocks,
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

/// Read a `u32` element count and bound it by what the rest of the buffer
/// can hold at `min_item_bytes` per element, so a corrupt count is
/// `Truncated` before it sizes an allocation.
pub(crate) fn get_count(buf: &mut impl Buf, min_item_bytes: usize) -> Result<usize, PersistError> {
    let count = get_u32(buf)? as usize;
    if count > buf.remaining() / min_item_bytes {
        return Err(PersistError::Truncated);
    }
    Ok(count)
}

/// Read the optional-section table. Unknown section ids are rejected
/// loudly: a section this reader cannot validate is a section it must not
/// silently drop (the writer considered it part of the index).
fn decode_sections(buf: &mut impl Buf) -> Result<PairIndex, PersistError> {
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
                pairs = Some(decode_pair_section(&payload[..])?);
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
    let frequent: Vec<bool> = (0..vocab)
        .map(|i| bitmap[i / 8] >> (i % 8) & 1 == 1)
        .collect();
    let num_keys = get_count(buf, PAIR_KEY_MIN_BYTES)?;
    let mut keys = Vec::with_capacity(num_keys);
    let mut lists = Vec::with_capacity(num_keys);
    for _ in 0..num_keys {
        let a = get_u32(buf)?;
        let b = get_u32(buf)?;
        let entries = get_u32(buf)?;
        let num_blocks = get_count(buf, BLOCK_META_BYTES)?;
        let mut metas = Vec::with_capacity(num_blocks);
        for _ in 0..num_blocks {
            let max_node = NodeId(get_u32(buf)?);
            let byte_start = get_u32(buf)?;
            let first_entry = get_u32(buf)?;
            let min_gap = get_u32(buf)?;
            metas.push(PairBlockMeta {
                max_node,
                byte_start,
                first_entry,
                min_gap,
            });
        }
        let data_len = get_u32(buf)? as usize;
        let data = get_bytes(buf, data_len)?;
        let list = PairList::from_parts(metas, data, entries);
        list.try_to_entries(window).map_err(PersistError::Corrupt)?;
        keys.push((a, b));
        lists.push(list);
    }
    if buf.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes in pair section"));
    }
    PairIndex::from_parts(PairConfig { window, df_cutoff }, keys, lists, frequent)
        .map_err(PersistError::Corrupt)
}

fn decode_list(buf: &mut impl Buf) -> Result<BlockList, PersistError> {
    let entries = get_u32(buf)?;
    let positions = get_u64(buf)?;
    let num_blocks = get_count(buf, BLOCK_META_BYTES)?;
    if num_blocks != (entries as usize).div_ceil(crate::block::BLOCK_ENTRIES) {
        return Err(PersistError::Corrupt(
            "block count disagrees with entry count",
        ));
    }
    let mut metas = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        let max_node = NodeId(get_u32(buf)?);
        let byte_start = get_u32(buf)?;
        let first_entry = get_u32(buf)?;
        let max_tf = get_u32(buf)?;
        metas.push(BlockMeta {
            max_node,
            byte_start,
            first_entry,
            max_tf,
        });
    }
    let data_len = get_u32(buf)? as usize;
    let data = get_bytes(buf, data_len)?;
    for meta in &metas {
        if meta.byte_start as usize > data_len || meta.first_entry > entries {
            return Err(PersistError::Corrupt("block header out of range"));
        }
    }
    let list = BlockList::from_parts(metas, data, entries, positions);
    list.validate().map_err(PersistError::Corrupt)?;
    Ok(list)
}

pub(crate) fn get_u32(buf: &mut impl Buf) -> Result<u32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u32_le())
}

pub(crate) fn get_u64(buf: &mut impl Buf) -> Result<u64, PersistError> {
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u64_le())
}

pub(crate) fn get_bytes(buf: &mut impl Buf, len: usize) -> Result<Vec<u8>, PersistError> {
    if buf.remaining() < len {
        return Err(PersistError::Truncated);
    }
    let mut data = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        let chunk = buf.chunk();
        let take = chunk.len().min(len - filled);
        data[filled..filled + take].copy_from_slice(&chunk[..take]);
        buf.advance(take);
        filled += take;
    }
    Ok(data)
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
        assert_eq!(decoded.blocks, index.blocks);
        assert_eq!(decoded.any_blocks, index.any_blocks);
    }

    #[test]
    fn retired_versions_are_rejected() {
        for v in 1u32..=5 {
            let mut buf = BytesMut::new();
            buf.put_u32_le(MAGIC);
            buf.put_u32_le(v);
            assert!(
                matches!(decode(buf.freeze()), Err(PersistError::BadVersion(got)) if got == v),
                "version {v} must be rejected"
            );
        }
    }

    #[test]
    fn manifest_versions_are_not_bare_indexes() {
        // 6 and 8 belong to the manifest lineage (crate::manifest); a bare
        // index decoder must refuse them rather than misparse.
        for v in [6u32, 8] {
            let mut buf = BytesMut::new();
            buf.put_u32_le(MAGIC);
            buf.put_u32_le(v);
            assert!(
                matches!(decode(buf.freeze()), Err(PersistError::BadVersion(got)) if got == v),
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

    /// An image with a populated pair section, plus the offset of that
    /// section's `num_keys` field.
    fn image_with_pairs() -> (Vec<u8>, usize) {
        let texts: Vec<String> = (0..40)
            .map(|i| format!("alpha beta gamma{} alpha beta", i % 3))
            .collect();
        let corpus = Corpus::from_texts(&texts);
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
        (encode(&index).to_vec(), num_keys_at)
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
        let window = want.config().window;
        for ((ga, gb, gl), (wa, wb, wl)) in got.iter().zip(want.iter()) {
            assert_eq!((ga, gb), (wa, wb));
            assert_eq!(
                gl.try_to_entries(window).unwrap(),
                wl.try_to_entries(window).unwrap()
            );
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
    fn roundtrip_preserves_block_impact_metadata() {
        // Documents with very different token repetition so max_tf varies.
        let texts: Vec<String> = (0..50)
            .map(|i| format!("{} filler", "hot ".repeat(1 + i % 7)))
            .collect();
        let corpus = Corpus::from_texts(&texts);
        let index = IndexBuilder::new().build(&corpus);
        let decoded = decode(encode(&index)).expect("decode");
        for (a, b) in decoded.blocks.iter().zip(&index.blocks) {
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
            .blocks
            .iter()
            .chain(std::iter::once(&index.any_blocks))
            .map(|l| 4 + l.num_entries() * 8 + l.num_positions() * 12)
            .sum();
        assert!(
            v5_len * 2 < v1_estimate,
            "v5 {v5_len} bytes vs v1-equivalent {v1_estimate}"
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xdead_beef);
        buf.put_u32_le(VERSION);
        assert!(matches!(
            decode(buf.freeze()),
            Err(PersistError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let corpus = Corpus::from_texts(&["a b c"]);
        let index = IndexBuilder::new().build(&corpus);
        let bytes = encode(&index);
        let cut = bytes.slice(0..bytes.len() - 3);
        assert!(matches!(decode(cut), Err(PersistError::Truncated)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(99);
        assert!(matches!(
            decode(buf.freeze()),
            Err(PersistError::BadVersion(99))
        ));
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
