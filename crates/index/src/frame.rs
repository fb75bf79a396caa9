//! The block codec behind both kinds of inverted list.
//!
//! Posting lists ([`crate::block`]) and word-pair lists ([`crate::pair`])
//! store the same physical block: up to [`LANES`] entries as fixed-width
//! [`crate::bitpack`] frames behind a short prefix,
//!
//! ```text
//! base:u32-le  one width:u8 per column, the id column first
//! id-delta frame          lane 0 = 0, lane i = id[i] − id[i−1] − 1
//! one frame per value column: lane i = value[i] − bias
//! ```
//!
//! A list kind names its value columns by their biases: a column whose
//! values are at least 1 (term frequencies, gaps) stores `value − 1`, so a
//! column of ones packs at width 0, and a column of byte lengths stores
//! its values as they are. A posting block has two value columns
//! (`tf − 1`, then each entry's position-payload byte length) and its
//! varint position payloads follow the frames; a pair block has one
//! (`gap − 1`). The skip headers over the blocks belong to the list kinds;
//! this module owns the bytes of a block.
//!
//! It offers three operations: [`pack`] writes a block; [`unpack_ids`]
//! and [`unpack_column`] decode the bytes of a block built in memory or
//! already checked, one column at a time (the cursors); [`check_list`]
//! decodes a whole list of untrusted bytes and makes every structural
//! check (the load path).

use crate::bitpack::{self, LANES};

/// Most value columns a block has: a posting block's two.
pub(crate) const MAX_VALUE_COLUMNS: usize = 2;

/// Bytes of a block's prefix: the base id and one width per column.
const fn prefix_bytes(value_columns: usize) -> usize {
    4 + 1 + value_columns
}

/// Bytes of a `count`-entry block whose frames are `widths` wide, the id
/// column's first: what [`pack_by`] writes for it.
pub(crate) fn block_bytes(widths: &[u8], count: usize) -> usize {
    let frames = widths.iter().map(|&w| bitpack::packed_bytes(w, count));
    prefix_bytes(widths.len() - 1) + frames.sum::<usize>()
}

/// The frame widths, the id column's first, in the prefix of the block at
/// `data[at..]`, which has `value_columns` value columns.
pub(crate) fn widths_at(data: &[u8], at: usize, value_columns: usize) -> &[u8] {
    &data[at + 4..at + prefix_bytes(value_columns)]
}

/// The base id at the front of the prefix at `data[at..]`.
fn base_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// Append one block to `out`: `ids` strictly increasing, one to [`LANES`]
/// of them, and `columns[c]` one value per id, each at least `biases[c]`.
pub(crate) fn pack(ids: &[u32], columns: &[&[u32]], biases: &[u32], out: &mut Vec<u8>) {
    debug_assert!(columns.iter().all(|values| values.len() == ids.len()));
    pack_by(ids.len(), |i| ids[i], |c, i| columns[c][i], biases, out);
}

/// [`pack`] over a block read lane by lane: `id(i)` is entry `i`'s id and
/// `value(c, i)` its value in column `c`, one column per bias. Each lane is
/// read twice (for its frame's width, then to pack it), so a block costs its
/// `count` entries: nothing is staged in, or zeroed across, 128 lanes.
#[inline]
pub(crate) fn pack_by(
    count: usize,
    id: impl Fn(usize) -> u32,
    value: impl Fn(usize, usize) -> u32,
    biases: &[u32],
    out: &mut Vec<u8>,
) {
    debug_assert!(0 < count && count <= LANES);
    // Lane 0 is 0: the base is stored absolute.
    let delta = |i: usize| if i == 0 { 0 } else { id(i) - id(i - 1) - 1 };
    out.extend_from_slice(&id(0).to_le_bytes());
    let widths_at = out.len();
    let id_width = bitpack::width_for((1..count).map(delta).max().unwrap_or(0));
    out.push(id_width);
    out.resize(widths_at + 1 + biases.len(), 0);
    bitpack::pack_iter((0..count).map(delta), id_width, out);
    for (c, &bias) in biases.iter().enumerate() {
        let lane = |i: usize| value(c, i) - bias;
        let width = bitpack::width_for((0..count).map(lane).max().unwrap_or(0));
        out[widths_at + 1 + c] = width;
        bitpack::pack_iter((0..count).map(lane), width, out);
    }
}

/// Where a block's value-column frames and its payload sit, read from its
/// prefix by [`unpack_ids`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Frames {
    at: [usize; MAX_VALUE_COLUMNS],
    width: [u8; MAX_VALUE_COLUMNS],
    /// First byte past the frames: a posting block's payloads start here.
    pub(crate) end: usize,
}

/// Decode the id column of the `count`-entry block at `data[at..]`, which
/// has `value_columns` value columns, into `ids`, and return where the
/// rest of the block sits.
///
/// Trusted bytes: a block built in memory, or one [`check_list`] passed.
/// Lanes at and past `count` hold garbage the caller never reads.
#[inline]
pub(crate) fn unpack_ids(
    data: &[u8],
    at: usize,
    value_columns: usize,
    count: usize,
    ids: &mut [u32; LANES],
) -> Frames {
    let base = base_at(data, at);
    let widths = &data[at + 4..at + prefix_bytes(value_columns)];
    let mut next = at + prefix_bytes(value_columns);
    next += bitpack::unpack(&data[next..], widths[0], count, ids);
    // Prefix transform over all 128 lanes (fixed trip count; padding lanes
    // produce garbage ids that `count` guards from being read, so the
    // arithmetic wraps instead of checking). Running four independent
    // 32-lane chains and then propagating the chunk offsets cuts the
    // serial-dependency latency to roughly a quarter of a straight
    // 128-add chain.
    ids[0] = base;
    for c in 1..LANES / 32 {
        ids[32 * c] = ids[32 * c].wrapping_add(1);
    }
    for c in 0..LANES / 32 {
        let start = 32 * c;
        for i in start + 1..start + 32 {
            ids[i] = ids[i].wrapping_add(1).wrapping_add(ids[i - 1]);
        }
    }
    for c in 1..LANES / 32 {
        let off = ids[32 * c - 1];
        for v in &mut ids[32 * c..32 * (c + 1)] {
            *v = v.wrapping_add(off);
        }
    }
    let mut frames = Frames::default();
    for (c, &width) in widths[1..].iter().enumerate() {
        frames.at[c] = next;
        frames.width[c] = width;
        next += bitpack::packed_bytes(width, count);
    }
    frames.end = next;
    frames
}

/// Decode value column `c` of a `count`-entry block that [`unpack_ids`]
/// located, adding `bias` back to every lane (trusted bytes; padding lanes
/// are never read).
#[inline]
pub(crate) fn unpack_column(
    data: &[u8],
    frames: &Frames,
    c: usize,
    count: usize,
    bias: u32,
    out: &mut [u32; LANES],
) {
    bitpack::unpack(&data[frames.at[c]..], frames.width[c], count, out);
    if bias != 0 {
        for v in out.iter_mut() {
            *v = v.wrapping_add(bias);
        }
    }
}

/// What a stored block header says about where its block sits, which
/// [`check_list`] holds against the bytes.
pub(crate) struct Skip {
    /// The block's last id.
    pub(crate) max_node: u32,
    /// Offset of the block in the list's bytes.
    pub(crate) byte_start: u32,
    /// List index of the block's first entry.
    pub(crate) first_entry: u32,
}

/// One block [`check_list`] decoded and checked.
pub(crate) struct CheckedBlock {
    /// The block's ids.
    pub(crate) ids: [u32; LANES],
    /// The block's value columns, bias added back.
    pub(crate) values: [[u32; LANES]; MAX_VALUE_COLUMNS],
    /// Entries in the block: the lanes of `ids` and `values` that count.
    pub(crate) count: usize,
    /// Read offset past the block's frames. A posting block's payloads
    /// start here, and its caller moves it past them.
    pub(crate) at: usize,
}

/// Decode a list of *untrusted* bytes — `entries` entries in blocks under
/// `headers`, each block with value columns of `biases` — and hand each
/// checked block to `each` with its index, for the checks of its list
/// kind. Returns `Err` with a description of the first rule the bytes
/// break, and never panics:
///
/// * the block count is `⌈entries / 128⌉`;
/// * each header's `byte_start` and `first_entry` say where its block
///   really starts;
/// * the prefix and every frame are inside the bytes, every width ≤ 32;
/// * id lane 0 is zero, and so is every padding lane (lanes at and past
///   the block's count, which also covers the unused bits of a frame's
///   final word), so a list has exactly one encoding;
/// * ids strictly increase within and across blocks, without overflow,
///   and a block's last id is its header's `max_node`;
/// * adding a bias back to a stored value does not overflow;
/// * no bytes follow the last block (or what `each` consumed after it).
pub(crate) fn check_list(
    data: &[u8],
    entries: usize,
    headers: impl ExactSizeIterator<Item = Skip>,
    biases: &[u32],
    mut each: impl FnMut(usize, &mut CheckedBlock) -> Result<(), &'static str>,
) -> Result<(), &'static str> {
    if headers.len() != entries.div_ceil(LANES) {
        return Err("block count disagrees with entry count");
    }
    let mut block = CheckedBlock {
        ids: [0; LANES],
        values: [[0; LANES]; MAX_VALUE_COLUMNS],
        count: 0,
        at: 0,
    };
    let mut prev: Option<u32> = None;
    for (b, skip) in headers.enumerate() {
        let count = LANES.min(entries - b * LANES);
        let start = block.at;
        if skip.byte_start as usize != start || skip.first_entry as usize != b * LANES {
            return Err("block header disagrees with entry stream");
        }
        let mut at = start + prefix_bytes(biases.len());
        let widths = data.get(start + 4..at).ok_or("truncated block prefix")?;
        if widths.iter().any(|&w| w > 32) {
            return Err("frame width exceeds 32 bits");
        }
        let frames: usize = widths
            .iter()
            .map(|&w| bitpack::packed_bytes(w, count))
            .sum();
        if data.len() - at < frames {
            return Err("truncated block frames");
        }
        let base = base_at(data, start);
        at += bitpack::unpack(&data[at..], widths[0], count, &mut block.ids);
        let columns = &mut block.values[..biases.len()];
        for (column, &width) in columns.iter_mut().zip(&widths[1..]) {
            at += bitpack::unpack(&data[at..], width, count, column);
        }
        if block.ids[0] != 0 {
            return Err("first id-delta lane not zero");
        }
        let padding = columns.iter().flat_map(|column| &column[count..]);
        if block.ids[count..].iter().chain(padding).any(|&v| v != 0) {
            return Err("non-zero padding lane");
        }
        if prev.is_some_and(|p| base <= p) {
            return Err("node ids not strictly increasing");
        }
        block.ids[0] = base;
        for i in 1..count {
            block.ids[i] = block.ids[i - 1]
                .checked_add(block.ids[i])
                .and_then(|n| n.checked_add(1))
                .ok_or("node overflow")?;
        }
        prev = Some(block.ids[count - 1]);
        if block.ids[count - 1] != skip.max_node {
            return Err("block max node disagrees with entries");
        }
        for (column, &bias) in columns.iter_mut().zip(biases) {
            for v in &mut column[..count] {
                *v = v.checked_add(bias).ok_or("stored value overflows")?;
            }
        }
        block.count = count;
        block.at = at;
        each(b, &mut block)?;
    }
    if block.at != data.len() {
        return Err("trailing bytes after last block");
    }
    Ok(())
}
