//! Scalar word-aligned bitpacking: the frame-of-reference codec behind the
//! v5 block layout.
//!
//! A packed frame holds up to [`LANES`] unsigned values, every one stored
//! at the same fixed bit width `w ∈ 0..=32`. Values are laid down
//! little-endian into a stream of `u32` words — lane `i` occupies bits
//! `[i·w, (i+1)·w)` of the stream — and the stream is cut after the last
//! occupied word, so a frame of `n` values is `ceil(n·w/32)` words
//! ([`packed_bytes`]). A full 128-lane frame at any width is a whole
//! number of words; a short frame (the tail block of a list, or a tiny
//! list's only block) pays at most three wasted bytes in its final word
//! instead of 128 padded lanes. Width 0 encodes a constant run of zeros in
//! **zero bytes**: delta-1 node ids of consecutive documents and the
//! `tf − 1` of all-single-occurrence blocks both collapse to nothing.
//!
//! There are no per-value exceptions or patches (exception-free FOR): the
//! encoder picks the width of the *largest* value in the frame
//! ([`width_for`]), trading a few bits on skewed frames for a decoder with
//! no data-dependent branches — [`unpack`] runs the same straight-line,
//! macro-unrolled kernel whatever the data looks like, which is what makes
//! block-at-a-time decoding profitable over per-entry varints (see
//! [`crate::block`]).
//!
//! Unused bits of a frame's final word are zero; [`unpack`] always fills
//! all [`LANES`] output lanes (missing lanes decode to 0), and the v5
//! validator insists the padding really is zero so every list has exactly
//! one canonical encoding.

/// Maximum values per packed frame. Matches
/// [`crate::block::BLOCK_ENTRIES`] so one frame covers one compressed
/// block.
pub const LANES: usize = 128;

/// Bytes a frame of `count` values occupies at bit width `width`:
/// `ceil(count·width/32)` little-endian `u32` words.
#[inline]
pub const fn packed_bytes(width: u8, count: usize) -> usize {
    (count * width as usize).div_ceil(32) * 4
}

/// The smallest width that can represent `max`: `ceil(log2(max + 1))`,
/// i.e. 0 for 0, 32 for anything with the top bit set.
#[inline]
pub const fn width_for(max: u32) -> u8 {
    (32 - max.leading_zeros()) as u8
}

/// Append the first `count` lanes of `values` to `out` at bit width
/// `width`. Unused bits of the final word are zero (the canonical form the
/// untrusted-bytes validator checks).
///
/// Every packed value must fit in `width` bits (callers derive the width
/// with [`width_for`] over the frame's maximum; debug builds assert it).
/// Width 0 appends nothing.
///
/// # Panics
/// Panics if `count` exceeds `values.len()` or [`LANES`].
pub fn pack(values: &[u32], count: usize, width: u8, out: &mut Vec<u8>) {
    assert!(
        count <= values.len() && count <= LANES,
        "count {count} out of range"
    );
    pack_iter(values[..count].iter().copied(), width, out);
}

/// [`pack`] over the values `values` yields, at most [`LANES`] of them:
/// the frame is written as they come, so its cost is their number and
/// nothing is staged or zeroed.
pub(crate) fn pack_iter(values: impl ExactSizeIterator<Item = u32>, width: u8, out: &mut Vec<u8>) {
    assert!(width <= 32, "width {width} out of range");
    debug_assert!(values.len() <= LANES);
    if width == 0 {
        debug_assert!(values.into_iter().all(|v| v == 0));
        return;
    }
    out.reserve(packed_bytes(width, values.len()));
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for v in values {
        debug_assert!(
            width == 32 || v < (1u32 << width),
            "value {v} exceeds width {width}"
        );
        acc |= (v as u64) << bits;
        bits += width as u32;
        if bits >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            bits -= 32;
        }
    }
    if bits > 0 {
        // Final partial word, high bits zero.
        out.extend_from_slice(&(acc as u32).to_le_bytes());
    }
}

/// The width-`W` unpack kernel. 32 lanes consume exactly `W` words; each
/// group's words are staged into a fixed local array first (zero-filled
/// past the frame end, so short frames decode their missing lanes to 0),
/// and the lane loop is macro-unrolled so every word index and shift is a
/// compile-time constant — straight-line load/shift/mask code with no
/// bounds checks and no data-dependent branches, which is what makes
/// block-at-a-time decoding beat per-entry varints.
fn unpack_const<const W: usize>(data: &[u8], out: &mut [u32; LANES]) {
    let mask: u64 = (1u64 << W) - 1;
    let full = data.len() == LANES / 8 * W;
    for group in 0..LANES / 32 {
        // One padding slot past the W words a full group reads, so every
        // lane can read a two-word window unconditionally.
        let mut words = [0u32; 33]; // the first W slots are used
        if full {
            // Full 128-lane frame (every block but a list's tail): the
            // group's W words are present — a fixed-size copy.
            let src = &data[group * W * 4..][..W * 4];
            for (w, chunk) in words.iter_mut().zip(src.chunks_exact(4)) {
                *w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        } else {
            // Short frame: stage whatever of this group's words exist;
            // the rest remain zero, so missing lanes decode to 0.
            let start = (group * W * 4).min(data.len());
            let end = ((group + 1) * W * 4).min(data.len());
            for (w, chunk) in words.iter_mut().zip(data[start..end].chunks_exact(4)) {
                *w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
        let dst: &mut [u32; 32] = (&mut out[group * 32..group * 32 + 32])
            .try_into()
            .expect("32 lanes");
        macro_rules! lane {
            ($($i:literal)+) => {$({
                let bit = $i * W;
                let pair = u64::from(words[bit >> 5])
                    | (u64::from(words[(bit >> 5) + 1]) << 32);
                dst[$i] = ((pair >> (bit & 31)) & mask) as u32;
            })+};
        }
        lane!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
              16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);
    }
}

/// Generate the width dispatch: one monomorphized kernel per width.
macro_rules! unpack_dispatch {
    ($data:expr, $width:expr, $out:expr; $($w:literal)+) => {
        match $width {
            0 => $out.fill(0),
            $($w => unpack_const::<$w>($data, $out),)+
            _ => unreachable!("width checked above"),
        }
    };
}

/// Decode a frame of `count` `width`-bit values from the front of `data`,
/// returning the number of bytes consumed ([`packed_bytes`]). All
/// [`LANES`] output lanes are written; lanes at and past `count` decode
/// the frame's zero padding (the block cursor never reads them, the
/// validator checks they are zero).
///
/// # Panics
/// Panics if `width > 32` or `data` is shorter than [`packed_bytes`] —
/// callers either built the frame themselves or validated widths and
/// lengths first (the untrusted-bytes path in
/// [`crate::block::BlockList::validate`]).
#[inline]
pub fn unpack(data: &[u8], width: u8, count: usize, out: &mut [u32; LANES]) -> usize {
    assert!(width <= 32, "width {width} out of range");
    let nbytes = packed_bytes(width, count);
    let data = &data[..nbytes];
    unpack_dispatch!(data, width, out;
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
    nbytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mask(width: u8) -> u32 {
        if width == 32 {
            u32::MAX
        } else if width == 0 {
            0
        } else {
            (1u32 << width) - 1
        }
    }

    #[test]
    fn width_for_matches_bit_length() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 3);
        assert_eq!(width_for(127), 7);
        assert_eq!(width_for(128), 8);
        assert_eq!(width_for(u32::MAX), 32);
        assert_eq!(width_for(u32::MAX >> 1), 31);
    }

    #[test]
    fn packed_bytes_is_word_aligned_and_tight() {
        for width in 0..=32u8 {
            assert_eq!(packed_bytes(width, LANES), 16 * width as usize);
            assert_eq!(packed_bytes(width, LANES) % 4, 0);
        }
        assert_eq!(packed_bytes(5, 1), 4); // 5 bits → one word
        assert_eq!(packed_bytes(5, 12), 8); // 60 bits → two words
        assert_eq!(packed_bytes(0, 128), 0);
        assert_eq!(packed_bytes(32, 3), 12);
    }

    /// Exhaustive width sweep: a deterministic patterned frame (maximum,
    /// zero, and alternating values) round-trips at every width 0..=32,
    /// both full-length and short.
    #[test]
    fn roundtrip_every_width() {
        for width in 0..=32u8 {
            let m = mask(width);
            let mut values = [0u32; LANES];
            for (i, v) in values.iter_mut().enumerate() {
                *v = match i % 4 {
                    0 => m,                                       // the width's maximum
                    1 => 0,                                       // zeros interleaved
                    2 => m / 2,                                   // a middle value
                    _ => (i as u32).wrapping_mul(2654435761) & m, // scrambled
                };
            }
            for count in [1usize, 2, 31, 32, 33, 100, LANES] {
                let mut buf = Vec::new();
                pack(&values, count, width, &mut buf);
                assert_eq!(buf.len(), packed_bytes(width, count), "w={width} n={count}");
                let mut back = [u32::MAX; LANES];
                let consumed = unpack(&buf, width, count, &mut back);
                assert_eq!(consumed, buf.len());
                assert_eq!(&back[..count], &values[..count], "w={width} n={count}");
                assert!(
                    back[count..].iter().all(|&v| v == 0),
                    "w={width} n={count}: missing lanes must decode to zero"
                );
            }
        }
    }

    #[test]
    fn width_zero_is_free_and_unpacks_to_zeros() {
        let values = [0u32; LANES];
        let mut buf = Vec::new();
        pack(&values, LANES, 0, &mut buf);
        assert!(buf.is_empty());
        let mut back = [7u32; LANES];
        assert_eq!(unpack(&[], 0, LANES, &mut back), 0);
        assert_eq!(back, [0u32; LANES]);
    }

    #[test]
    fn max_values_at_full_width_roundtrip() {
        let values = [u32::MAX; LANES];
        let mut buf = Vec::new();
        pack(&values, LANES, 32, &mut buf);
        assert_eq!(buf.len(), 512);
        let mut back = [0u32; LANES];
        unpack(&buf, 32, LANES, &mut back);
        assert_eq!(back, values);
    }

    #[test]
    fn unpack_ignores_trailing_bytes() {
        // A frame followed by unrelated stream bytes (the real layout:
        // ids, then tfs, then lengths, then position payloads).
        let values: [u32; LANES] = std::array::from_fn(|i| (i as u32) & 0x1f);
        let mut buf = Vec::new();
        pack(&values, LANES, 5, &mut buf);
        let frame_len = buf.len();
        buf.extend_from_slice(&[0xab; 100]);
        let mut back = [0u32; LANES];
        assert_eq!(unpack(&buf, 5, LANES, &mut back), frame_len);
        assert_eq!(back, values);
    }

    #[test]
    fn short_frames_zero_their_final_word_padding() {
        // 3 values at width 20 = 60 bits → 2 words; the top 4 bits of the
        // second word are padding and must be zero.
        let values = [0xf_ffffu32; LANES];
        let mut buf = Vec::new();
        pack(&values, 3, 20, &mut buf);
        assert_eq!(buf.len(), 8);
        let last = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        assert_eq!(last >> 28, 0, "final-word padding bits must be zero");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(ftsl_testkit::prop_cases(256)))]

        /// Random frames at random widths and lengths round-trip
        /// bit-exactly, including all-zero runs (width 0) and full-range
        /// ids (width 32).
        #[test]
        fn prop_roundtrip(width in 0u8..33, count in 1usize..129, seed in any::<u64>()) {
            let m = mask(width);
            let mut state = seed | 1;
            let mut values = [0u32; LANES];
            for v in values.iter_mut().take(count) {
                // xorshift64* keeps the test independent of the rand stub.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                *v = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as u32 & m;
            }
            let mut buf = Vec::new();
            pack(&values, count, width, &mut buf);
            prop_assert_eq!(buf.len(), packed_bytes(width, count));
            let mut back = [0u32; LANES];
            prop_assert_eq!(unpack(&buf, width, count, &mut back), buf.len());
            prop_assert_eq!(&back[..count], &values[..count]);
            prop_assert!(back[count..].iter().all(|&v| v == 0));
        }

        /// The declared width always covers the frame maximum.
        #[test]
        fn prop_width_for_is_sufficient(v in any::<u32>()) {
            let w = width_for(v);
            prop_assert!(w <= 32);
            if w < 32 {
                prop_assert!(u64::from(v) < 1u64 << w);
            }
            if w > 0 {
                prop_assert!(u64::from(v) >= 1u64 << (w - 1));
            }
        }
    }
}
