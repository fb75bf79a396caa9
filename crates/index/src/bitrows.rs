//! Fixed-width bit-packed rows with random access: the resident form of
//! the word-pair index's per-key fields, CSR starts and coverage bitmap
//! ([`crate::pair`]).
//!
//! A table of `N`-field rows gives every field a fixed bit width
//! (`0..=32`), chosen when the table is made from a bound on or the maximum
//! of the values the field will hold, and lays its rows back to back in one
//! byte stream, in the little-endian bit order of [`crate::bitpack`]: field
//! `f` of row `i` occupies bits `[i·row + at_f, i·row + at_f + width_f)`,
//! where `row` is the sum of the widths, at most [`MAX_ROW`]. A field is
//! read with one unaligned `u64` load, a shift and a mask ([`read_bits`]);
//! the stream carries [`PAD`] zero bytes past its last row, so that load
//! never runs off its end. Bits past the last row are always zero, so an
//! appended row is ORed in with one store, and a one-bit table's packed
//! bytes are the persisted coverage bitmap as they stand.

use crate::bitpack::width_for;

/// Zero bytes kept past a table's last row: the one `u64` a read loads.
const PAD: usize = 8;

/// Widest row: one `u64` holds a row at any bit offset within its first
/// byte, so a row is written with one load and one store.
const MAX_ROW: u32 = 56;

/// The `width`-bit value (`width ≤ 32`) that starts at bit `bit` of
/// `bytes`, little-endian bit order: one unaligned `u64` load. `bytes` must
/// hold 8 bytes from `bit / 8` on.
#[inline]
fn read_bits(bytes: &[u8], bit: usize, width: u8) -> u32 {
    let at = bit / 8;
    let word = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    ((word >> (bit % 8)) & ((1u64 << width) - 1)) as u32
}

/// Store `value` (which fits `width ≤ 32` bits) at bit `bit` of `bytes`,
/// as [`read_bits`] reads it.
#[inline]
fn write_bits(bytes: &mut [u8], bit: usize, width: u8, value: u32) {
    let (at, shift) = (bit / 8, bit % 8);
    let slot: &mut [u8; 8] = (&mut bytes[at..at + 8]).try_into().expect("8 bytes");
    let mask = ((1u64 << width) - 1) << shift;
    let word = (u64::from_le_bytes(*slot) & !mask) | (u64::from(value) << shift);
    *slot = word.to_le_bytes();
}

/// A table of rows of `N` fixed-width unsigned fields (see the module
/// docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BitRows<const N: usize> {
    /// The packed rows, then zero bytes: room for the rows the table was
    /// sized for, and at least [`PAD`] (empty for a table made by
    /// `default` that holds no row).
    bytes: Vec<u8>,
    widths: [u8; N],
    /// Bit offset of each field inside a row.
    at: [u32; N],
    /// Bits per row: the sum of `widths`.
    row: u32,
    len: usize,
}

impl<const N: usize> Default for BitRows<N> {
    fn default() -> Self {
        BitRows {
            bytes: Vec::new(),
            widths: [0; N],
            at: [0; N],
            row: 0,
            len: 0,
        }
    }
}

impl<const N: usize> BitRows<N> {
    /// An empty table of rows whose fields are `widths` bits wide, with
    /// room for `rows` rows.
    ///
    /// # Panics
    /// Panics if a width exceeds 32, or a row [`MAX_ROW`] bits.
    pub(crate) fn with_capacity(widths: [u8; N], rows: usize) -> Self {
        assert!(widths.iter().all(|&w| w <= 32), "field widths {widths:?}");
        let mut at = [0u32; N];
        let mut row = 0u32;
        for (at, &width) in at.iter_mut().zip(&widths) {
            *at = row;
            row += u32::from(width);
        }
        assert!(row <= MAX_ROW, "{row}-bit rows");
        BitRows {
            bytes: vec![0; (rows * row as usize).div_ceil(8) + PAD],
            widths,
            at,
            row,
            len: 0,
        }
    }

    /// A table of `rows` rows, every field 0.
    pub(crate) fn zeroed(widths: [u8; N], rows: usize) -> Self {
        let mut table = Self::with_capacity(widths, rows);
        table.len = rows;
        table
    }

    /// The table of `rows` rows whose packed bytes are `packed`, every bit
    /// past the last row zero (as [`Self::packed`] gives them).
    ///
    /// # Panics
    /// Panics if `packed` is not the length `rows` rows pack to.
    pub(crate) fn from_packed(widths: [u8; N], rows: usize, packed: &[u8]) -> Self {
        let mut table = Self::zeroed(widths, rows);
        assert_eq!(
            packed.len(),
            table.packed_len(rows),
            "packed bytes of {rows} rows"
        );
        table.bytes[..packed.len()].copy_from_slice(packed);
        table
    }

    /// Bytes `rows` rows pack to.
    fn packed_len(&self, rows: usize) -> usize {
        (rows * self.row as usize).div_ceil(8)
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bits per row.
    pub(crate) fn row_bits(&self) -> u32 {
        self.row
    }

    /// Field `field` of row `row`.
    #[inline]
    pub(crate) fn get(&self, row: usize, field: usize) -> u32 {
        debug_assert!(row < self.len, "row {row} of {}", self.len);
        let bit = row * self.row as usize + self.at[field] as usize;
        read_bits(&self.bytes, bit, self.widths[field])
    }

    /// Set field `field` of row `row` to `value`, which must fit its width.
    pub(crate) fn set(&mut self, row: usize, field: usize, value: u32) {
        debug_assert!(row < self.len && width_for(value) <= self.widths[field]);
        let bit = row * self.row as usize + self.at[field] as usize;
        write_bits(&mut self.bytes, bit, self.widths[field], value);
    }

    /// Append a row. Refuses, appending nothing, a value wider than its
    /// field. Past the rows the table was sized for, its bytes grow by
    /// doubling.
    #[inline]
    pub(crate) fn push(&mut self, fields: [u32; N]) -> Result<(), &'static str> {
        self.check(fields)?;
        let row = self.len;
        self.grow_to(row + 1);
        self.write_row(row, fields);
        Ok(())
    }

    /// [`Self::push`] copies of `fields` until the table holds `rows`
    /// rows. A run is written a row at a time only up to a multiple of 8
    /// rows, where a row starts on a byte: from there every 8 rows are the
    /// same `row` bytes, which are copied. Each row write loads the word
    /// the previous one stored, so a long run written row by row stalls on
    /// every row: a 32-document seal over an 18 000-token vocabulary, whose
    /// CSR `starts` are such runs, was slower that way in 6 of 6
    /// alternating rounds of 400 seals (the rounds' median seal: 1.79 ms
    /// in the median round, against 1.62 ms with the copy).
    pub(crate) fn extend_to(&mut self, rows: usize, fields: [u32; N]) -> Result<(), &'static str> {
        self.check(fields)?;
        let from = self.len;
        if rows <= from {
            return Ok(());
        }
        self.grow_to(rows);
        let first = from.next_multiple_of(8).min(rows);
        (from..first).for_each(|row| self.write_row(row, fields));
        let blocks = (rows - first) / 8;
        if blocks > 0 {
            (first..first + 8).for_each(|row| self.write_row(row, fields));
            let block = self.row as usize;
            let (start, end) = (first / 8 * block, (first / 8 + blocks) * block);
            let mut filled = start + block;
            while filled < end {
                let n = (filled - start).min(end - filled);
                self.bytes.copy_within(start..start + n, filled);
                filled += n;
            }
        }
        (first + 8 * blocks..rows).for_each(|row| self.write_row(row, fields));
        Ok(())
    }

    /// Refuse a value wider than its field.
    #[inline]
    fn check(&self, fields: [u32; N]) -> Result<(), &'static str> {
        let wide = (fields.iter().zip(&self.widths)).any(|(&v, &w)| u64::from(v) >> w != 0);
        if wide {
            return Err("value wider than its packed row field");
        }
        Ok(())
    }

    /// Make the table `rows` rows long, the new ones zero, growing its
    /// bytes by doubling when they run out.
    #[inline]
    fn grow_to(&mut self, rows: usize) {
        let need = self.packed_len(rows) + PAD;
        if need > self.bytes.len() {
            self.bytes.resize(need.max(2 * self.bytes.len()), 0);
        }
        self.len = rows;
    }

    /// Store row `row`, whose bits are still zero, as `fields`: the whole
    /// row in one word, shifted by at most 7 bits, so one store.
    #[inline]
    fn write_row(&mut self, row: usize, fields: [u32; N]) {
        let word = (fields.iter().zip(&self.at)).fold(0, |w, (&v, &at)| w | u64::from(v) << at);
        let bit = row * self.row as usize;
        let slot: &mut [u8; 8] = (&mut self.bytes[bit / 8..][..8])
            .try_into()
            .expect("8 bytes");
        *slot = (u64::from_le_bytes(*slot) | word << (bit % 8)).to_le_bytes();
    }

    /// The packed rows, without the padding.
    pub(crate) fn packed(&self) -> &[u8] {
        &self.bytes[..self.packed_len(self.len)]
    }

    /// Drop the room past the last row but the padding.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.truncate(self.packed_len(self.len) + PAD);
        self.bytes.shrink_to_fit();
    }

    /// Heap bytes held.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.bytes.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_read_back_at_every_width() {
        for width in 0..=32u8 {
            let max = if width == 0 {
                0
            } else {
                u32::MAX >> (32 - width)
            };
            let values: Vec<u32> = (0..200u32)
                .map(|i| match i % 3 {
                    0 => max,
                    1 => 0,
                    _ => i.wrapping_mul(2_654_435_761) & max,
                })
                .collect();
            let mut rows = BitRows::with_capacity([width, 3], values.len());
            for (i, &v) in values.iter().enumerate() {
                rows.push([v, i as u32 % 8]).expect("fits");
            }
            assert_eq!(rows.row_bits(), u32::from(width) + 3);
            assert_eq!(rows.resident_bytes(), rows.packed().len() + PAD);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    (rows.get(i, 0), rows.get(i, 1)),
                    (v, i as u32 % 8),
                    "w {width}"
                );
            }
            if width < 32 {
                assert!(rows.push([max + 1, 0]).is_err());
                assert_eq!(rows.len(), values.len());
            }
        }
    }

    #[test]
    fn the_widest_rows_read_back() {
        // 56-bit rows start at every bit offset within a byte.
        let mut rows = BitRows::with_capacity([32, 17, 7], 0);
        let row = |i: u32| [u32::MAX - i, i.wrapping_mul(2_654_435_761) >> 15, i % 128];
        for i in 0..100 {
            rows.push(row(i)).expect("fits");
        }
        assert_eq!(rows.row_bits(), MAX_ROW);
        for i in 0..100u32 {
            let got = [0, 1, 2].map(|f| rows.get(i as usize, f));
            assert_eq!(got, row(i));
        }
    }

    #[test]
    #[should_panic(expected = "57-bit rows")]
    fn rows_past_one_word_store_are_refused() {
        BitRows::<2>::with_capacity([32, 25], 0);
    }

    #[test]
    fn long_runs_read_back_as_pushed_rows() {
        for width in [0u8, 1, 3, 7, 8, 13, 20, 32] {
            let max = if width == 0 {
                0
            } else {
                u32::MAX >> (32 - width)
            };
            for (from, to) in [(0, 100), (3, 4), (3, 19), (5, 200), (8, 72), (0, 15)] {
                let (mut runs, mut pushed) = (
                    BitRows::with_capacity([width], 0),
                    BitRows::with_capacity([width], 0),
                );
                let value = 0x9e37_79b9 & max;
                runs.extend_to(from, [max]).expect("fits");
                runs.extend_to(to, [value]).expect("fits");
                for row in 0..to {
                    pushed
                        .push([if row < from { max } else { value }])
                        .expect("fits");
                }
                assert_eq!(runs.packed(), pushed.packed(), "w {width} {from}..{to}");
                assert_eq!(runs.len(), to);
            }
        }
    }

    #[test]
    fn one_bit_rows_are_a_little_endian_bitmap() {
        let mut bits = BitRows::zeroed([1], 11);
        for i in [0, 3, 8, 10] {
            bits.set(i, 0, 1);
        }
        assert_eq!(bits.packed(), &[0b0000_1001, 0b0000_0101]);
        let back = BitRows::from_packed([1], 11, bits.packed());
        assert_eq!(back, bits);
        bits.set(3, 0, 0);
        assert_eq!(bits.get(3, 0), 0);
        assert_eq!(bits.packed()[0], 0b0000_0001);
    }
}
