//! LEB128 variable-length integer coding.
//!
//! The block-compressed posting layout ([`crate::block`]) stores node-id and
//! position deltas as unsigned LEB128 varints: 7 value bits per byte, high
//! bit set on every byte except the last. Small deltas — the common case by
//! construction, since both node ids and offsets are sorted — take one byte.

/// Append `v` to `out` as an unsigned LEB128 varint (1–5 bytes).
#[inline]
pub fn put_u32(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a varint at `*pos`, advancing `*pos` past it. Returns `None` on
/// truncated input or a value that does not fit in a `u32`.
///
/// The one-byte case — the overwhelming majority for sorted deltas — is an
/// explicit fast path; the multi-byte continuation lives out of line so the
/// hot decode loops stay small.
#[inline]
pub fn get_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    let byte = *data.get(*pos)?;
    *pos += 1;
    if byte & 0x80 == 0 {
        return Some(u32::from(byte));
    }
    get_u32_tail(data, pos, u32::from(byte & 0x7f))
}

/// Continuation of [`get_u32`] past the first byte.
#[cold]
fn get_u32_tail(data: &[u8], pos: &mut usize, first: u32) -> Option<u32> {
    let mut v: u32 = first;
    let mut shift = 7u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        let low = (byte & 0x7f) as u32;
        if shift >= 32 || (shift == 28 && low > 0x0f) {
            return None;
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip_boundaries() {
        let cases = [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            0x1f_ffff,
            0x20_0000,
            u32::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            buf.clear();
            put_u32(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u32(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_and_overlong_inputs_fail() {
        let mut pos = 0;
        assert_eq!(get_u32(&[0x80], &mut pos), None); // truncated
        let mut pos = 0;
        assert_eq!(get_u32(&[0x80, 0x80, 0x80, 0x80, 0x7f], &mut pos), None); // > u32
        let mut pos = 0;
        assert_eq!(get_u32(&[], &mut pos), None);
    }

    #[test]
    fn sequential_values_pack_densely() {
        let mut buf = Vec::new();
        for v in 0u32..300 {
            put_u32(&mut buf, v);
        }
        let mut pos = 0;
        for v in 0u32..300 {
            assert_eq!(get_u32(&buf, &mut pos), Some(v));
        }
        // 128 one-byte values + 172 two-byte values.
        assert_eq!(buf.len(), 128 + 172 * 2);
    }
}
