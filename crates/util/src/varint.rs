//! LEB128 variable-length integers — the WAL's length-prefix framing.
//!
//! Unsigned little-endian base-128: seven payload bits per byte, high
//! bit set on every byte except the last. Small record lengths (the
//! common case: one protocol line) cost one or two bytes; the encoding
//! caps at ten bytes for the full `u64` range. Decoding is defensive —
//! a truncated prefix reports [`VarintError::Truncated`] (the torn-tail
//! signal recovery relies on) and an over-long or overflowing encoding
//! reports [`VarintError::Overflow`] instead of wrapping silently.

/// Maximum encoded size of a `u64` (⌈64 / 7⌉ bytes).
pub const MAX_LEN: usize = 10;

/// Why a decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended before the terminating byte — a torn write.
    Truncated,
    /// More than [`MAX_LEN`] bytes, or payload bits beyond 64.
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "varint truncated"),
            VarintError::Overflow => write!(f, "varint overflows u64"),
        }
    }
}

/// Append the LEB128 encoding of `v` to `out`, returning the number of
/// bytes written.
pub fn encode_u64(mut v: u64, out: &mut Vec<u8>) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 `u64` from the front of `buf`, returning the value
/// and the number of bytes consumed.
pub fn decode_u64(buf: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut value: u64 = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_LEN {
            return Err(VarintError::Overflow);
        }
        let payload = u64::from(byte & 0x7F);
        // The tenth byte may only carry the one remaining bit.
        if i == MAX_LEN - 1 && payload > 1 {
            return Err(VarintError::Overflow);
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    Err(VarintError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, Gen};

    fn round_trip(v: u64) -> (u64, usize) {
        let mut buf = Vec::new();
        let written = encode_u64(v, &mut buf);
        assert_eq!(written, buf.len());
        let (back, read) = decode_u64(&buf).unwrap();
        assert_eq!(read, buf.len());
        (back, read)
    }

    #[test]
    fn encodes_known_values() {
        for (v, bytes) in [
            (0u64, vec![0x00]),
            (1, vec![0x01]),
            (127, vec![0x7F]),
            (128, vec![0x80, 0x01]),
            (300, vec![0xAC, 0x02]),
            (16_383, vec![0xFF, 0x7F]),
            (16_384, vec![0x80, 0x80, 0x01]),
            (u64::MAX, vec![0xFF; 9].into_iter().chain([0x01]).collect()),
        ] {
            let mut out = Vec::new();
            encode_u64(v, &mut out);
            assert_eq!(out, bytes, "encoding of {v}");
        }
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_u64(&buf[..cut]), Err(VarintError::Truncated), "cut {cut}");
        }
    }

    #[test]
    fn overlong_and_overflowing_encodings_are_rejected() {
        // Eleven continuation bytes: over MAX_LEN.
        assert_eq!(decode_u64(&[0x80; 11]), Err(VarintError::Overflow));
        // Ten bytes whose last carries more than the final bit.
        let mut too_big = vec![0xFF; 9];
        too_big.push(0x02);
        assert_eq!(decode_u64(&too_big), Err(VarintError::Overflow));
    }

    #[test]
    fn prop_round_trip_is_lossless() {
        use crate::{prop_ensure, prop_ensure_eq};
        check("varint_round_trip", 300, &[], |g: &mut Gen| {
            // Bias across magnitudes so every encoded length is hit.
            let bits = g.usize_in(0..64);
            let v = g.u64_in(0..u64::MAX) >> bits;
            let (back, len) = round_trip(v);
            prop_ensure_eq!(back, v);
            prop_ensure!((1..=MAX_LEN).contains(&len), "len {len}");
            // Decoding ignores trailing garbage.
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            buf.extend_from_slice(&[0xAB, 0xCD]);
            let (again, read) =
                decode_u64(&buf).map_err(|e| format!("decode failed: {e}"))?;
            prop_ensure_eq!(again, v);
            prop_ensure_eq!(read, len);
            Ok(())
        });
    }
}
