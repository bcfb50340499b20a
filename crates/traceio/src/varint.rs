//! LEB128 variable-length integers and the zigzag signed mapping.
//!
//! The `.altr` record codec stores almost everything as unsigned LEB128:
//! small values (the common case after delta encoding) cost one byte, and a
//! full 64-bit value costs at most ten. Signed deltas go through the zigzag
//! mapping first so that small *negative* deltas — backwards strides, the
//! return edge of a pointer chase — stay small on the wire too.

use std::io::{self, Read};

/// Maximum encoded size of a `u64` LEB128 varint, in bytes.
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends the zigzag-LEB128 encoding of `value` to `out`.
pub fn encode_i64(value: i64, out: &mut Vec<u8>) {
    encode_u64(zigzag(value), out);
}

/// Maps a signed value to the zigzag unsigned space (0, -1, 1, -2, ... →
/// 0, 1, 2, 3, ...), keeping small-magnitude values small.
#[must_use]
pub const fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub const fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Reads one LEB128 varint from `reader`.
///
/// # Errors
///
/// Returns [`io::ErrorKind::UnexpectedEof`] on a truncated varint and
/// [`io::ErrorKind::InvalidData`] when the encoding exceeds ten bytes or
/// overflows 64 bits (both impossible for writer-produced streams).
pub fn decode_u64<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        let byte = byte[0];
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflows u64"));
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint longer than 10 bytes"));
        }
    }
}

/// Reads one zigzag-LEB128 signed varint from `reader`.
///
/// # Errors
///
/// Propagates the [`decode_u64`] error conditions.
pub fn decode_i64<R: Read>(reader: &mut R) -> io::Result<i64> {
    decode_u64(reader).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_u64(value: u64) -> usize {
        let mut buf = Vec::new();
        encode_u64(value, &mut buf);
        let decoded = decode_u64(&mut Cursor::new(&buf)).expect("decode");
        assert_eq!(decoded, value);
        buf.len()
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0..128u64 {
            assert_eq!(round_trip_u64(v), 1);
        }
        assert_eq!(round_trip_u64(128), 2);
    }

    #[test]
    fn boundary_values_round_trip() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            round_trip_u64(v);
        }
        assert_eq!(round_trip_u64(u64::MAX), MAX_VARINT_BYTES);
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [0i64, -1, 1, -300, 300, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            encode_i64(v, &mut buf);
            assert_eq!(decode_i64(&mut Cursor::new(&buf)).unwrap(), v);
        }
    }

    #[test]
    fn truncated_and_overlong_inputs_error() {
        // Truncated: continuation bit set but no next byte.
        assert!(decode_u64(&mut Cursor::new(&[0x80u8])).is_err());
        assert!(decode_u64(&mut Cursor::new(&[] as &[u8])).is_err());
        // Overlong: eleven continuation bytes.
        let overlong = [0x80u8; 11];
        assert!(decode_u64(&mut Cursor::new(&overlong)).is_err());
        // Overflow: a tenth byte carrying more than one bit.
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(decode_u64(&mut Cursor::new(&overflow)).is_err());
    }
}
