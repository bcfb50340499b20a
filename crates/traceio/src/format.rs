//! The `.altr` container layout: magic, versioned header, block framing.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ALTR"
//! 4       2     format version (u16 LE, currently 1)
//! 6       1     flags (bit 0: memory_intensive)
//! 7       1     benchmark name length L (bytes)
//! 8       L     benchmark name (UTF-8)
//! 8+L     8     generation seed (u64 LE; 0 for imported traces)
//! 16+L    8     record count (u64 LE, patched on finish)
//! 24+L    8     FNV-1a64 checksum of every byte after the header
//!               (u64 LE, patched on finish)
//! 32+L    ...   blocks
//! ```
//!
//! Each block is `varint(records)`, `varint(payload bytes)`, payload. Within
//! a block every record is three varints — `zigzag(pc delta)`,
//! `zigzag(addr delta)`, `gap_instructions << 2 | store << 1 | dependent` —
//! where deltas are taken against the previous record *of the block* (the
//! first record of a block is delta'd against zero), so any block can be
//! decoded without its predecessors. That independence is what future
//! sharded replays will key on.
//!
//! # Versioning policy
//!
//! Any change to the byte layout — header fields, block framing, record
//! encoding — must bump [`FORMAT_VERSION`]. Readers reject versions they do
//! not know with an error naming both versions; old files are never silently
//! reinterpreted. The committed golden fixture (`tests/fixtures/`) pins the
//! current layout byte for byte.

use std::io::{self, Read};

use crate::varint;

/// The four magic bytes opening every `.altr` file.
pub const MAGIC: [u8; 4] = *b"ALTR";

/// Current format version. Bump on any byte-layout change (see the module
/// docs for the policy).
pub const FORMAT_VERSION: u16 = 1;

/// Records per block the writer targets (the last block of a trace is
/// usually shorter). 4096 three-varint records keep blocks comfortably
/// inside L2 while amortising the framing overhead to noise.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// The decoded fixed header of an `.altr` trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Benchmark name the trace was recorded under.
    pub name: String,
    /// Whether the paper counts the benchmark as memory intensive.
    pub memory_intensive: bool,
    /// Seed the generator derived the trace from (0 for imported traces).
    pub seed: u64,
    /// Number of records in the trace.
    pub record_count: u64,
    /// FNV-1a64 checksum ([`alecto_types::fnv1a_64`]) over every byte
    /// following the header.
    pub checksum: u64,
}

impl TraceHeader {
    /// Total encoded header size in bytes for this name.
    #[must_use]
    pub fn encoded_len(&self) -> u64 {
        8 + self.name.len() as u64 + 24
    }

    /// Byte offset of the `record_count` field (the first patched field;
    /// `checksum` follows eight bytes later).
    #[must_use]
    pub fn count_offset(&self) -> u64 {
        8 + self.name.len() as u64 + 8
    }

    /// Serialises the header.
    ///
    /// # Panics
    ///
    /// Panics if the name exceeds 255 bytes; [`crate::TraceWriter`] rejects
    /// such names with an error before reaching this point.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.name.len() <= u8::MAX as usize, "benchmark name longer than 255 bytes");
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(u8::from(self.memory_intensive));
        out.push(self.name.len() as u8);
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.record_count.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Reads and validates a header from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a bad magic, an unsupported
    /// version, a malformed name, or unknown flag bits, and propagates
    /// truncation as [`io::ErrorKind::UnexpectedEof`].
    pub fn decode<R: Read>(reader: &mut R) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut fixed = [0u8; 8];
        reader.read_exact(&mut fixed)?;
        if fixed[..4] != MAGIC {
            return Err(bad(format!(
                "not an .altr trace: magic {:02x?} (expected {:02x?} = \"ALTR\")",
                &fixed[..4],
                MAGIC
            )));
        }
        let version = u16::from_le_bytes([fixed[4], fixed[5]]);
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported .altr version {version} (this build reads version \
                 {FORMAT_VERSION}); re-record the trace or use a matching build"
            )));
        }
        let flags = fixed[6];
        if flags & !1 != 0 {
            return Err(bad(format!("unknown header flag bits {flags:#04x}")));
        }
        let name_len = usize::from(fixed[7]);
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name =
            String::from_utf8(name).map_err(|_| bad("benchmark name is not UTF-8".to_string()))?;
        let mut tail = [0u8; 24];
        reader.read_exact(&mut tail)?;
        let word = |i: usize| u64::from_le_bytes(tail[i..i + 8].try_into().expect("8 bytes"));
        Ok(Self {
            name,
            memory_intensive: flags & 1 != 0,
            seed: word(0),
            record_count: word(8),
            checksum: word(16),
        })
    }
}

/// The framing of one block: record count and payload length, both varints.
/// Only [`crate::RecordDecoder`] walks blocks, so this stays crate-private.
///
/// Returns `None` at a clean end of input (no more blocks).
///
/// # Errors
///
/// Propagates varint decode errors; a truncation *inside* the framing (after
/// its first byte) is an error, not a clean end.
pub(crate) fn read_block_frame<R: Read>(reader: &mut R) -> io::Result<Option<(u64, u64)>> {
    let mut first = [0u8; 1];
    match reader.read_exact(&mut first) {
        Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other?,
    }
    let records = if first[0] & 0x80 == 0 {
        u64::from(first[0])
    } else {
        // Re-join the already-consumed first byte with the rest of the varint.
        let mut chained = io::Read::chain(&first[..], reader.by_ref());
        varint::decode_u64(&mut chained)?
    };
    let payload_len = varint::decode_u64(reader)?;
    Ok(Some((records, payload_len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn header() -> TraceHeader {
        TraceHeader {
            name: "mcf".to_string(),
            memory_intensive: true,
            seed: 0xdead_beef,
            record_count: 42,
            checksum: 7,
        }
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(bytes.len() as u64, h.encoded_len());
        assert_eq!(TraceHeader::decode(&mut Cursor::new(&bytes)).unwrap(), h);
    }

    #[test]
    fn patched_field_offsets_line_up() {
        let h = header();
        let bytes = h.encode();
        let off = h.count_offset() as usize;
        assert_eq!(u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()), 42);
        assert_eq!(u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap()), 7);
    }

    #[test]
    fn bad_magic_version_and_flags_are_rejected() {
        let h = header();
        let mut bytes = h.encode();
        bytes[0] = b'X';
        assert!(TraceHeader::decode(&mut Cursor::new(&bytes)).is_err());

        let mut bytes = h.encode();
        bytes[4] = 99;
        let err = TraceHeader::decode(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        let mut bytes = h.encode();
        bytes[6] = 0x82;
        assert!(TraceHeader::decode(&mut Cursor::new(&bytes)).is_err());

        // Truncated name.
        let bytes = h.encode();
        assert!(TraceHeader::decode(&mut Cursor::new(&bytes[..9])).is_err());
    }

    #[test]
    fn block_frame_reads_and_signals_end() {
        let mut buf = Vec::new();
        varint::encode_u64(4096, &mut buf);
        varint::encode_u64(70_000, &mut buf);
        let mut cursor = Cursor::new(&buf);
        assert_eq!(read_block_frame(&mut cursor).unwrap(), Some((4096, 70_000)));
        assert_eq!(read_block_frame(&mut cursor).unwrap(), None);
        // One-byte (small) frames work through the fast path.
        let small = [3u8, 9u8];
        assert_eq!(read_block_frame(&mut Cursor::new(&small)).unwrap(), Some((3, 9)));
    }
}
