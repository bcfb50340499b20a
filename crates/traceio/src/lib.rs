//! Trace I/O: the versioned `.altr` binary record/replay format.
//!
//! Every workload in the reproduction is synthesized in-process; this crate
//! makes those access streams (and external ones) *persistent*. A recorded
//! trace is an immutable on-disk artifact that replays bit-identically into
//! the simulator, so selection results can be shared, archived, diffed and —
//! because [`TraceReader::source`] yields an ordinary
//! [`alecto_types::TraceSource`] — driven through `System::run_sources`, the
//! `traces::Suite` registry (the `file:<path>` scheme) and every existing
//! experiment unchanged.
//!
//! The codec is hand-rolled (crates.io is unreachable in this environment):
//! records are delta-encoded per block and written as zigzag/LEB128 varints
//! ([`varint`]), framed into independently decodable blocks behind a fixed
//! header carrying the benchmark name, generation seed, record count and an
//! FNV-1a64 body checksum ([`mod@format`]). Sequential access streams compress
//! to a few bytes per record; even pointer-chase streams stay well under the
//! 24 bytes a raw in-memory record occupies on 64-bit targets
//! (`size_of::<MemoryRecord>()`, which `trace info` prints).
//!
//! The header's body checksum is also the trace's *identity*: sources minted
//! by [`TraceReader::source`] fold it (plus the recorded seed) into their
//! [`alecto_types::TraceSource::fingerprint`], which is how the harness's
//! cell cache and sweep server recognise a `file:` trace by content rather
//! than by path — see `docs/PROTOCOL.md` for the full key derivation.
//!
//! # Example
//!
//! ```
//! use alecto_types::{MemoryRecord, Pc, Addr};
//! use std::io::Cursor;
//!
//! let records: Vec<MemoryRecord> =
//!     (0..100).map(|i| MemoryRecord::load(Pc::new(0x40), Addr::new(i * 64), 3)).collect();
//! let mut writer =
//!     traceio::TraceWriter::new(Cursor::new(Vec::new()), "stream", true, 7).unwrap();
//! writer.write_all(records.iter().copied()).unwrap();
//! writer.finish().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod champsim;
pub mod format;
pub mod reader;
pub mod varint;
pub mod writer;

pub use champsim::{import_text, ImportError};
pub use format::{TraceHeader, DEFAULT_BLOCK_RECORDS, FORMAT_VERSION, MAGIC};
pub use reader::{decode_document, file_source, RecordDecoder, TraceReader, TraceStats};
pub use writer::{record_source, TraceWriter};

/// The benchmark-spec prefix that resolves to a file-backed trace in the
/// `traces::Suite` registry and the CLI: `file:<path>`.
pub const FILE_SCHEME: &str = "file:";

/// Splits a `file:<path>` benchmark spec into its path, if it uses the
/// scheme.
#[must_use]
pub fn file_spec_path(spec: &str) -> Option<&std::path::Path> {
    spec.strip_prefix(FILE_SCHEME).map(std::path::Path::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{fnv1a_64, Addr, MemoryRecord, Pc, FNV1A_OFFSET};
    use std::io::Cursor;

    fn sample_records(n: u64) -> Vec<MemoryRecord> {
        (0..n)
            .map(|i| {
                let pc = Pc::new(0x400 + (i % 7) * 4);
                let addr = Addr::new(i.wrapping_mul(0x9e37_79b9) % (1 << 34));
                match i % 3 {
                    0 => MemoryRecord::load(pc, addr, (i % 50) as u32),
                    1 => MemoryRecord::store(pc, addr, 1),
                    _ => MemoryRecord::dependent_load(pc, addr, 0),
                }
            })
            .collect()
    }

    fn encode(records: &[MemoryRecord], block: usize) -> Vec<u8> {
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "t", false, 9)
            .unwrap()
            .with_block_records(block);
        writer.write_all(records.iter().copied()).unwrap();
        let (count, cursor) = writer.finish_into_inner().unwrap();
        assert_eq!(count, records.len() as u64);
        cursor.into_inner()
    }

    #[test]
    fn in_memory_round_trip_across_block_sizes() {
        let records = sample_records(300);
        for block in [1usize, 7, 100, 300, 4096] {
            let bytes = encode(&records, block);
            let (header, decoded) = decode_document(&bytes).unwrap();
            assert_eq!(header.name, "t");
            assert_eq!(header.seed, 9);
            assert_eq!(header.record_count, 300);
            assert_eq!(decoded, records, "block size {block}");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode(&[], 16);
        let (header, decoded) = decode_document(&bytes).unwrap();
        assert_eq!(header.record_count, 0);
        assert!(decoded.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let records = sample_records(64);
        let bytes = encode(&records, 16);
        // Flip one payload byte: either the decode fails outright or the
        // checksum catches it.
        let mut corrupt = bytes.clone();
        let target = bytes.len() - 3;
        corrupt[target] ^= 0x40;
        assert!(decode_document(&corrupt).is_err(), "flipped byte must not decode cleanly");
        // Truncation is detected.
        assert!(decode_document(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage is detected.
        let mut padded = bytes;
        padded.push(0);
        assert!(decode_document(&padded).is_err());
    }

    #[test]
    fn sequential_streams_compress_far_below_raw_size() {
        let records: Vec<MemoryRecord> =
            (0..4096u64).map(|i| MemoryRecord::load(Pc::new(0x40), Addr::new(i * 64), 3)).collect();
        let bytes = encode(&records, DEFAULT_BLOCK_RECORDS);
        // pc delta 0 (1 B), addr delta 64 → zigzag 128 (2 B), gap 3 (1 B):
        // four bytes per steady-state record, well under the 24-byte
        // in-memory representation.
        let per_record = bytes.len() as f64 / records.len() as f64;
        assert!(per_record < 4.5, "sequential stream costs {per_record:.2} B/record");
    }

    /// Writes `bytes` to a fresh temporary file and opens it.
    fn reader_over(bytes: &[u8], tag: &str) -> (TraceReader, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!("traceio-{tag}-{}.altr", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        (TraceReader::open(&path).unwrap(), path)
    }

    /// Rewrites block 1's payload-length varint with `edit` and re-patches
    /// the header checksum over the edited body, so only the frame lies.
    fn edit_first_payload_len(bytes: &[u8], edit: impl FnOnce(u64) -> u64) -> Vec<u8> {
        let mut cursor = Cursor::new(bytes);
        let header = TraceHeader::decode(&mut cursor).unwrap();
        let records = varint::decode_u64(&mut cursor).unwrap();
        let payload_len = varint::decode_u64(&mut cursor).unwrap();
        let body = header.encoded_len() as usize;
        let mut edited = bytes[..body].to_vec();
        varint::encode_u64(records, &mut edited);
        varint::encode_u64(edit(payload_len), &mut edited);
        edited.extend_from_slice(&bytes[cursor.position() as usize..]);
        let checksum = fnv1a_64(FNV1A_OFFSET, &edited[body..]);
        let at = header.count_offset() as usize + 8;
        edited[at..at + 8].copy_from_slice(&checksum.to_le_bytes());
        edited
    }

    #[test]
    fn stats_walks_and_localises_corruption() {
        let records = sample_records(100);
        let bytes = encode(&records, 16); // 6 full blocks + 1 partial
        let (reader, path) = reader_over(&bytes, "walk");
        assert_eq!(reader.stats().unwrap().blocks, 7);

        // A flipped payload byte either breaks a block's structure or the
        // body checksum; both errors name blocks.
        let mut corrupt = bytes.clone();
        let target = bytes.len() - 3;
        corrupt[target] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        let err = reader.stats().unwrap_err().to_string();
        assert!(err.contains("block"), "{err}");

        // Truncation is pinned to the block where the walk ran dry.
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let err = reader.stats().unwrap_err().to_string();
        assert!(err.starts_with("block 7:"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_payload_length_its_records_do_not_use_is_rejected() {
        let bytes = encode(&sample_records(100), 16);
        let longer = edit_first_payload_len(&bytes, |len| len + 1);
        assert_eq!(longer.len(), bytes.len(), "the edit keeps the varint width");
        let err = decode_document(&longer).unwrap_err().to_string();
        assert!(err.starts_with("block 1:"), "{err}");
        let (reader, path) = reader_over(&longer, "longer");
        let err = reader.stats().unwrap_err().to_string();
        assert!(err.starts_with("block 1:"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_huge_payload_length_is_an_error_not_an_allocation() {
        let bytes = encode(&sample_records(100), 16);
        let huge = edit_first_payload_len(&bytes, |_| 1 << 44);
        let (reader, path) = reader_over(&huge, "huge");
        let err = reader.stats().unwrap_err().to_string();
        assert!(err.starts_with("block 1:"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_spec_path_strips_the_scheme() {
        assert_eq!(file_spec_path("file:/tmp/a.altr").unwrap().to_str(), Some("/tmp/a.altr"));
        assert!(file_spec_path("mcf").is_none());
    }
}
