//! Streaming `.altr` trace reader and the file-backed [`TraceSource`]
//! adapter that lets recorded traces drop into `System::run_sources`, the
//! `Suite` registry and every existing experiment unchanged.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use alecto_types::{fnv1a_64, AccessKind, Addr, MemoryRecord, Pc, TraceSource, FNV1A_OFFSET};

use crate::format::{read_block_frame, TraceHeader};
use crate::varint;

/// Decodes the block stream following an already-consumed header; the only
/// code that walks the `.altr` block framing.
///
/// Each block's payload is read into one reused buffer, never longer than
/// the bytes the input actually holds whatever the frame claims, folded into
/// the running FNV-1a64 checksum and decoded from memory. Its records must
/// use exactly the framed payload length. Together with the last record the
/// header promises, the decoder checks that nothing follows the final block
/// and that the checksum matches the header's, withholding that record if
/// either fails, so every full pass verifies the whole file. Structural
/// errors start with `block N:` (1-based).
///
/// Yields `io::Result<MemoryRecord>`; after the first error the iterator
/// fuses to `None`.
#[derive(Debug)]
pub struct RecordDecoder<R: Read> {
    reader: R,
    /// Records the header promises that are not decoded yet.
    remaining: u64,
    /// The header's body checksum, checked at the end of the stream.
    expected_checksum: u64,
    checksum: u64,
    /// The current block's payload and the read offset into it.
    payload: Vec<u8>,
    offset: usize,
    /// Records in the current block, and how many of them are still to come.
    block_records: u64,
    block_remaining: u64,
    /// Blocks started so far, which is also the current block's number.
    blocks: u64,
    last_pc: u64,
    last_addr: u64,
    done: bool,
}

/// An `InvalidData` error naming the 1-based block it was found in.
fn in_block(block: u64, msg: impl Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("block {block}: {msg}"))
}

impl<R: Read> RecordDecoder<R> {
    /// Starts decoding the records `header` describes from `reader`,
    /// positioned at the first block frame.
    #[must_use]
    pub fn new(reader: R, header: &TraceHeader) -> Self {
        Self {
            reader,
            remaining: header.record_count,
            expected_checksum: header.checksum,
            checksum: FNV1A_OFFSET,
            payload: Vec::new(),
            offset: 0,
            block_records: 0,
            block_remaining: 0,
            blocks: 0,
            last_pc: 0,
            last_addr: 0,
            done: false,
        }
    }

    /// Blocks decoded so far: every block of the trace after a full pass.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Reads the next block's frame and payload.
    fn start_block(&mut self) -> io::Result<()> {
        self.blocks += 1;
        let block = self.blocks;
        let Some((records, payload_len)) =
            read_block_frame(&mut self.reader).map_err(|err| in_block(block, err))?
        else {
            let msg = format!("trace ends {} record(s) early (truncated file?)", self.remaining);
            return Err(in_block(block, msg));
        };
        if records == 0 {
            return Err(in_block(block, "empty block"));
        }
        if records > self.remaining {
            let excess = records - self.remaining;
            let msg = format!("block of {records} record(s) overruns the header count by {excess}");
            return Err(in_block(block, msg));
        }
        // Checksum the frame exactly as the writer emitted it by re-encoding
        // the two varints (canonical LEB128 is unique).
        self.payload.clear();
        varint::encode_u64(records, &mut self.payload);
        varint::encode_u64(payload_len, &mut self.payload);
        self.checksum = fnv1a_64(self.checksum, &self.payload);
        self.payload.clear();
        let read = self
            .reader
            .by_ref()
            .take(payload_len)
            .read_to_end(&mut self.payload)
            .map_err(|err| in_block(block, err))?;
        if read as u64 != payload_len {
            let msg = format!("payload of {payload_len} byte(s) is truncated after {read}");
            return Err(in_block(block, msg));
        }
        self.checksum = fnv1a_64(self.checksum, &self.payload);
        self.offset = 0;
        self.block_records = records;
        self.block_remaining = records;
        self.last_pc = 0;
        self.last_addr = 0;
        Ok(())
    }

    /// Decodes the next record, or, for a header promising no records, only
    /// runs the end-of-stream checks.
    fn step(&mut self) -> io::Result<Option<MemoryRecord>> {
        if self.remaining == 0 {
            self.finish()?;
            return Ok(None);
        }
        if self.block_remaining == 0 {
            self.start_block()?;
        }
        let block = self.blocks;
        let record = self.block_records - self.block_remaining + 1;
        let in_record = |msg: &dyn Display| in_block(block, format!("record {record}: {msg}"));
        let mut payload = &self.payload[self.offset..];
        let pc_delta = varint::decode_i64(&mut payload).map_err(|err| in_record(&err))?;
        let addr_delta = varint::decode_i64(&mut payload).map_err(|err| in_record(&err))?;
        let flags = varint::decode_u64(&mut payload).map_err(|err| in_record(&err))?;
        self.offset = self.payload.len() - payload.len();
        let gap = flags >> 2;
        let gap_instructions =
            u32::try_from(gap).map_err(|_| in_record(&format!("gap {gap} exceeds u32")))?;
        self.last_pc = self.last_pc.wrapping_add(pc_delta as u64);
        self.last_addr = self.last_addr.wrapping_add(addr_delta as u64);
        self.block_remaining -= 1;
        self.remaining -= 1;
        if self.block_remaining == 0 && self.offset != self.payload.len() {
            let undecoded = self.payload.len() - self.offset;
            let msg =
                format!("payload carries {undecoded} undecoded byte(s) after the last record");
            return Err(in_block(block, msg));
        }
        if self.remaining == 0 {
            self.finish()?;
        }
        Ok(Some(MemoryRecord {
            pc: Pc::new(self.last_pc),
            addr: Addr::new(self.last_addr),
            kind: if flags & 0b10 == 0 { AccessKind::Load } else { AccessKind::Store },
            gap_instructions,
            dependent: flags & 0b01 != 0,
        }))
    }

    /// The end-of-stream checks: nothing follows the last block, and the
    /// body hashes to the header's checksum.
    fn finish(&mut self) -> io::Result<()> {
        let blocks = self.blocks;
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut tail = [0u8; 1];
        if self.reader.read(&mut tail)? != 0 {
            return Err(invalid(format!("trailing bytes after {blocks} block(s)")));
        }
        if self.checksum != self.expected_checksum {
            return Err(invalid(format!(
                "body checksum mismatch over {blocks} block(s): blocks hash to {:#018x}, header \
                 says {:#018x} (corrupt or hand-edited trace)",
                self.checksum, self.expected_checksum
            )));
        }
        Ok(())
    }
}

impl<R: Read> Iterator for RecordDecoder<R> {
    type Item = io::Result<MemoryRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let step = self.step();
        self.done = step.is_err() || self.remaining == 0;
        step.transpose()
    }
}

/// Decodes and verifies an entire in-memory `.altr` document (header +
/// blocks). The eager counterpart of [`TraceReader`], used by tests and the
/// round-trip proptests.
///
/// # Errors
///
/// Returns any header, block, record or checksum error.
pub fn decode_document(bytes: &[u8]) -> io::Result<(TraceHeader, Vec<MemoryRecord>)> {
    let mut cursor = io::Cursor::new(bytes);
    let header = TraceHeader::decode(&mut cursor)?;
    let records = RecordDecoder::new(cursor, &header).collect::<io::Result<_>>()?;
    Ok((header, records))
}

/// Aggregate per-field statistics of one full decode pass, reported by
/// `alecto-harness trace info`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Blocks in the file.
    pub blocks: u64,
    /// Demand loads.
    pub loads: u64,
    /// Demand stores.
    pub stores: u64,
    /// Records flagged data-dependent on their predecessor (pointer chases).
    pub dependent: u64,
    /// Total instructions (memory accesses + gaps).
    pub instructions: u64,
    /// Largest single-record instruction gap.
    pub max_gap: u32,
    /// Distinct 4 KiB pages touched.
    pub touched_pages: u64,
    /// Lowest byte address accessed (0 for an empty trace).
    pub min_addr: u64,
    /// Highest byte address accessed (0 for an empty trace).
    pub max_addr: u64,
    /// Distinct PCs in the trace.
    pub distinct_pcs: u64,
}

impl TraceStats {
    /// Folds `record` into the running stats (page/PC sets folded by the
    /// caller, which owns the scratch sets).
    fn fold(&mut self, record: &MemoryRecord) {
        if record.kind.is_load() {
            self.loads += 1;
        } else {
            self.stores += 1;
        }
        self.dependent += u64::from(record.dependent);
        self.instructions += record.instructions();
        self.max_gap = self.max_gap.max(record.gap_instructions);
        self.min_addr = self.min_addr.min(record.addr.raw());
        self.max_addr = self.max_addr.max(record.addr.raw());
    }
}

/// A validated, file-backed `.altr` trace: the header plus the ability to
/// mint fresh record streams and a [`TraceSource`] view.
#[derive(Debug, Clone)]
pub struct TraceReader {
    path: PathBuf,
    header: TraceHeader,
}

impl TraceReader {
    /// Opens `path` and decodes its header. The body is *not* scanned here —
    /// use [`TraceReader::stats`] to verify the file eagerly. Sources minted
    /// by [`TraceReader::source`] verify it on every *full* replay (a replay
    /// capped below the recorded count never reaches the stream tail, so it
    /// checks the blocks it reads but not the final checksum).
    ///
    /// # Errors
    ///
    /// Returns file-open and header-format errors, each naming the path.
    pub fn open(path: &Path) -> io::Result<Self> {
        let in_file =
            |err: io::Error| io::Error::new(err.kind(), format!("{}: {err}", path.display()));
        let mut reader = BufReader::new(File::open(path).map_err(in_file)?);
        let header = TraceHeader::decode(&mut reader).map_err(in_file)?;
        Ok(Self { path: path.to_path_buf(), header })
    }

    /// The decoded header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The trace file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Starts one verifying decoding pass over the records.
    ///
    /// # Errors
    ///
    /// Returns file-open or header errors (the file is re-read from the
    /// start so concurrent passes are independent).
    pub fn records(&self) -> io::Result<RecordDecoder<BufReader<File>>> {
        let mut reader = BufReader::new(File::open(&self.path)?);
        TraceHeader::decode(&mut reader)?;
        Ok(RecordDecoder::new(reader, &self.header))
    }

    /// Decodes and verifies the whole trace once and returns the per-field
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns any decode or checksum error; structural ones name the
    /// 1-based block as `block N:`.
    pub fn stats(&self) -> io::Result<TraceStats> {
        let mut decoder = self.records()?;
        let mut stats = TraceStats { min_addr: u64::MAX, ..TraceStats::default() };
        let mut pages: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut pcs: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for record in &mut decoder {
            let record = record?;
            stats.fold(&record);
            pages.insert(record.addr.page().raw());
            pcs.insert(record.pc.raw());
        }
        if self.header.record_count == 0 {
            stats.min_addr = 0;
        }
        stats.blocks = decoder.blocks();
        stats.touched_pages = pages.len() as u64;
        stats.distinct_pcs = pcs.len() as u64;
        Ok(stats)
    }

    /// A lazy [`TraceSource`] replaying the file, optionally capped to the
    /// first `cap` records. Every replay re-opens the file; a file that is
    /// deleted or corrupted *between* `open` and a replay makes that replay
    /// panic with the underlying error (the experiment engine has no error
    /// channel inside a running cell), so validate first where that matters.
    #[must_use]
    pub fn source(&self, cap: Option<usize>) -> TraceSource {
        let count = usize::try_from(self.header.record_count).unwrap_or(usize::MAX);
        let accesses = cap.map_or(count, |c| c.min(count));
        let reader = Arc::new(self.clone());
        TraceSource::new(
            self.header.name.clone(),
            self.header.memory_intensive,
            accesses,
            move || {
                let display = reader.path.display().to_string();
                let decoder =
                    reader.records().unwrap_or_else(|err| panic!("replaying {display}: {err}"));
                Box::new(decoder.map(move |record| {
                    record.unwrap_or_else(|err| panic!("replaying {display}: {err}"))
                }))
            },
        )
        // Tie the source identity to the file *content* (body checksum +
        // generation seed from the header), not the path: re-recorded or
        // moved files only share a cache identity when their records match.
        .with_content_tag(&format!("altr:{:#018x}", self.header.checksum))
        .with_content_seed(self.header.seed)
    }
}

/// Convenience: opens `path` and returns a [`TraceSource`] over it, capped
/// to `cap` records when given.
///
/// # Errors
///
/// Returns the [`TraceReader::open`] errors.
pub fn file_source(path: &Path, cap: Option<usize>) -> io::Result<TraceSource> {
    Ok(TraceReader::open(path)?.source(cap))
}
