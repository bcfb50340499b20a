//! Buffered `.altr` trace writer.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use alecto_types::{fnv1a_64, MemoryRecord, TraceSource, FNV1A_OFFSET};

use crate::format::{TraceHeader, DEFAULT_BLOCK_RECORDS};
use crate::varint;

/// Streams [`MemoryRecord`]s into the block-structured `.altr` encoding.
///
/// Records are delta-encoded into an in-memory block buffer and flushed a
/// block at a time, so the writer's memory footprint is one block regardless
/// of trace length. The header's record count and checksum are back-patched
/// by [`TraceWriter::finish`] — dropping a writer without finishing leaves a
/// file whose header claims zero records, which readers treat as empty
/// rather than corrupt, so always call `finish`.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    header: TraceHeader,
    block: Vec<u8>,
    block_records: u64,
    records_per_block: usize,
    written_records: u64,
    checksum: u64,
    last_pc: u64,
    last_addr: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the header for a trace named
    /// `name`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors, and rejects names longer
    /// than 255 bytes.
    pub fn create(path: &Path, name: &str, memory_intensive: bool, seed: u64) -> io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?), name, memory_intensive, seed)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace in `sink`, writing the header immediately.
    ///
    /// # Errors
    ///
    /// Propagates write errors; rejects names longer than 255 bytes (the
    /// header stores a one-byte length).
    pub fn new(mut sink: W, name: &str, memory_intensive: bool, seed: u64) -> io::Result<Self> {
        if name.len() > usize::from(u8::MAX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("benchmark name is {} bytes; the .altr header caps it at 255", name.len()),
            ));
        }
        let header = TraceHeader {
            name: name.to_string(),
            memory_intensive,
            seed,
            record_count: 0,
            checksum: FNV1A_OFFSET,
        };
        sink.write_all(&header.encode())?;
        Ok(Self {
            sink,
            header,
            block: Vec::new(),
            block_records: 0,
            records_per_block: DEFAULT_BLOCK_RECORDS,
            written_records: 0,
            checksum: FNV1A_OFFSET,
            last_pc: 0,
            last_addr: 0,
        })
    }

    /// Overrides the records-per-block target (mainly for tests and the
    /// golden fixture, which wants several blocks in a tiny file).
    ///
    /// # Panics
    ///
    /// Panics if `records_per_block` is zero.
    #[must_use]
    pub fn with_block_records(mut self, records_per_block: usize) -> Self {
        assert!(records_per_block > 0, "a block must hold at least one record");
        self.records_per_block = records_per_block;
        self
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates write errors from a block flush.
    pub fn write_record(&mut self, record: MemoryRecord) -> io::Result<()> {
        let pc = record.pc.raw();
        let addr = record.addr.raw();
        varint::encode_i64(pc.wrapping_sub(self.last_pc) as i64, &mut self.block);
        varint::encode_i64(addr.wrapping_sub(self.last_addr) as i64, &mut self.block);
        let flags = u64::from(record.gap_instructions) << 2
            | u64::from(!record.kind.is_load()) << 1
            | u64::from(record.dependent);
        varint::encode_u64(flags, &mut self.block);
        self.last_pc = pc;
        self.last_addr = addr;
        self.block_records += 1;
        self.written_records += 1;
        if self.block_records as usize >= self.records_per_block {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends every record of an iterator.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_all(&mut self, records: impl IntoIterator<Item = MemoryRecord>) -> io::Result<()> {
        for record in records {
            self.write_record(record)?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_records == 0 {
            return Ok(());
        }
        let mut frame = Vec::with_capacity(2 * varint::MAX_VARINT_BYTES);
        varint::encode_u64(self.block_records, &mut frame);
        varint::encode_u64(self.block.len() as u64, &mut frame);
        self.checksum = fnv1a_64(self.checksum, &frame);
        self.checksum = fnv1a_64(self.checksum, &self.block);
        self.sink.write_all(&frame)?;
        self.sink.write_all(&self.block)?;
        self.block.clear();
        self.block_records = 0;
        // Deltas reset per block so blocks decode independently.
        self.last_pc = 0;
        self.last_addr = 0;
        Ok(())
    }

    /// Flushes the trailing partial block, back-patches the header's record
    /// count and checksum, and returns the record count.
    ///
    /// # Errors
    ///
    /// Propagates write/seek errors.
    pub fn finish(self) -> io::Result<u64> {
        self.finish_into_inner().map(|(count, _)| count)
    }

    /// [`TraceWriter::finish`], additionally handing back the sink — how the
    /// in-memory tests and benches recover their `Cursor<Vec<u8>>`.
    ///
    /// # Errors
    ///
    /// Propagates write/seek errors.
    pub fn finish_into_inner(mut self) -> io::Result<(u64, W)> {
        self.flush_block()?;
        self.sink.seek(SeekFrom::Start(self.header.count_offset()))?;
        self.sink.write_all(&self.written_records.to_le_bytes())?;
        self.sink.write_all(&self.checksum.to_le_bytes())?;
        self.sink.flush()?;
        Ok((self.written_records, self.sink))
    }
}

/// Records a full replay of `source` into `path`, stamping `seed` into the
/// header, and returns the record count.
///
/// # Errors
///
/// Propagates file and write errors.
pub fn record_source(source: &TraceSource, seed: u64, path: &Path) -> io::Result<u64> {
    let mut writer = TraceWriter::create(path, source.name(), source.memory_intensive(), seed)?;
    writer.write_all(source.records())?;
    writer.finish()
}
