//! Golden `.altr` fixture: a committed trace file whose bytes — and whose
//! whole-file FNV-1a64 checksum, pinned as a constant here — must never
//! change unless the format version is deliberately bumped. Any codec edit
//! that alters the wire layout fails these tests loudly instead of silently
//! invalidating every previously recorded trace.
//!
//! See `tests/fixtures/README.md` for the regeneration/bump procedure.

use alecto_repro::types::{fnv1a_64, Addr, MemoryRecord, Pc, FNV1A_OFFSET};
use std::io::Cursor;
use traceio::{decode_document, TraceWriter};

const FIXTURE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.altr");

/// Whole-file FNV-1a64 of the committed fixture. Update ONLY on a
/// deliberate format bump, together with `traceio::FORMAT_VERSION` and the
/// fixture itself (see tests/fixtures/README.md).
const GOLDEN_FILE_FNV1A64: u64 = 0x22a1_488a_96b2_d5de;

/// The fixture's records: a fixed stream exercising the codec's edge cases
/// — forward/backward pc and addr deltas, address-space wrap-around, zero
/// and huge gaps, stores, dependent loads — across several 32-record
/// blocks. Hand-built, not generator-derived, so workload-model tuning can
/// never disturb the format pin.
fn golden_records() -> Vec<MemoryRecord> {
    let mut records = Vec::new();
    for i in 0u64..100 {
        let pc = Pc::new(0x400 + (i % 5) * 4);
        let record = match i % 7 {
            0 => MemoryRecord::load(pc, Addr::new(i * 64), (i % 40) as u32),
            1 => MemoryRecord::store(pc, Addr::new(0x1_0000_0000 - i * 4096), 0),
            2 => MemoryRecord::dependent_load(
                pc,
                Addr::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                2,
            ),
            3 => MemoryRecord::load(Pc::new(u64::MAX - i), Addr::new(u64::MAX - i * 64), u32::MAX),
            4 => MemoryRecord::store(pc, Addr::new(0), 1),
            5 => MemoryRecord::load(pc, Addr::new(0x7fff_ffff_ffff_ffff), 13),
            _ => MemoryRecord::dependent_load(pc, Addr::new(64 * (100 - i)), 7),
        };
        records.push(record);
    }
    records
}

/// Encodes the golden records exactly as the committed fixture was written:
/// name "golden", memory-intensive, seed 0x5eed, 32-record blocks.
fn golden_bytes() -> Vec<u8> {
    let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "golden", true, 0x5eed)
        .expect("header")
        .with_block_records(32);
    writer.write_all(golden_records()).expect("encode");
    writer.finish_into_inner().expect("finish").1.into_inner()
}

fn fixture_bytes() -> Vec<u8> {
    if std::env::var_os("REGENERATE_FIXTURES").is_some() {
        std::fs::write(FIXTURE_PATH, golden_bytes()).expect("regenerate fixture");
    }
    std::fs::read(FIXTURE_PATH).unwrap_or_else(|err| {
        panic!(
            "cannot read {FIXTURE_PATH}: {err}\n\
             (run REGENERATE_FIXTURES=1 cargo test --test golden_fixture to create it)"
        )
    })
}

#[test]
fn fixture_checksum_is_pinned() {
    let bytes = fixture_bytes();
    let fnv = fnv1a_64(FNV1A_OFFSET, &bytes);
    assert_eq!(
        fnv, GOLDEN_FILE_FNV1A64,
        "the committed golden.altr changed (file hashes to {fnv:#018x}); if this is a \
         deliberate format bump, follow tests/fixtures/README.md"
    );
}

#[test]
fn fixture_matches_the_current_encoder_byte_for_byte() {
    assert_eq!(
        fixture_bytes(),
        golden_bytes(),
        "the encoder no longer reproduces the committed fixture — the wire format changed; \
         bump traceio::FORMAT_VERSION and follow tests/fixtures/README.md"
    );
}

#[test]
fn fixture_decodes_to_the_golden_records() {
    let (header, records) = decode_document(&fixture_bytes()).expect("decode fixture");
    assert_eq!(header.name, "golden");
    assert!(header.memory_intensive);
    assert_eq!(header.seed, 0x5eed);
    assert_eq!(header.record_count, 100);
    assert_eq!(records, golden_records());
}
