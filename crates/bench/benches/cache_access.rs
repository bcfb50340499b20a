//! Hot-path benchmark of the flat-array cache (`memsys::Cache`) on the exact
//! demand-lookup + fill sequence a simulated access performs, covering the
//! regimes the simulator mixes per access:
//!
//! * the all-miss **eviction storm** (`flat_array_new`), where every access
//!   scans, misses and evicts;
//! * steady-state **hit service** (`flat_array_new_hits`, `flat_array_new_l3`),
//!   the common case for a provisioned cache, where the packed tag lane and
//!   tag-bit flags let a hit touch two cache lines;
//! * **residency probes** (`flat_array_new_probe`), the 1–3 `contains`
//!   checks every prefetch issue performs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsys::{Cache, CacheParams};

use alecto_types::LineAddr;

/// A deterministic mixed line sequence: one streaming walker, one strided
/// walker and one xorshift "random" walker, interleaved — enough conflict
/// pressure to keep the L2 sets full and evicting, like a real run.
fn access_sequence(len: usize) -> Vec<LineAddr> {
    let mut out = Vec::with_capacity(len);
    let mut streaming = 0x10_0000u64;
    let mut strided = 0x40_0000u64;
    let mut rnd = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..len {
        let line = match i % 3 {
            0 => {
                streaming += 1;
                streaming
            }
            1 => {
                strided += 5;
                strided
            }
            _ => {
                rnd ^= rnd << 13;
                rnd ^= rnd >> 7;
                rnd ^= rnd << 17;
                0x80_0000 + (rnd % (1 << 16))
            }
        };
        out.push(LineAddr::new(line));
    }
    out
}

fn l2_params() -> CacheParams {
    CacheParams::l2_default()
}

fn l3_params() -> CacheParams {
    CacheParams::l3_default(1)
}

/// Cache-resident reuse: a realistic L2 steady state where most lookups hit.
fn reuse_sequence(len: usize) -> Vec<LineAddr> {
    let mut rnd = 12345u64;
    (0..len)
        .map(|_| {
            rnd ^= rnd << 13;
            rnd ^= rnd >> 7;
            rnd ^= rnd << 17;
            LineAddr::new(rnd % 2048)
        })
        .collect()
}

fn bench_cache_access(c: &mut Criterion) {
    let seq = access_sequence(64 * 1024);
    let hot_seq = reuse_sequence(64 * 1024);
    let mut group = c.benchmark_group("cache_access_path");

    // One iteration = one full pass over the 64K-access sequence, so the
    // reported ns/iter divided by the sequence length is the per-access cost.
    group.bench_function("flat_array_new", |b| {
        let mut cache = Cache::new(l2_params());
        b.iter(|| {
            let mut hits = 0u64;
            for &line in &seq {
                if cache.demand_lookup(line, false).is_none() {
                    cache.fill(line, None, None, false);
                } else {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });

    group.bench_function("flat_array_new_hits", |b| {
        let mut cache = Cache::new(l2_params());
        b.iter(|| {
            let mut hits = 0u64;
            for &line in &hot_seq {
                if cache.demand_lookup(line, false).is_none() {
                    cache.fill(line, None, None, false);
                } else {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });

    // The shared L3 (2048 sets × 16 ways): the widest scan in Table I.
    let l3_seq: Vec<LineAddr> = {
        let mut rnd = 777u64;
        (0..64 * 1024)
            .map(|_| {
                rnd ^= rnd << 13;
                rnd ^= rnd >> 7;
                rnd ^= rnd << 17;
                // ~24K distinct lines over 2048 sets: ~12 of 16 ways live.
                LineAddr::new(rnd % 24_576)
            })
            .collect()
    };
    group.bench_function("flat_array_new_l3", |b| {
        let mut cache = Cache::new(l3_params());
        b.iter(|| {
            let mut hits = 0u64;
            for &line in &l3_seq {
                if cache.demand_lookup(line, false).is_none() {
                    cache.fill(line, None, None, false);
                } else {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });

    // Prefetch-probe path: every issued prefetch performs 1-3 residency
    // probes (`contains`) against the private levels before any fill.
    group.bench_function("flat_array_new_probe", |b| {
        let mut cache = Cache::new(l2_params());
        for &line in &hot_seq {
            cache.fill(line, None, None, false);
        }
        b.iter(|| {
            let mut resident = 0u64;
            for &line in &hot_seq {
                if cache.contains(line) {
                    resident += 1;
                }
                if cache.contains(LineAddr::new(line.raw() + (1 << 30))) {
                    resident += 1;
                }
            }
            black_box(resident)
        });
    });

    group.finish();
}

criterion_group! {
    name = cache_access_group;
    config = Criterion::default().sample_size(60);
    targets = bench_cache_access,
}
criterion_main!(cache_access_group);
