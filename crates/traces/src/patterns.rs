//! Access-pattern primitives: the building blocks benchmarks are blended from.
//!
//! Every generator produces an *unbounded-ish* stream of [`MemoryRecord`]s for
//! one or a few PCs; the [`interleave_weighted`] combinator merges several
//! such component streams into one trace with a given mixing ratio, which is
//! how whole benchmarks are assembled in [`crate::blend`].

use alecto_types::{AccessKind, Addr, MemoryRecord, Pc, SplitMix64};

/// A lazily generated component stream of memory accesses. Components are
/// `Send` so that a [`alecto_types::TraceSource`] built from them can be
/// replayed on any worker thread of the parallel experiment engine.
pub type Component = Box<dyn FnMut() -> MemoryRecord + Send>;

/// A forward (or backward) unit-stride stream over cache lines, the pattern
/// GS-style stream prefetchers are built for (`lbm`, `libquantum`, ...).
#[must_use]
pub fn stream(pc: u64, base: u64, gap: u32, ascending: bool) -> Component {
    let mut line: i64 = (base >> 6) as i64;
    Box::new(move || {
        let record = MemoryRecord::load(Pc::new(pc), Addr::new((line as u64) << 6), gap);
        line += if ascending { 1 } else { -1 };
        record
    })
}

/// A constant-stride walk (stride expressed in bytes), the CS pattern
/// (`hmmer`, column walks of dense matrices, ...).
#[must_use]
pub fn strided(pc: u64, base: u64, stride_bytes: i64, gap: u32) -> Component {
    let mut addr = base as i64;
    Box::new(move || {
        let record = MemoryRecord::load(Pc::new(pc), Addr::new(addr as u64), gap);
        addr += stride_bytes;
        record
    })
}

/// A repeating delta chain in cache lines (e.g. +1, +1, +1, +4), the pattern
/// CPLX targets and constant-stride prefetchers mispredict (§II-A).
#[must_use]
pub fn delta_chain(pc: u64, base: u64, deltas: Vec<i64>, gap: u32) -> Component {
    assert!(!deltas.is_empty(), "delta chain needs at least one delta");
    let mut line: i64 = (base >> 6) as i64;
    let mut idx = 0usize;
    Box::new(move || {
        let record = MemoryRecord::load(Pc::new(pc), Addr::new((line as u64) << 6), gap);
        line += deltas[idx % deltas.len()];
        idx += 1;
        record
    })
}

/// Per-page spatial footprints: each visited page is touched at the given
/// line offsets (the SMS/PMP pattern; `GemsFDTD`'s PC 0x30b00 in Fig. 2).
#[must_use]
pub fn spatial_pages(pc: u64, base_page: u64, offsets: Vec<u64>, gap: u32) -> Component {
    assert!(!offsets.is_empty(), "spatial pattern needs at least one offset");
    let mut page = base_page;
    let mut idx = 0usize;
    Box::new(move || {
        let offset = offsets[idx % offsets.len()];
        let addr = (page << 12) + (offset << 6);
        let record = MemoryRecord::load(Pc::new(pc), Addr::new(addr), gap);
        idx += 1;
        if idx.is_multiple_of(offsets.len()) {
            page += 1;
        }
        record
    })
}

/// A recurring pointer chase over `nodes` pseudo-randomly placed nodes — the
/// temporal pattern only an address-correlating prefetcher can cover
/// (`mcf`, `omnetpp`, graph workloads).
#[must_use]
pub fn pointer_chase(pc: u64, base: u64, nodes: usize, gap: u32, seed: u64) -> Component {
    assert!(nodes > 1, "a pointer chase needs at least two nodes");
    let mut rng = SplitMix64::new(seed);
    // A random cyclic permutation of node indices placed at random lines.
    let mut order: Vec<usize> = (0..nodes).collect();
    for i in (1..nodes).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let lines: Vec<u64> = (0..nodes).map(|_| (base >> 6) + rng.below(nodes as u64 * 23)).collect();
    let mut pos = 0usize;
    Box::new(move || {
        let line = lines[order[pos]];
        pos = (pos + 1) % order.len();
        // Each hop reads the pointer loaded by the previous hop.
        MemoryRecord::dependent_load(Pc::new(pc), Addr::new(line << 6), gap)
    })
}

/// A bounded stream that wraps around after `length_lines` lines, i.e. a loop
/// re-walking the same array every iteration. The pattern is *recurring* (a
/// temporal prefetcher's table hits on it) yet perfectly handled by stream and
/// stride prefetchers — exactly the kind of PC §IV-F argues should be kept
/// away from the temporal prefetcher's metadata.
#[must_use]
pub fn looping_stream(pc: u64, base: u64, length_lines: u64, gap: u32) -> Component {
    assert!(length_lines > 1, "a looping stream needs at least two lines");
    let base_line = base >> 6;
    let mut idx: u64 = 0;
    Box::new(move || {
        let line = base_line + (idx % length_lines);
        idx += 1;
        MemoryRecord::load(Pc::new(pc), Addr::new(line << 6), gap)
    })
}

/// Uniformly random accesses over a `span_bytes` region: unpredictable noise
/// that trains no prefetcher usefully and pollutes their tables.
#[must_use]
pub fn random_noise(pc: u64, base: u64, span_bytes: u64, gap: u32, seed: u64) -> Component {
    let mut rng = SplitMix64::new(seed);
    let span_lines = (span_bytes >> 6).max(1);
    Box::new(move || {
        let line = (base >> 6) + rng.below(span_lines);
        let kind = if rng.chance(0.3) { AccessKind::Store } else { AccessKind::Load };
        MemoryRecord {
            pc: Pc::new(pc),
            addr: Addr::new(line << 6),
            kind,
            gap_instructions: gap,
            dependent: false,
        }
    })
}

/// Zipfian accesses over `objects` cache-line-sized objects with skew
/// `theta`: rank `r` is drawn with probability proportional to `1/r^theta`,
/// and ranks are scattered over the region through a seeded permutation (hot
/// objects are not spatially adjacent, exactly like a web cache or a
/// key-value store under a power-law request mix). A `store_ratio` fraction
/// of accesses are stores (cache updates / session writes).
///
/// # Panics
///
/// Panics if `objects == 0` or `store_ratio` is outside `[0, 1]`.
#[must_use]
pub fn zipfian(
    pc: u64,
    base: u64,
    objects: usize,
    theta: f64,
    store_ratio: f64,
    gap: u32,
    seed: u64,
) -> Component {
    assert!(objects > 0, "a zipfian pattern needs at least one object");
    assert!((0.0..=1.0).contains(&store_ratio), "store ratio must be a probability");
    let mut rng = SplitMix64::new(seed);
    // Cumulative mass of ranks 1..=objects (the generalized harmonic sums).
    let mut cumulative = Vec::with_capacity(objects);
    let mut total = 0.0f64;
    for rank in 1..=objects {
        total += (rank as f64).powf(theta).recip();
        cumulative.push(total);
    }
    // Scatter ranks over object slots so popularity is not spatially ordered.
    let mut slot_of_rank: Vec<u64> = (0..objects as u64).collect();
    for i in (1..objects).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        slot_of_rank.swap(i, j);
    }
    let base_line = base >> 6;
    Box::new(move || {
        let pick = rng.unit() * total;
        let rank = cumulative.partition_point(|&c| c <= pick).min(objects - 1);
        let line = base_line + slot_of_rank[rank] * 3; // objects span a few lines
        let kind = if rng.chance(store_ratio) { AccessKind::Store } else { AccessKind::Load };
        MemoryRecord {
            pc: Pc::new(pc),
            addr: Addr::new(line << 6),
            kind,
            gap_instructions: gap,
            dependent: false,
        }
    })
}

/// Conflict-miss thrashing via set-aliasing offsets: a round-robin walk over
/// `footprint_lines` addresses spaced exactly `set_stride_bytes` apart. When
/// the stride is a multiple of `sets × line_bytes` for a cache level, every
/// address maps to the *same* set, so any footprint wider than the
/// associativity evicts on every revisit — the classic conflict-thrash
/// pathology the scenario fuzzer plants against selector configurations.
/// The walk itself is perfectly periodic (a stride prefetcher *can* learn
/// it), which is what makes it adversarial: prefetches into the aliased set
/// thrash exactly like the demand stream does.
///
/// # Panics
///
/// Panics if the stride is zero or the footprint has fewer than two lines.
#[must_use]
pub fn set_aliasing(
    pc: u64,
    base: u64,
    set_stride_bytes: u64,
    footprint_lines: usize,
    gap: u32,
) -> Component {
    assert!(set_stride_bytes > 0, "set-aliasing stride must be positive");
    assert!(footprint_lines > 1, "set-aliasing thrash needs at least two lines");
    let mut idx: u64 = 0;
    Box::new(move || {
        let addr = base + (idx % footprint_lines as u64) * set_stride_bytes;
        idx += 1;
        MemoryRecord::load(Pc::new(pc), Addr::new(addr), gap)
    })
}

/// A phase-shifting access stream: `period` accesses of a well-behaved
/// unit-stride stream, then `period` accesses of seeded far jumps, repeating.
/// The behaviour flips right about when an epoch-based selector has adapted
/// to the previous phase, so whatever it learned is stale by the time it
/// acts — the anti-adaptation pathology the fuzzer hunts with.
///
/// # Panics
///
/// Panics if `period` is zero.
#[must_use]
pub fn phase_shift(pc: u64, base: u64, period: u32, gap: u32, seed: u64) -> Component {
    assert!(period > 0, "phase period must be positive");
    let mut rng = SplitMix64::new(seed);
    let base_line = base >> 6;
    let mut line = base_line;
    let mut idx: u64 = 0;
    Box::new(move || {
        let streaming = (idx / u64::from(period)).is_multiple_of(2);
        idx += 1;
        if streaming {
            line += 1;
        } else {
            // Scatter phase: jump anywhere in a DRAM-sized window; the draw
            // is consumed only in this phase so the stream phase stays a
            // pure function of `idx`.
            line = base_line + rng.below(1 << 22);
        }
        MemoryRecord::load(Pc::new(pc), Addr::new(line << 6), gap)
    })
}

/// Interleaves component streams according to `weights`: an *unbounded*
/// iterator that draws component `i` with probability proportional to
/// `weights[i]`, deterministically for a given `seed`.
///
/// # Panics
///
/// Panics if the inputs are empty, mismatched in length, or all-zero weight.
pub fn interleave_weighted(
    mut components: Vec<Component>,
    weights: Vec<f64>,
    seed: u64,
) -> impl Iterator<Item = MemoryRecord> + Send {
    assert!(!components.is_empty(), "need at least one component");
    assert_eq!(components.len(), weights.len(), "one weight per component");
    let weight_sum: f64 = weights.iter().sum();
    assert!(weight_sum > 0.0, "weights must not all be zero");
    let mut rng = SplitMix64::new(seed);
    std::iter::from_fn(move || {
        let mut pick = rng.unit() * weight_sum;
        let mut idx = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= w;
            idx = i;
        }
        Some(components[idx]())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stream_is_unit_stride() {
        let mut s = stream(0x10, 0x8000, 5, true);
        let a = s();
        let b = s();
        assert_eq!(b.addr.line().delta_from(a.addr.line()), 1);
        assert_eq!(a.gap_instructions, 5);
        let mut d = stream(0x10, 0x8000, 5, false);
        let a = d();
        let b = d();
        assert_eq!(b.addr.line().delta_from(a.addr.line()), -1);
    }

    #[test]
    fn strided_walk() {
        let mut s = strided(0x14, 0x10_000, 256, 3);
        let a = s();
        let b = s();
        assert_eq!(b.addr.raw() - a.addr.raw(), 256);
    }

    #[test]
    fn delta_chain_repeats() {
        let mut s = delta_chain(0x18, 0x20_000, vec![1, 1, 4], 2);
        let lines: Vec<i64> = (0..7).map(|_| s().addr.line().raw() as i64).collect();
        assert_eq!(lines[1] - lines[0], 1);
        assert_eq!(lines[2] - lines[1], 1);
        assert_eq!(lines[3] - lines[2], 4);
        assert_eq!(lines[4] - lines[3], 1);
    }

    #[test]
    fn spatial_pattern_repeats_per_page() {
        let mut s = spatial_pages(0x1c, 100, vec![0, 2, 4], 2);
        let first_page: Vec<u64> = (0..3).map(|_| s().addr.raw()).collect();
        let second_page: Vec<u64> = (0..3).map(|_| s().addr.raw()).collect();
        assert_eq!(first_page[1] - first_page[0], 128);
        assert_eq!(second_page[0] - first_page[0], 4096);
    }

    #[test]
    fn pointer_chase_recurs() {
        let mut s = pointer_chase(0x20, 1 << 24, 50, 2, 7);
        let first_cycle: Vec<u64> = (0..50).map(|_| s().addr.raw()).collect();
        let second_cycle: Vec<u64> = (0..50).map(|_| s().addr.raw()).collect();
        assert_eq!(first_cycle, second_cycle, "the chase revisits the same sequence");
        let distinct: HashSet<u64> = first_cycle.iter().copied().collect();
        assert!(distinct.len() > 40, "nodes should be mostly distinct lines");
    }

    #[test]
    fn looping_stream_wraps() {
        let mut s = looping_stream(0x22, 0x40_000, 4, 1);
        let lines: Vec<u64> = (0..9).map(|_| s().addr.line().raw()).collect();
        assert_eq!(lines[0], lines[4]);
        assert_eq!(lines[3], lines[7]);
        assert_eq!(lines[1] - lines[0], 1);
    }

    #[test]
    fn random_noise_spans_region() {
        let mut s = random_noise(0x24, 1 << 30, 1 << 20, 1, 3);
        let addrs: Vec<u64> = (0..200).map(|_| s().addr.raw()).collect();
        let distinct: HashSet<u64> = addrs.iter().copied().collect();
        assert!(distinct.len() > 150);
        assert!(addrs.iter().all(|&a| ((1 << 30)..(1 << 30) + (1 << 20) + 64).contains(&a)));
    }

    #[test]
    fn set_aliasing_revisits_the_same_set() {
        // Stride 4096 = 64 sets × 64 B: every address shares L1 set 0.
        let mut s = set_aliasing(0x26, 0x100_000, 4096, 3, 1);
        let addrs: Vec<u64> = (0..7).map(|_| s().addr.raw()).collect();
        assert_eq!(addrs[0], addrs[3], "the footprint must recur");
        assert_eq!(addrs[1] - addrs[0], 4096);
        assert!(addrs.iter().all(|a| a.is_multiple_of(4096) || a % 4096 == addrs[0] % 4096));
    }

    #[test]
    fn phase_shift_alternates_stream_and_scatter() {
        let mut s = phase_shift(0x28, 0x200_000, 4, 1, 9);
        let lines: Vec<u64> = (0..8).map(|_| s().addr.line().raw()).collect();
        // First phase is unit stride...
        assert_eq!(lines[1] - lines[0], 1);
        assert_eq!(lines[3] - lines[2], 1);
        // ...second phase scatters (at least one jump far beyond stride 1).
        assert!(
            (4..8).any(|i| lines[i].abs_diff(lines[i - 1]) > 16),
            "scatter phase must jump, got {lines:?}"
        );
        // Determinism: the same seed replays the same stream.
        let mut a = phase_shift(0x28, 0x200_000, 4, 1, 9);
        let mut b = phase_shift(0x28, 0x200_000, 4, 1, 9);
        assert!((0..64).all(|_| a().addr == b().addr));
    }

    #[test]
    fn interleave_respects_total_and_weights() {
        let a = stream(0x1, 0, 1, true);
        let b = stream(0x2, 1 << 30, 1, true);
        let records: Vec<MemoryRecord> =
            interleave_weighted(vec![a, b], vec![0.9, 0.1], 42).take(2_000).collect();
        assert_eq!(records.len(), 2_000);
        let from_a = records.iter().filter(|r| r.pc == Pc::new(0x1)).count();
        assert!(
            from_a > 1_600 && from_a < 1_950,
            "~90% should come from the heavy component, got {from_a}"
        );
    }

    #[test]
    fn interleave_is_deterministic() {
        let mk = || -> Vec<MemoryRecord> {
            let components =
                vec![stream(0x1, 0, 1, true), random_noise(0x2, 1 << 30, 1 << 18, 1, 9)];
            interleave_weighted(components, vec![0.5, 0.5], 7).take(500).collect()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "one weight per component")]
    fn mismatched_weights_panic() {
        let _ = interleave_weighted(vec![stream(0x1, 0, 1, true)], vec![0.5, 0.5], 1);
    }

    #[test]
    fn zipfian_is_skewed_recurring_and_deterministic() {
        let draws = |seed: u64| -> Vec<u64> {
            let mut z = zipfian(0x30, 1 << 32, 4_096, 0.99, 0.1, 2, seed);
            (0..3_000).map(|_| z().addr.raw()).collect()
        };
        let a = draws(5);
        assert_eq!(a, draws(5), "same seed must replay the same request mix");
        assert_ne!(a, draws(6), "different seeds must decorrelate");
        // Power-law skew: the most popular object dominates far beyond 1/N.
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for addr in &a {
            *counts.entry(*addr).or_default() += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 100, "hottest of 4096 objects should take >>1/N of 3000 draws");
        assert!(counts.len() > 200, "the long tail must still be touched");
        // Some accesses are stores.
        let mut z = zipfian(0x30, 1 << 32, 4_096, 0.99, 0.3, 2, 5);
        assert!((0..500).any(|_| z().kind == AccessKind::Store));
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_zipfian_panics() {
        let _ = zipfian(0x30, 0, 0, 1.0, 0.0, 1, 1);
    }
}
