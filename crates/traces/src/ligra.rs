//! Ligra-like graph-processing workloads (Fig. 17, eight-core runs).
//!
//! The paper runs Ligra kernels on an `rMatGraph_WJ_5_100` input. The
//! synthetic stand-in builds a small power-law (rMat-flavoured) graph and
//! replays the memory behaviour of frontier-based kernels: sequential sweeps
//! over the offset/edge arrays (streaming) interleaved with irregular,
//! partially recurring accesses to per-vertex data (temporal/pointer-chase
//! flavoured), which is exactly the mix that stresses prefetcher selection.

use std::collections::VecDeque;

use alecto_types::{Addr, MemoryRecord, Pc, SplitMix64, TraceSource};

/// The Ligra kernels modelled.
pub const BENCHMARKS: [&str; 5] = ["BFS", "PageRank", "Components", "BC", "Radii"];

/// Number of vertices in the synthetic rMat-like graph.
const VERTICES: usize = 16_384;
/// Average degree (the paper's rMat input uses degree ≈ 5).
const AVG_DEGREE: usize = 5;

fn rmat_edges(seed: u64) -> Vec<u32> {
    // Power-law-ish edge targets: repeatedly halve the vertex range with a
    // biased coin, the core idea of rMat generation.
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(VERTICES * AVG_DEGREE);
    for _ in 0..VERTICES * AVG_DEGREE {
        let mut lo = 0u32;
        let mut hi = VERTICES as u32;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if rng.chance(0.65) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        edges.push(lo);
    }
    edges
}

/// Kernel-dependent cost per edge (PageRank does more FP work per edge, BFS
/// almost none) and how often the frontier array is touched.
fn kernel_params(name: &str) -> (u32, f64) {
    match name {
        "BFS" => (4, 0.25),
        "PageRank" => (14, 0.05),
        "Components" => (6, 0.2),
        "BC" => (10, 0.15),
        "Radii" => (8, 0.2),
        _ => panic!("unknown Ligra kernel: {name}"),
    }
}

fn kernel_seed(name: &str) -> u64 {
    name.bytes().fold(0x9e37_79b9u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
}

/// The unbounded record stream of the named kernel: one CSR-offsets sweep
/// record per vertex, followed by its [`AVG_DEGREE`] edge visits (edge-array
/// stream + irregular per-vertex data access + occasional frontier store).
/// State is O(graph), never O(trace length).
fn record_stream(name: &'static str) -> impl Iterator<Item = MemoryRecord> + Send {
    let seed = kernel_seed(name);
    let edges = rmat_edges(seed);
    let (gap, frontier_ratio) = kernel_params(name);

    // Address map: offsets array, edges array, and per-vertex data array live
    // in separate regions so their PCs see distinct patterns.
    let offsets_base: u64 = 0x10_0000_0000;
    let edges_base: u64 = 0x11_0000_0000;
    let vertex_base: u64 = 0x12_0000_0000;
    let pc_offsets = Pc::new(0x7_0000);
    let pc_edges = Pc::new(0x7_0010);
    let pc_vertex = Pc::new(0x7_0020);
    let pc_frontier = Pc::new(0x7_0030);

    let mut rng = SplitMix64::new(seed ^ 0xfeed);
    let mut edge_cursor = 0usize;
    let mut vertex_cursor = 0usize;
    // One vertex's visit is generated at a time (at most 1 + 3·AVG_DEGREE
    // records) and drained from this small buffer.
    let mut pending: VecDeque<MemoryRecord> = VecDeque::with_capacity(1 + 3 * AVG_DEGREE);
    std::iter::from_fn(move || {
        if let Some(r) = pending.pop_front() {
            return Some(r);
        }
        // Sweep the CSR offsets array for the current vertex (streaming).
        pending.push_back(MemoryRecord::load(
            pc_offsets,
            Addr::new(offsets_base + (vertex_cursor as u64) * 8),
            gap,
        ));
        vertex_cursor = (vertex_cursor + 1) % VERTICES;
        // Visit this vertex's edges: stream through the edge array while
        // making an irregular access to each neighbour's vertex data.
        for _ in 0..AVG_DEGREE {
            let target = edges[edge_cursor % edges.len()];
            edge_cursor += 1;
            pending.push_back(MemoryRecord::load(
                pc_edges,
                Addr::new(edges_base + (edge_cursor as u64) * 4),
                gap,
            ));
            pending.push_back(MemoryRecord::load(
                pc_vertex,
                Addr::new(vertex_base + u64::from(target) * 64),
                gap,
            ));
            if rng.chance(frontier_ratio) {
                pending.push_back(MemoryRecord::store(
                    pc_frontier,
                    Addr::new(vertex_base + u64::from(target) * 64 + 32),
                    1,
                ));
            }
        }
        pending.pop_front()
    })
}

/// Resolves `name` to its `'static` spelling in [`BENCHMARKS`] so the lazy
/// stream does not have to own a `String`.
fn static_name(name: &str) -> &'static str {
    BENCHMARKS
        .iter()
        .find(|&&b| b == name)
        .copied()
        .unwrap_or_else(|| panic!("unknown Ligra kernel: {name}"))
}

/// A lazy [`TraceSource`] of the named Ligra-like kernel: `accesses` records
/// generated on demand in O(1) memory with respect to the trace length (the
/// synthetic rMat graph itself — a few hundred KB — is rebuilt per replay).
///
/// # Panics
///
/// Panics if `name` is not one of [`BENCHMARKS`].
#[must_use]
pub fn source(name: &str, accesses: usize) -> TraceSource {
    let name = static_name(name);
    TraceSource::new(name, true, accesses, move || Box::new(record_stream(name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_kernels_generate() {
        for name in BENCHMARKS {
            let w = source(name, 400).collect();
            assert_eq!(w.memory_accesses(), 400);
            assert!(w.memory_intensive);
        }
    }

    #[test]
    fn mixes_streaming_and_irregular_pcs() {
        let w = source("BFS", 3_000).collect();
        let pcs: HashSet<u64> = w.records.iter().map(|r| r.pc.raw()).collect();
        assert!(pcs.len() >= 3, "BFS should exercise several distinct PCs");
        // The edges PC is a pure stream: consecutive accesses differ by 4 bytes.
        let edge_addrs: Vec<u64> =
            w.records.iter().filter(|r| r.pc.raw() == 0x7_0010).map(|r| r.addr.raw()).collect();
        assert!(edge_addrs.windows(2).all(|w| w[1] - w[0] == 4));
        // The vertex PC is irregular but recurring (power-law reuse).
        let vertex_addrs: Vec<u64> =
            w.records.iter().filter(|r| r.pc.raw() == 0x7_0020).map(|r| r.addr.raw()).collect();
        let distinct: HashSet<u64> = vertex_addrs.iter().copied().collect();
        assert!(distinct.len() > 50);
        assert!(distinct.len() < vertex_addrs.len(), "hub vertices must recur");
    }

    #[test]
    fn kernels_differ_in_compute_intensity() {
        let bfs = source("BFS", 2_000).collect();
        let pr = source("PageRank", 2_000).collect();
        assert!(pr.instructions() > bfs.instructions());
    }

    #[test]
    #[should_panic(expected = "unknown Ligra kernel")]
    fn unknown_kernel_panics() {
        let _ = source("TriangleCount", 10);
    }

    #[test]
    fn source_streams_what_workload_collects() {
        for name in BENCHMARKS {
            // Cut mid-batch on purpose (batches are 1 + ~2·AVG_DEGREE records).
            for accesses in [0usize, 7, 501] {
                let s = source(name, accesses);
                assert_eq!(s.memory_accesses(), accesses);
                assert!(s.memory_intensive());
                let collected: Vec<MemoryRecord> = record_stream(name).take(accesses).collect();
                assert_eq!(s.collect().records, collected, "{name}@{accesses}");
                assert_eq!(s.collect(), s.collect(), "{name}@{accesses} replays identically");
            }
        }
    }
}
