//! SPEC CPU2006-like workloads (Fig. 8).
//!
//! The memory-intensive subset and the benchmark list follow Fig. 8 exactly;
//! each benchmark's pattern blend follows its published characterisation
//! (e.g. `GemsFDTD` interleaves a spatial PC with a stream PC as in Fig. 2,
//! `mcf`/`omnetpp` are pointer-chasing, `lbm`/`libquantum` stream).

use alecto_types::TraceSource;

use crate::blend::Blend;

/// Static description of one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BenchmarkInfo {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Whether Fig. 8 lists it inside the memory-intensive box.
    pub memory_intensive: bool,
}

/// The 29 SPEC CPU2006 benchmarks of Fig. 8, memory-intensive ones first.
pub const BENCHMARKS: [BenchmarkInfo; 29] = [
    BenchmarkInfo { name: "astar", memory_intensive: true },
    BenchmarkInfo { name: "bwaves", memory_intensive: true },
    BenchmarkInfo { name: "bzip2", memory_intensive: true },
    BenchmarkInfo { name: "cactusADM", memory_intensive: true },
    BenchmarkInfo { name: "gcc", memory_intensive: true },
    BenchmarkInfo { name: "GemsFDTD", memory_intensive: true },
    BenchmarkInfo { name: "gromacs", memory_intensive: true },
    BenchmarkInfo { name: "hmmer", memory_intensive: true },
    BenchmarkInfo { name: "lbm", memory_intensive: true },
    BenchmarkInfo { name: "leslie3d", memory_intensive: true },
    BenchmarkInfo { name: "libquantum", memory_intensive: true },
    BenchmarkInfo { name: "mcf", memory_intensive: true },
    BenchmarkInfo { name: "milc", memory_intensive: true },
    BenchmarkInfo { name: "omnetpp", memory_intensive: true },
    BenchmarkInfo { name: "soplex", memory_intensive: true },
    BenchmarkInfo { name: "sphinx3", memory_intensive: true },
    BenchmarkInfo { name: "xalancbmk", memory_intensive: true },
    BenchmarkInfo { name: "zeusmp", memory_intensive: true },
    BenchmarkInfo { name: "calculix", memory_intensive: false },
    BenchmarkInfo { name: "dealII", memory_intensive: false },
    BenchmarkInfo { name: "gamess", memory_intensive: false },
    BenchmarkInfo { name: "gobmk", memory_intensive: false },
    BenchmarkInfo { name: "h264ref", memory_intensive: false },
    BenchmarkInfo { name: "namd", memory_intensive: false },
    BenchmarkInfo { name: "perlbench", memory_intensive: false },
    BenchmarkInfo { name: "povray", memory_intensive: false },
    BenchmarkInfo { name: "sjeng", memory_intensive: false },
    BenchmarkInfo { name: "tonto", memory_intensive: false },
    BenchmarkInfo { name: "wrf", memory_intensive: false },
];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not a SPEC CPU2006 benchmark from [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    let info = BENCHMARKS
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown SPEC CPU2006 benchmark: {name}"));
    let b = Blend::builder(name);
    let b = if info.memory_intensive { b.memory_intensive() } else { b };
    match name {
        // Streaming floating-point codes.
        "lbm" => b.stream(0.8).stride(0.15).noise(0.05).gap(8).finish(),
        "libquantum" => b.stream(0.9).resident(0.1).gap(10).finish(),
        "bwaves" => b.stream(0.6).stride(0.3).noise(0.1).gap(9).finish(),
        "leslie3d" => b.stream(0.55).spatial(0.3).stride(0.15).gap(10).finish(),
        "milc" => b.stream(0.5).noise(0.35).stride(0.15).gap(9).finish(),
        "zeusmp" => b.stream(0.5).stride(0.3).spatial(0.2).gap(12).finish(),
        // Fig. 2: interleaved spatial (PC 0x30b00) and stream (PC 0x30aca).
        "GemsFDTD" => b.spatial(0.5).stream(0.35).delta(0.15).gap(8).finish(),
        // Pointer chasing / irregular integer codes.
        "mcf" => b
            .chase(0.55)
            .loop_stream(0.15)
            .noise(0.2)
            .stride(0.1)
            .gap(14)
            .chase_nodes(10_000)
            .finish(),
        "omnetpp" => b
            .chase(0.45)
            .loop_stream(0.15)
            .noise(0.2)
            .resident(0.2)
            .gap(16)
            .chase_nodes(8_000)
            .finish(),
        "xalancbmk" => b
            .chase(0.4)
            .loop_stream(0.1)
            .spatial(0.2)
            .resident(0.3)
            .gap(16)
            .chase_nodes(6_000)
            .finish(),
        "astar" => b
            .chase(0.35)
            .loop_stream(0.1)
            .stride(0.25)
            .resident(0.3)
            .gap(16)
            .chase_nodes(5_000)
            .finish(),
        // Mixed integer codes.
        "gcc" => b
            .spatial(0.3)
            .chase(0.2)
            .loop_stream(0.1)
            .stride(0.15)
            .resident(0.25)
            .gap(16)
            .chase_nodes(4_000)
            .finish(),
        "bzip2" => b.stride(0.4).resident(0.35).noise(0.25).gap(14).finish(),
        "soplex" => b.spatial(0.35).stride(0.25).loop_stream(0.1).noise(0.3).gap(12).finish(),
        "sphinx3" => b.stream(0.35).spatial(0.3).loop_stream(0.1).resident(0.25).gap(13).finish(),
        "hmmer" => b.stride(0.7).resident(0.3).gap(16).finish(),
        "cactusADM" => b.stride(0.5).stream(0.3).noise(0.2).gap(12).finish(),
        "gromacs" => b.stride(0.4).spatial(0.3).resident(0.3).gap(18).finish(),
        // Compute-bound codes: large gaps, cache-resident working sets.
        "calculix" => b.resident(0.7).stride(0.3).gap(45).finish(),
        "dealII" => b.resident(0.6).chase(0.2).stride(0.2).gap(40).chase_nodes(1_000).finish(),
        "gamess" => b.resident(0.85).stride(0.15).gap(60).finish(),
        "gobmk" => b.resident(0.7).noise(0.2).chase(0.1).gap(50).chase_nodes(800).finish(),
        "h264ref" => b.stride(0.45).resident(0.45).spatial(0.1).gap(35).finish(),
        "namd" => b.resident(0.65).stride(0.25).stream(0.1).gap(48).finish(),
        "perlbench" => b.resident(0.7).chase(0.15).noise(0.15).gap(42).chase_nodes(1_500).finish(),
        "povray" => b.resident(0.85).noise(0.15).gap(65).finish(),
        "sjeng" => b.resident(0.75).noise(0.25).gap(55).finish(),
        "tonto" => b.resident(0.7).stride(0.3).gap(50).finish(),
        "wrf" => b.stream(0.35).stride(0.3).resident(0.35).gap(30).finish(),
        _ => unreachable!("benchmark {name} is listed but has no blend"),
    }
}

/// A lazy [`TraceSource`] of the named SPEC CPU2006-like workload: `accesses`
/// records generated on demand in O(1) memory.
///
/// # Panics
///
/// Panics if `name` is unknown.
#[must_use]
pub fn source(name: &str, accesses: usize) -> TraceSource {
    blend(name).source(accesses)
}

/// Names of the memory-intensive subset (the dotted box of Fig. 8).
#[must_use]
pub fn memory_intensive() -> Vec<&'static str> {
    BENCHMARKS.iter().filter(|b| b.memory_intensive).map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_29_benchmarks_have_blends() {
        for b in &BENCHMARKS {
            let w = source(b.name, 200).collect();
            assert_eq!(w.memory_accesses(), 200);
            assert_eq!(w.memory_intensive, b.memory_intensive, "{}", b.name);
        }
    }

    #[test]
    fn memory_intensive_subset_matches_fig8() {
        let m = memory_intensive();
        assert_eq!(m.len(), 18);
        assert!(m.contains(&"mcf"));
        assert!(m.contains(&"GemsFDTD"));
        assert!(!m.contains(&"povray"));
    }

    #[test]
    fn intensity_shows_up_in_instruction_gaps() {
        let mem = source("mcf", 2_000).collect();
        let compute = source("povray", 2_000).collect();
        assert!(
            compute.instructions() > 3 * mem.instructions(),
            "compute-bound benchmarks must have far larger gaps"
        );
    }

    #[test]
    #[should_panic(expected = "unknown SPEC CPU2006 benchmark")]
    fn unknown_name_panics() {
        let _ = source("not-a-benchmark", 10);
    }
}
