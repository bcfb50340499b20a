//! SPEC CPU2017-like workloads (Fig. 9).

use alecto_types::TraceSource;

use crate::blend::Blend;
use crate::spec06::BenchmarkInfo;

/// The 21 SPEC CPU2017 benchmarks of Fig. 9, memory-intensive ones first.
pub const BENCHMARKS: [BenchmarkInfo; 21] = [
    BenchmarkInfo { name: "bwaves_17", memory_intensive: true },
    BenchmarkInfo { name: "cactuBSSN_17", memory_intensive: true },
    BenchmarkInfo { name: "cam4_17", memory_intensive: true },
    BenchmarkInfo { name: "fotonik3d_17", memory_intensive: true },
    BenchmarkInfo { name: "gcc_17", memory_intensive: true },
    BenchmarkInfo { name: "lbm_17", memory_intensive: true },
    BenchmarkInfo { name: "mcf_17", memory_intensive: true },
    BenchmarkInfo { name: "omnetpp_17", memory_intensive: true },
    BenchmarkInfo { name: "roms_17", memory_intensive: true },
    BenchmarkInfo { name: "xalancbmk_17", memory_intensive: true },
    BenchmarkInfo { name: "xz_17", memory_intensive: true },
    BenchmarkInfo { name: "blender", memory_intensive: false },
    BenchmarkInfo { name: "deepsjeng", memory_intensive: false },
    BenchmarkInfo { name: "exchange2", memory_intensive: false },
    BenchmarkInfo { name: "imagick", memory_intensive: false },
    BenchmarkInfo { name: "leela", memory_intensive: false },
    BenchmarkInfo { name: "nab", memory_intensive: false },
    BenchmarkInfo { name: "namd_17", memory_intensive: false },
    BenchmarkInfo { name: "parest", memory_intensive: false },
    BenchmarkInfo { name: "perlbench_17", memory_intensive: false },
    BenchmarkInfo { name: "povray_17", memory_intensive: false },
];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not a SPEC CPU2017 benchmark from [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    let info = BENCHMARKS
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown SPEC CPU2017 benchmark: {name}"));
    let b = Blend::builder(name);
    let b = if info.memory_intensive { b.memory_intensive() } else { b };
    match name {
        "bwaves_17" => b.stream(0.65).stride(0.25).noise(0.1).gap(9).finish(),
        "cactuBSSN_17" => b.stride(0.5).stream(0.3).spatial(0.2).gap(10).finish(),
        "cam4_17" => b.stream(0.45).spatial(0.3).resident(0.25).gap(13).finish(),
        "fotonik3d_17" => b.stream(0.7).stride(0.2).noise(0.1).gap(8).finish(),
        "gcc_17" => b
            .spatial(0.3)
            .chase(0.25)
            .loop_stream(0.1)
            .resident(0.25)
            .stride(0.1)
            .gap(15)
            .chase_nodes(5_000)
            .finish(),
        "lbm_17" => b.stream(0.85).stride(0.1).noise(0.05).gap(7).finish(),
        "mcf_17" => b
            .chase(0.5)
            .loop_stream(0.15)
            .noise(0.2)
            .stride(0.15)
            .gap(14)
            .chase_nodes(12_000)
            .finish(),
        "omnetpp_17" => b
            .chase(0.45)
            .loop_stream(0.15)
            .noise(0.2)
            .resident(0.2)
            .gap(16)
            .chase_nodes(9_000)
            .finish(),
        "roms_17" => b.stream(0.55).stride(0.3).spatial(0.15).gap(10).finish(),
        "xalancbmk_17" => b
            .chase(0.4)
            .loop_stream(0.1)
            .spatial(0.25)
            .resident(0.25)
            .gap(15)
            .chase_nodes(7_000)
            .finish(),
        "xz_17" => b.spatial(0.35).noise(0.35).stride(0.3).gap(11).finish(),
        "blender" => b.resident(0.6).stride(0.25).spatial(0.15).gap(38).finish(),
        "deepsjeng" => b.resident(0.75).noise(0.25).gap(50).finish(),
        "exchange2" => b.resident(0.9).stride(0.1).gap(70).finish(),
        "imagick" => b.resident(0.55).stream(0.3).stride(0.15).gap(40).finish(),
        "leela" => b.resident(0.7).chase(0.15).noise(0.15).gap(48).chase_nodes(1_200).finish(),
        "nab" => b.resident(0.6).stride(0.3).stream(0.1).gap(42).finish(),
        "namd_17" => b.resident(0.65).stride(0.25).stream(0.1).gap(48).finish(),
        "parest" => b.resident(0.55).stride(0.3).spatial(0.15).gap(36).finish(),
        "perlbench_17" => {
            b.resident(0.7).chase(0.15).noise(0.15).gap(44).chase_nodes(1_500).finish()
        }
        "povray_17" => b.resident(0.85).noise(0.15).gap(65).finish(),
        _ => unreachable!("benchmark {name} is listed but has no blend"),
    }
}

/// A lazy [`TraceSource`] of the named SPEC CPU2017-like workload: `accesses`
/// records generated on demand in O(1) memory.
///
/// # Panics
///
/// Panics if `name` is unknown.
#[must_use]
pub fn source(name: &str, accesses: usize) -> TraceSource {
    blend(name).source(accesses)
}

/// Names of the memory-intensive subset (the dotted box of Fig. 9).
#[must_use]
pub fn memory_intensive() -> Vec<&'static str> {
    BENCHMARKS.iter().filter(|b| b.memory_intensive).map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_21_benchmarks_have_blends() {
        for b in &BENCHMARKS {
            let w = source(b.name, 150).collect();
            assert_eq!(w.memory_accesses(), 150);
            assert_eq!(w.memory_intensive, b.memory_intensive, "{}", b.name);
        }
    }

    #[test]
    fn memory_intensive_subset_matches_fig9() {
        let m = memory_intensive();
        assert_eq!(m.len(), 11);
        assert!(m.contains(&"mcf_17"));
        assert!(!m.contains(&"leela"));
    }

    #[test]
    #[should_panic(expected = "unknown SPEC CPU2017 benchmark")]
    fn unknown_name_panics() {
        let _ = source("mcf", 10);
    }
}
