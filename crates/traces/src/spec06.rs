//! SPEC CPU2006-like workloads (Fig. 8).
//!
//! The memory-intensive subset and the benchmark list follow Fig. 8 exactly;
//! each benchmark's pattern blend follows its published characterisation
//! (e.g. `GemsFDTD` interleaves a spatial PC with a stream PC as in Fig. 2,
//! `mcf`/`omnetpp` are pointer-chasing, `lbm`/`libquantum` stream).

use crate::blend::{lookup, Benchmark, Blend};

/// The 29 SPEC CPU2006 benchmarks of Fig. 8, memory-intensive ones first.
/// The streaming floating-point codes (`lbm`, `libquantum`, `bwaves`, ...)
/// are stream- and stride-heavy, the irregular integer codes (`mcf`,
/// `omnetpp`, `xalancbmk`, `astar`) chase pointers, and the compute-bound
/// codes outside the memory-intensive box get large gaps and cache-resident
/// working sets.
pub const BENCHMARKS: [Benchmark; 29] = [
    ("astar", true, |b| Blend {
        chase: 0.35,
        loop_stream: 0.1,
        stride: 0.25,
        resident: 0.3,
        gap: 16,
        chase_nodes: 5_000,
        ..b
    }),
    ("bwaves", true, |b| Blend { stream: 0.6, stride: 0.3, noise: 0.1, gap: 9, ..b }),
    ("bzip2", true, |b| Blend { stride: 0.4, resident: 0.35, noise: 0.25, gap: 14, ..b }),
    ("cactusADM", true, |b| Blend { stride: 0.5, stream: 0.3, noise: 0.2, gap: 12, ..b }),
    ("gcc", true, |b| Blend {
        spatial: 0.3,
        chase: 0.2,
        loop_stream: 0.1,
        stride: 0.15,
        resident: 0.25,
        gap: 16,
        chase_nodes: 4_000,
        ..b
    }),
    // Fig. 2: interleaved spatial (PC 0x30b00) and stream (PC 0x30aca).
    ("GemsFDTD", true, |b| Blend { spatial: 0.5, stream: 0.35, delta: 0.15, gap: 8, ..b }),
    ("gromacs", true, |b| Blend { stride: 0.4, spatial: 0.3, resident: 0.3, gap: 18, ..b }),
    ("hmmer", true, |b| Blend { stride: 0.7, resident: 0.3, gap: 16, ..b }),
    ("lbm", true, |b| Blend { stream: 0.8, stride: 0.15, noise: 0.05, gap: 8, ..b }),
    ("leslie3d", true, |b| Blend { stream: 0.55, spatial: 0.3, stride: 0.15, gap: 10, ..b }),
    ("libquantum", true, |b| Blend { stream: 0.9, resident: 0.1, gap: 10, ..b }),
    ("mcf", true, |b| Blend {
        chase: 0.55,
        loop_stream: 0.15,
        noise: 0.2,
        stride: 0.1,
        gap: 14,
        chase_nodes: 10_000,
        ..b
    }),
    ("milc", true, |b| Blend { stream: 0.5, noise: 0.35, stride: 0.15, gap: 9, ..b }),
    ("omnetpp", true, |b| Blend {
        chase: 0.45,
        loop_stream: 0.15,
        noise: 0.2,
        resident: 0.2,
        gap: 16,
        chase_nodes: 8_000,
        ..b
    }),
    ("soplex", true, |b| Blend {
        spatial: 0.35,
        stride: 0.25,
        loop_stream: 0.1,
        noise: 0.3,
        gap: 12,
        ..b
    }),
    ("sphinx3", true, |b| Blend {
        stream: 0.35,
        spatial: 0.3,
        loop_stream: 0.1,
        resident: 0.25,
        gap: 13,
        ..b
    }),
    ("xalancbmk", true, |b| Blend {
        chase: 0.4,
        loop_stream: 0.1,
        spatial: 0.2,
        resident: 0.3,
        gap: 16,
        chase_nodes: 6_000,
        ..b
    }),
    ("zeusmp", true, |b| Blend { stream: 0.5, stride: 0.3, spatial: 0.2, gap: 12, ..b }),
    ("calculix", false, |b| Blend { resident: 0.7, stride: 0.3, gap: 45, ..b }),
    ("dealII", false, |b| Blend {
        resident: 0.6,
        chase: 0.2,
        stride: 0.2,
        gap: 40,
        chase_nodes: 1_000,
        ..b
    }),
    ("gamess", false, |b| Blend { resident: 0.85, stride: 0.15, gap: 60, ..b }),
    ("gobmk", false, |b| Blend {
        resident: 0.7,
        noise: 0.2,
        chase: 0.1,
        gap: 50,
        chase_nodes: 800,
        ..b
    }),
    ("h264ref", false, |b| Blend { stride: 0.45, resident: 0.45, spatial: 0.1, gap: 35, ..b }),
    ("namd", false, |b| Blend { resident: 0.65, stride: 0.25, stream: 0.1, gap: 48, ..b }),
    ("perlbench", false, |b| Blend {
        resident: 0.7,
        chase: 0.15,
        noise: 0.15,
        gap: 42,
        chase_nodes: 1_500,
        ..b
    }),
    ("povray", false, |b| Blend { resident: 0.85, noise: 0.15, gap: 65, ..b }),
    ("sjeng", false, |b| Blend { resident: 0.75, noise: 0.25, gap: 55, ..b }),
    ("tonto", false, |b| Blend { resident: 0.7, stride: 0.3, gap: 50, ..b }),
    ("wrf", false, |b| Blend { stream: 0.35, stride: 0.3, resident: 0.35, gap: 30, ..b }),
];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not a SPEC CPU2006 benchmark from [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    lookup(&BENCHMARKS, name).unwrap_or_else(|| panic!("unknown SPEC CPU2006 benchmark: {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_29_benchmarks_have_blends() {
        for (name, memory_intensive, _) in BENCHMARKS {
            let s = blend(name).source(200);
            assert_eq!(s.records().count(), 200);
            assert_eq!(s.memory_intensive(), memory_intensive, "{name}");
        }
    }

    #[test]
    fn memory_intensive_subset_matches_fig8() {
        let sources = crate::Suite::Spec06.all_sources(0);
        let m: Vec<&str> =
            sources.iter().filter(|s| s.memory_intensive()).map(|s| s.name()).collect();
        assert_eq!(m.len(), 18);
        assert!(m.contains(&"mcf"));
        assert!(m.contains(&"GemsFDTD"));
        assert!(!m.contains(&"povray"));
    }

    #[test]
    fn intensity_shows_up_in_instruction_gaps() {
        let instructions =
            |name| blend(name).source(2_000).records().map(|r| r.instructions()).sum::<u64>();
        assert!(
            instructions("povray") > 3 * instructions("mcf"),
            "compute-bound benchmarks must have far larger gaps"
        );
    }

    #[test]
    #[should_panic(expected = "unknown SPEC CPU2006 benchmark")]
    fn unknown_name_panics() {
        let _ = blend("not-a-benchmark");
    }
}
