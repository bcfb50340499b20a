//! SPEC CPU2017-like workloads (Fig. 9).

use crate::blend::{lookup, Benchmark, Blend};

/// The 21 SPEC CPU2017 benchmarks of Fig. 9, memory-intensive ones first.
pub const BENCHMARKS: [Benchmark; 21] = [
    ("bwaves_17", true, |b| Blend { stream: 0.65, stride: 0.25, noise: 0.1, gap: 9, ..b }),
    ("cactuBSSN_17", true, |b| Blend { stride: 0.5, stream: 0.3, spatial: 0.2, gap: 10, ..b }),
    ("cam4_17", true, |b| Blend { stream: 0.45, spatial: 0.3, resident: 0.25, gap: 13, ..b }),
    ("fotonik3d_17", true, |b| Blend { stream: 0.7, stride: 0.2, noise: 0.1, gap: 8, ..b }),
    ("gcc_17", true, |b| Blend {
        spatial: 0.3,
        chase: 0.25,
        loop_stream: 0.1,
        resident: 0.25,
        stride: 0.1,
        gap: 15,
        chase_nodes: 5_000,
        ..b
    }),
    ("lbm_17", true, |b| Blend { stream: 0.85, stride: 0.1, noise: 0.05, gap: 7, ..b }),
    ("mcf_17", true, |b| Blend {
        chase: 0.5,
        loop_stream: 0.15,
        noise: 0.2,
        stride: 0.15,
        gap: 14,
        chase_nodes: 12_000,
        ..b
    }),
    ("omnetpp_17", true, |b| Blend {
        chase: 0.45,
        loop_stream: 0.15,
        noise: 0.2,
        resident: 0.2,
        gap: 16,
        chase_nodes: 9_000,
        ..b
    }),
    ("roms_17", true, |b| Blend { stream: 0.55, stride: 0.3, spatial: 0.15, gap: 10, ..b }),
    ("xalancbmk_17", true, |b| Blend {
        chase: 0.4,
        loop_stream: 0.1,
        spatial: 0.25,
        resident: 0.25,
        gap: 15,
        chase_nodes: 7_000,
        ..b
    }),
    ("xz_17", true, |b| Blend { spatial: 0.35, noise: 0.35, stride: 0.3, gap: 11, ..b }),
    ("blender", false, |b| Blend { resident: 0.6, stride: 0.25, spatial: 0.15, gap: 38, ..b }),
    ("deepsjeng", false, |b| Blend { resident: 0.75, noise: 0.25, gap: 50, ..b }),
    ("exchange2", false, |b| Blend { resident: 0.9, stride: 0.1, gap: 70, ..b }),
    ("imagick", false, |b| Blend { resident: 0.55, stream: 0.3, stride: 0.15, gap: 40, ..b }),
    ("leela", false, |b| Blend {
        resident: 0.7,
        chase: 0.15,
        noise: 0.15,
        gap: 48,
        chase_nodes: 1_200,
        ..b
    }),
    ("nab", false, |b| Blend { resident: 0.6, stride: 0.3, stream: 0.1, gap: 42, ..b }),
    ("namd_17", false, |b| Blend { resident: 0.65, stride: 0.25, stream: 0.1, gap: 48, ..b }),
    ("parest", false, |b| Blend { resident: 0.55, stride: 0.3, spatial: 0.15, gap: 36, ..b }),
    ("perlbench_17", false, |b| Blend {
        resident: 0.7,
        chase: 0.15,
        noise: 0.15,
        gap: 44,
        chase_nodes: 1_500,
        ..b
    }),
    ("povray_17", false, |b| Blend { resident: 0.85, noise: 0.15, gap: 65, ..b }),
];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not a SPEC CPU2017 benchmark from [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    lookup(&BENCHMARKS, name).unwrap_or_else(|| panic!("unknown SPEC CPU2017 benchmark: {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_21_benchmarks_have_blends() {
        for (name, memory_intensive, _) in BENCHMARKS {
            let s = blend(name).source(150);
            assert_eq!(s.records().count(), 150);
            assert_eq!(s.memory_intensive(), memory_intensive, "{name}");
        }
    }

    #[test]
    fn memory_intensive_subset_matches_fig9() {
        let sources = crate::Suite::Spec17.all_sources(0);
        let m: Vec<&str> =
            sources.iter().filter(|s| s.memory_intensive()).map(|s| s.name()).collect();
        assert_eq!(m.len(), 11);
        assert!(m.contains(&"mcf_17"));
        assert!(!m.contains(&"leela"));
    }

    #[test]
    #[should_panic(expected = "unknown SPEC CPU2017 benchmark")]
    fn unknown_name_panics() {
        let _ = blend("mcf");
    }
}
