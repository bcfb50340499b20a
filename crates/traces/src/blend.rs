//! Benchmark blends: a declarative description of how much of each access
//! pattern a benchmark exhibits, turned into a streamed trace.

use alecto_types::hash::{fnv1a_like_64, splitmix64_finalize, SPLITMIX64_GAMMA};
use alecto_types::TraceSource;

use crate::patterns::{
    delta_chain, interleave_weighted, looping_stream, phase_shift, pointer_chase, random_noise,
    set_aliasing, spatial_pages, stream, strided, zipfian, Component,
};

/// Pattern mixture and intensity of one benchmark: plain data, written as
/// the fields a benchmark sets over [`Blend::new`]'s defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Blend {
    /// Benchmark name.
    pub name: String,
    /// Whether the paper lists the benchmark as memory intensive.
    pub memory_intensive: bool,
    /// Weight of unit-stride stream components.
    pub stream: f64,
    /// Weight of constant-stride components.
    pub stride: f64,
    /// Weight of per-page spatial-footprint components.
    pub spatial: f64,
    /// Weight of complex (repeating delta-chain) components.
    pub delta: f64,
    /// Weight of recurring pointer-chase (temporal) components.
    pub chase: f64,
    /// Weight of bounded, recurring loop-stream components (recurring *and*
    /// coverable by non-temporal prefetchers — the §IV-F filtering case).
    pub loop_stream: f64,
    /// Weight of cache-resident reuse (compute-bound) components.
    pub resident: f64,
    /// Weight of unpredictable far-spread noise components.
    pub noise: f64,
    /// Weight of power-law (Zipfian) object accesses — the web-serving /
    /// key-value-store request mix: heavily recurring hot objects with an
    /// unpredictable long tail.
    pub zipf: f64,
    /// Weight of conflict-thrash components walking set-aliasing offsets
    /// (every access maps to the same cache set — see
    /// [`crate::patterns::set_aliasing`]). Adversarial: the fuzzer's
    /// thrashing ingredient.
    pub alias: f64,
    /// Weight of phase-shifting components that flip between streaming and
    /// scatter behaviour every [`Blend::phase_period`] accesses
    /// ([`crate::patterns::phase_shift`]). Adversarial: defeats epoch-based
    /// adaptation.
    pub phase: f64,
    /// Byte stride of the set-aliasing walk (a multiple of `sets ×
    /// line_bytes` of the targeted cache level aliases perfectly).
    pub alias_stride: u64,
    /// Distinct lines in the set-aliasing footprint (more than the targeted
    /// level's associativity guarantees conflict misses).
    pub alias_lines: usize,
    /// Accesses per phase of the phase-shifting component.
    pub phase_period: u32,
    /// Average non-memory instructions between accesses (memory intensity).
    pub gap: u32,
    /// Number of nodes in the pointer-chase working set.
    pub chase_nodes: usize,
    /// Number of objects in the Zipfian working set.
    pub zipf_objects: usize,
    /// Skew of the Zipfian distribution (`theta`; web traces are ~0.99).
    pub zipf_theta: f64,
    /// Random seed (derived from the name by default).
    pub seed: u64,
}

impl Blend {
    /// A blend of benchmark `name` with every weight zero and the default
    /// gap, working-set sizes and aliasing/phase geometry. Its seed is job 0
    /// of [`derive_seed`] for the name, so regeneration is deterministic and
    /// position-independent. A benchmark writes the fields it sets over these
    /// defaults: `Blend { stream: 0.8, gap: 8, ..Blend::new("lbm") }`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            memory_intensive: false,
            stream: 0.0,
            stride: 0.0,
            spatial: 0.0,
            delta: 0.0,
            chase: 0.0,
            loop_stream: 0.0,
            resident: 0.0,
            noise: 0.0,
            zipf: 0.0,
            alias: 0.0,
            phase: 0.0,
            alias_stride: 4_096,
            alias_lines: 32,
            phase_period: 2_048,
            gap: 30,
            chase_nodes: 2_000,
            zipf_objects: 16_384,
            zipf_theta: 0.99,
            seed: derive_seed(name, 0),
        }
    }

    /// Turns the blend into a lazy, restartable [`TraceSource`] producing
    /// `accesses` records per replay in O(1) memory (with respect to the
    /// trace length): components are rebuilt from the blend description on
    /// every replay and interleaved by the same seeded draw sequence.
    ///
    /// # Panics
    ///
    /// A replay panics if every weight is zero (there is nothing to draw).
    #[must_use]
    pub fn source(&self, accesses: usize) -> TraceSource {
        let blend = self.clone();
        // The record stream is a pure function of the whole blend description
        // (weights, gap, working-set sizes, seed), so the entire Debug
        // rendering is folded into the source fingerprint: any parameter
        // change — not just a rename — yields a distinct cache identity.
        let identity = format!("{self:?}");
        TraceSource::new(self.name.clone(), self.memory_intensive, accesses, move || {
            let (components, weights) = blend.components();
            Box::new(interleave_weighted(components, weights, blend.seed))
        })
        .with_content_tag(&identity)
    }

    /// Each pattern weight field with its name, in declaration order. The
    /// destructuring names every field, so a new field does not compile until
    /// it is listed here or marked as not a weight.
    pub fn weights_mut(&mut self) -> [(&'static str, &mut f64); 11] {
        let Blend {
            name: _,
            memory_intensive: _,
            stream,
            stride,
            spatial,
            delta,
            chase,
            loop_stream,
            resident,
            noise,
            zipf,
            alias,
            phase,
            alias_stride: _,
            alias_lines: _,
            phase_period: _,
            gap: _,
            chase_nodes: _,
            zipf_objects: _,
            zipf_theta: _,
            seed: _,
        } = self;
        [
            ("stream", stream),
            ("stride", stride),
            ("spatial", spatial),
            ("delta", delta),
            ("chase", chase),
            ("loop_stream", loop_stream),
            ("resident", resident),
            ("noise", noise),
            ("zipf", zipf),
            ("alias", alias),
            ("phase", phase),
        ]
    }

    /// The weighted component streams this blend mixes, one row per
    /// component in a fixed order. A row's constructor runs only for a
    /// positive weight (a Zipfian or chase working set costs O(objects) to
    /// build); every component draws from its own seeded generator, so
    /// skipping one changes no other's records.
    fn components(&self) -> (Vec<Component>, Vec<f64>) {
        let (gap, seed) = (self.gap, self.seed);
        let rows: [(f64, &dyn Fn() -> Component); 13] = [
            // Two stream PCs walking disjoint regions (one ascending, one descending).
            (self.stream * 0.6, &|| stream(0x4_1000, 0x4000_0000, gap, true)),
            (self.stream * 0.4, &|| stream(0x4_1010, 0x8000_0000, gap, false)),
            // Two stride PCs with different strides (2 lines and 5 lines).
            (self.stride * 0.5, &|| strided(0x4_2000, 0xc000_0000, 128, gap)),
            (self.stride * 0.5, &|| strided(0x4_2010, 0x1_0000_0000, 320, gap)),
            // A spatial PC touching a fixed footprint in every visited page.
            (self.spatial, &|| spatial_pages(0x4_3000, 0x14_0000, vec![0, 1, 3, 6, 10, 11], gap)),
            // A complex delta chain (defeats the constant-stride prefetcher).
            (self.delta, &|| delta_chain(0x4_4000, 0x1_8000_0000, vec![1, 1, 1, 4], gap)),
            // A recurring pointer chase (temporal pattern).
            (self.chase, &|| {
                pointer_chase(0x4_5000, 0x2_0000_0000, self.chase_nodes.max(2), gap, seed ^ 0x1)
            }),
            // A bounded loop re-streamed every iteration (recurring but
            // coverable by the stream/stride prefetchers).
            (self.loop_stream, &|| looping_stream(0x4_5800, 0x2_8000_0000, 4_096, gap)),
            // Cache-resident reuse: a small region revisited over and over.
            (self.resident, &|| random_noise(0x4_6000, 0x10_0000, 24 * 1024, gap, seed ^ 0x2)),
            // Unpredictable noise spread over a DRAM-sized region.
            (self.noise, &|| {
                random_noise(0x4_7000, 0x3_0000_0000, 256 * 1024 * 1024, gap, seed ^ 0x3)
            }),
            // Power-law object popularity (web-serving / key-value request
            // mix; ~10% of object touches are writes).
            (self.zipf, &|| {
                let objects = self.zipf_objects.max(1);
                zipfian(0x4_8000, 0x4_0000_0000, objects, self.zipf_theta, 0.1, gap, seed ^ 0x4)
            }),
            // Conflict thrashing: a round-robin walk over set-aliasing offsets.
            (self.alias, &|| {
                let (stride, lines) = (self.alias_stride.max(64), self.alias_lines.max(2));
                set_aliasing(0x4_9000, 0x5_0000_0000, stride, lines, gap)
            }),
            // Phase-shifting interleave: streaming then scatter, repeating.
            (self.phase, &|| {
                phase_shift(0x4_a000, 0x6_0000_0000, self.phase_period.max(1), gap, seed ^ 0x5)
            }),
        ];
        rows.into_iter()
            .filter(|&(weight, _)| weight > 0.0)
            .map(|(weight, make)| (make(), weight))
            .unzip()
    }
}

/// One row of a suite's benchmark table: the benchmark's name, whether the
/// paper lists it as memory intensive, and the fields its blend sets over
/// [`Blend::new`]'s defaults.
pub type Benchmark = (&'static str, bool, fn(Blend) -> Blend);

/// The blend of benchmark `name` from its row of `table`; `None` if no row
/// has that name.
pub(crate) fn lookup(table: &[Benchmark], name: &str) -> Option<Blend> {
    let &(name, memory_intensive, fields) = table.iter().find(|row| row.0 == name)?;
    Some(fields(Blend { memory_intensive, ..Blend::new(name) }))
}

/// Derives the trace-generation seed for `name` and a job (or core) index.
///
/// Seeds are a pure function of `(name, job)` — never of global state or of
/// how many workloads were generated before this one — so trace generation
/// is *position-independent*: a cell of a parallel sweep regenerates exactly
/// the same records whether it runs first, last, serially or on any worker
/// thread. Job 0 is the canonical workload, [`fnv1a_like_64`] of the name,
/// the seed [`Blend::new`] gives every blend. Higher job indices mix the
/// index in through [`splitmix64_finalize`] for per-core or per-shard
/// variants that must not correlate.
#[must_use]
pub fn derive_seed(name: &str, job: u64) -> u64 {
    let base = fnv1a_like_64(name.as_bytes());
    if job == 0 {
        return base;
    }
    splitmix64_finalize(base ^ job.wrapping_mul(SPLITMIX64_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{MemoryRecord, Pc};

    /// One replay of `blend`'s source of `accesses` records.
    fn records(blend: &Blend, accesses: usize) -> Vec<MemoryRecord> {
        blend.source(accesses).records().collect()
    }

    #[test]
    fn new_blend_produces_named_workload() {
        let blend = Blend { memory_intensive: true, stream: 1.0, gap: 10, ..Blend::new("toy") };
        let source = blend.source(1_000);
        assert_eq!(source.name(), "toy");
        assert!(source.memory_intensive());
        assert_eq!(source.memory_accesses(), 1_000);
        let records = records(&blend, 1_000);
        assert_eq!(records.len(), 1_000);
        // gap 10 → roughly 11 instructions per access.
        assert!(records.iter().map(MemoryRecord::instructions).sum::<u64>() >= 10_000);
    }

    #[test]
    fn weights_are_named_after_their_fields() {
        for i in 0..11 {
            let mut blend = Blend::new("named");
            let (name, weight) = blend.weights_mut().into_iter().nth(i).expect("11 weights");
            *weight = 0.5;
            let debug = format!("{blend:?}");
            assert!(
                debug.contains(&format!(" {name}: 0.5,")),
                "{name} sets another field: {debug}"
            );
            assert_eq!(debug.matches(": 0.5,").count(), 1, "{debug}");
        }
    }

    #[test]
    fn weights_steer_the_pattern_mix() {
        let blend = Blend { chase: 0.9, stream: 0.1, gap: 5, ..Blend::new("chase-heavy") };
        let chase_pc = records(&blend, 4_000).iter().filter(|r| r.pc == Pc::new(0x4_5000)).count();
        assert!(chase_pc > 3_000, "chase PC should dominate, got {chase_pc}");
    }

    #[test]
    fn different_names_get_different_seeds() {
        let a = records(&Blend { noise: 1.0, ..Blend::new("a") }, 200);
        let b = records(&Blend { noise: 1.0, ..Blend::new("b") }, 200);
        assert_ne!(a, b);
    }

    #[test]
    fn same_blend_is_reproducible() {
        let mk = || records(&Blend { stream: 0.5, chase: 0.5, ..Blend::new("repro") }, 300);
        assert_eq!(mk(), mk());
    }

    #[test]
    fn derived_seeds_are_position_independent() {
        // Job 0 is the canonical per-name seed every new blend gets.
        assert_eq!(derive_seed("mcf", 0), Blend::new("mcf").seed);
        // The values are pinned: every generated trace derives from them.
        assert_eq!(derive_seed("mcf", 0), 0x36ee_6409_1773_1945);
        assert_eq!(derive_seed("mcf", 1), 0x1290_4691_a199_a930);
        // Distinct jobs decorrelate, and the mapping is a pure function.
        assert_ne!(derive_seed("mcf", 0), derive_seed("mcf", 1));
        assert_ne!(derive_seed("mcf", 1), derive_seed("mcf", 2));
        assert_eq!(derive_seed("mcf", 7), derive_seed("mcf", 7));
        // Generation order cannot matter: building B before A yields the
        // same records as building A before B.
        let mk = |name: &str, job: u64| {
            records(&Blend { noise: 1.0, seed: derive_seed(name, job), ..Blend::new(name) }, 200)
        };
        let (a1, b1) = (mk("a", 3), mk("b", 3));
        let (b2, a2) = (mk("b", 3), mk("a", 3));
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_blend_panics() {
        let _ = Blend::new("empty").source(10).records().next();
    }

    #[test]
    fn source_replays_identically() {
        let blend = Blend {
            stream: 0.3,
            chase: 0.3,
            zipf: 0.2,
            noise: 0.2,
            gap: 7,
            ..Blend::new("stream-eq")
        };
        let source = blend.source(1_200);
        assert_eq!(source.name(), "stream-eq");
        // Replays are restartable and identical.
        let first: Vec<_> = source.records().collect();
        let second: Vec<_> = source.records().collect();
        assert_eq!(first.len(), 1_200);
        assert_eq!(first, second);
    }

    #[test]
    fn zipf_weight_steers_the_mix() {
        let blend = Blend { zipf: 0.9, stream: 0.1, gap: 4, ..Blend::new("webby") };
        let zipf_pc = records(&blend, 3_000).iter().filter(|r| r.pc == Pc::new(0x4_8000)).count();
        assert!(zipf_pc > 2_300, "zipf PC should dominate, got {zipf_pc}");
    }

    #[test]
    fn zero_accesses_build_an_empty_trace() {
        let blend = Blend { stream: 1.0, ..Blend::new("empty-ok") };
        assert_eq!(blend.source(0).records().count(), 0);
    }
}
