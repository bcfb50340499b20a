//! Benchmark blends: a declarative description of how much of each access
//! pattern a benchmark exhibits, turned into a concrete trace.

use alecto_types::{TraceSource, Workload};

use crate::patterns::{
    delta_chain, interleave_weighted, interleave_weighted_iter, looping_stream, phase_shift,
    pointer_chase, random_noise, set_aliasing, spatial_pages, stream, strided, zipfian, Component,
};

/// Pattern mixture and intensity of one benchmark.
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
    /// Starts a builder for benchmark `name`.
    #[must_use]
    pub fn builder(name: &str) -> BlendBuilder {
        BlendBuilder::new(name)
    }

    /// Materialises the blend into a trace of `accesses` memory accesses.
    ///
    /// This is the eager reference (O(accesses) memory) the streaming tests
    /// compare against; runs should use [`Blend::source`], which generates
    /// the identical records lazily.
    #[must_use]
    pub fn build(&self, accesses: usize) -> Workload {
        let (components, weights) = self.components();
        let records = interleave_weighted(components, &weights, accesses, self.seed);
        Workload::new(self.name.clone(), records, self.memory_intensive)
    }

    /// Turns the blend into a lazy, restartable [`TraceSource`] producing
    /// `accesses` records per replay in O(1) memory (with respect to the
    /// trace length). Record-for-record identical to [`Blend::build`]:
    /// components are rebuilt from the blend description on every replay and
    /// interleaved by the same seeded draw sequence.
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
            Box::new(interleave_weighted_iter(components, weights, blend.seed))
        })
        .with_content_tag(&identity)
    }

    /// The weighted component streams this blend mixes.
    fn components(&self) -> (Vec<Component>, Vec<f64>) {
        let gap = self.gap;
        let seed = self.seed;
        let mut components: Vec<Component> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let add =
            |c: Component, w: f64, weights: &mut Vec<f64>, components: &mut Vec<Component>| {
                if w > 0.0 {
                    components.push(c);
                    weights.push(w);
                }
            };

        // Two stream PCs walking disjoint regions (one ascending, one descending).
        add(
            stream(0x4_1000, 0x4000_0000, gap, true),
            self.stream * 0.6,
            &mut weights,
            &mut components,
        );
        add(
            stream(0x4_1010, 0x8000_0000, gap, false),
            self.stream * 0.4,
            &mut weights,
            &mut components,
        );
        // Two stride PCs with different strides (2 lines and 5 lines).
        add(
            strided(0x4_2000, 0xc000_0000, 128, gap),
            self.stride * 0.5,
            &mut weights,
            &mut components,
        );
        add(
            strided(0x4_2010, 0x1_0000_0000, 320, gap),
            self.stride * 0.5,
            &mut weights,
            &mut components,
        );
        // A spatial PC touching a fixed footprint in every visited page.
        add(
            spatial_pages(0x4_3000, 0x14_0000, vec![0, 1, 3, 6, 10, 11], gap),
            self.spatial,
            &mut weights,
            &mut components,
        );
        // A complex delta chain (defeats the constant-stride prefetcher).
        add(
            delta_chain(0x4_4000, 0x1_8000_0000, vec![1, 1, 1, 4], gap),
            self.delta,
            &mut weights,
            &mut components,
        );
        // A recurring pointer chase (temporal pattern).
        add(
            pointer_chase(0x4_5000, 0x2_0000_0000, self.chase_nodes.max(2), gap, seed ^ 0x1),
            self.chase,
            &mut weights,
            &mut components,
        );
        // A bounded loop re-streamed every iteration (recurring but coverable
        // by the stream/stride prefetchers).
        add(
            looping_stream(0x4_5800, 0x2_8000_0000, 4_096, gap),
            self.loop_stream,
            &mut weights,
            &mut components,
        );
        // Cache-resident reuse: a small region revisited over and over.
        add(
            random_noise(0x4_6000, 0x10_0000, 24 * 1024, gap, seed ^ 0x2),
            self.resident,
            &mut weights,
            &mut components,
        );
        // Unpredictable noise spread over a DRAM-sized region.
        add(
            random_noise(0x4_7000, 0x3_0000_0000, 256 * 1024 * 1024, gap, seed ^ 0x3),
            self.noise,
            &mut weights,
            &mut components,
        );
        // Power-law object popularity (web-serving / key-value request mix;
        // ~10% of object touches are writes). Unlike the other components,
        // construction costs O(zipf_objects) (cumulative masses + a slot
        // permutation), so it is gated on the weight rather than eagerly
        // built and discarded — blends without a zipf share pay nothing.
        if self.zipf > 0.0 {
            add(
                zipfian(
                    0x4_8000,
                    0x4_0000_0000,
                    self.zipf_objects.max(1),
                    self.zipf_theta,
                    0.1,
                    gap,
                    seed ^ 0x4,
                ),
                self.zipf,
                &mut weights,
                &mut components,
            );
        }
        // Conflict thrashing: a round-robin walk over set-aliasing offsets.
        add(
            set_aliasing(
                0x4_9000,
                0x5_0000_0000,
                self.alias_stride.max(64),
                self.alias_lines.max(2),
                gap,
            ),
            self.alias,
            &mut weights,
            &mut components,
        );
        // Phase-shifting interleave: streaming then scatter, repeating.
        add(
            phase_shift(0x4_a000, 0x6_0000_0000, self.phase_period.max(1), gap, seed ^ 0x5),
            self.phase,
            &mut weights,
            &mut components,
        );

        (components, weights)
    }
}

/// Builder for [`Blend`]; all weights default to zero, the gap defaults to 30
/// instructions and the chase working set to 2000 nodes.
#[derive(Debug, Clone)]
pub struct BlendBuilder {
    blend: Blend,
}

/// Derives the trace-generation seed for `name` and a job (or core) index.
///
/// Seeds are a pure function of `(name, job)` — never of global state or of
/// how many workloads were generated before this one — so trace generation
/// is *position-independent*: a cell of a parallel sweep regenerates exactly
/// the same records whether it runs first, last, serially or on any worker
/// thread. Job 0 is the canonical workload (the plain FNV-1a hash of the
/// name, matching what [`BlendBuilder::new`] has always produced); higher
/// job indices mix the index in through a splitmix64 round for per-core or
/// per-shard variants that must not correlate.
#[must_use]
pub fn derive_seed(name: &str, job: u64) -> u64 {
    let base = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3));
    if job == 0 {
        return base;
    }
    let mut z = base ^ job.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BlendBuilder {
    /// Creates a builder for benchmark `name`; the seed is derived from the
    /// name (job 0 of [`derive_seed`]) so regeneration is deterministic and
    /// position-independent.
    #[must_use]
    pub fn new(name: &str) -> Self {
        let seed = derive_seed(name, 0);
        Self {
            blend: Blend {
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
                gap: 30,
                chase_nodes: 2_000,
                zipf_objects: 16_384,
                zipf_theta: 0.99,
                alias_stride: 4_096,
                alias_lines: 32,
                phase_period: 2_048,
                seed,
            },
        }
    }

    /// Marks the benchmark memory intensive (Fig. 8/9 dotted-box subset).
    #[must_use]
    pub fn memory_intensive(mut self) -> Self {
        self.blend.memory_intensive = true;
        self
    }

    /// Sets the stream weight.
    #[must_use]
    pub fn stream(mut self, w: f64) -> Self {
        self.blend.stream = w;
        self
    }

    /// Sets the constant-stride weight.
    #[must_use]
    pub fn stride(mut self, w: f64) -> Self {
        self.blend.stride = w;
        self
    }

    /// Sets the spatial-footprint weight.
    #[must_use]
    pub fn spatial(mut self, w: f64) -> Self {
        self.blend.spatial = w;
        self
    }

    /// Sets the complex delta-chain weight.
    #[must_use]
    pub fn delta(mut self, w: f64) -> Self {
        self.blend.delta = w;
        self
    }

    /// Sets the pointer-chase (temporal) weight.
    #[must_use]
    pub fn chase(mut self, w: f64) -> Self {
        self.blend.chase = w;
        self
    }

    /// Sets the recurring loop-stream weight.
    #[must_use]
    pub fn loop_stream(mut self, w: f64) -> Self {
        self.blend.loop_stream = w;
        self
    }

    /// Sets the cache-resident reuse weight.
    #[must_use]
    pub fn resident(mut self, w: f64) -> Self {
        self.blend.resident = w;
        self
    }

    /// Sets the unpredictable-noise weight.
    #[must_use]
    pub fn noise(mut self, w: f64) -> Self {
        self.blend.noise = w;
        self
    }

    /// Sets the Zipfian (power-law object popularity) weight.
    #[must_use]
    pub fn zipf(mut self, w: f64) -> Self {
        self.blend.zipf = w;
        self
    }

    /// Sets the set-aliasing conflict-thrash weight.
    #[must_use]
    pub fn alias(mut self, w: f64) -> Self {
        self.blend.alias = w;
        self
    }

    /// Sets the byte stride and footprint (in lines) of the set-aliasing
    /// walk. A stride that is a multiple of `sets × 64` for a cache level
    /// aliases into a single set of that level; a footprint wider than its
    /// associativity then conflicts on every revisit.
    #[must_use]
    pub fn alias_geometry(mut self, stride_bytes: u64, footprint_lines: usize) -> Self {
        self.blend.alias_stride = stride_bytes;
        self.blend.alias_lines = footprint_lines;
        self
    }

    /// Sets the phase-shifting interleave weight.
    #[must_use]
    pub fn phase(mut self, w: f64) -> Self {
        self.blend.phase = w;
        self
    }

    /// Sets the accesses-per-phase period of the phase-shifting component.
    #[must_use]
    pub fn phase_period(mut self, period: u32) -> Self {
        self.blend.phase_period = period;
        self
    }

    /// Sets the number of objects in the Zipfian working set.
    #[must_use]
    pub fn zipf_objects(mut self, objects: usize) -> Self {
        self.blend.zipf_objects = objects;
        self
    }

    /// Sets the Zipfian skew parameter `theta`.
    #[must_use]
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.blend.zipf_theta = theta;
        self
    }

    /// Sets the average instruction gap between memory accesses.
    #[must_use]
    pub fn gap(mut self, gap: u32) -> Self {
        self.blend.gap = gap;
        self
    }

    /// Sets the number of nodes in the pointer-chase working set.
    #[must_use]
    pub fn chase_nodes(mut self, nodes: usize) -> Self {
        self.blend.chase_nodes = nodes;
        self
    }

    /// Overrides the generation seed, e.g. with [`derive_seed`]`(name, job)`
    /// for a per-job variant of the same blend.
    #[must_use]
    pub const fn seed(mut self, seed: u64) -> Self {
        self.blend.seed = seed;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn finish(self) -> Blend {
        self.blend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::Pc;

    #[test]
    fn builder_produces_named_workload() {
        let blend = Blend::builder("toy").memory_intensive().stream(1.0).gap(10).finish();
        let w = blend.build(1_000);
        assert_eq!(w.name, "toy");
        assert!(w.memory_intensive);
        assert_eq!(w.memory_accesses(), 1_000);
        // gap 10 → roughly 11 instructions per access.
        assert!(w.instructions() >= 10_000);
    }

    #[test]
    fn weights_steer_the_pattern_mix() {
        let blend = Blend::builder("chase-heavy").chase(0.9).stream(0.1).gap(5).finish();
        let w = blend.build(4_000);
        let chase_pc = w.records.iter().filter(|r| r.pc == Pc::new(0x4_5000)).count();
        assert!(chase_pc > 3_000, "chase PC should dominate, got {chase_pc}");
    }

    #[test]
    fn different_names_get_different_seeds() {
        let a = Blend::builder("a").noise(1.0).finish().build(200);
        let b = Blend::builder("b").noise(1.0).finish().build(200);
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn same_blend_is_reproducible() {
        let mk = || Blend::builder("repro").stream(0.5).chase(0.5).finish().build(300);
        assert_eq!(mk(), mk());
    }

    #[test]
    fn derived_seeds_are_position_independent() {
        // Job 0 is the canonical per-name seed the builder uses.
        assert_eq!(derive_seed("mcf", 0), Blend::builder("mcf").finish().seed);
        // Distinct jobs decorrelate, and the mapping is a pure function.
        assert_ne!(derive_seed("mcf", 0), derive_seed("mcf", 1));
        assert_ne!(derive_seed("mcf", 1), derive_seed("mcf", 2));
        assert_eq!(derive_seed("mcf", 7), derive_seed("mcf", 7));
        // Generation order cannot matter: building B before A yields the
        // same records as building A before B.
        let mk = |name: &str, job: u64| {
            Blend::builder(name).noise(1.0).seed(derive_seed(name, job)).finish().build(200)
        };
        let (a1, b1) = (mk("a", 3), mk("b", 3));
        let (b2, a2) = (mk("b", 3), mk("a", 3));
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1.records, b1.records);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_blend_panics() {
        let _ = Blend::builder("empty").finish().build(10);
    }

    #[test]
    fn source_streams_the_same_records_as_build() {
        let blend =
            Blend::builder("stream-eq").stream(0.3).chase(0.3).zipf(0.2).noise(0.2).gap(7).finish();
        let eager = blend.build(1_200);
        let source = blend.source(1_200);
        assert_eq!(source.name(), "stream-eq");
        assert_eq!(source.collect(), eager);
        // Replays are restartable and identical.
        let first: Vec<_> = source.records().collect();
        let second: Vec<_> = source.records().collect();
        assert_eq!(first, second);
    }

    #[test]
    fn zipf_weight_steers_the_mix() {
        let blend = Blend::builder("webby").zipf(0.9).stream(0.1).gap(4).finish();
        let w = blend.build(3_000);
        let zipf_pc = w.records.iter().filter(|r| r.pc == Pc::new(0x4_8000)).count();
        assert!(zipf_pc > 2_300, "zipf PC should dominate, got {zipf_pc}");
    }

    #[test]
    fn zero_accesses_build_an_empty_trace() {
        let blend = Blend::builder("empty-ok").stream(1.0).finish();
        assert_eq!(blend.build(0).records.len(), 0);
        assert_eq!(blend.source(0).records().count(), 0);
    }
}
