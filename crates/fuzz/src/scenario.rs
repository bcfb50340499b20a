//! Seeded scenario composition: one fuzz scenario is a random-but-exactly-
//! reproducible adversarial [`Blend`] plus an access budget, derived purely
//! from `(master_seed, index)` and the target machine's cache geometry.

use alecto_types::{SplitMix64, TraceSource};
use machine::MachineSpec;
use traces::Blend;

/// The benign pattern ingredients the fuzzer may sprinkle into a scenario.
const BENIGN: [&str; 7] =
    ["stream", "stride", "spatial", "delta", "loop_stream", "resident", "noise"];

/// The adversarial ingredients; every scenario carries at least one. Order
/// matters: it is the draw order during generation and the drop order during
/// shrinking.
pub const ADVERSARIAL: [&str; 4] = ["alias", "phase", "chase", "zipf"];

/// One generated fuzz scenario: a reproducible adversarial blend and the
/// access budget it is simulated for.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in the fuzz run (0-based).
    pub index: u64,
    /// The scenario's own derived seed (also the blend's generation seed).
    pub seed: u64,
    /// Memory accesses to simulate.
    pub accesses: usize,
    /// The composed pattern mixture.
    pub blend: Blend,
}

impl Scenario {
    /// Composes scenario `index` of the run seeded with `master_seed`.
    ///
    /// Everything — which components participate, their quantized weights,
    /// the instruction gap, the phase period — is a pure function of
    /// `(master_seed, index)`, except the set-aliasing geometry, which is
    /// derived from `spec`'s private L2 (stride = one full way of sets, so
    /// every access of the component lands in the same L2 set; footprint =
    /// 2–4× the associativity, so revisits always conflict).
    #[must_use]
    pub fn generate(master_seed: u64, index: u64, accesses: usize, spec: &MachineSpec) -> Self {
        let mut rng = SplitMix64::new(master_seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let seed = rng.next_u64();
        let name = format!("fuzz-{master_seed:016x}-{index:04}");

        let line = 64u64;
        let l2_sets = (spec.l2.size_bytes / (spec.l2.ways as u64 * line)).max(1);
        let alias_stride = l2_sets * line;
        let alias_lines = spec.l2.ways * (2 + rng.below(3) as usize);

        // At least one adversarial ingredient (a non-zero 4-bit mask over
        // ADVERSARIAL), each with a weight in {0.25, …, 1.0}.
        let adversarial_mask = 1 + rng.below((1 << ADVERSARIAL.len()) - 1);
        let mut adversarial = [0.0f64; ADVERSARIAL.len()];
        for (bit, weight) in adversarial.iter_mut().enumerate() {
            if adversarial_mask & (1 << bit) != 0 {
                *weight = (2 + rng.below(7)) as f64 / 8.0;
            }
        }
        let [alias, phase, chase, zipf] = adversarial;

        // Benign filler: each ingredient joins with probability 1/2 at a
        // weight in {0, 1/8, …, 1}, diluting the adversarial share the way
        // real workloads bury their pathological PCs in ordinary traffic.
        // Quantized weights keep the blend's `Debug` rendering (and so
        // source fingerprints and repro manifests) short and exact.
        let mut benign = [0.0f64; BENIGN.len()];
        for weight in &mut benign {
            if rng.below(100) < 50 {
                *weight = rng.below(9) as f64 / 8.0;
            }
        }
        let [stream, stride, spatial, delta, loop_stream, resident, noise] = benign;

        let gap = 2 + rng.below(10) as u32;
        let phase_period = 1u32 << (6 + rng.below(6));
        let chase_nodes = (1 + rng.below(8) as usize) * 1_024;

        let blend = Blend {
            memory_intensive: true,
            seed,
            gap,
            stream,
            stride,
            spatial,
            delta,
            loop_stream,
            resident,
            noise,
            chase,
            chase_nodes,
            zipf,
            alias,
            alias_stride,
            alias_lines,
            phase,
            phase_period,
            ..Blend::new(&name)
        };

        Self { index, seed, accesses, blend }
    }

    /// The scenario as a lazy trace source (its fingerprint covers the whole
    /// blend description, so distinct scenarios never collide in caches).
    #[must_use]
    pub fn source(&self) -> TraceSource {
        self.blend.source(self.accesses)
    }

    /// The scenario's benchmark name (`fuzz-<master_seed>-<index>`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.blend.name
    }

    /// Names of the components currently carrying non-zero weight, in the
    /// fixed drop order used by the shrinker (benign first, adversarial
    /// last, so shrinking peels filler before it touches the pathology).
    #[must_use]
    pub fn active_components(&self) -> Vec<&'static str> {
        BENIGN
            .iter()
            .chain(ADVERSARIAL.iter())
            .copied()
            .filter(|name| component_weight(&self.blend, name) > 0.0)
            .collect()
    }
}

/// Reads the weight of the named component. Component names are the benign
/// pattern names and the [`ADVERSARIAL`] strings; anything else panics (the
/// set is closed and internal to the fuzzer).
#[must_use]
pub fn component_weight(blend: &Blend, name: &str) -> f64 {
    match name {
        "stream" => blend.stream,
        "stride" => blend.stride,
        "spatial" => blend.spatial,
        "delta" => blend.delta,
        "chase" => blend.chase,
        "loop_stream" => blend.loop_stream,
        "resident" => blend.resident,
        "noise" => blend.noise,
        "zipf" => blend.zipf,
        "alias" => blend.alias,
        "phase" => blend.phase,
        other => panic!("unknown blend component {other:?}"),
    }
}

/// Writes the weight of the named component (the shrinker's zeroing hook).
pub fn set_component_weight(blend: &mut Blend, name: &str, weight: f64) {
    match name {
        "stream" => blend.stream = weight,
        "stride" => blend.stride = weight,
        "spatial" => blend.spatial = weight,
        "delta" => blend.delta = weight,
        "chase" => blend.chase = weight,
        "loop_stream" => blend.loop_stream = weight,
        "resident" => blend.resident = weight,
        "noise" => blend.noise = weight,
        "zipf" => blend.zipf = weight,
        "alias" => blend.alias = weight,
        "phase" => blend.phase = weight,
        other => panic!("unknown blend component {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_seed_and_index() {
        let spec = MachineSpec::table1(1);
        let a = Scenario::generate(42, 3, 4_000, &spec);
        let b = Scenario::generate(42, 3, 4_000, &spec);
        assert_eq!(a, b);
        assert_ne!(a.blend, Scenario::generate(42, 4, 4_000, &spec).blend);
        assert_ne!(a.blend, Scenario::generate(43, 3, 4_000, &spec).blend);
        assert_eq!(a.name(), "fuzz-000000000000002a-0003");
    }

    #[test]
    fn every_scenario_carries_an_adversarial_component() {
        let spec = MachineSpec::table1(1);
        for index in 0..64 {
            let s = Scenario::generate(7, index, 1_000, &spec);
            let adversarial_weight: f64 =
                ADVERSARIAL.iter().map(|name| component_weight(&s.blend, name)).sum();
            assert!(adversarial_weight > 0.0, "scenario {index} is entirely benign: {s:?}");
            assert!(!s.active_components().is_empty());
            for name in BENIGN.iter().chain(ADVERSARIAL.iter()) {
                let eighths = component_weight(&s.blend, name) * 8.0;
                assert_eq!(eighths.fract(), 0.0, "{name} weight is not a multiple of 1/8: {s:?}");
            }
        }
    }

    #[test]
    fn alias_geometry_tracks_the_machine_l2() {
        let spec = MachineSpec::table1(1);
        let sets = spec.l2.size_bytes / (spec.l2.ways as u64 * 64);
        let s = Scenario::generate(1, 0, 1_000, &spec);
        assert_eq!(s.blend.alias_stride, sets * 64);
        assert!(s.blend.alias_lines >= 2 * spec.l2.ways);
        assert!(s.blend.alias_lines <= 4 * spec.l2.ways);
    }

    #[test]
    fn component_weight_accessors_round_trip() {
        let spec = MachineSpec::table1(1);
        let mut s = Scenario::generate(9, 0, 100, &spec);
        for name in BENIGN.iter().chain(ADVERSARIAL.iter()) {
            set_component_weight(&mut s.blend, name, 0.5);
            assert!((component_weight(&s.blend, name) - 0.5).abs() < 1e-12);
        }
    }
}
