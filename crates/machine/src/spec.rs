//! [`MachineSpec`]: the in-memory form of a machine description, its
//! builder-style modifiers, validation, canonical rendering and fingerprint.

use alecto_types::{fnv1a_64, FNV1A_OFFSET};
use memsys::{CacheParams, DramKind, DramParams, HierarchyParams, TimingParams};

use crate::parse::FORMAT_VERSION;
use crate::CoreModelKind;

/// The memory-controller timing of a machine: one of the named presets, or
/// explicit drain-rate knobs. Presets survive the canonical round trip as
/// presets (a machine that says `preset = "balanced"` re-renders that way),
/// while explicit knobs stay explicit even when they happen to equal a
/// preset — the distinction is part of the spec's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingSpec {
    /// A named [`TimingPreset`].
    Preset(TimingPreset),
    /// Explicit `dram_drain_requests` / `dram_drain_period` values.
    Explicit(TimingParams),
}

impl TimingSpec {
    /// The lowered [`TimingParams`] this spec configures.
    #[must_use]
    pub fn params(self) -> TimingParams {
        match self {
            Self::Preset(preset) => preset.params(),
            Self::Explicit(params) => params,
        }
    }
}

/// The named memory-controller timing presets a machine file can select via
/// `[timing] preset = "..."`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingPreset {
    /// [`TimingParams::balanced`]: two fills admitted per cycle.
    Balanced,
    /// [`TimingParams::latency_sensitive`]: four fills per cycle.
    LatencySensitive,
    /// [`TimingParams::bandwidth_bound`]: one fill per sixteen cycles.
    BandwidthBound,
}

impl TimingPreset {
    /// Stable lower-case label used in machine files.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Balanced => "balanced",
            Self::LatencySensitive => "latency-sensitive",
            Self::BandwidthBound => "bandwidth-bound",
        }
    }

    /// Parses a machine-file label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "balanced" => Some(Self::Balanced),
            "latency-sensitive" => Some(Self::LatencySensitive),
            "bandwidth-bound" => Some(Self::BandwidthBound),
            _ => None,
        }
    }

    /// The preset's lowered [`TimingParams`].
    #[must_use]
    pub fn params(self) -> TimingParams {
        match self {
            Self::Balanced => TimingParams::balanced(),
            Self::LatencySensitive => TimingParams::latency_sensitive(),
            Self::BandwidthBound => TimingParams::bandwidth_bound(),
        }
    }
}

/// The composite prefetcher stack a machine selects via an optional
/// `[prefetch]` section. Mirrors the simulator's composite bundles without
/// depending on the prefetch crate: the machine format names stacks by
/// stable lower-case labels, and `cpu` lowers the chosen stack to its
/// `CompositeKind` at configuration time. A machine without a `[prefetch]`
/// section leaves the experiment's own composite choice in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchStack {
    /// GS + CS + PMP — the paper's default composite.
    GsCsPmp,
    /// GS + Berti + CPLX — the Fig. 11 alternate composite.
    GsBertiCplx,
    /// GS + CS + PMP plus a temporal prefetcher with the given metadata
    /// budget (the Fig. 13/14 configuration).
    GsCsPmpTemporal {
        /// Temporal-prefetcher metadata budget in KiB.
        metadata_kb: u32,
    },
    /// PMP alone (non-composite baseline).
    PmpOnly,
    /// Berti alone (non-composite baseline).
    BertiOnly,
}

impl PrefetchStack {
    /// Metadata budget written when a `gs-cs-pmp-temporal` stack omits
    /// `temporal_metadata_kb`.
    pub const DEFAULT_TEMPORAL_METADATA_KB: u32 = 256;

    /// Stable lower-case label used in machine files.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::GsCsPmp => "gs-cs-pmp",
            Self::GsBertiCplx => "gs-berti-cplx",
            Self::GsCsPmpTemporal { .. } => "gs-cs-pmp-temporal",
            Self::PmpOnly => "pmp",
            Self::BertiOnly => "berti",
        }
    }

    /// Parses a machine-file label; a temporal stack starts at
    /// [`PrefetchStack::DEFAULT_TEMPORAL_METADATA_KB`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "gs-cs-pmp" => Some(Self::GsCsPmp),
            "gs-berti-cplx" => Some(Self::GsBertiCplx),
            "gs-cs-pmp-temporal" => {
                Some(Self::GsCsPmpTemporal { metadata_kb: Self::DEFAULT_TEMPORAL_METADATA_KB })
            }
            "pmp" => Some(Self::PmpOnly),
            "berti" => Some(Self::BertiOnly),
            _ => None,
        }
    }
}

/// The label of a [`DramKind`] as written in machine files.
#[must_use]
pub(crate) const fn dram_label(kind: DramKind) -> &'static str {
    match kind {
        DramKind::Ddr3_1600 => "ddr3-1600",
        DramKind::Ddr4_2400 => "ddr4-2400",
    }
}

/// Parses a machine-file DRAM label.
#[must_use]
pub(crate) fn dram_from_label(label: &str) -> Option<DramKind> {
    match label {
        "ddr3-1600" => Some(DramKind::Ddr3_1600),
        "ddr4-2400" => Some(DramKind::Ddr4_2400),
        _ => None,
    }
}

/// One complete machine description: everything a simulation needs beyond
/// the workload. This is the value the `alecto-machine-v1` format encodes,
/// the built-in registry stores, and `SystemConfig::from_machine` lowers.
///
/// The shared L3 is stored **per core** (`l3_per_core`): machine files write
/// totals at the machine's own core count, and [`MachineSpec::with_cores`]
/// rescales the totals when an experiment runs the machine at a different
/// structural core count (a figure defined at eight cores keeps eight
/// cores, with this machine's per-core geometry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// The machine's name; empty for anonymous specs built in code (those
    /// lower without a "Machine" row, keeping default output untouched).
    pub name: String,
    /// Number of cores the machine declares.
    pub cores: usize,
    /// Core timing model (`[core] model`).
    pub core_model: CoreModelKind,
    /// Reorder buffer entries (`[core] rob`).
    pub rob_entries: usize,
    /// Fetch width in instructions per cycle.
    pub fetch_width: u32,
    /// Commit width in instructions per cycle.
    pub commit_width: u32,
    /// Load queue entries.
    pub load_queue: usize,
    /// Store queue entries.
    pub store_queue: usize,
    /// Instructions between selector reward epochs.
    pub selector_epoch_instructions: u64,
    /// Private L1 data cache geometry.
    pub l1d: CacheParams,
    /// Private L2 geometry.
    pub l2: CacheParams,
    /// Shared L3 geometry **per core** (`size_bytes` and `mshrs` scale with
    /// the core count at lowering time; machine files write totals).
    pub l3_per_core: CacheParams,
    /// DRAM device generation (channels and ranks derive from the core
    /// count, exactly as the Table-I presets do).
    pub dram: DramKind,
    /// Memory-controller timing: preset or explicit.
    pub timing: TimingSpec,
    /// Composite prefetcher stack the machine pins (`[prefetch]`), or
    /// `None` to let the experiment choose. Only present specs render the
    /// section, so machines written before the key keep their fingerprint.
    pub prefetch: Option<PrefetchStack>,
}

impl MachineSpec {
    /// The anonymous Table-I machine at `cores` cores — the spec every
    /// omitted key defaults to, and the one `SystemConfig::skylake_like`
    /// lowers. Anonymous (`name` empty) on purpose: configurations built
    /// from it are indistinguishable from the historical hard-coded ones.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn table1(cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        Self {
            name: String::new(),
            cores,
            core_model: CoreModelKind::Approx,
            rob_entries: 256,
            fetch_width: 6,
            commit_width: 4,
            load_queue: 72,
            store_queue: 56,
            selector_epoch_instructions: 20_000,
            l1d: CacheParams::l1d_default(),
            l2: CacheParams::l2_default(),
            // `l3_default` scales size and MSHRs linearly with the core
            // count, so its one-core geometry is the per-core share.
            l3_per_core: CacheParams::l3_default(1),
            dram: DramKind::Ddr4_2400,
            timing: TimingSpec::Preset(TimingPreset::Balanced),
            prefetch: None,
        }
    }

    /// The same machine rescaled to a different structural core count: the
    /// per-core cache geometry is kept, so the L3 total and DRAM channel
    /// count grow or shrink with `cores` exactly as the Table-I presets do.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        self.cores = cores;
        self
    }

    /// Same machine with the core timing model replaced.
    #[must_use]
    pub fn with_core_model(mut self, core_model: CoreModelKind) -> Self {
        self.core_model = core_model;
        self
    }

    /// Same machine with an explicit LLC capacity per core (the Fig. 15
    /// sensitivity axis).
    #[must_use]
    pub fn with_llc_per_core(mut self, llc_bytes_per_core: u64) -> Self {
        self.l3_per_core.size_bytes = llc_bytes_per_core;
        self
    }

    /// Same machine with the given DRAM generation (the Fig. 16 axis).
    #[must_use]
    pub fn with_dram_kind(mut self, kind: DramKind) -> Self {
        self.dram = kind;
        self
    }

    /// Same machine with explicit memory-controller timing knobs (the
    /// `timing` experiment's axis).
    #[must_use]
    pub fn with_timing(mut self, timing: TimingParams) -> Self {
        self.timing = TimingSpec::Explicit(timing);
        self
    }

    /// Lowers the machine into the simulator's [`HierarchyParams`] at its
    /// own core count: L3 size and MSHRs are multiplied out to totals, DRAM
    /// channels and ranks derive from the core count the same way the
    /// Table-I presets derive them.
    #[must_use]
    pub fn hierarchy(&self) -> HierarchyParams {
        let cores = self.cores;
        HierarchyParams {
            cores,
            l1d: self.l1d,
            l2: self.l2,
            l3: CacheParams {
                size_bytes: self.l3_per_core.size_bytes * cores as u64,
                mshrs: self.l3_per_core.mshrs * cores,
                ..self.l3_per_core
            },
            dram: DramParams::for_cores(self.dram, cores),
            timing: self.timing.params(),
        }
    }

    /// Validates the machine: core parameters are non-degenerate and the
    /// lowered hierarchy passes [`HierarchyParams::validate`] (which runs
    /// [`CacheParams::validate`] per level, producing the power-of-two-sets
    /// aliasing explanation for bad geometries).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint, prefixed with the level name where one applies.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("at least one core required".to_string());
        }
        if self.cores > 1024 {
            return Err(format!("cores = {} exceeds the supported maximum of 1024", self.cores));
        }
        if !self.name.is_empty() {
            let ok = self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
            if !ok {
                return Err(format!(
                    "machine name {:?} may only contain letters, digits, '-', '_' and '.'",
                    self.name
                ));
            }
        }
        for (label, value) in [
            ("rob", self.rob_entries),
            ("fetch_width", self.fetch_width as usize),
            ("commit_width", self.commit_width as usize),
            ("load_queue", self.load_queue),
            ("store_queue", self.store_queue),
        ] {
            if value == 0 {
                return Err(format!("core {label} must be at least 1"));
            }
        }
        if self.selector_epoch_instructions == 0 {
            return Err("selector epoch_instructions must be at least 1".to_string());
        }
        if let Some(PrefetchStack::GsCsPmpTemporal { metadata_kb: 0 }) = self.prefetch {
            return Err("prefetch temporal_metadata_kb must be at least 1".to_string());
        }
        for (label, level) in [("L1D", &self.l1d), ("L2", &self.l2), ("L3", &self.l3_per_core)] {
            if level.mshrs == 0 {
                return Err(format!("{label}: cache must have at least one MSHR"));
            }
        }
        self.hierarchy().validate()
    }

    /// Renders the spec back to `alecto-machine-v1` text, deterministically:
    /// every field is written explicitly (no defaults are elided), sizes as
    /// `size_kb` when whole-KB and `size` (bytes) otherwise, the L3 as
    /// totals at the machine's core count. `parse(canonical_text(spec))`
    /// reproduces `spec` exactly — the round-trip property the parser
    /// proptests pin — and [`MachineSpec::fingerprint`] digests this text.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "format = \"{FORMAT_VERSION}\"");
        let _ = writeln!(out, "name = \"{}\"", self.name);
        let _ = writeln!(out, "cores = {}", self.cores);
        let _ = writeln!(out, "\n[core]");
        let _ = writeln!(out, "model = \"{}\"", self.core_model.label());
        let _ = writeln!(out, "rob = {}", self.rob_entries);
        let _ = writeln!(out, "fetch_width = {}", self.fetch_width);
        let _ = writeln!(out, "commit_width = {}", self.commit_width);
        let _ = writeln!(out, "load_queue = {}", self.load_queue);
        let _ = writeln!(out, "store_queue = {}", self.store_queue);
        let levels = [
            ("l1d", &self.l1d, 1usize),
            ("l2", &self.l2, 1),
            ("l3", &self.l3_per_core, self.cores),
        ];
        for (section, params, scale) in levels {
            let _ = writeln!(out, "\n[cache.{section}]");
            let size = params.size_bytes * scale as u64;
            if size.is_multiple_of(1024) {
                let _ = writeln!(out, "size_kb = {}", size / 1024);
            } else {
                let _ = writeln!(out, "size = {size}");
            }
            let _ = writeln!(out, "ways = {}", params.ways);
            let _ = writeln!(out, "latency = {}", params.latency);
            let _ = writeln!(out, "miss_latency = {}", params.miss_latency);
            let _ = writeln!(out, "mshrs = {}", params.mshrs * scale);
        }
        let _ = writeln!(out, "\n[dram]");
        let _ = writeln!(out, "kind = \"{}\"", dram_label(self.dram));
        let _ = writeln!(out, "\n[timing]");
        match self.timing {
            TimingSpec::Preset(preset) => {
                let _ = writeln!(out, "preset = \"{}\"", preset.label());
            }
            TimingSpec::Explicit(params) => {
                let _ = writeln!(out, "dram_drain_requests = {}", params.dram_drain_requests);
                let _ = writeln!(out, "dram_drain_period = {}", params.dram_drain_period);
            }
        }
        let _ = writeln!(out, "\n[selector]");
        let _ = writeln!(out, "epoch_instructions = {}", self.selector_epoch_instructions);
        // The section is rendered only when a stack is pinned, so every spec
        // written before the key existed keeps its canonical text — and its
        // fingerprint — unchanged.
        if let Some(stack) = self.prefetch {
            let _ = writeln!(out, "\n[prefetch]");
            let _ = writeln!(out, "stack = \"{}\"", stack.label());
            if let PrefetchStack::GsCsPmpTemporal { metadata_kb } = stack {
                let _ = writeln!(out, "temporal_metadata_kb = {metadata_kb}");
            }
        }
        out
    }

    /// The machine's canonical FNV-1a64 fingerprint: the digest of
    /// [`MachineSpec::canonical_text`] under a format-version prefix.
    /// Specs that lower to the same configuration have equal fingerprints
    /// regardless of how their source files were formatted; any semantic
    /// difference — one set count, one latency — changes it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let key = fnv1a_64(FNV1A_OFFSET, b"alecto-machine|");
        fnv1a_64(key, self.canonical_text().as_bytes())
    }

    /// The fingerprint as the zero-padded hex string used in reports, the
    /// `machines` CLI and the sweep protocol.
    #[must_use]
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lowers_to_the_skylake_preset() {
        for cores in [1usize, 2, 4, 8, 16] {
            let spec = MachineSpec::table1(cores);
            assert_eq!(spec.hierarchy(), HierarchyParams::skylake_like(cores), "{cores} cores");
            assert!(spec.validate().is_ok());
            assert!(spec.name.is_empty(), "table1 must stay anonymous");
        }
    }

    #[test]
    fn with_cores_rescales_l3_totals_and_dram() {
        let spec = MachineSpec::table1(1).with_cores(8);
        let h = spec.hierarchy();
        assert_eq!(h.l3.size_bytes, 16 * 1024 * 1024);
        assert_eq!(h.l3.mshrs, 8 * 64);
        assert_eq!(h.dram.channels, 4);
        assert_eq!(h.dram.ranks_per_channel, 2);
    }

    #[test]
    fn modifiers_match_the_historical_presets() {
        for cores in [1usize, 2, 8] {
            let table1 = HierarchyParams::skylake_like(cores);
            let spec = MachineSpec::table1(cores).with_llc_per_core(512 * 1024);
            let l3 = CacheParams { size_bytes: 512 * 1024 * cores as u64, ..table1.l3 };
            assert_eq!(spec.hierarchy(), HierarchyParams { l3, ..table1.clone() });
            let spec = MachineSpec::table1(cores).with_dram_kind(DramKind::Ddr3_1600);
            let dram = DramParams::for_cores(DramKind::Ddr3_1600, cores);
            assert_eq!(spec.hierarchy(), HierarchyParams { dram, ..table1.clone() });
            let spec = MachineSpec::table1(cores).with_timing(TimingParams::bandwidth_bound());
            let timing = TimingParams::bandwidth_bound();
            assert_eq!(spec.hierarchy(), HierarchyParams { timing, ..table1 });
        }
    }

    #[test]
    fn validate_reuses_the_aliasing_explanation() {
        let mut spec = MachineSpec::table1(1);
        spec.l2.size_bytes = 3 * 64 * 8; // 3 sets at 8 ways
        let err = spec.validate().unwrap_err();
        assert!(err.starts_with("L2:"), "level must be named: {err}");
        assert!(err.contains("alias"), "the mask aliasing must be explained: {err}");
    }

    #[test]
    fn validate_rejects_degenerate_machines() {
        let mut spec = MachineSpec::table1(1);
        spec.rob_entries = 0;
        assert!(spec.validate().unwrap_err().contains("rob"));
        let mut spec = MachineSpec::table1(1);
        spec.l1d.mshrs = 0;
        assert!(spec.validate().unwrap_err().contains("MSHR"));
        let mut spec = MachineSpec::table1(1);
        spec.name = "spaced name".to_string();
        assert!(spec.validate().unwrap_err().contains("name"));
    }

    #[test]
    fn fingerprint_tracks_semantic_changes_only() {
        let base = MachineSpec::table1(4);
        assert_eq!(base.fingerprint(), MachineSpec::table1(4).fingerprint());
        assert_ne!(base.fingerprint(), MachineSpec::table1(8).fingerprint());
        assert_ne!(
            base.fingerprint(),
            base.clone().with_dram_kind(DramKind::Ddr3_1600).fingerprint()
        );
        // An explicit timing equal to a preset is a distinct spec.
        assert_ne!(
            base.fingerprint(),
            base.clone().with_timing(TimingParams::balanced()).fingerprint()
        );
        assert_eq!(base.fingerprint_hex().len(), 16);
    }

    #[test]
    fn prefetch_section_renders_only_when_pinned() {
        let base = MachineSpec::table1(1);
        assert!(!base.canonical_text().contains("[prefetch]"));
        let pinned = MachineSpec { prefetch: Some(PrefetchStack::BertiOnly), ..base.clone() };
        assert!(pinned.canonical_text().contains("[prefetch]\nstack = \"berti\"\n"));
        assert_ne!(base.fingerprint(), pinned.fingerprint());
        let temporal = MachineSpec {
            prefetch: Some(PrefetchStack::GsCsPmpTemporal { metadata_kb: 512 }),
            ..base.clone()
        };
        assert!(temporal.canonical_text().contains("temporal_metadata_kb = 512"));
        assert!(temporal.validate().is_ok());
        let degenerate = MachineSpec {
            prefetch: Some(PrefetchStack::GsCsPmpTemporal { metadata_kb: 0 }),
            ..base
        };
        assert!(degenerate.validate().unwrap_err().contains("temporal_metadata_kb"));
    }

    #[test]
    fn prefetch_labels_round_trip() {
        for stack in [
            PrefetchStack::GsCsPmp,
            PrefetchStack::GsBertiCplx,
            PrefetchStack::GsCsPmpTemporal {
                metadata_kb: PrefetchStack::DEFAULT_TEMPORAL_METADATA_KB,
            },
            PrefetchStack::PmpOnly,
            PrefetchStack::BertiOnly,
        ] {
            assert_eq!(PrefetchStack::from_label(stack.label()), Some(stack));
        }
        assert_eq!(PrefetchStack::from_label("ampm"), None);
    }
}
