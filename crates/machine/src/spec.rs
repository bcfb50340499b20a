//! [`MachineSpec`]: the in-memory form of a machine description, its
//! builder-style modifiers, validation, canonical rendering and fingerprint.

use alecto_types::{fnv1a_64, FNV1A_OFFSET};
use memsys::{CacheParams, DramKind, DramParams, HierarchyParams, TimingParams};
use prefetch::CompositeKind;

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
    /// Every preset.
    const ALL: [Self; 3] = [Self::Balanced, Self::LatencySensitive, Self::BandwidthBound];

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
        Self::ALL.into_iter().find(|preset| preset.label() == label)
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
    [DramKind::Ddr3_1600, DramKind::Ddr4_2400].into_iter().find(|&kind| dram_label(kind) == label)
}

/// Metadata budget, in KiB, of a `gs-cs-pmp-temporal` stack whose file
/// omits `temporal_metadata_kb`.
pub(crate) const DEFAULT_TEMPORAL_METADATA_KB: u64 = 256;

/// The label of a composite prefetcher stack as written in machine files
/// (`[prefetch] stack`).
#[must_use]
pub(crate) const fn prefetch_label(kind: CompositeKind) -> &'static str {
    match kind {
        CompositeKind::GsCsPmp => "gs-cs-pmp",
        CompositeKind::GsBertiCplx => "gs-berti-cplx",
        CompositeKind::GsCsPmpTemporal { .. } => "gs-cs-pmp-temporal",
        CompositeKind::PmpOnly => "pmp",
        CompositeKind::BertiOnly => "berti",
    }
}

/// Every composite stack a machine file can pin, the temporal one at
/// [`DEFAULT_TEMPORAL_METADATA_KB`].
const PREFETCH_STACKS: [CompositeKind; 5] = [
    CompositeKind::GsCsPmp,
    CompositeKind::GsBertiCplx,
    CompositeKind::GsCsPmpTemporal { metadata_bytes: DEFAULT_TEMPORAL_METADATA_KB * 1024 },
    CompositeKind::PmpOnly,
    CompositeKind::BertiOnly,
];

/// Parses a machine-file stack label; a temporal stack starts at
/// [`DEFAULT_TEMPORAL_METADATA_KB`].
#[must_use]
pub(crate) fn prefetch_from_label(label: &str) -> Option<CompositeKind> {
    PREFETCH_STACKS.into_iter().find(|&stack| prefetch_label(stack) == label)
}

/// One complete machine description: everything a simulation needs beyond
/// the workload. This is the value the `alecto-machine-v1` format encodes,
/// the built-in registry stores, and `cpu::System` simulates.
///
/// The shared L3 is stored **per core** (`l3_per_core`): machine files write
/// totals at the machine's own core count, and [`MachineSpec::with_cores`]
/// rescales the totals when an experiment runs the machine at a different
/// structural core count (a figure defined at eight cores keeps eight
/// cores, with this machine's per-core geometry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// The machine's name; empty for anonymous specs built in code (those
    /// describe no "Machine" row, keeping default output untouched).
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
    /// The file writes a temporal stack's budget in KiB, so a pinned
    /// temporal budget is a whole number of KiB, at least 1.
    pub prefetch: Option<CompositeKind>,
}

impl MachineSpec {
    /// The anonymous Table-I machine at `cores` cores — the spec every
    /// omitted key defaults to. Anonymous (`name` empty) on purpose: its
    /// reports carry no "Machine" row, byte-identical to the historical
    /// hard-coded configuration.
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

    /// Validates the machine: core parameters are non-degenerate, the
    /// lowered hierarchy passes [`HierarchyParams::validate`] (which runs
    /// [`CacheParams::validate`] per level, producing the power-of-two-sets
    /// aliasing explanation for bad geometries), and so does the per-core
    /// L3, which is the whole L3 when a single-core experiment runs the
    /// machine at one core.
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
        // The canonical text renders the budget in KiB.
        if let Some(CompositeKind::GsCsPmpTemporal { metadata_bytes }) = self.prefetch {
            if metadata_bytes < 1024 {
                return Err("prefetch temporal_metadata_kb must be at least 1".to_string());
            }
        }
        for (label, level) in [("L1D", &self.l1d), ("L2", &self.l2), ("L3", &self.l3_per_core)] {
            if level.mshrs == 0 {
                return Err(format!("{label}: cache must have at least one MSHR"));
            }
        }
        self.hierarchy().validate()?;
        // At one core only the L3's set count can fail where the lowering
        // at the machine's own count passed: 3 MiB over 3 cores is 4,096
        // sets of 12 ways, its 1 MiB share 1,365.
        self.l3_per_core
            .validate()
            .map_err(|e| format!("L3: one core's share (what single-core experiments run): {e}"))
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
        // Destructured without `..`, as are the cache levels and the timing
        // knobs below: a field added later fails to compile here until it is
        // rendered, and so until the fingerprint that keys cached cells
        // covers it.
        let Self {
            name,
            cores,
            core_model,
            rob_entries,
            fetch_width,
            commit_width,
            load_queue,
            store_queue,
            selector_epoch_instructions,
            l1d,
            l2,
            l3_per_core,
            dram,
            timing,
            prefetch,
        } = self;
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "format = \"{FORMAT_VERSION}\"");
        let _ = writeln!(out, "name = \"{name}\"");
        let _ = writeln!(out, "cores = {cores}");
        let _ = writeln!(out, "\n[core]");
        let _ = writeln!(out, "model = \"{}\"", core_model.label());
        let _ = writeln!(out, "rob = {rob_entries}");
        let _ = writeln!(out, "fetch_width = {fetch_width}");
        let _ = writeln!(out, "commit_width = {commit_width}");
        let _ = writeln!(out, "load_queue = {load_queue}");
        let _ = writeln!(out, "store_queue = {store_queue}");
        for (section, params, scale) in
            [("l1d", l1d, 1usize), ("l2", l2, 1), ("l3", l3_per_core, *cores)]
        {
            let CacheParams { size_bytes, ways, latency, miss_latency, mshrs } = *params;
            let _ = writeln!(out, "\n[cache.{section}]");
            let size = size_bytes * scale as u64;
            if size.is_multiple_of(1024) {
                let _ = writeln!(out, "size_kb = {}", size / 1024);
            } else {
                let _ = writeln!(out, "size = {size}");
            }
            let _ = writeln!(out, "ways = {ways}");
            let _ = writeln!(out, "latency = {latency}");
            let _ = writeln!(out, "miss_latency = {miss_latency}");
            let _ = writeln!(out, "mshrs = {}", mshrs * scale);
        }
        let _ = writeln!(out, "\n[dram]");
        let _ = writeln!(out, "kind = \"{}\"", dram_label(*dram));
        let _ = writeln!(out, "\n[timing]");
        match timing {
            TimingSpec::Preset(preset) => {
                let _ = writeln!(out, "preset = \"{}\"", preset.label());
            }
            TimingSpec::Explicit(TimingParams { dram_drain_requests, dram_drain_period }) => {
                let _ = writeln!(out, "dram_drain_requests = {dram_drain_requests}");
                let _ = writeln!(out, "dram_drain_period = {dram_drain_period}");
            }
        }
        let _ = writeln!(out, "\n[selector]");
        let _ = writeln!(out, "epoch_instructions = {selector_epoch_instructions}");
        // The section is rendered only when a stack is pinned, so every spec
        // written before the key existed keeps its canonical text — and its
        // fingerprint — unchanged.
        if let Some(stack) = *prefetch {
            let _ = writeln!(out, "\n[prefetch]");
            let _ = writeln!(out, "stack = \"{}\"", prefetch_label(stack));
            if let CompositeKind::GsCsPmpTemporal { metadata_bytes } = stack {
                let _ = writeln!(out, "temporal_metadata_kb = {}", metadata_bytes / 1024);
            }
        }
        out
    }

    /// The machine's canonical FNV-1a64 fingerprint: the digest of
    /// [`MachineSpec::canonical_text`] under a format-version prefix.
    /// Equal specs have equal fingerprints regardless of how their source
    /// files were formatted; any semantic difference — one set count, one
    /// latency, the name — changes it. It keys the harness's cached cells.
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

    /// Renders the machine as the rows of Table I (the harness's `table1`
    /// command). A named machine leads with a "Machine" row naming it;
    /// anonymous specs render exactly the historical rows. Sizes print
    /// exactly: a private level as `N KB` when it is whole KiB, the shared
    /// L3 as `N MB` when it is whole MiB, and any other size in bytes.
    #[must_use]
    pub fn describe(&self) -> Vec<(String, String)> {
        let h = self.hierarchy();
        let mut rows = Vec::with_capacity(8);
        if !self.name.is_empty() {
            rows.push(("Machine".to_string(), format!("{} ({FORMAT_VERSION})", self.name)));
        }
        let l3_size = size_text(h.l3.size_bytes, true);
        rows.extend([
            (
                "Core".to_string(),
                format!(
                    "{} cores, {}-entry ROB, {}-width fetch, {}-width commit, {}/{}-entry LQ/SQ",
                    self.cores,
                    self.rob_entries,
                    self.fetch_width,
                    self.commit_width,
                    self.load_queue,
                    self.store_queue
                ),
            ),
            (
                "Core model".to_string(),
                match self.core_model {
                    CoreModelKind::Approx => {
                        "approx: analytic fetch/retire frontiers (sweep default)".to_string()
                    }
                    CoreModelKind::OutOfOrder => {
                        "ooo: staged ROB/LSQ/gshare pipeline, integer cycles".to_string()
                    }
                },
            ),
            (
                "Private L1 D-cache".to_string(),
                format!(
                    "{}, {}-way, 64B line, {} MSHRs, {} cycles round trip",
                    size_text(h.l1d.size_bytes, false),
                    h.l1d.ways,
                    h.l1d.mshrs,
                    h.l1d.latency
                ),
            ),
            (
                "Private L2 cache".to_string(),
                format!(
                    "{}, {}-way, {} MSHRs, {} cycles round trip",
                    size_text(h.l2.size_bytes, false),
                    h.l2.ways,
                    h.l2.mshrs,
                    h.l2.latency
                ),
            ),
            (
                "Shared L3 cache".to_string(),
                format!("{l3_size} total, {}-way, {} cycles round trip", h.l3.ways, h.l3.latency),
            ),
            (
                "Main memory".to_string(),
                format!(
                    "{:?}, {} channel(s), {} rank(s)/channel, {} banks/rank",
                    h.dram.kind,
                    h.dram.channels,
                    h.dram.ranks_per_channel,
                    memsys::dram::BANKS_PER_RANK
                ),
            ),
            (
                "Memory controller".to_string(),
                format!(
                    "admits {} fill(s) per {} cycle(s)",
                    h.timing.dram_drain_requests, h.timing.dram_drain_period
                ),
            ),
        ]);
        rows
    }
}

/// `bytes` as a Table I row spells it: `N MB` when `mib` is set and the size
/// is whole MiB, else `N KB` when it is whole KiB, else `N B`.
fn size_text(bytes: u64, mib: bool) -> String {
    if mib && bytes.is_multiple_of(1024 * 1024) {
        format!("{} MB", bytes / (1024 * 1024))
    } else if bytes.is_multiple_of(1024) {
        format!("{} KB", bytes / 1024)
    } else {
        format!("{bytes} B")
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
        let spec = MachineSpec::table1(1);
        assert_eq!(spec.rob_entries, 256);
        assert_eq!(spec.fetch_width, 6);
        assert_eq!(spec.commit_width, 4);
        assert_eq!(spec.load_queue, 72);
        assert_eq!(spec.store_queue, 56);
    }

    #[test]
    fn describe_covers_all_modules() {
        let rows = MachineSpec::table1(8).describe();
        let labels: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert!(labels.contains(&"Core"));
        assert!(labels.contains(&"Core model"));
        assert!(labels.contains(&"Shared L3 cache"));
        assert!(labels.contains(&"Main memory"));
        assert!(rows.iter().all(|(_, v)| !v.is_empty()));
        // Anonymous specs must render the historical rows only: the
        // "Machine" row is reserved for named specs (default reports stay
        // byte-identical).
        assert!(!labels.contains(&"Machine"));
        let named = MachineSpec { name: "server".to_string(), ..MachineSpec::table1(8) };
        let rows = named.describe();
        assert_eq!(rows[0], ("Machine".to_string(), "server (alecto-machine-v1)".to_string()));
        // `describe()` surfaces the selected model so `table1` documents it.
        let rows = MachineSpec::table1(1).with_core_model(CoreModelKind::OutOfOrder).describe();
        let row = rows.iter().find(|(k, _)| k == "Core model").expect("row");
        assert!(row.1.starts_with("ooo"));
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
        // 3 MiB of 12-way L3 has 4,096 sets at 3 cores but 1,365 in the one
        // core's share that single-core experiments run.
        let mut spec = MachineSpec::table1(3);
        spec.l3_per_core = CacheParams { size_bytes: 1 << 20, ways: 12, ..spec.l3_per_core };
        assert!(spec.hierarchy().validate().is_ok());
        let err = spec.validate().unwrap_err();
        assert!(err.starts_with("L3:") && err.contains("got 1365"), "{err}");
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
        let pinned = MachineSpec { prefetch: Some(CompositeKind::BertiOnly), ..base.clone() };
        assert!(pinned.canonical_text().contains("[prefetch]\nstack = \"berti\"\n"));
        assert_ne!(base.fingerprint(), pinned.fingerprint());
        let temporal = |metadata_bytes| MachineSpec {
            prefetch: Some(CompositeKind::GsCsPmpTemporal { metadata_bytes }),
            ..base.clone()
        };
        assert!(temporal(512 * 1024).canonical_text().contains("temporal_metadata_kb = 512"));
        assert!(temporal(512 * 1024).validate().is_ok());
        // The text renders KiB, so a budget under 1 KiB is invalid.
        for bytes in [0, 1000] {
            assert!(temporal(bytes).validate().unwrap_err().contains("temporal_metadata_kb"));
        }
    }

    #[test]
    fn prefetch_labels_round_trip() {
        for stack in [
            CompositeKind::GsCsPmp,
            CompositeKind::GsBertiCplx,
            CompositeKind::GsCsPmpTemporal { metadata_bytes: DEFAULT_TEMPORAL_METADATA_KB * 1024 },
            CompositeKind::PmpOnly,
            CompositeKind::BertiOnly,
        ] {
            assert_eq!(prefetch_from_label(prefetch_label(stack)), Some(stack));
        }
        assert_eq!(prefetch_from_label("ampm"), None);
    }
}
