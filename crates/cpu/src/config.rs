//! System configuration mirroring Table I ("1–8 cores, 256-entry ROB, 6-width
//! fetch, 6-width decode, 8-width issue, 4-width commit, 72/56-entry LQ/SQ").
//!
//! All construction funnels through [`SystemConfig::from_machine`]: a
//! [`MachineSpec`] (from the built-in registry, a machine file, or the
//! anonymous [`MachineSpec::table1`] defaults, varied with its `with_*`
//! modifiers) is lowered into the concrete simulator parameters here.

use machine::{MachineSpec, PrefetchStack};
use memsys::HierarchyParams;
use prefetch::CompositeKind;

pub use machine::CoreModelKind;

/// Lowers a machine file's `[prefetch]` stack choice into the simulator's
/// [`CompositeKind`] — the prefetch-side counterpart of
/// [`SystemConfig::from_machine`]. The machine format stores the temporal
/// metadata budget in KiB; the composite takes bytes.
#[must_use]
pub fn composite_from_stack(stack: PrefetchStack) -> CompositeKind {
    match stack {
        PrefetchStack::GsCsPmp => CompositeKind::GsCsPmp,
        PrefetchStack::GsBertiCplx => CompositeKind::GsBertiCplx,
        PrefetchStack::GsCsPmpTemporal { metadata_kb } => {
            CompositeKind::GsCsPmpTemporal { metadata_bytes: u64::from(metadata_kb) * 1024 }
        }
        PrefetchStack::PmpOnly => CompositeKind::PmpOnly,
        PrefetchStack::BertiOnly => CompositeKind::BertiOnly,
    }
}

/// Full system configuration: core microarchitecture plus memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Reorder buffer entries (Table I: 256).
    pub rob_entries: usize,
    /// Fetch width in instructions per cycle (Table I: 6).
    pub fetch_width: u32,
    /// Commit width in instructions per cycle (Table I: 4).
    pub commit_width: u32,
    /// Load queue entries (Table I: 72).
    pub load_queue: usize,
    /// Store queue entries (Table I: 56).
    pub store_queue: usize,
    /// Memory hierarchy parameters (Table I caches + DRAM).
    pub hierarchy: HierarchyParams,
    /// Instructions between selector reward epochs (the Bandit reward period).
    pub selector_epoch_instructions: u64,
    /// Which core timing model to simulate (Approx analytic vs OutOfOrder
    /// staged pipeline).
    pub core_model: CoreModelKind,
    /// Name of the machine description this configuration was lowered from,
    /// when it came from a *named* spec (registry or file). `None` for the
    /// anonymous Table-I defaults, which keeps default reports byte-stable.
    /// Participates in the config's `Debug` rendering and therefore in the
    /// harness cell cache key.
    pub machine: Option<String>,
}

impl SystemConfig {
    /// Lowers a [`MachineSpec`] into a runnable configuration — the single
    /// construction funnel shared by the CLI, the sweep server and the
    /// tests. The spec's name is recorded (and surfaced by
    /// [`SystemConfig::describe`]) unless the spec is anonymous.
    #[must_use]
    pub fn from_machine(spec: &MachineSpec) -> Self {
        Self {
            cores: spec.cores,
            rob_entries: spec.rob_entries,
            fetch_width: spec.fetch_width,
            commit_width: spec.commit_width,
            load_queue: spec.load_queue,
            store_queue: spec.store_queue,
            hierarchy: spec.hierarchy(),
            selector_epoch_instructions: spec.selector_epoch_instructions,
            core_model: spec.core_model,
            machine: (!spec.name.is_empty()).then(|| spec.name.clone()),
        }
    }

    /// The Skylake-like configuration of Table I for `cores` cores —
    /// [`SystemConfig::from_machine`] over the anonymous
    /// [`MachineSpec::table1`] defaults.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn skylake_like(cores: usize) -> Self {
        Self::from_machine(&MachineSpec::table1(cores))
    }

    /// Same configuration with the core timing model replaced (builder-style,
    /// so experiment code can write
    /// `SystemConfig::skylake_like(n).with_core_model(kind)`).
    #[must_use]
    pub fn with_core_model(mut self, kind: CoreModelKind) -> Self {
        self.core_model = kind;
        self
    }

    /// Renders the configuration as the rows of Table I (used by the harness's
    /// `table1` command). Configurations lowered from a named machine lead
    /// with a "Machine" row naming the spec; anonymous (default) ones render
    /// exactly the historical rows.
    #[must_use]
    pub fn describe(&self) -> Vec<(String, String)> {
        let mut rows = Vec::with_capacity(8);
        if let Some(name) = &self.machine {
            rows.push(("Machine".to_string(), format!("{name} (alecto-machine-v1)")));
        }
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
                    "{} KB, {}-way, 64B line, {} MSHRs, {} cycles round trip",
                    self.hierarchy.l1d.size_bytes / 1024,
                    self.hierarchy.l1d.ways,
                    self.hierarchy.l1d.mshrs,
                    self.hierarchy.l1d.latency
                ),
            ),
            (
                "Private L2 cache".to_string(),
                format!(
                    "{} KB, {}-way, {} MSHRs, {} cycles round trip",
                    self.hierarchy.l2.size_bytes / 1024,
                    self.hierarchy.l2.ways,
                    self.hierarchy.l2.mshrs,
                    self.hierarchy.l2.latency
                ),
            ),
            (
                "Shared L3 cache".to_string(),
                format!(
                    "{} MB total, {}-way, {} cycles round trip",
                    self.hierarchy.l3.size_bytes / (1024 * 1024),
                    self.hierarchy.l3.ways,
                    self.hierarchy.l3.latency
                ),
            ),
            (
                "Main memory".to_string(),
                format!(
                    "{:?}, {} channel(s), {} rank(s)/channel, {} banks/rank",
                    self.hierarchy.dram.kind,
                    self.hierarchy.dram.channels,
                    self.hierarchy.dram.ranks_per_channel,
                    self.hierarchy.dram.banks_per_rank
                ),
            ),
            (
                "Memory controller".to_string(),
                format!(
                    "admits {} fill(s) per {} cycle(s)",
                    self.hierarchy.timing.dram_drain_requests,
                    self.hierarchy.timing.dram_drain_period
                ),
            ),
        ]);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_core_parameters() {
        let c = SystemConfig::skylake_like(1);
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.load_queue, 72);
        assert_eq!(c.store_queue, 56);
        assert_eq!(c.hierarchy.cores, 1);
        assert_eq!(c.machine, None, "the anonymous defaults carry no machine name");
    }

    #[test]
    fn llc_and_dram_variants() {
        let c = SystemConfig::from_machine(&MachineSpec::table1(1).with_llc_per_core(512 * 1024));
        assert_eq!(c.hierarchy.l3.size_bytes, 512 * 1024);
        let kind = memsys::DramKind::Ddr3_1600;
        let c = SystemConfig::from_machine(&MachineSpec::table1(1).with_dram_kind(kind));
        assert_eq!(c.hierarchy.dram.kind, kind);
    }

    #[test]
    fn from_machine_is_the_single_funnel() {
        // The historical constructors must produce exactly what lowering the
        // equivalent spec produces — they are the same code path.
        for cores in [1usize, 2, 4, 8] {
            assert_eq!(
                SystemConfig::skylake_like(cores),
                SystemConfig::from_machine(&MachineSpec::table1(cores)),
            );
        }
        let named = machine::builtin("desktop").expect("builtin");
        let c = SystemConfig::from_machine(&named);
        assert_eq!(c.machine.as_deref(), Some("desktop"));
        assert_eq!(c.cores, 4);
    }

    #[test]
    fn describe_covers_all_modules() {
        let rows = SystemConfig::skylake_like(8).describe();
        let labels: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert!(labels.contains(&"Core"));
        assert!(labels.contains(&"Core model"));
        assert!(labels.contains(&"Shared L3 cache"));
        assert!(labels.contains(&"Main memory"));
        assert!(rows.iter().all(|(_, v)| !v.is_empty()));
        // Anonymous configs must render the historical rows only: the
        // "Machine" row is reserved for named specs (default reports stay
        // byte-identical).
        assert!(!labels.contains(&"Machine"));
        let named = SystemConfig::from_machine(&machine::builtin("server").expect("builtin"));
        let rows = named.describe();
        assert_eq!(rows[0].0, "Machine");
        assert!(rows[0].1.contains("server"));
    }

    #[test]
    fn prefetch_stacks_lower_to_composites() {
        assert_eq!(composite_from_stack(PrefetchStack::GsCsPmp), CompositeKind::GsCsPmp);
        assert_eq!(composite_from_stack(PrefetchStack::GsBertiCplx), CompositeKind::GsBertiCplx);
        assert_eq!(composite_from_stack(PrefetchStack::PmpOnly), CompositeKind::PmpOnly);
        assert_eq!(composite_from_stack(PrefetchStack::BertiOnly), CompositeKind::BertiOnly);
        assert_eq!(
            composite_from_stack(PrefetchStack::GsCsPmpTemporal { metadata_kb: 512 }),
            CompositeKind::GsCsPmpTemporal { metadata_bytes: 512 * 1024 },
        );
    }

    #[test]
    fn core_model_labels_round_trip() {
        assert_eq!(CoreModelKind::default(), CoreModelKind::Approx);
        for kind in [CoreModelKind::Approx, CoreModelKind::OutOfOrder] {
            assert_eq!(CoreModelKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(CoreModelKind::from_label("o3"), None);
        // `describe()` surfaces the selected model so `table1` documents it.
        let rows =
            SystemConfig::skylake_like(1).with_core_model(CoreModelKind::OutOfOrder).describe();
        let row = rows.iter().find(|(k, _)| k == "Core model").expect("row");
        assert!(row.1.starts_with("ooo"));
    }
}
