//! Activity-based energy model (§VI-I).
//!
//! The paper uses CACTI at 22 nm for the memory hierarchy and prefetcher
//! training occurrences as the proxy for prefetcher dynamic energy. CACTI is
//! not available offline, so this model charges each structure a per-access
//! energy proportional to CACTI-like constants (larger arrays cost more per
//! read) and reports *relative* energy, which is how the paper states its
//! results (48% less prefetcher-table energy, 7% less hierarchy energy).

use cpu::SystemReport;

/// Per-access energies in picojoules (22 nm-class SRAM/DRAM ballpark values;
/// only the ratios matter for the reproduction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// L1 data cache access.
    pub l1_access_pj: f64,
    /// L2 access.
    pub l2_access_pj: f64,
    /// L3 access.
    pub l3_access_pj: f64,
    /// DRAM line transfer.
    pub dram_access_pj: f64,
    /// One prefetcher-table training/lookup (small SRAM).
    pub prefetcher_table_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            l1_access_pj: 10.0,
            l2_access_pj: 28.0,
            l3_access_pj: 75.0,
            dram_access_pj: 2_000.0,
            prefetcher_table_pj: 3.0,
        }
    }
}

/// Energy breakdown of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyEnergy {
    /// Energy spent in the cache hierarchy and DRAM (nanojoules).
    pub hierarchy_nj: f64,
    /// Energy spent accessing prefetcher metadata tables (nanojoules).
    pub prefetcher_nj: f64,
}

impl EnergyModel {
    /// Evaluates the model over a system report.
    #[must_use]
    pub fn evaluate(&self, report: &SystemReport) -> HierarchyEnergy {
        let mut l1 = 0u64;
        let mut l2 = 0u64;
        let mut trainings = 0u64;
        for core in &report.cores {
            l1 += core.l1.demand_accesses() + core.l1.prefetch_fills + core.l1.prefetch_hits;
            l2 += core.l2.demand_accesses() + core.l2.prefetch_fills + core.l2.prefetch_hits;
            trainings += core.training_occurrences;
        }
        let l3 = report.l3.demand_accesses() + report.l3.prefetch_fills;
        let dram = report.dram.accesses;
        let hierarchy_pj = l1 as f64 * self.l1_access_pj
            + l2 as f64 * self.l2_access_pj
            + l3 as f64 * self.l3_access_pj
            + dram as f64 * self.dram_access_pj;
        let prefetcher_pj = trainings as f64 * self.prefetcher_table_pj;
        HierarchyEnergy {
            hierarchy_nj: hierarchy_pj / 1000.0,
            prefetcher_nj: prefetcher_pj / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu::{CompositeKind, SelectionAlgorithm, System, SystemConfig};

    fn run(algorithm: SelectionAlgorithm, name: &str, accesses: usize) -> SystemReport {
        System::new(SystemConfig::skylake_like(1), algorithm, CompositeKind::GsCsPmp)
            .run_sources(&[traces::spec06::source(name, accesses)])
            .expect("one source")
    }

    #[test]
    fn energy_scales_with_activity() {
        let small = run(SelectionAlgorithm::Ipcp, "lbm", 1_000);
        let big = run(SelectionAlgorithm::Ipcp, "lbm", 3_000);
        let m = EnergyModel::default();
        let e_small = m.evaluate(&small);
        let e_big = m.evaluate(&big);
        assert!(e_big.hierarchy_nj > e_small.hierarchy_nj);
        assert!(e_big.prefetcher_nj > e_small.prefetcher_nj);
    }

    #[test]
    fn dram_dominates_hierarchy_energy_for_miss_heavy_runs() {
        let r = run(SelectionAlgorithm::NoPrefetching, "mcf", 2_000);
        let m = EnergyModel::default();
        let e = m.evaluate(&r);
        let dram_only = r.dram.accesses as f64 * m.dram_access_pj / 1000.0;
        assert!(dram_only > 0.5 * e.hierarchy_nj);
    }
}
