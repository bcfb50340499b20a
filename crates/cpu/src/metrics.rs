//! Result structures produced by a simulation run.

use memsys::{CacheStats, DramStats, PrefetchQuality, TimingStats};
use prefetch::TableStats;

/// Per-prefetcher metadata-table statistics with the prefetcher's name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetcherReport {
    /// Prefetcher display name (`"GS"`, `"CS"`, ...).
    pub name: String,
    /// Table statistics accumulated over the run.
    pub stats: TableStats,
}

/// Results of one core over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreReport {
    /// Benchmark name.
    pub workload: String,
    /// Selection algorithm name.
    pub selector: String,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Cycle accounting over the demand stream: access count, summed
    /// load-to-use latency, and the MSHR/DRAM-queue stall breakdown.
    pub timing: TimingStats,
    /// L1D statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Prefetch quality breakdown (Fig. 10).
    pub quality: PrefetchQuality,
    /// Per-prefetcher table statistics.
    pub prefetchers: Vec<PrefetcherReport>,
    /// Total prefetcher training occurrences (Fig. 18 energy proxy).
    pub training_occurrences: u64,
    /// Total prefetcher table misses (Fig. 1).
    pub table_misses: u64,
    /// Prefetch requests issued to the memory system.
    pub prefetches_issued: u64,
    /// Branch mispredicts per kilo-instruction. `None` for core models
    /// without a branch predictor (the Approx preset) — emitted as `null` in
    /// alecto-bench-v2, so cells of both core models carry the same fields.
    pub branch_mpki: Option<f64>,
    /// Mean reorder-buffer occupancy in entries, sampled once per record.
    /// `None` for core models without an explicit ROB (the Approx preset).
    pub rob_occupancy: Option<f64>,
}

impl CoreReport {
    /// Average load-to-use latency per demand access, in cycles (0 when the
    /// core performed no memory accesses).
    #[must_use]
    pub fn avg_mem_latency(&self) -> f64 {
        self.timing.avg_demand_latency()
    }
}

/// Results of a full system run (all cores plus shared resources).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Selection algorithm name.
    pub selector: String,
    /// Composite prefetcher label.
    pub composite: String,
    /// Per-core results.
    pub cores: Vec<CoreReport>,
    /// Shared L3 statistics.
    pub l3: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Storage overhead of the selection hardware in bits.
    pub selector_storage_bits: u64,
}

impl SystemReport {
    /// Geometric-mean IPC across cores (`None` for an empty system).
    #[must_use]
    pub fn geomean_ipc(&self) -> Option<f64> {
        let ipcs: Vec<f64> = self.cores.iter().map(|c| c.ipc).collect();
        alecto_types::geomean(&ipcs)
    }

    /// Total simulated cycles of the run: the system is done when its
    /// slowest core retires the last instruction.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Total instructions retired across all cores.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate cycle accounting across all cores.
    #[must_use]
    pub fn total_timing(&self) -> TimingStats {
        let mut t = TimingStats::default();
        for c in &self.cores {
            t.merge(&c.timing);
        }
        t
    }

    /// Average load-to-use latency per demand access across all cores, in
    /// cycles (0 when the run performed no memory accesses).
    #[must_use]
    pub fn avg_mem_latency(&self) -> f64 {
        self.total_timing().avg_demand_latency()
    }

    /// Aggregate prefetch quality across all cores.
    #[must_use]
    pub fn total_quality(&self) -> PrefetchQuality {
        let mut q = PrefetchQuality::default();
        for c in &self.cores {
            q.merge(&c.quality);
        }
        q
    }

    /// Total prefetcher table misses across all cores (Fig. 1).
    #[must_use]
    pub fn total_table_misses(&self) -> u64 {
        self.cores.iter().map(|c| c.table_misses).sum()
    }

    /// Instruction-count-weighted mean of the per-core branch MPKI, `None`
    /// when no core carries the metric (every Approx-preset run).
    #[must_use]
    pub fn avg_branch_mpki(&self) -> Option<f64> {
        weighted_mean(self.cores.iter().filter_map(|c| c.branch_mpki.map(|v| (v, c.instructions))))
    }

    /// Instruction-count-weighted mean of the per-core ROB occupancy, `None`
    /// when no core carries the metric (every Approx-preset run).
    #[must_use]
    pub fn avg_rob_occupancy(&self) -> Option<f64> {
        weighted_mean(
            self.cores.iter().filter_map(|c| c.rob_occupancy.map(|v| (v, c.instructions))),
        )
    }

    /// Per-prefetcher training occurrences summed over cores, keyed by name
    /// (Fig. 18's x-axis).
    #[must_use]
    pub fn trainings_by_prefetcher(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for core in &self.cores {
            for p in &core.prefetchers {
                match out.iter_mut().find(|(n, _)| *n == p.name) {
                    Some((_, t)) => *t += p.stats.trainings,
                    None => out.push((p.name.clone(), p.stats.trainings)),
                }
            }
        }
        out
    }
}

/// Weighted arithmetic mean over `(value, weight)` pairs; `None` when no pair
/// contributes (or every weight is zero).
fn weighted_mean(pairs: impl Iterator<Item = (f64, u64)>) -> Option<f64> {
    let (mut sum, mut weight) = (0.0f64, 0u64);
    for (v, w) in pairs {
        sum += v * w as f64;
        weight += w;
    }
    if weight == 0 {
        None
    } else {
        Some(sum / weight as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_core(ipc: f64, trainings: u64) -> CoreReport {
        CoreReport {
            workload: "w".into(),
            selector: "s".into(),
            instructions: 1000,
            cycles: 500,
            ipc,
            timing: TimingStats {
                demand_accesses: 100,
                demand_latency_cycles: 2_000,
                mshr_stall_cycles: 40,
                dram_queue_cycles: 60,
            },
            l1: CacheStats { demand_misses: 50, demand_hits: 950, ..Default::default() },
            l2: CacheStats::default(),
            quality: PrefetchQuality {
                covered_timely: 10,
                covered_untimely: 5,
                uncovered: 5,
                overpredicted: 2,
            },
            prefetchers: vec![PrefetcherReport {
                name: "GS".into(),
                stats: TableStats { trainings, ..Default::default() },
            }],
            training_occurrences: trainings,
            table_misses: 7,
            prefetches_issued: 17,
            branch_mpki: None,
            rob_occupancy: None,
        }
    }

    #[test]
    fn avg_mem_latency_per_core_and_aggregate() {
        let c = dummy_core(1.0, 10);
        assert!((c.avg_mem_latency() - 20.0).abs() < 1e-9);
        let empty = CoreReport { timing: TimingStats::default(), ..dummy_core(1.0, 0) };
        assert_eq!(empty.avg_mem_latency(), 0.0);
        let second_timing = TimingStats {
            demand_accesses: 300,
            demand_latency_cycles: 600,
            mshr_stall_cycles: 1,
            dram_queue_cycles: 2,
        };
        let report = SystemReport {
            selector: "Alecto".into(),
            composite: "GS+CS+PMP".into(),
            cores: vec![
                CoreReport { cycles: 400, ..dummy_core(1.0, 1) },
                CoreReport { timing: second_timing, ..dummy_core(2.0, 1) },
            ],
            l3: CacheStats::default(),
            dram: DramStats::default(),
            selector_storage_bits: 0,
        };
        assert_eq!(report.total_cycles(), 500);
        assert_eq!(report.total_instructions(), 2000);
        assert_eq!(report.total_timing().demand_accesses, 400);
        // (2000 + 600) cycles over (100 + 300) accesses.
        assert!((report.avg_mem_latency() - 6.5).abs() < 1e-9);
    }

    #[test]
    fn system_aggregations() {
        let report = SystemReport {
            selector: "Alecto".into(),
            composite: "GS+CS+PMP".into(),
            cores: vec![dummy_core(1.0, 10), dummy_core(4.0, 30)],
            l3: CacheStats::default(),
            dram: DramStats::default(),
            selector_storage_bits: 100,
        };
        assert!((report.geomean_ipc().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(report.total_table_misses(), 14);
        let q = report.total_quality();
        assert_eq!(q.covered_timely, 20);
        let by_pf = report.trainings_by_prefetcher();
        assert_eq!(by_pf, vec![("GS".to_string(), 40)]);
    }

    #[test]
    fn pipeline_metrics_aggregate_only_when_present() {
        let mut report = SystemReport {
            selector: "Alecto".into(),
            composite: "GS+CS+PMP".into(),
            cores: vec![dummy_core(1.0, 0), dummy_core(2.0, 0)],
            l3: CacheStats::default(),
            dram: DramStats::default(),
            selector_storage_bits: 0,
        };
        // Approx-style reports: every core null, so the aggregate is null.
        assert_eq!(report.avg_branch_mpki(), None);
        assert_eq!(report.avg_rob_occupancy(), None);
        // Weighted by instructions: 2.0 over 1000 instr + 4.0 over 3000.
        report.cores[0].branch_mpki = Some(2.0);
        report.cores[1].branch_mpki = Some(4.0);
        report.cores[1].instructions = 3000;
        let mpki = report.avg_branch_mpki().expect("present");
        assert!((mpki - 3.5).abs() < 1e-9, "weighted mean, got {mpki}");
        // A lone core carrying the metric dominates the aggregate.
        report.cores[0].rob_occupancy = Some(128.0);
        assert_eq!(report.avg_rob_occupancy(), Some(128.0));
    }
}
