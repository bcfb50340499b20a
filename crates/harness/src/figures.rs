//! One function per table/figure of the paper's evaluation (§V–§VII).
//!
//! Every function returns an [`Experiment`] whose table mirrors the rows or
//! series of the corresponding figure, so `alecto-harness <id>` regenerates
//! it and EXPERIMENTS.md can record paper-vs-measured values.

use alecto::storage_breakdown;
use alecto_types::TraceSource;
use cpu::{CompositeKind, SelectionAlgorithm};
use machine::MachineSpec;
use memsys::DramKind;
use prefetch::build_composite;

use crate::energy;
use crate::report::{Experiment, Table};
use crate::runner::{merge_grids, run_multicore_mix, run_single_core_suite, RunScale, SpeedupGrid};

/// The five-algorithm comparison used by most figures.
fn main_algorithms() -> Vec<SelectionAlgorithm> {
    SelectionAlgorithm::main_comparison().to_vec()
}

fn spec06_workloads(scale: &RunScale) -> Vec<TraceSource> {
    traces::Suite::Spec06.all_sources(scale.accesses)
}

fn spec17_workloads(scale: &RunScale) -> Vec<TraceSource> {
    traces::Suite::Spec17.all_sources(scale.accesses)
}

fn memory_intensive_workloads(scale: &RunScale) -> Vec<TraceSource> {
    let mut v: Vec<TraceSource> = traces::spec06::memory_intensive()
        .iter()
        .map(|n| traces::spec06::source(n, scale.accesses))
        .collect();
    v.extend(
        traces::spec17::memory_intensive()
            .iter()
            .map(|n| traces::spec17::source(n, scale.accesses)),
    );
    v
}

/// Benchmarks with temporal patterns used by Fig. 13/14 ("representative
/// benchmarks that exhibit temporal patterns").
fn temporal_benchmarks(scale: &RunScale) -> Vec<TraceSource> {
    // The temporal experiments need traces long enough for the pointer-chase
    // working sets to recur several times, hence the larger access budget.
    ["astar", "gcc", "mcf", "omnetpp", "soplex", "sphinx3", "xalancbmk"]
        .iter()
        .map(|n| traces::spec06::source(n, scale.accesses * 4))
        .collect()
}

/// A single-core grid of `algorithms` over `sources` on `machine`, with the
/// composite every figure but Figs. 11–14 runs: the machine's pinned
/// `[prefetch]` stack, else GS+CS+PMP.
fn suite(
    scale: &RunScale,
    machine: &MachineSpec,
    sources: &[TraceSource],
    algorithms: &[SelectionAlgorithm],
) -> SpeedupGrid {
    let composite = scale.composite(CompositeKind::GsCsPmp);
    run_single_core_suite(sources, algorithms, composite, machine, scale.jobs)
}

/// [`suite`] for one multi-core mix named `name`: core `i` runs `sources[i]`.
fn mix(
    scale: &RunScale,
    machine: &MachineSpec,
    name: &str,
    sources: &[TraceSource],
    algorithms: &[SelectionAlgorithm],
) -> SpeedupGrid {
    let composite = scale.composite(CompositeKind::GsCsPmp);
    run_multicore_mix(name, sources, algorithms, composite, machine, scale.jobs)
}

fn geomean_row(grid: &SpeedupGrid, label: &str, mem_only: bool) -> Vec<String> {
    let mut row = vec![label.to_string()];
    for algo in &grid.algorithm_labels {
        row.push(format!("{:.3}", grid.geomean_speedup(algo, mem_only).unwrap_or(f64::NAN)));
    }
    row
}

// ---------------------------------------------------------------------------
// Tables I–III
// ---------------------------------------------------------------------------

/// Table I: the simulated system configuration (of the selected machine,
/// Skylake-like Table I by default).
#[must_use]
pub fn table1(scale: &RunScale) -> Experiment {
    let mut table = Table::new(vec!["Module", "Configuration"]);
    for (k, v) in scale.base_config(scale.multicore_cores(8)).describe() {
        table.push_row(vec![k, v]);
    }
    Experiment::new("table1", "System configuration (Skylake-like, Table I)", table)
}

/// Table II: the prefetchers being selected and their storage.
#[must_use]
pub fn table2() -> Experiment {
    let mut table = Table::new(vec!["Prefetcher", "Kind", "Storage (bits)"]);
    for pf in build_composite(CompositeKind::GsCsPmp) {
        table.push_row(vec![
            pf.name().to_string(),
            format!("{:?}", pf.kind()),
            pf.storage_bits().to_string(),
        ]);
    }
    for pf in build_composite(CompositeKind::GsBertiCplx).into_iter().skip(1) {
        table.push_row(vec![
            pf.name().to_string(),
            format!("{:?}", pf.kind()),
            pf.storage_bits().to_string(),
        ]);
    }
    Experiment::new("table2", "Prefetchers being selected (Table II)", table)
        .with_note("GS/CS/PMP form the default composite; Berti/CPLX the Fig. 11 alternate")
}

/// Table III: Alecto storage overhead versus the number of prefetchers, plus
/// the Bandit comparison of §VI-H.
#[must_use]
pub fn table3() -> Experiment {
    let mut table = Table::new(vec![
        "P",
        "Allocation (bits)",
        "Sample (bits)",
        "Sandbox (bits)",
        "Total (bytes)",
        "Excl. sandbox (bytes)",
    ]);
    for p in [1usize, 2, 3, 4, 6] {
        let b = storage_breakdown(p);
        table.push_row(vec![
            p.to_string(),
            b.allocation_table_bits.to_string(),
            b.sample_table_bits.to_string(),
            b.sandbox_table_bits.to_string(),
            b.total_bytes().to_string(),
            b.bytes_excluding_sandbox().to_string(),
        ]);
    }
    let bandit_ext = cpu::build_selector(SelectionAlgorithm::BanditExtended, 3)
        .expect("the extended Bandit is a selector");
    Experiment::new("table3", "Alecto storage overhead (Table III)", table)
        .with_note(
            "paper: 5312 + 1792*P bits; P=3 gives 1336 B total, 760 B excluding the sandbox"
                .to_string(),
        )
        .with_note(format!(
            "extended Bandit (§VI-H) needs {} bytes, {:.1}x Alecto's P=3 requirement",
            bandit_ext.storage_bits() / 8,
            bandit_ext.storage_bits() as f64
                / f64::from(u32::try_from(storage_breakdown(3).total_bits()).unwrap_or(1))
        ))
}

// ---------------------------------------------------------------------------
// Motivation figures
// ---------------------------------------------------------------------------

/// Fig. 1: prefetcher-table misses with and without dynamic demand request
/// allocation, over the SPEC06- and SPEC17-like suites.
#[must_use]
pub fn fig1(scale: &RunScale) -> Experiment {
    let mut table = Table::new(vec![
        "suite",
        "no DDRA (IPCP) table misses",
        "Alecto table misses",
        "reduction",
    ]);
    for (label, workloads) in
        [("SPEC CPU2006", spec06_workloads(scale)), ("SPEC CPU2017", spec17_workloads(scale))]
    {
        let grid = suite(
            scale,
            &scale.base_config(1),
            &workloads,
            &[SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto],
        );
        let misses = |algo: &str| -> u64 {
            grid.benchmarks
                .iter()
                .flat_map(|b| b.algorithms.iter().filter(|a| a.algorithm == algo))
                .map(|a| a.report.total_table_misses())
                .sum()
        };
        let without = misses("IPCP");
        let with = misses("Alecto");
        let reduction = if without == 0 { 0.0 } else { 1.0 - with as f64 / without as f64 };
        table.push_row(vec![
            label.to_string(),
            without.to_string(),
            with.to_string(),
            format!("{:.1}%", reduction * 100.0),
        ]);
    }
    Experiment::new("fig1", "Prefetcher table misses without vs with DDRA (Fig. 1)", table)
        .with_note("paper: DDRA significantly reduces prefetcher-table conflicts on both suites")
}

/// Fig. 2: the interleaved access patterns of 459.GemsFDTD — per-PC line
/// deltas of the two dominant PCs over a window of the trace.
#[must_use]
pub fn fig2(scale: &RunScale) -> Experiment {
    let w = traces::spec06::source("GemsFDTD", scale.accesses.min(4_000)).collect();
    // The two busiest PCs stand in for 0x30b00 (spatial) and 0x30aca (stream).
    let mut counts: Vec<(u64, usize)> = Vec::new();
    for r in &w.records {
        match counts.iter_mut().find(|(pc, _)| *pc == r.pc.raw()) {
            Some((_, c)) => *c += 1,
            None => counts.push((r.pc.raw(), 1)),
        }
    }
    counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    let mut table =
        Table::new(vec!["PC", "accesses", "distinct deltas", "dominant delta", "classification"]);
    for &(pc, n) in counts.iter().take(4) {
        let lines: Vec<i64> = w
            .records
            .iter()
            .filter(|r| r.pc.raw() == pc)
            .map(|r| r.addr.line().raw() as i64)
            .collect();
        let deltas: Vec<i64> = lines.windows(2).map(|w| w[1] - w[0]).collect();
        let mut distinct: Vec<i64> = deltas.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let dominant = distinct
            .iter()
            .map(|d| (d, deltas.iter().filter(|x| *x == d).count()))
            .max_by_key(|(_, c)| *c)
            .map(|(d, _)| *d)
            .unwrap_or(0);
        let class = if distinct.len() <= 2 && dominant.abs() == 1 {
            "stream"
        } else if distinct.len() <= 3 {
            "stride/delta"
        } else {
            "spatial/irregular"
        };
        table.push_row(vec![
            format!("{pc:#x}"),
            n.to_string(),
            distinct.len().to_string(),
            dominant.to_string(),
            class.to_string(),
        ]);
    }
    Experiment::new("fig2", "Interleaved per-PC patterns of GemsFDTD (Fig. 2)", table).with_note(
        "paper: PC 0x30b00 is spatial while PC 0x30aca streams; the patterns interleave in time",
    )
}

// ---------------------------------------------------------------------------
// Main single-core results
// ---------------------------------------------------------------------------

/// Fig. 8: SPEC CPU2006 single-core speedups of the five selection schemes.
#[must_use]
pub fn fig8(scale: &RunScale) -> Experiment {
    let grid = suite(scale, &scale.base_config(1), &spec06_workloads(scale), &main_algorithms());
    Experiment::new("fig8", "SPEC CPU2006 speedup over no prefetching (Fig. 8)", grid.to_table())
        .with_grid(&grid)
        .with_note("paper: Alecto beats IPCP by 8.14%, DOL by 8.04%, Bandit3 by 4.77%, Bandit6 by 3.20% (geomean)")
        .with_note("benchmarks marked * are the memory-intensive subset")
}

/// Fig. 9: SPEC CPU2017 single-core speedups.
#[must_use]
pub fn fig9(scale: &RunScale) -> Experiment {
    let grid = suite(scale, &scale.base_config(1), &spec17_workloads(scale), &main_algorithms());
    Experiment::new("fig9", "SPEC CPU2017 speedup over no prefetching (Fig. 9)", grid.to_table())
        .with_grid(&grid)
        .with_note("paper: Alecto beats IPCP by 5.47%, DOL by 5.65%, Bandit3 by 3.67%, Bandit6 by 2.32% (geomean)")
}

/// Fig. 10: covered-timely / covered-untimely / uncovered / overprediction
/// breakdown per selection scheme (normalised to the baseline miss count).
#[must_use]
pub fn fig10(scale: &RunScale) -> Experiment {
    let workloads = memory_intensive_workloads(scale);
    let grid = suite(scale, &scale.base_config(1), &workloads, &main_algorithms());
    let mut table = Table::new(vec![
        "algorithm",
        "covered timely",
        "covered untimely",
        "uncovered",
        "overprediction",
        "accuracy",
        "coverage",
    ]);
    for algo in &grid.algorithm_labels {
        let mut totals = memsys::PrefetchQuality::default();
        let mut baseline_misses = 0u64;
        for bench in &grid.benchmarks {
            baseline_misses += bench.baseline.total_quality().uncovered.max(1);
            if let Some(a) = bench.algorithms.iter().find(|a| &a.algorithm == algo) {
                totals.merge(&a.report.total_quality());
            }
        }
        let norm = baseline_misses.max(1) as f64;
        table.push_row(vec![
            algo.clone(),
            format!("{:.3}", totals.covered_timely as f64 / norm),
            format!("{:.3}", totals.covered_untimely as f64 / norm),
            format!("{:.3}", totals.uncovered as f64 / norm),
            format!("{:.3}", totals.overpredicted as f64 / norm),
            format!("{:.3}", totals.accuracy()),
            format!("{:.3}", totals.coverage()),
        ]);
    }
    Experiment::new("fig10", "Prefetcher quality metrics (Fig. 10)", table)
        .with_grid(&grid)
        .with_note(
        "paper: Alecto's accuracy exceeds Bandit6 by 13.51% without losing coverage or timeliness",
    )
}

/// Fig. 11: the alternate composite GS + Berti + CPLX.
#[must_use]
pub fn fig11(scale: &RunScale) -> Experiment {
    let grid = merge_grids(vec![
        run_single_core_suite(
            &spec06_workloads(scale),
            &main_algorithms(),
            CompositeKind::GsBertiCplx,
            &scale.base_config(1),
            scale.jobs,
        ),
        run_single_core_suite(
            &spec17_workloads(scale),
            &main_algorithms(),
            CompositeKind::GsBertiCplx,
            &scale.base_config(1),
            scale.jobs,
        ),
    ]);
    let mut table = Table::new({
        let mut h = vec!["set".to_string()];
        h.extend(grid.algorithm_labels.clone());
        h
    });
    table.push_row(geomean_row(&grid, "Geomean (SPEC06+17)", false));
    table.push_row(geomean_row(&grid, "Geomean-Mem", true));
    Experiment::new("fig11", "Alternate composite GS+Berti+CPLX (Fig. 11)", table)
        .with_grid(&grid)
        .with_note(
            "paper: Alecto beats IPCP by 8.52%, DOL by 8.68%, Bandit3 by 5.02%, Bandit6 by 2.04%",
        )
}

/// Fig. 12: composite prefetchers under Alecto versus the non-composite PMP
/// and Berti prefetchers.
#[must_use]
pub fn fig12(scale: &RunScale) -> Experiment {
    let workloads: Vec<TraceSource> =
        spec06_workloads(scale).into_iter().chain(spec17_workloads(scale)).collect();
    let config = scale.base_config(1);
    let mut table = Table::new(vec!["configuration", "geomean speedup"]);
    let single = |composite: CompositeKind| -> f64 {
        let grid = run_single_core_suite(
            &workloads,
            &[SelectionAlgorithm::Ipcp],
            composite,
            &config,
            scale.jobs,
        );
        grid.geomean_speedup("IPCP", false).unwrap_or(f64::NAN)
    };
    let alecto = |composite: CompositeKind| -> f64 {
        let grid = run_single_core_suite(
            &workloads,
            &[SelectionAlgorithm::Alecto],
            composite,
            &config,
            scale.jobs,
        );
        grid.geomean_speedup("Alecto", false).unwrap_or(f64::NAN)
    };
    table.push_row(vec![
        "PMP (non-composite)".to_string(),
        format!("{:.3}", single(CompositeKind::PmpOnly)),
    ]);
    table.push_row(vec![
        "Berti (non-composite)".to_string(),
        format!("{:.3}", single(CompositeKind::BertiOnly)),
    ]);
    table.push_row(vec![
        "Alecto (GS+CS+PMP)".to_string(),
        format!("{:.3}", alecto(CompositeKind::GsCsPmp)),
    ]);
    table.push_row(vec![
        "Alecto (GS+Berti+CPLX)".to_string(),
        format!("{:.3}", alecto(CompositeKind::GsBertiCplx)),
    ]);
    Experiment::new("fig12", "Composite (Alecto) vs non-composite prefetchers (Fig. 12)", table)
        .with_note("paper: Alecto(GS+CS+PMP) beats PMP by 9.10% and Berti by 7.83%")
}

// ---------------------------------------------------------------------------
// Temporal prefetching (Figs. 13, 14)
// ---------------------------------------------------------------------------

fn temporal_speedup(
    workloads: &[TraceSource],
    with_temporal: SelectionAlgorithm,
    without_temporal: SelectionAlgorithm,
    metadata_bytes: u64,
    scale: &RunScale,
) -> f64 {
    let jobs = scale.jobs;
    let config = scale.base_config(1);
    let with_grid = run_single_core_suite(
        workloads,
        &[with_temporal],
        CompositeKind::GsCsPmpTemporal { metadata_bytes },
        &config,
        jobs,
    );
    let without_grid = run_single_core_suite(
        workloads,
        &[without_temporal],
        CompositeKind::GsCsPmp,
        &config,
        jobs,
    );
    let mut ratios = Vec::new();
    for bench in &with_grid.benchmarks {
        let with_ipc = bench.algorithms[0].report.geomean_ipc().unwrap_or(0.0);
        let without_ipc = without_grid
            .benchmarks
            .iter()
            .find(|b| b.benchmark == bench.benchmark)
            .and_then(|b| b.algorithms[0].report.geomean_ipc())
            .unwrap_or(1e-9);
        ratios.push(with_ipc / without_ipc);
    }
    alecto_types::geomean(&ratios).unwrap_or(f64::NAN)
}

/// Fig. 13: temporal prefetching speedup under Bandit, Triangel-style
/// filtering and Alecto (L2 temporal prefetcher on top of the L1 composite).
#[must_use]
pub fn fig13(scale: &RunScale) -> Experiment {
    let workloads = temporal_benchmarks(scale);
    let metadata = 1024 * 1024;
    let mut table = Table::new(vec!["policy", "geomean speedup (vs L1 prefetchers only)"]);
    let configs = [
        ("Bandit", SelectionAlgorithm::Bandit6, SelectionAlgorithm::Bandit6),
        ("Triangel", SelectionAlgorithm::Triangel, SelectionAlgorithm::Ipcp),
        ("Alecto", SelectionAlgorithm::Alecto, SelectionAlgorithm::Alecto),
    ];
    for (label, with_t, without_t) in configs {
        let s = temporal_speedup(&workloads, with_t, without_t, metadata, scale);
        table.push_row(vec![label.to_string(), format!("{s:.3}")]);
    }
    Experiment::new(
        "fig13",
        "Temporal prefetching with different request-allocation policies (Fig. 13)",
        table,
    )
    .with_note("paper: Alecto beats Bandit by 8.39% and Triangel by 2.18% on temporal benchmarks")
}

/// Fig. 14: geomean speedup versus temporal metadata table size.
#[must_use]
pub fn fig14(scale: &RunScale) -> Experiment {
    let workloads = temporal_benchmarks(scale);
    let mut table = Table::new(vec!["metadata size", "Bandit", "Alecto"]);
    for kb in [128u64, 256, 512, 1024] {
        let bytes = kb * 1024;
        let bandit = temporal_speedup(
            &workloads,
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::Bandit6,
            bytes,
            scale,
        );
        let alecto = temporal_speedup(
            &workloads,
            SelectionAlgorithm::Alecto,
            SelectionAlgorithm::Alecto,
            bytes,
            scale,
        );
        table.push_row(vec![format!("{kb}KB"), format!("{bandit:.3}"), format!("{alecto:.3}")]);
    }
    Experiment::new("fig14", "Speedup vs temporal metadata table size (Fig. 14)", table)
        .with_note("paper: Alecto outperforms Bandit at every size (4.82%–8.39%) and matches Bandit's 1MB result with <256KB")
}

// ---------------------------------------------------------------------------
// Sensitivity studies (Figs. 15, 16) and multi-core (Fig. 17)
// ---------------------------------------------------------------------------

/// Fig. 15: geomean speedup versus LLC capacity per core.
#[must_use]
pub fn fig15(scale: &RunScale) -> Experiment {
    let workloads = memory_intensive_workloads(scale);
    let mut table = Table::new({
        let mut h = vec!["LLC / core".to_string()];
        h.extend(main_algorithms().iter().map(|a| a.label().to_string()));
        h
    });
    for mb in [512 * 1024u64, 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024] {
        let config = scale.base_config(1).with_llc_per_core(mb);
        let grid = suite(scale, &config, &workloads, &main_algorithms());
        let mut row = vec![format!("{:.1} MB", mb as f64 / (1024.0 * 1024.0))];
        for algo in &grid.algorithm_labels {
            row.push(format!("{:.3}", grid.geomean_speedup(algo, false).unwrap_or(f64::NAN)));
        }
        table.push_row(row);
    }
    Experiment::new("fig15", "Geomean speedup vs LLC size (Fig. 15)", table)
        .with_note("paper: Alecto stays 2.76%–3.10% ahead of Bandit6 across 0.5–4 MB LLCs")
}

/// Fig. 16: geomean speedup under DDR3-1600 and DDR4-2400.
#[must_use]
pub fn fig16(scale: &RunScale) -> Experiment {
    let workloads = memory_intensive_workloads(scale);
    let mut table = Table::new({
        let mut h = vec!["DRAM".to_string()];
        h.extend(main_algorithms().iter().map(|a| a.label().to_string()));
        h
    });
    for (label, kind) in [("DDR3-1600", DramKind::Ddr3_1600), ("DDR4-2400", DramKind::Ddr4_2400)] {
        let config = scale.base_config(1).with_dram_kind(kind);
        let grid = suite(scale, &config, &workloads, &main_algorithms());
        let mut row = vec![label.to_string()];
        for algo in &grid.algorithm_labels {
            row.push(format!("{:.3}", grid.geomean_speedup(algo, false).unwrap_or(f64::NAN)));
        }
        table.push_row(row);
    }
    Experiment::new("fig16", "Geomean speedup vs DRAM bandwidth (Fig. 16)", table)
        .with_note("paper: Alecto beats Bandit6 by 3.18% on DDR3-1600 and 2.76% on DDR4-2400")
}

/// Fig. 17: eight-core speedups on SPEC06/SPEC17 mixes, PARSEC and Ligra.
#[must_use]
pub fn fig17(scale: &RunScale) -> Experiment {
    let algorithms = main_algorithms();
    // Eight cores historically; a selected machine brings its own count.
    let cores = scale.multicore_cores(8);
    let config = scale.base_config(cores);
    let mut grids = Vec::new();

    // Heterogeneous SPEC06 and SPEC17 mixes over the memory-intensive subset
    // (cycled when the machine has more cores than the subset has members).
    let spec06_mix: Vec<TraceSource> = traces::spec06::memory_intensive()
        .iter()
        .cycle()
        .take(cores)
        .enumerate()
        .map(|(i, n)| offset_source(traces::spec06::source(n, scale.multicore_accesses), i))
        .collect();
    grids.push(mix(scale, &config, "SPEC06-mix", &spec06_mix, &algorithms));
    let spec17_mix: Vec<TraceSource> = traces::spec17::memory_intensive()
        .iter()
        .cycle()
        .take(cores)
        .enumerate()
        .map(|(i, n)| offset_source(traces::spec17::source(n, scale.multicore_accesses), i))
        .collect();
    grids.push(mix(scale, &config, "SPEC17-mix", &spec17_mix, &algorithms));

    // PARSEC: each core runs one thread of the same benchmark.
    for bench in ["canneal", "streamcluster"] {
        let per_core = traces::parsec::per_core_sources(bench, scale.multicore_accesses, cores);
        grids.push(mix(scale, &config, &format!("PARSEC-{bench}"), &per_core, &algorithms));
    }
    // Ligra: each core runs a kernel instance over its own graph partition.
    for kernel in ["BFS", "PageRank"] {
        let per_core: Vec<TraceSource> = (0..cores)
            .map(|i| offset_source(traces::ligra::source(kernel, scale.multicore_accesses), i))
            .collect();
        grids.push(mix(scale, &config, &format!("Ligra-{kernel}"), &per_core, &algorithms));
    }

    let merged = merge_grids(grids);
    let mut table = merged.to_table();
    table.push_row({
        let mut row = vec!["Geomean".to_string()];
        for algo in &merged.algorithm_labels {
            row.push(format!("{:.3}", merged.geomean_speedup(algo, false).unwrap_or(f64::NAN)));
        }
        row
    });
    Experiment::new("fig17", "Eight-core speedup over no prefetching (Fig. 17)", table)
        .with_grid(&merged)
        .with_note(
            "paper: Alecto beats IPCP by 10.60%, DOL by 11.52%, Bandit3 by 9.51%, Bandit6 by 7.56%",
        )
}

fn offset_source(source: TraceSource, core: usize) -> TraceSource {
    // Give each core its own address-space slice (SPEC-rate style), applied
    // lazily on the record stream.
    source.with_addr_offset((core as u64) << 40)
}

// ---------------------------------------------------------------------------
// Energy, ablations, PPF and the extended Bandit (Figs. 18–20, §VI-H/I, §VII)
// ---------------------------------------------------------------------------

/// Fig. 18 + §VI-I: per-prefetcher training occurrences and energy, Bandit6
/// versus Alecto.
#[must_use]
pub fn fig18(scale: &RunScale) -> Experiment {
    let workloads = memory_intensive_workloads(scale);
    let config = scale.base_config(1);
    let grid = suite(
        scale,
        &config,
        &workloads,
        &[SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto],
    );
    let totals = |algo: &str| -> (Vec<(String, u64)>, f64, f64) {
        let mut by_pf: Vec<(String, u64)> = Vec::new();
        let mut hierarchy = 0.0;
        let mut prefetcher = 0.0;
        for bench in &grid.benchmarks {
            if let Some(a) = bench.algorithms.iter().find(|a| a.algorithm == algo) {
                for (name, trainings) in a.report.trainings_by_prefetcher() {
                    match by_pf.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, t)) => *t += trainings,
                        None => by_pf.push((name, trainings)),
                    }
                }
                let e = energy::evaluate(&a.report);
                hierarchy += e.hierarchy_nj;
                prefetcher += e.prefetcher_nj;
            }
        }
        (by_pf, hierarchy, prefetcher)
    };
    let (bandit_pf, bandit_h, bandit_p) = totals("Bandit6");
    let (alecto_pf, alecto_h, alecto_p) = totals("Alecto");
    let mut table =
        Table::new(vec!["prefetcher", "Bandit6 trainings", "Alecto trainings", "reduction"]);
    for (name, bandit_t) in &bandit_pf {
        let alecto_t = alecto_pf.iter().find(|(n, _)| n == name).map_or(0, |(_, t)| *t);
        let reduction = if *bandit_t == 0 { 0.0 } else { 1.0 - alecto_t as f64 / *bandit_t as f64 };
        table.push_row(vec![
            name.clone(),
            bandit_t.to_string(),
            alecto_t.to_string(),
            format!("{:.1}%", reduction * 100.0),
        ]);
    }
    let train_reduction = {
        let b: u64 = bandit_pf.iter().map(|(_, t)| t).sum();
        let a: u64 = alecto_pf.iter().map(|(_, t)| t).sum();
        if b == 0 {
            0.0
        } else {
            1.0 - a as f64 / b as f64
        }
    };
    Experiment::new("fig18", "Prefetcher training occurrences and energy (Fig. 18, §VI-I)", table)
        .with_note(format!("total training reduction: {:.1}% (paper: 48%)", train_reduction * 100.0))
        .with_note(format!(
            "prefetcher-table energy: Bandit6 {bandit_p:.0} nJ vs Alecto {alecto_p:.0} nJ; hierarchy energy {:.1}% lower (paper: 7%)",
            (1.0 - (alecto_h + alecto_p) / (bandit_h + bandit_p)) * 100.0
        ))
}

/// Fig. 19 (§VII-A): the ablation isolating demand request allocation from
/// dynamic degree adjustment.
#[must_use]
pub fn fig19(scale: &RunScale) -> Experiment {
    let workloads = memory_intensive_workloads(scale);
    let grid = suite(
        scale,
        &scale.base_config(1),
        &workloads,
        &[
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::AlectoFixedDegree,
            SelectionAlgorithm::Alecto,
        ],
    );
    Experiment::new("fig19", "Ablation: Alecto with fixed prefetching degree (Fig. 19)", grid.to_table())
        .with_grid(&grid)
        .with_note("paper: Alecto_fix beats Bandit6 by 4.34%, full Alecto by 5.25% — most of the gain comes from DDRA")
}

/// Fig. 20 (§VII-C): prefetch filtering (PPF) versus demand request allocation.
#[must_use]
pub fn fig20(scale: &RunScale) -> Experiment {
    let workloads = memory_intensive_workloads(scale);
    let grid = suite(
        scale,
        &scale.base_config(1),
        &workloads,
        &[
            SelectionAlgorithm::PpfAggressive,
            SelectionAlgorithm::PpfConservative,
            SelectionAlgorithm::Alecto,
        ],
    );
    Experiment::new(
        "fig20",
        "IPCP+PPF vs Alecto on memory-intensive benchmarks (Fig. 20)",
        grid.to_table(),
    )
    .with_grid(&grid)
    .with_note(
        "paper: Alecto beats IPCP+PPF_Aggressive by 18.38% and IPCP+PPF_Conservative by 14.98%",
    )
}

/// §VI-H: the extended-arm Bandit versus Bandit6 and Alecto.
#[must_use]
pub fn bandit_extended(scale: &RunScale) -> Experiment {
    let workloads = memory_intensive_workloads(scale);
    let grid = suite(
        scale,
        &scale.base_config(1),
        &workloads,
        &[
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::BanditExtended,
            SelectionAlgorithm::Alecto,
        ],
    );
    let mut table = Table::new(vec!["algorithm", "geomean speedup", "storage (bytes)"]);
    for (algo, selector) in [
        (SelectionAlgorithm::Bandit6, cpu::build_selector(SelectionAlgorithm::Bandit6, 3)),
        (
            SelectionAlgorithm::BanditExtended,
            cpu::build_selector(SelectionAlgorithm::BanditExtended, 3),
        ),
        (SelectionAlgorithm::Alecto, cpu::build_selector(SelectionAlgorithm::Alecto, 3)),
    ] {
        let label = algo.label();
        table.push_row(vec![
            label.to_string(),
            format!("{:.3}", grid.geomean_speedup(label, false).unwrap_or(f64::NAN)),
            (selector.map_or(0, |s| s.storage_bits()) / 8).to_string(),
        ]);
    }
    Experiment::new("vi_h", "Extended-arm Bandit vs Bandit6 vs Alecto (§VI-H)", table)
        .with_grid(&grid)
        .with_note("paper: the 512-arm Bandit is 0.83% below Bandit6 and 3.59% below Alecto while needing 4 KB")
}

// ---------------------------------------------------------------------------
// Beyond the paper: the stress sweep over the production scenario families
// ---------------------------------------------------------------------------

/// The `stress` experiment: a long-horizon sweep over the three
/// production-scenario families (pointer chasing, Zipfian web serving,
/// database scan/join) plus a paper anchor (`mcf`), at 1×, 2× and 4× the
/// configured access budget. Every cell streams its trace, so the sweep's
/// memory footprint is flat however large `--accesses` gets — which is the
/// property that lets CI track speedup stability versus run length.
#[must_use]
pub fn stress(scale: &RunScale) -> Experiment {
    let algorithms =
        [SelectionAlgorithm::Ipcp, SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto];
    let config = scale.base_config(1);
    let mut grids = Vec::new();
    let corpus = corpus_sources(scale.accesses);
    for mult in [1usize, 2, 4] {
        let accesses = scale.accesses.saturating_mul(mult);
        let sources: Vec<TraceSource> = [
            traces::gc::source("linked-list", accesses),
            traces::web::source("web-cache", accesses),
            traces::db::source("hash-join", accesses),
            traces::spec06::source("mcf", accesses),
        ]
        .into_iter()
        .map(|s| {
            let name = format!("{}@{}x", s.name(), mult);
            s.with_name(name)
        })
        .collect();
        grids.push(suite(scale, &config, &sources, &algorithms));
    }
    let corpus_count = corpus.len();
    if !corpus.is_empty() {
        grids.push(suite(scale, &config, &corpus, &algorithms));
    }
    let merged = merge_grids(grids);
    let mut experiment = Experiment::new(
        "stress",
        "Access-count stress sweep over the scenario families (1x/2x/4x budget)",
        merged.to_table(),
    )
    .with_grid(&merged)
    .with_note("traces are streamed: memory stays O(1) in the access budget at every multiplier")
    .with_note(
        "families: pointer chasing (linked-list), Zipfian web serving (web-cache), database join (hash-join), paper anchor (mcf)",
    );
    if corpus_count > 0 {
        experiment = experiment.with_note(format!(
            "corpus: {corpus_count} graduated repro trace(s) from ${STRESS_CORPUS_ENV}"
        ));
    }
    experiment
}

/// Env var naming a directory whose `*.altr` traces graduate into the
/// `stress` sweep: every readable trace in it (sorted by file name, so the
/// sweep stays deterministic) is appended as a file-backed benchmark at
/// the scale's base access budget. Unset — the default everywhere except
/// fuzzing workflows — leaves `stress` exactly as it always was.
pub const STRESS_CORPUS_ENV: &str = "ALECTO_STRESS_CORPUS";

/// The graduated-corpus sources for [`stress`], if [`STRESS_CORPUS_ENV`]
/// names a directory.
///
/// # Panics
///
/// Panics if a corpus file cannot be opened or has a corrupt header —
/// graduated repros are regression inputs, so a broken one must fail the
/// sweep loudly rather than silently shrink it.
fn corpus_sources(accesses: usize) -> Vec<TraceSource> {
    let Some(dir) = std::env::var_os(STRESS_CORPUS_ENV) else {
        return Vec::new();
    };
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "altr"))
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            traceio::file_source(&path, Some(accesses))
                .unwrap_or_else(|err| panic!("cannot open trace {}: {err}", path.display()))
        })
        .collect()
}

/// The `timing` experiment: the cycle-level model's knobs made visible.
/// One benchmark per scenario family (paper anchor, pointer chasing, web
/// serving, database scan) is swept under a *latency-sensitive* DRAM
/// admission queue (`@lat`, four fills admitted per cycle), a
/// *bandwidth-bound* one (`@bw`, one fill per sixteen cycles), and the
/// latency-sensitive queue driven by the staged out-of-order core (`@ooo`,
/// [`cpu::CoreModelKind::OutOfOrder`] regardless of `--core-model`),
/// reporting speedup, IPC and average memory-access latency per cell — the
/// v2 report fields CI's perf gate tracks.
#[must_use]
pub fn timing(scale: &RunScale) -> Experiment {
    let algorithms =
        [SelectionAlgorithm::Ipcp, SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto];
    let configs = [
        ("lat", memsys::TimingParams::latency_sensitive(), scale.core_model),
        ("bw", memsys::TimingParams::bandwidth_bound(), scale.core_model),
        ("ooo", memsys::TimingParams::latency_sensitive(), cpu::CoreModelKind::OutOfOrder),
    ];
    let mut grids = Vec::new();
    for (tag, timing, core_model) in configs {
        let config = scale.machine_at(1).with_timing(timing).with_core_model(core_model);
        let sources: Vec<TraceSource> = [
            traces::spec06::source("mcf", scale.accesses),
            traces::gc::source("linked-list", scale.accesses),
            traces::web::source("web-cache", scale.accesses),
            traces::db::source("seq-scan", scale.accesses),
        ]
        .into_iter()
        .map(|s| {
            let name = format!("{}@{tag}", s.name());
            s.with_name(name)
        })
        .collect();
        grids.push(suite(scale, &config, &sources, &algorithms));
    }
    let merged = merge_grids(grids);
    let mut table = Table::new(vec![
        "benchmark",
        "algorithm",
        "speedup",
        "IPC",
        "avg mem lat",
        "base IPC",
        "base lat",
    ]);
    for bench in &merged.benchmarks {
        let base_ipc = bench.baseline.geomean_ipc().unwrap_or(f64::NAN);
        let base_lat = bench.baseline.avg_mem_latency();
        for algo in &bench.algorithms {
            table.push_row(vec![
                bench.benchmark.clone(),
                algo.algorithm.clone(),
                format!("{:.3}", algo.speedup),
                format!("{:.3}", algo.report.geomean_ipc().unwrap_or(f64::NAN)),
                format!("{:.1}", algo.report.avg_mem_latency()),
                format!("{base_ipc:.3}"),
                format!("{base_lat:.1}"),
            ]);
        }
    }
    Experiment::new(
        "timing",
        "Latency-sensitive vs bandwidth-bound timing sweep (cycle model)",
        table,
    )
    .with_grid(&merged)
    .with_note(
        "@lat admits 4 DRAM fills/cycle (latency-limited); @bw admits 1 per 16 cycles \
         (bandwidth-limited): the same trace shows higher average memory latency and lower \
         IPC under @bw; @ooo replays the @lat regime under the staged out-of-order core",
    )
    .with_note(
        "cells carry the alecto-bench-v2 fields: instructions, cycles, avg_mem_latency, and \
         (under the ooo core model) branch_mpki and rob_occupancy",
    )
}

/// The `trace replay` grid: the full hierarchy × selector sweep of the
/// paper's main comparison, driven from the given sources — typically one
/// file-backed [`TraceSource`] minted by `traceio`, but any source works.
/// The experiment's id, title and cells depend only on the sources' records
/// and names, never on where they came from, which is what makes a recorded
/// replay byte-identical to the generated-source run (pinned by the root
/// `trace_replay` integration test and the CI `trace-roundtrip` job).
#[must_use]
pub fn replay(sources: &[TraceSource], scale: &RunScale) -> Experiment {
    let grid = suite(scale, &scale.base_config(1), sources, &main_algorithms());
    Experiment::new("replay", "Hierarchy x selector grid over trace sources", grid.to_table())
        .with_grid(&grid)
        .with_note(
            "cells carry the alecto-bench-v2 fields; a recorded trace replays byte-identically \
             to its generated source",
        )
}

/// Resolves a trace spec, a registered benchmark name or `file:<path>`, into
/// a lazy source plus the seed to stamp when re-recording it: the one
/// resolver behind `trace record`, `trace replay` and the sweep server's
/// replay sweeps. A file-backed trace is opened and fully verified (every
/// block and the body checksum) before it is returned, so a corrupt file is
/// an error here instead of a panic inside a running cell. `accesses` caps a
/// file's replay and sizes a generated one (default: [`RunScale::default`]).
///
/// # Errors
///
/// Returns a message naming the spec's file or benchmark when the file
/// cannot be opened or verified, or the benchmark is unknown.
pub fn resolve_trace_spec(
    spec: &str,
    accesses: Option<usize>,
) -> Result<(TraceSource, u64), String> {
    if let Some(path) = traceio::file_spec_path(spec) {
        let reader = traceio::TraceReader::open(path).map_err(|err| err.to_string())?;
        reader.stats().map_err(|err| format!("{}: {err}", path.display()))?;
        return Ok((reader.source(accesses), reader.header().seed));
    }
    let suite = traces::Suite::of(spec)
        .ok_or_else(|| format!("unknown benchmark {spec:?} (see `alecto-harness list`)"))?;
    let accesses = accesses.unwrap_or(RunScale::default().accesses);
    Ok((suite.source(spec, accesses), traces::derive_seed(spec, 0)))
}

/// Every experiment id the CLI dispatches, in paper order, plus the
/// composite runs — what `alecto-harness list` prints. Kept next to
/// [`all`] so a new experiment is added to both or neither.
pub const EXPERIMENT_IDS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "bandit-ext",
    "stress",
    "timing",
    "all",
    "quick",
];

/// Maps an experiment id to its builder, or `None` for unknown ids. The
/// recognized set must match [`EXPERIMENT_IDS`] (what `alecto-harness list`
/// advertises) — a unit test pins the two together, so adding an experiment
/// to one and not the other fails the build, not a user. Both the CLI
/// dispatch and the sweep server's `POST /v1/sweep` resolve ids here, which
/// is one of the preconditions for their reports being byte-identical.
#[must_use]
pub fn builder(id: &str) -> Option<fn(&RunScale) -> Vec<Experiment>> {
    Some(match id {
        "table1" => |s| vec![table1(s)],
        "table2" => |_| vec![table2()],
        "table3" => |_| vec![table3()],
        "fig1" => |s| vec![fig1(s)],
        "fig2" => |s| vec![fig2(s)],
        "fig8" => |s| vec![fig8(s)],
        "fig9" => |s| vec![fig9(s)],
        "fig10" => |s| vec![fig10(s)],
        "fig11" => |s| vec![fig11(s)],
        "fig12" => |s| vec![fig12(s)],
        "fig13" => |s| vec![fig13(s)],
        "fig14" => |s| vec![fig14(s)],
        "fig15" => |s| vec![fig15(s)],
        "fig16" => |s| vec![fig16(s)],
        "fig17" => |s| vec![fig17(s)],
        "fig18" => |s| vec![fig18(s)],
        "fig19" => |s| vec![fig19(s)],
        "fig20" => |s| vec![fig20(s)],
        "bandit-ext" | "vi_h" => |s| vec![bandit_extended(s)],
        "stress" => |s| vec![stress(s)],
        "timing" => |s| vec![timing(s)],
        "all" | "quick" => all,
        _ => return None,
    })
}

/// Every experiment, in paper order (used by `alecto-harness all`).
#[must_use]
pub fn all(scale: &RunScale) -> Vec<Experiment> {
    vec![
        fig1(scale),
        fig2(scale),
        table1(scale),
        table2(),
        fig8(scale),
        fig9(scale),
        fig10(scale),
        fig11(scale),
        fig12(scale),
        fig13(scale),
        fig14(scale),
        fig15(scale),
        fig16(scale),
        fig17(scale),
        table3(),
        bandit_extended(scale),
        fig18(scale),
        fig19(scale),
        fig20(scale),
        stress(scale),
        timing(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunScale {
        RunScale::with_accesses(600, 300)
    }

    #[test]
    fn replay_specs_resolve_benchmarks_and_reject_junk() {
        assert!(resolve_trace_spec("lbm", Some(100)).is_ok());
        assert!(resolve_trace_spec("no-such-benchmark", Some(100)).is_err());
        assert!(resolve_trace_spec("file:/does/not/exist.altr", Some(100)).is_err());
    }

    #[test]
    fn static_tables_render() {
        assert!(table1(&RunScale::default()).render().contains("256-entry ROB"));
        // A named machine surfaces as the leading Table-I row.
        let server = RunScale::default().with_machine(machine::builtin("server").expect("builtin"));
        let rendered = table1(&server).render();
        assert!(rendered.contains("Machine"), "{rendered}");
        assert!(rendered.contains("server (alecto-machine-v1)"), "{rendered}");
        assert!(table2().render().contains("PMP"));
        let t3 = table3();
        assert_eq!(t3.table.cell("3", "Excl. sandbox (bytes)"), Some("760"));
    }

    #[test]
    fn fig2_finds_multiple_pattern_classes() {
        let e = fig2(&tiny());
        assert!(e.table.rows.len() >= 2);
    }

    #[test]
    fn fig19_and_fig20_run_at_tiny_scale() {
        let scale = RunScale::with_accesses(300, 200).with_jobs(2);
        let e = fig19(&scale);
        assert!(e.table.rows.iter().any(|r| r[0].starts_with("Geomean")));
        let e = fig20(&scale);
        assert!(e.render().contains("Alecto"));
    }

    #[test]
    fn stress_sweeps_every_family_at_every_multiplier() {
        let scale = RunScale::with_accesses(300, 150).with_jobs(2);
        let e = stress(&scale);
        for bench in ["linked-list", "web-cache", "hash-join", "mcf"] {
            for mult in ["1x", "2x", "4x"] {
                let row = format!("{bench}@{mult}");
                assert!(
                    e.table.rows.iter().any(|r| r[0].starts_with(&row)),
                    "stress table is missing {row}"
                );
            }
        }
        // Grid cells are exported for the JSON report.
        assert!(!e.cells.is_empty());
    }

    #[test]
    fn timing_experiment_contrasts_latency_and_bandwidth_regimes() {
        let scale = RunScale::with_accesses(600, 300).with_jobs(2);
        let e = timing(&scale);
        // Every family appears under all three timing regimes.
        for bench in ["mcf", "linked-list", "web-cache", "seq-scan"] {
            for tag in ["lat", "bw", "ooo"] {
                let row = format!("{bench}@{tag}");
                assert!(e.table.rows.iter().any(|r| r[0] == row), "timing table is missing {row}");
            }
        }
        // Cells carry the v2 timing fields, and the bandwidth-bound variant
        // of the streaming database scan shows the higher memory latency.
        assert_eq!(e.cells.len(), 3 * 4 * 3);
        assert!(e.cells.iter().all(|c| c.cycles > 0 && c.avg_mem_latency > 0.0));
        // Only the out-of-order regime reports the pipeline metrics.
        for c in &e.cells {
            let ooo = c.benchmark.ends_with("@ooo");
            assert_eq!(c.branch_mpki.is_some(), ooo, "{}", c.benchmark);
            assert_eq!(c.rob_occupancy.is_some(), ooo, "{}", c.benchmark);
        }
        let lat_of = |name: &str| {
            e.cells
                .iter()
                .find(|c| c.benchmark == name && c.algorithm == "IPCP")
                .map(|c| c.avg_mem_latency)
                .unwrap_or_else(|| panic!("missing cell {name}"))
        };
        assert!(
            lat_of("seq-scan@bw") > lat_of("seq-scan@lat"),
            "bandwidth-bound scan must expose queueing latency ({} vs {})",
            lat_of("seq-scan@bw"),
            lat_of("seq-scan@lat")
        );
    }

    #[test]
    fn bandit_extended_reports_storage_gap() {
        let scale = RunScale::with_accesses(300, 200);
        let e = bandit_extended(&scale);
        let ext_storage: u64 =
            e.table.cell("BanditExt", "storage (bytes)").unwrap().parse().unwrap();
        let alecto_storage: u64 =
            e.table.cell("Alecto", "storage (bytes)").unwrap().parse().unwrap();
        assert!(ext_storage > 2 * alecto_storage);
    }
}
