//! Eight-core contention study (Figs. 16/17): run a memory-intensive mix on
//! an eight-core system under two DRAM generations and compare how the
//! selection algorithms behave when bandwidth is scarce versus plentiful.

use alecto_repro::prelude::*;
use alecto_repro::types::TraceSource;
use machine::MachineSpec;
use memsys::DramKind;

fn mix(accesses: usize) -> Vec<TraceSource> {
    traces::spec06::memory_intensive()
        .iter()
        .take(8)
        .enumerate()
        // Give each core a private address-space slice (SPEC-rate style).
        .map(|(core, name)| {
            traces::spec06::source(name, accesses).with_addr_offset((core as u64) << 40)
        })
        .collect()
}

fn main() {
    let accesses: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let sources = mix(accesses);
    println!("8-core heterogeneous SPEC06-like mix, {accesses} accesses per core\n");

    for (label, kind) in [("DDR3-1600", DramKind::Ddr3_1600), ("DDR4-2400", DramKind::Ddr4_2400)] {
        println!("--- {label} ---");
        let config = SystemConfig::from_machine(&MachineSpec::table1(8).with_dram_kind(kind));
        let mut baseline = cpu::System::new(
            config.clone(),
            SelectionAlgorithm::NoPrefetching,
            CompositeKind::GsCsPmp,
        );
        let base = baseline.run_sources(&sources).expect("eight sources");
        let base_ipc = base.geomean_ipc().unwrap_or(1e-9);
        println!("{:12} geomean IPC {:.3}", "NoPrefetch", base_ipc);
        for algorithm in SelectionAlgorithm::main_comparison() {
            let mut system = cpu::System::new(config.clone(), algorithm, CompositeKind::GsCsPmp);
            let report = system.run_sources(&sources).expect("eight sources");
            let ipc = report.geomean_ipc().unwrap_or(0.0);
            println!(
                "{:12} geomean IPC {:.3}  speedup {:.3}  DRAM row-hit rate {:.2}",
                algorithm.label(),
                ipc,
                ipc / base_ipc,
                report.dram.row_hits as f64 / report.dram.accesses.max(1) as f64,
            );
        }
        println!();
    }
}
