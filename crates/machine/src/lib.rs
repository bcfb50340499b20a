//! Declarative machine descriptions: the versioned `alecto-machine-v1` file
//! format, its hand-rolled (std-only) parser, and the built-in registry of
//! named machines.
//!
//! Every scenario axis the evaluation sweeps — cache geometry per level,
//! DRAM generation, memory-controller timing, core model and widths, core
//! count — used to be Rust-side configuration, so growing the scenario
//! matrix meant recompiling. A [`MachineSpec`] captures all of it as data:
//!
//! * parsed from a TOML-shaped text file ([`parse()`]) with line-numbered,
//!   aliasing-explaining errors that reuse `memsys`'s own validators;
//! * or taken from the built-in registry ([`builtin`], [`load`]) of named
//!   machines (`mobile` / `desktop` / `server` / `manycore`) embedded via
//!   `include_str!`;
//! * and simulated as is: `cpu::System::new` takes the spec and lowers its
//!   memory hierarchy once, through [`MachineSpec::hierarchy`]. The CLI, the
//!   sweep server and the tests all pass specs; there is no second machine
//!   type. A pinned `[prefetch]` stack is a `prefetch::CompositeKind`.
//!
//! Specs are canonical: [`MachineSpec::canonical_text`] renders a spec back
//! to the format deterministically, and [`MachineSpec::fingerprint`] is the
//! FNV-1a64 digest of that rendering — a stable content address that names
//! the machine in reports and the sweep protocol, and keys the harness's
//! cached cells. `canonical_text` destructures every field, so a field added
//! to the spec cannot compile until it is rendered, and so fingerprinted.
//!
//! # The format, by example
//!
//! ```toml
//! format = "alecto-machine-v1"
//! name = "desktop"
//! cores = 4
//!
//! [core]
//! model = "approx"          # or "ooo" (staged ROB/LSQ/branch pipeline)
//! rob = 256
//! fetch_width = 6
//! commit_width = 4
//! load_queue = 72
//! store_queue = 56
//!
//! [cache.l1d]
//! size_kb = 32              # or `size = <bytes>`, or `sets = <count>`
//! ways = 8
//! latency = 4
//! miss_latency = 1
//! mshrs = 16
//!
//! [cache.l3]                # totals for the machine's `cores` cores
//! size_kb = 8192
//! ways = 16
//! latency = 35
//! miss_latency = 4
//! mshrs = 256
//!
//! [dram]
//! kind = "ddr4-2400"        # or "ddr3-1600"
//!
//! [timing]
//! preset = "balanced"       # or explicit dram_drain_requests/_period
//!
//! [prefetch]                # optional: pin the composite stack
//! stack = "gs-cs-pmp"       # gs-berti-cplx | gs-cs-pmp-temporal | pmp | berti
//! ```
//!
//! Every key is optional except `format`, `name` and `cores`: omitted keys
//! take the Table-I default at the machine's core count, so a file only has
//! to say what differs.
//!
//! A machine validates only if its total simulated cache capacity,
//! `cores × (L1D + L2) + L3`, is at most 4 GiB (see
//! [`memsys::HierarchyParams::validate`]): every built-in fits (the largest,
//! `server`, holds 36.5 MiB), as does the 1024-core Table-I machine
//! (2.28 GiB), while a valid-looking geometry such as a 1 PiB L2 is an
//! error rather than an allocation that aborts the process. Each level may
//! also have at most 64 ways (the width of the cache's tag-scan match mask)
//! and at most one MSHR per line (`size / 64`), so a 128-way L1D or 2^40
//! L1D MSHRs fail validation instead of panicking in, or aborting, the
//! hierarchy's construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;
mod registry;
mod spec;

pub use parse::{compile_entries, parse, Entry, RawValue, FORMAT_VERSION};
pub use registry::{builtin, load, BUILTIN_NAMES};
pub use spec::{MachineSpec, TimingPreset, TimingSpec};

/// Which timing model simulates each core.
///
/// The two models share the prefetch/selection stack and the memory
/// hierarchy; they differ only in how core cycles are accounted. `Approx` is
/// the fast analytic frontier model and stays the default for sweeps;
/// `OutOfOrder` is the staged integer-cycle pipeline (ROB/LSQ/gshare).
/// Selected per run via a machine description's `[core] model` key, the
/// harness `--core-model {approx|ooo}` flag, or the sweep server's
/// `"core_model"` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoreModelKind {
    /// Analytic fetch/retire frontier model, f64 time.
    #[default]
    Approx,
    /// Staged out-of-order pipeline, integer cycles.
    OutOfOrder,
}

impl CoreModelKind {
    /// Every core model.
    const ALL: [Self; 2] = [Self::Approx, Self::OutOfOrder];

    /// Stable lower-case label used by machine files, the CLI flag, the
    /// sweep-server JSON field and report annotations.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Approx => "approx",
            Self::OutOfOrder => "ooo",
        }
    }

    /// Parses a machine-file/CLI/server label (`"approx"` or `"ooo"`).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.label() == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_model_labels_round_trip() {
        assert_eq!(CoreModelKind::default(), CoreModelKind::Approx);
        for kind in [CoreModelKind::Approx, CoreModelKind::OutOfOrder] {
            assert_eq!(CoreModelKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(CoreModelKind::from_label("o3"), None);
    }
}
