//! Demand-access, prefetch-request and prefetch-outcome descriptors exchanged
//! between the core, the selection framework, the prefetchers and the cache
//! hierarchy.

use crate::addr::{Addr, LineAddr, Pc};

/// Whether a demand access is a load or a store.
///
/// Prefetchers in this reproduction are trained on both (the paper trains on
/// L1D demand requests, i.e. loads and stores), but some consumers — e.g. the
/// timeliness bookkeeping — only care about loads because only loads stall the
/// ROB head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A demand store.
    Store,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Load`].
    #[must_use]
    pub const fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

/// A demand request as seen by the L1 data cache and by Alecto's step ①:
/// "the demand request, including the PC and memory address".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemandAccess {
    /// Program counter of the memory access instruction.
    pub pc: Pc,
    /// Byte address being accessed.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
}

impl DemandAccess {
    /// Creates a demand access descriptor.
    ///
    /// ```
    /// # use alecto_types::{DemandAccess, Pc, Addr, AccessKind};
    /// let d = DemandAccess::new(Pc::new(0x400), Addr::new(0x1000), AccessKind::Load);
    /// assert!(d.kind.is_load());
    /// ```
    #[must_use]
    pub const fn new(pc: Pc, addr: Addr, kind: AccessKind) -> Self {
        Self { pc, addr, kind }
    }

    /// Convenience constructor for a load.
    #[must_use]
    pub const fn load(pc: Pc, addr: Addr) -> Self {
        Self::new(pc, addr, AccessKind::Load)
    }

    /// Convenience constructor for a store.
    #[must_use]
    pub const fn store(pc: Pc, addr: Addr) -> Self {
        Self::new(pc, addr, AccessKind::Store)
    }

    /// The cache line touched by this access.
    #[must_use]
    pub const fn line(&self) -> LineAddr {
        self.addr.line()
    }
}

/// Index of a prefetcher within the composite bundle (0-based, `P` prefetchers
/// total — P = 3 in the paper's evaluated configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefetcherId(pub usize);

impl PrefetcherId {
    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Which cache level a prefetch should fill into.
///
/// Alecto prefetches the first `c` lines into the cache where the prefetchers
/// reside (L1 in the evaluation) and the additional `m + 1` lines into the
/// next-level cache (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FillLevel {
    /// Fill into the L1 data cache.
    L1,
    /// Fill into the L2 cache only.
    L2,
}

/// A prefetch request emitted by one of the prefetchers in the composite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchRequest {
    /// Cache line to prefetch.
    pub line: LineAddr,
    /// PC of the demand access that triggered training (used by the Sandbox
    /// Table to attribute usefulness back to the triggering instruction).
    pub trigger_pc: Pc,
    /// Which prefetcher issued this request.
    pub issuer: PrefetcherId,
    /// Level the request should fill into.
    pub fill_level: FillLevel,
}

impl PrefetchRequest {
    /// Creates a prefetch request targeting the L1 data cache.
    #[must_use]
    pub const fn new(line: LineAddr, trigger_pc: Pc, issuer: PrefetcherId) -> Self {
        Self { line, trigger_pc, issuer, fill_level: FillLevel::L1 }
    }

    /// Returns a copy of the request redirected to fill `level` instead.
    #[must_use]
    pub const fn with_fill_level(mut self, level: FillLevel) -> Self {
        self.fill_level = level;
        self
    }
}

/// Usefulness feedback about a previously issued prefetch, recorded by the
/// cache hierarchy when the prefetched line is either used by a demand access
/// or evicted unused, and delivered to the selection algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchOutcome {
    /// Which prefetcher issued the prefetch.
    pub issuer: PrefetcherId,
    /// PC that triggered the prefetch, when known.
    pub trigger_pc: Option<Pc>,
    /// The prefetched line.
    pub line: LineAddr,
    /// `true` if a demand access hit the line, `false` if it was evicted
    /// without use.
    pub useful: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_access_line() {
        let d = DemandAccess::load(Pc::new(1), Addr::new(0x87));
        assert_eq!(d.line(), LineAddr::new(0x2));
        assert!(d.kind.is_load());
        assert!(!DemandAccess::store(Pc::new(1), Addr::new(0)).kind.is_load());
    }

    #[test]
    fn prefetch_request_fill_level() {
        let r = PrefetchRequest::new(LineAddr::new(10), Pc::new(0x40), PrefetcherId(2));
        assert_eq!(r.fill_level, FillLevel::L1);
        let r2 = r.with_fill_level(FillLevel::L2);
        assert_eq!(r2.fill_level, FillLevel::L2);
        assert_eq!(r2.line, r.line);
        assert_eq!(r2.issuer.index(), 2);
    }
}
