//! Strongly typed addresses: byte addresses, cache-line addresses, page
//! addresses and program counters.
//!
//! The paper's structures are indexed either by the *memory access address*
//! (Sandbox Table) or by the *memory access instruction address* (Allocation
//! Table, Sample Table). Using newtypes keeps the two index spaces from being
//! confused anywhere in the workspace.

use std::fmt;

/// Cache line size in bytes (Table I: 64 B lines at every level).
pub const CACHE_LINE_BYTES: u64 = 64;
/// Number of byte-offset bits within a cache line.
pub const LINE_OFFSET_BITS: u32 = CACHE_LINE_BYTES.trailing_zeros();
/// Page size in bytes (4 KiB, the region granularity used by the spatial prefetchers).
pub const PAGE_BYTES: u64 = 4096;
/// Number of byte-offset bits within a page.
pub const PAGE_OFFSET_BITS: u32 = PAGE_BYTES.trailing_zeros();
/// Number of cache lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / CACHE_LINE_BYTES;

/// A byte-granular virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a new byte address.
    ///
    /// ```
    /// # use alecto_types::Addr;
    /// let a = Addr::new(0x1040);
    /// assert_eq!(a.raw(), 0x1040);
    /// ```
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw 64-bit value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache line this byte address falls into.
    #[must_use]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_OFFSET_BITS)
    }

    /// The 4 KiB page this byte address falls into.
    #[must_use]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 >> PAGE_OFFSET_BITS)
    }

    /// Returns the address advanced by `bytes` (wrapping).
    #[must_use]
    pub const fn offset(self, bytes: i64) -> Self {
        Self(self.0.wrapping_add(bytes as u64))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

/// A cache-line-granular address (byte address divided by the 64 B line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a *line number* (not a byte address).
    #[must_use]
    pub const fn new(line_number: u64) -> Self {
        Self(line_number)
    }

    /// The raw line number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The page containing this line.
    #[must_use]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 >> (PAGE_OFFSET_BITS - LINE_OFFSET_BITS))
    }

    /// Index of this line within its page (0..=63 for 4 KiB pages of 64 B lines).
    #[must_use]
    pub const fn index_in_page(self) -> u64 {
        self.0 & (LINES_PER_PAGE - 1)
    }

    /// Signed distance in cache lines from `other` to `self`.
    #[must_use]
    pub const fn delta_from(self, other: LineAddr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }

    /// Returns the line advanced by `delta` lines (wrapping, saturating at zero
    /// for negative overflow is not needed for 64-bit address spaces).
    #[must_use]
    pub const fn offset(self, delta: i64) -> Self {
        Self(self.0.wrapping_add(delta as u64))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A 4 KiB-page-granular address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address from a page number.
    #[must_use]
    pub const fn new(page_number: u64) -> Self {
        Self(page_number)
    }

    /// The raw page number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The first cache line in this page.
    #[must_use]
    pub const fn first_line(self) -> LineAddr {
        LineAddr(self.0 << (PAGE_OFFSET_BITS - LINE_OFFSET_BITS))
    }

    /// The `i`-th cache line in this page (`i` is taken modulo lines-per-page).
    #[must_use]
    pub const fn line(self, i: u64) -> LineAddr {
        LineAddr((self.0 << (PAGE_OFFSET_BITS - LINE_OFFSET_BITS)) + (i & (LINES_PER_PAGE - 1)))
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{:#x}", self.0)
    }
}

/// The address of a memory-access *instruction* (program counter).
///
/// Alecto's Allocation Table and Sample Table are indexed by PC because
/// "demand requests originating from a single memory access instruction often
/// display consistent patterns" (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Creates a program counter value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 64-bit PC.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_to_line_and_page() {
        let a = Addr::new(0x1_2345);
        assert_eq!(a.line().raw(), 0x1_2345 >> 6);
        assert_eq!(a.page().raw(), 0x1_2345 >> 12);
    }

    #[test]
    fn line_round_trip() {
        let l = LineAddr::new(42);
        let base = Addr::new(l.raw() << 6);
        assert_eq!(base.line(), l);
        assert_eq!(base.raw(), 42 * 64);
    }

    #[test]
    fn line_delta_is_signed() {
        let a = LineAddr::new(100);
        let b = LineAddr::new(104);
        assert_eq!(b.delta_from(a), 4);
        assert_eq!(a.delta_from(b), -4);
        assert_eq!(a.offset(4), b);
        assert_eq!(b.offset(-4), a);
    }

    #[test]
    fn page_lines() {
        let p = PageAddr::new(7);
        assert_eq!(p.first_line().page(), p);
        assert_eq!(p.line(0), p.first_line());
        assert_eq!(p.line(63).index_in_page(), 63);
        assert_eq!(p.line(63).page(), p);
        // wraps modulo lines-per-page
        assert_eq!(p.line(64), p.line(0));
    }

    #[test]
    fn index_in_page_bounds() {
        for i in 0..LINES_PER_PAGE {
            let line = PageAddr::new(3).line(i);
            assert_eq!(line.index_in_page(), i);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(LineAddr::new(1).to_string(), "line:0x1");
        assert_eq!(PageAddr::new(2).to_string(), "page:0x2");
        assert_eq!(Pc::new(3).to_string(), "pc:0x3");
    }
}
