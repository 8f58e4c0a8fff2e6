//! TCAM resource accounting and range-match expansion.
//!
//! ActiveRMT enforces memory protection "through range matching in
//! TCAMs, which end up being the resource bottleneck for the number of
//! distinct address ranges that ActiveRMT can support" (Section 3.1).
//!
//! TCAMs match on ternary (value/mask) keys, so an arbitrary integer
//! range `[lo, hi]` must be *expanded* into a set of prefix entries.
//! [`range_prefix_count`] computes the canonical minimal expansion (the
//! same decomposition routers use for port ranges); a range of length
//! `L` within a `W`-bit field costs up to `2W - 2` entries in the worst
//! case, and aligned power-of-two ranges cost exactly 1. This is why the
//! number of *co-resident applications* — not total memory — can become
//! the admission bottleneck, which is what bounds the load-balancer
//! workload in Figure 5a.

/// Decompose the inclusive range `[lo, hi]` into maximal aligned
/// power-of-two blocks, returning `(base, len)` pairs with `len` a power
/// of two and `base % len == 0`.
pub fn range_to_prefixes(lo: u32, hi: u32) -> Vec<(u32, u32)> {
    prefix_blocks(lo, hi).collect()
}

/// Number of TCAM prefix entries needed to range-match `[lo, hi]`.
/// Allocation-free: the controller prices every table flip with it.
pub fn range_prefix_count(lo: u32, hi: u32) -> usize {
    prefix_blocks(lo, hi).count()
}

fn prefix_blocks(lo: u32, hi: u32) -> impl Iterator<Item = (u32, u32)> {
    let end = u64::from(hi) + 1; // exclusive
    let mut cur = if hi < lo { end } else { u64::from(lo) };
    std::iter::from_fn(move || {
        (cur < end).then(|| {
            // Largest power-of-two block starting at `cur`: limited by
            // the alignment of `cur` and by the remaining span.
            let fit = 1u64 << (63 - (end - cur).leading_zeros());
            let size = if cur == 0 {
                fit
            } else {
                fit.min(cur & cur.wrapping_neg())
            };
            let block = (cur as u32, size as u32);
            cur += size;
            block
        })
    })
}

/// A per-stage TCAM with bounded entry capacity.
///
/// The runtime charges it for each installed memory-protection range;
/// insertion fails when the stage's TCAM is exhausted, which surfaces as
/// an admission failure in the allocator.
#[derive(Debug, Clone)]
pub struct Tcam {
    capacity: usize,
    used: usize,
}

impl Tcam {
    /// A TCAM with room for `capacity` ternary entries.
    pub fn new(capacity: usize) -> Tcam {
        Tcam { capacity, used: 0 }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently installed.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Entries still available.
    pub fn free(&self) -> usize {
        self.capacity - self.used
    }

    /// Would `entries` more entries fit?
    pub fn can_fit(&self, entries: usize) -> bool {
        self.used + entries <= self.capacity
    }

    /// Install `entries` entries, failing atomically if they do not fit.
    pub fn insert(&mut self, entries: usize) -> bool {
        if self.can_fit(entries) {
            self.used += entries;
            true
        } else {
            false
        }
    }

    /// Remove `entries` entries (saturating — removing more than
    /// installed is a logic error upstream but must not corrupt the
    /// accounting).
    pub fn remove(&mut self, entries: usize) {
        self.used = self.used.saturating_sub(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_pow2_ranges_cost_one_entry() {
        assert_eq!(range_prefix_count(0, 255), 1);
        assert_eq!(range_prefix_count(256, 511), 1);
        assert_eq!(range_prefix_count(1024, 2047), 1);
        assert_eq!(range_prefix_count(0, 0), 1);
    }

    #[test]
    fn unaligned_ranges_cost_more() {
        // [1, 254] is the classic worst-ish case within a byte.
        let n = range_prefix_count(1, 254);
        assert!(n > 10, "expected many prefixes, got {n}");
        assert_eq!(range_prefix_count(1, 2), 2); // [1,1] + [2,3]? no: [1,1]+[2,2]
    }

    #[test]
    fn decomposition_covers_exactly() {
        for (lo, hi) in [(0u32, 255), (1, 254), (100, 1000), (7, 7), (0, 1 << 20)] {
            let prefixes = range_to_prefixes(lo, hi);
            // Coverage is exact and non-overlapping.
            let mut cur = u64::from(lo);
            for (base, len) in &prefixes {
                assert_eq!(u64::from(*base), cur, "gap in decomposition");
                assert!(len.is_power_of_two());
                assert_eq!(base % len, 0, "misaligned block");
                cur += u64::from(*len);
            }
            assert_eq!(cur, u64::from(hi) + 1, "decomposition does not end at hi");
        }
    }

    #[test]
    fn empty_range_costs_nothing() {
        assert_eq!(range_prefix_count(5, 4), 0);
    }

    #[test]
    fn full_word_range() {
        assert_eq!(range_prefix_count(0, u32::MAX), 1);
    }

    #[test]
    fn tcam_accounting() {
        let mut t = Tcam::new(10);
        assert!(t.insert(6));
        assert_eq!(t.used(), 6);
        assert_eq!(t.free(), 4);
        assert!(!t.insert(5)); // atomic failure
        assert_eq!(t.used(), 6);
        assert!(t.insert(4));
        assert_eq!(t.free(), 0);
        t.remove(3);
        assert_eq!(t.used(), 7);
        t.remove(100); // saturates
        assert_eq!(t.used(), 0);
    }
}
