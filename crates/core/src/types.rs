//! Shared vocabulary types for the runtime and allocator.

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

/// A service/program identifier, carried in the initial active header
/// (Section 3.3). One FID identifies one admitted application instance.
pub type Fid = u16;

/// The hasher behind [`FidMap`] / [`FidSet`]: one multiply by an odd
/// constant, no state to set up, nothing keyed.
///
/// The default SipHash exists to stop an outside party crafting keys
/// that pile into one bucket. A FID arrives in a packet, so it *is*
/// outside input — but it is 16 bits wide. The table picks its bucket
/// from the low `k` bits of the hash, and the low `k` bits of a product
/// with an odd constant are a bijection of the low `k` bits of the FID:
/// exactly `2^(16-k)` FIDs map to each of `2^k` buckets, and a table
/// that size holds fewer than `2^k` of them. So the longest collision
/// run any traffic can force is `min(2^k, 2^(16-k)) <= 256` entries —
/// that bound, not a secret key, is what the frame path relies on.
/// Densely numbered FIDs (the usual case) land in distinct buckets.
///
/// "Low `k` bits" is how hashbrown, the table inside std's `HashMap`,
/// starts its probe (`h1 = hash & bucket_mask`); the `HashMap` contract
/// does not promise it. The unit test below pins the hasher's half of
/// the argument only — if std ever picks buckets another way, redo the
/// bound for that rule or move these tables to a dense `[_; 65 536]`
/// index, which needs no such assumption.
#[derive(Debug, Clone, Copy, Default)]
pub struct FidHasher(u64);

/// 2^64 / φ, odd (Fibonacci hashing: the product's top bits, which the
/// table uses as its per-slot tag, are well mixed).
const FID_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FidHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u16` is reached for `Fid` keys; stay correct for
        // any other key type rather than panic.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FID_HASH_MUL);
        }
    }

    #[inline]
    fn write_u16(&mut self, fid: u16) {
        self.0 = u64::from(fid).wrapping_mul(FID_HASH_MUL);
    }
}

/// A FID-keyed map on the cheap [`FidHasher`] (see there for why that
/// is safe for this key).
pub type FidMap<V> = HashMap<Fid, V, BuildHasherDefault<FidHasher>>;

/// A FID set on the cheap [`FidHasher`].
pub type FidSet = HashSet<Fid, BuildHasherDefault<FidHasher>>;

/// A contiguous run of allocation blocks within one stage's memory pool:
/// `start..start+len`, in blocks (Section 4.1's fixed-size block
/// granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BlockRange {
    /// First block index.
    pub start: u32,
    /// Number of blocks.
    pub len: u32,
}

impl BlockRange {
    /// Construct a range.
    pub fn new(start: u32, len: u32) -> BlockRange {
        BlockRange { start, len }
    }

    /// One past the last block.
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Is the range empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &BlockRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// Convert to register indices given `block_regs` registers per
    /// block: the `(start, end)` pair that travels in an allocation
    /// response entry.
    pub fn to_registers(&self, block_regs: u32) -> (u32, u32) {
        (self.start * block_regs, self.end() * block_regs)
    }
}

impl fmt::Display for BlockRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end())
    }
}

/// Whether an application's memory demand can be adjusted by the
/// allocator (Section 4.1): "applications that have variable demands
/// [are] 'elastic' and those with fixed demands ... 'inelastic'".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Elasticity {
    /// Any amount of memory is beneficial; shares may shrink when new
    /// applications arrive (e.g. the in-network cache).
    Elastic,
    /// A fixed demand that never changes once admitted (e.g. the
    /// load balancer's VIP table); pinned to the bottom of each pool.
    Inelastic,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_geometry() {
        let r = BlockRange::new(4, 8);
        assert_eq!(r.end(), 12);
        assert!(!r.is_empty());
        assert!(BlockRange::new(3, 0).is_empty());
    }

    #[test]
    fn overlap_cases() {
        let a = BlockRange::new(0, 4);
        assert!(a.overlaps(&BlockRange::new(3, 2)));
        assert!(a.overlaps(&BlockRange::new(0, 1)));
        assert!(!a.overlaps(&BlockRange::new(4, 2))); // adjacent
        assert!(!a.overlaps(&BlockRange::new(10, 1)));
        assert!(!a.overlaps(&BlockRange::new(2, 0))); // empty never overlaps
    }

    #[test]
    fn register_conversion_uses_block_size() {
        // 1 KB blocks = 256 32-bit registers.
        let r = BlockRange::new(2, 3);
        assert_eq!(r.to_registers(256), (512, 1280));
    }

    #[test]
    fn fid_hash_buckets_are_exactly_balanced() {
        use core::hash::BuildHasher;
        // The clustering bound in `FidHasher`'s docs: for every table
        // size 2^k, each bucket receives exactly 2^(16-k) of the 65 536
        // possible FIDs.
        let build = BuildHasherDefault::<FidHasher>::default();
        for k in [1u32, 4, 8, 12, 16] {
            let mut load = vec![0u32; 1 << k];
            for fid in 0..=u16::MAX {
                load[(build.hash_one(fid) & ((1 << k) - 1)) as usize] += 1;
            }
            assert!(load.iter().all(|&n| n == 1 << (16 - k)), "k = {k}");
        }
    }

    #[test]
    fn display_shows_half_open_range() {
        assert_eq!(BlockRange::new(1, 4).to_string(), "[1..5)");
    }
}
