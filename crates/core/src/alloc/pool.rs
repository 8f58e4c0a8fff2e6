//! Per-stage memory pools (Section 4.1).
//!
//! Each logical stage's register array is divided into fixed-size blocks
//! and managed as an independent pool. Two invariants from Section 4.2:
//!
//! * **Inelastic pinning** — "we pin inelastic applications to the
//!   beginning of the memory pool in each stage". Inelastic regions are
//!   placed first-fit within the low end of the pool and never move;
//!   their departure can fragment that zone (the paper accepts this).
//! * **Elastic filling** — elastic applications share everything above
//!   the inelastic frontier, with progressive-filling max-min shares,
//!   recomputed whenever membership or the frontier changes.
//!
//! All assignment is deterministic (ascending FID order) so that
//! identical arrival sequences produce identical layouts — a property
//! the reproduction harness and the tests both rely on.

use crate::alloc::fairness::{progressive_filling, progressive_filling_literal};
use crate::types::{BlockRange, Fid};

/// One stage's block pool.
#[derive(Debug, Clone)]
pub struct StagePool {
    capacity: u32,
    /// Use the literal O(blocks) progressive-filling algorithm instead
    /// of the closed form (a fidelity knob for Figure 12; results are
    /// identical).
    literal_fill: bool,
    /// Inelastic allocations, kept sorted by start block.
    inelastic: Vec<(Fid, BlockRange)>,
    /// Elastic allocations, kept sorted by FID; ranges are contiguous
    /// from the frontier and derived by [`StagePool::recompute_elastic`].
    elastic: Vec<(Fid, BlockRange)>,
}

impl StagePool {
    /// An empty pool of `capacity` blocks.
    pub fn new(capacity: u32) -> StagePool {
        StagePool {
            capacity,
            literal_fill: false,
            inelastic: Vec::new(),
            elastic: Vec::new(),
        }
    }

    /// A pool using the literal one-block-at-a-time progressive-filling
    /// algorithm (same shares, O(blocks) cost — see Figure 12).
    pub fn new_literal(capacity: u32) -> StagePool {
        StagePool {
            literal_fill: true,
            ..StagePool::new(capacity)
        }
    }

    /// Pool capacity in blocks.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// One past the highest block any inelastic allocation uses. The
    /// elastic zone is `[frontier, capacity)`.
    pub fn frontier(&self) -> u32 {
        self.inelastic
            .iter()
            .map(|(_, r)| r.end())
            .max()
            .unwrap_or(0)
    }

    /// Blocks held by inelastic applications.
    pub fn inelastic_used(&self) -> u32 {
        self.inelastic.iter().map(|(_, r)| r.len).sum()
    }

    /// Blocks held by elastic applications.
    pub fn elastic_used(&self) -> u32 {
        self.elastic.iter().map(|(_, r)| r.len).sum()
    }

    /// Total blocks allocated to any application.
    pub fn used(&self) -> u32 {
        self.inelastic_used() + self.elastic_used()
    }

    /// "Fungible" memory (Section 4.2): free memory plus memory held by
    /// elastic applications — everything that could be reassigned.
    pub fn fungible(&self) -> u32 {
        self.capacity - self.inelastic_used()
    }

    /// Number of resident elastic applications.
    pub fn elastic_count(&self) -> usize {
        self.elastic.len()
    }

    /// Is `fid` resident in this stage?
    pub fn contains(&self, fid: Fid) -> bool {
        self.allocation_of(fid).is_some()
    }

    /// The current allocation of `fid` in this stage, if any.
    pub fn allocation_of(&self, fid: Fid) -> Option<BlockRange> {
        self.inelastic
            .iter()
            .chain(self.elastic.iter())
            .find(|(f, _)| *f == fid)
            .map(|(_, r)| *r)
    }

    /// Every allocation in this stage (for protection-table
    /// computation).
    pub fn allocations(&self) -> impl Iterator<Item = (Fid, BlockRange)> + '_ {
        self.inelastic.iter().chain(self.elastic.iter()).copied()
    }

    /// The elastic allocations only, in FID order (the invariant engine
    /// recomputes max-min shares over exactly this set).
    pub fn elastic_allocations(&self) -> impl Iterator<Item = (Fid, BlockRange)> + '_ {
        self.elastic.iter().copied()
    }

    /// The inelastic (pinned) allocations only, in start order.
    pub fn inelastic_allocations(&self) -> impl Iterator<Item = (Fid, BlockRange)> + '_ {
        self.inelastic.iter().copied()
    }

    /// Where would an inelastic demand of `demand` blocks land?
    ///
    /// First-fit within the gaps left by departed inelastic tenants;
    /// otherwise at the frontier, provided extending it still leaves at
    /// least one block for every resident elastic application (their
    /// minimum viable share).
    pub fn inelastic_slot(&self, demand: u32) -> Option<u32> {
        if demand == 0 {
            return None;
        }
        // Gaps below the frontier.
        let mut cursor = 0u32;
        for (_, r) in &self.inelastic {
            if r.start >= cursor && r.start - cursor >= demand {
                return Some(cursor);
            }
            cursor = cursor.max(r.end());
        }
        // At the frontier.
        let frontier = self.frontier();
        let reserve = self.elastic.len() as u32;
        if frontier + demand + reserve <= self.capacity {
            Some(frontier)
        } else {
            None
        }
    }

    /// Can one more elastic application join this stage (everyone keeps
    /// at least one block)?
    pub fn elastic_fits(&self) -> bool {
        let zone = self.capacity - self.frontier();
        zone > self.elastic.len() as u32
    }

    /// Insert an inelastic allocation; the caller must have verified
    /// [`StagePool::inelastic_slot`]. Returns the assigned range.
    pub fn insert_inelastic(&mut self, fid: Fid, demand: u32) -> Option<BlockRange> {
        let start = self.inelastic_slot(demand)?;
        let range = BlockRange::new(start, demand);
        let pos = self
            .inelastic
            .binary_search_by_key(&start, |(_, r)| r.start)
            .unwrap_err();
        self.inelastic.insert(pos, (fid, range));
        Some(range)
    }

    /// Insert an elastic application; its share materializes on the next
    /// [`StagePool::recompute_elastic`].
    pub fn insert_elastic(&mut self, fid: Fid) -> bool {
        if !self.elastic_fits() || self.contains(fid) {
            return false;
        }
        let pos = self
            .elastic
            .binary_search_by_key(&fid, |(f, _)| *f)
            .unwrap_err();
        self.elastic.insert(pos, (fid, BlockRange::default()));
        true
    }

    /// Remove `fid` from this stage. Returns its former range.
    pub fn remove(&mut self, fid: Fid) -> Option<BlockRange> {
        if let Some(i) = self.inelastic.iter().position(|(f, _)| *f == fid) {
            return Some(self.inelastic.remove(i).1);
        }
        if let Some(i) = self.elastic.iter().position(|(f, _)| *f == fid) {
            return Some(self.elastic.remove(i).1);
        }
        None
    }

    /// Recompute elastic shares by progressive filling over the elastic
    /// zone and restack them contiguously from the frontier in ascending
    /// FID order. Returns `(fid, old, new)` for every application whose
    /// range changed — these are the reallocation victims of Section 4.3.
    pub fn recompute_elastic(&mut self) -> Vec<(Fid, BlockRange, BlockRange)> {
        let zone = self.capacity - self.frontier();
        let caps: Vec<Option<u32>> = vec![None; self.elastic.len()];
        let shares = if self.literal_fill {
            progressive_filling_literal(zone, &caps)
        } else {
            progressive_filling(zone, &caps)
        };
        let mut changes = Vec::new();
        let mut cursor = self.frontier();
        for ((fid, range), share) in self.elastic.iter_mut().zip(shares) {
            let new = BlockRange::new(cursor, share);
            cursor += share;
            if *range != new {
                changes.push((*fid, *range, new));
                *range = new;
            }
        }
        changes
    }

    /// Verify internal invariants (used by tests and debug assertions):
    /// no overlap, inelastic below the frontier, elastic contiguous
    /// above it, everything within capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Pairwise, without collecting: a stage holds a handful of
        // tenants, and the allocator checks every pool after every
        // admission in debug builds.
        let ranges = || self.allocations().map(|(_, r)| r).filter(|r| !r.is_empty());
        for (i, a) in ranges().enumerate() {
            if a.end() > self.capacity {
                return Err(format!("beyond capacity: {a}"));
            }
            if let Some(b) = ranges().skip(i + 1).find(|b| a.overlaps(b)) {
                return Err(format!("overlap: {a} vs {b}"));
            }
        }
        let frontier = self.frontier();
        for (_, r) in &self.elastic {
            if !r.is_empty() && r.start < frontier {
                return Err(format!("elastic {r} below frontier {frontier}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inelastic_pins_to_bottom() {
        let mut p = StagePool::new(256);
        let a = p.insert_inelastic(1, 16).unwrap();
        let b = p.insert_inelastic(2, 2).unwrap();
        assert_eq!(a, BlockRange::new(0, 16));
        assert_eq!(b, BlockRange::new(16, 2));
        assert_eq!(p.frontier(), 18);
        assert_eq!(p.fungible(), 256 - 18);
        p.check_invariants().unwrap();
    }

    #[test]
    fn departed_inelastic_gap_is_reused_first_fit() {
        let mut p = StagePool::new(256);
        p.insert_inelastic(1, 16);
        p.insert_inelastic(2, 8);
        p.insert_inelastic(3, 4);
        p.remove(2);
        // A 6-block demand fits the 8-block gap at 16.
        assert_eq!(p.inelastic_slot(6), Some(16));
        let r = p.insert_inelastic(4, 6).unwrap();
        assert_eq!(r, BlockRange::new(16, 6));
        // A 10-block demand does not fit the gap; goes to the frontier.
        assert_eq!(p.inelastic_slot(10), Some(28));
        p.check_invariants().unwrap();
    }

    #[test]
    fn elastic_split_is_even_and_fills_the_zone() {
        let mut p = StagePool::new(256);
        p.insert_inelastic(9, 16);
        assert!(p.insert_elastic(1));
        assert!(p.insert_elastic(2));
        assert!(p.insert_elastic(3));
        let changes = p.recompute_elastic();
        assert_eq!(changes.len(), 3);
        // Zone = 240 over 3 apps = 80 each, contiguous from 16.
        assert_eq!(p.allocation_of(1), Some(BlockRange::new(16, 80)));
        assert_eq!(p.allocation_of(2), Some(BlockRange::new(96, 80)));
        assert_eq!(p.allocation_of(3), Some(BlockRange::new(176, 80)));
        assert_eq!(p.used(), 256);
        p.check_invariants().unwrap();
    }

    #[test]
    fn recompute_reports_only_changes() {
        let mut p = StagePool::new(100);
        p.insert_elastic(1);
        p.recompute_elastic();
        // Second recompute with no membership change: nothing changes.
        assert!(p.recompute_elastic().is_empty());
        p.insert_elastic(2);
        let changes = p.recompute_elastic();
        // App 1 shrinks from 100 to 50; app 2 appears.
        assert_eq!(changes.len(), 2);
        assert_eq!(p.allocation_of(1), Some(BlockRange::new(0, 50)));
        assert_eq!(p.allocation_of(2), Some(BlockRange::new(50, 50)));
    }

    #[test]
    fn elastic_grows_on_departure() {
        let mut p = StagePool::new(100);
        p.insert_elastic(1);
        p.insert_elastic(2);
        p.recompute_elastic();
        p.remove(2);
        let changes = p.recompute_elastic();
        assert_eq!(changes.len(), 1);
        assert_eq!(p.allocation_of(1), Some(BlockRange::new(0, 100)));
    }

    #[test]
    fn frontier_extension_respects_elastic_minimum() {
        let mut p = StagePool::new(10);
        p.insert_elastic(1);
        p.insert_elastic(2);
        p.recompute_elastic();
        // 10 capacity, 2 elastic apps: an inelastic demand of 9 would
        // leave less than 1 block each.
        assert_eq!(p.inelastic_slot(9), None);
        assert_eq!(p.inelastic_slot(8), Some(0));
        p.insert_inelastic(3, 8).unwrap();
        let _ = p.recompute_elastic();
        assert_eq!(p.allocation_of(1), Some(BlockRange::new(8, 1)));
        assert_eq!(p.allocation_of(2), Some(BlockRange::new(9, 1)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn elastic_admission_is_bounded_by_zone() {
        let mut p = StagePool::new(3);
        p.insert_inelastic(9, 1);
        assert!(p.insert_elastic(1));
        assert!(p.insert_elastic(2));
        // Zone of 2 blocks cannot host a third elastic app.
        assert!(!p.insert_elastic(3));
        assert!(!p.insert_elastic(1), "duplicate fid refused");
    }

    #[test]
    fn zero_demand_inelastic_is_refused() {
        let mut p = StagePool::new(10);
        assert_eq!(p.inelastic_slot(0), None);
        assert!(p.insert_inelastic(1, 0).is_none());
    }

    #[test]
    fn remove_unknown_fid_is_none() {
        let mut p = StagePool::new(10);
        assert_eq!(p.remove(42), None);
    }

    #[test]
    fn fungible_counts_elastic_as_reassignable() {
        let mut p = StagePool::new(100);
        p.insert_inelastic(1, 30);
        p.insert_elastic(2);
        p.recompute_elastic();
        // Elastic app holds all 70 remaining blocks, yet they are all
        // fungible.
        assert_eq!(p.elastic_used(), 70);
        assert_eq!(p.fungible(), 70);
    }
}
