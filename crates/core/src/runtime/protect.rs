//! Per-(FID, stage) memory protection and address translation.
//!
//! "Table entries define valid memory regions for each program and are
//! computed by the control plane during allocation. We use the contents
//! of MAR to enforce memory protection ... Memory protection is enforced
//! through range matching in TCAMs" (Section 3.1).
//!
//! Each installed entry ([`ProtEntry`], defined beside the instruction
//! semantics in `activermt_rmt::step`) also carries the mask and offset
//! ActiveRMT's runtime address translation applies for hash-based
//! addressing (Section 3.2): "We define instructions to apply the
//! appropriate mask and offset (determined by the switch at runtime
//! based upon the stage at which the memory access will execute to
//! ensure memory safety) to the value of MAR." A translation therefore
//! reads the entry of the stage its access runs in
//! (`activermt_rmt::entry_stage`): one indexed lookup, like any other.
//!
//! ## Hot-path layout
//!
//! The data plane must resolve a FID's protection entry once per
//! instruction per stage. Hashing the FID on every instruction is the
//! kind of per-packet cost Section 6.2's latency model cannot absorb, so
//! the tables are laid out like the hardware's TCAM result registers:
//! the control plane maps each resident FID to a small dense *slot*
//! (`slot_of`, a [`FidMap`] maintained on install/revoke), and each
//! stage holds a flat `Vec<Option<ProtEntry>>` indexed by slot. The
//! runtime resolves the slot once per frame — one multiply-hash probe —
//! after which every per-stage lookup is a bounds-checked array index:
//! no hashing, no allocation.

use crate::types::{Fid, FidMap};
use activermt_isa::wire::RegionEntry;
pub use activermt_rmt::ProtEntry;

/// A dense slot index for a resident FID (resolved once per frame).
pub type ProtSlot = usize;

/// All protection tables: a fid → slot directory plus one dense
/// slot-indexed entry array per logical stage.
#[derive(Debug, Clone)]
pub struct ProtectionTables {
    /// fid → dense slot, maintained by the control plane.
    slot_of: FidMap<ProtSlot>,
    /// slot → fid (`None` while the slot is on the free list).
    fid_of: Vec<Option<Fid>>,
    /// slot → number of stages currently holding an entry; the slot is
    /// recycled when this drops to zero.
    stage_refs: Vec<u32>,
    /// Recycled slots available for the next install.
    free_slots: Vec<ProtSlot>,
    /// `stages[stage][slot]` — the entry, if installed.
    stages: Vec<Vec<Option<ProtEntry>>>,
}

impl ProtectionTables {
    /// Empty tables for `num_stages` stages.
    pub fn new(num_stages: usize) -> ProtectionTables {
        ProtectionTables {
            slot_of: FidMap::default(),
            fid_of: Vec::new(),
            stage_refs: Vec::new(),
            free_slots: Vec::new(),
            stages: vec![Vec::new(); num_stages],
        }
    }

    /// The dense slot of `fid`, if it holds any entry. The data plane
    /// resolves this once per frame and uses the slot-indexed lookups
    /// below for every instruction.
    #[inline]
    pub fn slot_of(&self, fid: Fid) -> Option<ProtSlot> {
        self.slot_of.get(&fid).copied()
    }

    fn alloc_slot(&mut self, fid: Fid) -> ProtSlot {
        if let Some(&slot) = self.slot_of.get(&fid) {
            return slot;
        }
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.fid_of.len();
                self.fid_of.push(None);
                self.stage_refs.push(0);
                for stage in &mut self.stages {
                    stage.push(None);
                }
                s
            }
        };
        self.fid_of[slot] = Some(fid);
        self.stage_refs[slot] = 0;
        self.slot_of.insert(fid, slot);
        slot
    }

    fn release_if_empty(&mut self, slot: ProtSlot) {
        if self.stage_refs[slot] == 0 {
            if let Some(fid) = self.fid_of[slot].take() {
                self.slot_of.remove(&fid);
            }
            self.free_slots.push(slot);
        }
    }

    /// Install (or replace) the entry for `fid` in `stage`.
    ///
    /// Returns `(removed, installed)` TCAM entry counts for the
    /// controller's table-update cost model (Section 6.2: provisioning
    /// is "dominated by the time taken to update table entries ...
    /// including removing old entries and installing new ones").
    pub fn install(&mut self, stage: usize, fid: Fid, region: RegionEntry) -> (usize, usize) {
        let slot = self.alloc_slot(fid);
        let removed = match self.stages[stage][slot].take() {
            Some(e) => {
                self.stage_refs[slot] -= 1;
                e.tcam_cost()
            }
            None => 0,
        };
        let result = match ProtEntry::from_region(region) {
            Some(entry) => {
                let installed = entry.tcam_cost();
                self.stages[stage][slot] = Some(entry);
                self.stage_refs[slot] += 1;
                (removed, installed)
            }
            None => (removed, 0),
        };
        self.release_if_empty(slot);
        result
    }

    /// Remove the entry for `fid` in `stage`, returning its TCAM cost.
    pub fn remove(&mut self, stage: usize, fid: Fid) -> usize {
        let Some(&slot) = self.slot_of.get(&fid) else {
            return 0;
        };
        let removed = match self.stages[stage][slot].take() {
            Some(e) => {
                self.stage_refs[slot] -= 1;
                e.tcam_cost()
            }
            None => 0,
        };
        self.release_if_empty(slot);
        removed
    }

    /// Remove `fid` from every stage, returning total entries removed.
    pub fn remove_all(&mut self, fid: Fid) -> usize {
        (0..self.stages.len()).map(|s| self.remove(s, fid)).sum()
    }

    /// Look up the entry for `fid` in `stage`.
    pub fn lookup(&self, stage: usize, fid: Fid) -> Option<&ProtEntry> {
        let slot = self.slot_of(fid)?;
        self.lookup_slot(stage, slot)
    }

    /// Slot-indexed lookup (hot path; `slot` from [`Self::slot_of`]).
    #[inline]
    pub fn lookup_slot(&self, stage: usize, slot: ProtSlot) -> Option<&ProtEntry> {
        self.stages[stage][slot].as_ref()
    }

    /// Total TCAM entries currently installed in `stage`.
    pub fn stage_entries(&self, stage: usize) -> usize {
        self.stages[stage]
            .iter()
            .flatten()
            .map(ProtEntry::tcam_cost)
            .sum()
    }

    /// Every FID currently holding at least one entry, ascending
    /// (snapshot assembly walks this to build per-FID occupancy rows).
    pub fn resident_fids(&self) -> Vec<Fid> {
        let mut fids: Vec<Fid> = self.slot_of.keys().copied().collect();
        fids.sort_unstable();
        fids
    }

    /// Total TCAM entries installed across every stage.
    pub fn total_entries(&self) -> usize {
        (0..self.stages.len()).map(|s| self.stage_entries(s)).sum()
    }

    /// Stages in which `fid` holds a region, ascending.
    pub fn stages_of(&self, fid: Fid) -> Vec<usize> {
        let Some(slot) = self.slot_of(fid) else {
            return Vec::new();
        };
        (0..self.stages.len())
            .filter(|&s| self.stages[s][slot].is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_replace_remove_accounting() {
        let mut t = ProtectionTables::new(4);
        let (rm, ins) = t.install(2, 7, RegionEntry { start: 0, end: 256 });
        assert_eq!((rm, ins), (0, 1));
        assert_eq!(t.stage_entries(2), 1);
        // Replacing with an unaligned region removes 1, installs more.
        let (rm, ins) = t.install(
            2,
            7,
            RegionEntry {
                start: 100,
                end: 300,
            },
        );
        assert_eq!(rm, 1);
        assert!(ins > 1);
        assert_eq!(t.stage_entries(2), ins);
        assert_eq!(t.remove(2, 7), ins);
        assert_eq!(t.stage_entries(2), 0);
        assert_eq!(t.remove(2, 7), 0);
    }

    #[test]
    fn lookups_are_per_stage() {
        let mut t = ProtectionTables::new(4);
        t.install(1, 7, RegionEntry { start: 0, end: 10 });
        assert!(t.lookup(1, 7).is_some());
        assert!(t.lookup(2, 7).is_none());
        assert!(t.lookup(1, 8).is_none());
        assert_eq!(t.stages_of(7), vec![1]);
    }

    #[test]
    fn remove_all_sweeps_every_stage() {
        let mut t = ProtectionTables::new(3);
        t.install(0, 9, RegionEntry { start: 0, end: 256 });
        t.install(
            2,
            9,
            RegionEntry {
                start: 256,
                end: 512,
            },
        );
        assert_eq!(t.remove_all(9), 2);
        assert!(t.stages_of(9).is_empty());
    }

    #[test]
    fn slots_are_dense_and_recycled() {
        let mut t = ProtectionTables::new(4);
        t.install(0, 7, RegionEntry { start: 0, end: 256 });
        t.install(1, 8, RegionEntry { start: 0, end: 256 });
        let s7 = t.slot_of(7).unwrap();
        let s8 = t.slot_of(8).unwrap();
        assert_ne!(s7, s8);
        assert!(s7 < 2 && s8 < 2, "slots are dense");
        // Removing every entry of fid 7 frees its slot for reuse.
        assert_eq!(t.remove(0, 7), 1);
        assert!(t.slot_of(7).is_none());
        t.install(2, 9, RegionEntry { start: 0, end: 256 });
        assert_eq!(t.slot_of(9).unwrap(), s7, "freed slot is recycled");
        // fid 8's slot still resolves its entry.
        assert!(t.lookup_slot(1, s8).is_some());
        assert!(t.lookup_slot(0, s8).is_none());
    }

    #[test]
    fn empty_region_install_does_not_leak_slots() {
        let mut t = ProtectionTables::new(2);
        // An empty region installs nothing: no slot may stay behind.
        let (rm, ins) = t.install(0, 7, RegionEntry { start: 5, end: 5 });
        assert_eq!((rm, ins), (0, 0));
        assert!(t.slot_of(7).is_none());
        // Replacing a real entry with an empty region also releases.
        t.install(0, 7, RegionEntry { start: 0, end: 256 });
        assert!(t.slot_of(7).is_some());
        let (rm, ins) = t.install(0, 7, RegionEntry { start: 5, end: 5 });
        assert_eq!((rm, ins), (1, 0));
        assert!(t.slot_of(7).is_none());
    }
}
