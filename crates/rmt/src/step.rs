//! What one stage does to one PHV (Appendix A), and the passes around it.
//!
//! [`step`] is the instruction semantics, written once. One call models
//! one match-action stage processing one instruction: the stage's match
//! table has already decoded the opcode (exact match in SRAM) and
//! located the FID's protection entry (range match in TCAM); the action
//! invokes only primitives whose operands live in the PHV, exactly as
//! Section 3.1 requires for runtime programmability.
//!
//! Memory instructions perform at most one read-modify-write on the
//! stage's registers, and only after the protection check passes; a MAR
//! outside the FID's region marks the packet as a violation and the
//! traffic manager drops it.
//!
//! [`run_passes`] is the execution model around it, also written once:
//! one instruction per stage, recirculation while instructions remain,
//! and one more pass when RTS fires in egress. The data plane's frame
//! path, its reference path and the analysis simulator all call it,
//! each through a [`PassHost`] that says where the registers live (a
//! [`Stage`]'s dense array, or the simulator's sparse
//! `(stage, address) → value` map, [`SparseRegisters`]), where
//! protection entries come from, and whether the packet may take
//! another pass. Which entry an instruction reads is [`entry_stage`]'s
//! one rule.

use crate::hash::{selector_seed, Crc32};
use crate::pipeline::Stage;
use crate::register::{SaluOp, SaluResult};
use crate::resources::pow2_floor;
use crate::tcam::range_prefix_count;
use crate::Phv;
use activermt_isa::wire::RegionEntry;
use activermt_isa::{next_access_distance, Instruction, Opcode};
use std::collections::BTreeMap;

/// One protection/translation entry: MAR must satisfy `lo <= MAR <= hi`;
/// ADDR_MASK applies `mask`, ADDR_OFFSET adds `offset`.
///
/// The mask is the largest power of two not exceeding the region length
/// minus one — the same power-of-two constraint NetVRM suffers globally,
/// but here it only bounds *hashed* addressing; direct
/// (client-translated) accesses can use the full region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtEntry {
    /// Lowest valid register index (inclusive).
    pub lo: u32,
    /// Highest valid register index (inclusive).
    pub hi: u32,
    /// Mask for hashed addressing (`pow2_floor(len) - 1`).
    pub mask: u32,
    /// Offset for hashed addressing (= `lo`).
    pub offset: u32,
}

impl ProtEntry {
    /// Build the entry for an allocated register region (`None` for an
    /// empty one: nothing is installed).
    pub fn from_region(region: RegionEntry) -> Option<ProtEntry> {
        if region.is_empty() {
            return None;
        }
        Some(ProtEntry {
            lo: region.start,
            hi: region.end - 1,
            mask: pow2_floor(region.len()).saturating_sub(1),
            offset: region.start,
        })
    }

    /// Is `mar` inside the protected range?
    #[inline]
    pub fn permits(&self, mar: u32) -> bool {
        self.lo <= mar && mar <= self.hi
    }

    /// TCAM entries this range match expands to.
    pub fn tcam_cost(&self) -> usize {
        range_prefix_count(self.lo, self.hi)
    }
}

/// Something one stage did, for backings that keep per-stage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageEvent {
    /// An instruction executed.
    Executed,
    /// A disabled packet consumed the stage without executing.
    Skipped,
    /// A memory access passed the protection check.
    MemoryOp,
    /// The packet faulted.
    Violation,
}

/// The register storage of the stage an instruction runs in.
pub trait StageRegisters {
    /// Run `op` on register `addr`; `None` when `addr` lies outside the
    /// physical array.
    fn salu(&mut self, addr: u32, op: SaluOp) -> Option<SaluResult>;

    /// Count `event` against the stage (a backing without counters
    /// ignores it).
    fn count(&mut self, _event: StageEvent) {}
}

impl StageRegisters for Stage {
    #[inline]
    fn salu(&mut self, addr: u32, op: SaluOp) -> Option<SaluResult> {
        self.registers.execute(addr, op)
    }

    #[inline]
    fn count(&mut self, event: StageEvent) {
        let s = &mut self.stats;
        match event {
            StageEvent::Executed => s.instructions += 1,
            StageEvent::Skipped => s.skipped += 1,
            StageEvent::MemoryOp => s.memory_ops += 1,
            StageEvent::Violation => s.violations += 1,
        }
    }
}

/// Stage `stage`'s registers inside a sparse `(stage, address) → value`
/// map, where every cell reads zero until touched (a freshly cleared
/// allocation). Every access inserts its cell, so the map records
/// exactly the cells a run touched.
#[derive(Debug)]
pub struct SparseRegisters<'a> {
    /// The whole pipeline's touched cells.
    pub cells: &'a mut BTreeMap<(usize, u32), u32>,
    /// The stage this view addresses.
    pub stage: usize,
}

impl StageRegisters for SparseRegisters<'_> {
    fn salu(&mut self, addr: u32, op: SaluOp) -> Option<SaluResult> {
        Some(op.apply(self.cells.entry((self.stage, addr)).or_insert(0)))
    }
}

/// The stage whose protection entry `instrs[pc]` reads when it runs in
/// `stage` of a `num_stages`-stage pipeline: a memory access checks its
/// own stage's; `ADDR_MASK`/`ADDR_OFFSET` read the entry of the stage
/// the access they guard runs in ([`next_access_distance`]), and have
/// none to read when no access follows; no other opcode reads one.
#[inline]
pub fn entry_stage(
    instrs: &[Instruction],
    pc: usize,
    stage: usize,
    num_stages: usize,
) -> Option<usize> {
    match instrs[pc].opcode {
        op if op.is_memory_access() => Some(stage),
        Opcode::ADDR_MASK | Opcode::ADDR_OFFSET => {
            next_access_distance(instrs, pc).map(|d| (stage + d) % num_stages)
        }
        _ => None,
    }
}

/// Run `ins` for `phv` in one stage.
///
/// `prot` is the FID's entry at [`entry_stage`] (if any). A disabled
/// PHV consumes the stage without executing, unless `ins` carries the
/// label its pending branch waits for: "the flag is reset once this
/// label is encountered" (Section 3.1), and the target executes.
pub fn step<R: StageRegisters>(
    phv: &mut Phv,
    ins: Instruction,
    prot: Option<ProtEntry>,
    crc: &Crc32,
    regs: &mut R,
) {
    use Opcode::{
        ADDR_MASK, ADDR_OFFSET, BIT_AND_MAR_MBR, BIT_OR_MBR_MBR2, CJUMP, CJUMPI,
        COPY_HASHDATA_5TUPLE, COPY_HASHDATA_MBR, COPY_HASHDATA_MBR2, COPY_MAR_MBR, COPY_MBR2_MBR,
        COPY_MBR_MAR, COPY_MBR_MBR2, CRET, CRETI, CRTS, DROP, EOF, FORK, HASH, MAR_ADD_MBR,
        MAR_ADD_MBR2, MAR_LOAD, MAR_MBR_ADD_MBR2, MAX, MBR2_LOAD, MBR_ADD_MBR2, MBR_EQUALS_DATA_1,
        MBR_EQUALS_DATA_2, MBR_EQUALS_MBR2, MBR_LOAD, MBR_NOT, MBR_STORE, MBR_SUBTRACT_MBR2,
        MEM_INCREMENT, MEM_MINREAD, MEM_MINREADINC, MEM_READ, MEM_WRITE, MIN, NOP, RETURN, REVMIN,
        RTS, SET_DST, SWAP_MBR_MBR2, UJUMP,
    };
    if phv.disabled {
        if ins.label().is_none() || ins.label() != phv.pending_branch {
            regs.count(StageEvent::Skipped);
            return;
        }
        phv.disabled = false;
        phv.pending_branch = None;
    }
    regs.count(StageEvent::Executed);
    match ins.opcode {
        // ----- Special -----
        EOF => phv.complete = true,
        NOP => {}
        ADDR_MASK => match prot {
            Some(e) => phv.mar &= e.mask,
            None => fault(phv, regs),
        },
        ADDR_OFFSET => match prot {
            Some(e) => phv.mar = phv.mar.wrapping_add(e.offset),
            None => fault(phv, regs),
        },
        // The 6-bit selector in the flag byte picks the hash function;
        // the same selector computes the same function in every stage
        // (see `selector_seed`).
        HASH => phv.mar = crc.hash_words(selector_seed(ins.flags.operand), phv.hash_input()),

        // ----- Data copying -----
        // The operand is a raw 6-bit field off the wire; an index past
        // the four argument words (a corrupted frame) faults the packet
        // rather than the switch.
        MBR_LOAD => match phv.args.get(arg(ins)) {
            Some(&v) => phv.mbr = v,
            None => fault(phv, regs),
        },
        MBR_STORE => match phv.args.get_mut(arg(ins)) {
            Some(slot) => *slot = phv.mbr,
            None => fault(phv, regs),
        },
        MBR2_LOAD => match phv.args.get(arg(ins)) {
            Some(&v) => phv.mbr2 = v,
            None => fault(phv, regs),
        },
        MAR_LOAD => match phv.args.get(arg(ins)) {
            Some(&v) => phv.mar = v,
            None => fault(phv, regs),
        },
        COPY_MBR2_MBR => phv.mbr2 = phv.mbr,
        COPY_MBR_MBR2 => phv.mbr = phv.mbr2,
        COPY_MBR_MAR => phv.mbr = phv.mar,
        COPY_MAR_MBR => phv.mar = phv.mbr,
        COPY_HASHDATA_MBR => phv.push_hash_data(phv.mbr),
        COPY_HASHDATA_MBR2 => phv.push_hash_data(phv.mbr2),
        COPY_HASHDATA_5TUPLE => phv.push_hash_data(phv.five_tuple),

        // ----- Data manipulation -----
        MBR_ADD_MBR2 => phv.mbr = phv.mbr.wrapping_add(phv.mbr2),
        MAR_ADD_MBR => phv.mar = phv.mar.wrapping_add(phv.mbr),
        MAR_ADD_MBR2 => phv.mar = phv.mar.wrapping_add(phv.mbr2),
        MAR_MBR_ADD_MBR2 => phv.mar = phv.mbr.wrapping_add(phv.mbr2),
        MBR_SUBTRACT_MBR2 => phv.mbr = phv.mbr.wrapping_sub(phv.mbr2),
        BIT_AND_MAR_MBR => phv.mar &= phv.mbr,
        BIT_OR_MBR_MBR2 => phv.mbr |= phv.mbr2,
        MBR_EQUALS_MBR2 => phv.mbr ^= phv.mbr2,
        MBR_EQUALS_DATA_1 => phv.mbr ^= phv.args[0],
        MBR_EQUALS_DATA_2 => phv.mbr ^= phv.args[1],
        MAX => phv.mbr = phv.mbr.max(phv.mbr2),
        MIN => phv.mbr = phv.mbr.min(phv.mbr2),
        REVMIN => phv.mbr2 = phv.mbr.min(phv.mbr2),
        SWAP_MBR_MBR2 => core::mem::swap(&mut phv.mbr, &mut phv.mbr2),
        MBR_NOT => phv.mbr = !phv.mbr,

        // ----- Control flow -----
        RETURN => phv.complete = true,
        CRET => {
            if phv.mbr != 0 {
                phv.complete = true;
            }
        }
        CRETI => {
            if phv.mbr == 0 {
                phv.complete = true;
            }
        }
        CJUMP => {
            if phv.mbr != 0 {
                branch(phv, ins);
            }
        }
        CJUMPI => {
            if phv.mbr == 0 {
                branch(phv, ins);
            }
        }
        UJUMP => branch(phv, ins),

        // ----- Memory access -----
        MEM_WRITE => memory(phv, regs, prot, |p| SaluOp::Write(p.mbr)),
        MEM_READ => memory(phv, regs, prot, |_| SaluOp::Read),
        MEM_INCREMENT => memory(phv, regs, prot, |_| SaluOp::Increment),
        MEM_MINREAD => memory(phv, regs, prot, |p| SaluOp::MinRead(p.mbr2)),
        MEM_MINREADINC => memory(phv, regs, prot, |p| SaluOp::MinReadInc(p.mbr2)),

        // ----- Forwarding -----
        DROP => phv.drop = true,
        FORK => phv.fork = true,
        SET_DST => phv.dst_override = Some(phv.mbr),
        RTS => rts(phv),
        CRTS => {
            if phv.mbr != 0 {
                rts(phv);
            }
        }
    }
}

fn arg(ins: Instruction) -> usize {
    ins.arg_index().unwrap_or(0)
}

fn branch(phv: &mut Phv, ins: Instruction) {
    phv.disabled = true;
    phv.pending_branch = ins.branch_target();
}

fn rts(phv: &mut Phv) {
    // Idempotent: a second RTS (e.g. after recirculation) is a no-op.
    if !phv.rts_done {
        phv.rts = true;
        phv.rts_done = true;
    }
}

fn fault<R: StageRegisters>(phv: &mut Phv, regs: &mut R) {
    phv.violation = true;
    regs.count(StageEvent::Violation);
}

fn memory<R: StageRegisters>(
    phv: &mut Phv,
    regs: &mut R,
    prot: Option<ProtEntry>,
    op: impl Fn(&Phv) -> SaluOp,
) {
    if !prot.is_some_and(|e| e.permits(phv.mar)) {
        return fault(phv, regs);
    }
    regs.count(StageEvent::MemoryOp);
    match regs.salu(phv.mar, op(phv)) {
        Some(res) => {
            phv.mbr = res.out;
            if let Some(m) = res.min_out {
                phv.mbr2 = m;
            }
        }
        None => fault(phv, regs),
    }
}

/// What [`run_passes`] needs from whoever carries the packet: the
/// switch runtime, or the analysis simulator with no switch around it.
pub trait PassHost {
    /// Where the registers live.
    type Regs: StageRegisters;

    /// The register backing of stage `stage`.
    fn regs(&mut self, stage: usize) -> &mut Self::Regs;

    /// The packet's protection entry in `stage` (the stage
    /// [`entry_stage`] names), if one is installed.
    fn entry(&self, stage: usize) -> Option<ProtEntry>;

    /// May the packet run the privileged opcodes (FORK, SET_DST)?
    fn privileged(&self) -> bool;

    /// May the packet take one more pass? The host decides and does its
    /// own accounting, of the pass it grants and of the refusal.
    fn may_recirculate(&mut self, phv: &Phv) -> bool;
}

/// What [`run_passes`] reports about one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassRun {
    /// The instructions before `pc` ran or were consumed by a skip.
    pub pc: usize,
    /// Pipeline passes made, the egress-RTS turnaround included.
    pub passes: u32,
    /// Pipeline halves (ingress or egress) traversed: one for a pass
    /// that turns around without leaving ingress, two otherwise.
    pub halves: u64,
    /// An unprivileged packet reached a privileged opcode.
    pub denied: bool,
}

/// Run `instrs` from `start_pc` for `phv` through a pipeline of
/// `num_stages` stages, the first `ingress_stages` of them ingress
/// (Section 3.1).
///
/// Instruction *i* of a pass runs in stage *i*; the packet recirculates
/// while instructions remain and `host` allows it, and is dropped when
/// `host` refuses. RTS fired in egress costs one more pass, since ports
/// cannot change there — charged only to a packet that leaves the
/// switch, never to one being dropped. An unprivileged privileged
/// opcode is a violation (Section 7.2).
pub fn run_passes<H: PassHost>(
    host: &mut H,
    phv: &mut Phv,
    instrs: &[Instruction],
    start_pc: usize,
    crc: &Crc32,
    num_stages: usize,
    ingress_stages: usize,
) -> PassRun {
    let privileged = host.privileged();
    let mut run = PassRun {
        pc: start_pc,
        passes: 0,
        halves: 0,
        denied: false,
    };
    let mut rts_stage: Option<usize> = None;
    loop {
        run.passes += 1;
        let mut last_stage = 0;
        for stage in 0..num_stages {
            let pc = run.pc;
            if pc >= instrs.len() || !phv.executing() {
                break;
            }
            last_stage = stage;
            run.pc += 1;
            let ins = instrs[pc];
            if !privileged && ins.opcode.requires_privilege() && !phv.disabled {
                run.denied = true;
                fault(phv, host.regs(stage));
                continue;
            }
            let prot = entry_stage(instrs, pc, stage, num_stages).and_then(|s| host.entry(s));
            step(phv, ins, prot, crc, host.regs(stage));
            if phv.rts && rts_stage.is_none() {
                rts_stage = Some(stage);
            }
        }
        let done = run.pc >= instrs.len() || !phv.executing();
        let turns_in_ingress = last_stage < ingress_stages && phv.rts_done && done;
        run.halves += if turns_in_ingress { 1 } else { 2 };
        if done || !recirculate(host, phv) {
            break;
        }
    }
    let leaves = !phv.drop && !phv.violation;
    if leaves && rts_stage.is_some_and(|s| s >= ingress_stages) && recirculate(host, phv) {
        run.passes += 1;
        run.halves += 2;
    }
    run
}

/// One more pass if `host` allows it; a refused packet is dropped.
fn recirculate<H: PassHost>(host: &mut H, phv: &mut Phv) -> bool {
    let may = host.may_recirculate(phv);
    if may {
        phv.recirc_count = phv.recirc_count.saturating_add(1);
    } else {
        phv.drop = true;
    }
    may
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_geometry() {
        let e = ProtEntry::from_region(RegionEntry {
            start: 512,
            end: 1024,
        })
        .unwrap();
        assert_eq!(e.lo, 512);
        assert_eq!(e.hi, 1023);
        assert_eq!(e.mask, 511); // pow2_floor(512) - 1
        assert_eq!(e.offset, 512);
        assert!(e.permits(512) && e.permits(1023));
        assert!(!e.permits(511) && !e.permits(1024));
        // Aligned power-of-two region: exactly one TCAM entry.
        assert_eq!(e.tcam_cost(), 1);
    }

    #[test]
    fn non_pow2_region_masks_down() {
        // A 3-block (768-register) region can only hash into its first
        // 512 registers.
        let e = ProtEntry::from_region(RegionEntry {
            start: 256,
            end: 1024,
        })
        .unwrap();
        assert_eq!(e.mask, 511);
        assert!(e.permits(256 + 700)); // direct access may still reach it
    }

    #[test]
    fn empty_region_is_not_an_entry() {
        assert!(ProtEntry::from_region(RegionEntry { start: 5, end: 5 }).is_none());
    }

    #[test]
    fn entry_stage_follows_the_guarded_access() {
        use Opcode::{ADDR_MASK, ADDR_OFFSET, MEM_READ, NOP, RETURN};
        let p: Vec<Instruction> = [ADDR_MASK, ADDR_OFFSET, NOP, MEM_READ, ADDR_MASK, RETURN]
            .into_iter()
            .map(Instruction::new)
            .collect();
        // Running from stage 2 of a 4-stage pipeline: the access runs in
        // stage (2 + 3) % 4 = 1, and both translations read that entry.
        assert_eq!(entry_stage(&p, 0, 2, 4), Some(1));
        assert_eq!(entry_stage(&p, 1, 3, 4), Some(1));
        assert_eq!(entry_stage(&p, 2, 0, 4), None, "a NOP reads no entry");
        assert_eq!(entry_stage(&p, 3, 1, 4), Some(1));
        assert_eq!(entry_stage(&p, 4, 2, 4), None, "no access to guard");
    }

    #[test]
    fn stage_counters_follow_the_events() {
        let mut stage = crate::Pipeline::new(crate::PipelineConfig {
            num_stages: 1,
            ingress_stages: 1,
            regs_per_stage: 16,
            tcam_entries_per_stage: 1,
            sram_entries_per_stage: 1,
        })
        .stage(0)
        .clone();
        let crc = Crc32::new();
        let entry = ProtEntry::from_region(RegionEntry { start: 0, end: 32 });
        let mut phv = Phv::new(1, 0, [0; 4]);
        step(
            &mut phv,
            Instruction::new(Opcode::MEM_READ),
            entry,
            &crc,
            &mut stage,
        );
        // In the entry but past the 16-register array: counted as a
        // memory op, then a fault.
        phv.mar = 20;
        step(
            &mut phv,
            Instruction::new(Opcode::MEM_READ),
            entry,
            &crc,
            &mut stage,
        );
        assert!(phv.violation);
        let mut skipped = Phv::new(1, 0, [0; 4]);
        skipped.disabled = true;
        skipped.pending_branch = Some(1);
        step(
            &mut skipped,
            Instruction::new(Opcode::NOP),
            None,
            &crc,
            &mut stage,
        );
        let s = stage.stats;
        assert_eq!(
            (s.instructions, s.memory_ops, s.violations, s.skipped),
            (2, 2, 1, 1)
        );
    }
}
