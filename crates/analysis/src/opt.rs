//! The capsule optimizer: transformation passes over the analysis CFG.
//!
//! Three rewrites, each driven by a [`crate::dataflow`] analysis and
//! iterated to a fixed point:
//!
//! * **Dead-store elimination** — a reachable pure register write whose
//!   outputs are dead on every path becomes a NOP (liveness);
//! * **Redundant-copy elimination** — a copy whose source and
//!   destination provably hold the same value becomes a NOP (value
//!   numbering), and a `<reg>_LOAD $k` + copy pair whose intermediate
//!   register dies folds into a single load of the destination;
//! * **NOP compaction** — unlabeled NOPs (the erasable padding the
//!   mutant-equivalence check already ignores) are deleted outright.
//!
//! Soundness is *gated*, not assumed: [`optimize_checked`] only ships a
//! rewritten program after [`differential_equivalent`] replays both
//! versions through the reference simulator — accesses pinned to the
//! original program's stages, synthetic regions granted at exactly
//! those stages — and every observable (violations, final memory,
//! argument words, `SET_DST`, RTS) matches on every probe vector. A
//! gate failure returns the original program untouched, so a bug in a
//! transform can cost performance but never correctness.
//!
//! The passes rewrite *register* semantics only. Stage placement —
//! which stage each access lands in once the allocator grants regions —
//! is re-derived downstream by mutant synthesis and re-verified at
//! admission, exactly as for an unoptimized program.

use crate::cfg::Cfg;
use crate::dataflow::{
    copy_src_dst, foldable_load_copy, liveness, pure_writer, reads_writes, same_value, value_facts,
};
use crate::sim::simulate_full;
use crate::verify::AnalysisContext;
use activermt_isa::{Instruction, Opcode, Program};

/// How many times the pass pipeline reruns before giving up on
/// reaching a fixed point (each pass is monotone — the program only
/// shrinks — so this bound is never the limiter in practice).
const MAX_ROUNDS: u32 = 4;

/// Synthetic region geometry for the differential gate: each access
/// stage gets `[stage * REGION_STRIDE, stage * REGION_STRIDE + REGION_STRIDE)`.
const REGION_STRIDE: usize = 64;

/// Probe argument vectors for the differential gate. Mixed magnitudes,
/// bit patterns, and a vector of small in-region addresses.
const PROBE_ARGS: [[u32; 4]; 6] = [
    [0, 0, 0, 0],
    [1, 2, 3, 4],
    [0xFFFF_FFFF, 0xFFFF_FFFF, 0xFFFF_FFFF, 0xFFFF_FFFF],
    [0x5555_5555, 0xAAAA_AAAA, 0, 1],
    [7, 7, 7, 7],
    [63, 17, 0x8000_0000, 2],
];

/// Probe flow digests (the parser's five-tuple hash input).
const PROBE_FIVE_TUPLES: [u32; 3] = [0, 0xDEAD_BEEF, 12_345];

/// What the optimizer did to one program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Pass-pipeline rounds run (at least 1).
    pub rounds: u32,
    /// Dead register writes replaced with NOPs.
    pub dead_stores: u32,
    /// Load+copy pairs folded into single loads.
    pub copies_folded: u32,
    /// Provably-redundant copies replaced with NOPs.
    pub redundant_copies: u32,
    /// Unlabeled NOPs deleted.
    pub nops_removed: u32,
    /// Did the differential gate accept the rewritten program? Always
    /// true when no rewrite happened.
    pub gate_passed: bool,
}

impl OptStats {
    /// Did any pass change the program?
    #[must_use]
    pub fn changed(&self) -> bool {
        self.dead_stores + self.copies_folded + self.redundant_copies + self.nops_removed > 0
    }
}

/// A NOP carrying over the original instruction's branch-target label,
/// if any — erasing a label would redirect every branch naming it.
fn nop_like(ins: Instruction) -> Instruction {
    match ins.label() {
        Some(l) => Instruction::with_label(Opcode::NOP, l).unwrap_or(ins),
        None => Instruction::new(Opcode::NOP),
    }
}

/// Dead-store elimination: reachable pure writers whose written
/// registers are dead on every outgoing path become NOPs.
fn dse_pass(instrs: &mut [Instruction], num_stages: usize) -> u32 {
    let Ok(cfg) = Cfg::build(instrs, num_stages) else {
        return 0;
    };
    let reachable = cfg.reachable();
    let live_out = liveness(&cfg);
    let mut changed = 0;
    for idx in 0..instrs.len() {
        let ins = instrs[idx];
        if !reachable[idx] {
            continue;
        }
        if pure_writer(ins.opcode) && reads_writes(ins.opcode).1 & live_out[idx] == 0 {
            instrs[idx] = nop_like(ins);
            changed += 1;
        }
    }
    changed
}

/// Redundant-copy elimination: a copy whose source and destination
/// provably already hold the same value is a no-op.
fn redundant_copy_pass(instrs: &mut [Instruction], num_stages: usize) -> u32 {
    let Ok(cfg) = Cfg::build(instrs, num_stages) else {
        return 0;
    };
    let vf = value_facts(&cfg);
    let mut changed = 0;
    for idx in 0..instrs.len() {
        let ins = instrs[idx];
        let Some((src, dst)) = copy_src_dst(ins.opcode) else {
            continue;
        };
        let Some(state) = vf[idx].as_ref() else {
            continue;
        };
        if same_value(state.reg(src), state.reg(dst)) {
            instrs[idx] = nop_like(ins);
            changed += 1;
        }
    }
    changed
}

/// Copy folding: `<reg>_LOAD $k` immediately followed by a copy out of
/// `<reg>` becomes a single load of the destination register, when the
/// intermediate register dies and neither instruction is a branch
/// target (an arg-carrying instruction cannot also carry a label, so
/// the folded load could not keep one).
fn fold_pass(instrs: &mut [Instruction], num_stages: usize) -> u32 {
    let Ok(cfg) = Cfg::build(instrs, num_stages) else {
        return 0;
    };
    let reachable = cfg.reachable();
    let live_out = liveness(&cfg);
    let mut changed = 0;
    let mut idx = 0;
    while idx + 1 < instrs.len() {
        let a = instrs[idx];
        let b = instrs[idx + 1];
        if reachable[idx] && a.label().is_none() && b.label().is_none() {
            if let Some(folded) = foldable_load_copy(a.opcode, b.opcode) {
                let (src, _) = copy_src_dst(b.opcode).unwrap_or((0, 0));
                let src_dead = live_out.get(idx + 1).is_some_and(|&live| live & src == 0);
                if src_dead && a.arg_index().is_some() {
                    instrs[idx] = Instruction {
                        opcode: folded,
                        flags: a.flags,
                    };
                    instrs[idx + 1] = Instruction::new(Opcode::NOP);
                    changed += 1;
                    idx += 2;
                    continue;
                }
            }
        }
        idx += 1;
    }
    changed
}

/// Delete unlabeled NOPs — exactly the padding the NOP-mutant
/// equivalence check erases, so removing them preserves the canonical
/// program by that check's own definition of equivalence.
#[allow(clippy::cast_possible_truncation)]
fn compact_nops(instrs: &mut Vec<Instruction>) -> u32 {
    let erasable = |i: &Instruction| i.opcode == Opcode::NOP && i.label().is_none();
    if instrs.iter().all(erasable) {
        // A program of nothing but NOPs must keep at least one
        // instruction to stay well-formed; leave it alone.
        return 0;
    }
    let before = instrs.len();
    instrs.retain(|i| !erasable(i));
    (before - instrs.len()) as u32
}

/// Run the pass pipeline (DSE → redundant-copy → fold → NOP
/// compaction) to a fixed point. Returns the rewritten program and
/// what changed; `gate_passed` is left false — use [`optimize_checked`]
/// for the verified entry point.
pub(crate) fn optimize(program: &Program, num_stages: usize) -> (Program, OptStats) {
    let n = num_stages.max(1);
    let mut instrs: Vec<Instruction> = program.instructions().to_vec();
    let mut stats = OptStats::default();
    for round in 0..MAX_ROUNDS {
        stats.rounds = round + 1;
        let mut changed = 0;
        let d = dse_pass(&mut instrs, n);
        stats.dead_stores += d;
        changed += d;
        let r = redundant_copy_pass(&mut instrs, n);
        stats.redundant_copies += r;
        changed += r;
        let f = fold_pass(&mut instrs, n);
        stats.copies_folded += f;
        changed += f;
        let c = compact_nops(&mut instrs);
        stats.nops_removed += c;
        changed += c;
        if changed == 0 {
            break;
        }
    }
    match Program::new(instrs, program.args()) {
        Ok(p) => (p, stats),
        // Rebuilding can only fail if a pass produced a malformed
        // stream — never ship that; fall back to the input.
        Err(_) => (program.clone(), OptStats::default()),
    }
}

/// The verifier differential: replay `original` and `optimized`
/// through the reference simulator under a synthetic allocation that
/// grants a region at every stage the *original* program's accesses
/// occupy, with the optimized program NOP-padded so its accesses land
/// on those same stages. Every observable — violation/completion
/// flags, final region-relative memory, argument words, `SET_DST`,
/// RTS — must match on every probe vector. Pass counts are exempt
/// (shrinking a program may legitimately reduce them), so the replay
/// runs uncapped.
///
/// # Errors
///
/// Returns a description of the first diverging probe, or of a padding
/// failure (which can only mean the optimizer reordered or dropped a
/// memory access — never legal).
pub(crate) fn differential_equivalent(
    original: &Program,
    optimized: &Program,
    num_stages: usize,
    ingress_stages: usize,
) -> Result<(), String> {
    let n = num_stages.max(1);
    let orig_positions: Vec<u16> = original
        .memory_access_positions()
        .iter()
        .map(|&p| u16::try_from(p).unwrap_or(u16::MAX))
        .collect();
    let opt_positions = optimized.memory_access_positions();
    if opt_positions.len() != orig_positions.len() {
        return Err(format!(
            "optimizer changed the access count: {} -> {}",
            orig_positions.len(),
            opt_positions.len()
        ));
    }
    let padded_opt = if orig_positions.is_empty() {
        optimized.clone()
    } else {
        crate::equiv::pad_to_positions(optimized, &orig_positions)
            .map_err(|e| format!("cannot pin optimized accesses to original stages: {e}"))?
    };

    let mut stages: Vec<usize> = orig_positions
        .iter()
        .map(|&p| (usize::from(p) - 1) % n)
        .collect();
    stages.sort_unstable();
    stages.dedup();
    if stages.is_empty() {
        stages.push(0);
    }
    let mut ctx = AnalysisContext::new(n, ingress_stages.min(n), None);
    for &s in &stages {
        let start = (s * REGION_STRIDE) as u32;
        ctx = ctx.with_region(s, start, start + REGION_STRIDE as u32);
    }

    for args in PROBE_ARGS {
        for ft in PROBE_FIVE_TUPLES {
            let a = simulate_full(original.instructions(), &ctx, args, ft);
            let b = simulate_full(padded_opt.instructions(), &ctx, args, ft);
            if a.observables() != b.observables() {
                return Err(format!(
                    "differential diverges for args {args:?}, five-tuple {ft:#x}: \
                     original {:?} vs optimized {:?}",
                    a.observables(),
                    b.observables()
                ));
            }
        }
    }
    Ok(())
}

/// Optimize with the soundness gate armed: run the pass pipeline, then
/// accept the rewritten program only if [`differential_equivalent`]
/// proves it interchangeable with the original. On gate failure the
/// original program is returned unchanged (with `gate_passed: false`),
/// so a transform bug degrades optimization, never correctness.
#[must_use]
pub fn optimize_checked(
    program: &Program,
    num_stages: usize,
    ingress_stages: usize,
) -> (Program, OptStats) {
    let (optimized, mut stats) = optimize(program, num_stages);
    if !stats.changed() {
        stats.gate_passed = true;
        return (program.clone(), stats);
    }
    match differential_equivalent(program, &optimized, num_stages, ingress_stages) {
        Ok(()) => {
            stats.gate_passed = true;
            (optimized, stats)
        }
        Err(_) => {
            stats.gate_passed = false;
            (program.clone(), stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_mutant_equivalence;
    use activermt_isa::ProgramBuilder;

    #[test]
    fn dead_store_is_eliminated() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op_arg(Opcode::MBR2_LOAD, 1) // dead: never read
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let (q, stats) = optimize_checked(&p, 20, 10);
        assert!(stats.gate_passed);
        assert_eq!(stats.dead_stores, 1);
        assert_eq!(q.len(), 3);
        assert!(!q
            .instructions()
            .iter()
            .any(|i| i.opcode == Opcode::MBR2_LOAD));
    }

    #[test]
    fn load_copy_pair_folds() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 2)
            .op(Opcode::COPY_MBR2_MBR)
            .op(Opcode::COPY_HASHDATA_MBR2)
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::ADDR_OFFSET)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let (q, stats) = optimize_checked(&p, 20, 10);
        assert!(stats.gate_passed, "fold must survive the differential");
        assert_eq!(stats.copies_folded, 1);
        assert_eq!(q.len(), p.len() - 1);
        assert_eq!(q.instructions()[0].opcode, Opcode::MBR2_LOAD);
        assert_eq!(q.instructions()[0].arg_index(), Some(2));
    }

    #[test]
    fn explicit_nops_compact_and_stay_nop_equivalent() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let (q, stats) = optimize_checked(&p, 20, 10);
        assert!(stats.gate_passed);
        assert_eq!(stats.nops_removed, 2);
        assert_eq!(q.len(), 3);
        // NOP-only rewrites keep the strongest equivalence: byte-equal
        // after erasing unlabeled NOPs.
        assert!(check_mutant_equivalence(&p, &q).is_none());
    }

    #[test]
    fn labeled_nops_survive() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .jump(Opcode::CJUMP, "end")
            .op_arg(Opcode::MBR_LOAD, 1)
            .label("end")
            .op(Opcode::NOP)
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let (q, stats) = optimize_checked(&p, 20, 10);
        assert!(stats.gate_passed);
        assert!(
            q.instructions()
                .iter()
                .any(|i| i.opcode == Opcode::NOP && i.label().is_some()),
            "the branch-target NOP must not be erased"
        );
    }

    #[test]
    fn provably_redundant_copy_is_removed() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op(Opcode::COPY_MBR2_MBR)
            .op(Opcode::COPY_MBR_MBR2) // MBR already == MBR2
            .op(Opcode::SET_DST)
            .op(Opcode::COPY_HASHDATA_MBR2)
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::MEM_WRITE)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let (q, stats) = optimize_checked(&p, 20, 10);
        assert!(stats.gate_passed);
        assert!(stats.redundant_copies >= 1);
        assert!(q.len() < p.len());
    }

    #[test]
    fn memory_effects_survive_optimization() {
        // A program that actually writes memory: the differential gate
        // compares final region-relative memory maps.
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op_arg(Opcode::MAR_LOAD, 1)
            .op_arg(Opcode::MBR2_LOAD, 2) // dead
            .op(Opcode::MEM_WRITE)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let (q, stats) = optimize_checked(&p, 20, 10);
        assert!(stats.gate_passed);
        assert_eq!(stats.dead_stores, 1);
        assert_eq!(q.memory_access_positions().len(), 1);
    }

    #[test]
    fn differential_rejects_a_tampered_program() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let tampered = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 1) // wrong argument word
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        assert!(differential_equivalent(&p, &tampered, 20, 10).is_err());
    }

    #[test]
    fn optimizer_never_grows_a_program() {
        let progs = [
            ProgramBuilder::new()
                .op(Opcode::COPY_HASHDATA_5TUPLE)
                .op(Opcode::HASH)
                .op(Opcode::ADDR_MASK)
                .op(Opcode::ADDR_OFFSET)
                .op(Opcode::MEM_READ)
                .op(Opcode::RETURN)
                .build()
                .unwrap(),
            ProgramBuilder::new()
                .op_arg(Opcode::MBR_LOAD, 0)
                .op(Opcode::CRET)
                .op(Opcode::DROP)
                .build()
                .unwrap(),
        ];
        for p in progs {
            let (q, stats) = optimize_checked(&p, 20, 10);
            assert!(stats.gate_passed);
            assert!(q.len() <= p.len());
        }
    }
}
