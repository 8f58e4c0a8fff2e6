//! The concrete simulator: one packet through an allocation, with no
//! switch around it.
//!
//! When the abstract interpreter reports a possible protection fault or
//! recirculation-cap drop, the verifier searches for a concrete argument
//! vector that actually triggers it, and validates each candidate here.
//!
//! Neither what each stage does nor the pass loop is written here: the
//! packet runs through `activermt_rmt::run_passes`, the data plane's
//! own execution model, over a sparse register map
//! ([`SparseRegisters`]) that reads zero until touched, exactly like a
//! freshly cleared allocation. Only the host (`SimHost`) is the
//! simulator's own, because the packet has no FID, traffic manager or
//! privilege gate: entries come from the context's regions and
//! recirculation — an egress RTS's turnaround included — is bounded by
//! the context's cap alone. This module reports the [`SimOutcome`].
//!
//! The analysis crate sits *below* `activermt-core` (the controller
//! consumes its verdicts), so it shares the semantics through
//! `activermt-rmt` rather than by calling the runtime.

use crate::verify::AnalysisContext;
use activermt_isa::Instruction;
use activermt_rmt::hash::Crc32;
use activermt_rmt::{run_passes, PassHost, Phv, ProtEntry, SparseRegisters};
use std::collections::BTreeMap;

/// The observable outcome of one simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SimOutcome {
    /// A memory-protection (or malformed-operand) fault occurred; the
    /// traffic manager drops the packet.
    pub(crate) violation: bool,
    /// The packet needed to recirculate past the configured cap and was
    /// dropped.
    pub(crate) capped: bool,
    /// The program ran to completion (RETURN and friends).
    pub(crate) completed: bool,
    /// The program executed DROP.
    pub(crate) dropped: bool,
    /// Pipeline passes consumed.
    pub(crate) passes: u32,
}

impl SimOutcome {
    /// Did the packet die for a reason the verifier promises cannot
    /// happen for accepted programs?
    pub(crate) fn faulted(&self) -> bool {
        self.violation || self.capped
    }
}

/// Run `instrs` with the given argument words through the simulated
/// pipeline described by `ctx`. `five_tuple` is the parser's flow
/// digest (`COPY_HASHDATA_5TUPLE`); packet-independent analyses pass 0.
pub(crate) fn simulate(
    instrs: &[Instruction],
    ctx: &AnalysisContext,
    args: [u32; 4],
    five_tuple: u32,
) -> SimOutcome {
    let mut phv = Phv::new(0, 0, args);
    phv.five_tuple = five_tuple;
    let mut memory = BTreeMap::new();
    let mut host = SimHost {
        ctx,
        regs: SparseRegisters {
            cells: &mut memory,
            stage: 0,
        },
        capped: false,
    };
    let crc = Crc32::new();
    let (n, ingress) = (ctx.num_stages, ctx.ingress_stages);
    let run = run_passes(&mut host, &mut phv, instrs, 0, &crc, n, ingress);
    let capped = host.capped;
    SimOutcome {
        violation: phv.violation,
        capped,
        completed: phv.complete,
        dropped: phv.drop && !capped,
        passes: run.passes,
    }
}

/// The simulator's side of [`run_passes`]: registers in a sparse map,
/// entries from the context's regions, no privilege gate, and
/// recirculation bounded by the context's cap alone.
struct SimHost<'a> {
    ctx: &'a AnalysisContext,
    regs: SparseRegisters<'a>,
    capped: bool,
}

impl<'a> PassHost for SimHost<'a> {
    type Regs = SparseRegisters<'a>;

    fn regs(&mut self, stage: usize) -> &mut SparseRegisters<'a> {
        self.regs.stage = stage;
        &mut self.regs
    }

    fn entry(&self, stage: usize) -> Option<ProtEntry> {
        self.ctx.local_region(stage)
    }

    fn privileged(&self) -> bool {
        true
    }

    fn may_recirculate(&mut self, phv: &Phv) -> bool {
        let may = (self.ctx.max_recirculations).is_none_or(|cap| phv.recirc_count < cap);
        self.capped |= !may;
        may
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::AnalysisContext;
    use activermt_isa::{Opcode, ProgramBuilder};

    fn ctx() -> AnalysisContext {
        AnalysisContext::new(4, 2, Some(2)).with_region(1, 100, 200)
    }

    #[test]
    fn in_bounds_access_completes() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 0)
            .op(Opcode::MEM_READ) // index 1 -> stage 1
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let out = simulate(p.instructions(), &ctx(), [150, 0, 0, 0], 0);
        assert!(out.completed && !out.faulted());
        assert_eq!(out.passes, 1);
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 0)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let out = simulate(p.instructions(), &ctx(), [200, 0, 0, 0], 0);
        assert!(out.violation);
    }

    #[test]
    fn masked_hash_stays_in_bounds() {
        let p = ProgramBuilder::new()
            .op(Opcode::COPY_HASHDATA_5TUPLE)
            .op(Opcode::HASH)
            .op(Opcode::NOP) // pad so mask/offset resolve before stage 1...
            .build()
            .unwrap();
        // Geometry is exercised end-to-end in verify.rs tests; here just
        // check the hash is deterministic.
        let a = simulate(p.instructions(), &ctx(), [0; 4], 77);
        let b = simulate(p.instructions(), &ctx(), [0; 4], 77);
        assert_eq!(a, b);
    }

    #[test]
    fn recirc_cap_drops_long_programs() {
        // 4 stages, cap 2 recircs -> at most 12 instruction slots; a
        // 13-instruction program is cap-dropped.
        let mut b = ProgramBuilder::new();
        for _ in 0..13 {
            b = b.op(Opcode::NOP);
        }
        let p = b.op(Opcode::RETURN).build().unwrap();
        let out = simulate(p.instructions(), &ctx(), [0; 4], 0);
        assert!(out.capped && !out.completed);
        // Within budget: 12 instructions fit exactly.
        let mut b = ProgramBuilder::new();
        for _ in 0..11 {
            b = b.op(Opcode::NOP);
        }
        let p = b.op(Opcode::RETURN).build().unwrap();
        let out = simulate(p.instructions(), &ctx(), [0; 4], 0);
        assert!(out.completed && !out.capped);
        assert_eq!(out.passes, 3);
    }

    #[test]
    fn branch_skip_consumes_stages() {
        // CJUMP taken at index 1 skips to the label at index 3; the
        // skipped MEM_WRITE (which would fault: no region at its stage)
        // must not execute.
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0) // nonzero -> branch taken
            .jump(Opcode::CJUMP, "done")
            .op(Opcode::MEM_WRITE) // stage 2: no region -> would fault
            .label("done")
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let out = simulate(p.instructions(), &ctx(), [1, 0, 0, 0], 0);
        assert!(out.completed && !out.violation);
    }

    #[test]
    fn egress_rts_costs_a_recirculation() {
        // RTS at index 2 -> stage 2 >= ingress_stages (2): extra pass.
        let p = ProgramBuilder::new()
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::RTS)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let out = simulate(p.instructions(), &ctx(), [0; 4], 0);
        assert!(out.completed);
        assert_eq!(out.passes, 2);
    }

    #[test]
    fn egress_rts_is_not_charged_to_a_dropped_packet() {
        // RTS in stage 2 (egress), then DROP: the packet never leaves,
        // so it makes no turnaround pass — not even one the cap refuses.
        let p = ProgramBuilder::new()
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::RTS)
            .op(Opcode::DROP)
            .build()
            .unwrap();
        let capless = AnalysisContext::new(4, 2, Some(0));
        for ctx in [ctx(), capless] {
            let out = simulate(p.instructions(), &ctx, [0; 4], 0);
            assert!(out.dropped && !out.capped);
            assert_eq!(out.passes, 1);
        }
    }
}
