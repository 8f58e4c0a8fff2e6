//! Differential property tests for the capsule verifier: its abstract
//! verdicts must agree with what the switch's frame paths actually do.
//!
//! * **Accepted** under strict assumptions (exact argument values, no
//!   trust in memory-derived addresses) ⇒ running the frame through
//!   both the optimized and the reference path never records a
//!   protection violation and never hits the recirculation cap.
//! * **Rejected with a witness** ⇒ replaying the witness argument
//!   vector through the reference path reproduces the predicted
//!   failure (a protection drop or a recirculation-cap drop).
//!
//! The verifier's witness simulator (`activermt-analysis::sim`) and the
//! runtime share one per-stage semantics (`activermt_rmt::step`) and one
//! translation binding (`activermt_rmt::entry_stage`); what differs is
//! the pass loop around them and the verifier's abstract transfer
//! functions. These properties therefore check the abstract domain, the
//! witness search and the simulator's pass loop against the runtime's
//! frame paths. The semantics they share is checked independently, by
//! the golden Appendix A vectors in `activermt-rmt`.

use activermt_analysis::{
    lint, verify, AnalysisContext, ArgAssumption, Assumptions, Finding, FindingKind, WitnessEffect,
};
use activermt_core::runtime::SwitchRuntime;
use activermt_core::SwitchConfig;
use activermt_isa::wire::{build_program_packet, RegionEntry};
use activermt_isa::{Opcode, OperandKind, Program, ProgramBuilder};
use proptest::prelude::*;

const CLIENT: [u8; 6] = [0x02, 0, 0, 0, 0, 1];
const SERVER: [u8; 6] = [0x02, 0, 0, 0, 0, 2];
const FID: u16 = 7;

/// Opcodes eligible for random bodies: everything but the on-wire
/// terminator and label-operand branches (which need validated forward
/// targets the generator does not construct).
fn body_opcodes() -> Vec<Opcode> {
    Opcode::ALL
        .iter()
        .copied()
        .filter(|op| *op != Opcode::EOF && op.operand_kind() != OperandKind::Label)
        .collect()
}

fn synth_program(picks: &[(usize, u8)], args: [u32; 4]) -> Option<Program> {
    let pool = body_opcodes();
    let mut b = ProgramBuilder::new();
    for &(i, operand) in picks {
        let op = pool[i % pool.len()];
        b = match op.operand_kind() {
            OperandKind::ArgIndex => b.op_arg(op, operand % 4),
            _ => b.op(op),
        };
    }
    b = b.op(Opcode::RETURN);
    for (i, &a) in args.iter().enumerate() {
        b = b.arg(i, a);
    }
    b.build().ok()
}

/// `(stage, start_block, len_blocks)` picks mapped to disjoint-stage
/// region grants. Even stage picks get whole-stage regions so that
/// accepted programs with real memory traffic stay reachable.
fn region_grants(raw: &[(usize, u32, u32)]) -> Vec<(usize, u32, u32)> {
    let mut grants: Vec<(usize, u32, u32)> = Vec::new();
    for &(s, start_block, len_blocks) in raw {
        let stage = s % 20;
        if grants.iter().any(|&(g, _, _)| g == stage) {
            continue;
        }
        let (start, end) = if stage % 2 == 0 {
            (0, 65_536)
        } else {
            let start = (start_block % 128) * 256;
            let end = (start + (1 + len_blocks % 8) * 256).min(65_536);
            (start, end)
        };
        grants.push((stage, start, end));
    }
    grants.sort_unstable();
    grants
}

/// A runtime with the grants installed and privilege granted (the
/// verifier does not model the privilege gate; privileged drops would
/// otherwise alias protection faults in the accounting).
fn runtime_with(grants: &[(usize, u32, u32)], cfg: &SwitchConfig) -> SwitchRuntime {
    let mut rt = SwitchRuntime::new(*cfg);
    for &(stage, start, end) in grants {
        rt.install_region(stage, FID, RegionEntry { start, end });
    }
    rt.grant_privilege(FID);
    rt
}

fn strict_exact(args: [u32; 4]) -> Assumptions {
    let mut assume = Assumptions::strict();
    for (slot, &a) in assume.args.iter_mut().zip(args.iter()) {
        *slot = ArgAssumption::Exact(a);
    }
    assume
}

fn context_for(
    grants: &[(usize, u32, u32)],
    cfg: &SwitchConfig,
    args: [u32; 4],
) -> AnalysisContext {
    let mut ctx = AnalysisContext::new(cfg.num_stages, cfg.ingress_stages, cfg.max_recirculations)
        .with_assumptions(strict_exact(args));
    for &(stage, start, end) in grants {
        ctx = ctx.with_region(stage, start, end);
    }
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline property: verdicts are faithful to both concrete
    /// interpreters. `tight_cap` runs a subset of cases with a
    /// recirculation cap of zero so the termination pass and the
    /// cap-drop witness path see real traffic too.
    #[test]
    fn verdicts_agree_with_both_interpreters(
        picks in prop::collection::vec((0usize..64, 0u8..8), 1..24),
        args in prop::array::uniform4(any::<u32>()),
        raw_regions in prop::collection::vec((0usize..20, 0u32..128, 0u32..8), 0..6),
        tight_cap in any::<bool>(),
    ) {
        let Some(program) = synth_program(&picks, args) else {
            return;
        };
        let mut cfg = SwitchConfig::default();
        if tight_cap {
            cfg.max_recirculations = Some(0);
        }
        let grants = region_grants(&raw_regions);
        let ctx = context_for(&grants, &cfg, args);
        let report = verify(program.instructions(), &ctx);

        if report.accepted() {
            // Accepted: neither interpreter may fault or cap-drop.
            let mut rt = runtime_with(&grants, &cfg);
            let mut rt_ref = rt.clone();
            let frame = build_program_packet(SERVER, CLIENT, FID, 1, &program, b"x");
            let _ = rt.process_frame_at(0, frame.clone());
            let _ = rt_ref.process_frame_reference_at(0, frame);
            for (name, r) in [("optimized", &rt), ("reference", &rt_ref)] {
                prop_assert_eq!(
                    r.stats().violation_drops, 0,
                    "{} interpreter faulted on a verified program", name
                );
                prop_assert_eq!(
                    r.traffic_stats().recirc_cap_drops, 0,
                    "{} interpreter hit the recirc cap on a verified program", name
                );
            }
        } else if let Some(w) = report.witness() {
            // Rejected with a concrete witness: replaying it through
            // the reference interpreter reproduces the failure.
            let witness_program =
                Program::new(program.instructions().to_vec(), w.args).expect("same instructions");
            let mut rt_ref = runtime_with(&grants, &cfg);
            let frame = build_program_packet(SERVER, CLIENT, FID, 1, &witness_program, b"x");
            let _ = rt_ref.process_frame_reference_at(0, frame);
            match w.effect {
                WitnessEffect::ProtectionFault => prop_assert!(
                    rt_ref.stats().violation_drops >= 1,
                    "witness {:?} did not fault the reference interpreter", w.args
                ),
                WitnessEffect::RecircCapDrop => prop_assert!(
                    rt_ref.traffic_stats().recirc_cap_drops >= 1,
                    "witness {:?} did not cap-drop the reference interpreter", w.args
                ),
            }
        }
    }

    /// The lint is the verifier's context-free twin for hashed
    /// addressing: wherever the verifier rejects an access for a raw
    /// hash, under any allocation and either assumption policy, the
    /// lint warns at that access without knowing the allocation.
    #[test]
    fn lint_flags_every_hashed_access_the_verifier_rejects(
        picks in prop::collection::vec((0usize..64, 0u8..8), 1..24),
        args in prop::array::uniform4(any::<u32>()),
        raw_regions in prop::collection::vec((0usize..20, 0u32..128, 0u32..8), 0..6),
    ) {
        let Some(program) = synth_program(&picks, args) else {
            return;
        };
        let cfg = SwitchConfig::default();
        let grants = region_grants(&raw_regions);
        let hashed = |f: &Finding| f.kind == FindingKind::UnguardedHashedAddress;
        let linted: Vec<Option<usize>> = lint(program.instructions(), cfg.num_stages)
            .iter()
            .filter(|f| hashed(f))
            .map(|f| f.at)
            .collect();
        for assume in [strict_exact(args), Assumptions::admission()] {
            let ctx = context_for(&grants, &cfg, args).with_assumptions(assume);
            let report = verify(program.instructions(), &ctx);
            for f in report.errors().filter(|f| hashed(f)) {
                prop_assert!(
                    linted.contains(&f.at),
                    "verifier rejects a raw hash at {:?}, the lint is silent: {}",
                    f.at,
                    f
                );
            }
        }
    }
}

/// A crafted out-of-bounds program: a small region at a nonzero offset
/// and a direct `MAR_LOAD` probe. The verifier must reject it, produce
/// a concrete witness, and the witness must fault the reference
/// interpreter.
#[test]
fn crafted_oob_program_yields_a_faulting_witness() {
    let program = ProgramBuilder::new()
        .op_arg(Opcode::MAR_LOAD, 0)
        .op(Opcode::NOP)
        .op(Opcode::MEM_READ) // stage 2 against [256, 512)
        .op(Opcode::RETURN)
        .build()
        .unwrap();
    let cfg = SwitchConfig::default();
    let grants = [(2usize, 256u32, 512u32)];
    let mut ctx = AnalysisContext::new(cfg.num_stages, cfg.ingress_stages, cfg.max_recirculations)
        .with_assumptions(Assumptions::strict());
    for &(stage, start, end) in &grants {
        ctx = ctx.with_region(stage, start, end);
    }
    let report = verify(program.instructions(), &ctx);
    assert!(!report.accepted(), "an unconstrained probe must not verify");
    let w = report.witness().expect("rejection carries a witness");
    assert_eq!(w.effect, WitnessEffect::ProtectionFault);

    let witness_program =
        Program::new(program.instructions().to_vec(), w.args).expect("same instructions");
    let mut rt = runtime_with(&grants, &cfg);
    let frame = build_program_packet(SERVER, CLIENT, FID, 1, &witness_program, b"x");
    let _ = rt.process_frame_reference_at(0, frame);
    assert_eq!(rt.stats().violation_drops, 1, "witness must fault");

    // The same probe confined to the region verifies cleanly.
    let inside = AnalysisContext::new(cfg.num_stages, cfg.ingress_stages, cfg.max_recirculations)
        .with_assumptions(strict_exact([300, 0, 0, 0]))
        .with_region(2, 256, 512);
    assert!(verify(program.instructions(), &inside).accepted());
}
