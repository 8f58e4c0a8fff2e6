//! Property-based tests of data-plane memory protection: no program,
//! however constructed, can read or write registers outside its FID's
//! granted regions, or change what a co-tenant observes (Section 3.1's
//! isolation guarantee).

use activermt_core::runtime::{OutputAction, SwitchRuntime};
use activermt_core::SwitchConfig;
use activermt_isa::wire::{build_program_packet, program_packet_layout, RegionEntry};
use activermt_isa::{InstrFlags, Instruction, Opcode, Program, ProgramBuilder};
use activermt_modelcheck::{check_invariants, FaultBudget, Scope, World};
use proptest::prelude::*;

const FID: u16 = 7;
const OTHER_FID: u16 = 8;

fn small_config() -> SwitchConfig {
    SwitchConfig {
        regs_per_stage: 256,
        ..SwitchConfig::default()
    }
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    (
        prop::sample::select(Opcode::ALL.to_vec()),
        0u8..4,
        any::<bool>(),
    )
        .prop_map(|(opcode, operand, _)| Instruction {
            opcode,
            flags: InstrFlags {
                executed: false,
                labeled: false,
                operand,
            },
        })
        .prop_filter("no EOF / branches (labels would need targets)", |i| {
            i.opcode != Opcode::EOF && !i.opcode.is_branch()
        })
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(arb_instruction(), 1..40),
        prop::array::uniform4(any::<u32>()),
    )
        .prop_map(|(instrs, args)| Program::new(instrs, args).expect("valid by construction"))
}

/// Tenant A's fixed program: a hashed, translated per-key counter
/// (stage 5), a direct count-min update (stage 8) and a direct write
/// (stage 12), with results stored back into the packet.
fn tenant_a_program(i: u32) -> Program {
    ProgramBuilder::new()
        .op_arg(Opcode::MBR_LOAD, 0)
        .op(Opcode::COPY_HASHDATA_MBR)
        .op_sel(Opcode::HASH, 1)
        .op(Opcode::ADDR_MASK)
        .op(Opcode::ADDR_OFFSET)
        .op(Opcode::MEM_INCREMENT)
        .op_arg(Opcode::MBR_STORE, 1)
        .op_arg(Opcode::MAR_LOAD, 2)
        .op(Opcode::MEM_MINREADINC)
        .op_arg(Opcode::MBR_STORE, 3)
        .op_arg(Opcode::MBR_LOAD, 0)
        .op_arg(Opcode::MAR_LOAD, 2)
        .op(Opcode::MEM_WRITE)
        .op(Opcode::RETURN)
        .arg(0, i.wrapping_mul(7919))
        .arg(2, i * 13 % 128)
        .build()
        .unwrap()
}

/// Tenant B's instruction stream as raw `(opcode, flag)` words, never
/// validated: arbitrary opcodes with arbitrary flag bytes, mixed with
/// `HASH; ADDR_MASK; ADDR_OFFSET; MEM_*` runs aimed at its own region.
fn arb_unverified_words() -> impl Strategy<Value = Vec<[u8; 2]>> {
    prop::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 1..16).prop_map(|chunks| {
        let mem = [
            Opcode::MEM_READ,
            Opcode::MEM_WRITE,
            Opcode::MEM_INCREMENT,
            Opcode::MEM_MINREAD,
            Opcode::MEM_MINREADINC,
        ];
        let mut words = Vec::new();
        for (kind, a, b) in chunks {
            if kind == 0 {
                words.push([Opcode::HASH as u8, a & 0x3F]);
                words.push([Opcode::ADDR_MASK as u8, 0]);
                words.push([Opcode::ADDR_OFFSET as u8, 0]);
                words.push([mem[usize::from(b) % mem.len()] as u8, 0]);
            } else {
                words.push([Opcode::ALL[usize::from(a) % Opcode::ALL.len()] as u8, b]);
            }
        }
        words
    })
}

/// A program frame for `fid` whose instruction bytes are exactly `words`.
fn raw_program_frame(fid: u16, words: &[[u8; 2]], args: [u32; 4]) -> Vec<u8> {
    let carrier =
        Program::new(vec![Instruction::new(Opcode::NOP); words.len()], args).expect("NOPs");
    let mut frame = build_program_packet([9; 6], [2; 6], fid, 1, &carrier, b"b");
    let layout = program_packet_layout(&frame).expect("well-formed carrier");
    for (k, w) in words.iter().enumerate() {
        frame[layout.instr_off + 2 * k..layout.instr_off + 2 * k + 2].copy_from_slice(w);
    }
    frame
}

const A_FRAMES: usize = 8;

/// Per A frame, its outputs' `(frame, action, latency, passes, dst)`;
/// then A's registers in every stage.
type Observed = (
    Vec<Vec<(Vec<u8>, OutputAction, u64, u32, Option<u32>)>>,
    Vec<u32>,
);

/// Run tenant A's frames, with each of B's frames sent just before the
/// A frame its slot names.
fn run_tenant_a(b_frames: &[(usize, Vec<u8>)]) -> Observed {
    let mut rt = SwitchRuntime::new(small_config());
    for s in 0..20 {
        rt.install_region(s, FID, RegionEntry { start: 0, end: 128 });
        rt.install_region(
            s,
            OTHER_FID,
            RegionEntry {
                start: 128,
                end: 256,
            },
        );
    }
    let mut outputs = Vec::new();
    for i in 0..A_FRAMES {
        for (_, frame) in b_frames.iter().filter(|(slot, _)| *slot == i) {
            rt.process_frame(frame.clone());
        }
        let a = build_program_packet([9; 6], [1; 6], FID, 1, &tenant_a_program(i as u32), b"a");
        let out = rt.process_frame(a);
        outputs.push(
            out.into_iter()
                .map(|o| (o.frame, o.action, o.latency_ns, o.passes, o.dst_override))
                .collect(),
        );
    }
    let registers = (0..20)
        .flat_map(|s| (0..128).map(move |idx| (s, idx)))
        .map(|(s, idx)| rt.reg_read(s, idx).unwrap())
        .collect();
    (outputs, registers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fuzz the interpreter with arbitrary programs: the FID owns
    /// registers [32, 64) in every stage; everything else is another
    /// tenant's and must never change.
    #[test]
    fn no_program_escapes_its_region(program in arb_program()) {
        let mut rt = SwitchRuntime::new(small_config());
        for s in 0..20 {
            rt.install_region(s, FID, RegionEntry { start: 32, end: 64 });
            rt.install_region(s, OTHER_FID, RegionEntry { start: 64, end: 128 });
        }
        // Sentinel values in the other tenant's region and unallocated
        // space.
        for s in 0..20 {
            for idx in (0..256u32).filter(|i| !(32..64).contains(i)) {
                rt.reg_write(s, idx, 0xDEAD_0000 | idx);
            }
        }
        let frame = build_program_packet([9; 6], [1; 6], FID, 1, &program, b"payload");
        let _ = rt.process_frame(frame);
        // Nothing outside [32, 64) moved, in any stage.
        for s in 0..20 {
            for idx in (0..256u32).filter(|i| !(32..64).contains(i)) {
                prop_assert_eq!(
                    rt.reg_read(s, idx),
                    Some(0xDEAD_0000 | idx),
                    "stage {} register {} was modified by a foreign program",
                    s,
                    idx
                );
            }
        }
    }

    /// The same fuzzing against a FID with no grants at all: any memory
    /// touch must surface as a violation drop, never a write.
    #[test]
    fn ungranted_fids_cannot_write_anything(program in arb_program()) {
        let mut rt = SwitchRuntime::new(small_config());
        for s in 0..20 {
            for idx in 0..256u32 {
                rt.reg_write(s, idx, 0xBEEF_0000 | idx);
            }
        }
        let frame = build_program_packet([9; 6], [1; 6], FID, 1, &program, b"");
        let _ = rt.process_frame(frame);
        // Whatever the packet's fate (violation drop, DROP instruction,
        // completion), no register may change.
        for s in 0..20 {
            for idx in 0..256u32 {
                prop_assert_eq!(rt.reg_read(s, idx), Some(0xBEEF_0000 | idx));
            }
        }
    }

    /// Noninterference (Section 3.1's isolation claim, tested against a
    /// run of the system): a co-tenant holding disjoint grants in the
    /// same stages and sending arbitrary unverified programs leaves
    /// tenant A's output frames and registers bit-identical.
    #[test]
    fn co_tenant_frames_do_not_interfere(
        b_frames in prop::collection::vec(
            (0..A_FRAMES, arb_unverified_words(), prop::array::uniform4(any::<u32>())),
            1..8,
        ),
    ) {
        let b_frames: Vec<(usize, Vec<u8>)> = b_frames
            .iter()
            .map(|(slot, words, args)| (*slot, raw_program_frame(OTHER_FID, words, *args)))
            .collect();
        let alone = run_tenant_a(&[]);
        let shared = run_tenant_a(&b_frames);
        prop_assert!(alone.0 == shared.0, "tenant A's output frames changed");
        prop_assert!(alone.1 == shared.1, "tenant A's registers changed");
    }

    /// Malformed byte soup never panics the runtime and never writes
    /// memory.
    #[test]
    fn arbitrary_frames_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut rt = SwitchRuntime::new(small_config());
        let _ = rt.process_frame(bytes);
    }

    /// Control-plane random walks: drive the real controller through
    /// arbitrary interleavings of requests, deallocations, signal
    /// deliveries, faults, and polls, and audit *every* intermediate
    /// state with the shared invariant engine (crates/modelcheck).
    /// This covers, among others, cross-FID per-stage disjointness
    /// (I1) and protection-table/grant coverage (I3) at walk lengths
    /// far beyond what the exhaustive bounded explorer reaches.
    #[test]
    fn random_control_walks_preserve_invariants(
        choices in prop::collection::vec(any::<u8>(), 1..60),
    ) {
        let mut world = World::new(Scope::medium(), FaultBudget::default_adversary());
        for c in choices {
            let enabled = world.enabled();
            // `enabled` is never empty: Poll is always available.
            let ev = enabled[usize::from(c) % enabled.len()];
            world.apply(ev);
            let violations = check_invariants(&world.ctl, &world.rt);
            prop_assert!(
                violations.is_empty(),
                "invariants broken after {}: {:?}",
                ev,
                violations
            );
        }
    }
}
