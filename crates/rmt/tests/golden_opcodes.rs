//! Golden per-opcode vectors, written by hand from Appendix A.
//!
//! The runtime and the analysis simulator share one semantics
//! (`activermt_rmt::step`), so a bug in it would pass any test that
//! compares the two. This table is the independent oracle: every row is
//! an initial PHV, protection entry and register cell, and the registers,
//! cell and flags the appendix says one stage leaves behind. No expected
//! value is computed by `step`; the `HASH` digests are CRC-32 check
//! values taken from an independent CRC-32 implementation (zlib's) over
//! the seed's and the words' big-endian bytes.
//!
//! Every row runs through `step` with both register backings: a
//! pipeline stage's dense array and the simulator's sparse map.

use activermt_isa::{InstrFlags, Instruction, Opcode};
use activermt_rmt::hash::Crc32;
use activermt_rmt::{
    step, Phv, Pipeline, PipelineConfig, ProtEntry, SparseRegisters, StageRegisters,
};
use std::collections::{BTreeMap, BTreeSet};

/// The FID's entry for the region `[256, 768)`: 512 hashable registers.
const ENTRY: ProtEntry = ProtEntry {
    lo: 256,
    hi: 767,
    mask: 511,
    offset: 256,
};
/// The register every row seeds and checks (inside `ENTRY`).
const CELL: u32 = 300;
/// The parser's flow digest in every row.
const FIVE_TUPLE: u32 = 0xF1F0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Regs {
    mar: u32,
    mbr: u32,
    mbr2: u32,
    args: [u32; 4],
}

/// The PHV's control state. `pending` is a taken branch still waiting
/// for its label (the packet is disabled while it is `Some`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flags {
    complete: bool,
    pending: Option<u8>,
    drop: bool,
    rts: bool,
    rts_done: bool,
    fork: bool,
    dst: Option<u32>,
    violation: bool,
}

const QUIET: Flags = Flags {
    complete: false,
    pending: None,
    drop: false,
    rts: false,
    rts_done: false,
    fork: false,
    dst: None,
    violation: false,
};
const COMPLETE: Flags = Flags {
    complete: true,
    ..QUIET
};
const VIOLATION: Flags = Flags {
    violation: true,
    ..QUIET
};

/// The default initial registers: MAR addresses `CELL`.
const R: Regs = Regs {
    mar: CELL,
    mbr: 7,
    mbr2: 5,
    args: [10, 20, 30, 40],
};

struct Row {
    ins: Instruction,
    /// Is `ENTRY` installed for the stage the instruction reads?
    entry: bool,
    regs: Regs,
    flags: Flags,
    hash: &'static [u32],
    cell: u32,
    want_regs: Regs,
    want_flags: Flags,
    want_hash: &'static [u32],
    want_cell: u32,
}

const BASE: Row = Row {
    ins: op(Opcode::NOP),
    entry: true,
    regs: R,
    flags: QUIET,
    hash: &[],
    cell: 192,
    want_regs: R,
    want_flags: QUIET,
    want_hash: &[],
    want_cell: 192,
};

const fn op(opcode: Opcode) -> Instruction {
    with(opcode, 0)
}

/// An instruction whose flag byte carries `operand` (an argument index
/// or a branch target).
const fn with(opcode: Opcode, operand: u8) -> Instruction {
    Instruction {
        opcode,
        flags: InstrFlags {
            executed: false,
            labeled: false,
            operand,
        },
    }
}

/// `opcode` marked as the target of label `label`.
const fn labeled(opcode: Opcode, label: u8) -> Instruction {
    Instruction {
        opcode,
        flags: InstrFlags {
            executed: false,
            labeled: true,
            operand: label,
        },
    }
}

#[allow(clippy::too_many_lines)]
fn rows() -> Vec<Row> {
    use Opcode::{
        ADDR_MASK, ADDR_OFFSET, BIT_AND_MAR_MBR, BIT_OR_MBR_MBR2, CJUMP, CJUMPI,
        COPY_HASHDATA_5TUPLE, COPY_HASHDATA_MBR, COPY_HASHDATA_MBR2, COPY_MAR_MBR, COPY_MBR2_MBR,
        COPY_MBR_MAR, COPY_MBR_MBR2, CRET, CRETI, CRTS, DROP, EOF, FORK, HASH, MAR_ADD_MBR,
        MAR_ADD_MBR2, MAR_LOAD, MAR_MBR_ADD_MBR2, MAX, MBR2_LOAD, MBR_ADD_MBR2, MBR_EQUALS_DATA_1,
        MBR_EQUALS_DATA_2, MBR_EQUALS_MBR2, MBR_LOAD, MBR_NOT, MBR_STORE, MBR_SUBTRACT_MBR2,
        MEM_INCREMENT, MEM_MINREAD, MEM_MINREADINC, MEM_READ, MEM_WRITE, MIN, NOP, RETURN, REVMIN,
        RTS, SET_DST, SWAP_MBR_MBR2, UJUMP,
    };
    const HW: &[u32] = &[0x1111_2222, 0x3333_4444];
    let disabled = Flags {
        pending: Some(3),
        ..QUIET
    };
    vec![
        // ----- A.6 Special -----
        Row {
            ins: op(EOF),
            want_flags: COMPLETE,
            ..BASE
        },
        Row { ..BASE },
        // Mask: pow2_floor(512) - 1 = 511; 0xDEAD_BEEF & 511 = 239.
        Row {
            ins: op(ADDR_MASK),
            regs: Regs {
                mar: 0xDEAD_BEEF,
                ..R
            },
            want_regs: Regs { mar: 239, ..R },
            ..BASE
        },
        Row {
            ins: op(ADDR_MASK),
            entry: false,
            want_flags: VIOLATION,
            ..BASE
        },
        Row {
            ins: op(ADDR_OFFSET),
            regs: Regs { mar: 239, ..R },
            want_regs: Regs { mar: 495, ..R },
            ..BASE
        },
        Row {
            ins: op(ADDR_OFFSET),
            entry: false,
            want_flags: VIOLATION,
            ..BASE
        },
        // HASH %sel = CRC-32(seed(sel) ++ words), seed(sel) =
        // sel * 0x9E37_79B9 ^ 0xA5A5_5A5A.
        Row {
            ins: with(HASH, 0),
            hash: HW,
            want_regs: Regs {
                mar: 0xF32A_B39C,
                ..R
            },
            want_hash: HW,
            ..BASE
        },
        Row {
            ins: with(HASH, 3),
            hash: HW,
            want_regs: Regs {
                mar: 0x78D4_8DA4,
                ..R
            },
            want_hash: HW,
            ..BASE
        },
        Row {
            ins: with(HASH, 0),
            want_regs: Regs {
                mar: 0x4FA8_A494,
                ..R
            },
            ..BASE
        },
        // ----- A.1 Data copying -----
        Row {
            ins: with(MBR_LOAD, 2),
            want_regs: Regs { mbr: 30, ..R },
            ..BASE
        },
        // A selector past the four data words (a corrupted frame).
        Row {
            ins: with(MBR_LOAD, 4),
            want_flags: VIOLATION,
            ..BASE
        },
        Row {
            ins: with(MBR_STORE, 3),
            want_regs: Regs {
                args: [10, 20, 30, 7],
                ..R
            },
            ..BASE
        },
        Row {
            ins: with(MBR_STORE, 5),
            want_flags: VIOLATION,
            ..BASE
        },
        Row {
            ins: with(MBR2_LOAD, 1),
            want_regs: Regs { mbr2: 20, ..R },
            ..BASE
        },
        Row {
            ins: with(MBR2_LOAD, 7),
            want_flags: VIOLATION,
            ..BASE
        },
        Row {
            ins: with(MAR_LOAD, 0),
            want_regs: Regs { mar: 10, ..R },
            ..BASE
        },
        Row {
            ins: with(MAR_LOAD, 63),
            want_flags: VIOLATION,
            ..BASE
        },
        // Destination first: COPY_X_Y is X <- Y.
        Row {
            ins: op(COPY_MBR2_MBR),
            want_regs: Regs { mbr2: 7, ..R },
            ..BASE
        },
        Row {
            ins: op(COPY_MBR_MBR2),
            want_regs: Regs { mbr: 5, ..R },
            ..BASE
        },
        Row {
            ins: op(COPY_MBR_MAR),
            want_regs: Regs { mbr: CELL, ..R },
            ..BASE
        },
        Row {
            ins: op(COPY_MAR_MBR),
            want_regs: Regs { mar: 7, ..R },
            ..BASE
        },
        Row {
            ins: op(COPY_HASHDATA_MBR),
            want_hash: &[7],
            ..BASE
        },
        Row {
            ins: op(COPY_HASHDATA_MBR2),
            hash: &[7],
            want_hash: &[7, 5],
            ..BASE
        },
        Row {
            ins: op(COPY_HASHDATA_5TUPLE),
            want_hash: &[FIVE_TUPLE],
            ..BASE
        },
        // Four words fill the container; a fifth overwrites the last.
        Row {
            ins: op(COPY_HASHDATA_MBR),
            hash: &[1, 2, 3, 4],
            want_hash: &[1, 2, 3, 7],
            ..BASE
        },
        // ----- A.2 Data manipulation -----
        Row {
            ins: op(MBR_ADD_MBR2),
            want_regs: Regs { mbr: 12, ..R },
            ..BASE
        },
        Row {
            ins: op(MBR_ADD_MBR2),
            regs: Regs { mbr: u32::MAX, ..R },
            want_regs: Regs { mbr: 4, ..R },
            ..BASE
        },
        Row {
            ins: op(MAR_ADD_MBR),
            want_regs: Regs { mar: 307, ..R },
            ..BASE
        },
        Row {
            ins: op(MAR_ADD_MBR2),
            want_regs: Regs { mar: 305, ..R },
            ..BASE
        },
        Row {
            ins: op(MAR_MBR_ADD_MBR2),
            want_regs: Regs { mar: 12, ..R },
            ..BASE
        },
        Row {
            ins: op(MBR_SUBTRACT_MBR2),
            want_regs: Regs { mbr: 2, ..R },
            ..BASE
        },
        Row {
            ins: op(MBR_SUBTRACT_MBR2),
            regs: Regs {
                mbr: 5,
                mbr2: 7,
                ..R
            },
            want_regs: Regs {
                mbr: 0xFFFF_FFFE,
                mbr2: 7,
                ..R
            },
            ..BASE
        },
        // 300 = 0b1_0010_1100; & 7 = 4.
        Row {
            ins: op(BIT_AND_MAR_MBR),
            want_regs: Regs { mar: 4, ..R },
            ..BASE
        },
        Row {
            ins: op(BIT_OR_MBR_MBR2),
            regs: Regs {
                mbr: 0xF0,
                mbr2: 0x0F,
                ..R
            },
            want_regs: Regs {
                mbr: 0xFF,
                mbr2: 0x0F,
                ..R
            },
            ..BASE
        },
        // Equality is XOR: zero iff equal (A.2).
        Row {
            ins: op(MBR_EQUALS_MBR2),
            want_regs: Regs { mbr: 2, ..R },
            ..BASE
        },
        Row {
            ins: op(MBR_EQUALS_MBR2),
            regs: Regs {
                mbr: 42,
                mbr2: 42,
                ..R
            },
            want_regs: Regs {
                mbr: 0,
                mbr2: 42,
                ..R
            },
            ..BASE
        },
        Row {
            ins: op(MBR_EQUALS_DATA_1),
            regs: Regs { mbr: 10, ..R },
            want_regs: Regs { mbr: 0, ..R },
            ..BASE
        },
        // 7 ^ 20 = 0b00111 ^ 0b10100 = 19.
        Row {
            ins: op(MBR_EQUALS_DATA_2),
            want_regs: Regs { mbr: 19, ..R },
            ..BASE
        },
        Row {
            ins: op(MAX),
            regs: Regs {
                mbr: 5,
                mbr2: 7,
                ..R
            },
            want_regs: Regs {
                mbr: 7,
                mbr2: 7,
                ..R
            },
            ..BASE
        },
        Row {
            ins: op(MIN),
            want_regs: Regs { mbr: 5, ..R },
            ..BASE
        },
        Row {
            ins: op(REVMIN),
            regs: Regs { mbr: 3, ..R },
            want_regs: Regs {
                mbr: 3,
                mbr2: 3,
                ..R
            },
            ..BASE
        },
        Row {
            ins: op(SWAP_MBR_MBR2),
            want_regs: Regs {
                mbr: 5,
                mbr2: 7,
                ..R
            },
            ..BASE
        },
        Row {
            ins: op(MBR_NOT),
            want_regs: Regs {
                mbr: 0xFFFF_FFF8,
                ..R
            },
            ..BASE
        },
        // ----- A.3 Control flow -----
        Row {
            ins: op(RETURN),
            want_flags: COMPLETE,
            ..BASE
        },
        Row {
            ins: op(CRET),
            want_flags: COMPLETE,
            ..BASE
        },
        Row {
            ins: op(CRET),
            regs: Regs { mbr: 0, ..R },
            want_regs: Regs { mbr: 0, ..R },
            ..BASE
        },
        Row {
            ins: op(CRETI),
            regs: Regs { mbr: 0, ..R },
            want_regs: Regs { mbr: 0, ..R },
            want_flags: COMPLETE,
            ..BASE
        },
        Row {
            ins: op(CRETI),
            ..BASE
        },
        Row {
            ins: with(CJUMP, 3),
            want_flags: disabled,
            ..BASE
        },
        Row {
            ins: with(CJUMP, 3),
            regs: Regs { mbr: 0, ..R },
            want_regs: Regs { mbr: 0, ..R },
            ..BASE
        },
        Row {
            ins: with(CJUMPI, 3),
            regs: Regs { mbr: 0, ..R },
            want_regs: Regs { mbr: 0, ..R },
            want_flags: disabled,
            ..BASE
        },
        Row {
            ins: with(CJUMPI, 3),
            ..BASE
        },
        Row {
            ins: with(UJUMP, 9),
            want_flags: Flags {
                pending: Some(9),
                ..QUIET
            },
            ..BASE
        },
        // A disabled packet consumes the stage: nothing executes...
        Row {
            ins: op(NOP),
            flags: disabled,
            want_flags: disabled,
            ..BASE
        },
        Row {
            ins: op(MEM_WRITE),
            flags: disabled,
            want_flags: disabled,
            ..BASE
        },
        Row {
            ins: labeled(COPY_MBR2_MBR, 4),
            flags: disabled,
            want_flags: disabled,
            ..BASE
        },
        // ...until the pending label, which resets the flag and runs.
        Row {
            ins: labeled(COPY_MBR2_MBR, 3),
            flags: disabled,
            want_regs: Regs { mbr2: 7, ..R },
            ..BASE
        },
        // ----- A.4 Memory access (MAR = 300, inside [256, 767]) -----
        Row {
            ins: op(MEM_WRITE),
            want_cell: 7,
            ..BASE
        },
        Row {
            ins: op(MEM_READ),
            want_regs: Regs { mbr: 192, ..R },
            ..BASE
        },
        // The post-increment value lands in MBR.
        Row {
            ins: op(MEM_INCREMENT),
            want_regs: Regs { mbr: 193, ..R },
            want_cell: 193,
            ..BASE
        },
        Row {
            ins: op(MEM_INCREMENT),
            cell: u32::MAX,
            want_regs: Regs { mbr: 0, ..R },
            want_cell: 0,
            ..BASE
        },
        // MBR2 <- min(cell, MBR2).
        Row {
            ins: op(MEM_MINREAD),
            regs: Regs { mbr2: 1000, ..R },
            want_regs: Regs {
                mbr: 192,
                mbr2: 192,
                ..R
            },
            ..BASE
        },
        Row {
            ins: op(MEM_MINREAD),
            want_regs: Regs { mbr: 192, ..R },
            ..BASE
        },
        // One count-min row update (Listing 2).
        Row {
            ins: op(MEM_MINREADINC),
            regs: Regs { mbr2: 1000, ..R },
            want_regs: Regs {
                mbr: 193,
                mbr2: 193,
                ..R
            },
            want_cell: 193,
            ..BASE
        },
        Row {
            ins: op(MEM_MINREADINC),
            want_regs: Regs { mbr: 193, ..R },
            want_cell: 193,
            ..BASE
        },
        // Protection: below, just past, and without an entry.
        Row {
            ins: op(MEM_READ),
            regs: Regs { mar: 255, ..R },
            want_regs: Regs { mar: 255, ..R },
            want_flags: VIOLATION,
            ..BASE
        },
        Row {
            ins: op(MEM_WRITE),
            regs: Regs { mar: 768, ..R },
            want_regs: Regs { mar: 768, ..R },
            want_flags: VIOLATION,
            ..BASE
        },
        Row {
            ins: op(MEM_INCREMENT),
            entry: false,
            want_flags: VIOLATION,
            ..BASE
        },
        // ----- A.5 Forwarding -----
        Row {
            ins: op(DROP),
            want_flags: Flags {
                drop: true,
                ..QUIET
            },
            ..BASE
        },
        Row {
            ins: op(FORK),
            want_flags: Flags {
                fork: true,
                ..QUIET
            },
            ..BASE
        },
        Row {
            ins: op(SET_DST),
            want_flags: Flags {
                dst: Some(7),
                ..QUIET
            },
            ..BASE
        },
        Row {
            ins: op(RTS),
            want_flags: Flags {
                rts: true,
                rts_done: true,
                ..QUIET
            },
            ..BASE
        },
        // RTS fires once per packet.
        Row {
            ins: op(RTS),
            flags: Flags {
                rts_done: true,
                ..QUIET
            },
            want_flags: Flags {
                rts_done: true,
                ..QUIET
            },
            ..BASE
        },
        Row {
            ins: op(CRTS),
            want_flags: Flags {
                rts: true,
                rts_done: true,
                ..QUIET
            },
            ..BASE
        },
        Row {
            ins: op(CRTS),
            regs: Regs { mbr: 0, ..R },
            want_regs: Regs { mbr: 0, ..R },
            ..BASE
        },
    ]
}

fn initial_phv(row: &Row) -> Phv {
    let mut phv = Phv::new(1, 0, row.regs.args);
    phv.mar = row.regs.mar;
    phv.mbr = row.regs.mbr;
    phv.mbr2 = row.regs.mbr2;
    phv.five_tuple = FIVE_TUPLE;
    for &w in row.hash {
        phv.push_hash_data(w);
    }
    let f = row.flags;
    phv.complete = f.complete;
    phv.disabled = f.pending.is_some();
    phv.pending_branch = f.pending;
    phv.drop = f.drop;
    phv.rts = f.rts;
    phv.rts_done = f.rts_done;
    phv.fork = f.fork;
    phv.dst_override = f.dst;
    phv.violation = f.violation;
    phv
}

fn observed(phv: &Phv) -> (Regs, Flags, Vec<u32>) {
    let regs = Regs {
        mar: phv.mar,
        mbr: phv.mbr,
        mbr2: phv.mbr2,
        args: phv.args,
    };
    assert_eq!(phv.disabled, phv.pending_branch.is_some());
    let flags = Flags {
        complete: phv.complete,
        pending: phv.pending_branch,
        drop: phv.drop,
        rts: phv.rts,
        rts_done: phv.rts_done,
        fork: phv.fork,
        dst: phv.dst_override,
        violation: phv.violation,
    };
    (regs, flags, phv.hash_input().to_vec())
}

/// Run `row` through `step` on `regs`, returning what it observed.
fn run<S: StageRegisters>(row: &Row, regs: &mut S) -> (Regs, Flags, Vec<u32>) {
    let mut phv = initial_phv(row);
    let entry = row.entry.then_some(ENTRY);
    step(&mut phv, row.ins, entry, &Crc32::new(), regs);
    observed(&phv)
}

fn check(i: usize, row: &Row, backing: &str, got: (Regs, Flags, Vec<u32>), cell: u32) {
    let want = (row.want_regs, row.want_flags, row.want_hash.to_vec());
    assert_eq!(got, want, "row {i} ({}) on the {backing} backing", row.ins);
    assert_eq!(
        cell, row.want_cell,
        "row {i} ({}) left the wrong cell on the {backing} backing",
        row.ins
    );
}

#[test]
fn every_opcode_has_a_golden_row() {
    let covered: BTreeSet<Opcode> = rows().iter().map(|r| r.ins.opcode).collect();
    let missing: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|op| !covered.contains(op))
        .collect();
    assert!(
        missing.is_empty(),
        "opcodes without a golden row: {missing:?}"
    );
}

#[test]
fn golden_rows_hold_on_a_pipeline_stage() {
    for (i, row) in rows().iter().enumerate() {
        let mut stage = Pipeline::new(PipelineConfig {
            num_stages: 1,
            ingress_stages: 1,
            regs_per_stage: 1024,
            tcam_entries_per_stage: 1,
            sram_entries_per_stage: 1,
        })
        .stage(0)
        .clone();
        stage.registers.poke(CELL, row.cell);
        let got = run(row, &mut stage);
        check(i, row, "stage", got, stage.registers.peek(CELL).unwrap());
    }
}

#[test]
fn golden_rows_hold_on_sparse_registers() {
    for (i, row) in rows().iter().enumerate() {
        let mut cells = BTreeMap::from([((0, CELL), row.cell)]);
        let got = run(
            row,
            &mut SparseRegisters {
                cells: &mut cells,
                stage: 0,
            },
        );
        check(i, row, "sparse", got, cells[&(0, CELL)]);
    }
}
