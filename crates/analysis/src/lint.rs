//! Allocation-independent lints: use-before-def, dead stores,
//! unreachable code, dangling branches, unguarded hashed addressing,
//! redundant copies, and provably-constant writes.
//!
//! These need no [`crate::verify::AnalysisContext`], so the client
//! compiler can run them at synthesis time, before any allocation
//! exists. Each lint reads one fact off a [`crate::dataflow`] analysis
//! and decides nothing about opcodes itself:
//!
//! * use-before-def — a read whose only reaching definition is the
//!   parser's ([`ENTRY_DEF`]);
//! * dead stores — a pure writer whose outputs are dead (liveness);
//! * redundant copies, folds and constant writes — the value facts;
//! * unguarded hashed addressing — a memory access whose MAR carries
//!   [`Origin::Hashed`] in the context-free value facts. The verifier
//!   rejects an access on the same provenance, computed by the same
//!   transfer function, so the lint is its context-free twin by
//!   construction: without a region it can only warn, but it warns at
//!   every access the verifier could reject for a raw hash.

use crate::cfg::Cfg;
use crate::dataflow::{
    copy_src_dst, each_reg, foldable_load_copy, liveness, pure_writer, reaching_defs, reads_writes,
    reg_name, same_value, transfer_values, value_facts, DefSet, ENTRY_DEF, HD, MAR, MBR, MBR2,
};
use crate::domain::Origin;
use crate::verify::{Finding, FindingKind, Severity};
use activermt_isa::Instruction;

fn describe_defs(defs: DefSet) -> String {
    let sites: Vec<String> = defs
        .iter()
        .map(|d| {
            if d == ENTRY_DEF {
                "the parser".to_string()
            } else {
                format!("#{}", d + 1)
            }
        })
        .collect();
    sites.join(", ")
}

/// Run every allocation-independent lint over `instrs`.
#[must_use]
pub fn lint(instrs: &[Instruction], num_stages: usize) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Ok(cfg) = Cfg::build(instrs, num_stages.max(1)) else {
        // Structural errors are the verifier's to report.
        return findings;
    };
    let nodes = cfg.nodes();
    let reachable = cfg.reachable();
    let mut warn = |kind, at, severity, message| {
        findings.push(Finding {
            kind,
            at: Some(at),
            severity,
            message,
            witness: None,
        });
    };

    // --- Unreachable instructions (one finding per run). ---
    let mut idx = 0;
    while idx < nodes.len() {
        if reachable[idx] {
            idx += 1;
            continue;
        }
        let start = idx;
        while idx < nodes.len() && !reachable[idx] {
            idx += 1;
        }
        warn(
            FindingKind::Unreachable,
            start,
            Severity::Warning,
            format!(
                "{} instruction(s) starting here can never execute",
                idx - start
            ),
        );
    }

    // --- Dangling branches. ---
    for &b in cfg.dangling_branches() {
        if reachable[b] {
            warn(
                FindingKind::DanglingBranch,
                b,
                Severity::Warning,
                format!(
                    "label {} never appears later: taken, this branch skips to the end \
                     of the program",
                    nodes[b].ins.branch_target().unwrap_or(0)
                ),
            );
        }
    }

    let rd = reaching_defs(&cfg);
    let live_out = liveness(&cfg);
    let vf = value_facts(&cfg);
    for (idx, node) in nodes.iter().enumerate() {
        let Some(state) = vf[idx].as_ref() else {
            continue;
        };
        let ins = node.ins;
        let op = ins.opcode;
        let (reads, writes) = reads_writes(op);

        // --- Use-before-def: only the parser's zero reaches the read.
        for r in each_reg(reads) {
            if rd.defs_of(idx, r) == DefSet::single(ENTRY_DEF) {
                warn(
                    FindingKind::UseBeforeDef,
                    idx,
                    Severity::Warning,
                    format!(
                        "{op} reads {}, which is still the parser's zero on every path here",
                        reg_name(r)
                    ),
                );
            }
        }

        // --- Dead stores: a pure writer none of whose outputs is live.
        if pure_writer(op) && writes & live_out[idx] == 0 {
            warn(
                FindingKind::DeadStore,
                idx,
                Severity::Warning,
                format!(
                    "{op} writes {}, but no later instruction reads it",
                    reg_name(writes & !live_out[idx])
                ),
            );
        }

        // --- Redundant copies: the value numbering proves source and
        // destination equal; reaching definitions name where the
        // duplicated value came from.
        if let Some((src, dst)) = copy_src_dst(op) {
            if same_value(state.reg(src), state.reg(dst)) {
                warn(
                    FindingKind::RedundantCopy,
                    idx,
                    Severity::Warning,
                    format!(
                        "{op} copies {} into {}, but both provably hold the same value \
                         (defined at {})",
                        reg_name(src),
                        reg_name(dst),
                        describe_defs(rd.defs_of(idx, src)),
                    ),
                );
            }
        }
        // Load+copy pairs that fold into one instruction. A note, not a
        // warning: the pattern is natural to write, and folding it by
        // hand saves one instruction slot.
        if let Some(next) = instrs.get(idx + 1) {
            if let Some(folded) = foldable_load_copy(op, next.opcode) {
                let (src, _) = copy_src_dst(next.opcode).unwrap_or((0, 0));
                let src_dead = live_out.get(idx + 1).is_some_and(|&live| live & src == 0);
                if ins.label().is_none() && next.label().is_none() && src_dead {
                    warn(
                        FindingKind::RedundantCopy,
                        idx,
                        Severity::Note,
                        format!(
                            "{op} followed by {} folds into a single {folded} (the intermediate \
                             {} is never read again)",
                            next.opcode,
                            reg_name(src),
                        ),
                    );
                }
            }
        }
        // Computations whose result is a compile-time constant even
        // though an input register is not: the value numbering proved
        // e.g. `x ^ x = 0` for an unknown x.
        if pure_writer(op)
            && writes & (MAR | MBR | MBR2) != 0
            && each_reg(reads & !HD).any(|r| state.reg(r).as_const().is_none())
        {
            let mut out = state.clone();
            transfer_values(&mut out, ins, idx, None);
            for r in each_reg(writes & !HD) {
                if let Some(c) = out.reg(r).as_const() {
                    if state.reg(r).as_const() != Some(c) {
                        warn(
                            FindingKind::ConstantWrite,
                            idx,
                            Severity::Warning,
                            format!(
                                "{op} always produces the constant {c} in {} \
                                 (its non-constant inputs provably cancel)",
                                reg_name(r),
                            ),
                        );
                    }
                }
            }
        }

        // --- Unguarded hashed addressing (context-free).
        if op.is_memory_access() && state.mar.abs.origin == Origin::Hashed {
            warn(
                FindingKind::UnguardedHashedAddress,
                idx,
                Severity::Warning,
                format!(
                    "{op} may be addressed by a raw HASH value; insert ADDR_MASK \
                     (and ADDR_OFFSET) before the access"
                ),
            );
        }
    }

    findings.sort_by_key(|f| f.at);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify, AnalysisContext, Assumptions};
    use activermt_isa::{Opcode, Program, ProgramBuilder};

    fn kinds(f: &[Finding]) -> Vec<FindingKind> {
        f.iter().map(|x| x.kind).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let p = ProgramBuilder::new()
            .op(Opcode::COPY_HASHDATA_5TUPLE)
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::ADDR_OFFSET)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        assert!(lint(p.instructions(), 20).is_empty());
    }

    #[test]
    fn hash_of_empty_hashdata_warns() {
        // HASH before anything fills the buffer: hashes constant zeros.
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::ADDR_OFFSET)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        assert!(kinds(&f).contains(&FindingKind::UseBeforeDef));
    }

    #[test]
    fn unmasked_hash_access_warns() {
        let p = ProgramBuilder::new()
            .op(Opcode::COPY_HASHDATA_5TUPLE)
            .op(Opcode::HASH)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        assert!(kinds(&f).contains(&FindingKind::UnguardedHashedAddress));
    }

    /// The lint warns at `access` and the verifier rejects it, for the
    /// same reason, even under the admission policy's assumptions.
    fn assert_twins_flag_hashed(p: &Program, access: usize) {
        let hashed =
            |f: &Finding| f.kind == FindingKind::UnguardedHashedAddress && f.at == Some(access);
        let f = lint(p.instructions(), 20);
        assert!(f.iter().any(hashed), "lint findings: {f:?}");
        let ctx = AnalysisContext::new(20, 10, Some(8))
            .with_region(access, 0, 1024)
            .with_assumptions(Assumptions::admission());
        let r = verify(p.instructions(), &ctx);
        assert!(
            r.errors().any(hashed),
            "verifier findings: {:?}",
            r.findings
        );
    }

    #[test]
    fn hash_laundered_through_an_equality_test_is_flagged() {
        // MBR ^ arg0 still ranges over every hash value.
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::COPY_MBR_MAR)
            .op(Opcode::MBR_EQUALS_DATA_1)
            .op(Opcode::COPY_MAR_MBR)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        assert_twins_flag_hashed(&p, 4);
    }

    #[test]
    fn hash_laundered_through_an_argument_word_is_flagged() {
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::COPY_MBR_MAR)
            .op_arg(Opcode::MBR_STORE, 2)
            .op_arg(Opcode::MAR_LOAD, 2)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        assert_twins_flag_hashed(&p, 4);
    }

    #[test]
    fn masking_clears_the_taint() {
        let p = ProgramBuilder::new()
            .op(Opcode::COPY_HASHDATA_5TUPLE)
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        assert!(!kinds(&f).contains(&FindingKind::UnguardedHashedAddress));
    }

    #[test]
    fn dead_store_and_unreachable_detected() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0) // read below: live
            .op_arg(Opcode::MBR2_LOAD, 1) // never read: dead
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .op(Opcode::NOP) // unreachable
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        let ks = kinds(&f);
        assert!(ks.contains(&FindingKind::DeadStore));
        assert!(ks.contains(&FindingKind::Unreachable));
    }

    #[test]
    fn use_before_def_on_untouched_mbr() {
        let p = ProgramBuilder::new()
            .op(Opcode::CRET) // MBR is still the parser's zero
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        assert!(kinds(&f).contains(&FindingKind::UseBeforeDef));
    }

    #[test]
    fn defs_on_one_path_suppress_the_warning() {
        // MBR is written on the fallthrough path only; the join still
        // counts it as may-defined, so no warning at the final read.
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .jump(Opcode::CJUMP, "end")
            .op_arg(Opcode::MBR_LOAD, 1)
            .label("end")
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        assert!(!kinds(&f).contains(&FindingKind::UseBeforeDef));
    }

    #[test]
    fn provably_redundant_copy_warns() {
        // MBR and MBR2 hold the same loaded value; copying one into the
        // other is a no-op.
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op(Opcode::COPY_MBR2_MBR)
            .op(Opcode::COPY_MBR_MBR2) // redundant: MBR already == MBR2
            .op(Opcode::SET_DST)
            .op(Opcode::COPY_HASHDATA_MBR2)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        let hit = f
            .iter()
            .find(|x| x.kind == FindingKind::RedundantCopy && x.severity == Severity::Warning)
            .expect("redundant copy warning");
        assert_eq!(hit.at, Some(2));
    }

    #[test]
    fn foldable_load_copy_pair_notes() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 2)
            .op(Opcode::COPY_MBR2_MBR) // MBR never read again: foldable
            .op(Opcode::COPY_HASHDATA_MBR2)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        let hit = f
            .iter()
            .find(|x| x.kind == FindingKind::RedundantCopy && x.severity == Severity::Note)
            .expect("foldable pair note");
        assert_eq!(hit.at, Some(0));
    }

    #[test]
    fn load_copy_pair_with_live_source_is_not_foldable() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 2)
            .op(Opcode::COPY_MBR2_MBR)
            .op(Opcode::SET_DST) // still reads MBR: the pair must stay
            .op(Opcode::COPY_HASHDATA_MBR2)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        assert!(!f
            .iter()
            .any(|x| x.kind == FindingKind::RedundantCopy && x.severity == Severity::Note));
    }

    #[test]
    fn constant_write_from_cancelling_inputs_warns() {
        // arg0 is unknown, but arg0 ^ arg0 is provably 0.
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op(Opcode::COPY_MBR2_MBR)
            .op(Opcode::COPY_HASHDATA_MBR)
            .op(Opcode::MBR_EQUALS_MBR2) // x ^ x = 0 for unknown x
            .op(Opcode::CRETI)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        let hit = f
            .iter()
            .find(|x| x.kind == FindingKind::ConstantWrite)
            .expect("constant write warning");
        assert_eq!(hit.at, Some(3));
        assert!(hit.message.contains("constant 0"));
    }

    #[test]
    fn ordinary_xor_of_distinct_values_is_quiet() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op_arg(Opcode::MBR2_LOAD, 1)
            .op(Opcode::MBR_EQUALS_MBR2)
            .op(Opcode::CRETI)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let f = lint(p.instructions(), 20);
        assert!(!kinds(&f).contains(&FindingKind::ConstantWrite));
        assert!(!kinds(&f).contains(&FindingKind::RedundantCopy));
    }
}
