//! Mutant padding and the mutant-equivalence check.
//!
//! The allocator places a program by choosing logical positions for its
//! memory accesses and NOP-padding everything else around them
//! (Section 4.1's "mutants"). Admission verifies the *padded* program —
//! that is what runs — but it also wants a proof that padding did not
//! change semantics. NOP is a PHV identity (it reads and writes
//! nothing, and skipped-versus-executed makes no difference to the
//! registers), so two programs are observationally equivalent modulo
//! stage placement exactly when they agree after erasing unlabeled
//! NOPs. Labeled NOPs are branch-target markers and *are* significant:
//! erasing one would redirect every branch that names its label.
//!
//! Stage placement itself (whether a moved access still lands on an
//! allocated region, whether extra passes blow the recirculation cap)
//! is the bounds/termination verifier's job, on the padded program.

use crate::verify::{Finding, FindingKind, Severity};
use activermt_isa::{Opcode, Program};

/// Pad `program` so its memory accesses land at exactly the given
/// 1-based logical `positions`: the one padding rule, which the client
/// synthesizer runs and admission re-runs (it holds only the compact
/// program plus the allocator's chosen mutant), so the program verified
/// is the program shipped.
///
/// NOPs are inserted immediately before each access, unless an
/// ingress-bound instruction (RTS/CRTS) sits in the segment — then they
/// go before *it*, preserving its distance to the access.
///
/// # Errors
///
/// Returns a human-readable description when `positions` does not match
/// the program's access count, would move an access less far than the
/// one before it (or before its compact position), or would overflow
/// the maximum program length.
pub fn pad_to_positions(program: &Program, positions: &[u16]) -> Result<Program, String> {
    let compact: Vec<u16> = program
        .memory_access_positions()
        .iter()
        .map(|&p| p as u16)
        .collect();
    if positions.len() != compact.len() {
        return Err(format!(
            "mutant names {} access positions, program has {}",
            positions.len(),
            compact.len()
        ));
    }
    // Padding only ever grows, so each access must move at least as far
    // as the one before it.
    let mut shift = 0;
    for (i, (&pos, &cp)) in positions.iter().zip(&compact).enumerate() {
        if pos < cp || pos - cp < shift {
            return Err(format!(
                "access {i}: position {pos} is below its compact position {cp} \
                 plus the {shift} NOPs padded before it"
            ));
        }
        shift = pos - cp;
    }

    let mut padded = program.clone();
    let mut inserted = 0u16;
    let mut seg_start = 1u16;
    for (&pos, &cp) in positions.iter().zip(&compact) {
        let needed = pos - cp - inserted;
        if needed > 0 {
            let mut at = cp;
            for q in seg_start..cp {
                let op = program.instructions()[usize::from(q) - 1].opcode;
                if op.requires_ingress() {
                    at = q;
                    break;
                }
            }
            padded
                .insert_nops(usize::from(at + inserted), usize::from(needed))
                .map_err(|e| format!("NOP insertion failed: {e}"))?;
            inserted += needed;
        }
        seg_start = cp + 1;
    }
    Ok(padded)
}

/// Check that `mutant` is observationally equivalent to `canonical`
/// modulo NOP padding: erasing unlabeled NOPs from both must yield the
/// same instruction stream (opcode and flags, byte for byte).
#[must_use]
pub fn check_mutant_equivalence(canonical: &Program, mutant: &Program) -> Option<Finding> {
    let erase = |p: &Program| {
        p.instructions()
            .iter()
            .filter(|i| !(i.opcode == Opcode::NOP && i.label().is_none()))
            .map(|i| i.to_bytes())
            .collect::<Vec<_>>()
    };
    let a = erase(canonical);
    let b = erase(mutant);
    if a == b {
        return None;
    }
    let at = a
        .iter()
        .zip(&b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    Some(Finding {
        kind: FindingKind::NonEquivalentMutant,
        at: Some(at),
        severity: Severity::Error,
        message: format!(
            "mutant diverges from the canonical program at retained instruction {} \
             ({} vs {} instructions after erasing NOP padding)",
            at + 1,
            a.len(),
            b.len()
        ),
        witness: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use activermt_isa::{Opcode, ProgramBuilder};

    fn demo() -> Program {
        ProgramBuilder::new()
            .op(Opcode::COPY_HASHDATA_5TUPLE)
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::ADDR_OFFSET)
            .op(Opcode::MEM_READ) // compact position 5
            .op(Opcode::RTS)
            .op(Opcode::MEM_WRITE) // compact position 7
            .op(Opcode::RETURN)
            .build()
            .unwrap()
    }

    #[test]
    fn identity_padding_is_equivalent() {
        let p = demo();
        let q = pad_to_positions(&p, &[5, 7]).unwrap();
        assert_eq!(p.instructions(), q.instructions());
        assert!(check_mutant_equivalence(&p, &q).is_none());
    }

    #[test]
    fn shifted_mutant_is_equivalent_and_respects_ingress_pinning() {
        let p = demo();
        let q = pad_to_positions(&p, &[8, 12]).unwrap();
        assert_eq!(
            q.memory_access_positions(),
            vec![8, 12],
            "accesses land where requested"
        );
        // RTS must keep its distance to the second access: the two NOPs
        // for the second segment went before the RTS.
        let rts_at = q
            .instructions()
            .iter()
            .position(|i| i.opcode == Opcode::RTS)
            .unwrap();
        assert_eq!(12 - (rts_at + 1), 1, "RTS keeps its compact distance of 1");
        assert!(check_mutant_equivalence(&p, &q).is_none());
    }

    #[test]
    fn tampered_mutant_is_flagged() {
        let p = demo();
        let mut q = pad_to_positions(&p, &[8, 12]).unwrap();
        // Swap the write for a read: same shape, different semantics.
        let tampered: Vec<_> = q
            .instructions()
            .iter()
            .map(|i| {
                if i.opcode == Opcode::MEM_WRITE {
                    activermt_isa::Instruction::new(Opcode::MEM_READ)
                } else {
                    *i
                }
            })
            .collect();
        q = Program::new(tampered, p.args()).unwrap();
        let f = check_mutant_equivalence(&p, &q).expect("must flag");
        assert_eq!(f.kind, FindingKind::NonEquivalentMutant);
        assert_eq!(f.severity, Severity::Error);
    }

    #[test]
    fn bad_positions_are_rejected() {
        let p = demo();
        assert!(pad_to_positions(&p, &[5]).is_err(), "wrong arity");
        assert!(pad_to_positions(&p, &[4, 7]).is_err(), "below compact");
        assert!(pad_to_positions(&p, &[7, 7]).is_err(), "non-monotonic");
        assert!(pad_to_positions(&p, &[6, 7]).is_err(), "shrinking shift");
    }
}
