//! The client compiler (Section 5).
//!
//! "An active program ... has to be compiled to a set of bytes that can
//! be inserted into active packets. In addition to generating the byte
//! code, our compiler for ActiveRMT computes the memory access indices
//! and ingress constraints (such as those for RTS) which are required to
//! request allocations. It also synthesizes the appropriate mutant in
//! response to allocation responses from the switch and performs any
//! necessary address translation."

use activermt_analysis::{lint, pad_to_positions, Finding, Severity};
use activermt_core::alloc::AccessPattern;
use activermt_core::error::AdmitError;
use activermt_isa::wire::RegionEntry;
use activermt_isa::{Instruction, Opcode, Program};

/// A service definition: the compact program plus its resource
/// semantics (which only the application knows).
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Human-readable service name.
    pub name: String,
    /// The compact program, as written.
    pub program: Program,
    /// Per-access demand in blocks (0 = elastic).
    pub demands: Vec<u16>,
    /// Elasticity class (Section 4.1).
    pub elastic: bool,
    /// Same-region access pairs (Listing 2's threshold read/write).
    pub aliases: Vec<(usize, usize)>,
}

/// A compiled service: bytecode plus the constraints the allocation
/// request carries.
#[derive(Debug, Clone)]
pub struct CompiledService {
    /// The service definition.
    pub spec: ServiceSpec,
    /// Derived access pattern (LB, B, demands, ingress positions).
    pub pattern: AccessPattern,
    /// Static-analysis diagnostics gathered at compile time
    /// (use-before-def, dead stores, unreachable code, unguarded hashed
    /// addressing). Warnings don't block compilation — the switch-side
    /// verifier has the final say — but a client that ships a program
    /// with warnings is asking for an admission rejection.
    pub diagnostics: Vec<Finding>,
}

impl CompiledService {
    /// Compile-time diagnostics at warning severity or above.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.diagnostics
            .iter()
            .filter(|f| f.severity >= Severity::Warning)
    }
}

/// The client compiler.
#[derive(Debug, Default)]
pub struct Compiler;

impl Compiler {
    /// Compile a service: derive its access pattern and validate.
    pub fn compile(spec: ServiceSpec) -> Result<CompiledService, AdmitError> {
        if spec.demands.len() != spec.program.memory_access_positions().len() {
            return Err(AdmitError::BadRequest);
        }
        let pattern = AccessPattern {
            min_positions: spec
                .program
                .memory_access_positions()
                .iter()
                .map(|&p| p as u16)
                .collect(),
            demands: spec.demands.clone(),
            prog_len: spec.program.len() as u16,
            elastic: spec.elastic,
            ingress_positions: spec
                .program
                .ingress_bound_positions()
                .iter()
                .map(|&p| p as u16)
                .collect(),
            aliases: spec.aliases.clone(),
        };
        pattern.validate()?;
        // Allocation-independent lints: stage geometry is irrelevant to
        // them, so a placeholder depth of 1 suffices.
        let diagnostics = lint(spec.program.instructions(), 1);
        Ok(CompiledService {
            spec,
            pattern,
            diagnostics,
        })
    }

    /// Synthesize the mutant whose memory accesses land on the given
    /// per-stage regions (Section 4.1 / Figure 4).
    ///
    /// `allocated_stages` is the ascending list of 0-based stages from
    /// the allocation response. The compiler pads the compact program
    /// with NOPs so access *i* executes at a logical position mapping to
    /// `allocated_stages[i]`, choosing the earliest feasible pass for
    /// each access. Aliased accesses re-visit their partner's stage on a
    /// later pass.
    pub fn synthesize(
        compiled: &CompiledService,
        allocated_stages: &[usize],
        num_stages: usize,
    ) -> Result<Program, AdmitError> {
        let pattern = &compiled.pattern;
        let m = pattern.num_accesses();
        // Map each access to its target stage: non-aliased accesses
        // consume response stages in order; aliased ones reuse their
        // partner's stage.
        let mut targets = Vec::with_capacity(m);
        let mut next = 0usize;
        for i in 0..m {
            if let Some(&(e, _)) = pattern.aliases.iter().find(|&&(_, l)| l == i) {
                let t: usize = *targets.get(e).ok_or(AdmitError::BadRequest)?;
                targets.push(t);
            } else {
                let t = *allocated_stages.get(next).ok_or(AdmitError::BadRequest)?;
                next += 1;
                targets.push(t);
            }
        }
        if next != allocated_stages.len() {
            return Err(AdmitError::BadRequest);
        }

        // Choose logical positions: smallest position >= the running
        // minimum whose physical stage matches the target.
        let gaps = pattern.min_gaps();
        let mut positions = Vec::with_capacity(m);
        let mut min_pos = 0u16;
        for i in 0..m {
            let lb = pattern.min_positions[i].max(if i == 0 { 1 } else { min_pos + gaps[i] });
            let mut p = (targets[i] as u16) + 1; // stage s = position s+1 on pass 1
            while p < lb {
                p += num_stages as u16;
            }
            positions.push(p);
            min_pos = p;
        }
        Self::synthesize_at(compiled, &positions)
    }

    /// Synthesize the mutant whose accesses land at exactly the given
    /// logical positions (e.g. the positions of an allocator-chosen
    /// [`activermt_core::alloc::Mutant`]).
    ///
    /// The padding rule is the one admission verifies by:
    /// [`pad_to_positions`] inserts NOPs immediately before each access
    /// (Figure 4 inserts "a NOP instruction at line 2"), unless an
    /// ingress-bound instruction (RTS) sits in the segment — then before
    /// *it*, so its distance to the access is preserved and the
    /// allocator's ingress reasoning stays valid. Positions of the wrong
    /// arity, below the compact layout, or moving an access less far than
    /// the one before it are a bad request.
    pub fn synthesize_at(
        compiled: &CompiledService,
        positions: &[u16],
    ) -> Result<Program, AdmitError> {
        pad_to_positions(&compiled.spec.program, positions).map_err(|_| AdmitError::BadRequest)
    }

    /// Link a direct (client-side translated) address: the physical
    /// register index of `vindex` within `region` (Section 3.2's
    /// "address translation as part of program synthesis at the
    /// client"). Indices wrap modulo the region size, mirroring the
    /// mask+offset the switch would apply.
    pub fn link_address(region: RegionEntry, vindex: u32) -> u32 {
        let len = region.len().max(1);
        region.start + (vindex % len)
    }

    /// Apply the Appendix C "preloading" optimization: if the program
    /// begins with `MAR_LOAD`/`MBR_LOAD` instructions, they can be
    /// absorbed into parser preloads, freeing their leading stages.
    /// Returns the preloadable prefix length.
    pub fn preloadable_prefix(program: &Program) -> usize {
        program
            .instructions()
            .iter()
            .take_while(|i| {
                matches!(
                    i.opcode,
                    Opcode::MAR_LOAD | Opcode::MBR_LOAD | Opcode::MBR2_LOAD
                )
            })
            .count()
    }

    /// Number of instructions that have already executed, per the
    /// executed flag bits (used to resume inspection of returning
    /// packets).
    pub fn executed_count(instructions: &[Instruction]) -> usize {
        instructions.iter().filter(|i| i.flags.executed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    const LISTING_1: &str = r"
        MAR_LOAD $3
        MEM_READ
        MBR_EQUALS_DATA_1
        CRET
        MEM_READ
        MBR_EQUALS_DATA_2
        CRET
        RTS
        MEM_READ
        MBR_STORE $2
        RETURN
    ";

    fn cache_service() -> CompiledService {
        Compiler::compile(ServiceSpec {
            name: "cache".into(),
            program: assemble(LISTING_1).unwrap(),
            demands: vec![0, 0, 0],
            elastic: true,
            aliases: vec![],
        })
        .unwrap()
    }

    #[test]
    fn compile_derives_the_paper_constraints() {
        let c = cache_service();
        assert_eq!(c.pattern.min_positions, vec![2, 5, 9]);
        assert_eq!(c.pattern.min_gaps(), vec![1, 3, 4]);
        assert_eq!(c.pattern.ingress_positions, vec![8]);
        assert_eq!(c.pattern.prog_len, 11);
    }

    #[test]
    fn identity_synthesis_for_the_compact_stages() {
        let c = cache_service();
        // Stages (1, 4, 8) are exactly the compact placement (2, 5, 9).
        let p = Compiler::synthesize(&c, &[1, 4, 8], 20).unwrap();
        assert_eq!(p.len(), 11, "no NOPs needed");
        assert_eq!(p.memory_access_positions(), vec![2, 5, 9]);
    }

    #[test]
    fn figure4_mutant_synthesis() {
        let c = cache_service();
        // Figure 4: moving the accesses to stages (2, 5, 9) [0-based]
        // inserts one NOP at line 2.
        let p = Compiler::synthesize(&c, &[2, 5, 9], 20).unwrap();
        assert_eq!(p.len(), 12);
        assert_eq!(p.memory_access_positions(), vec![3, 6, 10]);
        assert_eq!(p.instructions()[1].opcode, Opcode::NOP);
        // The RTS still sits one before the last access.
        assert_eq!(p.ingress_bound_positions(), vec![9]);
    }

    #[test]
    fn uneven_shifts_pad_each_segment() {
        let c = cache_service();
        let p = Compiler::synthesize(&c, &[3, 6, 11], 20).unwrap();
        assert_eq!(p.memory_access_positions(), vec![4, 7, 12]);
        // Instruction stream still semantically intact: same opcode
        // sequence modulo NOPs.
        let non_nops: Vec<Opcode> = p
            .instructions()
            .iter()
            .map(|i| i.opcode)
            .filter(|&o| o != Opcode::NOP)
            .collect();
        let original: Vec<Opcode> = c
            .spec
            .program
            .instructions()
            .iter()
            .map(|i| i.opcode)
            .collect();
        assert_eq!(non_nops, original);
    }

    #[test]
    fn recirculating_synthesis_wraps_stages() {
        let c = cache_service();
        // Target stage 2 for the third access, below the second access's
        // stage: it must wrap to the second pass (position 23).
        let p = Compiler::synthesize(&c, &[1, 4, 2], 20).unwrap();
        assert_eq!(p.memory_access_positions(), vec![2, 5, 23]);
    }

    #[test]
    fn aliased_accesses_reuse_their_partner_stage() {
        let src = r"
            MAR_LOAD $0
            MEM_READ
            NOP
            MEM_READ
            NOP
            MEM_WRITE
            RETURN
        ";
        let c = Compiler::compile(ServiceSpec {
            name: "rmw".into(),
            program: assemble(src).unwrap(),
            demands: vec![1, 1, 0],
            elastic: false,
            aliases: vec![(0, 2)], // the write revisits the first read's region
        })
        .unwrap();
        // Response grants two stages (for accesses 0 and 1).
        let p = Compiler::synthesize(&c, &[1, 3], 20).unwrap();
        let pos = p.memory_access_positions();
        assert_eq!(pos[0], 2); // stage 1
        assert_eq!(pos[1], 4); // stage 3
        assert_eq!((pos[2] - 1) % 20, 1, "write wraps back to stage 1");
    }

    #[test]
    fn wrong_stage_count_is_rejected() {
        let c = cache_service();
        assert!(Compiler::synthesize(&c, &[1, 4], 20).is_err());
        assert!(Compiler::synthesize(&c, &[1, 4, 8, 9], 20).is_err());
    }

    #[test]
    fn address_linking() {
        let region = RegionEntry {
            start: 1024,
            end: 1536,
        };
        assert_eq!(Compiler::link_address(region, 0), 1024);
        assert_eq!(Compiler::link_address(region, 511), 1535);
        // Out-of-range virtual indices wrap, staying in-region.
        assert_eq!(Compiler::link_address(region, 512), 1024);
        assert_eq!(Compiler::link_address(region, 513), 1025);
    }

    #[test]
    fn preloadable_prefix_detection() {
        let p = assemble("MAR_LOAD $0\nMBR_LOAD $1\nMEM_WRITE\nRETURN").unwrap();
        assert_eq!(Compiler::preloadable_prefix(&p), 2);
        let q = assemble("NOP\nMAR_LOAD $0\nRETURN").unwrap();
        assert_eq!(Compiler::preloadable_prefix(&q), 0);
    }

    #[test]
    fn demand_mismatch_fails_compilation() {
        let err = Compiler::compile(ServiceSpec {
            name: "bad".into(),
            program: assemble(LISTING_1).unwrap(),
            demands: vec![0, 0],
            elastic: true,
            aliases: vec![],
        });
        assert!(err.is_err());
    }
}
