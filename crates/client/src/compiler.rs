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
use activermt_isa::Program;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use activermt_isa::Opcode;

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
    fn figure4_mutant_synthesis() {
        let c = cache_service();
        // Figure 4: moving the accesses to stages (2, 5, 9) [0-based],
        // i.e. positions (3, 6, 10), inserts one NOP at line 2.
        let p = Compiler::synthesize_at(&c, &[3, 6, 10]).unwrap();
        assert_eq!(p.len(), 12);
        assert_eq!(p.memory_access_positions(), vec![3, 6, 10]);
        assert_eq!(p.instructions()[1].opcode, Opcode::NOP);
        // The RTS still sits one before the last access.
        assert_eq!(p.ingress_bound_positions(), vec![9]);
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
