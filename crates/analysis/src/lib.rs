//! Static verification of ActiveRMT capsule programs.
//!
//! ActiveRMT admits *runtime-uploaded* programs into a shared switch
//! pipeline; the paper's safety story (Section 3.3) rests on dynamic
//! TCAM range checks that drop an offending packet. This crate adds the
//! complementary static side: before a program is admitted (or even
//! shipped by a client), prove that it *cannot* trip those checks —
//! every memory access lands inside the FID's allocated region, the
//! worst-case pass count respects the recirculation cap, and the
//! NOP-padded mutant the allocator placed is observationally equivalent
//! to the canonical program.
//!
//! The pieces:
//!
//! * [`cfg`] — the control-flow graph, annotated with the stage/pass
//!   geometry that makes ActiveRMT programs position-sensitive;
//! * [`domain`] — the interval × known-bits abstract domain with value
//!   provenance (argument / hash / memory origins);
//! * [`dataflow`] — classic dataflow analyses over that CFG: liveness,
//!   reaching definitions, and constant/value-number propagation;
//! * [`verify`] — the abstract interpreter and termination pass, plus
//!   concrete witness search for rejections;
//! * [`lint`] — allocation-independent diagnostics (use-before-def,
//!   dead stores, unreachable code, unguarded hashed addressing,
//!   redundant copies, provably-constant writes);
//! * [`opt`] — the transformation pipeline built on [`dataflow`]
//!   (dead-store elimination, copy folding, NOP compaction), gated by a
//!   simulator differential so only proven-equivalent programs ship;
//! * [`equiv`] — mutant padding and NOP-equivalence checking;
//! * [`sim`] — the concrete simulator used to confirm witnesses and
//!   gate the optimizer; it runs the data plane's own per-stage
//!   semantics from `activermt-rmt`, so this crate stays below
//!   `activermt-core` in the dependency graph.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod dataflow;
pub mod domain;
pub mod equiv;
pub mod lint;
pub mod opt;
pub mod sim;
pub mod verify;

pub use cfg::{Cfg, CfgError, Edge, EdgeKind, Node, NodeId};
pub use dataflow::{liveness, reaching_defs, value_facts, Liveness, ReachingDefs, ValueFacts};
pub use domain::{AbsVal, Origin};
pub use equiv::{check_mutant_equivalence, pad_to_positions};
pub use lint::lint;
pub use opt::{differential_equivalent, optimize, optimize_checked, OptStats};
pub use sim::{simulate, simulate_full, SimOutcome, SimTrace};
pub use verify::{
    search_witness, verify, AnalysisContext, ArgAssumption, Assumptions, Finding, FindingKind,
    Report, Severity, Witness, WitnessEffect,
};

use activermt_isa::Instruction;

/// Verify and lint in one call: the verifier's report with the
/// allocation-independent lint findings appended (sorted last; they
/// never affect [`Report::accepted`]).
#[must_use]
pub fn analyze(instrs: &[Instruction], ctx: &AnalysisContext) -> Report {
    let mut report = verify::verify(instrs, ctx);
    report.findings.extend(lint::lint(instrs, ctx.num_stages));
    report
}
