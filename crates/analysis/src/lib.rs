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
//! The pieces (all private; the crate root re-exports what admission,
//! the client compiler, `capsulelint` and the tests use):
//!
//! * `cfg` — the control-flow graph, annotated with the stage/pass
//!   geometry that makes ActiveRMT programs position-sensitive, and the
//!   one forward sweep every forward analysis runs;
//! * `domain` — the interval × known-bits abstract domain with value
//!   provenance (argument / hash / memory origins);
//! * `dataflow` — the one abstract semantics (the register-effect table
//!   and the transfer function) and the dataflow analyses over it:
//!   liveness, reaching definitions, and value propagation;
//! * `verify` — the bounds checks, termination pass and witness search
//!   around that transfer function;
//! * `lint` — allocation-independent diagnostics (use-before-def,
//!   dead stores, unreachable code, unguarded hashed addressing,
//!   redundant copies, provably-constant writes), each read off a
//!   dataflow fact;
//! * `equiv` — mutant padding and NOP-equivalence checking;
//! * `sim` — the concrete simulator that confirms the verifier's
//!   witnesses; it runs the data plane's own per-stage semantics from
//!   `activermt-rmt`, so this crate stays below `activermt-core` in the
//!   dependency graph.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod cfg;
mod dataflow;
mod domain;
mod equiv;
mod lint;
mod sim;
mod verify;

pub use equiv::{check_mutant_equivalence, pad_to_positions};
pub use lint::lint;
pub use verify::{
    verify, AnalysisContext, ArgAssumption, Assumptions, Finding, FindingKind, Report, Severity,
    Witness, WitnessEffect,
};
