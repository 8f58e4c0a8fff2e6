#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # activermt-rmt
//!
//! A functional simulator of an RMT (Tofino-like) switch pipeline — the
//! hardware substrate the ActiveRMT runtime executes on.
//!
//! The paper's prototype runs on a Wedge100BF-65X built around an Intel
//! Tofino ASIC. That hardware is not available here, so this crate
//! implements the architectural contract the paper's design depends on
//! (see DESIGN.md for the substitution argument):
//!
//! * a pipeline of *logical match-action stages* (default 20: 10 ingress +
//!   10 egress) traversed strictly in order ([`pipeline`]);
//! * per-stage *stateful register memory*, each stage's array accessible
//!   **at most once per packet per pass** through one of a small set of
//!   stateful-ALU micro-programs ([`register`]);
//! * per-packet state confined to the packet header vector ([`phv`]);
//! * match tables with TCAM (range match, used for memory protection) and
//!   SRAM (exact match, used for instruction decode) resource accounting
//!   ([`tcam`], [`sram`]);
//! * CRC-based hash primitives with per-stage seeds ([`hash`]);
//! * a traffic manager responsible for recirculation, cloning and
//!   return-to-sender turnaround ([`traffic`]);
//! * a static model of stage-resource consumption used for the Section 5
//!   overhead comparison ([`resources`]);
//! * what one stage does to one PHV — the per-opcode semantics and the
//!   protection entry they check — and the pass loop around it
//!   ([`step`]), shared by the runtime in `activermt-core` and the
//!   simulator in `activermt-analysis`.
//!
//! The runtime drives this substrate the way the paper's P4 program
//! drives the Tofino: it owns the FID's tables and the packet, and hands
//! both to [`step::run_passes`], which runs [`step::step`] once per
//! stage and asks the runtime before every recirculation.

pub mod hash;
pub mod phv;
pub mod pipeline;
pub mod register;
pub mod resources;
pub mod sram;
pub mod step;
pub mod tcam;
pub mod traffic;

pub use phv::Phv;
pub use pipeline::{Pipeline, PipelineConfig, Stage, StageStats};
pub use register::{RegisterArray, SaluOp, SaluResult};
pub use step::{
    entry_stage, run_passes, step, PassHost, PassRun, ProtEntry, SparseRegisters, StageEvent,
    StageRegisters,
};
pub use tcam::{range_prefix_count, Tcam};
pub use traffic::TrafficManager;
