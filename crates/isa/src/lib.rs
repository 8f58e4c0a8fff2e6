#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # activermt-isa
//!
//! The ActiveRMT instruction set architecture and wire formats.
//!
//! This crate defines everything two endpoints of an ActiveRMT deployment
//! must agree on *without* reference to any particular switch or client
//! implementation:
//!
//! * the [instruction set](opcode) from Appendix A of the paper
//!   (data copying, data manipulation, control flow, memory access,
//!   packet forwarding and special instructions),
//! * the 2-byte [instruction encoding](instr) (opcode byte + flag byte),
//! * assembled [programs](program) with label resolution and validation,
//! * the [wire formats](wire) of active packets: the 10-byte initial
//!   header, 16-byte argument header, per-instruction headers, the
//!   24-byte allocation-request header and the 160-byte
//!   allocation-response header, all carried in an Ethernet-like L2
//!   encapsulation (the paper uses a special VLAN tag; we use a dedicated
//!   EtherType).
//!
//! Wire formats follow the smoltcp idiom: typed, bounds-checked views over
//! byte slices (`Packet<T: AsRef<[u8]>>`), with no intermediate copies.
//!
//! ## Naming convention for copy instructions
//!
//! The paper's Appendix A.1 prose is internally inconsistent about operand
//! order (e.g. it describes `COPY_MBR2_MBR` as copying MBR2 into MBR, while
//! Listing 2 uses the same mnemonic to save MBR *into* MBR2). We adopt the
//! interpretation consistent with every program listing in the paper:
//! **destination first** — `COPY_X_Y` means `X <- Y`.

pub mod constants;
pub mod error;
pub mod instr;
pub mod opcode;
pub mod program;
pub mod wire;

pub use error::{Error, Result};
pub use instr::{next_access_distance, InstrFlags, Instruction};
pub use opcode::{Opcode, OpcodeClass, OperandKind};
pub use program::{Program, ProgramBuilder};
