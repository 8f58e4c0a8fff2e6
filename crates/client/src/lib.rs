#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # activermt-client
//!
//! Client-side support for ActiveRMT: everything a host needs to turn an
//! application into active packets (Sections 3.3 and 5).
//!
//! * [`asm`] — an assembler for the mnemonic syntax the paper's listings
//!   use, so services can be written as plain text;
//! * [`compiler`] — the "client compiler" of Section 5: computes memory
//!   access indices and ingress constraints for allocation requests, and
//!   pads the compact program into the mutant the allocator chose.
//!   Direct addresses are linked by the application that sends them
//!   (`CacheApp::get_frame` in `activermt-apps` adds its grant's start);
//! * [`shim`] — the shim-layer state machine (operational / negotiating
//!   / memory-management) that activates outgoing packets and reacts to
//!   controller signalling;
//! * [`memsync`] — the RDMA-style primitives of Appendix C: batched
//!   remote reads/writes of switch memory with RTS acknowledgement and
//!   idempotent retransmission, used for snapshot extraction and cache
//!   population.

pub mod asm;
pub mod compiler;
pub mod disasm;
pub mod memsync;
pub mod shim;

pub use asm::assemble;
pub use compiler::{CompiledService, Compiler, ServiceSpec};
pub use disasm::disassemble;
pub use memsync::{MemSync, SyncOp};
pub use shim::{Shim, ShimEvent, ShimState};
