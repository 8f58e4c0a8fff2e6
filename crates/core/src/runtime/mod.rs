//! The shared data-plane runtime (Section 3).
//!
//! This is the Rust analogue of the paper's ~10K-line P4 program: a
//! single pre-installed interpreter that every active packet programs at
//! runtime. It parses active headers, enforces per-FID memory
//! protection, executes one instruction per logical stage (recirculating
//! long programs), and hands forwarding verdicts to the traffic manager.
//!
//! * [`protect`] — the per-(FID, stage) protection/translation tables
//!   the controller installs at allocation time;
//! * [`exec`] — the pass/recirculation loop and packet rewriting; it
//!   runs each instruction through `activermt_rmt::step`, the
//!   per-instruction semantics shared with the analysis simulator;
//! * [`decode_cache`] — the `(fid, bytes-hash) → decoded program` memo
//!   and fixed-size decode scratch behind the zero-alloc hot path;
//! * [`reference`] — the uncached decode-every-frame path kept for
//!   differential testing and speedup measurement;
//! * [`plane`] — the [`DataPlane`] trait: the control-plane hooks the
//!   controller drives, so a single runtime and the worker pool are
//!   interchangeable behind it;
//! * [`parallel`] — the shard-by-FID batched worker pool
//!   ([`ShardedExecutor`]).

pub mod decode_cache;
pub mod exec;
pub mod parallel;
pub mod plane;
pub mod protect;
pub mod recirc;
pub mod reference;

pub use decode_cache::{DecodeCache, DecodeCacheStats, MAX_INSTRS};
pub use exec::{
    FidPacketStats, FrameBatch, FrameJob, OutputAction, RuntimeStats, SwitchOutput, SwitchRuntime,
    TaggedOutput,
};
pub use parallel::{ShardedExecutor, WorkerStats, DEFAULT_BATCH_FRAMES};
pub use plane::DataPlane;
pub use protect::{ProtEntry, ProtSlot, ProtectionTables};
pub use recirc::RecircLimiter;
