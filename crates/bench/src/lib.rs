// `deny`, not `forbid`: the one sanctioned unsafe block in the
// workspace lives in [`hotpath`] (a counting `GlobalAlloc` shim) and
// carries an item-level `#[allow(unsafe_code)]`; every other crate is
// `#![forbid(unsafe_code)]`.
#![deny(unsafe_code)]

//! # activermt-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (Section 6). One binary per figure under `src/bin/`
//! (`fig5a` … `fig12`, `tab_mutants`, `tab_resources`, `tab_deploy`),
//! plus the fixtures of the zero-allocation gate in [`hotpath`]. Timing
//! is not measured here: the repo's one benchmark is `benchmark/`
//! (`bash benchmark/run.sh`).
//!
//! Each binary prints CSV series to stdout and mirrors them into
//! `results/`. Absolute numbers are not expected to match the paper
//! (our allocator is Rust, not Python; our switch is a simulator, not a
//! Tofino) — the reproduced quantities are the *shapes*: failure
//! onsets, convergence levels, orderings and crossovers. EXPERIMENTS.md
//! records the comparison.

pub mod csvout;
pub mod hotpath;
pub mod patterns;
pub mod scenarios;

pub use patterns::{pattern_of, AppKind};
pub use scenarios::{churn, mixed_arrivals, pure_arrivals, ChurnConfig, ChurnRecord, EpochRecord};
