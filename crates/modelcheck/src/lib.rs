//! Control-plane model checking for the ActiveRMT reproduction.
//!
//! ActiveRMT's memory manager (SIGCOMM '23, §4–§5) makes two promises
//! that no amount of data-plane testing can establish on its own:
//! *isolation* (an application can never read or write another's
//! memory, enforced by per-stage protection entries derived from its
//! grant) and *safe reallocation* (the snapshot → move → reactivate
//! protocol never loses memory, strands an application quiesced, or
//! leaves a stale fast-path mapping). This crate turns those promises
//! into machine-checked invariants:
//!
//! - [`invariants`] — a reusable engine, [`check_invariants`], that
//!   audits any `(Controller, SwitchRuntime)` pair for nine structural
//!   safety properties (I1–I9). It is shared by the bounded explorer,
//!   the chaos end-to-end test, the observability dump, property
//!   tests, and a debug-build hook inside the controller's own poll
//!   loop.
//! - [`recovery`] — crash-recovery invariants (I10–I12):
//!   [`check_recovery`] compares a controller rebuilt from its op-log
//!   against the pre-crash [`RecoveryFingerprint`] (replay
//!   equivalence, grant continuity, post-reconciliation liveness).
//! - [`fabric`] — fabric-level invariants (F1–F3):
//!   [`check_fabric_invariants`] audits a whole multi-switch
//!   deployment for placement uniqueness, migration state
//!   preservation, and per-member structural soundness.
//! - [`model`] — a small-scope [`World`]: the *real* controller and
//!   runtime driven through their public entry points, with an
//!   explicit in-flight-signal channel and a bounded fault budget
//!   (drops, duplicates, stalls, crash/recover cycles, corruptions).
//! - [`fabric_world`] — the fabric-scope [`FabricWorld`]: a *real*
//!   [`Federation`](activermt_fabric::Federation) over a clockless,
//!   clonable multi-switch substrate, exposing placement, every
//!   migration micro-step, federation/member crashes, and
//!   data-network faults on replay frames as explorable transitions;
//!   stages the temporal fabric invariants F4–F6.
//! - [`explore`] — breadth-first bounded exploration, generic over
//!   [`ModelWorld`], with canonical state fingerprinting; finds
//!   minimal counterexample traces.
//!
//! The `modelcheck` binary (this crate) runs the explorer from the
//! command line — `--scope small|medium` for one switch, `--scope
//! fabric|fabric-medium` for a federation. CI runs both with
//! `--deny-violations` and diffs the small-scope report
//! (`results/modelcheck.md`), the medium-scope one
//! (`results/modelcheck_medium.md`) and the fabric-scope one
//! (`results/modelcheck_fabric.md`) against the committed copies.
//! Mutation tests seed known bugs ([`Mutation`] single-switch,
//! [`FabricBug`](activermt_fabric::FabricBug) fabric-scope) and
//! require the checker to catch every one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod fabric;
pub mod fabric_world;
pub mod invariants;
pub mod model;
pub mod recovery;

pub use explore::{
    explore, render_fabric_report, render_report, render_trace, Counterexample, ExploreConfig,
    ExploreOutcome, ExploreStats, ModelWorld,
};
pub use fabric::{check_fabric_invariants, FabricMemberView, MigrationAudit};
pub use fabric_world::{FabricAppSpec, FabricEvent, FabricScope, FabricWorld, ModelFabric};
pub use invariants::{
    check_invariants, check_invariants_assuming, report_violations, InvariantKind,
    TrafficAssumption, Violation,
};
pub use model::{AppSpec, Event, FaultBudget, Msg, Mutation, Scope, World};
pub use recovery::{check_recovery, RecoveryFingerprint};
