//! The switch control plane (Section 4.3).
//!
//! "When a switch receives such a request, it communicates the
//! information encoded in the packet to the switch controller running
//! on the switch CPU ... The controller serializes requests to ensure
//! applications are admitted one at a time."
//!
//! The [`Controller`] owns the [`Allocator`] and drives the
//! reallocation protocol against the data-plane [`SwitchRuntime`]:
//!
//! 1. a request arrives; if a reallocation is in flight it is queued;
//! 2. the allocator computes an outcome (measured compute time);
//! 3. victims are *deactivated* and notified; the controller waits for
//!    their snapshot-complete signals (or times them out);
//! 4. tables are updated (modeled cost), victims reactivated with their
//!    new regions, and the requester receives its allocation response.
//!
//! The data plane is written in one place. The controller's state is
//! the intent: `regions` holds each granted FID's per-stage regions,
//! flipped from the allocator's placements only when a FID's tables
//! flip (a round's end, a departure's regrowth, a verify rollback), and
//! the quiesced set is the in-flight round's victims plus the FIDs
//! migrating out. Handlers edit that state and call `converge` on the
//! FIDs they touched, which diffs protection entries and quiesce flags
//! against the intent and applies only the difference. Crash recovery
//! (`reconcile`) is the same `converge` over every FID. The modelled
//! table-update cost is priced from the intent change (old entries
//! plus new ones), not from the writes `converge` happens to make.
//! Zeroing a newcomer's fresh ranges stays an explicit admission step.
//!
//! What the controller still owes its clients is one ledger, `owed`: a
//! Deactivate for each victim of the in-flight round that has not
//! snapshot-completed and for each migration whose quiesce is
//! unacknowledged, and a Respond+Reactivate pair for each FID told to
//! resume that has not acknowledged it. Each entry carries the fence its
//! acknowledgement must echo; an acknowledgement with another fence is
//! stale, counted and journaled in one place. `poll` re-sends what has
//! waited an interval and abandons a Reactivate whose retry budget is
//! spent; `reconcile` re-sends all of it after a crash.
//!
//! All externally visible effects are returned as timestamped
//! [`ControllerAction`]s so a discrete-event harness can deliver them
//! at the right virtual time.

pub mod tables;

pub use tables::{CostModel, ProvisioningReport};

use crate::alloc::{
    AccessPattern, AllocOutcome, Allocator, AllocatorConfig, CacheKey, MutantCache, MutantPolicy,
    Scheme, DEFAULT_CACHE_CAPACITY,
};
use crate::config::SwitchConfig;
use crate::error::CoreError;
use crate::oplog::{OpLog, OpRecord};
use crate::runtime::{DataPlane, ProtEntry, SwitchRuntime};
use crate::types::Fid;
use activermt_analysis::{
    check_mutant_equivalence, pad_to_positions, verify, AnalysisContext, Assumptions, FindingKind,
};
use activermt_isa::wire::RegionEntry;
use activermt_isa::Program;
use activermt_telemetry::{
    Counter, EventKind, Histogram, Journal, RepairKind, Telemetry, VerifyRejectReason,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A timestamped control-plane effect for the surrounding harness.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerAction {
    /// Deliver an allocation response (initial grant, updated regions
    /// after a reallocation, or a failure notification).
    Respond {
        /// Destination application.
        fid: Fid,
        /// Per-stage register regions (empty on failure).
        regions: Vec<(usize, RegionEntry)>,
        /// No feasible allocation existed.
        failed: bool,
        /// Virtual time at which the response leaves the switch.
        at_ns: u64,
    },
    /// Tell a victim its packets are quiesced and it should snapshot.
    Deactivate {
        /// The victim.
        fid: Fid,
        /// Virtual send time.
        at_ns: u64,
        /// Fence token the victim must echo in its SnapshotComplete
        /// (stamped into the wire `seq` field; see
        /// [`Controller::handle_snapshot_complete_fenced`]).
        fence: u16,
    },
    /// Tell a victim processing has resumed on its new regions.
    Reactivate {
        /// The victim.
        fid: Fid,
        /// Virtual send time.
        at_ns: u64,
        /// Fence token the victim must echo in its ReactivateAck.
        fence: u16,
    },
    /// A provisioning event completed (for the Figure 8a harness).
    Report(ProvisioningReport),
}

/// A deliberately seeded controller bug, used *only* to mutation-test
/// the invariant engine in `activermt-modelcheck`: each variant
/// re-introduces a class of control-plane fault the checker must catch
/// with a counterexample trace. Injection is test-only plumbing; no
/// production path ever sets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// `converge` installs each protection entry one block wider than
    /// the intent's region (isolation breach / coverage drift).
    OverlappingGrant,
    /// `converge` skips the removal of a departed FID's first-stage
    /// protection entry (leaked table entry).
    DeallocLeaksEntry,
    /// A verify-rejection skips the rollback release: the blocks stay
    /// booked to a FID that was answered "failed" (lost blocks).
    RollbackLeak,
    /// `converge` never resumes a quiesced FID: a round's victims are
    /// answered and tracked but stay quiesced in the data plane
    /// (ack-less reactivation: stuck FIDs).
    AckLessReactivation,
    /// The write-ahead discipline is inverted: each op-log record is
    /// held back until the *next* transition commits, so a crash loses
    /// the last applied transition and replay rebuilds a stale state
    /// (the classic log-write-after-action bug).
    LogAfterAction,
}

/// Minimum spacing between re-sends of an owed signal, ns.
const RESEND_INTERVAL_NS: u64 = 500_000;

/// Re-sends of a Reactivate before its client is declared unreachable
/// (counted and logged, not silent).
const MAX_RESENDS: u32 = 50;

/// A control signal the controller owes a client until the client
/// acknowledges it. Deactivates order first: re-sends go out as every
/// Deactivate, then every Respond+Reactivate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Signal {
    /// Quiesce and snapshot; acknowledged by a SnapshotComplete.
    Deactivate,
    /// Resume on the regions just told; acknowledged by a ReactivateAck.
    Reactivate,
}

impl Signal {
    fn action(self, fid: Fid, at_ns: u64, fence: u16) -> ControllerAction {
        match self {
            Signal::Deactivate => ControllerAction::Deactivate { fid, at_ns, fence },
            Signal::Reactivate => ControllerAction::Reactivate { fid, at_ns, fence },
        }
    }
}

/// The re-send state of one owed signal.
#[derive(Debug, Clone)]
struct Owed {
    /// Fence token the acknowledgement must echo.
    fence: u16,
    /// Last (re-)send time.
    last_ns: u64,
    /// Re-sends so far; the budget binds Reactivates only.
    attempts: u32,
}

#[derive(Debug, Clone)]
struct PendingRealloc {
    outcome: AllocOutcome,
    started_ns: u64,
    deadline_ns: u64,
    alloc_compute_ns: u64,
    snapshot_regs: u64,
    snapshot_stages: usize,
    /// Fence token stamped into this round's signals; a SnapshotComplete
    /// must echo it or be rejected as stale.
    fence: u16,
}

#[derive(Debug, Clone)]
struct QueuedRequest {
    fid: Fid,
    pattern: AccessPattern,
    policy: MutantPolicy,
    program: Option<Program>,
}

/// A FID quiesced on this switch while the fabric moves it elsewhere.
/// It stays granted (and deactivated) here until the fabric either
/// deallocates it post-cutover or aborts the migration.
#[derive(Debug, Clone)]
struct MigrationOut {
    /// Fabric-assigned destination switch index (bookkeeping only —
    /// this controller never talks to the destination directly).
    dest: u16,
    /// Fence token the client's snapshot-complete must echo. Kept after
    /// the ack, so a later completion with another fence is still stale.
    fence: u16,
}

/// Per-FID static-verification tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Programs that passed verification at admission.
    pub accepted: u64,
    /// Programs rejected (and their grants rolled back).
    pub rejected: u64,
}

/// What the post-recovery reconciliation pass repaired, by kind.
/// Accumulates across recoveries of the same controller lineage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Protection-table entries re-installed (missing or divergent).
    pub reinstalled_entries: u64,
    /// Orphaned protection-table entries removed.
    pub scrubbed_entries: u64,
    /// Orphaned decode-cache residents flushed.
    pub scrubbed_decode: u64,
    /// In-flight victims re-quiesced in the data plane.
    pub requiesced: u64,
    /// FIDs found quiesced with no reallocation to blame, resumed.
    pub reactivated_strays: u64,
    /// Deactivate / Respond+Reactivate signals re-issued.
    pub resent_signals: u64,
}

impl RecoveryStats {
    /// Total repairs across all kinds.
    pub fn total(&self) -> u64 {
        self.reinstalled_entries
            + self.scrubbed_entries
            + self.scrubbed_decode
            + self.requiesced
            + self.reactivated_strays
            + self.resent_signals
    }
}

/// What one [`Controller::converge`] changed in the data plane, by
/// kind, one element per change, in the order it was applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Converged {
    /// A protection entry removed: the intent holds no region there.
    removed: Vec<Fid>,
    /// A protection entry installed: missing or divergent.
    installed: Vec<Fid>,
    /// Quiesced: the intent has the FID quiesced, the switch had not.
    quiesced: Vec<Fid>,
    /// Resumed: quiesced on the switch with nothing to account for it.
    resumed: Vec<Fid>,
    /// TCAM entries the removals and installs touched.
    tcam_entries: usize,
}

/// The ActiveRMT switch controller.
#[derive(Debug)]
pub struct Controller {
    allocator: Allocator,
    cost: CostModel,
    pending: Option<PendingRealloc>,
    queue: VecDeque<QueuedRequest>,
    /// The table intent: each granted FID's per-stage regions, in
    /// register space. Written from the allocator only when a FID's
    /// tables flip (so a round's victims keep their old regions until
    /// their snapshot is complete), and applied by
    /// [`Controller::converge`].
    regions: BTreeMap<Fid, Vec<(usize, RegionEntry)>>,
    /// Every signal owed a client until its fenced ack arrives, keyed
    /// by kind, then FID (see the module doc).
    owed: BTreeMap<(Signal, Fid), Owed>,
    /// FIDs quiesced here for live cross-switch migration (fabric
    /// layer). New admissions queue behind them exactly as behind a
    /// pending reallocation: both mutate the same placement state.
    migrating_out: BTreeMap<Fid, MigrationOut>,
    duplicate_requests: u64,
    resent_signals: u64,
    abandoned_reactivations: u64,
    /// Pipeline geometry for the static verifier.
    num_stages: usize,
    ingress_stages: usize,
    max_recirculations: Option<u8>,
    /// Switch-wide static-verification counters (registered with the
    /// telemetry hub when bound).
    verify_accepted: Counter,
    verify_rejected: Counter,
    /// Legacy no-bytecode admissions that bypassed the verifier: not an
    /// error, but observable — an unverified grant should never be
    /// silent.
    verify_skipped: Counter,
    /// Testing-only seeded fault (mutation tests for the invariant
    /// engine); `None` everywhere outside those tests.
    seeded_bug: Option<SeededBug>,
    /// Per-FID verification tallies, for the snapshot's FID rows.
    verify_stats: BTreeMap<Fid, VerifyStats>,
    /// Structured control-plane events (admissions, reallocations,
    /// snapshot completions, departures). `None` until telemetry is
    /// bound; the data path never touches it.
    journal: Option<Journal>,
    /// End-to-end reallocation latency per admission, ns.
    realloc_total_ns: Histogram,
    /// Modeled table-update time per admission, ns.
    table_update_ns: Histogram,
    /// The write-ahead op-log; `None` until attached (tests and the
    /// model checker's clean worlds run without one).
    oplog: Option<OpLog>,
    /// Controller generation: 0 for a fresh boot, bumped by every
    /// [`Controller::recover`].
    epoch: u32,
    /// Monotone fence-token source; each reallocation round takes the
    /// next value and stamps it into its signals.
    fence: u16,
    /// [`SeededBug::LogAfterAction`] plumbing: the record held back
    /// until the next transition commits (lost on crash — the bug).
    deferred_record: Option<OpRecord>,
    /// Stale-fence SnapshotComplete / ReactivateAck messages rejected.
    stale_rejects: Counter,
    /// Completed crash recoveries in this controller lineage.
    recoveries: Counter,
    /// Total reconciliation repairs (see [`RecoveryStats`]).
    repairs: Counter,
    /// Repair breakdown by kind.
    recovery_stats: RecoveryStats,
    /// Modeled recovery latency (replay + reconciliation), ns.
    recovery_ns: Histogram,
    /// Accepted static-verification verdicts, memoized by (program
    /// digest, mutant positions, granted-region geometry). Soft state:
    /// a hit skips re-running the padding, equivalence, and abstract
    /// interpretation for a combination already proven safe. Only
    /// acceptances are cached: a rejection's reason always comes from
    /// a fresh proof.
    verify_cache: MutantCache<()>,
    /// Verify-cache accounting: hits + misses = verified admissions.
    optimizer_cache_hits: Counter,
    optimizer_cache_misses: Counter,
}

/// `Clone` supports the model checker's state-space exploration: the
/// explorer forks a controller per transition. Metric cells detach
/// (deep-copy, like the allocator's accounting) so a branch state never
/// feeds the original's registry; the journal handle — whose own
/// `Clone` shares the ring by design — is dropped instead, because a
/// thousand explored branches interleaving events into one ring would
/// make it meaningless.
impl Clone for Controller {
    fn clone(&self) -> Controller {
        Controller {
            allocator: self.allocator.clone(),
            cost: self.cost,
            pending: self.pending.clone(),
            queue: self.queue.clone(),
            regions: self.regions.clone(),
            owed: self.owed.clone(),
            migrating_out: self.migrating_out.clone(),
            duplicate_requests: self.duplicate_requests,
            resent_signals: self.resent_signals,
            abandoned_reactivations: self.abandoned_reactivations,
            num_stages: self.num_stages,
            ingress_stages: self.ingress_stages,
            max_recirculations: self.max_recirculations,
            verify_accepted: self.verify_accepted.detached_copy(),
            verify_rejected: self.verify_rejected.detached_copy(),
            verify_skipped: self.verify_skipped.detached_copy(),
            seeded_bug: self.seeded_bug,
            verify_stats: self.verify_stats.clone(),
            journal: None,
            realloc_total_ns: self.realloc_total_ns.detached_copy(),
            table_update_ns: self.table_update_ns.detached_copy(),
            // Unlike the journal, the op-log must survive the fork with
            // its contents — a branch that crashes replays *its own*
            // history — so it deep-copies instead of being dropped.
            oplog: self.oplog.as_ref().map(OpLog::deep_clone),
            epoch: self.epoch,
            fence: self.fence,
            deferred_record: self.deferred_record.clone(),
            stale_rejects: self.stale_rejects.detached_copy(),
            recoveries: self.recoveries.detached_copy(),
            repairs: self.repairs.detached_copy(),
            recovery_stats: self.recovery_stats,
            recovery_ns: self.recovery_ns.detached_copy(),
            // The verdict memo is sound across forks (verdicts are
            // deterministic in the key), so branches keep the warm
            // cache.
            verify_cache: self.verify_cache.clone(),
            optimizer_cache_hits: self.optimizer_cache_hits.detached_copy(),
            optimizer_cache_misses: self.optimizer_cache_misses.detached_copy(),
        }
    }
}

impl Controller {
    /// Build a controller for a switch with the given scheme.
    pub fn new(cfg: &SwitchConfig, scheme: Scheme) -> Controller {
        Controller {
            allocator: Allocator::new(AllocatorConfig::from_switch(cfg, scheme)),
            cost: CostModel::from_config(cfg),
            pending: None,
            queue: VecDeque::new(),
            regions: BTreeMap::new(),
            owed: BTreeMap::new(),
            migrating_out: BTreeMap::new(),
            duplicate_requests: 0,
            resent_signals: 0,
            abandoned_reactivations: 0,
            num_stages: cfg.num_stages,
            ingress_stages: cfg.ingress_stages,
            max_recirculations: cfg.max_recirculations,
            verify_accepted: Counter::new(),
            verify_rejected: Counter::new(),
            verify_skipped: Counter::new(),
            seeded_bug: None,
            verify_stats: BTreeMap::new(),
            journal: None,
            realloc_total_ns: Histogram::new(),
            table_update_ns: Histogram::new(),
            oplog: None,
            epoch: 0,
            fence: 0,
            deferred_record: None,
            stale_rejects: Counter::new(),
            recoveries: Counter::new(),
            repairs: Counter::new(),
            recovery_stats: RecoveryStats::default(),
            recovery_ns: Histogram::new(),
            verify_cache: MutantCache::new(DEFAULT_CACHE_CAPACITY),
            optimizer_cache_hits: Counter::new(),
            optimizer_cache_misses: Counter::new(),
        }
    }

    /// Build a controller whose allocator accounting, provisioning
    /// histograms, and event journal all feed the given telemetry hub.
    pub fn with_telemetry(cfg: &SwitchConfig, scheme: Scheme, telemetry: &Telemetry) -> Controller {
        let mut c = Controller::new(cfg, scheme);
        c.bind_telemetry(telemetry);
        c
    }

    /// Adopt this controller's metrics into `telemetry`'s registry and
    /// route structured control-plane events to its journal. Safe to
    /// call on a controller built with [`Controller::new`].
    pub fn bind_telemetry(&mut self, telemetry: &Telemetry) {
        self.allocator.bind_telemetry(telemetry);
        let reg = telemetry.registry();
        reg.register_histogram("controller.realloc_total_ns", &self.realloc_total_ns);
        reg.register_histogram("controller.table_update_ns", &self.table_update_ns);
        reg.register_counter("controller.verify_accepted", &self.verify_accepted);
        reg.register_counter("controller.verify_rejected", &self.verify_rejected);
        reg.register_counter("controller.verify_skipped", &self.verify_skipped);
        reg.register_counter(
            "controller.optimizer.cache_hits",
            &self.optimizer_cache_hits,
        );
        reg.register_counter(
            "controller.optimizer.cache_misses",
            &self.optimizer_cache_misses,
        );
        reg.register_counter("controller.stale_epoch_rejects", &self.stale_rejects);
        reg.register_counter("controller.recoveries", &self.recoveries);
        reg.register_counter("controller.repairs", &self.repairs);
        reg.register_histogram("controller.recovery_ns", &self.recovery_ns);
        self.journal = Some(telemetry.journal().clone());
    }

    fn journal_event(&self, at_ns: u64, kind: EventKind) {
        if let Some(j) = &self.journal {
            j.record(at_ns, kind);
        }
    }

    /// Commit a transition to the write-ahead log. Called at each entry
    /// point before the transition's actions are handed back to the
    /// transport, so the log is always at least as new as anything the
    /// outside world has seen. Under [`SeededBug::LogAfterAction`] the
    /// record is instead held until the *next* transition commits —
    /// the ordering bug the model checker's mutation test must refute.
    fn log_record(&mut self, record: OpRecord) {
        let Some(log) = &self.oplog else {
            return;
        };
        if self.has_bug(SeededBug::LogAfterAction) {
            if let Some(prev) = self.deferred_record.replace(record) {
                log.append(prev);
            }
        } else {
            log.append(record);
        }
    }

    /// Attach a write-ahead log; every subsequent transition commits a
    /// record into it. Idiomatically the harness keeps a shared handle
    /// (the log *is* the stable storage) and rebuilds a crashed
    /// controller from it with [`Controller::recover`].
    pub fn attach_oplog(&mut self, log: OpLog) {
        self.oplog = Some(log);
    }

    /// The attached write-ahead log, if any.
    pub fn oplog(&self) -> Option<&OpLog> {
        self.oplog.as_ref()
    }

    /// Controller generation: 0 from a fresh boot, +1 per recovery.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The fence token the in-flight reallocation's signals carry (the
    /// value victims must echo), if a round is pending.
    pub fn pending_fence(&self) -> Option<u16> {
        self.pending.as_ref().map(|p| p.fence)
    }

    /// The fence token `fid`'s pending reactivation carries, if any.
    pub fn unacked_fence(&self, fid: Fid) -> Option<u16> {
        self.owed_fence(Signal::Reactivate, fid)
    }

    /// Stale-fence control messages rejected.
    pub fn stale_epoch_rejects(&self) -> u64 {
        self.stale_rejects.get()
    }

    /// Completed crash recoveries in this controller lineage.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// Reconciliation repair breakdown (accumulated across recoveries).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// The allocator state (metrics, tests).
    pub fn allocator(&self) -> &Allocator {
        &self.allocator
    }

    /// Is a reallocation protocol in flight?
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Queued requests awaiting serialization.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Duplicate allocation requests answered idempotently.
    pub fn duplicate_requests(&self) -> u64 {
        self.duplicate_requests
    }

    /// Deactivate/Reactivate signals re-sent on poll.
    pub fn resent_signals(&self) -> u64 {
        self.resent_signals
    }

    /// Victims whose reactivation retry budget ran out.
    pub fn abandoned_reactivations(&self) -> u64 {
        self.abandoned_reactivations
    }

    /// Victims still owed a ReactivateAck.
    pub fn unacked_reactivations(&self) -> usize {
        self.owed_fids(Signal::Reactivate).count()
    }

    /// The FIDs still owed a ReactivateAck, sorted.
    pub fn unacked_fids(&self) -> Vec<Fid> {
        self.owed_fids(Signal::Reactivate).collect()
    }

    /// The in-flight requester, if a reallocation is pending.
    pub fn pending_fid(&self) -> Option<Fid> {
        self.pending.as_ref().map(|p| p.outcome.fid)
    }

    /// Every victim of the in-flight reallocation (snapshot-completed
    /// or not), sorted. Empty when idle.
    pub fn pending_victims(&self) -> Vec<Fid> {
        self.pending
            .as_ref()
            .map(|p| p.outcome.victims_by_fid().keys().copied().collect())
            .unwrap_or_default()
    }

    /// Victims of the in-flight reallocation whose snapshot-complete
    /// has not arrived yet, sorted. Empty when idle.
    pub fn pending_waiting(&self) -> Vec<Fid> {
        // A round and a migration never overlap (each holds the
        // admission lock), so while a round is pending every owed
        // Deactivate is one of its victims.
        match self.pending {
            Some(_) => self.owed_fids(Signal::Deactivate).collect(),
            None => Vec::new(),
        }
    }

    /// FIDs of queued (serialized) requests, in arrival order.
    pub fn queued_fids(&self) -> Vec<Fid> {
        self.queue.iter().map(|q| q.fid).collect()
    }

    /// The in-flight reallocation's snapshot deadline, if any (the
    /// model checker's stall transition jumps virtual time here to
    /// force the timeout path).
    pub fn pending_deadline_ns(&self) -> Option<u64> {
        self.pending.as_ref().map(|p| p.deadline_ns)
    }

    /// The per-app regions the controller last pushed to the tables
    /// (what each client was *told*), in FID order.
    pub fn granted_regions(&self) -> impl Iterator<Item = (Fid, &[(usize, RegionEntry)])> {
        self.regions.iter().map(|(&f, r)| (f, r.as_slice()))
    }

    /// The regions last pushed for one FID, if it is granted.
    pub fn regions_of(&self, fid: Fid) -> Option<&[(usize, RegionEntry)]> {
        self.regions.get(&fid).map(Vec::as_slice)
    }

    /// FIDs currently quiesced here for cross-switch migration, sorted.
    pub fn migrating_fids(&self) -> Vec<Fid> {
        self.migrating_out.keys().copied().collect()
    }

    /// Has the migrating FID's client acknowledged the quiesce (a
    /// snapshot-complete echoing the migration's fence)?
    pub fn migration_snapshot_acked(&self, fid: Fid) -> bool {
        self.migrating_out.contains_key(&fid) && self.owed_fence(Signal::Deactivate, fid).is_none()
    }

    /// The fabric-assigned destination recorded when `fid`'s migration
    /// started, if one is in flight.
    pub fn migration_dest(&self, fid: Fid) -> Option<u16> {
        self.migrating_out.get(&fid).map(|m| m.dest)
    }

    /// Testing-only: seed a controller bug for the model checker's
    /// mutation tests (see [`SeededBug`]). Also disables the
    /// debug-assertions invariant hook in [`Controller::poll`], whose
    /// job the full engine takes over in those tests.
    #[doc(hidden)]
    pub fn inject_seeded_bug(&mut self, bug: SeededBug) {
        self.seeded_bug = Some(bug);
    }

    fn has_bug(&self, bug: SeededBug) -> bool {
        self.seeded_bug == Some(bug)
    }

    /// Handle an allocation request (Section 4.3). Returns the actions
    /// to deliver. Requests carrying no program bytecode (the legacy
    /// wire format) are admitted on access-pattern evidence alone; see
    /// [`Controller::handle_request_with_program`] for the verified
    /// path.
    pub fn handle_request(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        pattern: AccessPattern,
        policy: MutantPolicy,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        self.handle_request_with_program(runtime, fid, pattern, policy, None, now_ns)
    }

    /// Handle an allocation request whose packet also carried the
    /// compact program bytecode. After the allocator finds a placement
    /// — but before any victim is disturbed or a grant is sent — the
    /// static verifier checks the NOP-padded mutant against the chosen
    /// regions; a failing program has its grant rolled back and the
    /// request is answered as failed.
    pub fn handle_request_with_program(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        pattern: AccessPattern,
        policy: MutantPolicy,
        program: Option<&Program>,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        if self.admission_locked() {
            // A retransmit of the in-flight or an already-queued request
            // is absorbed; the original will be answered when the
            // reallocation finishes. This must be checked BEFORE the
            // admitted-fid fast path: during a reallocation the
            // requester is already committed in the allocator but its
            // regions map entry is only written at finish, so answering
            // early would send an empty (unrealizable) grant.
            let in_flight = self.pending.as_ref().is_some_and(|p| {
                p.outcome.fid == fid || self.owed.contains_key(&(Signal::Deactivate, fid))
            });
            if in_flight || self.queue.iter().any(|q| q.fid == fid) {
                self.duplicate_requests += 1;
                return Vec::new();
            }
        }
        // Duplicate requests are idempotent: an already-admitted app
        // (whose response was presumably lost) gets its current regions
        // re-sent, and its allocation is left untouched. Retransmitting
        // after a timeout is the paper's loss-tolerance story
        // (Section 4.3), so retransmits must never be treated as new
        // admissions.
        if self.allocator.contains(fid) {
            self.duplicate_requests += 1;
            return vec![grant_of(
                &self.regions,
                fid,
                now_ns + self.cost.control_fixed_ns,
            )];
        }
        // Past the duplicate filters this request will change state
        // (queued or admitted): commit it to the op-log first.
        self.log_record(OpRecord::Request {
            fid,
            pattern: pattern.clone(),
            policy,
            program: program.cloned(),
            now_ns,
        });
        if self.admission_locked() {
            // "The controller serializes requests to ensure applications
            // are admitted one at a time." A migration holds the same
            // lock: its placement is committed until cutover/abort.
            self.queue.push_back(QueuedRequest {
                fid,
                pattern,
                policy,
                program: program.cloned(),
            });
            return Vec::new();
        }
        self.start_admission(runtime, fid, pattern, policy, program, now_ns)
    }

    /// A victim acknowledged its reactivation, echoing the fence token
    /// from the Reactivate signal it acted on. An ack fenced to an
    /// older round (or an older controller generation) is rejected: it
    /// acknowledges a reactivation this controller no longer owes.
    pub fn handle_reactivate_ack_fenced(&mut self, fid: Fid, fence: u16, now_ns: u64) {
        // An ack for a FID with nothing outstanding is the normal
        // retransmit tail (the first copy already landed) — not a
        // fencing event.
        let Some(want) = self.owed_fence(Signal::Reactivate, fid) else {
            return;
        };
        if self.fence_matches(fid, fence, want, now_ns) {
            self.log_record(OpRecord::ReactivateAck { fid, now_ns });
            self.owed.remove(&(Signal::Reactivate, fid));
        }
    }

    /// A victim finished extracting state, echoing the fence token from
    /// the Deactivate signal that asked for it. A completion fenced to
    /// an older round is rejected rather than applied: after a
    /// snapshot-timeout force-reactivation (or a crash recovery), the
    /// same FID may be a victim of a *new* round, and counting the old
    /// round's completion against it would release the newcomer's
    /// tables before the victim actually quiesced.
    pub fn handle_snapshot_complete_fenced(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        fence: u16,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        // A migrating FID echoes its migration's fence; anyone else,
        // victim or not, the in-flight round's.
        let want = match (self.migrating_out.get(&fid), &self.pending) {
            (Some(m), _) => m.fence,
            (None, Some(p)) => p.fence,
            (None, None) => return Vec::new(),
        };
        // A completion nothing owes (a duplicate, or from a non-victim)
        // changes nothing.
        if !self.fence_matches(fid, fence, want, now_ns)
            || self.owed.remove(&(Signal::Deactivate, fid)).is_none()
        {
            return Vec::new();
        }
        self.log_record(OpRecord::SnapshotComplete { fid, now_ns });
        self.journal_event(now_ns, EventKind::SnapshotComplete { fid });
        // A migration's ack lets the fabric extract state: there is no
        // round to finish, cutover is the fabric's job. A round ends
        // with its last victim's completion.
        if self.migrating_out.contains_key(&fid)
            || self.owed_fids(Signal::Deactivate).next().is_some()
        {
            return Vec::new();
        }
        let mut acts = self.finish_pending(runtime, now_ns);
        acts.extend(self.drain_queue(runtime, now_ns));
        acts
    }

    /// A client relinquishes its allocation (service departure).
    pub fn handle_deallocate(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        now_ns: u64,
    ) -> Result<Vec<ControllerAction>, CoreError> {
        if self.pending.is_some() {
            // A departure may race the FID's own queued-but-not-started
            // request: purge it so the drain can't resurrect an app
            // that already left. (Without this, the queued request was
            // admitted after the busy period and the departed FID came
            // back as a phantom tenant.)
            if let Some(idx) = self.queue.iter().position(|q| q.fid == fid) {
                self.log_record(OpRecord::Deallocate { fid, now_ns });
                self.queue.remove(idx);
                self.journal_event(now_ns, EventKind::Deallocation { fid });
                return Ok(Vec::new());
            }
            // Other departures during a reallocation would invalidate
            // the computed plan; the client retries after the busy
            // period.
            return Err(CoreError::Busy);
        }
        if !self.allocator.contains(fid) {
            return Err(CoreError::UnknownFid(fid));
        }
        self.log_record(OpRecord::Deallocate { fid, now_ns });
        // The departing FID's per-stage decode entries come out too.
        let decode_entries = self.allocator.app(fid).map_or(0, |a| {
            self.cost.decode_entries_per_stage * usize::from(a.mutant.padded_len)
        });
        let victims = self.allocator.release(fid)?;
        self.journal_event(now_ns, EventKind::Deallocation { fid });
        // Post-cutover teardown: the FID's packets execute on its
        // destination switch now, so the migration's quiesce goes too,
        // and nothing is owed a FID that has left.
        self.migrating_out.remove(&fid);
        for signal in [Signal::Deactivate, Signal::Reactivate] {
            self.owed.remove(&(signal, fid));
        }
        // Survivors grow into the freed space: their tables flip with
        // the departer's, and they are told their new regions.
        let grown: BTreeSet<Fid> = victims.iter().map(|v| v.fid).collect();
        let touched: Vec<Fid> = std::iter::once(fid).chain(grown).collect();
        let entries = decode_entries + touched.iter().map(|&f| self.retable(f)).sum::<usize>();
        self.converge(runtime, &touched);
        let done_ns = now_ns + self.cost.control_fixed_ns + self.cost.table_update_ns(entries, 0);
        let mut acts: Vec<ControllerAction> = touched[1..]
            .iter()
            .map(|&vfid| grant_of(&self.regions, vfid, done_ns))
            .collect();
        acts.extend(self.drain_queue(runtime, now_ns));
        Ok(acts)
    }

    /// Quiesce a resident FID for live migration to another switch.
    ///
    /// The fabric layer drives the cross-switch protocol; this switch's
    /// part generalizes the Section 4.3 reallocation machinery: the FID
    /// is deactivated, its client is sent a fenced Deactivate notice
    /// (re-sent on poll until the snapshot-complete echoes the fence),
    /// and the grant stays committed here until the fabric either
    /// completes the cutover — arriving as a plain
    /// [`Controller::handle_deallocate`] — or abandons the move with
    /// [`Controller::handle_migrate_abort`]. Re-entering for a FID
    /// already migrating is idempotent and just re-signals (the
    /// federation redoes phases after its own crash).
    pub fn handle_migrate_out(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        dest: u16,
        now_ns: u64,
    ) -> Result<Vec<ControllerAction>, CoreError> {
        if let Some(m) = self.migrating_out.get(&fid) {
            let fence = m.fence;
            // An unacked quiesce restarts its re-send interval; an acked
            // one stays settled.
            if let Some(owed) = self.owed.get_mut(&(Signal::Deactivate, fid)) {
                owed.last_ns = now_ns;
            }
            return Ok(vec![Signal::Deactivate.action(fid, now_ns, fence)]);
        }
        if self.pending.is_some() {
            return Err(CoreError::Busy);
        }
        if !self.allocator.contains(fid) {
            return Err(CoreError::UnknownFid(fid));
        }
        self.log_record(OpRecord::MigrateOut { fid, dest, now_ns });
        self.fence = self.fence.wrapping_add(1);
        let fence = self.fence;
        self.migrating_out.insert(fid, MigrationOut { dest, fence });
        self.converge(runtime, &[fid]);
        self.journal_event(now_ns, EventKind::MigrateOut { fid, dest });
        Ok(vec![self.owe(Signal::Deactivate, fid, fence, now_ns)])
    }

    /// Abandon a migration: the FID resumes on this switch with the
    /// regions it already holds. The client is told its (unchanged)
    /// regions and resumed through the ledger of owed signals, so a lost
    /// Reactivate cannot strand it.
    pub fn handle_migrate_abort(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        if self.migrating_out.remove(&fid).is_none() {
            return Vec::new();
        }
        self.owed.remove(&(Signal::Deactivate, fid));
        self.log_record(OpRecord::MigrateAbort { fid, now_ns });
        self.converge(runtime, &[fid]);
        self.fence = self.fence.wrapping_add(1);
        let fence = self.fence;
        self.journal_event(now_ns, EventKind::MigrateAbort { fid });
        self.journal_event(now_ns, EventKind::Reactivation { fid });
        let mut acts = self.owe_reactivation(fid, fence, now_ns).to_vec();
        acts.extend(self.drain_queue(runtime, now_ns));
        acts
    }

    /// Destination-side activation of a migrated FID: after the fabric
    /// has replayed the source snapshot into this switch's registers,
    /// tell the client its new regions and resume it, fenced and
    /// re-signalled until acked (owed like the Reactivate of a
    /// reallocation victim). Idempotent — a federation redo simply
    /// re-fences and re-sends. Not logged: the grant itself was
    /// committed by the admission's Request record, and a crashed
    /// destination is re-activated by the recovering federation.
    pub fn handle_migrate_in_activate(
        &mut self,
        fid: Fid,
        now_ns: u64,
    ) -> Result<Vec<ControllerAction>, CoreError> {
        if !self.allocator.contains(fid) || !self.regions.contains_key(&fid) {
            return Err(CoreError::UnknownFid(fid));
        }
        self.fence = self.fence.wrapping_add(1);
        let fence = self.fence;
        self.journal_event(now_ns, EventKind::MigrateIn { fid });
        Ok(self.owe_reactivation(fid, fence, now_ns).to_vec())
    }

    /// Drive the periodic control loop: time out unresponsive victims
    /// so they cannot obstruct new allocations (Section 4.3), then
    /// re-send every owed signal that has waited an interval —
    /// Deactivates whose snapshot-complete has not arrived, and
    /// reactivations (new regions + resume signal) until the client
    /// acks or the retry budget runs out. A victim whose
    /// snapshot-complete was lost is thereby force-reactivated with its
    /// *new* regions on timeout — and keeps being told about them —
    /// rather than being silently abandoned; the queued requester is
    /// admitted on the same poll (its own signals are not due yet).
    pub fn poll(&mut self, runtime: &mut dyn DataPlane, now_ns: u64) -> Vec<ControllerAction> {
        #[cfg(debug_assertions)]
        self.debug_check_invariants(runtime);
        let mut acts = Vec::new();
        if self
            .pending
            .as_ref()
            .is_some_and(|p| now_ns >= p.deadline_ns)
        {
            // The forced completion is a committed transition: replay
            // reproduces it by re-polling at the recorded time.
            self.log_record(OpRecord::Timeout { now_ns });
            acts.extend(self.finish_pending(runtime, now_ns));
            acts.extend(self.drain_queue(runtime, now_ns));
        }
        acts.extend(self.resend_owed(now_ns, false));
        acts
    }

    /// Rebuild a crashed controller from its write-ahead log.
    ///
    /// Every entry-point handler is a deterministic function of the
    /// controller state and its input, so replaying the committed
    /// input records in commit order — against a scratch data plane
    /// built from the same configuration — reconstructs the allocator
    /// grants, the admission ledger (`regions`), the serialization
    /// queue, the pending-reallocation state machine, and the ledger of
    /// owed signals exactly as they stood at the last commit. The
    /// scratch runtime is then discarded: the *live* data plane
    /// survived the crash and is reconciled separately with
    /// [`Controller::reconcile`].
    ///
    /// The recovered controller runs in a fresh epoch (one past the
    /// highest the log has seen), which it commits as an
    /// [`OpRecord::EpochOpen`] so epochs keep rising across repeated
    /// crashes of the same log.
    pub fn recover(log: &OpLog, cfg: &SwitchConfig, scheme: Scheme) -> Controller {
        let mut c = Controller::new(cfg, scheme);
        let mut scratch = SwitchRuntime::new(*cfg);
        let mut last_ns = 0u64;
        for record in log.records() {
            match record {
                OpRecord::Request {
                    fid,
                    pattern,
                    policy,
                    program,
                    now_ns,
                } => {
                    last_ns = last_ns.max(now_ns);
                    c.handle_request_with_program(
                        &mut scratch,
                        fid,
                        pattern,
                        policy,
                        program.as_ref(),
                        now_ns,
                    );
                }
                OpRecord::SnapshotComplete { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    // The log holds only acks whose fence matched when
                    // they were committed; re-derive it from the ledger.
                    if let Some(fence) = c.owed_fence(Signal::Deactivate, fid) {
                        c.handle_snapshot_complete_fenced(&mut scratch, fid, fence, now_ns);
                    }
                }
                OpRecord::ReactivateAck { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    if let Some(fence) = c.owed_fence(Signal::Reactivate, fid) {
                        c.handle_reactivate_ack_fenced(fid, fence, now_ns);
                    }
                }
                OpRecord::Deallocate { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    let _ = c.handle_deallocate(&mut scratch, fid, now_ns);
                }
                OpRecord::Timeout { now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.poll(&mut scratch, now_ns);
                }
                OpRecord::Abandon { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.owed.remove(&(Signal::Reactivate, fid));
                    c.abandoned_reactivations += 1;
                }
                OpRecord::EpochOpen { epoch, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.epoch = c.epoch.max(epoch);
                }
                OpRecord::MigrateOut { fid, dest, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    let _ = c.handle_migrate_out(&mut scratch, fid, dest, now_ns);
                }
                OpRecord::MigrateAbort { fid, now_ns } => {
                    last_ns = last_ns.max(now_ns);
                    c.handle_migrate_abort(&mut scratch, fid, now_ns);
                }
            }
        }
        c.epoch = c.epoch.max(log.last_epoch()) + 1;
        // The lineage has completed one recovery per prior epoch; seed
        // the counter so `controller.recoveries` keeps counting across
        // repeated crashes (reconcile adds this cycle's own).
        c.recoveries.add(u64::from(c.epoch) - 1);
        // Attach the log only after replay: the replayed transitions
        // are already committed and must not be re-appended.
        c.oplog = Some(log.clone());
        log.append(OpRecord::EpochOpen {
            epoch: c.epoch,
            now_ns: last_ns,
        });
        c
    }

    /// Reconcile the live data plane against this (freshly recovered)
    /// controller's rebuilt intent, repairing every divergence:
    ///
    /// * [`Controller::converge`] over every FID the intent or the
    ///   switch knows: protection entries the ledger does not grant are
    ///   scrubbed, granted entries that are missing or divergent are
    ///   re-installed, in-flight victims and migrating FIDs the switch
    ///   shows active are re-quiesced, and quiesced FIDs nothing
    ///   accounts for are resumed;
    /// * decode-cache residents without a granted placement are
    ///   flushed;
    /// * every owed signal is re-issued (Deactivate for victims and
    ///   migrations still owing a snapshot, Respond+Reactivate for
    ///   unacked reactivations), fenced to its replayed token.
    ///
    /// Every repair is journaled and counted; the whole pass is charged
    /// a modeled latency into `controller.recovery_ns` (replayed
    /// records plus repaired table entries — never wall-clock).
    pub fn reconcile(&mut self, runtime: &mut dyn DataPlane, now_ns: u64) -> Vec<ControllerAction> {
        let fids = self.known_fids(runtime);
        let repaired = self.converge(runtime, &fids);
        let mut stats = RecoveryStats {
            reinstalled_entries: repaired.installed.len() as u64,
            scrubbed_entries: repaired.removed.len() as u64,
            requiesced: repaired.quiesced.len() as u64,
            reactivated_strays: repaired.resumed.len() as u64,
            ..RecoveryStats::default()
        };
        let repair_events = |fids: &[Fid], repair: RepairKind| {
            for &fid in fids {
                self.journal_event(now_ns, EventKind::RecoveryRepair { fid, repair });
            }
        };
        repair_events(&repaired.removed, RepairKind::ScrubEntry);
        repair_events(&repaired.installed, RepairKind::ReinstallEntry);
        // Decode-cache residents must trace back to a granted placement.
        let orphans: Vec<Fid> = runtime
            .decoded_fids()
            .into_iter()
            .filter(|&f| !self.allocator.contains(f))
            .collect();
        for &fid in &orphans {
            runtime.invalidate_decode(fid);
        }
        stats.scrubbed_decode = orphans.len() as u64;
        repair_events(&orphans, RepairKind::ScrubDecode);
        repair_events(&repaired.quiesced, RepairKind::Requiesce);
        repair_events(&repaired.resumed, RepairKind::ReactivateStray);
        // The crash may have lost any owed signal: all go out again.
        stats.resent_signals = self.owed.len() as u64;
        let acts = self.resend_owed(now_ns, true);
        // Account the recovery: modeled latency (replayed records at
        // fixed control cost each, plus the repaired table entries),
        // never wall-clock.
        let replayed = self.oplog.as_ref().map_or(0, OpLog::len) as u64;
        let latency = self.cost.control_fixed_ns
            + replayed * self.cost.alloc_compute_per_mutant_ns
            + self.cost.table_update_ns(repaired.tcam_entries, 0);
        self.recovery_ns.record(latency);
        self.recoveries.inc();
        self.repairs.add(stats.total());
        self.recovery_stats = RecoveryStats {
            reinstalled_entries: self.recovery_stats.reinstalled_entries
                + stats.reinstalled_entries,
            scrubbed_entries: self.recovery_stats.scrubbed_entries + stats.scrubbed_entries,
            scrubbed_decode: self.recovery_stats.scrubbed_decode + stats.scrubbed_decode,
            requiesced: self.recovery_stats.requiesced + stats.requiesced,
            reactivated_strays: self.recovery_stats.reactivated_strays + stats.reactivated_strays,
            resent_signals: self.recovery_stats.resent_signals + stats.resent_signals,
        };
        self.journal_event(
            now_ns,
            EventKind::Recovered {
                epoch: self.epoch,
                repairs: stats.total().min(u64::from(u32::MAX)) as u32,
            },
        );
        acts
    }

    // ----- internals -----

    /// Every FID the intent or the switch knows, sorted: granted,
    /// meant to be quiesced, holding a protection entry, or quiesced.
    fn known_fids(&self, runtime: &dyn DataPlane) -> Vec<Fid> {
        let mut fids: BTreeSet<Fid> = self.regions.keys().copied().collect();
        fids.extend(self.pending_victims());
        fids.extend(self.migrating_out.keys().copied());
        fids.extend(runtime.protection().resident_fids());
        fids.extend(runtime.deactivated_fids());
        fids.into_iter().collect()
    }

    /// A cheap, always-valid subset of the control-plane invariants,
    /// run on every poll in debug builds (the full engine lives in
    /// `activermt-modelcheck`, which cannot be a dependency of this
    /// crate). Disabled while a [`SeededBug`] is injected — the
    /// mutation tests exist precisely to drive the state invalid and
    /// let the full engine catch it.
    #[cfg(debug_assertions)]
    fn debug_check_invariants(&self, runtime: &dyn DataPlane) {
        if self.seeded_bug.is_some() || runtime.decode_invalidation_disabled() {
            return;
        }
        for (stage, pool) in self.allocator.pools().iter().enumerate() {
            if let Err(e) = pool.check_invariants() {
                panic!("stage {stage} pool invariant violated: {e}");
            }
        }
        // Protection entries only ever cover resident applications.
        for fid in runtime.protection().resident_fids() {
            assert!(
                self.allocator.contains(fid),
                "protection entry for non-resident fid {fid}"
            );
        }
        // Quiesced FIDs exist only during an in-flight reallocation or
        // a cross-switch migration.
        if self.pending.is_none() {
            let stuck: Vec<Fid> = runtime
                .deactivated_fids()
                .into_iter()
                .filter(|f| !self.migrating_out.contains_key(f))
                .collect();
            assert!(
                stuck.is_empty(),
                "idle controller but fids {stuck:?} are still quiesced"
            );
        }
    }

    fn start_admission(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        pattern: AccessPattern,
        policy: MutantPolicy,
        program: Option<&Program>,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        match self.allocator.admit(fid, &pattern, policy) {
            Err(_) => {
                // Failed allocations are brief (Figure 5a: "epochs with
                // failed allocations are quite brief").
                self.refuse(fid, now_ns)
            }
            Ok(outcome) => {
                // Static verification gate: the program (when the
                // request carried one) must be provably safe on the
                // regions the allocator just chose, BEFORE any victim
                // is quiesced or a grant leaves the switch.
                if let Some(prog) = program {
                    if let Err(reason) = self.verify_admission(&outcome, prog) {
                        return self.reject_verified(runtime, fid, reason, now_ns);
                    }
                    self.verify_accepted.inc();
                    self.verify_stats.entry(fid).or_default().accepted += 1;
                } else {
                    // Legacy wire format: no bytecode to check. The
                    // grant proceeds on access-pattern evidence alone,
                    // but never silently — unverified admissions are
                    // counted and journaled.
                    self.verify_skipped.inc();
                    self.journal_event(now_ns, EventKind::VerifySkipped { fid });
                }
                // Charge a modeled search cost, not the measured one:
                // wall-clock time in virtual timestamps would make runs
                // unrepeatable (and shift fault-window alignment).
                let alloc_compute_ns = self.cost.alloc_compute_ns(outcome.mutants_considered);
                let victims = outcome.victims_by_fid();
                self.journal_event(
                    now_ns + alloc_compute_ns,
                    EventKind::Admission {
                        fid,
                        accepted: true,
                    },
                );
                // Every round takes a fresh fence token; victims echo
                // it so signals from a superseded round can't count
                // against this one.
                self.fence = self.fence.wrapping_add(1);
                let fence = self.fence;
                if victims.is_empty() {
                    let pending = PendingRealloc {
                        outcome,
                        started_ns: now_ns,
                        deadline_ns: now_ns,
                        alloc_compute_ns,
                        snapshot_regs: 0,
                        snapshot_stages: 0,
                        fence,
                    };
                    self.pending = Some(pending);
                    return self.finish_pending(runtime, now_ns + alloc_compute_ns);
                }
                // Quiesce the victims and ask them to snapshot. The
                // snapshot covers their *old* regions, which stay
                // readable until the tables flip (consistent snapshot,
                // Section 4.3).
                let notify_ns = now_ns + alloc_compute_ns + self.cost.control_fixed_ns;
                self.journal_event(
                    notify_ns,
                    EventKind::ReallocationStart {
                        fid,
                        victims: victims.len().min(usize::from(u16::MAX)) as u16,
                    },
                );
                let mut acts = Vec::new();
                let mut snapshot_regs = 0u64;
                let mut snapshot_stages = 0usize;
                for (&vfid, stage_moves) in &victims {
                    snapshot_stages = snapshot_stages.max(stage_moves.len());
                    for m in stage_moves {
                        snapshot_regs +=
                            u64::from(m.old.len) * u64::from(self.allocator.config().block_regs);
                    }
                    acts.push(self.owe(Signal::Deactivate, vfid, fence, notify_ns));
                }
                self.pending = Some(PendingRealloc {
                    outcome,
                    started_ns: now_ns,
                    deadline_ns: notify_ns + self.cost.snapshot_timeout_ns,
                    alloc_compute_ns,
                    snapshot_regs,
                    snapshot_stages,
                    fence,
                });
                let quiesce: Vec<Fid> = victims.keys().copied().collect();
                self.converge(runtime, &quiesce);
                acts
            }
        }
    }

    /// Statically verify `program` against the allocation `outcome`:
    /// pad it to the chosen mutant's access positions, prove the
    /// padding semantics-preserving, and run the abstract interpreter
    /// over the granted regions under the admission assumption policy.
    ///
    /// Accepted verdicts are memoized by (program digest, mutant
    /// positions, region geometry): reallocation churn re-admits the
    /// same program onto the same shapes, and the verdict is a pure
    /// function of the key plus this controller's fixed pipeline
    /// geometry, so a repeat admission skips the proof entirely.
    fn verify_admission(
        &mut self,
        outcome: &AllocOutcome,
        program: &Program,
    ) -> Result<(), VerifyRejectReason> {
        let block_regs = self.allocator.config().block_regs;
        let shape: Vec<(usize, u32, u32)> = outcome
            .placements
            .iter()
            .map(|p| {
                let region = to_region(p.range, block_regs);
                (p.stage, region.start, region.end)
            })
            .collect();
        let key = CacheKey::new(program, &shape).salted(&outcome.mutant.positions);
        if self.verify_cache.get(&key).is_some() {
            self.optimizer_cache_hits.inc();
            return Ok(());
        }
        self.optimizer_cache_misses.inc();
        let padded = pad_to_positions(program, &outcome.mutant.positions)
            .map_err(|_| VerifyRejectReason::Structure)?;
        if check_mutant_equivalence(program, &padded).is_some() {
            return Err(VerifyRejectReason::Structure);
        }
        let mut ctx = AnalysisContext::new(
            self.num_stages,
            self.ingress_stages,
            self.max_recirculations,
        )
        .with_assumptions(Assumptions::admission());
        for p in &outcome.placements {
            let region = to_region(p.range, block_regs);
            ctx = ctx.with_region(p.stage, region.start, region.end);
        }
        let report = verify(padded.instructions(), &ctx);
        if report.accepted() {
            self.verify_cache.insert(key, ());
            return Ok(());
        }
        let first = report
            .errors()
            .next()
            .expect("rejected report has an error");
        Err(match first.kind {
            FindingKind::OutOfBounds => VerifyRejectReason::OutOfBounds,
            FindingKind::UnguardedHashedAddress => VerifyRejectReason::UnguardedHash,
            FindingKind::MissingRegion | FindingKind::MissingTranslation => {
                VerifyRejectReason::MissingRegion
            }
            FindingKind::RecircCapExceeded => VerifyRejectReason::RecircCap,
            _ => VerifyRejectReason::Structure,
        })
    }

    /// Roll back a grant the verifier refused: release the allocation
    /// (regrowing any victims the admission had shrunk), restore their
    /// tables, journal the event, and answer the requester as failed.
    fn reject_verified(
        &mut self,
        runtime: &mut dyn DataPlane,
        fid: Fid,
        reason: VerifyRejectReason,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        if !self.has_bug(SeededBug::RollbackLeak) {
            let regrown: BTreeSet<Fid> = self
                .allocator
                .release(fid)
                .unwrap_or_default()
                .iter()
                .map(|v| v.fid)
                .collect();
            let regrown: Vec<Fid> = regrown.into_iter().collect();
            for &vfid in &regrown {
                self.retable(vfid);
            }
            self.converge(runtime, &regrown);
        }
        self.verify_rejected.inc();
        self.verify_stats.entry(fid).or_default().rejected += 1;
        let at_ns = now_ns + self.cost.control_fixed_ns;
        self.journal_event(at_ns, EventKind::VerifyRejected { fid, reason });
        self.refuse(fid, now_ns)
    }

    /// Answer `fid`'s request as failed, one fixed control delay later.
    fn refuse(&self, fid: Fid, now_ns: u64) -> Vec<ControllerAction> {
        let at_ns = now_ns + self.cost.control_fixed_ns;
        self.journal_event(
            at_ns,
            EventKind::Admission {
                fid,
                accepted: false,
            },
        );
        vec![
            ControllerAction::Respond {
                fid,
                regions: Vec::new(),
                failed: true,
                at_ns,
            },
            ControllerAction::Report(ProvisioningReport {
                fid,
                alloc_compute_ns: 0,
                table_update_ns: 0,
                snapshot_wait_ns: 0,
                total_ns: self.cost.control_fixed_ns,
                victim_count: 0,
                failed: true,
            }),
        ]
    }

    /// Owe `fid` a reactivation: tell it its regions and resume it,
    /// fenced, and keep re-sending both on poll until it acks — a lost
    /// control frame must not strand it.
    fn owe_reactivation(&mut self, fid: Fid, fence: u16, at_ns: u64) -> [ControllerAction; 2] {
        [
            grant_of(&self.regions, fid, at_ns),
            self.owe(Signal::Reactivate, fid, fence, at_ns),
        ]
    }

    /// Owe `fid` `signal`, fenced and sent at `at_ns`, and return it.
    /// It is re-sent until the ack echoing `fence` arrives.
    fn owe(&mut self, signal: Signal, fid: Fid, fence: u16, at_ns: u64) -> ControllerAction {
        let owed = Owed {
            fence,
            last_ns: at_ns,
            attempts: 0,
        };
        self.owed.insert((signal, fid), owed);
        signal.action(fid, at_ns, fence)
    }

    /// The fence the ack of the `signal` owed `fid` must echo, if one
    /// is owed.
    fn owed_fence(&self, signal: Signal, fid: Fid) -> Option<u16> {
        self.owed.get(&(signal, fid)).map(|o| o.fence)
    }

    /// The FIDs owed `signal`, sorted.
    fn owed_fids(&self, signal: Signal) -> impl Iterator<Item = Fid> + '_ {
        self.owed
            .range((signal, Fid::MIN)..=(signal, Fid::MAX))
            .map(|(&(_, fid), _)| fid)
    }

    /// Does an ack's fence `got` match the `want` of the signal it
    /// acknowledges? A mismatch is a stale signal from a superseded
    /// round or generation: counted and journaled, never applied.
    fn fence_matches(&self, fid: Fid, got: u16, want: u16, now_ns: u64) -> bool {
        if got != want {
            self.stale_rejects.inc();
            self.journal_event(now_ns, EventKind::StaleSignalRejected { fid, got, want });
        }
        got == want
    }

    /// Re-send owed signals in ledger order: every Deactivate, then
    /// every Respond+Reactivate pair, each group in FID order. A poll
    /// re-sends only what has waited a full interval and abandons (and
    /// logs) a Reactivate whose retry budget is spent. A reconciliation
    /// (`forced`) re-sends everything, leaves the budget alone and
    /// journals each signal as a repair.
    fn resend_owed(&mut self, now_ns: u64, forced: bool) -> Vec<ControllerAction> {
        let mut acts = Vec::new();
        let mut exhausted = Vec::new();
        for (&(signal, fid), owed) in &mut self.owed {
            if !forced {
                if now_ns < owed.last_ns || now_ns - owed.last_ns < RESEND_INTERVAL_NS {
                    continue;
                }
                if signal == Signal::Reactivate && owed.attempts >= MAX_RESENDS {
                    exhausted.push(fid);
                    continue;
                }
                owed.attempts += 1;
                self.resent_signals += 1;
            }
            owed.last_ns = now_ns;
            if signal == Signal::Reactivate {
                acts.push(grant_of(&self.regions, fid, now_ns));
            }
            acts.push(signal.action(fid, now_ns, owed.fence));
        }
        for fid in exhausted {
            self.log_record(OpRecord::Abandon { fid, now_ns });
            self.owed.remove(&(Signal::Reactivate, fid));
            self.abandoned_reactivations += 1;
        }
        if forced {
            for &(_, fid) in self.owed.keys() {
                let repair = RepairKind::ResendSignal;
                self.journal_event(now_ns, EventKind::RecoveryRepair { fid, repair });
            }
        }
        acts
    }

    /// Per-FID static-verification tallies (for telemetry snapshots).
    pub fn verify_stats(&self) -> impl Iterator<Item = (Fid, VerifyStats)> + '_ {
        self.verify_stats.iter().map(|(&f, &s)| (f, s))
    }

    /// Switch-wide verification counters `(accepted, rejected)`.
    pub fn verify_counts(&self) -> (u64, u64) {
        (self.verify_accepted.get(), self.verify_rejected.get())
    }

    /// Legacy no-bytecode admissions that skipped verification.
    pub fn verify_skipped(&self) -> u64 {
        self.verify_skipped.get()
    }

    /// Verify-cache accounting `(hits, misses)`: hits + misses equals
    /// the number of bytecode-carrying admissions attempted.
    pub fn optimizer_cache_stats(&self) -> (u64, u64) {
        (
            self.optimizer_cache_hits.get(),
            self.optimizer_cache_misses.get(),
        )
    }

    /// Apply the pending plan: update every affected table, clear the
    /// newcomer's memory, reactivate victims, respond, report.
    fn finish_pending(
        &mut self,
        runtime: &mut dyn DataPlane,
        now_ns: u64,
    ) -> Vec<ControllerAction> {
        let Some(pending) = self.pending.take() else {
            return Vec::new();
        };
        let PendingRealloc {
            outcome,
            started_ns,
            deadline_ns: _,
            alloc_compute_ns,
            snapshot_regs,
            snapshot_stages,
            fence,
        } = pending;

        // Victim tables flip first: "the first application can resume
        // operation immediately after state extraction, while the
        // incoming one has to wait for the allocation to be applied"
        // (Section 6.3 / Figure 10). The round is over, so converging
        // the victims also resumes them.
        let mut touched: Vec<Fid> = outcome.victims_by_fid().into_keys().collect();
        let victim_count = touched.len();
        // A timed-out victim's snapshot is owed no longer.
        for &vfid in &touched {
            self.owed.remove(&(Signal::Deactivate, vfid));
        }
        let victim_entries: usize = touched.iter().map(|&v| self.retable(v)).sum();
        let victims_done_ns = now_ns + self.cost.table_update_ns(victim_entries, 0);

        // Newcomer tables: protection ranges plus the per-stage
        // instruction-decode entries its FID needs in every logical
        // stage its (padded) program traverses — the bulk of the
        // Section 6.2 "time taken to update table entries". Its fresh
        // ranges start zeroed; only admission clears, so a re-install
        // after a crash never wipes live state.
        let newcomer_entries = self.cost.decode_entries_per_stage
            * usize::from(outcome.mutant.padded_len)
            + self.retable(outcome.fid);
        touched.push(outcome.fid);
        self.converge(runtime, &touched);
        let block_regs = self.allocator.config().block_regs;
        for p in &outcome.placements {
            runtime.clear_region(p.stage, to_region(p.range, block_regs));
        }

        let table_update_ns = self
            .cost
            .table_update_ns(victim_entries + newcomer_entries, 0);
        let snapshot_wait_ns = self
            .cost
            .snapshot_ns(snapshot_regs, snapshot_stages)
            .max(now_ns.saturating_sub(started_ns + alloc_compute_ns));
        let done_ns = now_ns + table_update_ns;

        let mut acts = Vec::new();
        for &vfid in &touched[..victim_count] {
            self.journal_event(victims_done_ns, EventKind::Reactivation { fid: vfid });
            acts.extend(self.owe_reactivation(vfid, fence, victims_done_ns));
        }
        self.journal_event(
            done_ns,
            EventKind::Placement {
                fid: outcome.fid,
                stages: outcome.placements.len().min(usize::from(u16::MAX)) as u16,
                blocks: outcome
                    .placements
                    .iter()
                    .map(|p| u64::from(p.range.len))
                    .sum::<u64>()
                    .min(u64::from(u16::MAX)) as u16,
            },
        );
        self.realloc_total_ns
            .record(done_ns.saturating_sub(started_ns));
        self.table_update_ns.record(table_update_ns);
        acts.push(grant_of(&self.regions, outcome.fid, done_ns));
        acts.push(ControllerAction::Report(ProvisioningReport {
            fid: outcome.fid,
            alloc_compute_ns,
            table_update_ns,
            snapshot_wait_ns,
            total_ns: done_ns.saturating_sub(started_ns),
            victim_count,
            failed: false,
        }));
        acts
    }

    /// Flip `fid`'s table intent to the allocator's current placements
    /// (no entry at all once it has left) and price the flip: the TCAM
    /// cost of its old entries plus that of its new ones. Outside seeded
    /// bugs the switch holds exactly the old intent, so this is what
    /// removing the old entries and installing the new ones costs,
    /// however few of them [`Controller::converge`] then has to touch.
    fn retable(&mut self, fid: Fid) -> usize {
        let old = if self.allocator.contains(fid) {
            let block_regs = self.allocator.config().block_regs;
            let new = self
                .allocator
                .placements_of(fid)
                .iter()
                .map(|p| (p.stage, to_region(p.range, block_regs)))
                .collect();
            self.regions.insert(fid, new)
        } else {
            self.regions.remove(&fid)
        };
        tcam_cost(old.as_deref().unwrap_or_default())
            + tcam_cost(self.regions.get(&fid).map_or(&[], Vec::as_slice))
    }

    /// The serialization lock: a reallocation round or a migration is
    /// in flight, and admissions queue behind it.
    fn admission_locked(&self) -> bool {
        self.pending.is_some() || !self.migrating_out.is_empty()
    }

    /// Is `fid` meant to be quiesced? Exactly the in-flight round's
    /// victims and the FIDs migrating out are.
    fn quiesced(&self, fid: Fid) -> bool {
        self.migrating_out.contains_key(&fid)
            || self
                .pending
                .as_ref()
                .is_some_and(|p| p.outcome.victims.iter().any(|v| v.fid == fid))
    }

    /// Make the data plane match the controller's intent for `fids`,
    /// touching only what differs: one protection entry per region in
    /// `regions`, none in any other stage, and the quiesce flag set on
    /// exactly the FIDs [`Controller::quiesced`] names. This is the one
    /// place the controller writes protection entries and quiesce flags;
    /// handlers edit the intent and converge the FIDs they touched.
    fn converge(&self, runtime: &mut dyn DataPlane, fids: &[Fid]) -> Converged {
        let block_regs = self.allocator.config().block_regs;
        let mut done = Converged::default();
        for &fid in fids {
            let intent = self.regions.get(&fid);
            let granted = intent.map_or(&[][..], Vec::as_slice);
            let mut stale = runtime.protection().stages_of(fid);
            stale.retain(|&s| !granted.iter().any(|&(g, _)| g == s));
            if self.has_bug(SeededBug::DeallocLeaksEntry) && intent.is_none() && !stale.is_empty() {
                stale.remove(0); // "forget" the departed FID's first entry
            }
            for stage in stale {
                done.tcam_entries += runtime.remove_region(stage, fid);
                done.removed.push(fid);
            }
            for &(stage, mut region) in granted {
                if self.has_bug(SeededBug::OverlappingGrant) {
                    // One block wider than granted: the isolation breach
                    // the disjointness/coverage invariants must catch.
                    region.end += block_regs;
                }
                if runtime.protection().lookup(stage, fid).copied()
                    != ProtEntry::from_region(region)
                {
                    let (rm, ins) = runtime.install_region(stage, fid, region);
                    done.tcam_entries += rm + ins;
                    done.installed.push(fid);
                }
            }
            let quiesce = self.quiesced(fid);
            if quiesce && !runtime.is_deactivated(fid) {
                runtime.deactivate(fid);
                done.quiesced.push(fid);
            } else if !quiesce
                && runtime.is_deactivated(fid)
                && !self.has_bug(SeededBug::AckLessReactivation)
            {
                runtime.reactivate(fid);
                done.resumed.push(fid);
            }
        }
        done
    }

    /// Admit queued requests now that the controller is idle again.
    fn drain_queue(&mut self, runtime: &mut dyn DataPlane, now_ns: u64) -> Vec<ControllerAction> {
        let mut acts = Vec::new();
        while !self.admission_locked() {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            acts.extend(self.start_admission(
                runtime,
                q.fid,
                q.pattern,
                q.policy,
                q.program.as_ref(),
                now_ns,
            ));
        }
        acts
    }
}

fn to_region(range: crate::types::BlockRange, block_regs: u32) -> RegionEntry {
    let (start, end) = range.to_registers(block_regs);
    RegionEntry { start, end }
}

/// The Respond that tells `fid` the regions its intent holds.
fn grant_of(
    regions: &BTreeMap<Fid, Vec<(usize, RegionEntry)>>,
    fid: Fid,
    at_ns: u64,
) -> ControllerAction {
    ControllerAction::Respond {
        fid,
        regions: regions.get(&fid).cloned().unwrap_or_default(),
        failed: false,
        at_ns,
    }
}

/// TCAM entries the protection entries for `regions` occupy.
fn tcam_cost(regions: &[(usize, RegionEntry)]) -> usize {
    regions
        .iter()
        .filter_map(|&(_, r)| ProtEntry::from_region(r))
        .map(|e| e.tcam_cost())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SwitchRuntime, Controller) {
        let cfg = SwitchConfig::default();
        (
            SwitchRuntime::new(cfg),
            Controller::new(&cfg, Scheme::WorstFit),
        )
    }

    fn cache_pattern() -> AccessPattern {
        AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![0, 0, 0],
            prog_len: 11,
            elastic: true,
            ingress_positions: vec![8],
            aliases: vec![],
        }
    }

    fn respond_of(acts: &[ControllerAction], fid: Fid) -> Option<&ControllerAction> {
        acts.iter()
            .find(|a| matches!(a, ControllerAction::Respond { fid: f, .. } if *f == fid))
    }

    #[test]
    fn undisputed_admission_responds_immediately() {
        let (mut rt, mut ctl) = setup();
        let acts = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(!failed);
            assert_eq!(regions.len(), 3);
            // Protection tables are live.
            for (stage, region) in regions {
                assert!(rt.protection().lookup(*stage, 1).is_some());
                assert_eq!(region.len(), 256 * 256);
            }
        }
        assert!(!ctl.busy());
        // A report came with it.
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Report(r) if !r.failed && r.victim_count == 0)));
    }

    #[test]
    fn reallocation_runs_the_snapshot_protocol() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        // The 4th cache shares stages with an incumbent.
        let acts = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            1000,
        );
        let deactivated: Vec<Fid> = acts
            .iter()
            .filter_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .collect();
        assert_eq!(deactivated.len(), 1);
        let victim = deactivated[0];
        assert!(ctl.busy());
        assert!(rt.is_deactivated(victim));
        assert!(respond_of(&acts, 4).is_none(), "no response until snapshot");

        // Victim completes its snapshot.
        let fence = ctl.pending_fence().unwrap();
        let acts2 = ctl.handle_snapshot_complete_fenced(&mut rt, victim, fence, 2000);
        assert!(!ctl.busy());
        assert!(!rt.is_deactivated(victim));
        assert!(respond_of(&acts2, 4).is_some());
        assert!(
            respond_of(&acts2, victim).is_some(),
            "victim learns new regions"
        );
        assert!(acts2
            .iter()
            .any(|a| matches!(a, ControllerAction::Reactivate { fid, .. } if *fid == victim)));
        let report = acts2
            .iter()
            .find_map(|a| match a {
                ControllerAction::Report(r) => Some(*r),
                _ => None,
            })
            .unwrap();
        assert_eq!(report.victim_count, 1);
        assert!(report.table_update_ns > 0);
        assert!(!report.failed);
    }

    #[test]
    fn requests_serialize_behind_a_pending_reallocation() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts4 = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let victim = acts4
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        // A 5th request arrives while busy: queued, no actions.
        let acts5 = ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            10,
        );
        assert!(acts5.is_empty());
        assert_eq!(ctl.queue_len(), 1);
        // Snapshot completes; the queued request is then admitted (it
        // may itself trigger a new reallocation round).
        let fence = ctl.pending_fence().unwrap();
        let acts = ctl.handle_snapshot_complete_fenced(&mut rt, victim, fence, 2000);
        assert!(respond_of(&acts, 4).is_some());
        let progressed = respond_of(&acts, 5).is_some()
            || acts
                .iter()
                .any(|a| matches!(a, ControllerAction::Deactivate { .. }));
        assert!(progressed, "queued request must start processing");
        assert_eq!(ctl.queue_len(), 0);
    }

    #[test]
    fn unresponsive_victims_time_out() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        assert!(ctl.busy());
        let victim = acts
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        // Nothing happens before the deadline.
        assert!(ctl.poll(&mut rt, 1_000_000).is_empty());
        // Past the deadline the controller forces completion.
        let timeout = SwitchConfig::default().snapshot_timeout_ns + 10_000_000_000;
        let acts = ctl.poll(&mut rt, timeout);
        assert!(!ctl.busy());
        assert!(respond_of(&acts, 4).is_some());
        assert!(!rt.is_deactivated(victim));
    }

    #[test]
    fn failed_admission_is_brief_and_reported() {
        let cfg = SwitchConfig {
            regs_per_stage: 512, // 2 blocks per stage
            ..SwitchConfig::default()
        };
        let mut rt = SwitchRuntime::new(cfg);
        let mut ctl = Controller::new(&cfg, Scheme::WorstFit);
        // Fill the pipeline with inelastic tenants until failure.
        let inelastic = AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![1, 1, 1],
            prog_len: 11,
            elastic: false,
            ingress_positions: vec![8],
            aliases: vec![],
        };
        let mut failed = false;
        for fid in 0..100 {
            let acts = ctl.handle_request(
                &mut rt,
                fid,
                inelastic.clone(),
                MutantPolicy::MostConstrained,
                0,
            );
            if let Some(ControllerAction::Respond { failed: f, .. }) = respond_of(&acts, fid) {
                if *f {
                    failed = true;
                    let rep = acts
                        .iter()
                        .find_map(|a| match a {
                            ControllerAction::Report(r) => Some(*r),
                            _ => None,
                        })
                        .unwrap();
                    assert!(rep.failed);
                    assert_eq!(rep.table_update_ns, 0);
                    break;
                }
            }
        }
        assert!(failed, "pool must eventually fill");
    }

    #[test]
    fn deallocation_grows_survivors_and_updates_tables() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts4 = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let victim = acts4
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        ctl.handle_snapshot_complete_fenced(&mut rt, victim, ctl.pending_fence().unwrap(), 100);
        // Now release the 4th; the victim grows back to full stages.
        let acts = ctl.handle_deallocate(&mut rt, 4, 200).unwrap();
        assert!(respond_of(&acts, victim).is_some());
        assert_eq!(ctl.allocator().app_blocks(victim), 3 * 256);
        // FID 4 has no protection entries anywhere.
        assert!(rt.protection().stages_of(4).is_empty());
        // Unknown FID errors.
        assert!(ctl.handle_deallocate(&mut rt, 99, 300).is_err());
    }

    /// Drive three admissions plus a fourth that evicts, returning the
    /// victim's FID and the Deactivate send time.
    fn start_realloc(rt: &mut SwitchRuntime, ctl: &mut Controller) -> (Fid, u64) {
        for fid in 1..=3 {
            ctl.handle_request(rt, fid, cache_pattern(), MutantPolicy::MostConstrained, 0);
        }
        let acts = ctl.handle_request(rt, 4, cache_pattern(), MutantPolicy::MostConstrained, 0);
        acts.iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, at_ns, .. } => Some((*fid, *at_ns)),
                _ => None,
            })
            .expect("the 4th cache must evict")
    }

    #[test]
    fn duplicate_requests_are_idempotent() {
        let (mut rt, mut ctl) = setup();
        let first = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let blocks = ctl.allocator().app_blocks(1);
        // The response was "lost"; the client retransmits.
        let dup = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            5_000,
        );
        let Some(ControllerAction::Respond {
            regions, failed, ..
        }) = respond_of(&dup, 1)
        else {
            panic!("duplicate must be re-answered");
        };
        assert!(!failed);
        let orig_regions = match respond_of(&first, 1) {
            Some(ControllerAction::Respond { regions, .. }) => regions.clone(),
            _ => unreachable!(),
        };
        assert_eq!(*regions, orig_regions, "same grant, not a new one");
        assert_eq!(ctl.allocator().app_blocks(1), blocks);
        assert_eq!(ctl.duplicate_requests(), 1);
        // No report: a retransmit is not a provisioning event.
        assert!(!dup.iter().any(|a| matches!(a, ControllerAction::Report(_))));
    }

    #[test]
    fn retransmits_during_a_reallocation_are_absorbed_not_misanswered() {
        let (mut rt, mut ctl) = setup();
        let (victim, _) = start_realloc(&mut rt, &mut ctl);
        // Requester 4 is committed in the allocator but has no regions
        // yet; a retransmit must NOT be answered with an empty grant.
        let dup = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            100,
        );
        assert!(dup.is_empty(), "absorbed, answered when the realloc ends");
        // Same for the victim re-requesting mid-snapshot.
        let dup = ctl.handle_request(
            &mut rt,
            victim,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            200,
        );
        assert!(dup.is_empty());
        assert_eq!(ctl.duplicate_requests(), 2);
        assert!(ctl.busy(), "neither retransmit may perturb the protocol");
    }

    #[test]
    fn deactivates_are_resent_until_snapshot_complete() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        // Within the resend interval: silence.
        assert!(ctl.poll(&mut rt, sent_ns + 100_000).is_empty());
        // Past it (and well within the 2 s snapshot deadline): the
        // Deactivate is re-sent in case the first copy was lost.
        let acts = ctl.poll(&mut rt, sent_ns + 600_000);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Deactivate { fid, .. } if *fid == victim)));
        assert!(ctl.resent_signals() >= 1);
        // Once the snapshot lands, deactivation re-sends stop.
        let fence = ctl.pending_fence().unwrap();
        ctl.handle_snapshot_complete_fenced(&mut rt, victim, fence, sent_ns + 700_000);
        assert!(!ctl.busy());
    }

    #[test]
    fn reactivations_resend_until_acked() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        let fence = ctl.pending_fence().unwrap();
        ctl.handle_snapshot_complete_fenced(&mut rt, victim, fence, sent_ns + 100_000);
        assert_eq!(ctl.unacked_reactivations(), 1);
        // The Respond+Reactivate pair keeps going out until acked.
        let acts = ctl.poll(&mut rt, sent_ns + 100_000_000);
        let resp = respond_of(&acts, victim).expect("regions re-sent");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(!failed);
            assert!(!regions.is_empty(), "re-sent grant carries the new regions");
        }
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Reactivate { fid, .. } if *fid == victim)));
        // The ack ends the retry loop.
        ctl.handle_reactivate_ack_fenced(victim, ctl.unacked_fence(victim).unwrap(), 0);
        assert_eq!(ctl.unacked_reactivations(), 0);
        assert!(ctl.poll(&mut rt, sent_ns + 200_000_000).is_empty());
    }

    #[test]
    fn timeout_reactivates_victim_with_new_regions_and_admits_queued() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        // A 5th request queues behind the stuck reallocation.
        let acts5 = ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            sent_ns,
        );
        assert!(acts5.is_empty());
        // The victim's snapshot-complete is lost forever; the deadline
        // poll must force-reactivate it with its NEW regions and admit
        // the queued requester in the same poll.
        let deadline = sent_ns + SwitchConfig::default().snapshot_timeout_ns + 1;
        let acts = ctl.poll(&mut rt, deadline);
        // (The controller may be busy again: admitting the queued 5th
        // can start its own reallocation round.)
        assert!(acts
            .iter()
            .any(|a| matches!(a, ControllerAction::Reactivate { fid, .. } if *fid == victim)));
        let resp = respond_of(&acts, victim).expect("victim told its new regions");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(!failed);
            assert!(!regions.is_empty());
        }
        assert!(
            respond_of(&acts, 4).is_some(),
            "original requester answered"
        );
        let queued_progressed = respond_of(&acts, 5).is_some()
            || acts
                .iter()
                .any(|a| matches!(a, ControllerAction::Deactivate { .. }));
        assert!(
            queued_progressed,
            "queued request admitted on the same poll"
        );
        assert_eq!(ctl.queue_len(), 0);
    }

    /// Listing 1's query program, matching `cache_pattern()` exactly.
    fn cache_program() -> Program {
        use activermt_isa::{Opcode, ProgramBuilder};
        ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 3)
            .op(Opcode::MEM_READ)
            .op(Opcode::MBR_EQUALS_DATA_1)
            .op(Opcode::CRET)
            .op(Opcode::MEM_READ)
            .op(Opcode::MBR_EQUALS_DATA_2)
            .op(Opcode::CRET)
            .op(Opcode::RTS)
            .op(Opcode::MEM_READ)
            .op_arg(Opcode::MBR_STORE, 2)
            .op(Opcode::RETURN)
            .build()
            .unwrap()
    }

    /// Same shape as `cache_pattern()` but the first access is
    /// addressed by a raw, unmasked hash — the verifier must refuse it.
    fn hashed_probe_program() -> Program {
        use activermt_isa::{Opcode, ProgramBuilder};
        ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::MEM_READ)
            .op(Opcode::NOP)
            .op(Opcode::CRET)
            .op(Opcode::MEM_READ)
            .op(Opcode::NOP)
            .op(Opcode::CRET)
            .op(Opcode::RTS)
            .op(Opcode::MEM_READ)
            .op(Opcode::NOP)
            .op(Opcode::RETURN)
            .build()
            .unwrap()
    }

    #[test]
    fn verified_admission_accepts_and_counts() {
        let (mut rt, mut ctl) = setup();
        let program = cache_program();
        let acts = ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond { failed, .. } = resp {
            assert!(!failed, "the canonical query program must verify");
        }
        assert_eq!(ctl.verify_counts(), (1, 0));
        assert_eq!(
            ctl.verify_stats().collect::<Vec<_>>().len(),
            1,
            "per-FID verify accounting recorded"
        );
    }

    #[test]
    fn repeat_admission_hits_the_verify_cache() {
        let (mut rt, mut ctl) = setup();
        let program = cache_program();
        // First admission proves the (program, shape) pair from scratch.
        ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            0,
        );
        assert_eq!(ctl.optimizer_cache_stats(), (0, 1));
        // Release and re-admit: the deterministic allocator re-derives
        // the same placement, so the cached verdict short-circuits the
        // proof.
        ctl.handle_deallocate(&mut rt, 1, 1_000).unwrap();
        ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            2_000,
        );
        assert_eq!(ctl.optimizer_cache_stats(), (1, 1));
        assert_eq!(ctl.verify_counts(), (2, 0), "both admissions accepted");
        // A different program over the same shape must miss: the
        // digest half of the key changes with the instruction stream.
        ctl.handle_deallocate(&mut rt, 1, 3_000).unwrap();
        let other = hashed_probe_program();
        ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&other),
            4_000,
        );
        let (hits, misses) = ctl.optimizer_cache_stats();
        assert_eq!((hits, misses), (1, 2), "new digest misses");
        // The rejected probe's verdict is not cached: re-asking re-runs
        // the proof (and is rejected again).
        ctl.handle_request_with_program(
            &mut rt,
            2,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&other),
            5_000,
        );
        assert_eq!(ctl.optimizer_cache_stats(), (1, 3));
        assert_eq!(ctl.verify_counts(), (2, 2));
    }

    #[test]
    fn verifier_rejects_hashed_probe_and_rolls_back() {
        let (mut rt, mut ctl) = setup();
        let program = hashed_probe_program();
        let acts = ctl.handle_request_with_program(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&program),
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond {
            regions, failed, ..
        } = resp
        {
            assert!(failed, "an unmasked hashed probe must be refused");
            assert!(regions.is_empty());
        }
        assert_eq!(ctl.verify_counts(), (0, 1));
        // Rollback: no protection entries survive, the controller is
        // idle, and the same FID can immediately be admitted again.
        assert_eq!(rt.protection().total_entries(), 0);
        assert!(!ctl.busy());
        let acts = ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        let resp = respond_of(&acts, 1).expect("a response");
        if let ControllerAction::Respond { failed, .. } = resp {
            assert!(!failed, "the slot is free again after the rollback");
        }
    }

    #[test]
    fn rejected_grant_regrows_its_victims() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let before = rt.protection().total_entries();
        // The 4th cache shares stages with an incumbent, so its grant
        // shrinks victims — all of which must regrow when the verifier
        // refuses the newcomer's program.
        let acts = ctl.handle_request_with_program(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            Some(&hashed_probe_program()),
            1000,
        );
        let resp = respond_of(&acts, 4).expect("a response");
        if let ControllerAction::Respond { failed, .. } = resp {
            assert!(failed);
        }
        assert_eq!(ctl.verify_counts(), (0, 1));
        assert!(!ctl.busy(), "no snapshot round for a refused grant");
        assert_eq!(
            rt.protection().total_entries(),
            before,
            "victim regions restored to their pre-request shape"
        );
        for fid in 1..=3u16 {
            assert!(
                !rt.protection().stages_of(fid).is_empty(),
                "incumbent {fid} still resident"
            );
        }
    }

    #[test]
    fn deallocate_purges_a_queued_request_before_it_starts() {
        let (mut rt, mut ctl) = setup();
        let (victim, _) = start_realloc(&mut rt, &mut ctl);
        // FID 5 queues behind the busy reallocation, then departs
        // before its request ever starts.
        ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            10,
        );
        assert_eq!(ctl.queue_len(), 1);
        let acts = ctl.handle_deallocate(&mut rt, 5, 20).unwrap();
        assert!(acts.is_empty(), "nothing to tear down: it never started");
        assert_eq!(ctl.queue_len(), 0, "the queued request is purged");
        // Finishing the reallocation must not resurrect the departed
        // FID as a phantom tenant.
        let fence = ctl.pending_fence().unwrap();
        let acts = ctl.handle_snapshot_complete_fenced(&mut rt, victim, fence, 2000);
        assert!(
            respond_of(&acts, 5).is_none(),
            "a departed FID must not be admitted from the queue"
        );
        assert!(!ctl.allocator().contains(5));
        assert!(rt.protection().stages_of(5).is_empty());
    }

    #[test]
    fn late_snapshot_complete_after_timeout_is_fenced_out() {
        let (mut rt, mut ctl) = setup();
        let (old_victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        let old_fence = ctl.pending_fence().unwrap();
        // The victim never answers; the deadline forces completion.
        let deadline = sent_ns + SwitchConfig::default().snapshot_timeout_ns + 1;
        ctl.poll(&mut rt, deadline);
        assert!(!ctl.busy());
        // A new request starts a NEW round (possibly re-victimizing the
        // same FID) under a fresh fence token.
        let acts = ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            deadline + 10,
        );
        let new_victims: Vec<(Fid, u16)> = acts
            .iter()
            .filter_map(|a| match a {
                ControllerAction::Deactivate { fid, fence, .. } => Some((*fid, *fence)),
                _ => None,
            })
            .collect();
        assert!(!new_victims.is_empty(), "the 5th cache must evict");
        let new_fence = ctl.pending_fence().unwrap();
        assert_ne!(old_fence, new_fence);
        // The abandoned round's completion finally limps in: it must be
        // rejected, not counted against the round now in flight.
        let acts =
            ctl.handle_snapshot_complete_fenced(&mut rt, old_victim, old_fence, deadline + 20);
        assert!(acts.is_empty());
        assert!(ctl.busy(), "the new round still owes its snapshots");
        assert_eq!(ctl.stale_epoch_rejects(), 1);
        // The new round's own completions proceed normally.
        for (vfid, fence) in new_victims {
            ctl.handle_snapshot_complete_fenced(&mut rt, vfid, fence, deadline + 30);
        }
        assert!(!ctl.busy());
    }

    #[test]
    fn reactivate_ack_with_a_stale_fence_is_rejected() {
        let (mut rt, mut ctl) = setup();
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        let fence = ctl.pending_fence().unwrap();
        ctl.handle_snapshot_complete_fenced(&mut rt, victim, fence, sent_ns + 100);
        let fence = ctl.unacked_fence(victim).unwrap();
        ctl.handle_reactivate_ack_fenced(victim, fence.wrapping_sub(1), sent_ns + 200);
        assert_eq!(
            ctl.unacked_reactivations(),
            1,
            "a stale ack must not end the reactivation retry loop"
        );
        assert_eq!(ctl.stale_epoch_rejects(), 1);
        ctl.handle_reactivate_ack_fenced(victim, fence, sent_ns + 300);
        assert_eq!(ctl.unacked_reactivations(), 0);
    }

    #[test]
    fn recover_replays_the_oplog_to_an_equivalent_controller() {
        let cfg = SwitchConfig::default();
        let mut rt = SwitchRuntime::new(cfg);
        let mut ctl = Controller::new(&cfg, Scheme::WorstFit);
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        // A full history: three admissions, an eviction round carried
        // to completion, a departure, then a round left in flight.
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts = ctl.handle_request(
            &mut rt,
            4,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            100,
        );
        let victim = acts
            .iter()
            .find_map(|a| match a {
                ControllerAction::Deactivate { fid, .. } => Some(*fid),
                _ => None,
            })
            .unwrap();
        ctl.handle_snapshot_complete_fenced(&mut rt, victim, ctl.pending_fence().unwrap(), 1_000);
        ctl.handle_reactivate_ack_fenced(victim, ctl.unacked_fence(victim).unwrap(), 0);
        ctl.handle_deallocate(&mut rt, 2, 2_000).unwrap();
        ctl.handle_request(
            &mut rt,
            5,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            3_000,
        );

        let rec = Controller::recover(&log, &cfg, Scheme::WorstFit);
        for fid in [1u16, 3, 4, 5] {
            assert_eq!(
                rec.allocator().app_blocks(fid),
                ctl.allocator().app_blocks(fid),
                "grant for fid {fid} must survive the crash exactly"
            );
        }
        assert!(!rec.allocator().contains(2), "departures replay too");
        assert_eq!(rec.busy(), ctl.busy());
        assert_eq!(
            rec.pending_fence(),
            ctl.pending_fence(),
            "in-flight round tokens are reproduced, so live clients stay valid"
        );
        assert_eq!(rec.pending_victims(), ctl.pending_victims());
        assert_eq!(rec.queue_len(), ctl.queue_len());
        assert_eq!(rec.unacked_fids(), ctl.unacked_fids());
        let before: Vec<_> = ctl
            .granted_regions()
            .map(|(f, r)| (f, r.to_vec()))
            .collect();
        let after: Vec<_> = rec
            .granted_regions()
            .map(|(f, r)| (f, r.to_vec()))
            .collect();
        assert_eq!(before, after, "the admission ledger replays verbatim");
        // The recovered controller runs one epoch past the log's
        // highest, and commits that so epochs rise across re-crashes.
        assert_eq!(rec.epoch(), 1);
        assert_eq!(log.last_epoch(), 1);
        let rec2 = Controller::recover(&log, &cfg, Scheme::WorstFit);
        assert_eq!(rec2.epoch(), 2);
    }

    #[test]
    fn reconcile_scrubs_orphans_and_reinstalls_missing_entries() {
        let (mut rt, mut ctl) = setup();
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        ctl.handle_migrate_out(&mut rt, 3, 7, 0).unwrap();
        let cfg = SwitchConfig::default();
        let mut rec = Controller::recover(&log, &cfg, Scheme::WorstFit);
        // Simulated divergence in the live plane that survived the
        // crash: FID 1 lost a protection entry, departed FID 9 left an
        // orphan behind, FID 2 is inexplicably quiesced, and migrating
        // FID 3 lost its quiesce.
        let (stage, region) = rec
            .granted_regions()
            .find(|(f, _)| *f == 1)
            .map(|(_, rs)| rs[0])
            .unwrap();
        rt.remove_region(stage, 1);
        rt.install_region(stage, 9, region);
        rt.deactivate(2);
        rt.reactivate(3);
        // Reconcile is converge over every known FID: its repairs are
        // exactly the diff converge finds, kind by kind.
        let diff = rec.converge(&mut rt.clone(), &rec.known_fids(&rt));
        let acts = rec.reconcile(&mut rt, 10_000);
        assert!(
            matches!(acts[..], [ControllerAction::Deactivate { fid: 3, .. }]),
            "only the migration's quiesce is re-signalled: {acts:?}"
        );
        let stats = rec.recovery_stats();
        assert_eq!(diff.installed, vec![1]);
        assert_eq!(diff.removed, vec![9]);
        assert_eq!(diff.quiesced, vec![3]);
        assert_eq!(diff.resumed, vec![2]);
        assert_eq!(
            stats,
            RecoveryStats {
                reinstalled_entries: diff.installed.len() as u64,
                scrubbed_entries: diff.removed.len() as u64,
                scrubbed_decode: 0,
                requiesced: diff.quiesced.len() as u64,
                reactivated_strays: diff.resumed.len() as u64,
                resent_signals: 1,
            }
        );
        assert!(rt.protection().lookup(stage, 1).is_some(), "entry restored");
        assert!(rt.protection().stages_of(9).is_empty(), "orphan scrubbed");
        assert!(!rt.is_deactivated(2), "stray quiesce resumed");
        assert!(rt.is_deactivated(3), "migration quiesce restored");
        assert_eq!(rec.recoveries(), 1);
        // A second pass finds a coherent plane: zero further repairs.
        let repairs_after_first = rec.recovery_stats().total();
        rec.reconcile(&mut rt, 20_000);
        assert_eq!(
            rec.recovery_stats().total(),
            repairs_after_first + 1,
            "reconciliation must be idempotent (the one extra repair is \
             the migration's re-sent signal)"
        );
    }

    #[test]
    fn converge_is_idempotent() {
        let (mut rt, mut ctl) = setup();
        for fid in 1..=4 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        assert!(ctl.busy(), "the 4th admission has victims to quiesce");
        let fids = ctl.known_fids(&rt);
        // The handlers left the live plane converged.
        assert_eq!(ctl.converge(&mut rt, &fids), Converged::default());
        // A blank plane gets every entry and every quiesce once...
        let mut blank = SwitchRuntime::new(SwitchConfig::default());
        let first = ctl.converge(&mut blank, &fids);
        assert!(!first.installed.is_empty());
        assert_eq!(first.quiesced, ctl.pending_victims());
        assert!(first.removed.is_empty() && first.resumed.is_empty());
        // ...and a second converge touches nothing.
        assert_eq!(ctl.converge(&mut blank, &fids), Converged::default());
        for fid in 1..=3 {
            assert_eq!(
                blank.protection().stages_of(fid),
                rt.protection().stages_of(fid)
            );
        }
    }

    #[test]
    fn log_after_action_bug_loses_the_last_transition() {
        let (mut rt, mut ctl) = setup();
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        ctl.inject_seeded_bug(SeededBug::LogAfterAction);
        ctl.handle_request(
            &mut rt,
            1,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            0,
        );
        // The grant escaped to the network, but its record is still
        // buffered: a crash here loses the committed transition.
        assert!(log.is_empty(), "the write-behind bug defers the record");
        // Each later transition flushes the one before it — the log
        // permanently trails reality by one record.
        ctl.handle_request(
            &mut rt,
            2,
            cache_pattern(),
            MutantPolicy::MostConstrained,
            10,
        );
        assert_eq!(log.len(), 1);
        let cfg = SwitchConfig::default();
        let rec = Controller::recover(&log, &cfg, Scheme::WorstFit);
        assert!(
            ctl.allocator().contains(2),
            "the live controller granted it"
        );
        assert!(
            !rec.allocator().contains(2),
            "the recovered controller never heard of the latest grant"
        );
        assert!(rec.allocator().contains(1), "the flushed record did replay");
    }

    /// Admit three caches, then a fourth and three more behind it, and
    /// carry the rounds through until one FID owes two signals at once:
    /// round N's Reactivate (not yet acked) and round N+1's Deactivate.
    /// The snapshot that ends a round admits the next queued request in
    /// the same call, so the FID it reactivates can be re-victimized
    /// before its ack arrives.
    fn two_signals_owed(rt: &mut SwitchRuntime, ctl: &mut Controller) {
        for fid in 1..=4 {
            ctl.handle_request(rt, fid, cache_pattern(), MutantPolicy::MostConstrained, 0);
        }
        for fid in 5..=7 {
            ctl.handle_request(rt, fid, cache_pattern(), MutantPolicy::MostConstrained, 10);
        }
        let mut now = 2_000;
        while !ctl
            .pending_victims()
            .iter()
            .any(|v| ctl.unacked_fids().contains(v))
        {
            let fence = ctl.pending_fence().expect("a round must stay in flight");
            for v in ctl.pending_waiting() {
                ctl.handle_snapshot_complete_fenced(rt, v, fence, now);
                now += 1;
            }
        }
    }

    #[test]
    fn a_fid_owing_two_signals_gets_both_resent_deactivates_first() {
        let (mut rt, mut ctl) = setup();
        two_signals_owed(&mut rt, &mut ctl);
        assert_eq!(ctl.pending_victims(), vec![1, 4]);
        assert_eq!(ctl.unacked_fids(), vec![1, 2, 3]);
        let round = ctl.pending_fence().unwrap();
        assert_ne!(ctl.unacked_fence(1), Some(round));
        // Deactivates first, then Respond+Reactivate pairs, each group
        // in FID order, all stamped with the re-send time.
        let expected = |ctl: &Controller, at_ns: u64| {
            let mut acts: Vec<ControllerAction> = [1, 4]
                .map(|fid| ControllerAction::Deactivate {
                    fid,
                    at_ns,
                    fence: round,
                })
                .into();
            for fid in [1, 2, 3] {
                acts.push(ControllerAction::Respond {
                    fid,
                    regions: ctl.regions_of(fid).unwrap().to_vec(),
                    failed: false,
                    at_ns,
                });
                acts.push(ControllerAction::Reactivate {
                    fid,
                    at_ns,
                    fence: ctl.unacked_fence(fid).unwrap(),
                });
            }
            acts
        };
        // Every signal went out by 2.41 ms: at 3 ms all five are due.
        assert_eq!(ctl.poll(&mut rt, 3_000_000), expected(&ctl, 3_000_000));
        assert_eq!(ctl.resent_signals(), 5);
        assert!(ctl.poll(&mut rt, 3_100_000).is_empty(), "not due again yet");
        // Reconciliation re-sends all of them regardless of the interval.
        assert_eq!(ctl.reconcile(&mut rt, 3_200_000), expected(&ctl, 3_200_000));
        assert_eq!(ctl.recovery_stats().resent_signals, 5);
        assert_eq!(ctl.resent_signals(), 5, "reconcile counts apart from poll");
    }

    #[test]
    fn completions_during_a_round_are_fenced_and_logged_once() {
        let (mut rt, mut ctl) = setup();
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        two_signals_owed(&mut rt, &mut ctl);
        let round = ctl.pending_fence().unwrap();
        // FID 2 is no victim of this round; its completion echoing its
        // own older fence is stale all the same.
        let stale = ctl.unacked_fence(2).unwrap();
        assert_ne!(stale, round);
        assert!(ctl
            .handle_snapshot_complete_fenced(&mut rt, 2, stale, 3_000)
            .is_empty());
        assert_eq!(ctl.stale_epoch_rejects(), 1);
        // A matching completion from a non-victim is neither stale nor
        // logged.
        let records = log.len();
        ctl.handle_snapshot_complete_fenced(&mut rt, 2, round, 3_000);
        assert_eq!((ctl.stale_epoch_rejects(), log.len()), (1, records));
        // Victim 1's completion is logged once; its duplicate is not.
        ctl.handle_snapshot_complete_fenced(&mut rt, 1, round, 3_010);
        assert_eq!(log.len(), records + 1);
        ctl.handle_snapshot_complete_fenced(&mut rt, 1, round, 3_020);
        assert_eq!(log.len(), records + 1);
        assert_eq!(ctl.stale_epoch_rejects(), 1);
        assert_eq!(ctl.pending_waiting(), vec![4]);
    }

    #[test]
    fn a_migration_completion_after_its_ack_is_a_noop_or_stale() {
        let (mut rt, mut ctl) = setup();
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        for fid in 1..=3 {
            ctl.handle_request(
                &mut rt,
                fid,
                cache_pattern(),
                MutantPolicy::MostConstrained,
                0,
            );
        }
        let acts = ctl.handle_migrate_out(&mut rt, 3, 7, 0).unwrap();
        let [ControllerAction::Deactivate { fence, .. }] = acts[..] else {
            panic!("one Deactivate: {acts:?}");
        };
        // Unacked, the quiesce is re-signalled on the interval.
        assert_eq!(ctl.poll(&mut rt, 600_000).len(), 1);
        ctl.handle_snapshot_complete_fenced(&mut rt, 3, fence, 700_000);
        assert!(ctl.migration_snapshot_acked(3));
        let records = log.len();
        // After the ack: the matching fence changes nothing, another
        // fence is stale.
        ctl.handle_snapshot_complete_fenced(&mut rt, 3, fence, 800_000);
        assert_eq!((log.len(), ctl.stale_epoch_rejects()), (records, 0));
        ctl.handle_snapshot_complete_fenced(&mut rt, 3, fence.wrapping_add(1), 800_000);
        assert_eq!((log.len(), ctl.stale_epoch_rejects()), (records, 1));
        // Re-entering answers with the Deactivate but re-arms nothing.
        let again = ctl.handle_migrate_out(&mut rt, 3, 7, 900_000).unwrap();
        assert_eq!(
            again,
            vec![ControllerAction::Deactivate {
                fid: 3,
                at_ns: 900_000,
                fence
            }]
        );
        assert!(ctl.poll(&mut rt, 2_000_000).is_empty());
        assert!(ctl.migration_snapshot_acked(3));
    }

    #[test]
    fn an_exhausted_reactivation_is_abandoned_and_replays() {
        let (mut rt, mut ctl) = setup();
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        let (victim, sent_ns) = start_realloc(&mut rt, &mut ctl);
        let fence = ctl.pending_fence().unwrap();
        let acts = ctl.handle_snapshot_complete_fenced(&mut rt, victim, fence, sent_ns);
        let reactivated_ns = acts
            .iter()
            .find_map(|a| match a {
                ControllerAction::Reactivate { at_ns, .. } => Some(*at_ns),
                _ => None,
            })
            .unwrap();
        // Fifty re-sends, one per interval, then the budget is spent.
        let mut now = reactivated_ns;
        for _ in 0..50 {
            now += 500_000;
            assert_eq!(ctl.poll(&mut rt, now).len(), 2, "Respond + Reactivate");
        }
        assert_eq!(ctl.unacked_fids(), vec![victim]);
        now += 500_000;
        assert!(ctl.poll(&mut rt, now).is_empty());
        assert_eq!(ctl.unacked_reactivations(), 0);
        assert_eq!(ctl.abandoned_reactivations(), 1);
        assert!(matches!(
            log.records().last(),
            Some(OpRecord::Abandon { fid, now_ns }) if *fid == victim && *now_ns == now
        ));
        // Another FID still owes its ack when the controller crashes.
        let other = if victim == 2 { 1 } else { 2 };
        ctl.handle_migrate_out(&mut rt, other, 7, now).unwrap();
        ctl.handle_migrate_abort(&mut rt, other, now + 1);
        assert_eq!(ctl.unacked_fids(), vec![other]);
        let rec = Controller::recover(&log, &SwitchConfig::default(), Scheme::WorstFit);
        assert_eq!(rec.unacked_fids(), ctl.unacked_fids());
        assert_eq!(rec.unacked_fence(other), ctl.unacked_fence(other));
        assert_eq!(rec.abandoned_reactivations(), 1);
    }
}
