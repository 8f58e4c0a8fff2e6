//! The small-scope model: a concrete controller + runtime world whose
//! transitions are the *real* control-plane entry points.
//!
//! Following the small-scope hypothesis (a protocol bug almost always
//! has a small witness), the model shrinks the switch to 2–3 stages
//! and a handful of blocks per stage, and drives it with 2–4
//! applications whose access patterns force every interesting shape:
//! elastic sharing, inelastic pinning below the frontier, verified and
//! legacy (unverified) admissions, and a verifier-rejected rollback.
//!
//! ## Time abstraction
//!
//! Virtual time advances by a fixed step per transition that exceeds
//! the controller's resend interval, so every poll while a signal is
//! outstanding re-sends it; the snapshot deadline (seconds away) is
//! unreachable within any bounded horizon except through the explicit
//! [`Event::Stall`] transition, which jumps straight to it. State
//! fingerprints therefore soundly exclude timestamps: two states that
//! differ only in `now_ns` enable the same behaviors.
//!
//! ## Fault model
//!
//! In-flight control signals (Deactivate, Reactivate) live in a
//! multiset channel. A [`FaultBudget`] — derivable from a net-layer
//! `FaultPlan` — bounds how many drops, duplications, and controller
//! stalls the explorer may inject; corruption and truncation faults
//! are folded into drops (at this layer a frame that fails to parse is
//! a frame that never arrived). In-flight copies of the same signal
//! are capped at two: delivery is idempotent, so a third copy is
//! behaviorally indistinguishable from the second.

use crate::invariants::Violation;
use crate::recovery::{check_recovery, RecoveryFingerprint};
use activermt_core::alloc::{AccessPattern, MutantPolicy, Scheme};
use activermt_core::types::Fid;
use activermt_core::{Controller, OpLog, SwitchConfig, SwitchRuntime};
use activermt_isa::wire::build_program_packet;
use activermt_isa::{Opcode, Program, ProgramBuilder};
use std::collections::BTreeMap;
use std::fmt;

/// Virtual-time step per transition: longer than the controller's
/// resend interval (500 µs), vastly shorter than the snapshot timeout.
pub const STEP_NS: u64 = 600_000;

/// At most this many in-flight copies of one control signal are
/// tracked (delivery is idempotent; more are indistinguishable).
pub const MAX_SIGNAL_COPIES: u32 = 2;

/// One modeled application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Its flow identifier.
    pub fid: Fid,
    /// Short name for traces.
    pub name: &'static str,
    /// The access pattern it requests with.
    pub pattern: AccessPattern,
    /// Bytecode shipped with the request (`None` = legacy path).
    pub program: Option<Program>,
    /// The verifier must refuse this program (rollback coverage).
    pub expect_reject: bool,
}

/// The model's dimensions: switch geometry plus the application mix.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Scope name for reports.
    pub name: &'static str,
    /// Logical pipeline stages (2–3).
    pub stages: usize,
    /// Memory blocks per stage (4–8).
    pub blocks_per_stage: u32,
    /// The applications driving the model.
    pub apps: Vec<AppSpec>,
}

/// A provably safe single-access program: load an argument into MAR,
/// read, return. Matches `small_pattern()`.
pub(crate) fn small_program() -> Program {
    ProgramBuilder::new()
        .op_arg(Opcode::MAR_LOAD, 0)
        .op(Opcode::MEM_READ)
        .op(Opcode::RETURN)
        .build()
        .expect("small program builds")
}

/// A program the verifier must refuse: a raw, unmasked hash as the
/// memory address. Shape-compatible with `small_pattern()`.
fn probe_program() -> Program {
    ProgramBuilder::new()
        .op(Opcode::HASH)
        .op(Opcode::MEM_READ)
        .op(Opcode::RETURN)
        .build()
        .expect("probe program builds")
}

/// One elastic memory access at instruction position 2 of a 3-word
/// program — in a 3-stage pipeline every app lands in the same stage,
/// which is exactly the contention the reallocation protocol exists
/// for.
pub(crate) fn small_pattern(elastic: bool, demand: u16) -> AccessPattern {
    AccessPattern {
        min_positions: vec![2],
        demands: vec![demand],
        prog_len: 3,
        elastic,
        ingress_positions: vec![],
        aliases: vec![],
    }
}

impl Scope {
    /// The default small scope: 3 stages × 4 blocks, two elastic apps
    /// (one legacy, one verified) plus a verifier-rejected probe.
    pub fn small() -> Scope {
        Scope {
            name: "small",
            stages: 3,
            blocks_per_stage: 4,
            apps: vec![
                AppSpec {
                    fid: 1,
                    name: "alpha",
                    pattern: small_pattern(true, 0),
                    program: None,
                    expect_reject: false,
                },
                AppSpec {
                    fid: 2,
                    name: "beta",
                    pattern: small_pattern(true, 0),
                    program: Some(small_program()),
                    expect_reject: false,
                },
                AppSpec {
                    fid: 4,
                    name: "probe",
                    pattern: small_pattern(true, 0),
                    program: Some(probe_program()),
                    expect_reject: true,
                },
            ],
        }
    }

    /// The medium scope adds an inelastic app (frontier movement) and
    /// more blocks per stage.
    pub fn medium() -> Scope {
        let mut s = Scope::small();
        s.name = "medium";
        s.blocks_per_stage = 8;
        s.apps.insert(
            2,
            AppSpec {
                fid: 3,
                name: "gamma",
                pattern: small_pattern(false, 2),
                program: None,
                expect_reject: false,
            },
        );
        s
    }

    /// Resolve a scope by name.
    pub fn by_name(name: &str) -> Option<Scope> {
        match name {
            "small" => Some(Scope::small()),
            "medium" => Some(Scope::medium()),
            _ => None,
        }
    }

    /// The switch configuration this scope models.
    pub fn switch_config(&self) -> SwitchConfig {
        SwitchConfig {
            num_stages: self.stages,
            ingress_stages: self.stages,
            regs_per_stage: (self.blocks_per_stage * 32) as usize,
            block_regs: 32,
            tcam_entries_per_stage: 64,
            ..SwitchConfig::default()
        }
    }
}

/// An in-flight control signal from the controller to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Msg {
    /// "Quiesce and snapshot your state" — delivery makes the client
    /// snapshot and answer with snapshot-complete.
    Deactivate(Fid),
    /// "Resume on your new regions" — delivery makes the client ack.
    Reactivate(Fid),
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::Deactivate(fid) => write!(f, "Deactivate({fid})"),
            Msg::Reactivate(fid) => write!(f, "Reactivate({fid})"),
        }
    }
}

/// How many faults the explorer may still inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBudget {
    /// Control signals that may be silently dropped (corruption and
    /// truncation fold in here: an unparseable frame never arrived).
    pub drops: u32,
    /// Control signals that may be duplicated.
    pub duplicates: u32,
    /// Controller stalls (virtual time jumps to the snapshot deadline).
    pub stalls: u32,
    /// Controller crash/replay/reconcile cycles the explorer may
    /// inject.
    pub crashes: u32,
    /// Data-network frame corruptions (fabric scope only: a memsync
    /// replay frame's payload is bit-flipped in flight; at the
    /// single-switch control-signal layer corruption folds into
    /// `drops`, since an unparseable frame never arrived).
    pub corruptions: u32,
}

impl FaultBudget {
    /// No faults: explore only the fault-free interleavings.
    pub fn none() -> FaultBudget {
        FaultBudget {
            drops: 0,
            duplicates: 0,
            stalls: 0,
            crashes: 0,
            corruptions: 0,
        }
    }

    /// The default adversary: enough budget to hit every recovery path.
    pub fn default_adversary() -> FaultBudget {
        FaultBudget {
            drops: 2,
            duplicates: 1,
            stalls: 1,
            crashes: 1,
            corruptions: 1,
        }
    }

    /// Crash license only: for mutation tests targeting the op-log
    /// discipline, where other faults just dilute the search.
    pub fn crashes_only(crashes: u32) -> FaultBudget {
        FaultBudget {
            crashes,
            ..FaultBudget::none()
        }
    }

    /// Derive a budget from the fault classes a `FaultPlan` (in
    /// `activermt-net`) enables: loss/corruption/truncation all grant
    /// drop license (an unparseable frame never arrived), duplication
    /// grants duplicate license, controller stalls grant stall
    /// license. Takes booleans rather than the plan itself so this
    /// crate stays below `activermt-net` in the dependency graph.
    /// Crash license comes separately (see
    /// [`FaultBudget::crashes_only`] or set the field directly).
    pub fn from_fault_classes(lossy: bool, duplicating: bool, stalling: bool) -> FaultBudget {
        FaultBudget {
            drops: if lossy { 2 } else { 0 },
            duplicates: if duplicating { 1 } else { 0 },
            stalls: if stalling { 1 } else { 0 },
            crashes: 0,
            corruptions: if lossy { 1 } else { 0 },
        }
    }
}

/// One transition of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An application (re)sends its allocation request.
    Request(Fid),
    /// A resident application relinquishes its memory.
    Deallocate(Fid),
    /// Deliver one in-flight control signal.
    Deliver(Msg),
    /// Drop one in-flight control signal (fault, consumes budget).
    Drop(Msg),
    /// Duplicate one in-flight control signal (fault, consumes budget).
    Duplicate(Msg),
    /// The controller's periodic poll runs.
    Poll,
    /// The controller stalls past the snapshot deadline, then polls
    /// (fault, consumes budget).
    Stall,
    /// A resident application sends one program packet through the
    /// data plane (populates the decode cache).
    Packet(Fid),
    /// The controller process dies and is rebuilt from its op-log,
    /// then reconciles the surviving data plane (fault, consumes
    /// budget). Recovery invariants I10–I12 are checked against the
    /// pre-crash fingerprint and staged on the world.
    CrashRecover,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Request(fid) => write!(f, "request(fid {fid})"),
            Event::Deallocate(fid) => write!(f, "deallocate(fid {fid})"),
            Event::Deliver(m) => write!(f, "deliver {m}"),
            Event::Drop(m) => write!(f, "DROP {m}"),
            Event::Duplicate(m) => write!(f, "DUPLICATE {m}"),
            Event::Poll => write!(f, "poll"),
            Event::Stall => write!(f, "STALL until snapshot deadline, then poll"),
            Event::Packet(fid) => write!(f, "data packet(fid {fid})"),
            Event::CrashRecover => write!(f, "CRASH controller, replay op-log, reconcile"),
        }
    }
}

/// A named controller/runtime bug that can be seeded into a [`World`]
/// for mutation testing: the checker must catch every one of these
/// with a counterexample, or its invariants are vacuous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The newcomer's protection entry is installed one block wider
    /// than its grant (breaks isolation: I1/I3).
    OverlappingGrant,
    /// Deallocation forgets to remove the protection entry in the
    /// first stage (residue: I3/I5).
    DeallocLeaksEntry,
    /// A verifier rejection forgets to roll back the provisional grant
    /// (phantom tenant: I3, ledger: I9).
    RollbackLeak,
    /// Reactivation updates bookkeeping but never re-enables the
    /// victim's tables (stuck quiesce: I4/I6).
    AckLessReactivation,
    /// The runtime stops invalidating decode-cache entries when
    /// regions change (stale fast path: I8).
    StaleDecodeEntry,
    /// The op-log record is written *after* the action escapes (a
    /// write-behind log): a crash loses the last committed transition,
    /// so replay diverges from the state clients observed (I10/I11).
    /// Needs crash budget to surface.
    LogAfterAction,
}

impl Mutation {
    /// Every mutation, for exhaustive mutation-testing sweeps.
    pub fn all() -> [Mutation; 6] {
        [
            Mutation::OverlappingGrant,
            Mutation::DeallocLeaksEntry,
            Mutation::RollbackLeak,
            Mutation::AckLessReactivation,
            Mutation::StaleDecodeEntry,
            Mutation::LogAfterAction,
        ]
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::OverlappingGrant => "overlapping-grant",
            Mutation::DeallocLeaksEntry => "dealloc-leaks-entry",
            Mutation::RollbackLeak => "rollback-leak",
            Mutation::AckLessReactivation => "ackless-reactivation",
            Mutation::StaleDecodeEntry => "stale-decode-entry",
            Mutation::LogAfterAction => "log-after-action",
        }
    }

    /// The smallest fault budget under which this mutation can surface
    /// (op-log bugs are invisible until a crash consumes them).
    pub fn minimal_budget(self) -> FaultBudget {
        match self {
            Mutation::LogAfterAction => FaultBudget::crashes_only(1),
            _ => FaultBudget::none(),
        }
    }
}

/// A concrete model state: the real controller and runtime, the
/// in-flight signal channel, and the remaining fault budget.
#[derive(Debug, Clone)]
pub struct World {
    /// The real control plane under test.
    pub ctl: Controller,
    /// The real data plane under test.
    pub rt: SwitchRuntime,
    /// In-flight control signals (multiset, counts capped).
    pub channel: BTreeMap<Msg, u32>,
    /// Remaining fault license.
    pub budget: FaultBudget,
    /// Virtual time.
    pub now_ns: u64,
    scope: Scope,
    /// The seeded mutation, if any — re-seeded into a recovered
    /// controller, since recovery rebuilds state, not code.
    seeded: Option<Mutation>,
    /// Recovery-invariant violations (I10–I12) staged by the last
    /// [`Event::CrashRecover`]; surfaced through [`World::check`].
    recovery_violations: Vec<Violation>,
}

impl World {
    /// The initial state: empty switch, empty channel, full budget.
    /// The controller keeps a write-ahead op-log from birth, so a
    /// [`Event::CrashRecover`] can rebuild it at any point.
    pub fn new(scope: Scope, budget: FaultBudget) -> World {
        let cfg = scope.switch_config();
        let mut ctl = Controller::new(&cfg, Scheme::WorstFit);
        ctl.attach_oplog(OpLog::new());
        World {
            ctl,
            rt: SwitchRuntime::new(cfg),
            channel: BTreeMap::new(),
            budget,
            now_ns: 0,
            scope,
            seeded: None,
            recovery_violations: Vec::new(),
        }
    }

    /// The scope this world models.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Every violation visible in this state: recovery-invariant
    /// violations staged by a crash/recover transition plus the
    /// structural invariants I1–I9.
    pub fn check(&self) -> Vec<Violation> {
        let mut out = self.recovery_violations.clone();
        out.extend(crate::invariants::check_invariants(&self.ctl, &self.rt));
        out
    }

    /// Seed one controller/runtime bug into this world (mutation
    /// testing: the explorer must then find a counterexample).
    pub fn inject(&mut self, m: Mutation) {
        self.seeded = Some(m);
        self.seed_into_controller(m);
    }

    fn seed_into_controller(&mut self, m: Mutation) {
        use activermt_core::SeededBug;
        match m {
            Mutation::OverlappingGrant => self.ctl.inject_seeded_bug(SeededBug::OverlappingGrant),
            Mutation::DeallocLeaksEntry => {
                self.ctl.inject_seeded_bug(SeededBug::DeallocLeaksEntry);
            }
            Mutation::RollbackLeak => self.ctl.inject_seeded_bug(SeededBug::RollbackLeak),
            Mutation::AckLessReactivation => {
                self.ctl.inject_seeded_bug(SeededBug::AckLessReactivation);
            }
            Mutation::StaleDecodeEntry => self.rt.seed_skip_decode_invalidation(true),
            Mutation::LogAfterAction => self.ctl.inject_seeded_bug(SeededBug::LogAfterAction),
        }
    }

    fn push_msg(&mut self, msg: Msg) {
        let n = self.channel.entry(msg).or_insert(0);
        *n = (*n + 1).min(MAX_SIGNAL_COPIES);
    }

    fn pop_msg(&mut self, msg: Msg) {
        if let Some(n) = self.channel.get_mut(&msg) {
            *n -= 1;
            if *n == 0 {
                self.channel.remove(&msg);
            }
        }
    }

    fn absorb(&mut self, acts: Vec<activermt_core::ControllerAction>) {
        use activermt_core::ControllerAction;
        for a in acts {
            match a {
                ControllerAction::Deactivate { fid, .. } => self.push_msg(Msg::Deactivate(fid)),
                ControllerAction::Reactivate { fid, .. } => self.push_msg(Msg::Reactivate(fid)),
                // Responses and reports terminate at the client; they
                // feed nothing back into the control plane.
                ControllerAction::Respond { .. } | ControllerAction::Report(_) => {}
            }
        }
    }

    /// The transitions enabled in this state, in a deterministic order.
    pub fn enabled(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for app in &self.scope.apps {
            out.push(Event::Request(app.fid));
        }
        for app in &self.scope.apps {
            if self.ctl.allocator().contains(app.fid) && !self.ctl.busy() {
                out.push(Event::Deallocate(app.fid));
            }
        }
        for &msg in self.channel.keys() {
            out.push(Event::Deliver(msg));
            if self.budget.drops > 0 {
                out.push(Event::Drop(msg));
            }
            if self.budget.duplicates > 0 {
                out.push(Event::Duplicate(msg));
            }
        }
        out.push(Event::Poll);
        if self.budget.stalls > 0 && self.ctl.busy() {
            out.push(Event::Stall);
        }
        if self.budget.crashes > 0 {
            out.push(Event::CrashRecover);
        }
        for app in &self.scope.apps {
            if app.program.is_some()
                && self.ctl.allocator().contains(app.fid)
                && !self.rt.is_deactivated(app.fid)
            {
                out.push(Event::Packet(app.fid));
            }
        }
        out
    }

    /// Apply one transition in place.
    pub fn apply(&mut self, ev: Event) {
        self.now_ns += STEP_NS;
        match ev {
            Event::Request(fid) => {
                let app = self
                    .scope
                    .apps
                    .iter()
                    .find(|a| a.fid == fid)
                    .cloned()
                    .expect("event references a scoped app");
                let acts = self.ctl.handle_request_with_program(
                    &mut self.rt,
                    fid,
                    app.pattern.clone(),
                    MutantPolicy::MostConstrained,
                    app.program.as_ref(),
                    self.now_ns,
                );
                self.absorb(acts);
            }
            Event::Deallocate(fid) => {
                if let Ok(acts) = self.ctl.handle_deallocate(&mut self.rt, fid, self.now_ns) {
                    self.absorb(acts);
                }
            }
            Event::Deliver(msg) => {
                self.pop_msg(msg);
                match msg {
                    Msg::Deactivate(fid) => {
                        // The client snapshots its (still readable) old
                        // regions and signals completion.
                        // Delivery here is trusted (no stale tokens in
                        // this world), so echo whatever fence is owed.
                        if let Some(fence) = self.ctl.pending_fence() {
                            let acts = self.ctl.handle_snapshot_complete_fenced(
                                &mut self.rt,
                                fid,
                                fence,
                                self.now_ns,
                            );
                            self.absorb(acts);
                        }
                    }
                    Msg::Reactivate(fid) => {
                        if let Some(fence) = self.ctl.unacked_fence(fid) {
                            self.ctl.handle_reactivate_ack_fenced(fid, fence, 0);
                        }
                    }
                }
            }
            Event::Drop(msg) => {
                self.pop_msg(msg);
                self.budget.drops -= 1;
            }
            Event::Duplicate(msg) => {
                self.push_msg(msg);
                self.budget.duplicates -= 1;
            }
            Event::Poll => {
                let acts = self.ctl.poll(&mut self.rt, self.now_ns);
                self.absorb(acts);
            }
            Event::Stall => {
                if let Some(deadline) = self.ctl.pending_deadline_ns() {
                    self.now_ns = self.now_ns.max(deadline);
                }
                self.budget.stalls -= 1;
                let acts = self.ctl.poll(&mut self.rt, self.now_ns);
                self.absorb(acts);
            }
            Event::CrashRecover => {
                self.budget.crashes -= 1;
                // The controller process dies: its in-memory state is
                // gone, only the op-log and the live data plane
                // survive. In-flight network signals are unaffected.
                let pre = RecoveryFingerprint::of(&self.ctl);
                let log = self
                    .ctl
                    .oplog()
                    .expect("model controllers always log")
                    .deep_clone();
                let cfg = self.scope.switch_config();
                self.ctl = Controller::recover(&log, &cfg, Scheme::WorstFit);
                // Recovery rebuilds state, not code: a seeded bug is in
                // the binary and survives the restart.
                if let Some(m) = self.seeded {
                    self.seed_into_controller(m);
                }
                let acts = self.ctl.reconcile(&mut self.rt, self.now_ns);
                self.recovery_violations = check_recovery(&pre, &self.ctl, &self.rt);
                self.absorb(acts);
            }
            Event::Packet(fid) => {
                let app = self
                    .scope
                    .apps
                    .iter()
                    .find(|a| a.fid == fid)
                    .expect("event references a scoped app");
                let program = app.program.as_ref().expect("packet apps carry programs");
                let frame = build_program_packet(
                    [2, 0, 0, 0, 0, 0xFF],
                    [2, 0, 0, 0, 0, fid as u8],
                    fid,
                    1,
                    program,
                    b"mc",
                );
                let _ = self.rt.process_frame_at(self.now_ns, frame);
            }
        }
    }

    /// A canonical fingerprint of the control-plane-relevant state.
    ///
    /// Timestamps and monotonic counters are deliberately excluded (see
    /// the module docs for why that is sound at bounded depth); what
    /// remains is exactly the state the invariants and the transition
    /// relation depend on.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes: Vec<u8> = Vec::with_capacity(256);
        let push16 = |bytes: &mut Vec<u8>, v: u16| bytes.extend_from_slice(&v.to_le_bytes());
        let push32 = |bytes: &mut Vec<u8>, v: u32| bytes.extend_from_slice(&v.to_le_bytes());

        let alloc = self.ctl.allocator();
        bytes.push(b'A');
        for (fid, _) in alloc.apps() {
            push16(&mut bytes, fid);
            for p in alloc.placements_of(fid) {
                push32(&mut bytes, p.stage as u32);
                push32(&mut bytes, p.range.start);
                push32(&mut bytes, p.range.len);
            }
        }
        bytes.push(b'P');
        let prot = self.rt.protection();
        for fid in prot.resident_fids() {
            for stage in 0..self.scope.stages {
                if let Some(e) = prot.lookup(stage, fid) {
                    push16(&mut bytes, fid);
                    push32(&mut bytes, stage as u32);
                    push32(&mut bytes, e.lo);
                    push32(&mut bytes, e.hi);
                }
            }
        }
        bytes.push(b'p');
        if let Some(fid) = self.ctl.pending_fid() {
            push16(&mut bytes, fid);
            for v in self.ctl.pending_waiting() {
                push16(&mut bytes, v);
            }
            bytes.push(b'/');
            for v in self.ctl.pending_victims() {
                push16(&mut bytes, v);
            }
        }
        bytes.push(b'q');
        for fid in self.ctl.queued_fids() {
            push16(&mut bytes, fid);
        }
        bytes.push(b'u');
        for fid in self.ctl.unacked_fids() {
            push16(&mut bytes, fid);
        }
        bytes.push(b'd');
        for fid in self.rt.deactivated_fids() {
            push16(&mut bytes, fid);
        }
        bytes.push(b'c');
        for fid in self.rt.decoded_fids() {
            push16(&mut bytes, fid);
        }
        bytes.push(b'm');
        for (msg, &n) in &self.channel {
            match msg {
                Msg::Deactivate(fid) => {
                    bytes.push(1);
                    push16(&mut bytes, *fid);
                }
                Msg::Reactivate(fid) => {
                    bytes.push(2);
                    push16(&mut bytes, *fid);
                }
            }
            push32(&mut bytes, n);
        }
        bytes.push(b'b');
        push32(&mut bytes, self.budget.drops);
        push32(&mut bytes, self.budget.duplicates);
        push32(&mut bytes, self.budget.stalls);
        push32(&mut bytes, self.budget.crashes);
        push32(&mut bytes, self.budget.corruptions);
        // A recovered state may otherwise collide with a pre-crash
        // state it happens to equal structurally; the epoch and any
        // staged recovery violations must keep it distinct, or dedup
        // would skip the very states the recovery invariants flag.
        bytes.push(b'e');
        push32(&mut bytes, self.ctl.epoch());
        bytes.push(b'v');
        for v in &self.recovery_violations {
            push16(&mut bytes, v.kind.code());
        }

        // FNV-1a, fixed basis: stable across runs and platforms
        // (std's SipHash is randomly keyed per process, which would
        // make exploration order nondeterministic).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl crate::explore::ModelWorld for World {
    type Event = Event;
    fn enabled(&self) -> Vec<Event> {
        World::enabled(self)
    }
    fn apply(&mut self, ev: Event) {
        World::apply(self, ev);
    }
    fn fingerprint(&self) -> u64 {
        World::fingerprint(self)
    }
    fn check(&self) -> Vec<Violation> {
        World::check(self)
    }
}
