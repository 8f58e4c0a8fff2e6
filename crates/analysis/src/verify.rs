//! The bounds / termination verifier: abstract interpretation of a
//! capsule program against a concrete allocation.
//!
//! What an instruction does to the abstract state is not written here:
//! [`verify`] runs the crate's one transfer function
//! ([`crate::dataflow::transfer_values`]) through the one forward sweep
//! ([`Cfg::sweep_forward`]), entered with the argument words narrowed by
//! the [`Assumptions`] and handed each translation's entry — the entry
//! of the stage its guarded access runs in, by the data plane's own
//! binding (`activermt_rmt::entry_stage`). Around each step it keeps
//! only its own checks: the argument-index check, the missing-translation
//! and missing-region checks, the access verdict with MAR clipped to the
//! region for the continuation, and branch-edge refinement between
//! steps; an instruction that faults on every execution stops
//! propagation. A termination pass bounds the worst-case pass count
//! against the recirculation cap. Failures are reported as [`Finding`]s;
//! for error findings the verifier searches for a concrete witness
//! argument vector and validates it against the concrete simulator
//! ([`crate::sim`]), which runs the data plane's own per-stage
//! semantics.
//!
//! ## Soundness policy
//!
//! The interval proof is unconditional: an access proven in-bounds can
//! never fault, whatever the packet contents. Two classes of accesses
//! are *assumed* safe under [`Assumptions`] flags (and reported as
//! `Note` findings so admission can count them):
//!
//! * [`ArgAssumption::LinkedAddress`] — an argument word the client
//!   contractually translates into the region before sending (the
//!   cache's directory probe: `CacheApp::get_frame` in `activermt-apps`
//!   sends `g.start + bucket`).
//!   The runtime's TCAM still drops an out-of-contract packet; the
//!   static proof is simply conditional on the client keeping its side.
//! * [`Assumptions::trust_memory_derived`] — addresses computed from
//!   values read out of the FID's own memory (the load balancer's
//!   page-table indirection). Safety depends on the control plane
//!   having seeded that memory with in-region values.
//!
//! A hashed address that was never re-bounded by `ADDR_MASK` is never
//! assumed safe: CRC output ranges over all 32 bits.

use crate::cfg::{Cfg, CfgError, EdgeKind};
use crate::dataflow::{mbr_zero_along, transfer_values, ValState};
use crate::domain::{AbsVal, Origin};
use crate::sim::simulate;
use activermt_isa::constants::NUM_ARGS;
use activermt_isa::wire::RegionEntry;
use activermt_isa::{next_access_distance, Instruction, Opcode};
use activermt_rmt::{entry_stage, ProtEntry};
use std::fmt;

/// What the verifier may assume about one argument word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgAssumption {
    /// Nothing: the word ranges over all 32 bits.
    Any,
    /// The word carries exactly this value (tests with a known frame).
    Exact(u32),
    /// The word lies in `[lo, hi]`.
    Range(u32, u32),
    /// The client links this word into the access's region before
    /// sending (as `CacheApp::get_frame` sends `g.start + bucket`);
    /// accesses addressed by it are *assumed* safe, not proven.
    LinkedAddress,
}

/// The assumption set a verification runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assumptions {
    /// Per-argument-word knowledge.
    pub args: [ArgAssumption; 4],
    /// Trust addresses derived from the FID's own memory contents
    /// (page-table indirection seeded by the control plane).
    pub trust_memory_derived: bool,
}

impl Assumptions {
    /// No assumptions: every acceptance is an unconditional proof.
    /// Used by the differential property tests.
    #[must_use]
    pub fn strict() -> Assumptions {
        Assumptions {
            args: [ArgAssumption::Any; 4],
            trust_memory_derived: false,
        }
    }

    /// The admission-time policy: argument words follow the client
    /// linking contract and control-plane-seeded memory is trusted.
    /// Hashed-unmasked addressing and provable escapes still reject.
    #[must_use]
    pub fn admission() -> Assumptions {
        Assumptions {
            args: [ArgAssumption::LinkedAddress; 4],
            trust_memory_derived: true,
        }
    }
}

/// Everything the verifier knows about the pipeline and allocation.
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    /// Logical stages per pass.
    pub num_stages: usize,
    /// Stages `0..ingress_stages` form the ingress pipeline.
    pub ingress_stages: usize,
    /// Recirculation cap (`None` = unlimited).
    pub max_recirculations: Option<u8>,
    /// Per-stage protection entry (`regions[stage]`), exactly as the
    /// data plane installs it for the allocation.
    pub regions: Vec<Option<ProtEntry>>,
    /// Assumption policy.
    pub assume: Assumptions,
}

impl AnalysisContext {
    /// A context with no allocated regions and strict assumptions.
    #[must_use]
    pub fn new(
        num_stages: usize,
        ingress_stages: usize,
        max_recirculations: Option<u8>,
    ) -> AnalysisContext {
        AnalysisContext {
            num_stages,
            ingress_stages,
            max_recirculations,
            regions: vec![None; num_stages],
            assume: Assumptions::strict(),
        }
    }

    /// Add (or replace) the region `[start, end)` allocated in `stage`
    /// (an empty one installs no entry, as in the data plane).
    #[must_use]
    pub fn with_region(mut self, stage: usize, start: u32, end: u32) -> AnalysisContext {
        self.regions[stage] = ProtEntry::from_region(RegionEntry { start, end });
        self
    }

    /// Set the assumption policy.
    #[must_use]
    pub fn with_assumptions(mut self, assume: Assumptions) -> AnalysisContext {
        self.assume = assume;
        self
    }

    /// The entry allocated in `stage`: what a memory access executing
    /// there is checked against, and what a translation guarding it
    /// applies.
    pub(crate) fn local_region(&self, stage: usize) -> Option<ProtEntry> {
        self.regions.get(stage).copied().flatten()
    }
}

/// Finding severity. `Error` rejects the program; `Warning` is a lint;
/// `Note` records an assumption the acceptance is conditional on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Records an assumption or informational fact.
    Note,
    /// Suspicious but not rejecting.
    Warning,
    /// The safety proof failed; admission must reject.
    Error,
}

/// The category of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A memory access whose MAR interval escapes (or may escape) the
    /// stage's region.
    OutOfBounds,
    /// A memory access addressed by a raw `HASH` result that was never
    /// re-bounded with `ADDR_MASK`.
    UnguardedHashedAddress,
    /// A memory access in a stage with no allocated region.
    MissingRegion,
    /// `ADDR_MASK`/`ADDR_OFFSET` with no entry to apply: no memory
    /// access follows it, or the stage that access runs in has no
    /// region (translation faults at run time).
    MissingTranslation,
    /// Worst-case passes exceed the recirculation cap.
    RecircCapExceeded,
    /// A branch targeting a label at or before itself (malformed wire
    /// stream; `Program::new` would have rejected it).
    BackwardBranch,
    /// A branch whose label never appears later: taken, it skips every
    /// remaining instruction.
    DanglingBranch,
    /// An argument-selector operand outside the four data words
    /// (malformed wire stream; faults at run time).
    MalformedArgIndex,
    /// A register read that can only observe the parser's initial zero.
    UseBeforeDef,
    /// A register write no path ever reads.
    DeadStore,
    /// A copy whose source and destination provably already hold the
    /// same value, or a load+copy pair foldable into one instruction.
    RedundantCopy,
    /// A computation that provably produces a compile-time constant
    /// despite reading non-constant inputs.
    ConstantWrite,
    /// An instruction no execution can reach.
    Unreachable,
    /// A NOP-padded mutant that is not observationally equivalent to
    /// its canonical program.
    NonEquivalentMutant,
    /// Acceptance relies on the client's address-linking contract.
    AssumedLinkedArg,
    /// Acceptance relies on control-plane-seeded memory contents.
    AssumedMemoryDerived,
}

/// Why a rejected program's witness faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessEffect {
    /// The reference interpreter raises a protection violation.
    ProtectionFault,
    /// The packet is dropped at the recirculation cap.
    RecircCapDrop,
}

/// A concrete argument vector confirmed (against [`crate::sim`]) to
/// trigger the reported fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// The four argument words to put in the frame.
    pub args: [u32; 4],
    /// What goes wrong when they run.
    pub effect: WitnessEffect,
}

/// One verifier or lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Category.
    pub kind: FindingKind,
    /// 0-based instruction index the finding anchors to, when one
    /// exists.
    pub at: Option<usize>,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// A confirmed concrete witness, for error findings the simulator
    /// could reproduce.
    pub witness: Option<Witness>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        match self.at {
            Some(i) => write!(f, "{sev}[{:?}] at #{}: {}", self.kind, i + 1, self.message),
            None => write!(f, "{sev}[{:?}]: {}", self.kind, self.message),
        }
    }
}

/// The result of one verification run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Findings, in program order.
    pub findings: Vec<Finding>,
    /// Memory accesses proven in-bounds unconditionally.
    pub proven_accesses: usize,
    /// Memory accesses accepted under an assumption (`Note`s recorded).
    pub assumed_accesses: usize,
    /// Worst-case pipeline passes of any execution.
    pub worst_case_passes: usize,
}

impl Report {
    /// No error-severity findings: the program is safe to admit (under
    /// the context's assumptions).
    #[must_use]
    pub fn accepted(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Error findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// The first confirmed witness, if the simulator reproduced one.
    #[must_use]
    pub fn witness(&self) -> Option<Witness> {
        self.findings.iter().find_map(|f| f.witness)
    }
}

/// How one memory access was discharged.
enum AccessVerdict {
    Proven,
    Assumed(FindingKind),
    Rejected(Finding),
}

fn classify_access(
    idx: usize,
    stage: usize,
    mar: AbsVal,
    region: ProtEntry,
    assume: &Assumptions,
) -> AccessVerdict {
    if mar.lo >= region.lo && mar.hi <= region.hi {
        return AccessVerdict::Proven;
    }
    if mar.origin == Origin::Hashed {
        return AccessVerdict::Rejected(Finding {
            kind: FindingKind::UnguardedHashedAddress,
            at: Some(idx),
            severity: Severity::Error,
            message: format!(
                "memory access in stage {stage} is addressed by a raw HASH result; \
                 apply ADDR_MASK/ADDR_OFFSET to bound it into [{}, {}]",
                region.lo, region.hi
            ),
            witness: None,
        });
    }
    if let Origin::Arg(j) = mar.origin {
        if assume.args[usize::from(j)] == ArgAssumption::LinkedAddress {
            return AccessVerdict::Assumed(FindingKind::AssumedLinkedArg);
        }
    }
    if mar.origin == Origin::Memory && assume.trust_memory_derived {
        return AccessVerdict::Assumed(FindingKind::AssumedMemoryDerived);
    }
    AccessVerdict::Rejected(Finding {
        kind: FindingKind::OutOfBounds,
        at: Some(idx),
        severity: Severity::Error,
        message: format!(
            "memory access in stage {stage}: MAR in [{}, {}] is not contained in \
             the region [{}, {}]",
            mar.lo, mar.hi, region.lo, region.hi
        ),
        witness: None,
    })
}

/// Verify `instrs` against `ctx`: bounds safety of every memory access,
/// translation availability, structural sanity, and the recirculation
/// bound. Lints (use-before-def, dead stores, unreachable code) are a
/// separate pass — see [`crate::lint`].
#[must_use]
pub fn verify(instrs: &[Instruction], ctx: &AnalysisContext) -> Report {
    let mut report = Report {
        findings: Vec::new(),
        proven_accesses: 0,
        assumed_accesses: 0,
        worst_case_passes: 0,
    };

    let cfg = match Cfg::build(instrs, ctx.num_stages) {
        Ok(cfg) => cfg,
        Err(CfgError::BackwardBranch { at, label }) => {
            report.findings.push(Finding {
                kind: FindingKind::BackwardBranch,
                at: Some(at),
                severity: Severity::Error,
                message: format!("branch targets label {label} at or before itself"),
                witness: None,
            });
            return report;
        }
        Err(CfgError::NoStages) => {
            report.findings.push(Finding {
                kind: FindingKind::RecircCapExceeded,
                at: None,
                severity: Severity::Error,
                message: "pipeline has zero stages".into(),
                witness: None,
            });
            return report;
        }
    };

    let reachable = cfg.reachable();
    abstract_walk(&cfg, instrs, ctx, &mut report);
    check_termination(&cfg, ctx, &reachable, &mut report);

    // Try to confirm one witness for the error findings; attach it to
    // the first error the simulator reproduces a matching effect for.
    if !report.accepted() {
        if let Some(w) = search_witness(instrs, ctx) {
            let kind_matches = |f: &Finding| match w.effect {
                WitnessEffect::RecircCapDrop => f.kind == FindingKind::RecircCapExceeded,
                WitnessEffect::ProtectionFault => f.kind != FindingKind::RecircCapExceeded,
            };
            if let Some(f) = report
                .findings
                .iter_mut()
                .find(|f| f.severity == Severity::Error && kind_matches(f))
            {
                f.witness = Some(w);
            } else if let Some(f) = report
                .findings
                .iter_mut()
                .find(|f| f.severity == Severity::Error)
            {
                f.witness = Some(w);
            }
        }
    }
    report
}

/// The verifier's walk: the shared sweep and transfer function, entered
/// with the argument words narrowed by the assumptions.
fn abstract_walk(cfg: &Cfg, instrs: &[Instruction], ctx: &AnalysisContext, report: &mut Report) {
    let mut entry = ValState::entry();
    for (arg, assume) in entry.args.iter_mut().zip(ctx.assume.args) {
        let origin = arg.abs.origin;
        match assume {
            ArgAssumption::Exact(v) => arg.abs = AbsVal::constant(v).with_origin(origin),
            ArgAssumption::Range(lo, hi) => {
                arg.abs = AbsVal::range(lo, hi.max(lo)).with_origin(origin);
            }
            ArgAssumption::Any | ArgAssumption::LinkedAddress => {}
        }
    }
    cfg.sweep_forward(
        entry,
        ValState::join,
        |idx, s| check_step(cfg, instrs, ctx, idx, s, report),
        refine_edge,
    );
}

/// Node `idx`'s checks and transfer, in place. False when every
/// execution reaching it faults (the packet is dropped), so nothing
/// propagates.
fn check_step(
    cfg: &Cfg,
    instrs: &[Instruction],
    ctx: &AnalysisContext,
    idx: usize,
    s: &mut ValState,
    report: &mut Report,
) -> bool {
    let nodes = cfg.nodes();
    let (ins, stage) = (nodes[idx].ins, nodes[idx].stage);
    let op = ins.opcode;
    let mut push = |kind, severity, message| {
        report.findings.push(Finding {
            kind,
            at: Some(idx),
            severity,
            message,
            witness: None,
        });
    };
    if let Some(j) = ins.arg_index().filter(|&j| j >= NUM_ARGS) {
        push(
            FindingKind::MalformedArgIndex,
            Severity::Error,
            format!("argument selector {j} exceeds the four data words"),
        );
        return false;
    }
    // A translation applies the entry of the stage the access it guards
    // runs in, an access checks its own stage's (the data plane's
    // binding); both fault when there is none.
    let entry = entry_stage(instrs, idx, stage, ctx.num_stages).and_then(|e| ctx.local_region(e));
    let mar = s.mar.abs;
    transfer_values(s, ins, idx, entry);
    if op.is_memory_access() {
        let Some(r) = entry else {
            push(
                FindingKind::MissingRegion,
                Severity::Error,
                format!("{op} executes in stage {stage}, which has no allocated region"),
            );
            return false;
        };
        match classify_access(idx, stage, mar, r, &ctx.assume) {
            AccessVerdict::Proven => report.proven_accesses += 1,
            AccessVerdict::Assumed(kind) => {
                report.assumed_accesses += 1;
                let basis = if kind == FindingKind::AssumedLinkedArg {
                    "client address-linking"
                } else {
                    "seeded-memory"
                };
                push(
                    kind,
                    Severity::Note,
                    format!("{op} in stage {stage} accepted under the {basis} assumption"),
                );
                if mar.hi < r.lo || mar.lo > r.hi {
                    // The linking contract for this access is
                    // unsatisfiable jointly with the earlier ones: MAR is
                    // already confined to a range disjoint from this
                    // region, so every packet reaching here drops at the
                    // TCAM and nothing past this point executes. Safe,
                    // but worth surfacing.
                    push(
                        FindingKind::Unreachable,
                        Severity::Note,
                        format!(
                            "no execution continues past {op} in stage {stage}: MAR is \
                             confined to [{}, {}] upstream, disjoint from the region \
                             [{}, {}]; later instructions were not analyzed",
                            mar.lo, mar.hi, r.lo, r.hi
                        ),
                    );
                }
            }
            AccessVerdict::Rejected(f) => report.findings.push(f),
        }
        // Executions that survive the TCAM check have MAR inside the
        // region; refine for the continuation (or stop if none can).
        if mar.hi < r.lo || mar.lo > r.hi {
            return false;
        }
        s.mar.abs.lo = mar.lo.max(r.lo);
        s.mar.abs.hi = mar.hi.min(r.hi);
        s.mar.abs = s.mar.abs.reduce();
    } else if entry.is_none() && matches!(op, Opcode::ADDR_MASK | Opcode::ADDR_OFFSET) {
        push(
            FindingKind::MissingTranslation,
            Severity::Error,
            match next_access_distance(instrs, idx).map(|d| idx + d) {
                Some(at) => format!(
                    "{op} in stage {stage} guards the access at #{} in stage {}, which has \
                     no allocated region",
                    at + 1,
                    nodes[at].stage
                ),
                None => format!("{op} in stage {stage} guards no later access"),
            },
        );
        return false;
    }
    true
}

/// Branch-edge refinement: an edge whose branch condition decides
/// MBR's zeroness narrows MBR; false when the edge is infeasible.
fn refine_edge(op: Opcode, kind: EdgeKind, s: &mut ValState) -> bool {
    let Some(mbr_zero) = mbr_zero_along(op, kind) else {
        return true;
    };
    let mbr = s.mbr.abs;
    if mbr_zero {
        s.mbr.abs = mbr.refine_zero();
        mbr.may_be_zero()
    } else {
        s.mbr.abs = mbr.refine_nonzero();
        mbr.may_be_nonzero()
    }
}

fn check_termination(cfg: &Cfg, ctx: &AnalysisContext, reachable: &[bool], report: &mut Report) {
    let nodes = cfg.nodes();
    let n = ctx.num_stages;
    let mut worst_passes = 1usize;
    for (idx, node) in nodes.iter().enumerate() {
        if reachable[idx] {
            worst_passes = worst_passes.max(node.pass + 1);
        }
    }
    // A taken dangling branch skips (and stages through) every
    // remaining instruction.
    if cfg.dangling_branches().iter().any(|&idx| reachable[idx]) && !nodes.is_empty() {
        worst_passes = worst_passes.max((nodes.len() - 1) / n + 1);
    }
    // Can control leave node `idx` through the exit without executing
    // a DROP? Edges only go forward, so one backward sweep decides it.
    let mut leaves = vec![false; nodes.len()];
    for idx in (0..nodes.len()).rev() {
        let node = &nodes[idx];
        leaves[idx] = node.ins.opcode != Opcode::DROP
            && node
                .edges
                .iter()
                .any(|e| e.to >= nodes.len() || leaves[e.to]);
    }
    // An RTS that can fire at an egress stage costs one extra
    // recirculation on top of the pass count, but only for a packet
    // that leaves the switch: a dropped one never turns around.
    let egress_rts = nodes.iter().enumerate().any(|(idx, node)| {
        reachable[idx]
            && leaves[idx]
            && matches!(node.ins.opcode, Opcode::RTS | Opcode::CRTS)
            && node.stage >= ctx.ingress_stages
    });
    let worst_recircs = worst_passes - 1 + usize::from(egress_rts);
    report.worst_case_passes = worst_passes + usize::from(egress_rts);
    if let Some(cap) = ctx.max_recirculations {
        if worst_recircs > usize::from(cap) {
            report.findings.push(Finding {
                kind: FindingKind::RecircCapExceeded,
                at: None,
                severity: Severity::Error,
                message: format!(
                    "worst case needs {worst_recircs} recirculations \
                     (cap {cap}): {} instructions over {n} stages{}",
                    nodes.len(),
                    if egress_rts {
                        " plus an egress RTS turnaround"
                    } else {
                        ""
                    }
                ),
                witness: None,
            });
        }
    }
}

/// Argument vectors worth trying as witnesses, respecting the
/// context's argument assumptions (a witness must be a frame the
/// client could actually send).
fn candidate_args(ctx: &AnalysisContext) -> Vec<[u32; 4]> {
    let base: [u32; 4] = core::array::from_fn(|j| match ctx.assume.args[j] {
        ArgAssumption::Exact(v) | ArgAssumption::Range(v, _) => v,
        _ => 0,
    });
    let mut interesting: Vec<u32> = vec![0, 1, u32::MAX];
    for r in ctx.regions.iter().flatten() {
        interesting.push(r.lo);
        interesting.push(r.hi);
        interesting.push(r.hi.saturating_add(1));
        if r.lo > 0 {
            interesting.push(r.lo - 1);
        }
    }
    interesting.sort_unstable();
    interesting.dedup();

    let permitted = |j: usize, v: u32| match ctx.assume.args[j] {
        ArgAssumption::Exact(e) => v == e,
        ArgAssumption::Range(lo, hi) => lo <= v && v <= hi,
        ArgAssumption::Any | ArgAssumption::LinkedAddress => true,
    };

    let mut out = vec![base];
    for j in 0..4 {
        for &v in &interesting {
            if permitted(j, v) && v != base[j] {
                let mut c = base;
                c[j] = v;
                out.push(c);
            }
        }
    }
    // A couple of all-slots variants for programs mixing several args.
    for &v in &interesting {
        let c: [u32; 4] = core::array::from_fn(|j| if permitted(j, v) { v } else { base[j] });
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Search for an argument vector that the reference simulator confirms
/// to fault (protection violation or recirculation-cap drop).
pub(crate) fn search_witness(instrs: &[Instruction], ctx: &AnalysisContext) -> Option<Witness> {
    for args in candidate_args(ctx) {
        let o = simulate(instrs, ctx, args, 0);
        if o.faulted() {
            return Some(Witness {
                args,
                effect: if o.violation {
                    WitnessEffect::ProtectionFault
                } else {
                    WitnessEffect::RecircCapDrop
                },
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use activermt_isa::{Opcode, ProgramBuilder};

    fn base_ctx() -> AnalysisContext {
        // 4 stages (2 ingress), cap 8, a region in stages 1 and 3.
        AnalysisContext::new(4, 2, Some(8))
            .with_region(1, 100, 300)
            .with_region(3, 512, 1024)
    }

    #[test]
    fn masked_hash_access_is_proven() {
        // HASH(0) ADDR_MASK(1) ADDR_OFFSET(2) MEM_READ(3). The
        // mask/offset at stages 1/2 are bound to the stage-3 access, so
        // they apply its region and bound MAR into [512, 1023]: the
        // access is proven.
        let ctx = AnalysisContext::new(4, 2, Some(8)).with_region(3, 512, 1024);
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::ADDR_OFFSET)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let r = verify(p.instructions(), &ctx);
        assert!(r.accepted(), "findings: {:?}", r.findings);
        assert_eq!(r.proven_accesses, 1);
        assert_eq!(r.assumed_accesses, 0);
    }

    #[test]
    fn translation_applies_the_guarded_access_region() {
        // A region of the same FID (stage 3) lies between the
        // translations (stages 1-2) and the access (stage 4); the
        // translations still apply stage 4's region, so the access is
        // proven.
        let ctx = AnalysisContext::new(8, 4, Some(8))
            .with_region(3, 0, 512)
            .with_region(4, 768, 1024);
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::ADDR_OFFSET)
            .op(Opcode::NOP)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let r = verify(p.instructions(), &ctx);
        assert!(r.accepted(), "findings: {:?}", r.findings);
        assert_eq!(r.proven_accesses, 1);

        // With no access after it, a translation has no entry to apply.
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let r = verify(p.instructions(), &ctx);
        assert!(r
            .errors()
            .any(|f| f.kind == FindingKind::MissingTranslation));
        assert_eq!(r.witness().unwrap().effect, WitnessEffect::ProtectionFault);
    }

    #[test]
    fn unmasked_hash_access_rejects() {
        // HASH lands in MAR; the access at stage 1 is unguarded.
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let r = verify(p.instructions(), &base_ctx());
        assert!(!r.accepted());
        assert!(r
            .errors()
            .any(|f| f.kind == FindingKind::UnguardedHashedAddress));
    }

    #[test]
    fn exact_arg_addressing_proves_or_rejects() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 0)
            .op(Opcode::MEM_READ) // index 1 -> stage 1, region [100,300)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let mut ctx = base_ctx();
        ctx.assume.args[0] = ArgAssumption::Exact(150);
        let r = verify(p.instructions(), &ctx);
        assert!(r.accepted());
        assert_eq!(r.proven_accesses, 1);

        let mut ctx = base_ctx();
        ctx.assume.args[0] = ArgAssumption::Exact(300);
        let r = verify(p.instructions(), &ctx);
        assert!(!r.accepted());
        let w = r.witness().expect("witness for a definite OOB");
        assert_eq!(w.effect, WitnessEffect::ProtectionFault);
        assert_eq!(w.args[0], 300);
    }

    #[test]
    fn linked_arg_is_assumed_under_admission_policy() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 3)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let ctx = base_ctx().with_assumptions(Assumptions::admission());
        let r = verify(p.instructions(), &ctx);
        assert!(r.accepted());
        assert_eq!(r.assumed_accesses, 1);
        assert!(r
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::AssumedLinkedArg));

        // The strict policy refuses to assume.
        let r = verify(p.instructions(), &base_ctx());
        assert!(!r.accepted());
    }

    #[test]
    fn access_in_unallocated_stage_rejects() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 0)
            .op(Opcode::NOP)
            .op(Opcode::MEM_READ) // index 2 -> stage 2: no region
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let ctx = base_ctx().with_assumptions(Assumptions::admission());
        let r = verify(p.instructions(), &ctx);
        assert!(!r.accepted());
        assert!(r.errors().any(|f| f.kind == FindingKind::MissingRegion));
        let w = r.witness().expect("unconditional fault has a witness");
        assert_eq!(w.effect, WitnessEffect::ProtectionFault);
    }

    #[test]
    fn recirc_cap_rejects_with_witness() {
        let mut b = ProgramBuilder::new();
        for _ in 0..20 {
            b = b.op(Opcode::NOP);
        }
        let p = b.op(Opcode::RETURN).build().unwrap();
        // 21 instructions over 4 stages = 6 passes = 5 recircs > cap 2.
        let ctx = AnalysisContext::new(4, 2, Some(2));
        let r = verify(p.instructions(), &ctx);
        assert!(!r.accepted());
        assert!(r.errors().any(|f| f.kind == FindingKind::RecircCapExceeded));
        assert_eq!(r.witness().unwrap().effect, WitnessEffect::RecircCapDrop);
    }

    #[test]
    fn early_return_bounds_the_pass_count() {
        // RETURN at index 1: everything after is unreachable, so the
        // worst case is one pass even though the listing is long.
        let mut b = ProgramBuilder::new().op(Opcode::NOP).op(Opcode::RETURN);
        for _ in 0..30 {
            b = b.op(Opcode::NOP);
        }
        let p = b.build().unwrap();
        let ctx = AnalysisContext::new(4, 2, Some(0));
        let r = verify(p.instructions(), &ctx);
        assert!(r.accepted(), "findings: {:?}", r.findings);
        assert_eq!(r.worst_case_passes, 1);
    }

    #[test]
    fn conditional_return_does_not_bound_passes() {
        // CRET might fall through: the tail still counts.
        let mut b = ProgramBuilder::new().op(Opcode::CRET);
        for _ in 0..10 {
            b = b.op(Opcode::NOP);
        }
        let p = b.op(Opcode::RETURN).build().unwrap();
        let ctx = AnalysisContext::new(4, 2, Some(1));
        let r = verify(p.instructions(), &ctx);
        assert!(!r.accepted());
    }

    #[test]
    fn branch_refinement_kills_infeasible_paths() {
        // MBR is the constant 5 -> CJUMP is always taken -> the
        // MEM_WRITE in the unallocated stage is never executed.
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .jump(Opcode::CJUMP, "done")
            .op(Opcode::MEM_WRITE) // stage 2: no region, but dead
            .label("done")
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let mut ctx = base_ctx();
        ctx.assume.args[0] = ArgAssumption::Exact(5);
        let r = verify(p.instructions(), &ctx);
        assert!(r.accepted(), "findings: {:?}", r.findings);
    }

    #[test]
    fn egress_rts_counts_against_the_cap() {
        // RTS at index 2 -> stage 2 (egress in a 2-ingress pipeline):
        // needs 1 recirculation; cap 0 rejects.
        let p = ProgramBuilder::new()
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::RTS)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(4, 2, Some(0));
        let r = verify(p.instructions(), &ctx);
        assert!(!r.accepted());
        assert_eq!(r.witness().unwrap().effect, WitnessEffect::RecircCapDrop);
        // With one recirculation allowed it is fine.
        let ctx = AnalysisContext::new(4, 2, Some(1));
        assert!(verify(p.instructions(), &ctx).accepted());
    }

    #[test]
    fn egress_rts_is_not_charged_to_a_dropped_packet() {
        // Every path through the RTS ends in DROP: the packet never
        // turns around, so no recirculation is needed.
        let ctx = AnalysisContext::new(4, 2, Some(0));
        let dropped = ProgramBuilder::new()
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::RTS)
            .op(Opcode::DROP)
            .build()
            .unwrap();
        let r = verify(dropped.instructions(), &ctx);
        assert!(r.accepted(), "findings: {:?}", r.findings);
        assert_eq!(r.worst_case_passes, 1);
        // A packet that runs off the end after the RTS does leave.
        let leaves = ProgramBuilder::new()
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::RTS)
            .op(Opcode::NOP)
            .build()
            .unwrap();
        let r = verify(leaves.instructions(), &ctx);
        assert!(!r.accepted());
        assert_eq!(r.witness().unwrap().effect, WitnessEffect::RecircCapDrop);
    }

    #[test]
    fn mem_derived_address_needs_the_trust_flag() {
        // Page-table indirection: read a pointer from memory, then use
        // it as an address.
        let p = ProgramBuilder::new()
            .op(Opcode::HASH)
            .op(Opcode::ADDR_MASK)
            .op(Opcode::ADDR_OFFSET)
            .op(Opcode::MEM_READ) // stage 3: proven
            .op(Opcode::COPY_MAR_MBR) // MAR <- pointer from memory
            .op(Opcode::MEM_READ) // index 5 -> stage 1: mem-derived
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let strict = base_ctx();
        assert!(!verify(p.instructions(), &strict).accepted());
        let trusting = base_ctx().with_assumptions(Assumptions::admission());
        let r = verify(p.instructions(), &trusting);
        assert!(r.accepted(), "findings: {:?}", r.findings);
        assert_eq!(r.proven_accesses, 1);
        assert_eq!(r.assumed_accesses, 1);
    }
}
