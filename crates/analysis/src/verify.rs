//! The bounds / termination verifier: abstract interpretation of a
//! capsule program against a concrete allocation.
//!
//! [`verify`] walks the program's CFG in instruction order (valid
//! programs only branch forward, so one in-order pass with joins at
//! merge points reaches a fixed point), tracking MAR/MBR/MBR2 and the
//! four argument words as [`AbsVal`]s. At every memory access it proves
//! — or fails to prove — that MAR lies inside the FID's region for the
//! stage the access executes in, using the same stage geometry as the
//! data plane and its translation binding: an `ADDR_MASK`/`ADDR_OFFSET`
//! applies the entry of the stage its guarded access runs in
//! (`nodes[idx + d].stage`, with `d` from
//! [`activermt_isa::next_access_distance`]). A termination pass bounds
//! the worst-case pass count against the recirculation cap. Failures are
//! reported as [`Finding`]s; for error findings the verifier searches
//! for a concrete witness argument vector and validates it against the
//! concrete simulator ([`crate::sim`]), which runs the data plane's own
//! per-stage semantics.
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
//!   cache's directory probe, `link_address` in `activermt-client`).
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
use crate::domain::{AbsVal, Origin};
use crate::sim::simulate;
use activermt_isa::wire::RegionEntry;
use activermt_isa::{next_access_distance, Instruction, Opcode};
use activermt_rmt::ProtEntry;
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
    /// sending (`link_address` contract); accesses addressed by it are
    /// *assumed* safe, not proven.
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
    #[must_use]
    pub fn local_region(&self, stage: usize) -> Option<ProtEntry> {
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

/// Abstract machine state: the three scratch registers plus the four
/// argument words (MBR_STORE writes those, so they are part of the
/// state, not the environment).
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    mar: AbsVal,
    mbr: AbsVal,
    mbr2: AbsVal,
    args: [AbsVal; 4],
}

impl AbsState {
    fn initial(assume: &Assumptions) -> AbsState {
        let mut args = [AbsVal::top(); 4];
        for (j, slot) in args.iter_mut().enumerate() {
            let tagged = |v: AbsVal| v.with_origin(Origin::Arg(j as u8));
            *slot = match assume.args[j] {
                ArgAssumption::Any | ArgAssumption::LinkedAddress => tagged(AbsVal::top()),
                ArgAssumption::Exact(v) => tagged(AbsVal::constant(v)),
                ArgAssumption::Range(lo, hi) => tagged(AbsVal::range(lo, hi.max(lo))),
            };
        }
        AbsState {
            mar: AbsVal::constant(0),
            mbr: AbsVal::constant(0),
            mbr2: AbsVal::constant(0),
            args,
        }
    }

    fn join(&self, other: &AbsState) -> AbsState {
        AbsState {
            mar: self.mar.join(other.mar),
            mbr: self.mbr.join(other.mbr),
            mbr2: self.mbr2.join(other.mbr2),
            args: [
                self.args[0].join(other.args[0]),
                self.args[1].join(other.args[1]),
                self.args[2].join(other.args[2]),
                self.args[3].join(other.args[3]),
            ],
        }
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

#[allow(clippy::too_many_lines)]
fn abstract_walk(cfg: &Cfg, instrs: &[Instruction], ctx: &AnalysisContext, report: &mut Report) {
    use Opcode::{
        ADDR_MASK, ADDR_OFFSET, BIT_AND_MAR_MBR, BIT_OR_MBR_MBR2, CJUMP, CJUMPI,
        COPY_HASHDATA_5TUPLE, COPY_HASHDATA_MBR, COPY_HASHDATA_MBR2, COPY_MAR_MBR, COPY_MBR2_MBR,
        COPY_MBR_MAR, COPY_MBR_MBR2, CRET, CRETI, CRTS, DROP, EOF, FORK, HASH, MAR_ADD_MBR,
        MAR_ADD_MBR2, MAR_LOAD, MAR_MBR_ADD_MBR2, MAX, MBR2_LOAD, MBR_ADD_MBR2, MBR_EQUALS_DATA_1,
        MBR_EQUALS_DATA_2, MBR_EQUALS_MBR2, MBR_LOAD, MBR_NOT, MBR_STORE, MBR_SUBTRACT_MBR2,
        MEM_INCREMENT, MEM_MINREAD, MEM_MINREADINC, MEM_READ, MEM_WRITE, MIN, NOP, RETURN, REVMIN,
        RTS, SET_DST, SWAP_MBR_MBR2, UJUMP,
    };
    let nodes = cfg.nodes();
    let mut states: Vec<Option<AbsState>> = vec![None; nodes.len() + 1];
    if nodes.is_empty() {
        return;
    }
    states[0] = Some(AbsState::initial(&ctx.assume));

    for idx in 0..nodes.len() {
        let Some(mut s) = states[idx].clone() else {
            continue;
        };
        let node = &nodes[idx];
        let ins = node.ins;
        let stage = node.stage;
        // `true` while the instruction cannot unconditionally fault; a
        // definite fault stops propagation (the packet is dropped).
        let mut survivable = true;

        match ins.opcode {
            EOF | NOP | RETURN | CRET | CRETI | CJUMP | CJUMPI | UJUMP | DROP | FORK | RTS
            | CRTS => {}
            SET_DST => {}

            // A translation applies the entry of the stage the access it
            // guards runs in (the data plane's binding).
            ADDR_MASK | ADDR_OFFSET => {
                let access = next_access_distance(instrs, idx).map(|d| idx + d);
                match access.and_then(|at| ctx.local_region(nodes[at].stage)) {
                    Some(r) => {
                        let prev = s.mar.origin;
                        s.mar = if ins.opcode == ADDR_MASK {
                            s.mar.and_const(r.mask)
                        } else {
                            s.mar.wrapping_add(AbsVal::constant(r.offset))
                        };
                        // Translation narrows a client-linked argument, it
                        // does not launder it: the linking contract is
                        // about the virtual address the client supplies,
                        // so the provenance survives ADDR_MASK/ADDR_OFFSET
                        // (a raw hash stays re-bounded-or-rejected as
                        // before — the interval proof runs first).
                        if let Origin::Arg(_) = prev {
                            s.mar = s.mar.with_origin(prev);
                        }
                    }
                    None => {
                        let op = ins.opcode;
                        report.findings.push(Finding {
                            kind: FindingKind::MissingTranslation,
                            at: Some(idx),
                            severity: Severity::Error,
                            message: match access {
                                Some(at) => format!(
                                    "{op} in stage {stage} guards the access at #{} in stage \
                                     {}, which has no allocated region",
                                    at + 1,
                                    nodes[at].stage
                                ),
                                None => format!("{op} in stage {stage} guards no later access"),
                            },
                            witness: None,
                        });
                        survivable = false;
                    }
                }
            }
            HASH => s.mar = AbsVal::top().with_origin(Origin::Hashed),

            MBR_LOAD | MBR2_LOAD | MAR_LOAD | MBR_STORE => {
                let j = ins.arg_index().unwrap_or(0);
                if j >= 4 {
                    report.findings.push(Finding {
                        kind: FindingKind::MalformedArgIndex,
                        at: Some(idx),
                        severity: Severity::Error,
                        message: format!("argument selector {j} exceeds the four data words"),
                        witness: None,
                    });
                    survivable = false;
                } else {
                    match ins.opcode {
                        MBR_LOAD => s.mbr = s.args[j],
                        MBR2_LOAD => s.mbr2 = s.args[j],
                        MAR_LOAD => s.mar = s.args[j],
                        MBR_STORE => s.args[j] = s.mbr,
                        _ => unreachable!(),
                    }
                }
            }
            COPY_MBR2_MBR => s.mbr2 = s.mbr,
            COPY_MBR_MBR2 => s.mbr = s.mbr2,
            COPY_MBR_MAR => s.mbr = s.mar,
            COPY_MAR_MBR => s.mar = s.mbr,
            // Hash-data words are not tracked (HASH output is top
            // regardless); the copies only read registers.
            COPY_HASHDATA_MBR | COPY_HASHDATA_MBR2 | COPY_HASHDATA_5TUPLE => {}

            MBR_ADD_MBR2 => s.mbr = s.mbr.wrapping_add(s.mbr2),
            MAR_ADD_MBR => s.mar = s.mar.wrapping_add(s.mbr),
            MAR_ADD_MBR2 => s.mar = s.mar.wrapping_add(s.mbr2),
            MAR_MBR_ADD_MBR2 => s.mar = s.mbr.wrapping_add(s.mbr2),
            MBR_SUBTRACT_MBR2 => s.mbr = s.mbr.wrapping_sub(s.mbr2),
            BIT_AND_MAR_MBR => s.mar = s.mar.and(s.mbr),
            BIT_OR_MBR_MBR2 => s.mbr = s.mbr.or(s.mbr2),
            MBR_EQUALS_MBR2 => s.mbr = s.mbr.xor(s.mbr2),
            MBR_EQUALS_DATA_1 => s.mbr = s.mbr.xor(s.args[0]),
            MBR_EQUALS_DATA_2 => s.mbr = s.mbr.xor(s.args[1]),
            MAX => s.mbr = s.mbr.max(s.mbr2),
            MIN => s.mbr = s.mbr.min(s.mbr2),
            REVMIN => s.mbr2 = s.mbr.min(s.mbr2),
            SWAP_MBR_MBR2 => core::mem::swap(&mut s.mbr, &mut s.mbr2),
            MBR_NOT => s.mbr = s.mbr.bitwise_not(),

            MEM_WRITE | MEM_READ | MEM_INCREMENT | MEM_MINREAD | MEM_MINREADINC => {
                match ctx.local_region(stage) {
                    None => {
                        report.findings.push(Finding {
                            kind: FindingKind::MissingRegion,
                            at: Some(idx),
                            severity: Severity::Error,
                            message: format!(
                                "{} executes in stage {stage}, which has no allocated region",
                                ins.opcode
                            ),
                            witness: None,
                        });
                        survivable = false;
                    }
                    Some(r) => {
                        let verdict = classify_access(idx, stage, s.mar, r, &ctx.assume);
                        let assumed = matches!(verdict, AccessVerdict::Assumed(_));
                        match verdict {
                            AccessVerdict::Proven => report.proven_accesses += 1,
                            AccessVerdict::Assumed(kind) => {
                                report.assumed_accesses += 1;
                                report.findings.push(Finding {
                                    kind,
                                    at: Some(idx),
                                    severity: Severity::Note,
                                    message: format!(
                                        "{} in stage {stage} accepted under the {} assumption",
                                        ins.opcode,
                                        match kind {
                                            FindingKind::AssumedLinkedArg =>
                                                "client address-linking",
                                            _ => "seeded-memory",
                                        }
                                    ),
                                    witness: None,
                                });
                            }
                            AccessVerdict::Rejected(f) => report.findings.push(f),
                        }
                        // Executions that survive the TCAM check have
                        // MAR inside the region; refine for the
                        // continuation (or stop if none can).
                        if s.mar.hi < r.lo || s.mar.lo > r.hi {
                            if assumed {
                                // The linking contract for this access
                                // is unsatisfiable jointly with the
                                // earlier ones: MAR is already confined
                                // to a range disjoint from this region,
                                // so every packet reaching here drops at
                                // the TCAM and nothing past this point
                                // executes. Safe, but worth surfacing.
                                report.findings.push(Finding {
                                    kind: FindingKind::Unreachable,
                                    at: Some(idx),
                                    severity: Severity::Note,
                                    message: format!(
                                        "no execution continues past {} in stage {stage}: MAR is \
                                         confined to [{}, {}] upstream, disjoint from the region \
                                         [{}, {}]; later instructions were not analyzed",
                                        ins.opcode, s.mar.lo, s.mar.hi, r.lo, r.hi
                                    ),
                                    witness: None,
                                });
                            }
                            survivable = false;
                        } else {
                            s.mar.lo = s.mar.lo.max(r.lo);
                            s.mar.hi = s.mar.hi.min(r.hi);
                            s.mar = s.mar.reduce();
                        }
                        // Register outputs.
                        let mem = AbsVal::top().with_origin(Origin::Memory);
                        match ins.opcode {
                            MEM_WRITE => {}
                            MEM_READ | MEM_INCREMENT => s.mbr = mem,
                            MEM_MINREAD | MEM_MINREADINC => {
                                s.mbr = mem;
                                s.mbr2 = s.mbr2.min(mem);
                            }
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }

        if !survivable {
            continue;
        }
        for edge in &node.edges {
            if edge.to > nodes.len() {
                continue;
            }
            let refined = match (ins.opcode, edge.kind) {
                // Fall-through past CRET means MBR was zero; past CRETI
                // means it was non-zero; branch edges mirror the jump
                // conditions. Infeasible edges are not propagated.
                (CRET, EdgeKind::Fallthrough) | (CJUMPI, EdgeKind::Branch) => {
                    s.mbr.may_be_zero().then(|| {
                        let mut t = s.clone();
                        t.mbr = t.mbr.refine_zero();
                        t
                    })
                }
                (CRETI, EdgeKind::Fallthrough) | (CJUMP, EdgeKind::Branch) => {
                    s.mbr.may_be_nonzero().then(|| {
                        let mut t = s.clone();
                        t.mbr = t.mbr.refine_nonzero();
                        t
                    })
                }
                (CJUMP, EdgeKind::Fallthrough) => s.mbr.may_be_zero().then(|| {
                    let mut t = s.clone();
                    t.mbr = t.mbr.refine_zero();
                    t
                }),
                (CJUMPI, EdgeKind::Fallthrough) => s.mbr.may_be_nonzero().then(|| {
                    let mut t = s.clone();
                    t.mbr = t.mbr.refine_nonzero();
                    t
                }),
                _ => Some(s.clone()),
            };
            let Some(t) = refined else { continue };
            if edge.to == nodes.len() {
                continue; // exit
            }
            states[edge.to] = Some(match &states[edge.to] {
                Some(prev) => prev.join(&t),
                None => t,
            });
        }
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
    // An RTS that can fire at an egress stage costs one extra
    // recirculation on top of the pass count.
    let egress_rts = nodes.iter().enumerate().any(|(idx, node)| {
        reachable[idx]
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
#[must_use]
pub fn search_witness(instrs: &[Instruction], ctx: &AnalysisContext) -> Option<Witness> {
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
