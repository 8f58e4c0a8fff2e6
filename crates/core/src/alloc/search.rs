//! The systematic allocation search (Section 4.2).
//!
//! "Because the objective function is non-linear we cannot use standard
//! (I)LP solvers. Fortunately, our online allocation mechanism does not
//! consider relocating existing applications across stages ... Hence, a
//! systematic search over the feasibility region can be performed in
//! polynomial time, O(k) where k is the number of mutants."
//!
//! For each candidate mutant of the arriving application the search
//! checks feasibility against every constrained resource — block pools
//! (with elastic squeezing), and the per-stage protection TCAM, whose
//! range-expansion cost makes it the real admission bottleneck for
//! small-footprint applications (Section 3.1) — and applies the best
//! feasible one under the configured [`Scheme`], returning the set of
//! reallocation victims.
//!
//! A scheme's cost is a sum of per-stage terms, so an arrival prices
//! each stage once ([`StageWeights`]) and each candidate by table
//! lookups. One pricing scan finds the cheapest candidate, and the probe
//! almost always accepts it; only when it refuses are the remaining
//! candidates heapified and popped, cheapest first, until one passes.
//!
//! The candidates themselves are a flat table ([`CandidateSet`]): the
//! mutant enumeration is streamed as borrowed position vectors, each
//! mutant's stage demands are written into a fixed scratch buffer and
//! deduplicated against the table's own pools, and a [`Mutant`] is built
//! only for the winner.

use crate::alloc::constraints::AccessPattern;
use crate::alloc::mutants::{Mutant, MutantPolicy, MutantSpace};
use crate::alloc::plan::{AllocOutcome, Reallocation, StagePlacement};
use crate::alloc::pool::StagePool;
use crate::alloc::schemes::Scheme;
use crate::config::SwitchConfig;
use crate::error::{AdmitError, CoreError};
use crate::types::Fid;
use activermt_isa::constants::MAX_MEMORY_ACCESSES;
use activermt_rmt::tcam::range_prefix_count;
use activermt_telemetry::{Counter, Histogram, Telemetry};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Memos for the incremental search. Mutants of one arrival differ only
/// in a stage shift, so the same stages are scored, the same
/// `(stage, demand)` feasibility probes made and the same register
/// ranges priced over and over; within one admission the pools do not
/// change, so every result can be memoized.
///
/// Invalidation granularity differs per table. The scheme weights
/// (built fresh per arrival, see [`StageWeights`]), `mem` and `tcam`
/// depend on pool state and are valid for exactly one arrival; `mem`
/// and `tcam` are *cleared* (capacity retained — no per-arrival rehash
/// allocations) at the next admission, and so is `ranked`, the heap
/// buffer. `prefix` memoizes `range_prefix_count` and `candidates`
/// memoizes the whole mutant enumeration + dedup of a
/// `(pattern, policy)` pair — both pure functions of their keys (the
/// pool state never enters them), so they persist across arrivals with
/// **no** invalidation.
#[derive(Debug, Default, Clone)]
struct FeasMemo {
    /// `(stage, demand) → does the block pool fit it` (demand is 0 for
    /// elastic arrivals — the probe is demand-independent).
    mem: HashMap<(usize, u16), bool>,
    /// `(stage, demand) → does the trial-applied TCAM stay in budget`.
    tcam: HashMap<(usize, u16), bool>,
    /// `(lo, hi) → range_prefix_count(lo, hi)` for TCAM pricing.
    prefix: HashMap<(u32, u32), usize>,
    /// `(pattern, policy) → enumerated + deduplicated candidates`.
    /// A switch serves a handful of distinct services, so a short
    /// linear-scanned list beats hashing the whole pattern.
    candidates: Vec<(AccessPattern, MutantPolicy, Arc<CandidateSet>)>,
    /// The ranking heap's buffer, kept so that an arrival whose cheapest
    /// candidate is refused does not map and fault in a fresh one for
    /// tens of thousands of keys.
    ranked: Vec<Reverse<RankKey>>,
}

/// A candidate's rank: `(cost, passes, enumeration index, dedup index)`.
/// The enumeration index is unique, so the order is total: the head
/// scan, the heap and the reference search's full sort all list
/// candidates in exactly the same order.
type RankKey = (i64, u32, usize, usize);

/// One stage of a candidate in the flat table: `(stage, blocks)`, both
/// 16 bits wide, so the pool an arrival's pricing scan walks stays
/// small.
type StageDemand = (u16, u16);

/// One arrival's [`Scheme::stage_cost`] terms, computed once before any
/// candidate is ranked: a candidate's cost is then the sum of its
/// stages' weights. A scheme that ignores the demand gets one weight
/// per stage; `MinRealloc` pricing an inelastic newcomer gets one per
/// `(stage, demand)` pair, over the demands the arrival can place.
struct StageWeights {
    /// The distinct demands, ascending; empty when the scheme ignores
    /// them.
    demands: Vec<u16>,
    /// `weights[s * max(1, demands.len()) + j]` is the term of stage
    /// `s` at demand `demands[j]`.
    weights: Vec<i64>,
}

impl StageWeights {
    fn new(scheme: Scheme, pools: &[StagePool], pattern: &AccessPattern) -> StageWeights {
        let elastic = pattern.elastic;
        let mut demands = Vec::new();
        if scheme.reads_demand(elastic) {
            // A stage's demand is one of its accesses' (the largest of
            // those that share it); stages past the demand list read 0.
            demands.extend_from_slice(&pattern.demands);
            demands.push(0);
            demands.sort_unstable();
            demands.dedup();
        }
        let per_stage: &[u16] = if demands.is_empty() { &[0] } else { &demands };
        let mut weights = Vec::with_capacity(pools.len() * per_stage.len());
        for pool in pools {
            weights.extend(
                per_stage
                    .iter()
                    .map(|&d| scheme.stage_cost(pool, d, elastic)),
            );
        }
        StageWeights { demands, weights }
    }

    /// [`Scheme::cost`] of `stages`, by lookups.
    fn cost(&self, stages: &[StageDemand]) -> i64 {
        if self.demands.is_empty() {
            return stages
                .iter()
                .map(|&(s, _)| self.weights[usize::from(s)])
                .sum();
        }
        let width = self.demands.len();
        stages
            .iter()
            .map(|&(s, d)| {
                let j = self
                    .demands
                    .binary_search(&d)
                    .expect("stage demands come from the pattern's demands");
                self.weights[usize::from(s) * width + j]
            })
            .sum()
    }
}

impl FeasMemo {
    /// The enumerated candidate set for `(pattern, policy)`, served
    /// from the persistent memo (FIFO-evicted at
    /// [`CANDIDATE_MEMO_CAP`]).
    fn candidate_set(
        &mut self,
        cfg: &AllocatorConfig,
        pattern: &AccessPattern,
        policy: MutantPolicy,
    ) -> Arc<CandidateSet> {
        if let Some((_, _, set)) = self
            .candidates
            .iter()
            .find(|(p, pol, _)| *pol == policy && p == pattern)
        {
            return Arc::clone(set);
        }
        let set = Arc::new(CandidateSet::build(cfg, pattern, policy));
        if self.candidates.len() >= CANDIDATE_MEMO_CAP {
            self.candidates.remove(0);
        }
        self.candidates
            .push((pattern.clone(), policy, Arc::clone(&set)));
        set
    }
}

/// The mutant enumeration of one `(pattern, policy)` pair, with
/// interchangeable paddings deduplicated: distinct paddings that land
/// the accesses in the same stages with the same demands are equivalent
/// for allocation purposes, so only the first (lowest enumeration
/// index) survives. Pure in the pool state, hence cacheable across
/// arrivals.
///
/// The table is flat: one record per candidate, every candidate's
/// stage demands back to back in one pool and every representative's
/// access positions back to back in another. Building it allocates
/// only to grow those pools, however many mutants are enumerated.
#[derive(Debug)]
struct CandidateSet {
    /// How many mutants the enumeration produced before deduplication
    /// (reported as `mutants_considered`). They are streamed, not kept:
    /// the lc monitor enumerates 117 697 for 63 584 candidates (12 396
    /// distinct stage sets).
    enumerated: usize,
    /// Deduplicated candidates in enumeration order.
    dedup: Vec<DedupCandidate>,
    /// Memory accesses per mutant.
    accesses: usize,
    /// `positions[i * accesses..(i + 1) * accesses]` are the access
    /// positions of `dedup[i]`'s representative mutant. Only the
    /// winner's are ever read.
    positions: Vec<u16>,
    /// Every candidate's per-stage block demands, back to back in
    /// `dedup` order: each arrival prices every candidate, and one
    /// contiguous run reads faster than a heap cell per candidate.
    stage_pool: Vec<StageDemand>,
}

/// One deduplicated candidate: the representative mutant's pass count,
/// its enumeration index, and where its stage demands sit in the pool.
#[derive(Debug)]
struct DedupCandidate {
    passes: u32,
    stages_start: u32,
    stages_end: u32,
    idx: u32,
}

impl CandidateSet {
    fn build(cfg: &AllocatorConfig, pattern: &AccessPattern, policy: MutantPolicy) -> CandidateSet {
        let space = cfg.mutant_space();
        let mut set = CandidateSet {
            enumerated: 0,
            dedup: Vec::new(),
            accesses: pattern.num_accesses(),
            positions: Vec::new(),
            stage_pool: Vec::new(),
        };
        let stage_at = space.stage_table(pattern, policy);
        let mut seen = DedupTable::default();
        let mut scratch = [(0, 0); MAX_MEMORY_ACCESSES];
        space.for_each(pattern, policy, &mut |positions, passes| {
            let idx = set.enumerated;
            set.enumerated += 1;
            let len = merge_stage_demands(&stage_at, positions, &pattern.demands, &mut scratch);
            let stages = &scratch[..len];
            let (dedup, pool) = (&set.dedup, &set.stage_pool);
            let fresh = seen.insert(key_tag(stages, passes), set.dedup.len(), |di| {
                let c = &dedup[di];
                c.passes == passes
                    && pool[c.stages_start as usize..c.stages_end as usize] == *stages
            });
            if !fresh {
                return;
            }
            let start = set.stage_pool.len();
            set.stage_pool.extend_from_slice(stages);
            set.positions.extend_from_slice(positions);
            set.dedup.push(DedupCandidate {
                passes,
                stages_start: start as u32,
                stages_end: set.stage_pool.len() as u32,
                idx: u32::try_from(idx).expect("fewer than 2^32 mutants"),
            });
        });
        set
    }

    /// The per-stage block demands of `dedup[di]`.
    fn stages(&self, di: usize) -> &[StageDemand] {
        let c = &self.dedup[di];
        &self.stage_pool[c.stages_start as usize..c.stages_end as usize]
    }

    /// The representative mutant of `dedup[di]`.
    fn mutant(&self, space: &MutantSpace, pattern: &AccessPattern, di: usize) -> Mutant {
        let positions = &self.positions[di * self.accesses..(di + 1) * self.accesses];
        space.mutant(pattern, positions, self.dedup[di].passes)
    }
}

/// Write the stage demands of the mutant whose accesses sit at
/// `positions` into `out`, ascending by stage, and return how many
/// there are: [`Mutant::stage_demands`] without a `Mutant` or a `Vec`.
/// `stage_at` is the enumeration's [`MutantSpace::stage_table`]; a
/// validated pattern has at most [`MAX_MEMORY_ACCESSES`] accesses.
fn merge_stage_demands(
    stage_at: &[u16],
    positions: &[u16],
    demands: &[u16],
    out: &mut [StageDemand; MAX_MEMORY_ACCESSES],
) -> usize {
    let mut len = 0;
    for (&p, &d) in positions.iter().zip(demands) {
        let s = stage_at[usize::from(p)];
        if let Some(shared) = out[..len].iter_mut().find(|(st, _)| *st == s) {
            shared.1 = shared.1.max(d);
            continue;
        }
        // Insertion sort: a mutant touches at most a handful of stages.
        let mut at = len;
        while at > 0 && out[at - 1].0 > s {
            out[at] = out[at - 1];
            at -= 1;
        }
        out[at] = (s, d);
        len += 1;
    }
    len
}

/// 2^64 / φ, odd: the multiplier of [`key_tag`] (as for `FidHasher`,
/// the product's top bits are the well-mixed ones).
const KEY_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A 32-bit hash of a dedup key — a candidate's stage demands and pass
/// count.
fn key_tag(stages: &[StageDemand], passes: u32) -> u32 {
    let mut h = u64::from(passes);
    for &(s, d) in stages {
        h = (h.rotate_left(32) ^ (u64::from(s) << 16 | u64::from(d))).wrapping_mul(KEY_HASH_MUL);
    }
    (h >> 32) as u32
}

/// The dedup index of a [`CandidateSet`] under construction: an
/// open-addressed, linearly probed table of dedup indices whose keys
/// live in the set's own pools, so a lookup neither builds nor hashes a
/// key object. A slot holds its key's [`key_tag`] (whose top bits pick
/// the home slot) and `di + 1`; 0 marks an empty slot. At most half
/// the slots are full.
#[derive(Default)]
struct DedupTable {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl DedupTable {
    /// Insert `di` under `tag` unless an entry for which `eq` holds is
    /// already there; returns whether `di` was inserted.
    fn insert(&mut self, tag: u32, di: usize, eq: impl Fn(usize) -> bool) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let (t, e) = self.slots[i];
            if e == 0 {
                self.slots[i] = (
                    tag,
                    u32::try_from(di + 1).expect("fewer than 2^32 candidates"),
                );
                self.len += 1;
                return true;
            }
            if t == tag && eq(e as usize - 1) {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    fn home(&self, tag: u32) -> usize {
        (tag >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
        for (tag, e) in old.into_iter().filter(|&(_, e)| e != 0) {
            let mut i = self.home(tag);
            while self.slots[i].1 != 0 {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = (tag, e);
        }
    }
}

/// The feasibility probes of one arrival: how many passed, and which
/// resource refused the others (the error of an arrival that no
/// candidate fits).
#[derive(Debug, Default)]
struct ProbeTally {
    feasible: usize,
    out_of_memory: bool,
    out_of_tcam: bool,
}

impl ProbeTally {
    /// Record one probe; does it accept the candidate?
    fn accepts(&mut self, probe: Result<(), AdmitError>) -> bool {
        match probe {
            Ok(()) => {
                self.feasible += 1;
                return true;
            }
            Err(AdmitError::OutOfMemory) => self.out_of_memory = true,
            Err(AdmitError::OutOfTcam) => self.out_of_tcam = true,
            Err(_) => {}
        }
        false
    }

    /// Why no candidate was accepted.
    fn refusal(&self) -> AdmitError {
        if self.out_of_tcam && !self.out_of_memory {
            AdmitError::OutOfTcam
        } else if self.out_of_memory {
            AdmitError::OutOfMemory
        } else {
            AdmitError::NoFeasibleMutant
        }
    }
}

/// A search's result: how many mutants it enumerated, and the winner —
/// its mutant and its per-stage block demands — if a candidate passed.
type Searched = (usize, Option<(Mutant, Vec<(usize, u16)>)>);

/// Bound on the persistent prefix-price memo. Ranges are block-aligned
/// so real workloads stay orders of magnitude below this; the cap only
/// guards pathological churn.
const PREFIX_MEMO_CAP: usize = 65_536;

/// Bound on the persistent candidate-enumeration memo (distinct
/// `(pattern, policy)` pairs — i.e. distinct services — kept).
const CANDIDATE_MEMO_CAP: usize = 16;

/// Allocator dimensions and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AllocatorConfig {
    /// Logical stages.
    pub num_stages: usize,
    /// Ingress stages.
    pub ingress_stages: usize,
    /// Blocks per stage at the configured granularity.
    pub blocks_per_stage: u32,
    /// Registers per block.
    pub block_regs: u32,
    /// Protection-TCAM entries per stage.
    pub tcam_entries_per_stage: usize,
    /// Candidate-scoring scheme.
    pub scheme: Scheme,
    /// Extra passes allowed under the least-constrained policy.
    pub max_extra_recircs: u8,
    /// Use the literal O(blocks) progressive-filling algorithm (the
    /// paper's stated mechanism) instead of the closed form. Shares are
    /// identical; only allocation-computation time changes (Figure 12).
    pub literal_fill: bool,
}

impl AllocatorConfig {
    /// Derive from a switch configuration with the given scheme.
    pub fn from_switch(cfg: &SwitchConfig, scheme: Scheme) -> AllocatorConfig {
        AllocatorConfig {
            num_stages: cfg.num_stages,
            ingress_stages: cfg.ingress_stages,
            blocks_per_stage: cfg.blocks_per_stage(),
            block_regs: cfg.block_regs,
            tcam_entries_per_stage: cfg.tcam_entries_per_stage,
            scheme,
            max_extra_recircs: cfg.max_extra_recircs,
            literal_fill: cfg.literal_progressive_filling,
        }
    }

    fn mutant_space(&self) -> MutantSpace {
        MutantSpace {
            num_stages: self.num_stages,
            ingress_stages: self.ingress_stages,
            max_extra_recircs: self.max_extra_recircs,
        }
    }
}

/// A resident application's allocation state.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// The constraints it was admitted with.
    pub pattern: AccessPattern,
    /// The policy it requested.
    pub policy: MutantPolicy,
    /// The mutant the allocator selected.
    pub mutant: Mutant,
}

/// The online memory allocator: per-stage pools plus the application
/// directory.
///
/// ```
/// use activermt_core::alloc::{AccessPattern, Allocator, AllocatorConfig,
///                             MutantPolicy, Scheme};
/// use activermt_core::SwitchConfig;
///
/// let cfg = SwitchConfig::default();
/// let mut alloc = Allocator::new(AllocatorConfig::from_switch(&cfg, Scheme::WorstFit));
///
/// // Listing 1's cache: elastic, accesses at lines 2, 5 and 9.
/// let cache = AccessPattern {
///     min_positions: vec![2, 5, 9],
///     demands: vec![0, 0, 0],
///     prog_len: 11,
///     elastic: true,
///     ingress_positions: vec![8], // the RTS
///     aliases: vec![],
/// };
/// let out = alloc.admit(1, &cache, MutantPolicy::MostConstrained).unwrap();
/// // The compact mutant lands in stages 1, 4 and 8 and, alone on the
/// // switch, owns each stage fully: 3 x 256 blocks.
/// assert_eq!(out.mutant.stages, vec![1, 4, 8]);
/// assert_eq!(out.granted_blocks(), 3 * 256);
/// assert!(out.victims.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    cfg: AllocatorConfig,
    pools: Vec<StagePool>,
    apps: BTreeMap<Fid, AppRecord>,
    accounting: AllocAccounting,
    /// Reused across admissions: `mem`/`tcam` are cleared per arrival,
    /// `prefix` persists (see [`FeasMemo`]).
    memo: FeasMemo,
}

/// One FID's admission ledger (a row of the allocator's accounting).
///
/// Invariant: `admitted + rejected == arrivals` — every request that
/// reaches the allocator is resolved one way or the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FidAllocStats {
    /// Admission requests that reached the allocator.
    pub arrivals: u64,
    /// Requests granted memory.
    pub admitted: u64,
    /// Requests denied (no feasible mutant, out of memory/TCAM,
    /// duplicate FID, invalid pattern).
    pub rejected: u64,
    /// Times this FID's placement was repacked as a side effect of
    /// another FID's admission (elastic victim events).
    pub victim_events: u64,
}

/// The allocator's admission accounting: registry-adoptable totals, a
/// compute-time histogram, and the per-FID ledger. `Clone` detaches
/// the counter cells (the bench harness clones allocators to compare
/// the memoized and reference searches side by side).
#[derive(Debug, Default)]
struct AllocAccounting {
    arrivals: Counter,
    admitted: Counter,
    rejected: Counter,
    admit_ns: Histogram,
    per_fid: BTreeMap<Fid, FidAllocStats>,
}

impl Clone for AllocAccounting {
    fn clone(&self) -> AllocAccounting {
        AllocAccounting {
            arrivals: self.arrivals.detached_copy(),
            admitted: self.admitted.detached_copy(),
            rejected: self.rejected.detached_copy(),
            admit_ns: self.admit_ns.detached_copy(),
            per_fid: self.per_fid.clone(),
        }
    }
}

impl Allocator {
    /// A fresh allocator with empty pools.
    pub fn new(cfg: AllocatorConfig) -> Allocator {
        let pools = (0..cfg.num_stages)
            .map(|_| {
                if cfg.literal_fill {
                    StagePool::new_literal(cfg.blocks_per_stage)
                } else {
                    StagePool::new(cfg.blocks_per_stage)
                }
            })
            .collect();
        Allocator {
            cfg,
            pools,
            apps: BTreeMap::new(),
            accounting: AllocAccounting::default(),
            memo: FeasMemo::default(),
        }
    }

    /// Adopt the allocator's admission counters and compute-time
    /// histogram into a metrics registry.
    pub fn bind_telemetry(&self, telemetry: &Telemetry) {
        let reg = telemetry.registry();
        reg.register_counter("alloc.arrivals", &self.accounting.arrivals);
        reg.register_counter("alloc.admitted", &self.accounting.admitted);
        reg.register_counter("alloc.rejected", &self.accounting.rejected);
        reg.register_histogram("alloc.admit_ns", &self.accounting.admit_ns);
    }

    /// Totals of the admission ledger: `(arrivals, admitted, rejected)`.
    pub fn admission_totals(&self) -> (u64, u64, u64) {
        (
            self.accounting.arrivals.get(),
            self.accounting.admitted.get(),
            self.accounting.rejected.get(),
        )
    }

    /// The measured admission compute-time histogram (wall-clock ns).
    pub fn admit_time_histogram(&self) -> &Histogram {
        &self.accounting.admit_ns
    }

    /// Per-FID admission ledger rows, sorted by FID.
    pub fn fid_accounting(&self) -> impl Iterator<Item = (Fid, &FidAllocStats)> {
        self.accounting.per_fid.iter().map(|(&f, s)| (f, s))
    }

    /// The configuration in force.
    pub fn config(&self) -> &AllocatorConfig {
        &self.cfg
    }

    /// The per-stage pools (read-only; used by metrics and tests).
    pub fn pools(&self) -> &[StagePool] {
        &self.pools
    }

    /// Resident applications.
    pub fn apps(&self) -> impl Iterator<Item = (Fid, &AppRecord)> {
        self.apps.iter().map(|(f, r)| (*f, r))
    }

    /// Is `fid` resident?
    pub fn contains(&self, fid: Fid) -> bool {
        self.apps.contains_key(&fid)
    }

    /// Number of resident applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// The record for a resident application.
    pub fn app(&self, fid: Fid) -> Option<&AppRecord> {
        self.apps.get(&fid)
    }

    /// Overall memory utilization: allocated blocks / total blocks
    /// (the quantity Figures 6, 7a and 11 plot).
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.pools.iter().map(|p| u64::from(p.capacity())).sum();
        let used: u64 = self.pools.iter().map(|p| u64::from(p.used())).sum();
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    }

    /// Total blocks currently held by `fid` across stages.
    pub fn app_blocks(&self, fid: Fid) -> u64 {
        self.pools
            .iter()
            .filter_map(|p| p.allocation_of(fid))
            .map(|r| u64::from(r.len))
            .sum()
    }

    /// Current placements of `fid`, ascending by stage.
    pub fn placements_of(&self, fid: Fid) -> Vec<StagePlacement> {
        self.pools
            .iter()
            .enumerate()
            .filter_map(|(s, p)| {
                p.allocation_of(fid)
                    .map(|range| StagePlacement { stage: s, range })
            })
            .collect()
    }

    /// Protection-TCAM entries a stage's current allocations cost.
    pub fn tcam_used(&self, stage: usize) -> usize {
        Self::stage_tcam_cost(&self.pools[stage], self.cfg.block_regs)
    }

    fn stage_tcam_cost(pool: &StagePool, block_regs: u32) -> usize {
        pool.allocations()
            .filter(|(_, r)| !r.is_empty())
            .map(|(_, r)| {
                let (lo, hi) = r.to_registers(block_regs);
                range_prefix_count(lo, hi - 1)
            })
            .sum()
    }

    /// Enumerate the candidate mutants for a request (exposed for the
    /// `tab_mutants` harness and Figure 5's mutant-count commentary).
    pub fn enumerate_mutants(&self, pattern: &AccessPattern, policy: MutantPolicy) -> Vec<Mutant> {
        self.cfg.mutant_space().enumerate(pattern, policy)
    }

    /// Admit a new application (Section 4.3's allocation process,
    /// control-plane half). Uses the incremental search: per-stage
    /// feasibility and TCAM range-expansion costs are memoized across
    /// the arrival's mutants.
    pub fn admit(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
    ) -> Result<AllocOutcome, AdmitError> {
        self.admit_impl(fid, pattern, policy, true)
    }

    /// [`Allocator::admit`] in its literal form: the enumeration is
    /// rebuilt, every candidate is scored with [`Scheme::cost`], the
    /// whole list is sorted, and every probe re-checks every stage from
    /// scratch. Kept as the equivalence oracle for the incremental
    /// search's memos, weight table and lazy selection.
    pub fn admit_reference(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
    ) -> Result<AllocOutcome, AdmitError> {
        self.admit_impl(fid, pattern, policy, false)
    }

    /// Accounting wrapper around the search: every arrival is resolved
    /// into exactly one of admitted/rejected, keeping the ledger
    /// invariant `admitted + rejected == arrivals` per FID and in
    /// total.
    fn admit_impl(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        incremental: bool,
    ) -> Result<AllocOutcome, AdmitError> {
        self.accounting.arrivals.inc();
        self.accounting.per_fid.entry(fid).or_default().arrivals += 1;
        let result = self.admit_inner(fid, pattern, policy, incremental);
        match &result {
            Ok(out) => {
                self.accounting.admitted.inc();
                self.accounting.per_fid.entry(fid).or_default().admitted += 1;
                self.accounting
                    .admit_ns
                    .record(out.compute_time.as_nanos().min(u128::from(u64::MAX)) as u64);
                let mut vfids: Vec<Fid> = out.victims.iter().map(|v| v.fid).collect();
                vfids.sort_unstable();
                vfids.dedup();
                for v in vfids {
                    self.accounting.per_fid.entry(v).or_default().victim_events += 1;
                }
            }
            Err(_) => {
                self.accounting.rejected.inc();
                self.accounting.per_fid.entry(fid).or_default().rejected += 1;
            }
        }
        result
    }

    fn admit_inner(
        &mut self,
        fid: Fid,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        incremental: bool,
    ) -> Result<AllocOutcome, AdmitError> {
        let start = Instant::now();
        if self.apps.contains_key(&fid) {
            return Err(AdmitError::DuplicateFid(fid));
        }
        pattern.validate()?;

        // Rank by `(cost, passes, enumeration order)`: scheme
        // preference dominates, recirculation passes break ties
        // (least-constrained deliberately trades extra passes for better
        // placements — Section 6.1), then the systematic enumeration
        // order. FirstFit keeps pure enumeration order: "greedily
        // selects the first available memory region in the systematic
        // enumeration sequence". Feasibility (which must trial-apply
        // pool changes to price the protection TCAM) is probed lazily in
        // rank order, so the first feasible candidate is exactly the
        // one an exhaustive scan would select.
        let mut tally = ProbeTally::default();
        let (mutants_considered, winner) = if incremental {
            // Take the allocator-resident memo for the admission (a
            // local sidesteps the &self/&mut-field borrow conflict).
            let mut memo = std::mem::take(&mut self.memo);
            let searched = self.search(pattern, policy, &mut memo, &mut tally);
            self.memo = memo;
            searched
        } else {
            self.search_reference(pattern, policy, &mut tally)
        };
        let (mutant, stages) = winner.ok_or_else(|| tally.refusal())?;

        let victims = self.apply(fid, &stages, pattern.elastic);
        self.apps.insert(
            fid,
            AppRecord {
                pattern: pattern.clone(),
                policy,
                mutant: mutant.clone(),
            },
        );
        debug_assert!(self.pools.iter().all(|p| p.check_invariants().is_ok()));

        Ok(AllocOutcome {
            fid,
            mutant,
            placements: self.placements_of(fid),
            victims,
            mutants_considered,
            feasible_candidates: tally.feasible,
            compute_time: start.elapsed(),
        })
    }

    /// The incremental search. The pool-state-dependent memo tables are
    /// invalidated per arrival; the pure prefix-price and
    /// candidate-enumeration tables persist, so the candidate set is
    /// built once per `(pattern, policy)` and allocator.
    fn search(
        &self,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        memo: &mut FeasMemo,
        tally: &mut ProbeTally,
    ) -> Searched {
        memo.mem.clear();
        memo.tcam.clear();
        if memo.prefix.len() > PREFIX_MEMO_CAP {
            memo.prefix.clear();
        }
        let cset = memo.candidate_set(&self.cfg, pattern, policy);
        let n = cset.dedup.len();
        let mut accepts = |di: usize, memo: &mut FeasMemo| {
            tally.accepts(self.candidate_feasible_cached(cset.stages(di), pattern.elastic, memo))
        };
        let chosen = if n == 0 {
            None
        } else if self.cfg.scheme == Scheme::FirstFit {
            (0..n).find(|&di| accepts(di, memo))
        } else {
            // One weight per stage (or per `(stage, demand)`) for the
            // whole arrival, one pricing scan for the head, and a heap
            // — built in linear time — only if the head is refused.
            let weights = StageWeights::new(self.cfg.scheme, &self.pools, pattern);
            // The head is the least `(cost, passes)`, the first in
            // enumeration order among equals: dedup order is
            // enumeration order, so it is the least key.
            let mut head = 0;
            let mut least = (i64::MAX, u32::MAX);
            for (di, c) in cset.dedup.iter().enumerate() {
                let stages = &cset.stage_pool[c.stages_start as usize..c.stages_end as usize];
                let rank = (weights.cost(stages), c.passes);
                if rank < least {
                    (least, head) = (rank, di);
                }
            }
            if accepts(head, memo) {
                Some(head)
            } else {
                let key = |di: usize| {
                    let c = &cset.dedup[di];
                    (weights.cost(cset.stages(di)), c.passes, c.idx as usize, di)
                };
                let mut keys = std::mem::take(&mut memo.ranked);
                keys.extend((0..n).filter(|&di| di != head).map(|di| Reverse(key(di))));
                let mut heap = BinaryHeap::from(keys);
                let mut chosen = None;
                while let Some(Reverse((.., di))) = heap.pop() {
                    if accepts(di, memo) {
                        chosen = Some(di);
                        break;
                    }
                }
                memo.ranked = heap.into_vec();
                memo.ranked.clear();
                chosen
            }
        };
        let winner = chosen.map(|di| {
            let stages = cset.stages(di);
            (
                cset.mutant(&self.cfg.mutant_space(), pattern, di),
                stages.iter().map(|&(s, d)| (usize::from(s), d)).collect(),
            )
        });
        (cset.enumerated, winner)
    }

    /// The literal search, the oracle of [`Allocator::search`]: the
    /// enumeration collected, every mutant's stage demands deduplicated
    /// through a `HashSet`, every candidate scored with
    /// [`Scheme::cost`], the whole list sorted, and every probe
    /// re-checking every stage from scratch.
    fn search_reference(
        &self,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        tally: &mut ProbeTally,
    ) -> Searched {
        let mut mutants = self.enumerate_mutants(pattern, policy);
        let mut seen = HashSet::new();
        let mut candidates: Vec<(usize, Vec<(usize, u16)>)> = Vec::new();
        for (idx, m) in mutants.iter().enumerate() {
            let stages = m.stage_demands(&pattern.demands);
            if seen.insert((stages.clone(), m.passes)) {
                candidates.push((idx, stages));
            }
        }
        let order: Vec<usize> = if self.cfg.scheme == Scheme::FirstFit {
            (0..candidates.len()).collect()
        } else {
            let mut ranked: Vec<RankKey> = candidates
                .iter()
                .enumerate()
                .map(|(di, (idx, stages))| {
                    let cost = self.cfg.scheme.cost(&self.pools, stages, pattern.elastic);
                    (cost, mutants[*idx].passes, *idx, di)
                })
                .collect();
            ranked.sort_unstable();
            ranked.into_iter().map(|(.., di)| di).collect()
        };
        let chosen = order
            .into_iter()
            .find(|&di| tally.accepts(self.candidate_feasible(&candidates[di].1, pattern.elastic)));
        let considered = mutants.len();
        let winner = chosen.map(|di| {
            let (idx, stages) = candidates.swap_remove(di);
            (mutants.swap_remove(idx), stages)
        });
        (considered, winner)
    }

    /// Release an application's allocation (service departure or
    /// Section 4.3 deallocation). Elastic incumbents in the freed stages
    /// expand; their changes are returned as reallocations.
    pub fn release(&mut self, fid: Fid) -> Result<Vec<Reallocation>, CoreError> {
        if self.apps.remove(&fid).is_none() {
            return Err(CoreError::UnknownFid(fid));
        }
        let mut victims = Vec::new();
        for (s, pool) in self.pools.iter_mut().enumerate() {
            if pool.remove(fid).is_some() {
                for (vfid, old, new) in pool.recompute_elastic() {
                    victims.push(Reallocation {
                        fid: vfid,
                        stage: s,
                        old,
                        new,
                    });
                }
            }
        }
        debug_assert!(self.pools.iter().all(|p| p.check_invariants().is_ok()));
        Ok(victims)
    }

    /// [`Allocator::candidate_feasible`] with per-arrival memoization:
    /// each `(stage, demand)` probe and each TCAM range price is
    /// computed once per admission, however many mutants touch it.
    /// The pools are immutable during candidate probing, so a memoized
    /// answer is exact — the two probes are observationally identical.
    fn candidate_feasible_cached(
        &self,
        stages: &[StageDemand],
        elastic: bool,
        memo: &mut FeasMemo,
    ) -> Result<(), AdmitError> {
        let FeasMemo {
            mem, tcam, prefix, ..
        } = memo;
        // Memory first, TCAM second — mirroring the uncached probe so
        // the OutOfMemory/OutOfTcam error priority is preserved.
        for &(s, demand) in stages {
            let s = usize::from(s);
            let key = (s, if elastic { 0 } else { demand });
            let fits = *mem.entry(key).or_insert_with(|| {
                let pool = &self.pools[s];
                if elastic {
                    pool.elastic_fits()
                } else {
                    pool.inelastic_slot(u32::from(demand)).is_some()
                }
            });
            if !fits {
                return Err(AdmitError::OutOfMemory);
            }
        }
        for &(s, demand) in stages {
            let s = usize::from(s);
            let key = (s, if elastic { 0 } else { demand });
            let fits = *tcam.entry(key).or_insert_with(|| {
                let mut trial = self.pools[s].clone();
                if elastic {
                    trial.insert_elastic(u16::MAX); // placeholder fid
                } else {
                    trial.insert_inelastic(u16::MAX, u32::from(demand));
                }
                trial.recompute_elastic();
                let cost: usize = trial
                    .allocations()
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(_, r)| {
                        let (lo, hi) = r.to_registers(self.cfg.block_regs);
                        *prefix
                            .entry((lo, hi - 1))
                            .or_insert_with(|| range_prefix_count(lo, hi - 1))
                    })
                    .sum();
                cost <= self.cfg.tcam_entries_per_stage
            });
            if !fits {
                return Err(AdmitError::OutOfTcam);
            }
        }
        Ok(())
    }

    /// Would placing `stages` succeed on memory and TCAM?
    fn candidate_feasible(&self, stages: &[(usize, u16)], elastic: bool) -> Result<(), AdmitError> {
        // Cheap memory checks first (failed allocations must be brief —
        // Figure 5a), then the trial-apply TCAM pricing.
        for &(s, demand) in stages {
            let pool = &self.pools[s];
            let fits = if elastic {
                pool.elastic_fits()
            } else {
                pool.inelastic_slot(u32::from(demand)).is_some()
            };
            if !fits {
                return Err(AdmitError::OutOfMemory);
            }
        }
        for &(s, demand) in stages {
            let pool = &self.pools[s];
            // Trial-apply on a clone of the single pool to price the
            // protection TCAM exactly (ranges move when elastic shares
            // are recomputed).
            let mut trial = pool.clone();
            if elastic {
                trial.insert_elastic(u16::MAX); // placeholder fid
            } else {
                trial.insert_inelastic(u16::MAX, u32::from(demand));
            }
            trial.recompute_elastic();
            if Self::stage_tcam_cost(&trial, self.cfg.block_regs) > self.cfg.tcam_entries_per_stage
            {
                return Err(AdmitError::OutOfTcam);
            }
        }
        Ok(())
    }

    /// Apply the chosen placement, returning incumbent reallocations.
    fn apply(&mut self, fid: Fid, stages: &[(usize, u16)], elastic: bool) -> Vec<Reallocation> {
        let mut victims = Vec::new();
        for &(s, demand) in stages {
            let pool = &mut self.pools[s];
            if elastic {
                let ok = pool.insert_elastic(fid);
                debug_assert!(ok, "feasibility was checked");
            } else {
                let r = pool.insert_inelastic(fid, u32::from(demand));
                debug_assert!(r.is_some(), "feasibility was checked");
            }
            for (vfid, old, new) in pool.recompute_elastic() {
                if vfid != fid {
                    victims.push(Reallocation {
                        fid: vfid,
                        stage: s,
                        old,
                        new,
                    });
                }
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scheme: Scheme) -> AllocatorConfig {
        AllocatorConfig {
            num_stages: 20,
            ingress_stages: 10,
            blocks_per_stage: 256,
            block_regs: 256,
            tcam_entries_per_stage: 2048,
            scheme,
            max_extra_recircs: 1,
            literal_fill: false,
        }
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

    /// The paper's stateless load balancer: inelastic, 2 blocks
    /// (Section 6.1), four memory touches (Listing 3), as
    /// `CheetahLb::service` compiles it.
    fn lb_pattern() -> AccessPattern {
        AccessPattern {
            min_positions: vec![5, 10, 19, 21],
            demands: vec![1, 1, 1, 2],
            prog_len: 30,
            elastic: false,
            // SET_DST is not position-constrained (see the opcode
            // table); the LB has no ingress-bound instructions.
            ingress_positions: vec![],
            aliases: vec![],
        }
    }

    /// The heavy-hitter monitor (Listing 2) as `HeavyHitterApp::service`
    /// compiles it: two 8-block sketch rows and a one-block directory,
    /// the threshold write (access 4) aliasing its read (access 2).
    fn monitor_pattern() -> AccessPattern {
        AccessPattern {
            min_positions: vec![8, 13, 15, 20, 25, 27],
            demands: vec![8, 8, 1, 1, 0, 1],
            prog_len: 28,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![(2, 4)],
        }
    }

    #[test]
    fn candidate_sets_of_the_deployed_services_keep_their_counts() {
        // `(enumerated, deduplicated)` at the default switch's geometry;
        // the enumerated count is `mutants_considered`, an input to the
        // controller's virtual time. The flat table must also hold
        // exactly the candidates a literal `HashSet` dedup of the
        // collected enumeration keeps, in the same order.
        let c = cfg(Scheme::WorstFit);
        for (name, pattern, mc, lc) in [
            ("cache", cache_pattern(), (10, 10), (4_526, 1_715)),
            ("monitor", monitor_pattern(), (150, 150), (117_697, 63_584)),
            ("balancer", lb_pattern(), (764, 660), (36_111, 14_081)),
        ] {
            for (policy, want) in [
                (MutantPolicy::MostConstrained, mc),
                (MutantPolicy::LeastConstrained, lc),
            ] {
                let set = CandidateSet::build(&c, &pattern, policy);
                assert_eq!((set.enumerated, set.dedup.len()), want, "{name} {policy:?}");
                let mutants = c.mutant_space().enumerate(&pattern, policy);
                let mut seen = HashSet::new();
                let literal: Vec<(usize, &Mutant)> = mutants
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| seen.insert((m.stage_demands(&pattern.demands), m.passes)))
                    .collect();
                assert_eq!(literal.len(), set.dedup.len(), "{name} {policy:?}");
                for (di, (idx, m)) in literal.into_iter().enumerate() {
                    assert_eq!(set.dedup[di].idx as usize, idx, "{name} {policy:?}");
                    assert_eq!(&set.mutant(&c.mutant_space(), &pattern, di), m);
                    let stages: Vec<(usize, u16)> = set
                        .stages(di)
                        .iter()
                        .map(|&(s, d)| (usize::from(s), d))
                        .collect();
                    assert_eq!(stages, m.stage_demands(&pattern.demands));
                }
            }
        }
    }

    #[test]
    fn first_cache_gets_the_compact_mutant_and_full_stages() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        let out = a
            .admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert_eq!(out.mutant.stages, vec![1, 4, 8]);
        assert!(out.victims.is_empty());
        // The only elastic tenant owns each stage fully.
        assert_eq!(out.granted_blocks(), 3 * 256);
        assert_eq!(a.app_blocks(1), 3 * 256);
    }

    #[test]
    fn worst_fit_spreads_cache_instances_to_disjoint_stages() {
        // Figure 9b: "The first three instances are able to take
        // advantage of disjoint mutants ... thus obtaining exclusive
        // memory regions (stages) and consequently zero disruption."
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        let o1 = a
            .admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let o2 = a
            .admit(2, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let o3 = a
            .admit(3, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert!(o2.victims.is_empty());
        assert!(o3.victims.is_empty());
        let mut all: Vec<usize> = [&o1, &o2, &o3]
            .iter()
            .flat_map(|o| o.mutant.stages.clone())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 9, "three instances occupy nine distinct stages");
        // The fourth must share and therefore displaces an incumbent.
        let o4 = a
            .admit(4, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert!(!o4.victims.is_empty());
        let victim_fids: HashSet<Fid> = o4.victims.iter().map(|v| v.fid).collect();
        assert_eq!(victim_fids.len(), 1, "exactly one incumbent shares stages");
        // Both co-located instances end with equal shares.
        let shared = *victim_fids.iter().next().unwrap();
        assert_eq!(a.app_blocks(shared), a.app_blocks(4));
        assert_eq!(a.app_blocks(shared), 3 * 128);
    }

    #[test]
    fn inelastic_apps_never_become_victims() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        a.admit(1, &lb_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        for fid in 2..12 {
            let out = a.admit(fid, &cache_pattern(), MutantPolicy::MostConstrained);
            if let Ok(out) = out {
                assert!(out.victims.iter().all(|v| v.fid != 1));
            }
        }
        // The LB's blocks are untouched.
        assert_eq!(a.app_blocks(1), 5); // 1+1+1+2 across four stages
    }

    #[test]
    fn release_returns_memory_and_grows_survivors() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        a.admit(2, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        a.admit(3, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let o4 = a
            .admit(4, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        let shared: Fid = o4.victims[0].fid;
        let before = a.app_blocks(shared);
        let grown = a.release(4).unwrap();
        assert!(grown.iter().all(|v| v.fid == shared));
        assert!(a.app_blocks(shared) > before);
        assert_eq!(a.app_blocks(shared), 3 * 256);
        assert!(a.release(4).is_err(), "double release is an error");
    }

    #[test]
    fn duplicate_fid_is_rejected() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert_eq!(
            a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
                .unwrap_err(),
            AdmitError::DuplicateFid(1)
        );
    }

    #[test]
    fn memory_exhaustion_is_reported() {
        // Tiny pools: 2 blocks per stage. Inelastic LB demands 2 blocks
        // in its last stage; two instances exhaust any stage pair.
        let mut c = cfg(Scheme::WorstFit);
        c.blocks_per_stage = 2;
        let mut a = Allocator::new(c);
        let mut failures = 0;
        for fid in 0..200 {
            match a.admit(fid, &lb_pattern(), MutantPolicy::MostConstrained) {
                Ok(_) => {}
                Err(AdmitError::OutOfMemory) => {
                    failures += 1;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(failures, 1, "pool exhaustion must surface as OutOfMemory");
    }

    #[test]
    fn elastic_count_is_bounded_by_blocks() {
        // A stage of B blocks can host at most B elastic tenants.
        let mut c = cfg(Scheme::WorstFit);
        c.blocks_per_stage = 4;
        let mut a = Allocator::new(c);
        let mut admitted = 0;
        for fid in 0..100 {
            if a.admit(fid, &cache_pattern(), MutantPolicy::MostConstrained)
                .is_ok()
            {
                admitted += 1;
            } else {
                break;
            }
        }
        // 9 reachable stages, 4 tenants each, 3 stages per instance:
        // 12 instances fill the most-constrained window.
        assert_eq!(admitted, 12);
    }

    #[test]
    fn tcam_exhaustion_is_reported() {
        let mut c = cfg(Scheme::WorstFit);
        c.tcam_entries_per_stage = 8;
        let mut a = Allocator::new(c);
        let mut last_err = None;
        for fid in 0..300 {
            match a.admit(fid, &cache_pattern(), MutantPolicy::MostConstrained) {
                Ok(_) => {}
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(last_err, Some(AdmitError::OutOfTcam));
    }

    #[test]
    fn first_fit_takes_the_compact_mutant() {
        let mut a = Allocator::new(cfg(Scheme::FirstFit));
        for fid in 0..5 {
            let out = a
                .admit(fid, &cache_pattern(), MutantPolicy::MostConstrained)
                .unwrap();
            // First-fit always lands on the first feasible candidate —
            // the compact (2, 5, 9) placement — piling instances up.
            assert_eq!(out.mutant.stages, vec![1, 4, 8]);
        }
    }

    #[test]
    fn cached_and_reference_probes_agree() {
        // Two allocators fed the same arrival sequence, one through the
        // memoized, weight-table search and one through the literal
        // score-sort-probe search, must make identical decisions at
        // every step.
        for scheme in Scheme::ALL {
            let mut fast = Allocator::new(cfg(scheme));
            let mut slow = Allocator::new(cfg(scheme));
            for fid in 0..16u16 {
                let (pattern, policy) = if fid % 3 == 0 {
                    (lb_pattern(), MutantPolicy::MostConstrained)
                } else {
                    (cache_pattern(), MutantPolicy::LeastConstrained)
                };
                let a = fast.admit(fid, &pattern, policy);
                let b = slow.admit_reference(fid, &pattern, policy);
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.mutant.stages, y.mutant.stages, "fid {fid}");
                        assert_eq!(x.placements, y.placements, "fid {fid}");
                        assert_eq!(x.victims, y.victims, "fid {fid}");
                    }
                    (Err(x), Err(y)) => assert_eq!(x, y, "fid {fid}"),
                    (x, y) => panic!("divergence at fid {fid}: {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn utilization_tracks_admissions() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        assert_eq!(a.utilization(), 0.0);
        a.admit(1, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        // 3 of 20 stages fully used.
        assert!((a.utilization() - 3.0 / 20.0).abs() < 1e-9);
        a.admit(2, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        assert!((a.utilization() - 6.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn least_constrained_reaches_more_stages() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        for fid in 0..12 {
            a.admit(fid, &cache_pattern(), MutantPolicy::LeastConstrained)
                .unwrap();
        }
        let touched: usize = a.pools().iter().filter(|p| p.elastic_count() > 0).count();
        assert!(
            touched > 9,
            "least-constrained cache must reach beyond the 9 mc stages, got {touched}"
        );
    }

    #[test]
    fn placements_match_response_regions() {
        let mut a = Allocator::new(cfg(Scheme::WorstFit));
        let out = a
            .admit(5, &cache_pattern(), MutantPolicy::MostConstrained)
            .unwrap();
        for p in &out.placements {
            let (lo, hi) = p.range.to_registers(256);
            assert_eq!(hi - lo, 256 * 256); // full stage in registers
            assert!(out.mutant.stages.contains(&p.stage));
        }
    }
}
