//! The analysis crate's one abstract semantics, and the dataflow
//! analyses built on it.
//!
//! * [`reads_writes`] is the declarative register-effect table over
//!   {MAR, MBR, MBR2, HD}; [`pure_writer`] is derived from it, and the
//!   copy tables and the branch-condition table ([`mbr_zero_along`]) sit
//!   beside it.
//! * [`transfer_values`] is the only per-opcode abstract semantics: what
//!   an instruction does to MAR/MBR/MBR2 and the argument words, over
//!   the interval × known-bits × provenance domain from [`crate::domain`]
//!   fused with a deterministic value numbering, so "these two registers
//!   hold the same (unknown) value" is provable, not just "both are ⊤".
//!   Given the translation entry an `ADDR_MASK`/`ADDR_OFFSET` applies, it
//!   is the verifier's transfer; given none, the context-free one the
//!   lints use.
//!
//! Over it, three analyses, each a single sweep (the CFG is a DAG —
//! every edge goes forward — so one pass reaches the fixed point):
//! [`liveness`] backward, and [`reaching_defs`] and [`value_facts`]
//! forward through [`Cfg::sweep_forward`], the pass the verifier's walk
//! also runs.

use crate::cfg::{Cfg, EdgeKind};
use crate::domain::{AbsVal, Origin};
use activermt_isa::constants::NUM_ARGS;
use activermt_isa::{Instruction, Opcode};
use activermt_rmt::ProtEntry;

/// Bitmask register set over the PHV scratch state the program itself
/// owns: MAR, MBR, MBR2, and the hash-data buffer.
pub(crate) type Regs = u8;
/// Memory address register.
pub(crate) const MAR: Regs = 1;
/// Memory buffer register.
pub(crate) const MBR: Regs = 2;
/// Second memory buffer register.
pub(crate) const MBR2: Regs = 4;
/// The hash-data staging buffer (append-only).
pub(crate) const HD: Regs = 8;

/// Human-readable name for a register mask with one bit set.
pub(crate) fn reg_name(r: Regs) -> &'static str {
    match r {
        MAR => "MAR",
        MBR => "MBR",
        MBR2 => "MBR2",
        HD => "the hash-data buffer",
        _ => "registers",
    }
}

/// `(reads, writes)` over {MAR, MBR, MBR2, HD} for one opcode.
/// Argument words are not modeled: the parser always initializes them,
/// and `MBR_STORE`'s write to them is externally visible (never dead).
#[allow(clippy::match_same_arms)]
pub(crate) fn reads_writes(op: Opcode) -> (Regs, Regs) {
    use Opcode::{
        ADDR_MASK, ADDR_OFFSET, BIT_AND_MAR_MBR, BIT_OR_MBR_MBR2, CJUMP, CJUMPI,
        COPY_HASHDATA_5TUPLE, COPY_HASHDATA_MBR, COPY_HASHDATA_MBR2, COPY_MAR_MBR, COPY_MBR2_MBR,
        COPY_MBR_MAR, COPY_MBR_MBR2, CRET, CRETI, CRTS, DROP, EOF, FORK, HASH, MAR_ADD_MBR,
        MAR_ADD_MBR2, MAR_LOAD, MAR_MBR_ADD_MBR2, MAX, MBR2_LOAD, MBR_ADD_MBR2, MBR_EQUALS_DATA_1,
        MBR_EQUALS_DATA_2, MBR_EQUALS_MBR2, MBR_LOAD, MBR_NOT, MBR_STORE, MBR_SUBTRACT_MBR2,
        MEM_INCREMENT, MEM_MINREAD, MEM_MINREADINC, MEM_READ, MEM_WRITE, MIN, NOP, RETURN, REVMIN,
        RTS, SET_DST, SWAP_MBR_MBR2, UJUMP,
    };
    match op {
        EOF | NOP | RETURN | UJUMP | DROP | FORK | RTS => (0, 0),
        CRET | CRETI | CJUMP | CJUMPI | CRTS | SET_DST => (MBR, 0),
        ADDR_MASK | ADDR_OFFSET => (MAR, MAR),
        HASH => (HD, MAR),
        MBR_LOAD => (0, MBR),
        MBR2_LOAD => (0, MBR2),
        MAR_LOAD => (0, MAR),
        MBR_STORE => (MBR, 0),
        COPY_MBR2_MBR => (MBR, MBR2),
        COPY_MBR_MBR2 => (MBR2, MBR),
        COPY_MBR_MAR => (MAR, MBR),
        COPY_MAR_MBR => (MBR, MAR),
        // Appending to the hash buffer is modeled as a pure write: the
        // cursor state it consumes is not observable data.
        COPY_HASHDATA_MBR => (MBR, HD),
        COPY_HASHDATA_MBR2 => (MBR2, HD),
        COPY_HASHDATA_5TUPLE => (0, HD),
        MBR_ADD_MBR2 | MBR_SUBTRACT_MBR2 | BIT_OR_MBR_MBR2 | MBR_EQUALS_MBR2 | MAX | MIN => {
            (MBR | MBR2, MBR)
        }
        MAR_ADD_MBR | BIT_AND_MAR_MBR => (MAR | MBR, MAR),
        MAR_ADD_MBR2 => (MAR | MBR2, MAR),
        MAR_MBR_ADD_MBR2 => (MBR | MBR2, MAR),
        MBR_EQUALS_DATA_1 | MBR_EQUALS_DATA_2 | MBR_NOT => (MBR, MBR),
        REVMIN => (MBR | MBR2, MBR2),
        SWAP_MBR_MBR2 => (MBR | MBR2, MBR | MBR2),
        MEM_WRITE => (MAR | MBR, 0),
        MEM_READ | MEM_INCREMENT => (MAR, MBR),
        MEM_MINREAD | MEM_MINREADINC => (MAR | MBR2, MBR | MBR2),
    }
}

/// True when the opcode's only effect is its register writes, so a
/// store whose outputs are all dead is removable: it writes a tracked
/// register and touches no stage memory.
pub(crate) fn pure_writer(op: Opcode) -> bool {
    reads_writes(op).1 != 0 && !op.is_memory_access()
}

/// For the four register-to-register copies: `(source, destination)`.
/// `None` for every other opcode.
pub(crate) fn copy_src_dst(op: Opcode) -> Option<(Regs, Regs)> {
    match op {
        Opcode::COPY_MBR2_MBR => Some((MBR, MBR2)),
        Opcode::COPY_MBR_MBR2 => Some((MBR2, MBR)),
        Opcode::COPY_MBR_MAR => Some((MAR, MBR)),
        Opcode::COPY_MAR_MBR => Some((MBR, MAR)),
        _ => None,
    }
}

/// A `<reg>_LOAD $k` followed by a copy out of `<reg>` folds into a
/// single load of the destination register. Returns the folded opcode
/// when `(load, copy)` is such a pair.
pub(crate) fn foldable_load_copy(load: Opcode, copy: Opcode) -> Option<Opcode> {
    match (load, copy) {
        (Opcode::MBR_LOAD, Opcode::COPY_MBR2_MBR) => Some(Opcode::MBR2_LOAD),
        (Opcode::MBR_LOAD, Opcode::COPY_MAR_MBR) => Some(Opcode::MAR_LOAD),
        (Opcode::MBR2_LOAD, Opcode::COPY_MBR_MBR2) => Some(Opcode::MBR_LOAD),
        (Opcode::MAR_LOAD, Opcode::COPY_MBR_MAR) => Some(Opcode::MBR_LOAD),
        _ => None,
    }
}

/// What leaving a conditional opcode along an edge of `kind` says about
/// MBR: `Some(true)` that it was zero, `Some(false)` that it was not,
/// `None` that the edge tests nothing. `CRET` and `CJUMP` act on a
/// non-zero MBR, `CRETI` and `CJUMPI` on a zero one; the acting edge of
/// a return is its exit.
pub(crate) fn mbr_zero_along(op: Opcode, kind: EdgeKind) -> Option<bool> {
    use Opcode::{CJUMP, CJUMPI, CRET, CRETI};
    match (op, kind) {
        (CRET | CJUMP, EdgeKind::Fallthrough) | (CJUMPI, EdgeKind::Branch) => Some(true),
        (CRETI | CJUMPI, EdgeKind::Fallthrough) | (CJUMP, EdgeKind::Branch) => Some(false),
        _ => None,
    }
}

/// Iterate over the individual registers present in `mask`.
pub(crate) fn each_reg(mask: Regs) -> impl Iterator<Item = Regs> {
    [MAR, MBR, MBR2, HD]
        .into_iter()
        .filter(move |r| mask & r != 0)
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

/// Backward liveness: the registers live on exit from each node (union
/// over successors). Edges only go forward, so a single reverse sweep
/// reaches the fixed point. A hash-data write appends rather than
/// replacing, so an HD write never kills an earlier contribution.
pub(crate) fn liveness(cfg: &Cfg) -> Vec<Regs> {
    let nodes = cfg.nodes();
    let mut live_in: Vec<Regs> = vec![0; nodes.len()];
    let mut live_out: Vec<Regs> = vec![0; nodes.len()];
    for idx in (0..nodes.len()).rev() {
        let (reads, writes) = reads_writes(nodes[idx].ins.opcode);
        let mut out: Regs = 0;
        for e in &nodes[idx].edges {
            if e.to < nodes.len() {
                out |= live_in[e.to];
            }
        }
        let kills = writes & !HD;
        live_out[idx] = out;
        live_in[idx] = reads | (out & !kills);
    }
    live_out
}

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

/// The pseudo-definition index representing the parser's implicit
/// zero-initialization of every register at program entry.
pub(crate) const ENTRY_DEF: usize = DEF_BITS - 1;
const DEF_BITS: usize = 256;

/// A set of definition sites (instruction indices, plus [`ENTRY_DEF`]).
/// Programs are capped at 255 instructions, so 256 bits always fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct DefSet([u64; 4]);

impl DefSet {
    /// The singleton `{site}`.
    pub(crate) fn single(site: usize) -> DefSet {
        let mut s = DefSet::default();
        s.insert(site);
        s
    }

    /// Add a definition site.
    fn insert(&mut self, site: usize) {
        debug_assert!(site < DEF_BITS);
        self.0[site / 64] |= 1 << (site % 64);
    }

    /// Does the set contain `site`?
    pub(crate) fn contains(self, site: usize) -> bool {
        site < DEF_BITS && self.0[site / 64] & (1 << (site % 64)) != 0
    }

    /// Set union.
    fn union(mut self, other: DefSet) -> DefSet {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a |= b;
        }
        self
    }

    /// Iterate the definition sites in ascending order.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> {
        (0..DEF_BITS).filter(move |&i| self.contains(i))
    }
}

/// Index of a register bit within per-register tables.
fn reg_index(r: Regs) -> usize {
    match r {
        MAR => 0,
        MBR => 1,
        MBR2 => 2,
        _ => 3,
    }
}

/// Reaching definitions: for each node and register, which definition
/// sites may have produced the value observed on entry.
pub(crate) struct ReachingDefs {
    /// Per node, definitions of each register (by [`reg_index`])
    /// reaching its entry; `None` for unreachable nodes.
    reach_in: Vec<Option<[DefSet; 4]>>,
}

impl ReachingDefs {
    /// The definitions of register `r` reaching node `idx` (empty when
    /// the node is unreachable).
    pub(crate) fn defs_of(&self, idx: usize, r: Regs) -> DefSet {
        self.reach_in
            .get(idx)
            .copied()
            .flatten()
            .map_or_else(DefSet::default, |s| s[reg_index(r)])
    }
}

/// Forward reaching-definitions analysis. The entry state carries the
/// [`ENTRY_DEF`] pseudo-definition for every register; a write kills
/// earlier definitions of the same register except for the append-only
/// hash-data buffer, whose writes accumulate.
pub(crate) fn reaching_defs(cfg: &Cfg) -> ReachingDefs {
    let nodes = cfg.nodes();
    let reach_in = cfg.sweep_forward(
        [DefSet::single(ENTRY_DEF); 4],
        |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.union(*y);
            }
        },
        |idx, state| {
            for r in each_reg(reads_writes(nodes[idx].ins.opcode).1) {
                let slot = &mut state[reg_index(r)];
                if r == HD {
                    slot.insert(idx);
                } else {
                    *slot = DefSet::single(idx);
                }
            }
            true
        },
        |_, _, _| true,
    );
    ReachingDefs { reach_in }
}

// ---------------------------------------------------------------------
// Value facts: the abstract transfer function
// ---------------------------------------------------------------------

/// Value number of the constant zero (the parser's register state).
const VN_ZERO: u32 = 0;
/// Value number of argument word `j` is `VN_ARG_BASE + j`.
const VN_ARG_BASE: u32 = 1;
/// Fresh value numbers produced at node `i` start at
/// `VN_FRESH_BASE + i * VN_SLOTS`.
const VN_FRESH_BASE: u32 = VN_ARG_BASE + NUM_ARGS as u32;
const VN_SLOTS: u32 = 4;

/// An abstract register value: numeric abstraction plus an optional
/// value number. Two values with the same number are guaranteed equal
/// at runtime even when neither is a known constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Val {
    /// Interval × known-bits × provenance abstraction.
    pub(crate) abs: AbsVal,
    /// Value number; `None` after a join of distinct values.
    vn: Option<u32>,
}

impl Val {
    /// An exactly known constant. Zero gets the canonical [`VN_ZERO`];
    /// other constants are identified through [`Val::as_const`].
    fn constant(v: u32) -> Val {
        Val {
            abs: AbsVal::constant(v),
            vn: (v == 0).then_some(VN_ZERO),
        }
    }

    /// Is this value a single known constant?
    pub(crate) fn as_const(&self) -> Option<u32> {
        self.abs.as_const()
    }

    /// Control-flow merge, in place.
    fn join(&mut self, other: &Val) {
        self.abs = self.abs.join(other.abs);
        if self.vn != other.vn {
            self.vn = None;
        }
    }
}

/// Are `a` and `b` provably the same runtime value — same value number,
/// or both the same known constant?
pub(crate) fn same_value(a: &Val, b: &Val) -> bool {
    (a.vn.is_some() && a.vn == b.vn)
        || matches!((a.as_const(), b.as_const()), (Some(x), Some(y)) if x == y)
}

/// The abstract machine state: the three scratch registers plus the
/// argument words (mutable via `MBR_STORE`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ValState {
    /// Memory address register.
    pub(crate) mar: Val,
    /// Memory buffer register.
    pub(crate) mbr: Val,
    /// Second memory buffer register.
    pub(crate) mbr2: Val,
    /// Argument words.
    pub(crate) args: [Val; NUM_ARGS],
}

impl ValState {
    /// The state at program entry: registers hold the parser's zero,
    /// argument word `j` holds an unknown value numbered
    /// `VN_ARG_BASE + j` with [`Origin::Arg`] provenance (the verifier
    /// narrows its interval by the assumption on it).
    pub(crate) fn entry() -> ValState {
        ValState {
            mar: Val::constant(0),
            mbr: Val::constant(0),
            mbr2: Val::constant(0),
            args: core::array::from_fn(|j| {
                #[allow(clippy::cast_possible_truncation)]
                let tag = Origin::Arg(j as u8);
                #[allow(clippy::cast_possible_truncation)]
                let vn = VN_ARG_BASE + j as u32;
                Val {
                    abs: AbsVal::top().with_origin(tag),
                    vn: Some(vn),
                }
            }),
        }
    }

    /// Control-flow merge, in place.
    pub(crate) fn join(&mut self, other: &ValState) {
        self.mar.join(&other.mar);
        self.mbr.join(&other.mbr);
        self.mbr2.join(&other.mbr2);
        for (a, b) in self.args.iter_mut().zip(&other.args) {
            a.join(b);
        }
    }

    /// The value of scratch register `r` (MAR, MBR or MBR2).
    pub(crate) fn reg(&self, r: Regs) -> &Val {
        match r {
            MAR => &self.mar,
            MBR => &self.mbr,
            _ => &self.mbr2,
        }
    }
}

/// A fresh, unique value for slot `slot` of node `node_idx`.
fn fresh(node_idx: usize, slot: u32, abs: AbsVal) -> Val {
    #[allow(clippy::cast_possible_truncation)]
    let base = VN_FRESH_BASE + node_idx as u32 * VN_SLOTS;
    Val {
        abs,
        vn: Some(base + slot),
    }
}

/// Addition with algebraic identities: `x + 0 = x` (value number
/// preserved), otherwise a fresh value with the interval sum.
fn add(a: &Val, b: &Val, node_idx: usize, slot: u32) -> Val {
    if b.as_const() == Some(0) {
        return *a;
    }
    if a.as_const() == Some(0) {
        return *b;
    }
    fresh(node_idx, slot, a.abs.wrapping_add(b.abs))
}

/// One instruction's effect on the abstract state, applied in place.
/// `node_idx` seeds the
/// fresh value numbers, so the numbering is deterministic across runs.
///
/// `entry` is the translation entry an `ADDR_MASK`/`ADDR_OFFSET` applies
/// (the verifier's binding: the entry of the stage its guarded access
/// runs in); context-free callers pass `None` and get an unknown MAR.
/// Either way a translation keeps an [`Origin::Arg`] provenance — it
/// narrows a client-linked argument, it does not launder it — and
/// `ADDR_OFFSET` keeps every provenance, so only `ADDR_MASK` re-bounds
/// a hash.
#[allow(clippy::too_many_lines)]
pub(crate) fn transfer_values(
    s: &mut ValState,
    ins: Instruction,
    node_idx: usize,
    entry: Option<ProtEntry>,
) {
    use Opcode::{
        ADDR_MASK, ADDR_OFFSET, BIT_AND_MAR_MBR, BIT_OR_MBR_MBR2, COPY_MAR_MBR, COPY_MBR2_MBR,
        COPY_MBR_MAR, COPY_MBR_MBR2, HASH, MAR_ADD_MBR, MAR_ADD_MBR2, MAR_LOAD, MAR_MBR_ADD_MBR2,
        MAX, MBR2_LOAD, MBR_ADD_MBR2, MBR_EQUALS_DATA_1, MBR_EQUALS_DATA_2, MBR_EQUALS_MBR2,
        MBR_LOAD, MBR_NOT, MBR_STORE, MBR_SUBTRACT_MBR2, MEM_INCREMENT, MEM_MINREAD,
        MEM_MINREADINC, MEM_READ, MIN, REVMIN, SWAP_MBR_MBR2,
    };
    // The registers as the instruction reads them.
    let (mar, mbr, mbr2) = (s.mar, s.mbr, s.mbr2);
    let arg_val = |k: Option<usize>| {
        k.and_then(|k| s.args.get(k))
            .copied()
            .unwrap_or_else(|| fresh(node_idx, 3, AbsVal::top()))
    };
    let mem_val = |slot: u32| fresh(node_idx, slot, AbsVal::top().with_origin(Origin::Memory));
    match ins.opcode {
        MBR_LOAD => s.mbr = arg_val(ins.arg_index()),
        MBR2_LOAD => s.mbr2 = arg_val(ins.arg_index()),
        MAR_LOAD => s.mar = arg_val(ins.arg_index()),
        MBR_STORE => {
            if let Some(slot) = ins.arg_index().and_then(|k| s.args.get_mut(k)) {
                *slot = mbr;
            }
        }
        COPY_MBR2_MBR => s.mbr2 = mbr,
        COPY_MBR_MBR2 => s.mbr = mbr2,
        COPY_MBR_MAR => s.mbr = mar,
        COPY_MAR_MBR => s.mar = mbr,
        SWAP_MBR_MBR2 => {
            s.mbr = mbr2;
            s.mbr2 = mbr;
        }
        HASH => s.mar = fresh(node_idx, 0, AbsVal::top().with_origin(Origin::Hashed)),
        op @ (ADDR_MASK | ADDR_OFFSET) => {
            let abs = match entry {
                Some(r) if op == ADDR_MASK => mar.abs.and_const(r.mask),
                Some(r) => mar.abs.wrapping_add(AbsVal::constant(r.offset)),
                None => AbsVal::top(),
            };
            let origin = if op == ADDR_OFFSET || matches!(mar.abs.origin, Origin::Arg(_)) {
                mar.abs.origin
            } else {
                Origin::Derived
            };
            s.mar = fresh(node_idx, 0, abs.with_origin(origin));
        }
        MBR_ADD_MBR2 => s.mbr = add(&mbr, &mbr2, node_idx, 1),
        MAR_ADD_MBR => s.mar = add(&mar, &mbr, node_idx, 0),
        MAR_ADD_MBR2 => s.mar = add(&mar, &mbr2, node_idx, 0),
        MAR_MBR_ADD_MBR2 => s.mar = add(&mbr, &mbr2, node_idx, 0),
        MBR_SUBTRACT_MBR2 => {
            s.mbr = if same_value(&mbr, &mbr2) {
                Val::constant(0)
            } else if mbr2.as_const() == Some(0) {
                mbr
            } else {
                fresh(node_idx, 1, mbr.abs.wrapping_sub(mbr2.abs))
            };
        }
        BIT_AND_MAR_MBR => {
            s.mar = if same_value(&mar, &mbr) {
                mar
            } else {
                fresh(node_idx, 0, mar.abs.and(mbr.abs))
            };
        }
        BIT_OR_MBR_MBR2 => {
            s.mbr = if same_value(&mbr, &mbr2) || mbr2.as_const() == Some(0) {
                mbr
            } else if mbr.as_const() == Some(0) {
                mbr2
            } else {
                fresh(node_idx, 1, mbr.abs.or(mbr2.abs))
            };
        }
        op @ (MBR_EQUALS_MBR2 | MBR_EQUALS_DATA_1 | MBR_EQUALS_DATA_2) => {
            let other = match op {
                MBR_EQUALS_MBR2 => mbr2,
                MBR_EQUALS_DATA_1 => s.args[0],
                _ => s.args[1],
            };
            s.mbr = if same_value(&mbr, &other) {
                Val::constant(0)
            } else {
                fresh(node_idx, 1, mbr.abs.xor(other.abs))
            };
        }
        MAX => {
            s.mbr = if same_value(&mbr, &mbr2) {
                mbr
            } else {
                fresh(node_idx, 1, mbr.abs.max(mbr2.abs))
            };
        }
        MIN => {
            s.mbr = if same_value(&mbr, &mbr2) {
                mbr
            } else {
                fresh(node_idx, 1, mbr.abs.min(mbr2.abs))
            };
        }
        REVMIN => {
            s.mbr2 = if same_value(&mbr, &mbr2) {
                mbr2
            } else {
                fresh(node_idx, 2, mbr.abs.min(mbr2.abs))
            };
        }
        MBR_NOT => s.mbr = fresh(node_idx, 1, mbr.abs.bitwise_not()),
        MEM_READ | MEM_INCREMENT => s.mbr = mem_val(1),
        MEM_MINREAD | MEM_MINREADINC => {
            s.mbr = mem_val(1);
            s.mbr2 = fresh(
                node_idx,
                2,
                mbr2.abs.min(AbsVal::top().with_origin(Origin::Memory)),
            );
        }
        // Everything else (control flow, RTS/DROP/FORK/SET_DST,
        // MEM_WRITE, the hash-data appends, NOP) leaves the tracked
        // registers unchanged.
        _ => {}
    }
}

/// Context-free value facts: the entry state of every node under the
/// forward sweep of [`transfer_values`] with no translation entries;
/// `None` for unreachable nodes.
pub(crate) fn value_facts(cfg: &Cfg) -> Vec<Option<ValState>> {
    let nodes = cfg.nodes();
    cfg.sweep_forward(
        ValState::entry(),
        ValState::join,
        |idx, s| {
            transfer_values(s, nodes[idx].ins, idx, None);
            true
        },
        |_, _, _| true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use activermt_isa::ProgramBuilder;

    fn cfg_of(p: &activermt_isa::Program) -> Cfg {
        Cfg::build(p.instructions(), 20).unwrap()
    }

    /// The state flowing out of node `idx`.
    fn state_out(cfg: &Cfg, vf: &[Option<ValState>], idx: usize) -> ValState {
        let mut s = vf[idx].clone().unwrap();
        transfer_values(&mut s, cfg.nodes()[idx].ins, idx, None);
        s
    }

    /// `ins` applied to a copy of `s`, with translation entry `entry`.
    fn after(s: &ValState, ins: Instruction, entry: Option<ProtEntry>) -> AbsVal {
        let mut out = s.clone();
        transfer_values(&mut out, ins, 0, entry);
        out.mar.abs
    }

    #[test]
    fn liveness_matches_dead_store_intuition() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0) // live: read by SET_DST
            .op_arg(Opcode::MBR2_LOAD, 1) // dead: never read
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = cfg_of(&p);
        let live_out = liveness(&cfg);
        assert_eq!(live_out[0] & MBR, MBR);
        assert_eq!(live_out[1] & MBR2, 0);
    }

    #[test]
    fn pure_writers_are_the_memory_free_writers() {
        let writers: Vec<Opcode> = Opcode::ALL
            .iter()
            .copied()
            .filter(|&op| pure_writer(op))
            .collect();
        assert_eq!(writers.len(), 28);
        assert!(!pure_writer(Opcode::MEM_READ) && !pure_writer(Opcode::MBR_STORE));
        assert!(pure_writer(Opcode::HASH) && pure_writer(Opcode::COPY_HASHDATA_5TUPLE));
    }

    #[test]
    fn reaching_defs_track_entry_and_kills() {
        let p = ProgramBuilder::new()
            .op(Opcode::CRET) // reads MBR: only ENTRY_DEF reaches
            .op_arg(Opcode::MBR_LOAD, 0)
            .op(Opcode::SET_DST) // reads MBR: only the load reaches
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = cfg_of(&p);
        let rd = reaching_defs(&cfg);
        assert_eq!(rd.defs_of(0, MBR), DefSet::single(ENTRY_DEF));
        assert_eq!(rd.defs_of(2, MBR), DefSet::single(1));
    }

    #[test]
    fn reaching_defs_join_across_branches() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .jump(Opcode::CJUMP, "end")
            .op_arg(Opcode::MBR_LOAD, 1)
            .label("end")
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = cfg_of(&p);
        let rd = reaching_defs(&cfg);
        let at_setdst: Vec<usize> = rd.defs_of(3, MBR).iter().collect();
        assert_eq!(at_setdst, vec![0, 2]);
    }

    #[test]
    fn value_numbering_proves_copy_identity() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 2)
            .op(Opcode::COPY_MBR2_MBR)
            .op(Opcode::MBR_EQUALS_MBR2) // x ^ x = 0
            .op(Opcode::CRETI)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = cfg_of(&p);
        let vf = value_facts(&cfg);
        let at_xor = vf[2].as_ref().unwrap();
        assert!(same_value(&at_xor.mbr, &at_xor.mbr2));
        assert_eq!(state_out(&cfg, &vf, 2).mbr.as_const(), Some(0));
    }

    #[test]
    fn constants_propagate_through_arithmetic() {
        // mbr starts as parser zero; mbr2 load of arg then OR with a
        // zero mbr keeps mbr2's value number in mbr.
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR2_LOAD, 1)
            .op(Opcode::BIT_OR_MBR_MBR2) // 0 | arg1 = arg1
            .op(Opcode::MBR_EQUALS_MBR2) // arg1 ^ arg1 = 0
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = cfg_of(&p);
        let vf = value_facts(&cfg);
        assert_eq!(vf[2].as_ref().unwrap().mbr.vn, Some(VN_ARG_BASE + 1));
        assert_eq!(state_out(&cfg, &vf, 2).mbr.as_const(), Some(0));
    }

    #[test]
    fn joins_drop_unequal_value_numbers() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .jump(Opcode::CJUMP, "end")
            .op_arg(Opcode::MBR_LOAD, 1)
            .label("end")
            .op(Opcode::SET_DST)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = cfg_of(&p);
        let vf = value_facts(&cfg);
        assert_eq!(vf[3].as_ref().unwrap().mbr.vn, None);
    }

    #[test]
    fn mbr_store_moves_values_into_args() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .op_arg(Opcode::MBR_STORE, 3)
            .op_arg(Opcode::MBR2_LOAD, 3)
            .op(Opcode::MBR_EQUALS_MBR2)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = cfg_of(&p);
        let vf = value_facts(&cfg);
        assert_eq!(state_out(&cfg, &vf, 3).mbr.as_const(), Some(0));
    }

    #[test]
    fn translations_keep_argument_and_offset_provenance() {
        let entry = ProtEntry {
            lo: 100,
            hi: 227,
            mask: 127,
            offset: 100,
        };
        let mask = Instruction::new(Opcode::ADDR_MASK);
        let offset = Instruction::new(Opcode::ADDR_OFFSET);
        let mut hashed = ValState::entry();
        hashed.mar.abs = AbsVal::top().with_origin(Origin::Hashed);
        let masked = after(&hashed, mask, Some(entry));
        assert_eq!(
            (masked.lo, masked.hi, masked.origin),
            (0, 127, Origin::Derived)
        );
        let translated = after(&hashed, offset, None);
        assert_eq!(
            translated.origin,
            Origin::Hashed,
            "an offset re-bounds nothing"
        );
        let mut linked = ValState::entry();
        linked.mar = linked.args[2];
        for (ins, at) in [(mask, Some(entry)), (offset, Some(entry)), (mask, None)] {
            assert_eq!(after(&linked, ins, at).origin, Origin::Arg(2));
        }
    }
}
