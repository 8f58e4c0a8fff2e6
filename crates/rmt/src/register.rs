//! Per-stage stateful register memory and its ALU micro-programs.
//!
//! "On a Tofino switch register 'externs' enable this capability. Each
//! register has its own stateful ALU for which multiple micro-programs
//! (register actions) can be defined and selected, on a per-packet basis,
//! from the same match table. We define memory semantics using four
//! register ALU actions." (Section 3.2)
//!
//! The crucial architectural constraint — enforced here, not merely
//! documented — is that **a packet can perform at most one
//! read-modify-write on one index of a stage's array per pass**
//! (Section 3.2: "a packet ... can access only one memory object per
//! stage"). The [`RegisterArray::execute`] entry point performs exactly
//! one RMW; the pipeline driver in `activermt-core` calls it at most once
//! per stage per pass.

/// The stateful-ALU micro-programs ActiveRMT's memory instructions map to
/// (Appendix A.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluOp {
    /// `out = mem[i]` — MEM_READ.
    Read,
    /// `mem[i] = v; out = v` — MEM_WRITE.
    Write(u32),
    /// `mem[i] += 1; out = mem[i]` — MEM_INCREMENT. The increment is by
    /// one: the paper's "value of INC" is a compile-time constant in the
    /// register action, and all its listings use counters of step 1.
    Increment,
    /// `out = mem[i]; min_out = min(out, v)` — MEM_MINREAD, where `v` is
    /// the current MBR2.
    MinRead(u32),
    /// `mem[i] += 1; out = mem[i]; min_out = min(out, v)` —
    /// MEM_MINREADINC: one count-min-sketch row update (Listing 2).
    MinReadInc(u32),
}

impl SaluOp {
    /// Run the micro-program on one register cell: the one
    /// read-modify-write every register backing shares.
    pub fn apply(self, cell: &mut u32) -> SaluResult {
        let (out, min) = match self {
            SaluOp::Read => (*cell, None),
            SaluOp::Write(v) => {
                *cell = v;
                (v, None)
            }
            SaluOp::Increment => {
                *cell = cell.wrapping_add(1);
                (*cell, None)
            }
            SaluOp::MinRead(v) => (*cell, Some(v)),
            SaluOp::MinReadInc(v) => {
                *cell = cell.wrapping_add(1);
                (*cell, Some(v))
            }
        };
        SaluResult {
            out,
            min_out: min.map(|v| out.min(v)),
        }
    }

    /// Does the micro-program read the cell?
    fn reads(self) -> bool {
        !matches!(self, SaluOp::Write(_))
    }

    /// Does the micro-program write the cell?
    fn writes(self) -> bool {
        !matches!(self, SaluOp::Read | SaluOp::MinRead(_))
    }
}

/// The outcome of one stateful-ALU execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaluResult {
    /// Primary output (lands in MBR).
    pub out: u32,
    /// Secondary min output (lands in MBR2), when the micro-program
    /// computes one.
    pub min_out: Option<u32>,
}

/// One logical stage's register array: "one large register array to store
/// memory objects in a particular stage" (Section 3.2).
///
/// ```
/// use activermt_rmt::register::{RegisterArray, SaluOp};
///
/// let mut row = RegisterArray::new(1024);
/// // A count-min-sketch row update is one MEM_MINREADINC micro-program:
/// // increment the counter, return it, and fold it into the running min.
/// let r = row.execute(42, SaluOp::MinReadInc(u32::MAX)).unwrap();
/// assert_eq!(r.out, 1);          // the incremented counter
/// assert_eq!(r.min_out, Some(1)); // min(counter, MBR2)
/// let r = row.execute(42, SaluOp::MinReadInc(1)).unwrap();
/// assert_eq!(r.out, 2);
/// assert_eq!(r.min_out, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct RegisterArray {
    cells: Vec<u32>,
    reads: u64,
    writes: u64,
}

impl RegisterArray {
    /// Create an array of `size` zeroed 32-bit registers.
    pub fn new(size: usize) -> RegisterArray {
        RegisterArray {
            cells: vec![0; size],
            reads: 0,
            writes: 0,
        }
    }

    /// Number of registers in the array.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no registers.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Perform one read-modify-write micro-program at `index`.
    ///
    /// Returns `None` if the index is outside the physical array — the
    /// hardware analogue would be undefined behaviour, which is exactly
    /// why the runtime's protection tables must range-check MAR *before*
    /// invoking the ALU.
    pub fn execute(&mut self, index: u32, op: SaluOp) -> Option<SaluResult> {
        let cell = self.cells.get_mut(index as usize)?;
        self.reads += u64::from(op.reads());
        self.writes += u64::from(op.writes());
        Some(op.apply(cell))
    }

    /// Control-plane read of a register (BFRT-style API access, used for
    /// snapshots — Section 4.3's control-plane extraction path).
    pub fn peek(&self, index: u32) -> Option<u32> {
        self.cells.get(index as usize).copied()
    }

    /// Control-plane write of a register.
    pub fn poke(&mut self, index: u32, value: u32) -> bool {
        match self.cells.get_mut(index as usize) {
            Some(c) => {
                *c = value;
                true
            }
            None => false,
        }
    }

    /// Control-plane bulk read of a register range (clamped to the
    /// array).
    pub fn peek_range(&self, start: u32, end: u32) -> &[u32] {
        let s = (start as usize).min(self.cells.len());
        let e = (end as usize).min(self.cells.len()).max(s);
        &self.cells[s..e]
    }

    /// Zero a register range (allocation-time initialization of a
    /// freshly assigned region).
    pub fn clear_range(&mut self, start: u32, end: u32) {
        let s = (start as usize).min(self.cells.len());
        let e = (end as usize).min(self.cells.len()).max(s);
        for c in &mut self.cells[s..e] {
            *c = 0;
        }
    }

    /// Lifetime data-plane read count (telemetry).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Lifetime data-plane write count (telemetry).
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_stored_value() {
        let mut r = RegisterArray::new(8);
        r.poke(3, 99);
        assert_eq!(
            r.execute(3, SaluOp::Read),
            Some(SaluResult {
                out: 99,
                min_out: None
            })
        );
    }

    #[test]
    fn write_stores_and_echoes() {
        let mut r = RegisterArray::new(8);
        let res = r.execute(2, SaluOp::Write(0xAB)).unwrap();
        assert_eq!(res.out, 0xAB);
        assert_eq!(r.peek(2), Some(0xAB));
    }

    #[test]
    fn increment_returns_new_value() {
        // Appendix A.4: "Increments the counter ... and stores the result
        // into MBR" — the *post*-increment value.
        let mut r = RegisterArray::new(4);
        assert_eq!(r.execute(0, SaluOp::Increment).unwrap().out, 1);
        assert_eq!(r.execute(0, SaluOp::Increment).unwrap().out, 2);
        assert_eq!(r.peek(0), Some(2));
    }

    #[test]
    fn increment_wraps() {
        let mut r = RegisterArray::new(1);
        r.poke(0, u32::MAX);
        assert_eq!(r.execute(0, SaluOp::Increment).unwrap().out, 0);
    }

    #[test]
    fn minread_computes_running_min() {
        let mut r = RegisterArray::new(4);
        r.poke(1, 7);
        let res = r.execute(1, SaluOp::MinRead(5)).unwrap();
        assert_eq!(res.out, 7);
        assert_eq!(res.min_out, Some(5));
        let res = r.execute(1, SaluOp::MinRead(10)).unwrap();
        assert_eq!(res.min_out, Some(7));
    }

    #[test]
    fn minreadinc_is_one_cms_row_update() {
        // Listing 2 line 8: counter incremented, count -> MBR,
        // min(count, MBR2) -> MBR2.
        let mut r = RegisterArray::new(4);
        r.poke(2, 10);
        let res = r.execute(2, SaluOp::MinReadInc(4)).unwrap();
        assert_eq!(res.out, 11);
        assert_eq!(res.min_out, Some(4));
        assert_eq!(r.peek(2), Some(11));
        // When the incremented count is the smaller side.
        let mut r2 = RegisterArray::new(1);
        let res = r2.execute(0, SaluOp::MinReadInc(100)).unwrap();
        assert_eq!(res.out, 1);
        assert_eq!(res.min_out, Some(1));
    }

    #[test]
    fn out_of_bounds_is_refused() {
        let mut r = RegisterArray::new(4);
        assert_eq!(r.execute(4, SaluOp::Read), None);
        assert_eq!(r.peek(100), None);
        assert!(!r.poke(4, 1));
    }

    #[test]
    fn range_helpers_clamp() {
        let mut r = RegisterArray::new(4);
        for i in 0..4 {
            r.poke(i, i + 1);
        }
        assert_eq!(r.peek_range(1, 3), &[2, 3]);
        assert_eq!(r.peek_range(2, 100), &[3, 4]);
        assert_eq!(r.peek_range(5, 10), &[] as &[u32]);
        r.clear_range(1, 3);
        assert_eq!(r.peek_range(0, 4), &[1, 0, 0, 4]);
    }

    #[test]
    fn access_counters_track_rmw() {
        let mut r = RegisterArray::new(2);
        r.execute(0, SaluOp::Read);
        r.execute(0, SaluOp::Write(1));
        r.execute(0, SaluOp::Increment);
        r.execute(0, SaluOp::MinReadInc(0));
        assert_eq!(r.read_count(), 3);
        assert_eq!(r.write_count(), 3);
    }
}
