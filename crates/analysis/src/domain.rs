//! The abstract value domain: interval × known-bits × provenance.
//!
//! Every PHV register (MAR, MBR, MBR2, the four argument words) is
//! tracked as an [`AbsVal`]: an unsigned interval `[lo, hi]`, a pair of
//! known-bit masks (`zeros` has a 1 wherever the bit is *known to be 0*,
//! `ones` wherever it is *known to be 1*), and a provenance tag that
//! records where the value came from. The interval component proves the
//! bounds facts the verifier cares about (a translated address lands
//! inside `[region.lo, region.hi]`); the known-bits component sharpens
//! the bitwise transfer functions (`ADDR_MASK`, `BIT_AND`, XOR-equality
//! tests) that interval arithmetic alone handles poorly; the provenance
//! tag drives the soundness policy (a hashed address that was never
//! re-bounded by `ADDR_MASK` can be anything — accepting it would be
//! unsound no matter how the interval looks).
//!
//! The two numeric lattices are kept mutually reduced: after every
//! transfer the interval is clipped against the known bits and vice
//! versa ([`AbsVal::reduce`]), so e.g. `x & 0xFF` followed by `+ base`
//! yields a tight `[base, base + 0xFF]` even when `base` is unaligned.

/// Where an abstract value originated. Ordered by "trustworthiness" for
/// joins: a value combined from several origins takes the least trusted
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Origin {
    /// A compile-time constant or a value fully described by its
    /// interval (e.g. the result of `ADDR_MASK`).
    Derived,
    /// Copied unmodified from argument word `i` of the packet.
    Arg(u8),
    /// Read from stage register memory (directly or combined with
    /// memory-derived data).
    Memory,
    /// Produced by `HASH` and not re-bounded since: uniformly
    /// distributed over the full 32-bit space as far as the verifier
    /// can assume.
    Hashed,
}

impl Origin {
    /// Join two origins: identical origins are preserved, anything else
    /// degrades toward the least trusted side.
    pub(crate) fn join(self, other: Origin) -> Origin {
        if self == other {
            return self;
        }
        match (self, other) {
            (Origin::Hashed, _) | (_, Origin::Hashed) => Origin::Hashed,
            (Origin::Memory, _) | (_, Origin::Memory) => Origin::Memory,
            _ => Origin::Derived,
        }
    }
}

/// Smear every bit below the highest set bit of `v` (so `0b1010`
/// becomes `0b1111`): the tightest power-of-two-minus-one upper bound
/// for bitwise OR/XOR results.
fn smear(v: u32) -> u32 {
    let mut x = v;
    x |= x >> 1;
    x |= x >> 2;
    x |= x >> 4;
    x |= x >> 8;
    x |= x >> 16;
    x
}

/// An abstract 32-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AbsVal {
    /// Smallest possible concrete value.
    pub(crate) lo: u32,
    /// Largest possible concrete value.
    pub(crate) hi: u32,
    /// Bits known to be zero.
    pub(crate) zeros: u32,
    /// Bits known to be one.
    pub(crate) ones: u32,
    /// Provenance.
    pub(crate) origin: Origin,
}

impl AbsVal {
    /// The unconstrained value.
    pub(crate) fn top() -> AbsVal {
        AbsVal {
            lo: 0,
            hi: u32::MAX,
            zeros: 0,
            ones: 0,
            origin: Origin::Derived,
        }
    }

    /// An exactly known constant.
    pub(crate) fn constant(v: u32) -> AbsVal {
        AbsVal {
            lo: v,
            hi: v,
            zeros: !v,
            ones: v,
            origin: Origin::Derived,
        }
    }

    /// A value known only to lie in `[lo, hi]`.
    pub(crate) fn range(lo: u32, hi: u32) -> AbsVal {
        debug_assert!(lo <= hi);
        AbsVal {
            lo,
            hi,
            zeros: !smear(hi),
            ones: 0,
            origin: Origin::Derived,
        }
        .reduce()
    }

    /// Tag a value with a provenance without changing its numeric
    /// abstraction.
    pub(crate) fn with_origin(mut self, origin: Origin) -> AbsVal {
        self.origin = origin;
        self
    }

    /// Is this value a single known constant?
    pub(crate) fn as_const(&self) -> Option<u32> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Can this value possibly be zero?
    pub(crate) fn may_be_zero(&self) -> bool {
        self.lo == 0 && self.ones == 0
    }

    /// Can this value possibly be non-zero?
    pub(crate) fn may_be_nonzero(&self) -> bool {
        self.hi != 0
    }

    /// Re-establish consistency between the interval and the known
    /// bits. The known bits bound the interval (`ones <= v <= !zeros`
    /// for every concrete v), and a degenerate interval pins every bit.
    pub(crate) fn reduce(mut self) -> AbsVal {
        self.lo = self.lo.max(self.ones);
        self.hi = self.hi.min(!self.zeros);
        if self.lo == self.hi {
            self.zeros = !self.lo;
            self.ones = self.lo;
        }
        // An inconsistent state (empty concretization) can only arise
        // from refining against an infeasible path; collapse to the
        // refined bound rather than panicking — the path is dead anyway.
        if self.lo > self.hi {
            self.hi = self.lo;
        }
        self
    }

    /// Least upper bound of two abstract values (control-flow merge).
    pub(crate) fn join(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
            origin: self.origin.join(other.origin),
        }
    }

    // ----- abstract operators: each over-approximates one concrete
    // operation of `activermt_rmt::step`; which opcode applies which is
    // decided only by `dataflow::transfer_values` -----

    /// `self & mask` for a constant mask (`ADDR_MASK`).
    pub(crate) fn and_const(self, mask: u32) -> AbsVal {
        AbsVal {
            lo: 0,
            hi: self.hi.min(mask),
            zeros: self.zeros | !mask,
            ones: self.ones & mask,
            origin: Origin::Derived,
        }
        .reduce()
    }

    /// `self & other` (`BIT_AND_MAR_MBR`).
    pub(crate) fn and(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lo: 0,
            hi: self.hi.min(other.hi),
            zeros: self.zeros | other.zeros,
            ones: self.ones & other.ones,
            origin: self.origin.join(other.origin),
        }
        .reduce()
    }

    /// `self | other` (`BIT_OR_MBR_MBR2`).
    pub(crate) fn or(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.max(other.lo),
            hi: smear(self.hi | other.hi),
            zeros: self.zeros & other.zeros,
            ones: self.ones | other.ones,
            origin: self.origin.join(other.origin),
        }
        .reduce()
    }

    /// `self ^ other` (the MBR_EQUALS family).
    pub(crate) fn xor(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lo: 0,
            hi: smear(self.hi | other.hi),
            zeros: (self.zeros & other.zeros) | (self.ones & other.ones),
            ones: (self.zeros & other.ones) | (self.ones & other.zeros),
            origin: self.origin.join(other.origin),
        }
        .reduce()
    }

    /// `!self` (`MBR_NOT`).
    pub(crate) fn bitwise_not(self) -> AbsVal {
        AbsVal {
            lo: !self.hi,
            hi: !self.lo,
            zeros: self.ones,
            ones: self.zeros,
            origin: self.origin.join(Origin::Derived),
        }
        .reduce()
    }

    /// `self.wrapping_add(other)`; wrap-around widens to top.
    pub(crate) fn wrapping_add(self, other: AbsVal) -> AbsVal {
        let origin = self.origin.join(other.origin);
        match (self.hi.checked_add(other.hi), self.lo.checked_add(other.lo)) {
            (Some(hi), Some(lo)) => AbsVal {
                lo,
                hi,
                zeros: !smear(hi),
                ones: 0,
                origin,
            }
            .reduce(),
            _ => AbsVal::top().with_origin(origin),
        }
    }

    /// `self.wrapping_sub(other)`; possible borrow widens to top.
    pub(crate) fn wrapping_sub(self, other: AbsVal) -> AbsVal {
        let origin = self.origin.join(other.origin);
        if self.lo >= other.hi {
            AbsVal {
                lo: self.lo - other.hi,
                hi: self.hi - other.lo,
                zeros: !smear(self.hi - other.lo),
                ones: 0,
                origin,
            }
            .reduce()
        } else {
            AbsVal::top().with_origin(origin)
        }
    }

    /// `max(self, other)` (`MAX`).
    pub(crate) fn max(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
            origin: self.origin.join(other.origin),
        }
        .reduce()
    }

    /// `min(self, other)` (`MIN`, `REVMIN`, the min-read SALU ops).
    pub(crate) fn min(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
            origin: self.origin.join(other.origin),
        }
        .reduce()
    }

    /// Refine with the path condition `self != 0` (the fall-through edge
    /// of `CRETI`, the taken edge of `CJUMP`/`CRET`-style tests).
    pub(crate) fn refine_nonzero(mut self) -> AbsVal {
        if self.lo == 0 && self.hi > 0 {
            self.lo = 1;
        }
        self.reduce()
    }

    /// Refine with the path condition `self == 0`.
    pub(crate) fn refine_zero(self) -> AbsVal {
        AbsVal {
            lo: 0,
            hi: 0,
            zeros: u32::MAX,
            ones: 0,
            origin: self.origin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concretize_ok(v: AbsVal, c: u32) -> bool {
        v.lo <= c && c <= v.hi && (c & v.zeros) == 0 && (c & v.ones) == v.ones
    }

    #[test]
    fn constants_are_exact() {
        let v = AbsVal::constant(0xDEAD);
        assert_eq!(v.as_const(), Some(0xDEAD));
        assert!(concretize_ok(v, 0xDEAD));
        assert!(!v.may_be_zero());
    }

    #[test]
    fn mask_then_offset_is_tight() {
        // The ADDR_MASK/ADDR_OFFSET idiom on an unaligned region
        // [100, 300): mask = 127, offset = 100.
        let hashed = AbsVal::top().with_origin(Origin::Hashed);
        let masked = hashed.and_const(127);
        assert_eq!((masked.lo, masked.hi), (0, 127));
        assert_eq!(masked.origin, Origin::Derived, "mask re-bounds a hash");
        let translated = masked.wrapping_add(AbsVal::constant(100));
        assert_eq!((translated.lo, translated.hi), (100, 227));
    }

    #[test]
    fn add_overflow_widens() {
        let a = AbsVal::range(u32::MAX - 1, u32::MAX);
        let b = AbsVal::constant(2);
        let s = a.wrapping_add(b);
        assert_eq!((s.lo, s.hi), (0, u32::MAX));
    }

    #[test]
    fn sub_borrow_widens() {
        let a = AbsVal::range(0, 5);
        let b = AbsVal::constant(3);
        assert_eq!(a.wrapping_sub(b).hi, u32::MAX);
        let c = AbsVal::range(10, 20);
        let d = c.wrapping_sub(b);
        assert_eq!((d.lo, d.hi), (7, 17));
    }

    #[test]
    fn joins_are_upper_bounds() {
        let a = AbsVal::constant(4);
        let b = AbsVal::constant(9);
        let j = a.join(b);
        assert!(concretize_ok(j, 4) && concretize_ok(j, 9));
        assert_eq!(Origin::Arg(1).join(Origin::Arg(1)), Origin::Arg(1));
        assert_eq!(Origin::Arg(1).join(Origin::Arg(2)), Origin::Derived);
        assert_eq!(Origin::Arg(1).join(Origin::Hashed), Origin::Hashed);
        assert_eq!(Origin::Memory.join(Origin::Derived), Origin::Memory);
    }

    #[test]
    fn xor_of_equal_constants_is_zero() {
        let a = AbsVal::constant(0x1234);
        let z = a.xor(a);
        assert_eq!(z.as_const(), Some(0));
    }

    #[test]
    fn known_bits_sharpen_intervals() {
        // zeros say the value fits in 8 bits: reduce clips the interval.
        let v = AbsVal {
            lo: 0,
            hi: u32::MAX,
            zeros: !0xFF,
            ones: 0,
            origin: Origin::Derived,
        }
        .reduce();
        assert_eq!(v.hi, 0xFF);
    }

    #[test]
    fn refinement() {
        let v = AbsVal::range(0, 10);
        assert_eq!(v.refine_nonzero().lo, 1);
        assert_eq!(v.refine_zero().as_const(), Some(0));
    }

    #[test]
    fn bitwise_soundness_spotcheck() {
        // Exhaustive check over small operand sets that every concrete
        // result is contained in the abstract result.
        let vals = [0u32, 1, 2, 3, 127, 128, 255, 0xFFFF, u32::MAX];
        for &x in &vals {
            for &y in &vals {
                let ax = AbsVal::constant(x);
                let ay = AbsVal::constant(y);
                assert!(concretize_ok(ax.and(ay), x & y));
                assert!(concretize_ok(ax.or(ay), x | y));
                assert!(concretize_ok(ax.xor(ay), x ^ y));
                assert!(concretize_ok(ax.bitwise_not(), !x));
                assert!(concretize_ok(ax.wrapping_add(ay), x.wrapping_add(y)));
                assert!(concretize_ok(ax.wrapping_sub(ay), x.wrapping_sub(y)));
                assert!(concretize_ok(ax.min(ay), x.min(y)));
                assert!(concretize_ok(ax.max(ay), x.max(y)));
            }
        }
    }
}
