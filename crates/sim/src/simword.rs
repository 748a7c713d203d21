//! Simulation word types: the bit-parallel lane abstraction.
//!
//! Every packed simulator in this crate evaluates gates over *words*
//! whose bit *k* carries an independent simulation lane. [`SimWord`]
//! abstracts the word type so the one gate kernel runs 64 lanes per
//! pass (`u64`) or 256 lanes per pass ([`Lane256`], four `u64`s
//! evaluated together — the element-wise loops autovectorize to SIMD on
//! any target with 128-bit or wider vector units).
//!
//! The trait is deliberately tiny: the bitwise ops a gate evaluator
//! needs, a popcount, plus lane plumbing (`broadcast`/`lane`/`with_lane`)
//! used by the fault-batching mode of
//! [`FaultSim`](crate::FaultSim), where each 64-bit lane of
//! a [`Lane256`] carries a *different fault* over the same 64 patterns,
//! and by [`signal_probabilities`](crate::signal_probabilities), where
//! each carries a different round of 64 random patterns.

use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A fixed-width simulation word: `BITS` independent boolean lanes.
pub trait SimWord:
    Copy
    + Eq
    + Send
    + Sync
    + std::fmt::Debug
    + Not<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
{
    /// Total lane count (bits per word).
    const BITS: usize;
    /// Number of 64-bit sub-lanes (`BITS / 64`).
    const LANES: usize;
    /// All lanes zero.
    const ZERO: Self;
    /// All lanes one.
    const ONES: Self;

    /// The word with `w` replicated into every 64-bit sub-lane.
    fn broadcast(w: u64) -> Self;

    /// The 64-bit sub-lane at index `i`.
    fn lane(self, i: usize) -> u64;

    /// This word with sub-lane `i` replaced by `w`.
    fn with_lane(self, i: usize, w: u64) -> Self;

    /// The mask with the lowest `n` bits set (`1 <= n <= BITS`).
    fn low_mask(n: usize) -> Self;

    /// `true` if any bit is set.
    fn any(self) -> bool;

    /// The number of set bits.
    fn count_ones(self) -> u32;
}

/// The mask with the lowest `n` of 64 bits set.
fn low_mask64(n: usize) -> u64 {
    debug_assert!((1..=64).contains(&n));
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl SimWord for u64 {
    const BITS: usize = 64;
    const LANES: usize = 1;
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    fn broadcast(w: u64) -> Self {
        w
    }

    fn lane(self, i: usize) -> u64 {
        debug_assert_eq!(i, 0);
        self
    }

    fn with_lane(self, i: usize, w: u64) -> Self {
        debug_assert_eq!(i, 0);
        w
    }

    fn low_mask(n: usize) -> Self {
        low_mask64(n)
    }

    fn any(self) -> bool {
        self != 0
    }

    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
}

/// A 256-bit simulation word: four `u64` sub-lanes.
///
/// All bitwise ops are element-wise loops over the array; with the
/// 32-byte alignment they compile to two 128-bit (SSE2) or one 256-bit
/// (AVX2) vector op per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct Lane256(pub [u64; 4]);

impl Not for Lane256 {
    type Output = Self;

    fn not(self) -> Self {
        Lane256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

macro_rules! lane256_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Lane256 {
            type Output = Self;

            fn $method(self, o: Self) -> Self {
                Lane256([
                    self.0[0] $op o.0[0],
                    self.0[1] $op o.0[1],
                    self.0[2] $op o.0[2],
                    self.0[3] $op o.0[3],
                ])
            }
        }
    };
}

lane256_binop!(BitAnd, bitand, &);
lane256_binop!(BitOr, bitor, |);
lane256_binop!(BitXor, bitxor, ^);

impl SimWord for Lane256 {
    const BITS: usize = 256;
    const LANES: usize = 4;
    const ZERO: Self = Lane256([0; 4]);
    const ONES: Self = Lane256([u64::MAX; 4]);

    fn broadcast(w: u64) -> Self {
        Lane256([w; 4])
    }

    fn lane(self, i: usize) -> u64 {
        self.0[i]
    }

    fn with_lane(mut self, i: usize, w: u64) -> Self {
        self.0[i] = w;
        self
    }

    fn low_mask(n: usize) -> Self {
        debug_assert!((1..=256).contains(&n));
        let mut out = [0u64; 4];
        let full = n / 64;
        for lane in out.iter_mut().take(full) {
            *lane = u64::MAX;
        }
        if full < 4 && !n.is_multiple_of(64) {
            out[full] = low_mask64(n % 64);
        }
        Lane256(out)
    }

    fn any(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) != 0
    }

    fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_masks() {
        assert_eq!(u64::low_mask(1), 1);
        assert_eq!(u64::low_mask(64), u64::MAX);
        assert_eq!(Lane256::low_mask(1), Lane256([1, 0, 0, 0]));
        assert_eq!(Lane256::low_mask(64), Lane256([u64::MAX, 0, 0, 0]));
        assert_eq!(Lane256::low_mask(65), Lane256([u64::MAX, 1, 0, 0]));
        assert_eq!(
            Lane256::low_mask(200),
            Lane256([u64::MAX, u64::MAX, u64::MAX, 0xFF])
        );
        assert_eq!(Lane256::low_mask(256), Lane256::ONES);
    }

    #[test]
    fn lane_plumbing() {
        let w = Lane256::broadcast(7);
        assert_eq!(w.lane(2), 7);
        let w = w.with_lane(2, 9);
        assert_eq!(w.lane(2), 9);
        assert_eq!(w.lane(1), 7);
        assert!(w.any());
        assert!(!Lane256::ZERO.any());
        assert_eq!(w.count_ones(), 3 * 3 + 2);
        assert_eq!(Lane256::ONES.count_ones(), 256);
    }

    #[test]
    fn bitops_match_u64_per_lane() {
        let a = Lane256([1, 2, 3, 4]);
        let b = Lane256([5, 6, 7, 8]);
        for i in 0..4 {
            assert_eq!((a & b).lane(i), a.lane(i) & b.lane(i));
            assert_eq!((a | b).lane(i), a.lane(i) | b.lane(i));
            assert_eq!((a ^ b).lane(i), a.lane(i) ^ b.lane(i));
            assert_eq!((!a).lane(i), !a.lane(i));
        }
    }
}
