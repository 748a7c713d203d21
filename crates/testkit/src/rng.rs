//! Deterministic pseudo-random numbers with the `rand`-0.8-shaped surface
//! the workspace actually uses.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, so every
//! consumer of [`StdRng::seed_from_u64`] gets a stream that is (a) fully
//! determined by the seed, (b) identical on every platform and toolchain,
//! and (c) independent of anything downloaded from a registry. Security
//! evaluation after every flow step (the paper's core demand) only means
//! something if two runs of the same evaluation see the same randomness;
//! this module is where that guarantee lives.
//!
//! The API mirrors the subset of `rand` used across the workspace:
//!
//! * [`SeedableRng::seed_from_u64`] — the only seeding entry point;
//! * [`Rng::gen`] for `bool` and the integer types via [`FromRng`];
//! * [`Rng::gen_range`] over half-open and inclusive integer/float ranges;
//! * [`Rng::gen_bool`], [`Rng::fill`], and [`Rng::shuffle`];
//! * [`Rng::gen_normal`], the workspace's one Gaussian sampler.
//!
//! ```
//! use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
//!
//! let mut a = StdRng::seed_from_u64(42);
//! let mut b = StdRng::seed_from_u64(42);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! let x = a.gen_range(0..10usize);
//! assert!(x < 10);
//! ```

use std::ops::{Range, RangeInclusive};

/// The low-level source of random `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Constructing a generator from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The default workspace generator: xoshiro256++ (Blackman & Vigna),
/// seeded via SplitMix64.
///
/// The name matches `rand::rngs::StdRng` so call sites read identically,
/// but unlike rand's `StdRng` the stream is a stability guarantee: it
/// will never change out from under a recorded experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types that can be drawn uniformly from an RNG (the `Standard`
/// distribution of `rand`, reduced to what the workspace samples).
pub trait FromRng {
    /// Draws one uniformly distributed value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_from_rng_uint {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                // Take the high bits: xoshiro's low bits are its weakest.
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }
    )*};
}
impl_from_rng_uint!(u8, u16, u32, u64, usize);

impl FromRng for i32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u32::from_rng(rng) as i32
    }
}

impl FromRng for i64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Draws a uniform value below `n` without modulo bias (Lemire's
/// multiply-shift rejection method). `n` must be non-zero.
#[inline]
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    let mut low = m as u64;
    if low < n {
        let threshold = n.wrapping_neg() % n;
        while low < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Ranges that [`Rng::gen_range`] can sample from. Generic over the
/// output type (like `rand`'s `SampleRange`) so that an untyped literal
/// range such as `0..10_000` infers its element type from how the
/// sampled value is used.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample empty range {}..{}", self.start, self.end
                );
                let span = (self.end as i128 - self.start as i128) as u128;
                debug_assert!(span <= u128::from(u64::MAX));
                let off = uniform_u64_below(rng, span as u64);
                (self.start as i128 + off as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range {}..={}", lo, hi);
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Only reachable for the full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                let off = uniform_u64_below(rng, span as u64);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample empty range {}..{}", self.start, self.end
                );
                let unit = <$t as FromRng>::from_rng(rng);
                let v = self.start + unit * (self.end - self.start);
                // Guard against rounding up onto the excluded endpoint.
                if v >= self.end { self.start } else { v }
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range {}..={}", lo, hi);
                let unit = <$t as FromRng>::from_rng(rng);
                lo + unit * (hi - lo)
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// The user-facing random-value surface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of an inferred type (`let b: bool = rng.gen();`).
    #[inline]
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Draws a uniform value from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_one(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        f64::from_rng(self) < p
    }

    /// Draws a standard normal value (Box–Muller: `u1` in `[ε, 1)`, then
    /// `u2` in `[0, 1)`); scale it for other normals.
    #[inline]
    fn gen_normal(&mut self) -> f64 {
        let u1: f64 = self.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Overwrites every element of `dest` with a fresh uniform draw.
    #[inline]
    fn fill<T: FromRng>(&mut self, dest: &mut [T]) {
        for slot in dest {
            *slot = T::from_rng(self);
        }
    }

    /// Fisher–Yates shuffle of `slice` in place.
    #[inline]
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // State {1, 2, 3, 4}: first outputs of the official xoshiro256++
        // reference implementation.
        let mut rng = StdRng { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41943041);
        assert_eq!(rng.next_u64(), 58720359);
        assert_eq!(rng.next_u64(), 3588806011781223);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Seed 0: first output of the official SplitMix64 reference.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fill_bytes_handles_tail() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = [0u8; 11];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
