//! A shrinking-free property-test harness shaped like `proptest`.
//!
//! The twelve `tests/properties.rs` files in this workspace were written
//! against `proptest`'s macro surface; this module re-creates exactly
//! that surface — [`crate::proptest!`], [`any`], range strategies,
//! `collection::vec`, tuples, and the `prop_assert*` macros — on top of
//! the deterministic [`crate::rng::StdRng`]. There is no
//! shrinking: cases are generated from seeds derived from the test's
//! module path and case index, so a failure report names the exact
//! inputs and the exact case, and re-running reproduces it bit-for-bit.
//!
//! ```
//! use seceda_testkit::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(16))]
//!
//!     #[test]
//!     fn addition_commutes(a in 0u64..1000, b in any::<u16>()) {
//!         prop_assert_eq!(a + b as u64, b as u64 + a);
//!     }
//! }
//! ```

use crate::rng::{SeedableRng, StdRng};

/// How many cases a [`crate::proptest!`] block runs per test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated cases.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
    /// A `prop_assert*!` failed.
    Fail(String),
}

/// FNV-1a over `bytes`; mixes test names into per-test base seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The RNG for one generated case of one named test. Deterministic in
/// `(test_name, case)` and nothing else.
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    StdRng::seed_from_u64(fnv1a(test_name.as_bytes()) ^ (u64::from(case) << 32 | 0x5ECE_DA00))
}

/// A generator of test inputs. Unlike `proptest::Strategy` there is no
/// value tree and no shrinking — `generate` draws a value directly.
pub trait Strategy {
    /// The type of the generated input.
    type Value;
    /// Draws one input.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

impl<T: Clone> Strategy for std::ops::Range<T>
where
    std::ops::Range<T>: Clone + crate::rng::SampleRange<T>,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        crate::rng::SampleRange::sample_one(self.clone(), rng)
    }
}

impl<T: Clone> Strategy for std::ops::RangeInclusive<T>
where
    std::ops::RangeInclusive<T>: Clone + crate::rng::SampleRange<T>,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        crate::rng::SampleRange::sample_one(self.clone(), rng)
    }
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws one uniform value over the whole domain.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                <$t as crate::rng::FromRng>::from_rng(rng)
            }
        }
    )*};
}
impl_arbitrary!(bool, u8, u16, u32, u64, usize, i32, i64, f64);

/// Strategy over the whole domain of `T` (mirror of `proptest::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing the same value every case.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
}

/// Collection strategies (mirror of `proptest::collection`).
pub mod collection {
    use super::Strategy;
    use crate::rng::{Rng, StdRng};

    /// Acceptable size arguments for [`vec()`]: an exact `usize`, a
    /// half-open range, or an inclusive range.
    pub trait IntoSizeRange {
        /// Lower and inclusive upper length bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start() <= self.end(), "empty vec size range");
            (*self.start(), *self.end())
        }
    }

    /// Strategy generating a `Vec` whose elements come from `elem`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        min_len: usize,
        max_len: usize,
    }

    /// `Vec` strategy with the given element strategy and size.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min_len, max_len) = size.bounds();
        VecStrategy {
            elem,
            min_len,
            max_len,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min_len..=self.max_len);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The macro-shaped property harness. See the module docs; this is what
/// `proptest! { ... }` expands through.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::prop::ProptestConfig::default()); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::prop::ProptestConfig = $cfg;
            let __strategies = ( $( $strat, )+ );
            let __test_name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng = $crate::prop::case_rng(__test_name, __case);
                let ( $( ref $arg, )+ ) = __strategies;
                $( let $arg = $crate::prop::Strategy::generate($arg, &mut __rng); )+
                let __inputs = {
                    let mut __s = ::std::string::String::new();
                    $(
                        __s.push_str(concat!(stringify!($arg), " = "));
                        __s.push_str(&format!("{:?}, ", &$arg));
                    )+
                    __s
                };
                let __outcome = ::std::panic::catch_unwind({
                    $( let $arg = ::std::clone::Clone::clone(&$arg); )+
                    ::std::panic::AssertUnwindSafe(move ||
                        -> ::std::result::Result<(), $crate::prop::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })
                });
                match __outcome {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(
                        $crate::prop::TestCaseError::Reject(_),
                    )) => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(
                        $crate::prop::TestCaseError::Fail(__msg),
                    )) => {
                        panic!(
                            "[{}] case {}/{} failed: {}\n  inputs: {}",
                            __test_name,
                            __case + 1,
                            __config.cases,
                            __msg,
                            __inputs
                        );
                    }
                    ::std::result::Result::Err(__payload) => {
                        eprintln!(
                            "[{}] case {}/{} panicked\n  inputs: {}",
                            __test_name,
                            __case + 1,
                            __config.cases,
                            __inputs
                        );
                        ::std::panic::resume_unwind(__payload);
                    }
                }
            }
        }
    )*};
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args…)`: fails the
/// current case (with its inputs reported) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert_eq!(left, right)` with optional trailing format message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n   msg: {}",
            __l,
            __r,
            format!($($fmt)+)
        );
    }};
}

/// `prop_assert_ne!(left, right)` with optional trailing format message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: `left != right`\n  both: {:?}",
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: `left != right`\n  both: {:?}\n   msg: {}",
            __l,
            format!($($fmt)+)
        );
    }};
}

/// `prop_assume!(cond)`: skips the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_is_deterministic_per_name_and_case() {
        use crate::rng::Rng;
        let a: u64 = case_rng("t::x", 0).gen();
        let b: u64 = case_rng("t::x", 0).gen();
        let c: u64 = case_rng("t::x", 1).gen();
        let d: u64 = case_rng("t::y", 0).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let s = collection::vec(any::<bool>(), 1..4);
        for case in 0..200 {
            let v = s.generate(&mut case_rng("bounds", case));
            assert!((1..=3).contains(&v.len()));
        }
    }
}
