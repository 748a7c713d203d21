//! # seceda-testkit
//!
//! The hermetic test substrate for the `seceda` workspace: deterministic
//! randomness, property testing, JSON reporting, parallel maps, and
//! chaos injection — with **zero external dependencies**, so
//! `cargo build --offline && cargo test --offline` works from a clean
//! checkout with no network and no registry cache.
//!
//! The paper this workspace reproduces (Knechtel et al., DATE 2020)
//! argues that security must be *evaluated after every flow step*. That
//! discipline is only credible if the evaluation itself is always
//! runnable and always reproducible; this crate is the substrate that
//! makes both hold:
//!
//! * [`rng`] — a seedable xoshiro256++/SplitMix64 PRNG with the small
//!   `rand`-shaped surface the workspace uses (`gen`, `gen_range`,
//!   `gen_bool`, `fill`, `shuffle`). Streams are stable across
//!   platforms and toolchains forever.
//! * [`prop`] — a `proptest!`-shaped, shrinking-free property harness.
//!   Case inputs are derived from the test's name and case index, so two
//!   consecutive `cargo test` runs are bit-identical and a failure
//!   report pinpoints the exact inputs.
//! * [`json`] — a tiny JSON value/serializer/parser for stable,
//!   diffable reports (replaces `serde`).
//! * [`par`] — a scoped-thread, work-stealing parallel map (replaces
//!   `rayon` for the embarrassingly parallel hot loops: fault lists,
//!   CPA key guesses, packed simulation rounds) with order-preserving,
//!   thread-count-independent results.
//! * [`chaos`] — a seeded, deterministic fault injector
//!   (`SECEDA_CHAOS=<seed>`) that provokes panics, budget exhaustion,
//!   and truncated parser input at named injection points, so the
//!   graceful-degradation paths are themselves under test.
//!
//! Test files migrated from `proptest` only change one import:
//!
//! ```
//! use seceda_testkit::prelude::*;
//!
//! proptest! {
//!     #[test]
//!     fn masks_cancel(x in any::<u8>(), m in any::<u8>()) {
//!         prop_assert_eq!((x ^ m) ^ m, x);
//!     }
//! }
//! ```

#![warn(missing_docs)]
// the doctests deliberately show the `proptest!`-shaped syntax, whose
// surface includes `#[test]` inside the macro invocation
#![allow(clippy::test_attr_in_doctest)]

pub mod chaos;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;

/// One-stop import for property tests, mirroring `proptest::prelude`.
///
/// Besides the strategy surface and macros this also re-exports
/// [`crate::prop`] under the names `prop` and `proptest`, so
/// pre-migration paths like `proptest::collection::vec(..)` keep
/// resolving unchanged.
pub mod prelude {
    pub use crate::prop::{self as prop, self as proptest};
    pub use crate::prop::{any, collection, Any, Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::rng::{Rng, RngCore, SeedableRng, StdRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}
