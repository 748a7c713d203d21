//! # seceda-puf
//!
//! Entropy primitives: physically unclonable functions and true random
//! number generation — the metering/counterfeiting cells of Table II.
//!
//! * [`arbiter`] — the arbiter PUF under the standard additive linear
//!   delay model, including the asymmetric-layout variation enhancement
//!   of \[30\] (physical synthesis tuning entropy primitives);
//! * [`metrics`] — the standard PUF quality metrics: uniqueness,
//!   reliability, uniformity, bit-aliasing (validated during timing and
//!   power verification per Table II);
//! * [`attack`] — a from-scratch logistic-regression modeling attack on
//!   arbiter PUFs: accuracy versus collected CRPs, plus the XOR-PUF
//!   hardening comparison;
//! * [`trng`] — a biased-source TRNG with a von Neumann extractor and
//!   SP 800-90B-style health tests (repetition count and adaptive
//!   proportion), the secure-RNG allocation HLS needs \[41\].

pub mod arbiter;
pub mod attack;
pub mod metrics;
pub mod trng;

pub use arbiter::{random_challenges, ArbiterPuf, ArbiterPufConfig, XorArbiterPuf};
pub use attack::{collect_crps, model_arbiter_puf, ModelingAttackResult};
pub use metrics::{bit_aliasing, reliability, uniformity, uniqueness};
pub use trng::{Trng, TrngConfig, TrngHealth};
