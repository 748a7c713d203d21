//! # seceda-verif
//!
//! Functional validation with security duties — the validation row of
//! Table II.
//!
//! * [`equiv`] — SAT-based equivalence checking (sequential designs
//!   under register correspondence): the correctness side of
//!   locking/camouflaging ("does the unlocked design still compute the
//!   right function?");
//! * [`bmc`] — bounded model checking of sequential netlists by
//!   time-frame unrolling: reachability of covert/alarm conditions
//!   (the architectural-vulnerability analysis of \[31\], scaled to our
//!   substrate);
//! * [`coverage`] — *formal* validation of error-detection properties
//!   \[32\]: prove by SAT that no single fault can corrupt functional
//!   outputs without raising the alarm;
//! * [`pch`] — proof-carrying hardware \[34\]: an IP vendor ships a
//!   design with a certificate (structural isolation or equivalence
//!   evidence) that the integrator re-checks mechanically before
//!   trusting the module.

pub mod bmc;
pub mod coverage;
pub mod equiv;
pub mod pch;

pub use bmc::{bmc_reach, BmcResult};
pub use coverage::{prove_detection, DetectionProof};
pub use equiv::{check_equivalence, EquivResult};
pub use pch::{check_certificate, isolation_certificate, Certificate, Property};
