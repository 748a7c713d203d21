//! # seceda-dft
//!
//! Design-for-test infrastructure and its security tensions — the
//! testing row of Table II and Sec. III-F of the paper.
//!
//! Testability and security pull in opposite directions \[56\]: the same
//! scan chain that makes a chip testable hands an attacker register-level
//! access. This crate builds both sides:
//!
//! * [`atpg`] — SAT-based automatic test pattern generation for stuck-at
//!   faults, with random-pattern bootstrapping and untestability proofs;
//! * [`scan`] — scan-chain insertion (mux-scan DFFs) and shift/capture
//!   simulation helpers;
//! * [`scan_attack`] — the classical scan-based key-recovery attack
//!   \[39\] on a registered cipher block, plus *secure scan* (keyed
//!   scan-out scrambling) that defeats it;
//! * [`bist`] — logic BIST: LFSR pattern generation and a MISR response
//!   compactor with golden-signature checking;
//! * [`dfx`] — the security-aware DFX controller the paper calls for:
//!   it consumes fault verdicts (natural vs. malicious, from
//!   `seceda-fia`) and manages the locking key, releasing it only in an
//!   authorized test mode.

pub mod atpg;
pub mod bist;
pub mod dfx;
pub mod scan;
pub mod scan_attack;

pub use atpg::{generate_tests, AtpgResult, AtpgSolver, FaultTestOutcome};
pub use bist::{run_bist, BistConfig, BistResult, Lfsr, Misr};
pub use dfx::{DfxController, DfxResponse, DfxState};
pub use scan::{insert_scan_chain, ScanChain};
pub use scan_attack::{scan_attack_recover_key, scan_victim, secure_scan_wrap, SecuredScanDesign};
