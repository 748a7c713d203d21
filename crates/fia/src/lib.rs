//! # seceda-fia
//!
//! Fault-injection attacks and countermeasures — the FIA column of
//! Table II.
//!
//! * [`campaign`] — parameterized fault campaigns standing in for the
//!   physical injection means the paper lists (laser, EM, clock
//!   glitches): spatially clustered, timing-critical-path, and uniform
//!   random fault sets;
//! * [`codes`] — countermeasure transforms: duplication-with-compare,
//!   triple modular redundancy with voting, and the infective
//!   countermeasure \[18\] that randomizes outputs upon detection;
//! * [`analysis`] — automatic fault analysis \[22\]: classify every fault
//!   of a campaign as masked / detected / silent corruption and compute
//!   detection coverage ("validation of error-detection properties");
//! * [`dfa`] — differential fault analysis on the toy SPN cipher: key
//!   recovery from (correct, faulty) ciphertext pairs, demonstrating why
//!   the countermeasures are needed;
//! * [`discriminate`] — the natural-vs-malicious fault discrimination the
//!   paper calls for in security-aware DFX infrastructures (Sec. III-F).

pub mod analysis;
pub mod campaign;
pub mod codes;
pub mod dfa;
pub mod discriminate;

pub use analysis::{analyze_faults, FaultAnalysis};
pub use campaign::{FaultCampaign, InjectionModel};
pub use codes::{
    duplicate_with_compare, infective_transform, parity_protect, triplicate_with_vote,
    ProtectedNetlist,
};
pub use dfa::{dfa_attack, DfaResult};
pub use discriminate::{FaultDiscriminator, FaultVerdict};
