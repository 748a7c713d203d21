//! # seceda-lock
//!
//! Design-IP protection and its adversaries — the piracy column of
//! Table II.
//!
//! * [`xor_lock`] / [`mux_lock`] — EPIC-style combinational logic
//!   locking \[24\]: key gates inserted at netlist granularity, tagged so
//!   security-aware synthesis never optimizes them away;
//! * [`sfll_hd0`] — stripped-functionality logic locking (SFLL-HD with
//!   h = 0): provably resilient against naive SAT attacks at the price
//!   of one protected input pattern \[51\];
//! * [`sat_attack`](mod@sat_attack) — the oracle-guided SAT attack \[33\]: iteratively
//!   finds distinguishing input patterns until only functionally correct
//!   keys remain. This is "verification mimicking the attacker"
//!   (Sec. III-D of the paper). It is one loop,
//!   [`sat_attack_budgeted`], whose DIP search and key extraction share
//!   one canonical (lex-min) solve; a spent conflict budget suspends it
//!   with a resumable [`SatAttackCheckpoint`];
//! * [`camouflage`](mod@camouflage) — IC camouflaging \[23\] modeled as ambiguous cells,
//!   plus de-camouflaging via the same SAT machinery;
//! * [`metrics`] — output-corruption metrics for locked designs.

pub mod camouflage;
pub mod metrics;
pub mod sat_attack;

mod locking;
#[cfg(test)]
mod rebuild;

pub use camouflage::{camouflage, decamouflage, CamouflagedNetlist};
pub use locking::{mux_lock, sfll_hd0, xor_lock, LockedNetlist};
pub use metrics::{output_corruption, CorruptionReport};
pub use sat_attack::{
    sat_attack, sat_attack_budgeted, SatAttackCheckpoint, SatAttackOutcome, SatAttackResult,
};
