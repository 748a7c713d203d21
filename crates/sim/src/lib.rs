//! # seceda-sim
//!
//! Simulation engines and pre-silicon physical models for the `seceda`
//! toolkit:
//!
//! * [`CycleSim`] — zero-delay cycle-accurate simulation of sequential
//!   netlists with full per-net visibility (the workhorse for leakage
//!   analysis and fault campaigns);
//! * [`PackedSim`] — bit-parallel simulation of one machine word of
//!   patterns at a time (signal probability estimation, MERO-style test
//!   generation, fault grading);
//! * [`EventSim`] — event-driven timing simulation with per-gate delays,
//!   reporting glitches (transient toggles within one cycle), which the
//!   paper highlights as a leakage source the power models must capture;
//! * [`power`] — Hamming-weight / Hamming-distance power models with
//!   Gaussian measurement noise, producing the side-channel traces the
//!   `seceda-sca` crate analyzes;
//! * [`FaultSim`] — the one fault simulator, for ATPG, BIST and FIA
//!   campaigns over the stuck-at and transient models of [`fault`]:
//!   packed multi-fault injection
//!   ([`FaultSim::eval_outputs_with_faults`]) and bit-parallel grading
//!   ([`FaultSim::coverage`], [`FaultSim::grade`]) with 256 patterns per
//!   pass over [`Lane256`] words, fault dropping,
//!   fan-out-cone-restricted faulty re-evaluation, and multi-threaded
//!   fault-list fan-out.
//!
//! All of them compile the netlist once into one flat evaluation tape
//! and evaluate gates through its single kernel, at `bool`, `u64` or
//! [`Lane256`] width, faults included; `Netlist::eval_nets` in
//! `seceda-netlist` and, for faulty circuits, a walk of the netlist
//! arena in `tests/tape_differential.rs` are the independent oracles
//! they are tested against.
//!
//! See [`CycleSim`] for a runnable end-to-end example.

pub mod fault;
pub mod power;

mod cycle;
mod event;
mod packed;
mod packed_fault;
mod prob;
mod simword;
mod tape;

/// The scalar fault oracle of the integration tests, shared with the
/// unit tests.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use cycle::{CycleSim, SimTrace};
pub use event::{EventSim, GlitchReport, ToggleEvent};
pub use fault::{Fault, FaultKind};
pub use packed::{pack_patterns, PackedSim};
pub use packed_fault::FaultSim;
pub use power::{NoiseModel, PowerModel, TraceRecorder};
pub use prob::signal_probabilities;
pub use simword::{Lane256, SimWord};
