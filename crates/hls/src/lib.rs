//! # seceda-hls
//!
//! A small high-level-synthesis substrate (dataflow graph, scheduling,
//! binding) plus the HLS-stage security schemes of Table II:
//!
//! * [`dfg`] — the dataflow-graph IR with an executable semantics (the
//!   QIF analysis needs to *run* programs);
//! * [`schedule`] — ASAP / ALAP / resource-constrained list scheduling
//!   and functional-unit / register allocation;
//! * [`secure`] — register flushing after last use of sensitive values,
//!   PUF-based metering allocation \[19\], and BISA-style
//!   self-authentication fill of idle schedule slots \[20\];
//! * [`ift`] — information-flow (taint) tracking \[14\] with one-time-pad
//!   declassification, and a quantitative information-flow estimator
//!   (mutual information between secret inputs and outputs) in the
//!   spirit of QIF-Verilog \[47\].

pub mod dfg;
pub mod ift;
pub mod schedule;
pub mod secure;

pub use dfg::{Dfg, NodeId, Op};
pub use ift::{estimate_leakage_bits, taint_analysis, TaintReport};
pub use schedule::{alap, asap, list_schedule, Allocation, Schedule};
pub use secure::{
    add_metering, flush_plan, self_authentication_fill, FlushPlan, MeteredDfg, SelfAuthDfg,
};
