//! # seceda-netlist
//!
//! Gate-level netlist intermediate representation for the `seceda`
//! security-centric EDA toolkit.
//!
//! This crate provides the foundational data structure every other `seceda`
//! crate operates on: a flat, gate-level [`Netlist`] with named primary
//! inputs/outputs, combinational cells, and D flip-flops. It also ships
//! word-level construction helpers ([`Word`]), a seeded random circuit
//! generator, and a set of built-in benchmark
//! circuits (ISCAS c17, ripple adders, comparators, ALU slices) used as
//! workloads throughout the experiment harness.
//!
//! Real designs enter through the frontend in [`mod@parse`]: an
//! ISCAS-85/89 `.bench` reader/writer ([`parse_bench`] /
//! [`write_bench`]) and a structural-Verilog subset reader
//! ([`parse_verilog`]), with extension-based dispatch via
//! [`parse_design_path`]. Net names are interned ([`Symbol`] /
//! [`SymbolTable`]), gate inputs use inline small-vector storage
//! ([`InputList`]), and fanout/topological traversals are iterative
//! over a compressed sparse row [`Fanout`] — so 10^5–10^6-gate designs
//! parse and analyze in O(n) without recursion or per-gate heap
//! traffic.
//!
//! # Example
//!
//! ```
//! use seceda_netlist::{Netlist, CellKind};
//!
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_gate(CellKind::Xor, &[a, b]);
//! nl.mark_output(y, "y");
//! assert_eq!(nl.evaluate(&[true, false]), vec![true]);
//! ```

mod bench_circuits;
mod build;
mod cell;
mod error;
pub mod hash;
mod id;
mod netlist;
pub mod parse;
mod random;
mod stats;
mod symbol;

pub use bench_circuits::{alu_slice, c17, comparator, majority, parity_tree, ripple_adder};
pub use build::{bits_to_u64, u64_to_bits, Word};
pub use cell::{CellKind, Gate, GateTags, InputList, INLINE_INPUTS};
pub use error::NetlistError;
pub use hash::{DesignDigest, DigestBuilder};
pub use id::{GateId, NetId};
pub use netlist::{Fanout, Net, Netlist};
pub use parse::{
    parse_bench, parse_design, parse_design_path, parse_verilog, write_bench, DesignFormat,
};
pub use random::{random_circuit, RandomCircuitConfig};
pub use stats::{DepthReport, NetlistStats};
pub use symbol::{Symbol, SymbolTable};
