//! # seceda-sat
//!
//! A from-scratch CDCL SAT solver plus netlist-to-CNF encoding, built as
//! the reasoning substrate for the `seceda` toolkit.
//!
//! Verification-driven security schemes all reduce to satisfiability:
//! equivalence checking of locked/camouflaged logic, the oracle-guided
//! SAT attack on logic locking \[33\], SAT-based ATPG, and bounded model
//! checking. The paper (Sec. III-D) explicitly calls for EDA flows that
//! "mimic attackers leveraging satisfiability-based tools".
//!
//! * [`Solver`] — conflict-driven clause learning with two-watched
//!   literals, heap-ordered VSIDS activities, learned-clause database
//!   reduction, conflict-clause minimization, phase saving, Luby
//!   restarts, and incremental solving under assumptions with on-the-fly
//!   variable/clause addition. Its one entry point,
//!   [`Solver::solve`], takes the assumptions and a [`Budget`];
//! * [`Budget`] / [`SolveOutcome`] — conflict, propagation, wall-clock
//!   and cancel limits, and the ternary Sat / Unsat / Indeterminate
//!   result every solve returns;
//! * [`Cnf`] / [`Lit`] / [`Var`] — formula representation;
//! * [`CnfBuilder`] — the clause-sink trait shared by [`Cnf`] and
//!   [`Solver`], so encodings can target a live solver incrementally;
//!   [`GatedCnf`] gates a clause group on a selector literal;
//! * [`encode`] — Tseitin encoding of netlists, miter construction, and
//!   selector-gated faulty-cone encoding for incremental ATPG;
//! * [`aig`] — structurally-hashed and-inverter graphs: netlists lower
//!   into a hash-consed AND/XOR node table (constant propagation,
//!   two-level XOR re-discovery), then to CNF through a persistent
//!   node→literal map, so repeated encodings of shared logic — the two
//!   keyed copies of a SAT-attack miter, the per-DIP observation
//!   circuits — emit each distinct cone exactly once.
//!
//! # Example
//!
//! ```
//! use seceda_sat::{Budget, Cnf, SolveOutcome, Solver};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([a.pos(), b.pos()]);
//! cnf.add_clause([a.neg()]);
//! let mut solver = Solver::from_cnf(&cnf);
//! match solver.solve(&[], &Budget::unlimited()) {
//!     SolveOutcome::Sat(model) => assert!(model[b.index()]),
//!     other => unreachable!("an unlimited solve is determined: {other:?}"),
//! }
//! ```

pub mod aig;
pub mod encode;

mod budget;
mod cnf;
mod solver;

pub use aig::{encode_netlist_aig, lower_netlist_bound, Aig, AigCnf, AigLit};
pub use budget::{Budget, SolveOutcome, StopReason};
pub use cnf::{Cnf, CnfBuilder, GatedCnf, Lit, Var};
pub use encode::{
    encode_faulty_cone, encode_netlist, encode_netlist_bound, miter, NetlistEncoding, Signal,
};
pub use solver::Solver;
