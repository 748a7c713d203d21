//! # seceda-sat
//!
//! A from-scratch CDCL SAT solver plus netlist-to-CNF lowering, built as
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
//!   variable/clause addition. Clauses live in one flat arena, binary
//!   clauses are watched implicitly (propagation never reads them), and
//!   the VSIDS heap keeps each activity inline. Its one entry point,
//!   [`Solver::solve`], takes the assumptions and a [`Budget`];
//! * [`Budget`] / [`SolveOutcome`] — a conflict cap on one call, however
//!   many solves it makes (work, never time, so every budgeted verdict is
//!   reproducible on any host), and the ternary Sat / Unsat /
//!   Indeterminate result every solve returns;
//! * [`Cnf`] / [`Lit`] / [`Var`] — formula representation;
//! * [`CnfBuilder`] — the clause-sink trait shared by [`Cnf`] and
//!   [`Solver`], so encodings can target a live solver incrementally;
//! * [`aig`] — the one netlist→CNF lowering. [`lower_netlist`] lowers
//!   a netlist into a structurally-hashed and-inverter graph ([`Aig`]:
//!   a hash-consed AND/XOR node table with constant propagation and
//!   two-level XOR re-discovery, under a seeded folded-multiply hash),
//!   giving one edge per net; [`AigCnf`]
//!   then emits Tseitin clauses through a persistent node→literal map,
//!   so repeated encodings of shared logic — the two keyed copies of a
//!   SAT-attack miter, the per-DIP observation circuits, BMC frames —
//!   emit each distinct cone exactly once. [`miter`] builds the
//!   two-copy difference circuit behind equivalence checking and the SAT
//!   attack;
//! * [`FaultMiter`] — the one fault-query protocol of incremental ATPG
//!   and coverage proofs: the good circuit is lowered once, and each
//!   fault's cone is a scoped overlay above it, solved under a fresh
//!   selector and then truncated away.
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

mod budget;
mod cnf;
mod fault;
mod solver;

pub use aig::{lower_netlist, miter, Aig, AigCnf, AigLit, Miter};
pub use budget::{Budget, SolveOutcome, StopReason};
pub use cnf::{Cnf, CnfBuilder, Lit, Var};
pub use fault::{FaultMiter, FaultVerdict};
pub use solver::Solver;
