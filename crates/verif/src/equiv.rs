//! SAT-based equivalence checking.
//!
//! Both circuits are lowered into one structurally-hashed AIG over
//! shared input nodes ([`seceda_sat::miter`]), so logic the two agree
//! on structurally is one node, and a miter whose difference folds to
//! false proves equivalence without a solver call. Sequential designs
//! with equally many DFFs are compared under register correspondence:
//! the *k*-th DFF of each reads one shared state bit, and the check
//! covers the outputs and the next state.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sat::{miter, Aig, AigCnf, AigLit, Budget, SolveOutcome, Solver};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits agree on every input (and, under register
    /// correspondence, every shared state).
    Equivalent,
    /// A distinguishing assignment: the inputs in port order of circuit
    /// `a`, then — when both circuits have equally many DFFs — the
    /// shared state bits in [`Netlist::dffs`] order. The circuits'
    /// outputs or next states differ under it.
    Counterexample(Vec<bool>),
}

impl EquivResult {
    /// `true` when equivalent.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Checks equivalence of two netlists with matching interfaces. When
/// both have the same number of DFFs, matched by [`Netlist::dffs`]
/// ordinal, they must agree on the outputs and the next state from
/// every shared state; otherwise DFF outputs are free in each copy and
/// only the outputs are compared (see [`miter`]).
///
/// # Errors
///
/// Returns a netlist error if either circuit is cyclic.
///
/// # Panics
///
/// Panics if the interfaces do not match (see [`miter`]).
pub fn check_equivalence(a: &Netlist, b: &Netlist) -> Result<EquivResult, NetlistError> {
    let mut solver = Solver::new(0);
    let const_false = solver.new_var().pos();
    solver.add_clause([!const_false]);
    let mut aig = Aig::new();
    let m = miter(a, b, a.inputs().len(), &mut aig, &mut solver)?;
    if m.diff == AigLit::FALSE {
        return Ok(EquivResult::Equivalent);
    }
    let diff = AigCnf::new(const_false).lit_of(&aig, m.diff, &mut solver);
    Ok(match solver.solve(&[diff], &Budget::unlimited()) {
        SolveOutcome::Unsat => EquivResult::Equivalent,
        SolveOutcome::Sat(model) => {
            EquivResult::Counterexample(m.vars.iter().map(|v| model[v.index()]).collect())
        }
        SolveOutcome::Indeterminate(reason) => unreachable!("unlimited solve stopped: {reason}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, parse_bench, write_bench, CellKind};

    #[test]
    fn identical_circuits_are_equivalent() {
        // a sequential design too: both copies read one shared state
        for nl in [c17(), registered_xor(false)] {
            assert!(check_equivalence(&nl, &nl.clone())
                .expect("check")
                .is_equivalent());
        }
    }

    #[test]
    fn roundtripped_circuit_stays_equivalent() {
        let nl = c17();
        let back = parse_bench(&write_bench(&nl)).expect("parse");
        assert!(check_equivalence(&nl, &back)
            .expect("check")
            .is_equivalent());
    }

    #[test]
    fn counterexample_is_a_real_witness() {
        let mut a = Netlist::new("and");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let o = a.add_gate(CellKind::And, &[x, y]);
        a.mark_output(o, "o");

        let mut b = Netlist::new("nand");
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let o2 = b.add_gate(CellKind::Nand, &[x2, y2]);
        b.mark_output(o2, "o");

        match check_equivalence(&a, &b).expect("check") {
            EquivResult::Counterexample(inputs) => {
                assert_ne!(a.evaluate(&inputs), b.evaluate(&inputs));
            }
            EquivResult::Equivalent => panic!("AND != NAND"),
        }
    }

    #[test]
    fn undriven_net_design_is_equivalent_to_constant_zero() {
        // y = AND(a, ghost), ghost never driven: reads 0 everywhere
        let mut a = Netlist::new("ghost");
        let x = a.add_input("a");
        let ghost = a.add_net();
        let y = a.add_gate(CellKind::And, &[x, ghost]);
        a.mark_output(y, "y");
        let mut b = Netlist::new("zero");
        b.add_input("a");
        let zero = b.add_gate(CellKind::Const0, &[]);
        b.mark_output(zero, "y");
        assert_eq!(
            check_equivalence(&a, &b).expect("check"),
            EquivResult::Equivalent
        );
        let mut c = Netlist::new("wire");
        let x = c.add_input("a");
        c.mark_output(x, "y");
        match check_equivalence(&a, &c).expect("check") {
            EquivResult::Counterexample(inputs) => assert_eq!(inputs, [true]),
            EquivResult::Equivalent => panic!("AND(a, 0) differs from a"),
        }
    }

    /// y = XOR(DFF(d), a), with `d = a` or `d = NOT a`.
    fn registered_xor(invert_d: bool) -> Netlist {
        let mut nl = Netlist::new("reg_xor");
        let a = nl.add_input("a");
        let d = if invert_d {
            nl.add_gate(CellKind::Not, &[a])
        } else {
            a
        };
        let q = nl.add_gate(CellKind::Dff, &[d]);
        let y = nl.add_gate(CellKind::Xor, &[q, a]);
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn inverted_next_state_is_a_counterexample() {
        // same outputs from every shared state, different next state
        let (a, b) = (registered_xor(false), registered_xor(true));
        match check_equivalence(&a, &b).expect("check") {
            EquivResult::Counterexample(bits) => {
                assert_eq!(bits.len(), 2, "one input, then one state bit");
                let (x, s) = bits.split_at(1);
                assert_ne!(a.step(x, s).expect("a"), b.step(x, s).expect("b"));
            }
            EquivResult::Equivalent => panic!("inverted D input must not be equivalent"),
        }
    }
}
