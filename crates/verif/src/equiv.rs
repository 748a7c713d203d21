//! SAT-based combinational equivalence checking.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sat::{miter, Budget, Cnf, SolveOutcome, Solver};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits agree on every input.
    Equivalent,
    /// A distinguishing input assignment (in port order of circuit `a`).
    Counterexample(Vec<bool>),
}

impl EquivResult {
    /// `true` when equivalent.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Checks combinational equivalence of two netlists with matching
/// interfaces.
///
/// # Errors
///
/// Returns a netlist error if either circuit is cyclic.
///
/// # Panics
///
/// Panics if the interfaces do not match (see [`miter`]).
pub fn check_equivalence(a: &Netlist, b: &Netlist) -> Result<EquivResult, NetlistError> {
    let mut cnf = Cnf::new();
    let (enc_a, _, diff) = miter(a, b, &mut cnf)?;
    let mut solver = Solver::from_cnf(&cnf);
    Ok(match solver.solve(&[diff], &Budget::unlimited()) {
        SolveOutcome::Unsat => EquivResult::Equivalent,
        SolveOutcome::Sat(model) => {
            EquivResult::Counterexample(enc_a.input_vars.iter().map(|v| model[v.index()]).collect())
        }
        SolveOutcome::Indeterminate(reason) => unreachable!("unlimited solve stopped: {reason}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, parse_netlist, CellKind};

    #[test]
    fn identical_circuits_are_equivalent() {
        let nl = c17();
        assert!(check_equivalence(&nl, &nl.clone())
            .expect("check")
            .is_equivalent());
    }

    #[test]
    fn roundtripped_circuit_stays_equivalent() {
        let nl = c17();
        let back = parse_netlist(&seceda_netlist::format_netlist(&nl)).expect("parse");
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
}
