//! Self-tests of the per-net Tseitin oracle (`tests/oracle/tseitin.rs`):
//! every model of its encoding and of its miter matches simulation, so
//! the differential suites that compare the AIG lowering against it
//! compare against a trusted reference.

#[path = "oracle/tseitin.rs"]
mod tseitin;

use seceda_netlist::{c17, majority, CellKind, Netlist};
use seceda_sat::{Budget, Cnf, Lit, SolveOutcome, Solver};
use tseitin::{encode_netlist, miter};

/// Checks every CNF model of an encoded netlist against simulation.
fn check_encoding_consistency(nl: &Netlist) {
    let mut cnf = Cnf::new();
    let enc = encode_netlist(nl, &mut cnf).expect("encode");
    let n_inputs = nl.inputs().len();
    for pattern in 0..(1u32 << n_inputs) {
        let inputs: Vec<bool> = (0..n_inputs).map(|b| (pattern >> b) & 1 == 1).collect();
        let expected = nl.evaluate(&inputs);
        let assumptions: Vec<Lit> = enc
            .input_vars
            .iter()
            .zip(&inputs)
            .map(|(&v, &b)| v.lit(b))
            .collect();
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve(&assumptions, &Budget::unlimited()) {
            SolveOutcome::Sat(model) => {
                for (k, &ov) in enc.output_vars.iter().enumerate() {
                    assert_eq!(
                        model[ov.index()],
                        expected[k],
                        "pattern {pattern} output {k}"
                    );
                }
            }
            other => panic!("encoding unsat under concrete inputs: {other:?}"),
        }
    }
}

#[test]
fn c17_encoding_matches_simulation() {
    check_encoding_consistency(&c17());
}

#[test]
fn majority_encoding_matches_simulation() {
    check_encoding_consistency(&majority());
}

#[test]
fn wide_gates_encoding() {
    let mut nl = Netlist::new("wide");
    let ins: Vec<_> = (0..5).map(|i| nl.add_input(format!("i{i}"))).collect();
    for (kind, name) in [
        (CellKind::And, "a"),
        (CellKind::Or, "o"),
        (CellKind::Xor, "x"),
        (CellKind::Xnor, "nx"),
        (CellKind::Nand, "na"),
        (CellKind::Nor, "no"),
    ] {
        let net = nl.add_gate(kind, &ins);
        nl.mark_output(net, name);
    }
    check_encoding_consistency(&nl);
}

#[test]
fn undriven_nets_encode_false() {
    // y = AND(a, ghost) with ghost never driven reads as 0
    let mut nl = Netlist::new("ghost");
    let a = nl.add_input("a");
    let ghost = nl.add_net();
    let y = nl.add_gate(CellKind::And, &[a, ghost]);
    nl.mark_output(y, "y");
    check_encoding_consistency(&nl);
}

fn xor_pair() -> (Netlist, Netlist) {
    let mut a = Netlist::new("xor1");
    let x = a.add_input("x");
    let y = a.add_input("y");
    let out = a.add_gate(CellKind::Xor, &[x, y]);
    a.mark_output(out, "o");
    let mut b = Netlist::new("xor2");
    let x2 = b.add_input("x");
    let y2 = b.add_input("y");
    let nx = b.add_gate(CellKind::Not, &[x2]);
    let ny = b.add_gate(CellKind::Not, &[y2]);
    let t1 = b.add_gate(CellKind::And, &[x2, ny]);
    let t2 = b.add_gate(CellKind::And, &[nx, y2]);
    let out2 = b.add_gate(CellKind::Or, &[t1, t2]);
    b.mark_output(out2, "o");
    (a, b)
}

#[test]
fn miter_proves_equivalence() {
    let (a, b) = xor_pair();
    let mut cnf = Cnf::new();
    let (_, _, diff) = miter(&a, &b, 2, &mut cnf).expect("miter");
    assert_eq!(
        Solver::from_cnf(&cnf).solve(&[diff], &Budget::unlimited()),
        SolveOutcome::Unsat,
        "equivalent circuits must have an unsat miter"
    );
}

#[test]
fn miter_finds_counterexample() {
    let mut a = Netlist::new("and");
    let x = a.add_input("x");
    let y = a.add_input("y");
    let out = a.add_gate(CellKind::And, &[x, y]);
    a.mark_output(out, "o");
    let mut b = Netlist::new("or");
    let x2 = b.add_input("x");
    let y2 = b.add_input("y");
    let out2 = b.add_gate(CellKind::Or, &[x2, y2]);
    b.mark_output(out2, "o");
    let mut cnf = Cnf::new();
    let (enc_a, _, diff) = miter(&a, &b, 2, &mut cnf).expect("miter");
    match Solver::from_cnf(&cnf).solve(&[diff], &Budget::unlimited()) {
        SolveOutcome::Sat(model) => {
            let xi = model[enc_a.input_vars[0].index()];
            let yi = model[enc_a.input_vars[1].index()];
            assert_ne!(xi & yi, xi | yi);
        }
        other => panic!("AND vs OR must differ: {other:?}"),
    }
}
