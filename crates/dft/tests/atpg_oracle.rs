//! Incremental ATPG on the AIG against the per-net Tseitin oracle of
//! `seceda-sat`: on random designs, every stuck-at and bit-flip fault
//! gets the same testable/untestable verdict from both, and every
//! generated pattern detects its fault under `FaultSim`.

#[path = "../../sat/tests/oracle/tseitin.rs"]
mod tseitin;

use seceda_dft::{generate_tests, AtpgSolver, FaultTestOutcome};
use seceda_netlist::{random_circuit, CellKind, Netlist, RandomCircuitConfig};
use seceda_sat::Budget;
use seceda_sim::{fault::stuck_at_universe, Fault, FaultKind, FaultSim};
use tseitin::TseitinFaults;

fn stuck(kind: FaultKind) -> Option<bool> {
    match kind {
        FaultKind::StuckAt0 => Some(false),
        FaultKind::StuckAt1 => Some(true),
        FaultKind::BitFlip => None,
    }
}

/// Every stuck-at fault, plus a bit flip on every net they cover.
fn fault_list(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_universe(nl);
    let flips: Vec<Fault> = faults
        .iter()
        .step_by(2)
        .map(|f| Fault::flip(f.net))
        .collect();
    faults.extend(flips);
    faults
}

#[test]
fn atpg_verdicts_match_tseitin_and_patterns_detect_under_fault_sim() {
    let (mut testable, mut untestable) = (0usize, 0usize);
    for seed in 0..200u64 {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 3 + (seed % 5) as usize,
            num_gates: 5 + (seed * 11 % 40) as usize,
            num_outputs: 1 + (seed % 3) as usize,
            with_xor: seed % 4 != 1,
            seed,
        });
        let sim = FaultSim::new(&nl).expect("sim");
        let mut atpg = AtpgSolver::new(&nl).expect("lower");
        let mut oracle = TseitinFaults::new(&nl);
        for f in fault_list(&nl) {
            let got = atpg.generate_test(f, &Budget::unlimited()).expect("query");
            let want = oracle.query(f.net, stuck(f.kind), |_| true, &[]);
            match got {
                FaultTestOutcome::Test(pattern) => {
                    assert!(want.is_some(), "seed {seed} {f:?}");
                    let (detected, _) = sim.coverage(&[pattern], &[f]);
                    assert_eq!(detected, [true], "seed {seed}: pattern must detect {f:?}");
                    testable += 1;
                }
                FaultTestOutcome::Untestable => {
                    assert!(want.is_none(), "seed {seed} {f:?}");
                    untestable += 1;
                }
                FaultTestOutcome::Aborted(reason) => {
                    panic!("seed {seed} {f:?}: unlimited query aborted: {reason}")
                }
            }
        }
    }
    assert!(
        testable > 5_000 && untestable > 1_000,
        "{testable} testable, {untestable} untestable"
    );
}

#[test]
fn undriven_nets_read_false_in_atpg() {
    // y = AND(a, ghost), ghost never driven: y is constant 0, so a
    // stuck-at-0 on `a` (or on y) is untestable, and the simulator
    // agrees no pattern detects it
    let mut nl = Netlist::new("ghost");
    let a = nl.add_input("a");
    let ghost = nl.add_net();
    let y = nl.add_gate(CellKind::And, &[a, ghost]);
    nl.mark_output(y, "y");
    let sim = FaultSim::new(&nl).expect("sim");
    let mut atpg = AtpgSolver::new(&nl).expect("lower");
    for f in [Fault::stuck_at(a, false), Fault::stuck_at(y, false)] {
        assert_eq!(
            atpg.generate_test(f, &Budget::unlimited()).expect("query"),
            FaultTestOutcome::Untestable,
            "{f:?}"
        );
        let (detected, _) = sim.coverage(&[vec![false], vec![true]], &[f]);
        assert_eq!(detected, [false], "{f:?}");
    }
    // y stuck-at-1 is testable by any input
    let f = Fault::stuck_at(y, true);
    let FaultTestOutcome::Test(pattern) =
        atpg.generate_test(f, &Budget::unlimited()).expect("query")
    else {
        panic!("y stuck-at-1 is testable");
    };
    assert_eq!(sim.coverage(&[pattern], &[f]).0, [true]);
    let result = generate_tests(&nl, 4, 3).expect("atpg");
    assert!(result.untestable.contains(&Fault::stuck_at(a, false)));
    assert!((result.coverage - 1.0).abs() < 1e-9);
}
