//! End-to-end coverage of the real-design frontend: checked-in `.bench`
//! files flow through the full attack/defense pipeline — logic locking
//! plus the SAT attack, packed fault simulation, and the secure
//! composition engine — exactly like in-process circuits.

use seceda_core::{CompositionEngine, DesignUnderTest, SecurityEvaluation};
use seceda_lock::{sat_attack, xor_lock};
use seceda_netlist::{parse_design_path, Netlist};
use seceda_sim::fault::stuck_at_universe;
use seceda_sim::{signal_probabilities, FaultSim};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
use std::path::PathBuf;

fn fixture(name: &str) -> Netlist {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../netlist/tests/data")
        .join(name);
    parse_design_path(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn parsed_c17_survives_lock_and_sat_attack() {
    let nl = fixture("c17.bench");
    let locked = xor_lock(&nl, 6, 42);
    let oracle = |x: &[bool]| nl.evaluate(x);
    let attack = sat_attack(&locked, oracle)
        .expect("attack runs")
        .expect("key recovered");
    // the recovered key must be functionally correct on every input
    for pattern in 0u32..(1 << nl.inputs().len()) {
        let inputs: Vec<bool> = (0..nl.inputs().len())
            .map(|b| (pattern >> b) & 1 == 1)
            .collect();
        assert_eq!(
            locked.evaluate_with_key(&inputs, &attack.key),
            nl.evaluate(&inputs),
            "pattern {pattern}"
        );
    }
}

#[test]
fn parsed_rand300_fault_coverage_is_pinned() {
    let nl = fixture("rand300.bench");
    assert_eq!(nl.num_gates(), 300);
    let faults = stuck_at_universe(&nl);
    let mut rng = StdRng::seed_from_u64(11);
    let patterns: Vec<Vec<bool>> = (0..96)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    let sim = FaultSim::new(&nl).expect("sim");
    let (detected, coverage) = sim.coverage(&patterns, &faults);
    // the values a scalar per-(pattern, fault) re-simulation reported
    assert_eq!(faults.len(), 632);
    assert_eq!(detected.iter().filter(|&&d| d).count(), 214);
    assert_eq!(coverage, 214.0 / 632.0);
    // signal probabilities run on the parsed design too
    let probs = signal_probabilities(&nl, 4, 3).expect("probs");
    assert_eq!(probs.len(), nl.num_nets());
}

#[test]
fn parsed_design_drives_composition_engine() {
    let nl = fixture("c17.bench");
    let mut engine =
        CompositionEngine::new(DesignUnderTest::new(nl), SecurityEvaluation::default());
    let baseline = engine.evaluate("baseline").expect("baseline evaluation");
    assert!(
        !baseline.metrics.is_empty(),
        "composition engine produces metrics for a parsed design"
    );
}

#[test]
fn parsed_sequential_s27_steps() {
    let nl = fixture("s27.bench");
    assert_eq!(nl.dffs().len(), 3);
    let mut state = vec![false; 3];
    let mut rng = StdRng::seed_from_u64(27);
    for _ in 0..32 {
        let inputs: Vec<bool> = (0..4).map(|_| rng.gen_bool(0.5)).collect();
        let (outs, next) = nl.step(&inputs, &state).expect("step");
        assert_eq!(outs.len(), 1);
        state = next;
    }
}
