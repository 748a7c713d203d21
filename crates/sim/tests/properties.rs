//! Property-based tests for the simulation engines.

use seceda_netlist::{random_circuit, RandomCircuitConfig};
use seceda_sim::{pack_patterns, EventSim, Fault, FaultSim, PackedSim};
use seceda_testkit::prelude::*;

fn circuit(seed: u64, gates: usize) -> seceda_netlist::Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 5,
        num_gates: gates,
        num_outputs: 3,
        with_xor: true,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn packed_simulation_matches_scalar(seed in 0u64..5000, gates in 2usize..60) {
        let nl = circuit(seed, gates);
        let sim = PackedSim::new(&nl).expect("sim");
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let words = pack_patterns(&patterns, 5);
        let nets = sim.eval(&words);
        let outs = sim.outputs(&nets);
        for (p, pattern) in patterns.iter().enumerate() {
            let scalar = nl.evaluate(pattern);
            for (o, &word) in outs.iter().enumerate() {
                prop_assert_eq!((word >> p) & 1 == 1, scalar[o]);
            }
        }
    }

    #[test]
    fn event_simulation_settles_to_dc_values(
        seed in 0u64..5000,
        gates in 2usize..40,
        from_bits in 0u32..32,
        to_bits in 0u32..32,
    ) {
        let nl = circuit(seed, gates);
        let sim = EventSim::new(&nl).expect("sim");
        let from: Vec<bool> = (0..5).map(|b| (from_bits >> b) & 1 == 1).collect();
        let to: Vec<bool> = (0..5).map(|b| (to_bits >> b) & 1 == 1).collect();
        // the internal debug assertion compares against the DC solution;
        // additionally check the report is self-consistent
        let report = sim.transition(&from, &to);
        let total: usize = report.toggles.iter().sum();
        prop_assert_eq!(total, report.events.len());
        prop_assert!(report.glitch_toggles <= report.events.len());
        if from == to {
            prop_assert!(report.events.is_empty());
        }
    }

    #[test]
    fn double_fault_on_same_net_is_single_fault(seed in 0u64..2000, gates in 2usize..30) {
        // applying the same bit-flip fault twice in the list must behave
        // like applying it once (the last fault listed for a net wins);
        // a probe output makes the victim net itself visible
        let mut nl = circuit(seed, gates);
        let victim = nl.gates()[0].output;
        nl.mark_output(victim, "probe");
        let sim = FaultSim::new(&nl).expect("sim");
        let inputs = pack_patterns(&[vec![true, false, true, false, true]], 5);
        let once = sim.eval_outputs_with_faults(&inputs, &[(Fault::flip(victim), u64::MAX)]);
        let twice = sim.eval_outputs_with_faults(
            &inputs,
            &[(Fault::flip(victim), u64::MAX), (Fault::flip(victim), u64::MAX)],
        );
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn stuck_at_dominates_value(seed in 0u64..2000, gates in 2usize..30, v in any::<bool>()) {
        let mut nl = circuit(seed, gates);
        let victim = nl.gates()[gates / 2].output;
        nl.mark_output(victim, "probe");
        let probe = nl.outputs().len() - 1;
        let sim = FaultSim::new(&nl).expect("sim");
        let inputs = pack_patterns(&[vec![false, true, true, false, true]], 5);
        let outs = sim.eval_outputs_with_faults(&inputs, &[(Fault::stuck_at(victim, v), u64::MAX)]);
        prop_assert_eq!(outs[probe] & 1 == 1, v);
    }
}
