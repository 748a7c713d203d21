//! Property-based tests for fault countermeasures.

use seceda_fia::{duplicate_with_compare, parity_protect, triplicate_with_vote};
use seceda_netlist::{random_circuit, RandomCircuitConfig};
use seceda_sim::{Fault, FaultSim};
use seceda_testkit::prelude::*;

/// The outputs under one stimulus with `faults` active: one packed
/// pass with the stimulus in bit 0.
fn faulty_outputs(sim: &FaultSim, inputs: &[bool], faults: &[Fault]) -> Vec<bool> {
    let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
    let sites: Vec<(Fault, u64)> = faults.iter().map(|&f| (f, u64::MAX)).collect();
    let outs = sim.eval_outputs_with_faults(&words, &sites);
    outs.iter().map(|w| w & 1 == 1).collect()
}

fn host(seed: u64, gates: usize) -> seceda_netlist::Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 4,
        num_gates: gates,
        num_outputs: 3,
        with_xor: false,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dwc_never_suffers_silent_corruption_from_single_gate_faults(
        seed in 0u64..3000,
        gates in 3usize..25,
        victim_sel in any::<usize>(),
        input_bits in 0u32..16,
    ) {
        let nl = host(seed, gates);
        let p = duplicate_with_compare(&nl);
        let sim = FaultSim::new(&p.netlist).expect("sim");
        let victim = p.netlist.gates()[victim_sel % p.netlist.num_gates()].output;
        let inputs: Vec<bool> = (0..4).map(|b| (input_bits >> b) & 1 == 1).collect();
        let good = p.netlist.evaluate(&inputs);
        let bad = faulty_outputs(&sim, &inputs, &[Fault::flip(victim)]);
        let n = good.len() - 1; // last output is the alarm
        let corrupted = good[..n] != bad[..n];
        let alarm = bad[n];
        prop_assert!(!corrupted || alarm, "silent corruption at {victim}");
    }

    #[test]
    fn tmr_masks_faults_in_any_copy(
        seed in 0u64..3000,
        gates in 3usize..20,
        victim_sel in any::<usize>(),
        input_bits in 0u32..16,
    ) {
        let nl = host(seed, gates);
        let original_gates = nl.num_gates();
        let p = triplicate_with_vote(&nl);
        let sim = FaultSim::new(&p.netlist).expect("sim");
        // only target copy gates (the first 3 * original_gates gates)
        let victim = p.netlist.gates()[victim_sel % (3 * original_gates)].output;
        let inputs: Vec<bool> = (0..4).map(|b| (input_bits >> b) & 1 == 1).collect();
        let expect = nl.evaluate(&inputs);
        let got = faulty_outputs(&sim, &inputs, &[Fault::flip(victim)]);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn parity_detects_faults_in_single_output_cones(
        seed in 0u64..3000,
        gates in 3usize..20,
        input_bits in 0u32..16,
    ) {
        // faults in the *predictor* cone never corrupt functional outputs
        let nl = host(seed, gates);
        let p = parity_protect(&nl);
        let sim = FaultSim::new(&p.netlist).expect("sim");
        let functional_gates = nl.num_gates();
        let predictor_victim = p.netlist.gates()[functional_gates].output;
        let inputs: Vec<bool> = (0..4).map(|b| (input_bits >> b) & 1 == 1).collect();
        let good = p.netlist.evaluate(&inputs);
        let bad = faulty_outputs(&sim, &inputs, &[Fault::flip(predictor_victim)]);
        let n = good.len() - 1;
        prop_assert_eq!(&good[..n], &bad[..n], "predictor faults are function-transparent");
    }

    #[test]
    fn protected_netlists_preserve_function(
        seed in 0u64..3000,
        gates in 3usize..20,
        input_bits in 0u32..16,
    ) {
        let nl = host(seed, gates);
        let inputs: Vec<bool> = (0..4).map(|b| (input_bits >> b) & 1 == 1).collect();
        let expect = nl.evaluate(&inputs);
        for p in [
            duplicate_with_compare(&nl),
            triplicate_with_vote(&nl),
            parity_protect(&nl),
        ] {
            let outs = p.netlist.evaluate(&inputs);
            let n = match p.alarm_index {
                Some(_) => outs.len() - 1,
                None => outs.len(),
            };
            prop_assert_eq!(&outs[..n], &expect[..]);
            if p.alarm_index.is_some() {
                prop_assert!(!outs[n], "no fault, no alarm");
            }
        }
    }
}
