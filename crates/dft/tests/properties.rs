//! Property-based tests for the test infrastructure.

use seceda_dft::{generate_tests, insert_scan_chain, run_bist, BistConfig, Lfsr, Misr};
use seceda_netlist::{random_circuit, RandomCircuitConfig};
use seceda_sim::{fault::stuck_at_universe, FaultSim};
use seceda_testkit::prelude::*;

fn host(seed: u64, gates: usize) -> seceda_netlist::Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 5,
        num_gates: gates,
        num_outputs: 3,
        with_xor: true,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn atpg_reaches_full_coverage_of_testable_faults(seed in 0u64..1000, gates in 3usize..18) {
        let nl = host(seed, gates);
        let result = generate_tests(&nl, 8, seed ^ 1).expect("atpg");
        prop_assert!((result.coverage - 1.0).abs() < 1e-9,
            "testable faults must all be covered: {}", result.coverage);
        // untestable faults really are untestable: no exhaustive pattern
        // detects them
        let sim = FaultSim::new(&nl).expect("sim");
        let exhaustive: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let (detected, _) = sim.coverage(&exhaustive, &result.untestable);
        for (f, d) in result.untestable.iter().zip(detected) {
            prop_assert!(!d, "{:?} detected by an exhaustive pattern", f);
        }
    }

    #[test]
    fn bist_signature_flags_most_stuck_at_faults(seed in 0u64..1000, gates in 4usize..20) {
        let nl = host(seed, gates);
        let config = BistConfig::default();
        let golden = run_bist(&nl, &config, &[]).expect("bist");
        let faults = stuck_at_universe(&nl);
        // grade BIST against the simulator ground truth: whenever BIST
        // keeps the golden signature, plain fault simulation with the
        // same 256 LFSR patterns must also miss the fault
        let sim = FaultSim::new(&nl).expect("sim");
        let mut lfsr = Lfsr::new(config.seed, 16);
        let patterns: Vec<Vec<bool>> = (0..config.patterns)
            .map(|_| lfsr.pattern(nl.inputs().len()))
            .collect();
        for &f in faults.iter().take(20) {
            let bist_detects =
                run_bist(&nl, &config, &[f]).expect("bist").signature != golden.signature;
            let sim_detects = sim.coverage(&patterns, &[f]).0[0];
            if sim_detects {
                // MISR aliasing could theoretically mask it, but with a
                // 32-bit signature this is ~2^-32; treat as must-detect
                prop_assert!(bist_detects, "aliasing on {f:?}");
            } else {
                prop_assert!(!bist_detects, "BIST cannot detect what patterns miss");
            }
        }
    }

    #[test]
    fn scan_shift_is_the_identity_after_a_full_rotation(
        seed in 0u64..1000,
        pattern_bits in any::<u16>(),
    ) {
        // registered random design: 8 DFFs via the cipher slice
        let nl = seceda_cipher::sbox_first_round_registered();
        let scan = insert_scan_chain(&nl);
        let _ = seed;
        let pattern: Vec<bool> = (0..8).map(|b| (pattern_bits >> b) & 1 == 1).collect();
        let held = vec![false; 16];
        let state = scan.shift_in(&[false; 8], &pattern, &held);
        let out = scan.shift_out(&state, &held);
        prop_assert_eq!(out, pattern);
    }

    #[test]
    fn misr_is_order_sensitive_but_deterministic(
        a in proptest::collection::vec(any::<bool>(), 4),
        b in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let sig = |xs: &[&Vec<bool>]| {
            let mut m = Misr::new(32);
            for x in xs {
                m.absorb(x);
            }
            m.signature()
        };
        prop_assert_eq!(sig(&[&a, &b]), sig(&[&a, &b]));
        if a != b {
            prop_assert_ne!(sig(&[&a, &b]), sig(&[&b, &a]));
        }
    }
}
