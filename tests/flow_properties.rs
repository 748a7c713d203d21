//! Property-based integration tests: randomized designs through the
//! synthesis, mapping, masking, encoding and text-format layers, with
//! function preservation as the invariant.

use seceda_netlist::{format_netlist, parse_netlist, random_circuit, RandomCircuitConfig};
use seceda_sat::{encode_netlist, Budget, Cnf, SolveOutcome, Solver};
use seceda_sca::mask_netlist;
use seceda_sim::{pack_patterns, PackedSim};
use seceda_synth::{
    decompose_to_two_input, map_to_nand, map_to_xag, optimize, reassociate, SynthesisMode,
};
use seceda_testkit::prelude::*;

fn small_circuit(seed: u64, gates: usize) -> seceda_netlist::Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 6,
        num_gates: gates,
        num_outputs: 4,
        with_xor: true,
        seed,
    })
}

fn truth_table(nl: &seceda_netlist::Netlist) -> Vec<Vec<bool>> {
    nl.truth_table()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesis_pipeline_preserves_function(seed in 0u64..5000, gates in 10usize..60) {
        let nl = small_circuit(seed, gates);
        let reference = truth_table(&nl);
        let (reassoc, _) = reassociate(&nl, SynthesisMode::Classical);
        prop_assert_eq!(&truth_table(&reassoc), &reference);
        let optimized = optimize(&reassoc, SynthesisMode::Classical);
        prop_assert_eq!(&truth_table(&optimized), &reference);
        prop_assert!(optimized.validate().is_ok());
    }

    #[test]
    fn mapping_pipeline_preserves_function(seed in 0u64..5000, gates in 10usize..50) {
        let nl = small_circuit(seed, gates);
        let reference = truth_table(&nl);
        prop_assert_eq!(&truth_table(&decompose_to_two_input(&nl)), &reference);
        prop_assert_eq!(&truth_table(&map_to_nand(&nl)), &reference);
        prop_assert_eq!(&truth_table(&map_to_xag(&nl)), &reference);
    }

    #[test]
    fn text_format_roundtrips(seed in 0u64..5000, gates in 5usize..40) {
        let nl = small_circuit(seed, gates);
        let back = parse_netlist(&format_netlist(&nl)).expect("parse");
        prop_assert_eq!(truth_table(&back), truth_table(&nl));
    }

    #[test]
    fn cnf_encoding_agrees_with_packed_simulation(seed in 0u64..5000, gates in 5usize..30) {
        let nl = small_circuit(seed, gates);
        // pick one input pattern derived from the seed
        let pattern: Vec<bool> = (0..6).map(|b| (seed >> b) & 1 == 1).collect();
        let expected = nl.evaluate(&pattern);
        // packed simulation agrees
        let sim = PackedSim::new(&nl).expect("sim");
        let words = pack_patterns(std::slice::from_ref(&pattern), 6);
        let nets = sim.eval(&words);
        let packed: Vec<bool> = sim.outputs(&nets).iter().map(|w| w & 1 == 1).collect();
        prop_assert_eq!(&packed, &expected);
        // CNF encoding agrees
        let mut cnf = Cnf::new();
        let enc = encode_netlist(&nl, &mut cnf).expect("encode");
        let assumptions: Vec<_> = enc
            .input_vars
            .iter()
            .zip(&pattern)
            .map(|(v, &b)| v.lit(b))
            .collect();
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve(&assumptions, &Budget::unlimited()) {
            SolveOutcome::Sat(model) => {
                let sat_outs: Vec<bool> =
                    enc.output_vars.iter().map(|v| model[v.index()]).collect();
                prop_assert_eq!(&sat_outs, &expected);
            }
            other => prop_assert!(false, "concrete inputs must be sat: {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn masking_preserves_function_on_random_circuits(
        seed in 0u64..1000,
        value_bits in 0u64..64,
        share_bits in 0u64..4096,
        random_bits in 0u64..(1 << 20),
    ) {
        let nl = small_circuit(seed, 14);
        let masked = mask_netlist(&nl);
        let values: Vec<bool> = (0..6).map(|b| (value_bits >> b) & 1 == 1).collect();
        let shares: Vec<bool> = (0..12).map(|b| (share_bits >> b) & 1 == 1).collect();
        let randoms: Vec<bool> = (0..masked.num_randoms)
            .map(|b| (random_bits >> (b % 20)) & 1 == 1)
            .collect();
        let inputs = masked.encode_inputs(&values, &shares, &randoms);
        let outs = masked.netlist.evaluate(&inputs);
        prop_assert_eq!(masked.decode_outputs(&outs), nl.evaluate(&values));
    }
}
