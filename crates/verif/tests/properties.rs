//! Property-based tests for the verification crate.

use seceda_netlist::{random_circuit, DesignDigest, RandomCircuitConfig};
use seceda_synth::{map_to_nand, optimize, SynthesisMode};
use seceda_testkit::prelude::*;
use seceda_verif::{check_equivalence, EquivResult};

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
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn synthesis_results_verify_equivalent(seed in 0u64..4000, gates in 3usize..30) {
        let nl = host(seed, gates);
        let optimized = optimize(&nl, SynthesisMode::Classical);
        prop_assert_eq!(
            check_equivalence(&nl, &optimized).expect("check"),
            EquivResult::Equivalent
        );
        let mapped = map_to_nand(&nl);
        prop_assert_eq!(
            check_equivalence(&nl, &mapped).expect("check"),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn counterexamples_are_genuine(seed in 0u64..4000, gates in 3usize..25) {
        // corrupt one gate kind and demand either equivalence (the gate
        // was redundant) or a real distinguishing witness
        let nl = host(seed, gates);
        let mut corrupted = nl.clone();
        let gid = seceda_netlist::GateId::from_index(0);
        let kind = corrupted.gate(gid).kind;
        use seceda_netlist::CellKind;
        let flipped = match kind {
            CellKind::And => CellKind::Nand,
            CellKind::Nand => CellKind::And,
            CellKind::Or => CellKind::Nor,
            CellKind::Nor => CellKind::Or,
            CellKind::Xor => CellKind::Xnor,
            CellKind::Xnor => CellKind::Xor,
            CellKind::Not => CellKind::Buf,
            CellKind::Buf => CellKind::Not,
            k => k,
        };
        corrupted.gate_mut(gid).kind = flipped;
        match check_equivalence(&nl, &corrupted).expect("check") {
            EquivResult::Equivalent => {
                prop_assert_eq!(corrupted.truth_table(), nl.truth_table());
            }
            EquivResult::Counterexample(inputs) => {
                prop_assert_ne!(nl.evaluate(&inputs), corrupted.evaluate(&inputs));
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive(seed in 0u64..4000, gates in 3usize..25) {
        let nl = host(seed, gates);
        prop_assert_eq!(DesignDigest::of(&nl), DesignDigest::of(&nl.clone()));
        let mut tampered = nl.clone();
        let a = tampered.inputs()[0];
        let _extra = tampered.add_gate(seceda_netlist::CellKind::Not, &[a]);
        prop_assert_ne!(DesignDigest::of(&nl), DesignDigest::of(&tampered));
    }
}
