//! Property-based tests for the netlist IR.

use seceda_netlist::{
    bits_to_u64, parse_bench, random_circuit, u64_to_bits, write_bench, CellKind, Netlist,
    RandomCircuitConfig, Word,
};
use seceda_testkit::prelude::*;

fn word_op_circuit(width: usize, op: &str) -> Netlist {
    let mut nl = Netlist::new("w");
    let a = Word::input(&mut nl, "a", width);
    let b = Word::input(&mut nl, "b", width);
    let r = match op {
        "add" => a.add(&mut nl, &b),
        "xor" => a.xor(&mut nl, &b),
        "and" => a.and(&mut nl, &b),
        "or" => a.or(&mut nl, &b),
        _ => unreachable!(),
    };
    r.mark_output(&mut nl, "r");
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_ops_match_integer_semantics(
        width in 1usize..12,
        x in 0u64..4096,
        y in 0u64..4096,
        op_idx in 0usize..4,
    ) {
        let mask = (1u64 << width) - 1;
        let (x, y) = (x & mask, y & mask);
        let op = ["add", "xor", "and", "or"][op_idx];
        let nl = word_op_circuit(width, op);
        let mut inputs = u64_to_bits(x, width);
        inputs.extend(u64_to_bits(y, width));
        let got = bits_to_u64(&nl.evaluate(&inputs));
        let expect = match op {
            "add" => (x + y) & mask,
            "xor" => x ^ y,
            "and" => x & y,
            "or" => x | y,
            _ => unreachable!(),
        };
        prop_assert_eq!(got, expect, "{} {} {}", x, op, y);
    }

    #[test]
    fn rotate_left_matches_u64(width in 1usize..16, v in 0u64..65536, k in 0usize..40) {
        let mask = (1u64 << width) - 1;
        let v = v & mask;
        let mut nl = Netlist::new("rot");
        let a = Word::input(&mut nl, "a", width);
        let r = a.rotate_left(k);
        r.mark_output(&mut nl, "r");
        let got = bits_to_u64(&nl.evaluate(&u64_to_bits(v, width)));
        let kk = (k % width) as u32;
        let expect = if kk == 0 {
            v
        } else {
            ((v << kk) | (v >> (width as u32 - kk))) & mask
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn random_circuits_are_valid_and_roundtrip(seed in 0u64..10_000, gates in 1usize..80) {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 5,
            num_gates: gates,
            num_outputs: gates.min(4),
            with_xor: true,
            seed,
        });
        prop_assert!(nl.validate().is_ok());
        let back = parse_bench(&write_bench(&nl)).expect("parse");
        prop_assert_eq!(back.truth_table(), nl.truth_table());
    }

    #[test]
    fn double_inverter_splice_preserves_function(
        seed in 0u64..2000,
        gates in 2usize..30,
    ) {
        // inserting a double inverter after any net is functionally
        // transparent
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 4,
            num_gates: gates,
            num_outputs: 2,
            with_xor: true,
            seed,
        });
        let reference = nl.truth_table();
        let mut modified = nl.clone();
        let target = modified.gates()[0].output;
        let before = modified.num_gates();
        let stage1 = modified.add_gate(CellKind::Not, &[target]);
        let stage2 = modified.add_gate(CellKind::Not, &[stage1]);
        modified.redirect(&[(target, stage2)], before);
        prop_assert!(modified.validate().is_ok());
        prop_assert_eq!(modified.truth_table(), reference);
    }

    #[test]
    fn redirect_to_equivalent_driver_is_transparent(
        seed in 0u64..2000,
        gates in 2usize..30,
    ) {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 4,
            num_gates: gates,
            num_outputs: 2,
            with_xor: true,
            seed,
        });
        let reference = nl.truth_table();
        let mut modified = nl.clone();
        let target = modified.gates()[0].output;
        let before = modified.num_gates();
        let copy = modified.add_gate(CellKind::Buf, &[target]);
        // every use of target before the buffer moves to the buffer
        modified.redirect(&[(target, copy)], before);
        prop_assert!(modified.validate().is_ok());
        prop_assert_eq!(modified.truth_table(), reference);
    }
}
