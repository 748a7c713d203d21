//! Property-based tests for logic locking.

use seceda_lock::{mux_lock, sat_attack, sfll_hd0, xor_lock};
use seceda_netlist::{random_circuit, RandomCircuitConfig};
use seceda_testkit::par;
use seceda_testkit::prelude::*;

#[test]
fn attack_result_is_identical_for_every_worker_count() {
    // one solver answers every query, and lex-min DIP and key
    // canonicalization make the attack's observable result a property of
    // the formula: every run at every worker count must reproduce the
    // 1-worker baseline's key, iteration count, conflict transcript and
    // encoding size exactly
    let nl = seceda_netlist::c17();
    let locked = xor_lock(&nl, 10, 5);
    let oracle = |x: &[bool]| nl.evaluate(x);
    let baseline = par::with_workers(1, || sat_attack(&locked, oracle))
        .expect("attack runs")
        .expect("key found");
    for workers in [1usize, 2, 8] {
        for run in 0..3 {
            let r = par::with_workers(workers, || sat_attack(&locked, oracle))
                .expect("attack runs")
                .expect("key found");
            let at = format!("workers = {workers}, run = {run}");
            assert_eq!(r.key, baseline.key, "{at}");
            assert_eq!(r.iterations, baseline.iterations, "{at}");
            assert_eq!(r.conflicts, baseline.conflicts, "{at}");
            assert_eq!(r.conflict_deltas, baseline.conflict_deltas, "{at}");
            assert_eq!(r.clauses, baseline.clauses, "{at}");
            assert_eq!(r.conflict_deltas.len(), r.iterations + 2, "{at}");
            assert_eq!(r.conflicts, r.conflict_deltas.iter().sum::<u64>(), "{at}");
        }
    }
}

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn xor_lock_correct_key_restores(seed in 0u64..3000, gates in 3usize..40, bits in 1usize..12) {
        let nl = host(seed, gates);
        let locked = xor_lock(&nl, bits, seed ^ 0xAA);
        prop_assert!(locked.netlist.validate().is_ok());
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
            prop_assert_eq!(
                locked.evaluate_with_key(&inputs, &locked.correct_key),
                nl.evaluate(&inputs)
            );
        }
    }

    #[test]
    fn mux_lock_correct_key_restores_and_is_acyclic(
        seed in 0u64..3000,
        gates in 3usize..40,
        bits in 1usize..8,
    ) {
        let nl = host(seed, gates);
        let locked = mux_lock(&nl, bits, seed ^ 0xBB);
        prop_assert!(locked.netlist.validate().is_ok(), "mux locking must never build cycles");
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
            prop_assert_eq!(
                locked.evaluate_with_key(&inputs, &locked.correct_key),
                nl.evaluate(&inputs)
            );
        }
    }

    #[test]
    fn sfll_wrong_key_corrupts_exactly_two_cubes(
        seed in 0u64..2000,
        gates in 3usize..25,
        pattern_bits in 0u32..32,
        wrong_bits in 0u32..32,
    ) {
        prop_assume!(pattern_bits != wrong_bits);
        let nl = host(seed, gates);
        let pattern: Vec<bool> = (0..5).map(|b| (pattern_bits >> b) & 1 == 1).collect();
        let wrong: Vec<bool> = (0..5).map(|b| (wrong_bits >> b) & 1 == 1).collect();
        let locked = sfll_hd0(&nl, &pattern);
        let mut diffs = 0usize;
        for p in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (p >> b) & 1 == 1).collect();
            if locked.evaluate_with_key(&inputs, &wrong) != nl.evaluate(&inputs) {
                diffs += 1;
            }
        }
        prop_assert_eq!(diffs, 2, "SFLL-HD0 corrupts the protected and the key cube only");
    }
}
