//! Differential tests for packed fault grading.
//!
//! [`FaultSim::coverage`] is bit-parallel, fault-dropping and
//! cone-restricted; these tests pin it to the scalar oracle of
//! `tests/oracle/` (a walk of the netlist arena, one pattern and one
//! fault at a time) with *exact* equality — same detected vector, same
//! coverage fraction — on random netlists, on every built-in bench
//! circuit, and across worker counts.

mod oracle;

use oracle::reference_coverage;
use seceda_netlist::{
    alu_slice, c17, comparator, majority, parity_tree, random_circuit, ripple_adder, Netlist,
    RandomCircuitConfig,
};
use seceda_sim::{fault::stuck_at_universe, Fault, FaultKind, FaultSim};
use seceda_testkit::par;
use seceda_testkit::prelude::*;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

fn circuit(seed: u64, gates: usize) -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 5,
        num_gates: gates,
        num_outputs: 3,
        with_xor: true,
        seed,
    })
}

fn random_patterns(nl: &Netlist, n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn packed_coverage_matches_scalar_exactly(seed in 0u64..5000, gates in 2usize..50) {
        let nl = circuit(seed, gates);
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        // 24 patterns run in fault-group mode, 70 in a partial wide word
        for n in [24usize, 70] {
            let patterns = random_patterns(&nl, n, seed ^ 0xABCD ^ (n as u64) << 16);
            prop_assert_eq!(
                sim.coverage(&patterns, &faults),
                reference_coverage(&nl, &patterns, &faults),
                "{} patterns", n
            );
        }
    }

    #[test]
    fn packed_detects_matches_scalar_incl_bitflips(seed in 0u64..5000, gates in 2usize..40) {
        let nl = circuit(seed, gates);
        let sim = FaultSim::new(&nl).expect("sim");
        let pattern = random_patterns(&nl, 1, seed.wrapping_mul(31));
        let mut faults = stuck_at_universe(&nl);
        faults.extend(nl.gates().iter().map(|g| Fault::flip(g.output)));
        prop_assert_eq!(
            sim.coverage(&pattern, &faults),
            reference_coverage(&nl, &pattern, &faults)
        );
    }

    #[test]
    fn worker_count_does_not_change_results(seed in 0u64..2000, gates in 2usize..40) {
        let nl = circuit(seed, gates);
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns = random_patterns(&nl, 24, seed);
        let serial = par::with_workers(1, || sim.coverage(&patterns, &faults));
        let parallel = par::with_workers(4, || sim.coverage(&patterns, &faults));
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial, reference_coverage(&nl, &patterns, &faults));
    }
}

#[test]
fn packed_matches_scalar_on_every_bench_circuit() {
    let circuits: Vec<(&str, Netlist)> = vec![
        ("c17", c17()),
        ("ripple_adder", ripple_adder(8)),
        ("ripple_adder_32", ripple_adder(32)),
        ("comparator", comparator(6)),
        ("parity_tree", parity_tree(8)),
        ("majority", majority()),
        ("alu_slice", alu_slice(4)),
        ("alu_slice_16", alu_slice(16)),
    ];
    for (name, nl) in circuits {
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns = random_patterns(&nl, 80, 7);
        assert_eq!(
            sim.coverage(&patterns, &faults),
            reference_coverage(&nl, &patterns, &faults),
            "packed != scalar oracle on {name}"
        );
    }
}
