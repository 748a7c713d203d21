//! Differential test at scale: a generated 100k-gate design exported
//! to `.bench` and parsed back must behave *bit-identically* to the
//! in-process circuit under the packed fault simulator and the signal
//! probability engine.
//!
//! A 10^6-gate parse/analyze smoke test is `#[ignore]`d by default;
//! `scripts/verify.sh` runs it when `SECEDA_VERIFY_SCALE=1`.

use seceda_netlist::{parse_bench, random_circuit, write_bench, RandomCircuitConfig};
use seceda_sim::fault::stuck_at_universe;
use seceda_sim::{signal_probabilities, FaultSim};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

fn patterns(num: usize, width: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num)
        .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

#[test]
fn parsed_100k_design_is_bit_identical() {
    let config = RandomCircuitConfig {
        num_inputs: 64,
        num_gates: 100_000,
        num_outputs: 32,
        with_xor: true,
        seed: 0xD1FF,
    };
    let original = random_circuit(&config);
    let text = write_bench(&original);
    let parsed = parse_bench(&text).expect("reparse 100k design");
    // the writer's canonical line order makes the reparse id-identical
    assert_eq!(parsed, original);
    let order = parsed.topo_order().expect("acyclic");
    assert_eq!(order.len(), config.num_gates, "topo covers all gates");

    // packed fault simulation: sampled fault universe, identical
    // detection vectors and coverage
    let universe = stuck_at_universe(&original);
    let faults: Vec<_> = universe
        .iter()
        .step_by((universe.len() / 200).max(1))
        .copied()
        .collect();
    let pats = patterns(64, config.num_inputs, 99);
    let sim_a = FaultSim::new(&original).expect("sim original");
    let sim_b = FaultSim::new(&parsed).expect("sim parsed");
    let (det_a, cov_a) = sim_a.coverage(&pats, &faults);
    let (det_b, cov_b) = sim_b.coverage(&pats, &faults);
    assert_eq!(det_a, det_b);
    assert!((cov_a - cov_b).abs() < 1e-12);

    // signal probabilities: bit-identical RNG streams, bit-identical
    // estimates per net
    let p_a = signal_probabilities(&original, 2, 5).expect("probs original");
    let p_b = signal_probabilities(&parsed, 2, 5).expect("probs parsed");
    assert_eq!(p_a, p_b);
}

/// 10^6-gate smoke: parse + topo sort + stats complete without stack
/// overflow. Ignored by default (multi-second); run via
/// `SECEDA_VERIFY_SCALE=1 scripts/verify.sh` or
/// `cargo test -p seceda-sim --test parse_differential -- --ignored`.
#[test]
#[ignore = "10^6-gate scale smoke; run with --ignored"]
fn million_gate_parse_and_topo_smoke() {
    let config = RandomCircuitConfig {
        num_inputs: 128,
        num_gates: 1_000_000,
        num_outputs: 64,
        with_xor: true,
        seed: 0x1_000_000,
    };
    let original = random_circuit(&config);
    let text = write_bench(&original);
    let parsed = parse_bench(&text).expect("reparse 1M design");
    assert_eq!(parsed.num_gates(), 1_000_000);
    let order = parsed.topo_order().expect("topo");
    assert_eq!(order.len(), 1_000_000);
    let stats = seceda_netlist::NetlistStats::of(&parsed);
    assert_eq!(stats.num_gates, 1_000_000);
    assert_eq!(parsed, original);
}
