//! Signal probability estimation by packed random simulation.
//!
//! Rare internal signals are where Trojan triggers hide (MERO \[40\]); the
//! probability of each net being 1 under uniform random inputs is the
//! basic statistic behind trigger analysis and test generation.

use crate::packed::PackedSim;
use seceda_netlist::{Netlist, NetlistError};
use seceda_testkit::par;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Rounds split into at most this many chunks whatever the worker count,
/// so the chunk list — and with it every `par.worker` chaos decision,
/// salted by chunk index — is the same on every host.
const MAX_CHUNKS: usize = 8;

/// Estimates, for every net, `P[net = 1]` under uniform random primary
/// inputs, using `num_rounds` packed simulations (64 patterns each).
///
/// Rounds fan out across cores: the input words are drawn serially
/// from one RNG stream (so the stimulus is identical to the historical
/// single-threaded loop), then the independent packed evaluations run
/// in parallel and their per-net one-counts are summed — exact integer
/// addition, so the result is bit-identical for any worker count.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics if `num_rounds` is zero.
pub fn signal_probabilities(
    nl: &Netlist,
    num_rounds: usize,
    seed: u64,
) -> Result<Vec<f64>, NetlistError> {
    assert!(num_rounds > 0, "need at least one round");
    let mut sp = seceda_trace::span("sim.signal_probabilities");
    sp.attr("gates", nl.num_gates());
    sp.attr("rounds", num_rounds);
    seceda_trace::counter("sim.patterns_simulated", (num_rounds * 64) as u64);
    let sim = PackedSim::new(nl)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let rounds: Vec<Vec<u64>> = (0..num_rounds)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
        .collect();
    let chunks: Vec<&[Vec<u64>]> = rounds.chunks(num_rounds.div_ceil(MAX_CHUNKS)).collect();
    seceda_trace::gauge("sim.par_workers", par::workers_for(chunks.len()) as f64);
    let partials = par::par_map(&chunks, |_, chunk| {
        let mut ones = vec![0u64; nl.num_nets()];
        for inputs in *chunk {
            let values = sim.eval(inputs);
            for (net, word) in values.iter().enumerate() {
                ones[net] += word.count_ones() as u64;
            }
        }
        ones
    });
    let mut ones = vec![0u64; nl.num_nets()];
    for partial in partials {
        for (total, p) in ones.iter_mut().zip(partial) {
            *total += p;
        }
    }
    let total = (num_rounds * 64) as f64;
    Ok(ones.into_iter().map(|c| c as f64 / total).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{CellKind, Netlist};

    #[test]
    fn and_tree_probability_drops() {
        // 4-input AND: P[out=1] = 1/16
        let mut nl = Netlist::new("and4");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let y = nl.add_gate(CellKind::And, &ins);
        nl.mark_output(y, "y");
        let probs = signal_probabilities(&nl, 256, 1).expect("probs");
        let p = probs[y.index()];
        assert!((p - 1.0 / 16.0).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn input_probability_near_half() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let y = nl.add_gate(CellKind::Buf, &[a]);
        nl.mark_output(y, "y");
        let probs = signal_probabilities(&nl, 128, 2).expect("probs");
        assert!((probs[a.index()] - 0.5).abs() < 0.03);
        assert!((probs[y.index()] - 0.5).abs() < 0.03);
    }

    #[test]
    fn probabilities_identical_for_any_worker_count() {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::Nand, &[a, b]);
        nl.mark_output(y, "y");
        let serial = par::with_workers(1, || signal_probabilities(&nl, 37, 9).expect("probs"));
        let parallel = par::with_workers(5, || signal_probabilities(&nl, 37, 9).expect("probs"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn xor_stays_balanced() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::Xor, &[a, b]);
        nl.mark_output(y, "y");
        let probs = signal_probabilities(&nl, 128, 3).expect("probs");
        assert!((probs[y.index()] - 0.5).abs() < 0.03);
    }
}
