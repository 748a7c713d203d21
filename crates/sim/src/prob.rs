//! Signal probability estimation by packed random simulation.
//!
//! Rare internal signals are where Trojan triggers hide (MERO \[40\]); the
//! probability of each net being 1 under uniform random inputs is the
//! basic statistic behind trigger analysis and test generation.

use crate::simword::{Lane256, SimWord};
use crate::tape::Tape;
use seceda_netlist::{Netlist, NetlistError};
use seceda_testkit::par;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Rounds split into at most this many chunks whatever the worker count,
/// so the chunk list — and with it every `par.worker` chaos decision,
/// salted by chunk index — is the same on every host.
const MAX_CHUNKS: usize = 8;

/// Estimates, for every net, `P[net = 1]` under uniform random primary
/// inputs, using `num_rounds` rounds of 64 random patterns each.
///
/// Every round's input words are drawn serially from one RNG stream, a
/// `u64` per primary input, so the stimulus is identical to the
/// historical one-round-per-pass loop. The rounds split into at most
/// `MAX_CHUNKS` chunks that run in parallel; inside a chunk, four
/// rounds share one [`Lane256`] pass, one round per 64-bit sub-lane,
/// and only the sub-lanes that carry a round are counted. The per-net
/// one-counts are summed — exact integer addition, so the result is
/// bit-identical for any worker count.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics if `num_rounds` is zero, or so large (over 2^29 − 8) that a
/// chunk's per-net one-count could overflow its `u32`.
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
    let tape = Tape::new(nl)?;
    let num_inputs = nl.inputs().len();
    let mut rng = StdRng::seed_from_u64(seed);
    // per chunk, its rounds four to a word: (input words, rounds held)
    let per_chunk = num_rounds.div_ceil(MAX_CHUNKS);
    // a chunk counts at most 64 ones per net and round into a `u32`
    assert!(per_chunk < 1 << 26, "too many rounds for u32 chunk counts");
    let chunks: Vec<Vec<(Vec<Lane256>, usize)>> = (0..num_rounds)
        .step_by(per_chunk)
        .map(|start| {
            let rounds = per_chunk.min(num_rounds - start);
            (0..rounds)
                .step_by(Lane256::LANES)
                .map(|r| {
                    let lanes = Lane256::LANES.min(rounds - r);
                    let mut words = vec![Lane256::ZERO; num_inputs];
                    for lane in 0..lanes {
                        for w in &mut words {
                            *w = w.with_lane(lane, rng.gen());
                        }
                    }
                    (words, lanes)
                })
                .collect()
        })
        .collect();
    seceda_trace::gauge("sim.par_workers", par::workers_for(chunks.len()) as f64);
    // every chunk's partial is alive at once, so they count in `u32`
    // (see the assertion above); each worker reuses one value buffer
    let partials = par::par_map_init(&chunks, Vec::new, |vals, _, chunk| {
        let mut ones = vec![0u32; nl.num_nets()];
        for (inputs, lanes) in chunk {
            let real = Lane256::low_mask(64 * lanes);
            tape.eval_into(vals, inputs, None, &[]);
            for (count, &word) in ones.iter_mut().zip(vals.iter()) {
                *count += (word & real).count_ones();
            }
        }
        ones
    });
    let mut ones = vec![0u64; nl.num_nets()];
    for partial in partials {
        for (total, p) in ones.iter_mut().zip(partial) {
            *total += u64::from(p);
        }
    }
    let total = (num_rounds * 64) as f64;
    Ok(ones.into_iter().map(|c| c as f64 / total).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedSim;
    use seceda_netlist::{random_circuit, CellKind, Netlist, RandomCircuitConfig};

    /// The one-round-per-`u64`-pass loop the `Lane256` packing replaced,
    /// drawing the same stimulus from the same RNG stream.
    fn u64_reference(nl: &Netlist, num_rounds: usize, seed: u64) -> Vec<f64> {
        let sim = PackedSim::new(nl).expect("sim");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ones = vec![0u64; nl.num_nets()];
        for _ in 0..num_rounds {
            let inputs: Vec<u64> = (0..nl.inputs().len()).map(|_| rng.gen()).collect();
            for (net, word) in sim.eval(&inputs).iter().enumerate() {
                ones[net] += word.count_ones() as u64;
            }
        }
        let total = (num_rounds * 64) as f64;
        ones.into_iter().map(|c| c as f64 / total).collect()
    }

    #[test]
    fn lane256_rounds_equal_the_u64_loop() {
        // round counts below, at and across the four-round word and the
        // eight-chunk split, so partial words and partial chunks occur
        let round_counts = [1usize, 2, 3, 4, 5, 7, 31, 32, 33, 37, 64, 100];
        for seed in 0..30u64 {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 3 + seed as usize % 6,
                num_gates: 5 + 7 * seed as usize,
                num_outputs: 3,
                with_xor: seed % 2 == 0,
                seed: 0x9B0 + seed,
            });
            for rounds in round_counts {
                let want = u64_reference(&nl, rounds, seed);
                for workers in [1, 3] {
                    let got = par::with_workers(workers, || {
                        signal_probabilities(&nl, rounds, seed).expect("probs")
                    });
                    assert_eq!(got, want, "seed {seed}, {rounds} rounds, {workers} workers");
                }
            }
        }
    }

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
