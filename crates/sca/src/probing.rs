//! Exact first-order probing verification of masked netlists.
//!
//! Instead of simulating noisy traces, this module *enumerates* the joint
//! distribution of every wire and checks, per wire, that its distribution
//! is independent of the unmasked secrets — the first-order probing
//! security notion of private circuits \[15\]. It is exact (no statistics)
//! and therefore the right tool for verifying a gadget and for showing,
//! with certainty, which wire a security-unaware synthesis run exposed.

use crate::isw::{MaskedNetlist, NUM_SHARES};
use seceda_netlist::{NetId, Netlist};

/// Describes how the inputs of a (possibly re-synthesized) masked netlist
/// decompose into share groups and randomness.
///
/// The first `num_secrets * NUM_SHARES` inputs are share triples; the
/// remaining `num_randoms` inputs are uniform randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbingModel {
    /// Number of unmasked secret bits.
    pub num_secrets: usize,
    /// Number of uniform randomness inputs following the share inputs.
    pub num_randoms: usize,
}

impl ProbingModel {
    /// Derives the model from a [`MaskedNetlist`].
    pub fn of(masked: &MaskedNetlist) -> Self {
        ProbingModel {
            num_secrets: masked.num_original_inputs,
            num_randoms: masked.num_randoms,
        }
    }
}

/// Checks `model` against `nl` and returns the number of secret
/// assignments together with the exhaustive enumeration behind both
/// probing checks: for every secret assignment (in ascending order), all
/// valid share encodings (two free bits per secret) and all randomness
/// assignments, each as one (secret assignment, net values) pair.
/// Panics as documented on [`first_order_leaks`].
fn evaluations<'a>(
    nl: &'a Netlist,
    model: &ProbingModel,
) -> (usize, impl Iterator<Item = (usize, Vec<bool>)> + 'a) {
    let free_bits = 2 * model.num_secrets + model.num_randoms;
    assert!(
        free_bits <= 22,
        "probing enumeration too large ({free_bits} bits)"
    );
    assert_eq!(
        nl.inputs().len(),
        model.num_secrets * NUM_SHARES + model.num_randoms,
        "netlist inputs do not match the probing model"
    );
    let model = *model;
    let num_secret_patterns = 1usize << model.num_secrets;
    let enumerations = 1u64 << free_bits;
    let mut inputs = vec![false; nl.inputs().len()];
    let pairs = (0..num_secret_patterns)
        .flat_map(move |secret_pattern| (0..enumerations).map(move |e| (secret_pattern, e)))
        .map(move |(secret_pattern, enumeration)| {
            // decode free bits: per secret, two share bits; then randoms
            for s in 0..model.num_secrets {
                let secret = (secret_pattern >> s) & 1 == 1;
                let s1 = (enumeration >> (2 * s)) & 1 == 1;
                let s2 = (enumeration >> (2 * s + 1)) & 1 == 1;
                inputs[NUM_SHARES * s] = secret ^ s1 ^ s2;
                inputs[NUM_SHARES * s + 1] = s1;
                inputs[NUM_SHARES * s + 2] = s2;
            }
            for r in 0..model.num_randoms {
                inputs[NUM_SHARES * model.num_secrets + r] =
                    (enumeration >> (2 * model.num_secrets + r)) & 1 == 1;
            }
            let values = nl.eval_nets(&inputs, &[]).expect("combinational eval");
            (secret_pattern, values)
        });
    (num_secret_patterns, pairs)
}

/// Returns the nets whose value distribution depends on the secret
/// vector — first-order leaks. An ideal masked circuit returns an empty
/// list.
///
/// The check enumerates, for every secret assignment, all valid share
/// encodings (two free bits per secret) and all randomness assignments,
/// and compares the per-net `P[net = 1]` across secret assignments.
///
/// # Panics
///
/// Panics if the enumeration space is unreasonably large
/// (`2*num_secrets + num_randoms > 22` bits) or if the netlist input
/// count does not match the model.
pub fn first_order_leaks(nl: &Netlist, model: &ProbingModel) -> Vec<NetId> {
    let num_nets = nl.num_nets();
    let (num_secret_patterns, evaluations) = evaluations(nl, model);
    // ones[net] per secret assignment
    let mut ones: Vec<Vec<u64>> = vec![vec![0u64; num_nets]; num_secret_patterns];
    for (secret_pattern, values) in evaluations {
        for (count, &v) in ones[secret_pattern].iter_mut().zip(&values) {
            *count += v as u64;
        }
    }

    // a net leaks if its count differs across secret assignments
    let mut leaks = Vec::new();
    for net in 0..num_nets {
        let first = ones[0][net];
        if ones.iter().any(|o| o[net] != first) {
            leaks.push(NetId::from_index(net));
        }
    }
    leaks
}

/// Returns wire *pairs* whose joint value distribution depends on the
/// secrets — second-order leaks.
///
/// A t-private circuit resists t probes; the paper's 3-share first-order
/// gadget is expected to have second-order leaking pairs (an adversary
/// with two probes wins), which this check makes explicit. The search is
/// exact, like [`first_order_leaks`], and quadratic in the net count —
/// keep it to gadget-sized netlists.
///
/// Returns at most `max_pairs` offending pairs (search stops early).
///
/// # Panics
///
/// Panics under the same conditions as [`first_order_leaks`].
pub fn second_order_leaks(
    nl: &Netlist,
    model: &ProbingModel,
    max_pairs: usize,
) -> Vec<(NetId, NetId)> {
    let num_nets = nl.num_nets();
    let (num_secret_patterns, evaluations) = evaluations(nl, model);
    // joint counts: per secret pattern, per pair, counts of (v1, v2) in
    // {00, 01, 10, 11}; stored flat for speed
    let pair_count = num_nets * num_nets;
    let mut counts: Vec<Vec<[u32; 4]>> = vec![vec![[0u32; 4]; pair_count]; num_secret_patterns];
    for (secret_pattern, values) in evaluations {
        let table = &mut counts[secret_pattern];
        for i in 0..num_nets {
            let vi = values[i] as usize;
            let row = i * num_nets;
            for (j, &vj) in values.iter().enumerate().skip(i + 1) {
                table[row + j][(vi << 1) | vj as usize] += 1;
            }
        }
    }

    let mut leaks = Vec::new();
    'outer: for i in 0..num_nets {
        for j in (i + 1)..num_nets {
            let reference = counts[0][i * num_nets + j];
            if counts
                .iter()
                .any(|table| table[i * num_nets + j] != reference)
            {
                leaks.push((NetId::from_index(i), NetId::from_index(j)));
                if leaks.len() >= max_pairs {
                    break 'outer;
                }
            }
        }
    }
    leaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isw::mask_netlist;
    use seceda_netlist::{CellKind, Netlist};
    use seceda_synth::{reassociate, SynthesisMode};

    fn masked_and() -> (Netlist, ProbingModel) {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        let masked = mask_netlist(&nl);
        let model = ProbingModel::of(&masked);
        (masked.netlist, model)
    }

    #[test]
    fn paper_gadget_is_first_order_secure() {
        let (nl, model) = masked_and();
        let leaks = first_order_leaks(&nl, &model);
        assert!(leaks.is_empty(), "ISW AND gadget must not leak: {leaks:?}");
    }

    #[test]
    fn security_aware_synthesis_stays_secure() {
        let (nl, model) = masked_and();
        let (aware, _) = reassociate(&nl, SynthesisMode::SecurityAware);
        let leaks = first_order_leaks(&aware, &model);
        assert!(
            leaks.is_empty(),
            "barriers must preserve security: {leaks:?}"
        );
    }

    #[test]
    fn classical_synthesis_introduces_a_first_order_leak() {
        // The paper's Fig. 2: security-unaware re-association / factoring
        // on the gadget creates a wire carrying unmasked information.
        let (nl, model) = masked_and();
        let (classical, report) = reassociate(&nl, SynthesisMode::Classical);
        assert!(
            report.trees_rebuilt > 0,
            "the optimizer must fire: {report:?}"
        );
        let leaks = first_order_leaks(&classical, &model);
        assert!(
            !leaks.is_empty(),
            "classical synthesis must break the gadget (Fig. 2)"
        );
    }

    #[test]
    fn unmasked_circuit_trivially_leaks() {
        // sanity: a "masked" netlist that just XORs the shares back
        // together leaks the secret on its output wire
        let mut nl = Netlist::new("recombine");
        let s0 = nl.add_input("a_s0");
        let s1 = nl.add_input("a_s1");
        let s2 = nl.add_input("a_s2");
        let t = nl.add_gate(CellKind::Xor, &[s0, s1]);
        let y = nl.add_gate(CellKind::Xor, &[t, s2]);
        nl.mark_output(y, "y");
        let model = ProbingModel {
            num_secrets: 1,
            num_randoms: 0,
        };
        let leaks = first_order_leaks(&nl, &model);
        assert!(leaks.contains(&y));
    }

    #[test]
    fn paper_gadget_even_resists_two_probes() {
        // Measured strengthening: the ISW bound (n >= 2t+1 shares for t
        // probes) guarantees only 1-probe security for 3 shares, but the
        // exhaustive joint-distribution check shows this particular
        // gadget's internal wires resist two probes as well — the output
        // shares are never recombined inside the gadget.
        let (nl, model) = masked_and();
        assert!(first_order_leaks(&nl, &model).is_empty());
        let pairs = second_order_leaks(&nl, &model, 4);
        assert!(
            pairs.is_empty(),
            "exhaustive check found second-order pairs: {pairs:?}"
        );
    }

    #[test]
    fn broken_gadget_leaks_at_second_order_too() {
        let (nl, model) = masked_and();
        let (classical, _) = reassociate(&nl, SynthesisMode::Classical);
        let pairs = second_order_leaks(&classical, &model, 4);
        assert!(!pairs.is_empty(), "a first-order leak implies pair leaks");
    }

    #[test]
    fn second_order_check_finds_trivial_joint_leak() {
        // two wires that jointly recombine the secret: s0 and s1^s2
        let mut nl = Netlist::new("joint");
        let s0 = nl.add_input("a_s0");
        let s1 = nl.add_input("a_s1");
        let s2 = nl.add_input("a_s2");
        let partial = nl.add_gate(CellKind::Xor, &[s1, s2]);
        nl.mark_output(partial, "p");
        let model = ProbingModel {
            num_secrets: 1,
            num_randoms: 0,
        };
        assert!(
            first_order_leaks(&nl, &model).is_empty(),
            "each wire alone is fine"
        );
        let pairs = second_order_leaks(&nl, &model, 10);
        assert!(
            pairs.contains(&(s0, partial)),
            "the (s0, s1^s2) pair reveals the secret: {pairs:?}"
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_enumeration_rejected() {
        let mut nl = Netlist::new("big");
        for i in 0..36 {
            nl.add_input(format!("x{i}"));
        }
        let model = ProbingModel {
            num_secrets: 12,
            num_randoms: 0,
        };
        let _ = first_order_leaks(&nl, &model);
    }
}
