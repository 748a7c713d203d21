//! Rare-trigger Trojan insertion.

use crate::monitor::{rare_signals, RareSignal};
use seceda_netlist::{CellKind, GateTags, NetId, Netlist};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// What the Trojan does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// XOR the trigger into a victim net (data corruption).
    Corrupt,
    /// Multiplex a secret internal net onto an existing primary output
    /// (information leak).
    Leak,
    /// Force all primary outputs to zero (denial of service).
    DenialOfService,
}

/// Insertion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrojanConfig {
    /// Number of rare signals in the trigger conjunction.
    pub trigger_width: usize,
    /// A net qualifies as rare if `min(p, 1-p) <= rare_threshold`.
    pub rare_threshold: f64,
    /// The payload behaviour.
    pub payload: PayloadKind,
    /// Rounds of packed random simulation for probability estimation.
    pub prob_rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrojanConfig {
    fn default() -> Self {
        TrojanConfig {
            trigger_width: 3,
            rare_threshold: 0.2,
            payload: PayloadKind::Corrupt,
            prob_rounds: 64,
            seed: 0x0712_01A4,
        }
    }
}

/// A Trojan-infested netlist with ground truth for evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrojanedNetlist {
    /// The modified netlist (same interface as the original, except a
    /// [`PayloadKind::Leak`] payload re-drives an existing output).
    pub netlist: Netlist,
    /// The trigger conjunction: `(net, rare_value)` pairs — the trigger
    /// fires when every net holds its rare value.
    pub trigger: Vec<(NetId, bool)>,
    /// The trigger output net in the modified netlist.
    pub trigger_net: NetId,
    /// The payload used.
    pub payload: PayloadKind,
    /// One input vector known to fire the trigger (the designer's
    /// activation sequence).
    pub activation_example: Vec<bool>,
}

impl TrojanedNetlist {
    /// Checks whether `inputs` activates the trigger (by simulating the
    /// infested netlist).
    pub fn trigger_fires(&self, inputs: &[bool]) -> bool {
        let values = self
            .netlist
            .eval_nets(inputs, &[])
            .expect("combinational eval");
        values[self.trigger_net.index()]
    }
}

/// Inserts a rare-trigger Trojan into a combinational netlist.
///
/// Trigger nets are chosen among the rarest internal signals (the
/// [`rare_signals`] of `prob_rounds` rounds that toggle at all),
/// mutually distinct.
///
/// # Errors
///
/// Returns an error if the netlist is cyclic.
///
/// # Panics
///
/// Panics if fewer rare nets exist than `trigger_width`, or if the
/// design lacks the nets/outputs the payload needs.
pub fn insert_trojan(
    nl: &Netlist,
    config: &TrojanConfig,
) -> Result<TrojanedNetlist, seceda_netlist::NetlistError> {
    // rank the rare nets that toggle at all, rarest first
    let mut rare = rare_signals(nl, config.prob_rounds, config.rare_threshold, config.seed)?;
    rare.retain(|s| s.rarity > 0.0);
    rare.sort_by(|a, b| a.rarity.total_cmp(&b.rarity));
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xDEAD);
    assert!(
        rare.len() >= config.trigger_width,
        "only {} rare nets below threshold {}, need {}",
        rare.len(),
        config.rare_threshold,
        config.trigger_width
    );

    // A competent Trojan designer picks a trigger that CAN fire: greedily
    // add rare nets whose rare polarities are jointly observed on at
    // least one sampled input pattern.
    use seceda_sim::{pack_patterns, PackedSim};
    let sim = PackedSim::new(nl)?;
    let num_inputs = nl.inputs().len();
    let rounds = config.prob_rounds.max(8);
    let mut batches: Vec<Vec<Vec<bool>>> = Vec::with_capacity(rounds);
    let mut value_rows: Vec<Vec<u64>> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let batch: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..num_inputs).map(|_| rng.gen()).collect())
            .collect();
        let words = pack_patterns(&batch, num_inputs);
        value_rows.push(sim.eval(&words));
        batches.push(batch);
    }
    // per-candidate rare-activity masks (one u64 per batch)
    let activity = |n: NetId, v: bool| -> Vec<u64> {
        value_rows
            .iter()
            .map(|row| {
                let w = row[n.index()];
                if v {
                    w
                } else {
                    !w
                }
            })
            .collect()
    };
    let mut trigger: Vec<(NetId, bool)> = Vec::new();
    let mut joint: Vec<u64> = vec![u64::MAX; rounds];
    for &RareSignal {
        net: n,
        rare_value: v,
        ..
    } in &rare
    {
        if trigger.len() == config.trigger_width {
            break;
        }
        let mask = activity(n, v);
        let intersect: Vec<u64> = joint.iter().zip(&mask).map(|(a, b)| a & b).collect();
        if intersect.iter().any(|&w| w != 0) {
            joint = intersect;
            trigger.push((n, v));
        }
    }
    assert!(
        trigger.len() == config.trigger_width,
        "could not assemble a satisfiable {}-wide trigger",
        config.trigger_width
    );
    // remember one witness input that fires the trigger
    let (batch_idx, bit) = joint
        .iter()
        .enumerate()
        .find_map(|(b, &w)| (w != 0).then(|| (b, w.trailing_zeros() as usize)))
        .expect("joint mask non-empty");
    let activation_example = batches[batch_idx][bit].clone();

    let mut infested = nl.clone();
    let tags = GateTags::default(); // Trojans are, of course, untagged
                                    // trigger conjunction: AND of (net XNOR rare_value)
    let lits: Vec<NetId> = trigger
        .iter()
        .map(|&(n, v)| {
            if v {
                n
            } else {
                infested.add_gate_tagged(CellKind::Not, &[n], tags)
            }
        })
        .collect();
    let trigger_net = if lits.len() == 1 {
        lits[0]
    } else {
        infested.add_gate_tagged(CellKind::And, &lits, tags)
    };

    // Payloads splice between the driving logic and the output *pad*
    // only (re-marking the primary output), never rewiring internal
    // loads — rewiring a load that feeds back into the trigger cone
    // would create a combinational cycle.
    let originals: Vec<(NetId, String)> = infested.outputs().to_vec();
    match config.payload {
        PayloadKind::Corrupt => {
            let victim_idx = rng.gen_range(0..originals.len());
            infested.clear_outputs();
            for (k, (net, name)) in originals.into_iter().enumerate() {
                if k == victim_idx {
                    let corrupted =
                        infested.add_gate_tagged(CellKind::Xor, &[net, trigger_net], tags);
                    infested.mark_output(corrupted, name);
                } else {
                    infested.mark_output(net, name);
                }
            }
        }
        PayloadKind::Leak => {
            // leak a random internal (non-trigger) net onto output 0
            let candidates: Vec<NetId> = nl
                .gates()
                .iter()
                .map(|g| g.output)
                .filter(|n| !trigger.iter().any(|&(t, _)| t == *n))
                .collect();
            assert!(!candidates.is_empty(), "no secret net to leak");
            let secret = candidates[rng.gen_range(0..candidates.len())];
            infested.clear_outputs();
            for (k, (net, name)) in originals.into_iter().enumerate() {
                if k == 0 {
                    let leaky =
                        infested.add_gate_tagged(CellKind::Mux, &[trigger_net, net, secret], tags);
                    infested.mark_output(leaky, name);
                } else {
                    infested.mark_output(net, name);
                }
            }
        }
        PayloadKind::DenialOfService => {
            let not_trigger = infested.add_gate_tagged(CellKind::Not, &[trigger_net], tags);
            infested.clear_outputs();
            for (net, name) in originals {
                let gated = infested.add_gate_tagged(CellKind::And, &[net, not_trigger], tags);
                infested.mark_output(gated, name);
            }
        }
    }

    Ok(TrojanedNetlist {
        netlist: infested,
        trigger,
        trigger_net,
        payload: config.payload,
        activation_example,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{random_circuit, RandomCircuitConfig};

    fn host() -> Netlist {
        random_circuit(&RandomCircuitConfig {
            num_gates: 150,
            num_inputs: 12,
            num_outputs: 6,
            with_xor: false, // AND/OR mixes produce rare nodes
            ..RandomCircuitConfig::default()
        })
    }

    #[test]
    fn trojan_is_stealthy_on_random_patterns() {
        let nl = host();
        let trojan = insert_trojan(&nl, &TrojanConfig::default()).expect("insert");
        // function preserved while dormant; trigger rarely fires
        use seceda_testkit::rng::{SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(404);
        let mut fired = 0usize;
        let trials = 400;
        for _ in 0..trials {
            let inputs: Vec<bool> = (0..12).map(|_| rng.gen()).collect();
            let clean = nl.evaluate(&inputs);
            if trojan.trigger_fires(&inputs) {
                fired += 1;
            } else {
                assert_eq!(
                    trojan.netlist.evaluate(&inputs),
                    clean,
                    "dormant Trojan must not disturb the function"
                );
            }
        }
        assert!(
            (fired as f64) < 0.05 * trials as f64,
            "trigger must be rare: fired {fired}/{trials}"
        );
    }

    #[test]
    fn corrupt_payload_flips_an_output_when_fired() {
        let nl = host();
        let trojan = insert_trojan(&nl, &TrojanConfig::default()).expect("insert");
        let inputs = trojan.activation_example.clone();
        assert!(trojan.trigger_fires(&inputs), "witness must fire");
        assert_ne!(
            trojan.netlist.evaluate(&inputs),
            nl.evaluate(&inputs),
            "fired Trojan must corrupt"
        );
    }

    #[test]
    fn dos_payload_zeroes_outputs() {
        let nl = host();
        let trojan = insert_trojan(
            &nl,
            &TrojanConfig {
                payload: PayloadKind::DenialOfService,
                ..TrojanConfig::default()
            },
        )
        .expect("insert");
        let inputs = trojan.activation_example.clone();
        assert!(trojan.trigger_fires(&inputs));
        assert!(trojan.netlist.evaluate(&inputs).iter().all(|&b| !b));
    }

    #[test]
    fn leak_payload_reveals_internal_state() {
        let nl = host();
        let trojan = insert_trojan(
            &nl,
            &TrojanConfig {
                payload: PayloadKind::Leak,
                seed: 99,
                ..TrojanConfig::default()
            },
        )
        .expect("insert");
        // dormant: function intact
        let inputs = vec![false; 12];
        if !trojan.trigger_fires(&inputs) {
            assert_eq!(trojan.netlist.evaluate(&inputs), nl.evaluate(&inputs));
        }
        assert_eq!(trojan.netlist.validate(), Ok(()));
    }
}
