//! Runtime security monitors \[25\], inserted at logic-synthesis time.
//!
//! The monitor watches the same rare-signal population a Trojan designer
//! would exploit: it raises a `trojan_alarm` output whenever any watched
//! rare conjunction becomes active in the field. Monitor gates carry the
//! `monitor` tag so security-aware synthesis will not sweep them (they
//! drive no functional output).

use seceda_netlist::{CellKind, GateTags, NetId, Netlist, NetlistError};
use seceda_sim::signal_probabilities;

/// A netlist instrumented with a rare-event monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoredNetlist {
    /// The instrumented netlist; the last output is `trojan_alarm`.
    pub netlist: Netlist,
    /// The rare conditions being watched, as `(net, rare_value)` pairs
    /// grouped per watched conjunction.
    pub watched: Vec<Vec<(NetId, bool)>>,
}

/// A rare net: the polarity it rarely takes, and how rarely
/// (`min(p, 1 - p)` of its estimated signal probability `p`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareSignal {
    /// The gate output net.
    pub net: NetId,
    /// The polarity the net rarely takes.
    pub rare_value: bool,
    /// How rarely it takes it, in `[0, 0.5]`.
    pub rarity: f64,
}

/// Inserts a monitor that watches conjunctions of `width` rare signals.
/// Up to `max_groups` disjoint groups of the rarest signals are formed;
/// the alarm fires when any whole group is at its rare polarity.
///
/// If no signal is rarer than the threshold there is nothing for a
/// rare-trigger Trojan to hide behind; the monitor degenerates to a
/// constant-low alarm.
///
/// This is [`rare_signals`] over 64 rounds followed by [`instrument`].
///
/// # Errors
///
/// Returns an error if the netlist is cyclic.
pub fn insert_rare_event_monitor(
    nl: &Netlist,
    width: usize,
    max_groups: usize,
    rare_threshold: f64,
    seed: u64,
) -> Result<MonitoredNetlist, NetlistError> {
    let rare = rare_signals(nl, 64, rare_threshold, seed)?;
    Ok(instrument(nl, &rare, width, max_groups))
}

/// The one rare-net rule: every gate output whose signal probability
/// `p`, estimated over `rounds` rounds of 64 random stimuli from
/// `seed`, has `min(p, 1 - p) <= rare_threshold`, in gate order.
///
/// The selection reads only the gate layout and input count, and names
/// nets by index, so it is a pure function of
/// `seceda_netlist::DesignDigest`, `rounds`, `rare_threshold` and
/// `seed`.
///
/// # Errors
///
/// Returns an error if the netlist is cyclic.
pub fn rare_signals(
    nl: &Netlist,
    rounds: usize,
    rare_threshold: f64,
    seed: u64,
) -> Result<Vec<RareSignal>, NetlistError> {
    let probs = signal_probabilities(nl, rounds, seed)?;
    Ok(nl
        .gates()
        .iter()
        .map(|g| {
            let p = probs[g.output.index()];
            RareSignal {
                net: g.output,
                rare_value: p < 0.5,
                rarity: p.min(1.0 - p),
            }
        })
        .filter(|s| s.rarity <= rare_threshold)
        .collect())
}

/// Instruments a copy of `nl` with a `trojan_alarm` output that fires
/// when any of up to `max_groups` consecutive `width`-groups of `rare`,
/// ranked rarest first (ties keep their order), is wholly at its rare
/// polarity; with no rare signal the alarm is constant low.
pub fn instrument(
    nl: &Netlist,
    rare: &[RareSignal],
    width: usize,
    max_groups: usize,
) -> MonitoredNetlist {
    let mut ranked = rare.to_vec();
    ranked.sort_by(|a, b| a.rarity.total_cmp(&b.rarity));
    let mut instrumented = nl.clone();
    let tags = GateTags {
        monitor: true,
        ..GateTags::default()
    };
    if ranked.is_empty() {
        let quiet = instrumented.add_gate_tagged(CellKind::Const0, &[], tags);
        instrumented.mark_output(quiet, "trojan_alarm");
        return MonitoredNetlist {
            netlist: instrumented,
            watched: Vec::new(),
        };
    }
    let mut watched = Vec::new();
    let mut group_alarms: Vec<NetId> = Vec::new();
    for group in ranked.chunks(width).take(max_groups) {
        let members: Vec<(NetId, bool)> = group.iter().map(|s| (s.net, s.rare_value)).collect();
        let lits: Vec<NetId> = members
            .iter()
            .map(|&(n, v)| {
                if v {
                    n
                } else {
                    instrumented.add_gate_tagged(CellKind::Not, &[n], tags)
                }
            })
            .collect();
        let fire = if lits.len() == 1 {
            lits[0]
        } else {
            instrumented.add_gate_tagged(CellKind::And, &lits, tags)
        };
        group_alarms.push(fire);
        watched.push(members);
    }
    let alarm = if group_alarms.len() == 1 {
        group_alarms[0]
    } else {
        instrumented.add_gate_tagged(CellKind::Or, &group_alarms, tags)
    };
    instrumented.mark_output(alarm, "trojan_alarm");
    MonitoredNetlist {
        netlist: instrumented,
        watched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert::{insert_trojan, TrojanConfig};
    use seceda_netlist::{random_circuit, RandomCircuitConfig};
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

    fn host() -> Netlist {
        random_circuit(&RandomCircuitConfig {
            num_gates: 150,
            num_inputs: 12,
            num_outputs: 6,
            with_xor: false,
            ..RandomCircuitConfig::default()
        })
    }

    #[test]
    fn monitor_preserves_function_and_rarely_fires() {
        let nl = host();
        let monitored = insert_rare_event_monitor(&nl, 3, 4, 0.2, 1).expect("instrument");
        let mut rng = StdRng::seed_from_u64(55);
        let mut alarms = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let inputs: Vec<bool> = (0..12).map(|_| rng.gen()).collect();
            let original = nl.evaluate(&inputs);
            let with_alarm = monitored.netlist.evaluate(&inputs);
            assert_eq!(&with_alarm[..original.len()], &original[..]);
            if with_alarm[original.len()] {
                alarms += 1;
            }
        }
        assert!(
            (alarms as f64) < 0.1 * trials as f64,
            "benign operation must rarely alarm: {alarms}/{trials}"
        );
    }

    #[test]
    fn monitor_catches_trojan_activation() {
        // The Trojan designer and the monitor designer both target the
        // rarest signals, so a firing trigger intersects a watched group
        // with good probability. Use the same analysis parameters so the
        // watched set covers the Trojan's chosen nets.
        let nl = host();
        let tconfig = TrojanConfig::default();
        let trojan = insert_trojan(&nl, &tconfig).expect("insert");
        // instrument the *trojaned* netlist (monitor inserted later in
        // the flow, e.g. by the SoC integrator)
        // width-1 monitors on the rarest signals: the trigger output of
        // an inserted Trojan is itself an extremely rare signal and gets
        // watched directly
        let monitored = insert_rare_event_monitor(
            &trojan.netlist,
            1,
            usize::MAX,
            tconfig.rare_threshold,
            tconfig.seed,
        )
        .expect("instrument");
        // the designer's witness input fires the trigger; the monitor
        // must raise the alarm on it
        let inputs = trojan.activation_example.clone();
        assert!(trojan.trigger_fires(&inputs));
        let outs = monitored.netlist.evaluate(&inputs);
        let alarm = outs[outs.len() - 1];
        assert!(alarm, "monitor must notice the rare event firing");
    }
}
