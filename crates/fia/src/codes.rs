//! Fault-detection and fault-tolerance transforms.
//!
//! All transforms tag the inserted logic with the `redundancy` marker so
//! security-aware synthesis keeps it; classical CSE would merge the
//! copies and silently void the protection (Sec. IV's composition
//! cross-effect). Every copy of a gate also keeps that gate's own tags
//! (key gates, monitors, masking barriers), so the countermeasures
//! applied before a transform stay visible to the passes after it.

use seceda_netlist::{CellKind, GateId, GateTags, NetId, Netlist};

/// A netlist protected by a detection/correction transform.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedNetlist {
    /// The protected netlist. Functional outputs keep their original
    /// names/order; detection schemes append an `alarm` output (the last
    /// output).
    pub netlist: Netlist,
    /// Index of the alarm output within [`Netlist::outputs`], if the
    /// scheme detects (rather than corrects) faults.
    pub alarm_index: Option<usize>,
}

fn redundancy_tags() -> GateTags {
    GateTags {
        redundancy: true,
        ..GateTags::default()
    }
}

/// Copies the combinational cone of `nl` into `dst` in topological
/// `order` (one [`Netlist::topo_order`] serves every copy), reading the
/// (already copied) primary inputs. Each copy keeps its source gate's
/// tags, plus the `redundancy` marker when `redundant`. Returns the new
/// nets of the original outputs.
fn clone_cone(
    nl: &Netlist,
    order: &[GateId],
    dst: &mut Netlist,
    input_map: &[NetId],
    redundant: bool,
) -> Vec<NetId> {
    let mut map: Vec<Option<NetId>> = vec![None; nl.num_nets()];
    for (k, &pi) in nl.inputs().iter().enumerate() {
        map[pi.index()] = Some(input_map[k]);
    }
    let mut ins = Vec::new();
    for &gid in order {
        let g = nl.gate(gid);
        ins.clear();
        ins.extend(
            g.inputs
                .iter()
                .map(|&i| map[i.index()].expect("topological")),
        );
        let tags = GateTags {
            redundancy: g.tags.redundancy || redundant,
            ..g.tags
        };
        let out = dst.add_gate_tagged(g.kind, &ins, tags);
        map[g.output.index()] = Some(out);
    }
    nl.outputs()
        .iter()
        .map(|&(n, _)| map[n.index()].expect("output mapped"))
        .collect()
}

fn assert_combinational(nl: &Netlist, what: &str) {
    assert!(
        nl.is_combinational(),
        "{what} supports combinational netlists only"
    );
}

/// The start of every transform, after checking that `nl` is
/// combinational (`what` names the transform in the panic): an empty
/// netlist `<name>_<suffix>` with `nl`'s primary inputs, its gate and
/// net arrays pre-sized for `copies` copies of the logic plus
/// `extra_gates` gates, and `nl`'s topological order for
/// [`clone_cone`].
fn protected_shell(
    nl: &Netlist,
    what: &str,
    suffix: &str,
    copies: usize,
    extra_gates: usize,
) -> (Netlist, Vec<NetId>, Vec<GateId>) {
    assert_combinational(nl, what);
    let order = nl.topo_order().expect("cyclic netlist");
    let gates = copies * nl.num_gates() + extra_gates;
    let name = format!("{}_{suffix}", nl.name());
    let mut out = Netlist::with_capacity(name, nl.inputs().len() + gates, gates);
    let inputs = nl
        .inputs()
        .iter()
        .map(|&pi| out.add_input(nl.net_label(pi)))
        .collect();
    (out, inputs, order)
}

/// Duplication with comparison: the logic is instantiated twice; outputs
/// come from the first copy; an `alarm` output raises when any output
/// pair disagrees. Detects any single fault that corrupts an output.
///
/// # Panics
///
/// Panics if `nl` is sequential or cyclic.
pub fn duplicate_with_compare(nl: &Netlist) -> ProtectedNetlist {
    let extra = nl.outputs().len() + 1;
    let (mut out, inputs, order) = protected_shell(nl, "duplicate_with_compare", "dwc", 2, extra);
    let tags = redundancy_tags();
    let copy_a = clone_cone(nl, &order, &mut out, &inputs, true);
    let copy_b = clone_cone(nl, &order, &mut out, &inputs, true);
    for (k, (_, name)) in nl.outputs().iter().enumerate() {
        out.mark_output(copy_a[k], name.clone());
    }
    let diffs: Vec<NetId> = copy_a
        .iter()
        .zip(&copy_b)
        .map(|(&a, &b)| out.add_gate_tagged(CellKind::Xor, &[a, b], tags))
        .collect();
    let alarm = if diffs.len() == 1 {
        diffs[0]
    } else {
        out.add_gate_tagged(CellKind::Or, &diffs, tags)
    };
    out.mark_output(alarm, "alarm");
    ProtectedNetlist {
        netlist: out,
        alarm_index: Some(nl.outputs().len()),
    }
}

/// Triple modular redundancy: three copies and a per-output majority
/// voter. Corrects any fault confined to one copy; no alarm output.
///
/// # Panics
///
/// Panics if `nl` is sequential or cyclic.
pub fn triplicate_with_vote(nl: &Netlist) -> ProtectedNetlist {
    let extra = 4 * nl.outputs().len();
    let (mut out, inputs, order) = protected_shell(nl, "triplicate_with_vote", "tmr", 3, extra);
    let tags = redundancy_tags();
    let copies: Vec<Vec<NetId>> = (0..3)
        .map(|_| clone_cone(nl, &order, &mut out, &inputs, true))
        .collect();
    for (k, (_, name)) in nl.outputs().iter().enumerate() {
        let (a, b, c) = (copies[0][k], copies[1][k], copies[2][k]);
        let ab = out.add_gate_tagged(CellKind::And, &[a, b], tags);
        let ac = out.add_gate_tagged(CellKind::And, &[a, c], tags);
        let bc = out.add_gate_tagged(CellKind::And, &[b, c], tags);
        let vote = out.add_gate_tagged(CellKind::Or, &[ab, ac, bc], tags);
        out.mark_output(vote, name.clone());
    }
    ProtectedNetlist {
        netlist: out,
        alarm_index: None,
    }
}

/// The infective countermeasure \[18\]: like duplication-with-compare, but
/// instead of (only) raising an alarm the outputs are *scrambled* with
/// fresh randomness whenever the copies disagree, so a DFA adversary
/// learns nothing from the faulty ciphertext. Appends one random input
/// `inf_rnd{i}` per functional output, then the alarm output.
///
/// # Panics
///
/// Panics if `nl` is sequential or cyclic.
pub fn infective_transform(nl: &Netlist) -> ProtectedNetlist {
    assert_combinational(nl, "infective_transform");
    let dwc = duplicate_with_compare(nl);
    let mut out = dwc.netlist;
    let tags = redundancy_tags();
    let num_functional = nl.outputs().len();
    let alarm_net = out.outputs()[num_functional].0;
    // fresh randomness inputs
    let rnds: Vec<NetId> = (0..num_functional)
        .map(|i| out.add_input(format!("inf_rnd{i}")))
        .collect();
    let functional: Vec<(NetId, String)> = out.outputs()[..num_functional].to_vec();
    out.clear_outputs();
    for (k, (net, name)) in functional.into_iter().enumerate() {
        let poison = out.add_gate_tagged(CellKind::And, &[alarm_net, rnds[k]], tags);
        let scrambled = out.add_gate_tagged(CellKind::Xor, &[net, poison], tags);
        out.mark_output(scrambled, name);
    }
    out.mark_output(alarm_net, "alarm");
    ProtectedNetlist {
        netlist: out,
        alarm_index: Some(num_functional),
    }
}

/// Parity-code protection: a *predictor* cone (re-computation of the
/// logic) feeds a parity tree; the alarm compares predicted and actual
/// output parity. Detects any fault corrupting an odd number of output
/// bits at roughly half the cost of full duplication.
///
/// **Composition hazard (paper Sec. IV, \[61\]):** on a *masked* circuit
/// whose outputs are shares, the parity of the output shares *is* the
/// unmasked secret — both parity wires carry it. Parity protection and
/// Boolean masking do not compose; the `seceda-core` composition engine
/// exists to catch exactly this.
///
/// # Panics
///
/// Panics if `nl` is sequential or cyclic.
pub fn parity_protect(nl: &Netlist) -> ProtectedNetlist {
    let (mut out, inputs, order) = protected_shell(nl, "parity_protect", "parity", 2, 3);
    let tags = redundancy_tags();
    let functional = clone_cone(nl, &order, &mut out, &inputs, false);
    let predictor = clone_cone(nl, &order, &mut out, &inputs, true);
    for (k, (_, name)) in nl.outputs().iter().enumerate() {
        out.mark_output(functional[k], name.clone());
    }
    let parity = |out: &mut Netlist, nets: &[NetId]| -> NetId {
        if nets.len() == 1 {
            nets[0]
        } else {
            out.add_gate_tagged(CellKind::Xor, nets, tags)
        }
    };
    let actual = parity(&mut out, &functional);
    let predicted = parity(&mut out, &predictor);
    let alarm = out.add_gate_tagged(CellKind::Xor, &[actual, predicted], tags);
    out.mark_output(alarm, "alarm");
    ProtectedNetlist {
        netlist: out,
        alarm_index: Some(nl.outputs().len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, majority};
    use seceda_sim::{Fault, FaultSim};

    /// The outputs under one stimulus with `faults` active: one packed
    /// pass with the stimulus in bit 0.
    fn faulty_outputs(sim: &FaultSim, inputs: &[bool], faults: &[Fault]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        let sites: Vec<(Fault, u64)> = faults.iter().map(|&f| (f, u64::MAX)).collect();
        let outs = sim.eval_outputs_with_faults(&words, &sites);
        outs.iter().map(|w| w & 1 == 1).collect()
    }

    #[test]
    fn dwc_preserves_function_and_stays_quiet() {
        let nl = c17();
        let p = duplicate_with_compare(&nl);
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
            let mut outs = p.netlist.evaluate(&inputs);
            assert_eq!(
                p.alarm_index,
                Some(outs.len() - 1),
                "alarm is the last output"
            );
            let alarm = outs.pop();
            assert_eq!(outs, nl.evaluate(&inputs));
            assert_eq!(alarm, Some(false), "no fault, no alarm");
        }
    }

    #[test]
    fn dwc_detects_single_gate_faults() {
        let nl = majority();
        let p = duplicate_with_compare(&nl);
        let sim = FaultSim::new(&p.netlist).expect("sim");
        // flip each gate output of copy A; if the functional output
        // changes, the alarm must raise
        let mut detected_any = false;
        for g in p.netlist.gates() {
            if !g.tags.redundancy {
                continue;
            }
            for pattern in 0..8u32 {
                let inputs: Vec<bool> = (0..3).map(|b| (pattern >> b) & 1 == 1).collect();
                let good = p.netlist.evaluate(&inputs);
                let bad = faulty_outputs(&sim, &inputs, &[Fault::flip(g.output)]);
                let functional_changed = good[..good.len() - 1] != bad[..bad.len() - 1];
                let alarm = bad[bad.len() - 1];
                if functional_changed {
                    detected_any = true;
                    assert!(
                        alarm,
                        "silent corruption at {:?} pattern {pattern}",
                        g.output
                    );
                }
            }
        }
        assert!(detected_any, "test must exercise at least one detection");
    }

    #[test]
    fn tmr_corrects_single_copy_faults() {
        let nl = majority();
        let original_gates = nl.num_gates();
        let p = triplicate_with_vote(&nl);
        let sim = FaultSim::new(&p.netlist).expect("sim");
        // fault anywhere in the first copy: outputs must stay correct
        for gi in 0..original_gates {
            let g = &p.netlist.gates()[gi];
            for pattern in 0..8u32 {
                let inputs: Vec<bool> = (0..3).map(|b| (pattern >> b) & 1 == 1).collect();
                let expect = nl.evaluate(&inputs);
                let got = faulty_outputs(&sim, &inputs, &[Fault::flip(g.output)]);
                assert_eq!(got, expect, "TMR must mask fault at gate {gi}");
            }
        }
    }

    #[test]
    fn infective_scrambles_on_fault() {
        let nl = majority();
        let p = infective_transform(&nl);
        let sim = FaultSim::new(&p.netlist).expect("sim");
        // without faults: correct outputs, alarm low (randomness on)
        let n_in = nl.inputs().len();
        let n_rnd = nl.outputs().len();
        let mut inputs = vec![true, false, true];
        inputs.extend(vec![true; n_rnd]); // randomness all-on
        assert_eq!(inputs.len(), n_in + n_rnd);
        let outs = p.netlist.evaluate(&inputs);
        assert_eq!(outs[..1], nl.evaluate(&[true, false, true])[..]);
        assert!(!outs[1], "alarm low");
        // fault one copy's gate: with randomness on, output flips relative
        // to the faulty-but-uninfected value whenever alarm raises
        let victim = p.netlist.gates()[0].output;
        let bad = faulty_outputs(&sim, &inputs, &[Fault::flip(victim)]);
        let alarm = bad[1];
        if alarm {
            // infection: functional output = corrupted ^ rnd, so an
            // attacker cannot use it as a stable differential
            let mut inputs_off = inputs.clone();
            for r in &mut inputs_off[n_in..] {
                *r = false;
            }
            let bad_off = faulty_outputs(&sim, &inputs_off, &[Fault::flip(victim)]);
            assert_ne!(bad[0], bad_off[0], "randomness must modulate the output");
        }
    }

    #[test]
    fn copies_keep_the_tags_of_their_source_gates() {
        // one key gate, one masking barrier and one monitor gate, as a
        // lock, masking and a Trojan monitor leave them
        let mut nl = Netlist::new("tagged");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k = nl.add_input("key0");
        let tagged = |key_gate, no_reassoc, monitor| GateTags {
            key_gate,
            no_reassoc,
            monitor,
            ..GateTags::default()
        };
        let x = nl.add_gate_tagged(CellKind::Xor, &[a, k], tagged(true, false, false));
        let y = nl.add_gate_tagged(CellKind::And, &[x, b], tagged(false, true, false));
        let z = nl.add_gate_tagged(CellKind::Or, &[y, a], tagged(false, false, true));
        nl.mark_output(y, "y");
        nl.mark_output(z, "z");
        let count = |nl: &Netlist| {
            let n = |f: fn(&GateTags) -> bool| nl.gates().iter().filter(|g| f(&g.tags)).count();
            (n(|t| t.key_gate), n(|t| t.no_reassoc), n(|t| t.monitor))
        };
        assert_eq!(count(&nl), (1, 1, 1));
        for (scheme, protected, copies) in [
            ("parity", parity_protect(&nl), 2),
            ("dwc", duplicate_with_compare(&nl), 2),
            ("tmr", triplicate_with_vote(&nl), 3),
            ("infective", infective_transform(&nl), 2),
        ] {
            assert_eq!(
                count(&protected.netlist),
                (copies, copies, copies),
                "{scheme} must copy key, barrier and monitor tags"
            );
        }
        // the copies still carry the scheme's own marker
        let p = parity_protect(&nl);
        let predictor = &p.netlist.gates()[nl.num_gates()..2 * nl.num_gates()];
        assert!(predictor.iter().all(|g| g.tags.redundancy));
        assert!(p.netlist.gates()[..nl.num_gates()]
            .iter()
            .all(|g| !g.tags.redundancy));
    }

    #[test]
    fn redundancy_is_tagged() {
        let p = duplicate_with_compare(&majority());
        assert!(p.netlist.gates().iter().all(|g| g.tags.redundancy));
        let t = triplicate_with_vote(&majority());
        assert!(t.netlist.gates().iter().all(|g| g.tags.redundancy));
    }
}
