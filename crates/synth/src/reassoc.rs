//! XOR-tree re-association and factoring — the paper's Fig. 2 in code.
//!
//! Flattens maximal XOR trees, factors AND leaves that share a literal
//! (`a·b1 ⊕ a·b2 ⊕ a·b3 → a·(b1 ⊕ b2 ⊕ b3)`), and rebuilds the remaining
//! tree balanced for timing. All three steps are *correct* (XOR is
//! associative and commutative, AND distributes over XOR) and *beneficial*
//! for PPA — and all three are catastrophic for a masking scheme whose
//! security rests on the evaluation order:
//!
//! * factoring materializes `b1 ⊕ b2 ⊕ b3` — for the ISW AND gadget that
//!   wire carries the *unmasked secret* `b`;
//! * rebalancing computes partial sums of product terms before mixing in
//!   the fresh randomness, so intermediate wires correlate with secrets.
//!
//! In [`SynthesisMode::SecurityAware`] the pass refuses to flatten
//! through or out of gates tagged `no_reassoc` (the "ordering barriers"
//! a masking-aware front end emits), leaving the gadget intact.

use crate::rewrite::sweep;
use crate::SynthesisMode;
use seceda_netlist::{CellKind, GateTags, NetId, Netlist};
use std::collections::BTreeMap;

/// What the re-association pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReassocReport {
    /// Number of XOR trees flattened and rebuilt.
    pub trees_rebuilt: usize,
    /// Number of factoring rewrites applied (each removes at least one
    /// AND gate).
    pub factorings: usize,
    /// Number of trees skipped because of `no_reassoc` barriers.
    pub trees_skipped: usize,
}

/// Runs XOR re-association + factoring over `nl` and returns the
/// optimized netlist together with a [`ReassocReport`].
///
/// Only 2-input XOR trees feeding single loads are rewritten; XNOR and
/// wide gates are left alone (run [`crate::decompose_to_two_input`]
/// first for full coverage).
///
/// # Panics
///
/// Panics if the netlist is cyclic.
pub fn reassociate(nl: &Netlist, mode: SynthesisMode) -> (Netlist, ReassocReport) {
    let mut sp = seceda_trace::span("synth.reassociate");
    sp.attr("gates", nl.num_gates());
    sp.attr("security_aware", mode == SynthesisMode::SecurityAware);
    let mut work = nl.clone();
    let mut report = ReassocReport::default();

    let fanout_count = |n: &Netlist| {
        let mut cnt = vec![0usize; n.num_nets()];
        for g in n.gates() {
            for &i in &g.inputs {
                cnt[i.index()] += 1;
            }
        }
        for &(o, _) in n.outputs() {
            cnt[o.index()] += 1;
        }
        cnt
    };
    let fanout = fanout_count(&work);
    // nets created during rewriting have no fanout entry; treat them as
    // `default` (conservative multi-fanout when flattening, single-use
    // when factoring freshly built gates)
    let fan_or = |fanout: &[usize], net: NetId, default: usize| -> usize {
        fanout.get(net.index()).copied().unwrap_or(default)
    };

    // identify XOR-tree roots: 2-input XOR gates whose output is NOT the
    // single input of another 2-input XOR (those are interior nodes)
    let is_xor2 = |n: &Netlist, net: NetId| -> bool {
        n.net(net)
            .driver
            .map(|g| n.gate(g).kind == CellKind::Xor && n.gate(g).inputs.len() == 2)
            .unwrap_or(false)
    };

    let mut roots: Vec<NetId> = Vec::new();
    for g in work.gates() {
        if g.kind != CellKind::Xor || g.inputs.len() != 2 {
            continue;
        }
        let out = g.output;
        // interior iff exactly one load and that load is a 2-input XOR
        let loads = fanout[out.index()];
        let single_xor_load = loads == 1
            && work
                .gates()
                .iter()
                .any(|h| h.kind == CellKind::Xor && h.inputs.len() == 2 && h.inputs.contains(&out))
            && !work.outputs().iter().any(|&(o, _)| o == out);
        if !single_xor_load {
            roots.push(out);
        }
    }

    for root in roots {
        // flatten: collect leaves, stopping at barriers / multi-fanout
        let mut leaves: Vec<NetId> = Vec::new();
        let mut barrier_hit = false;
        let mut tree_gates: Vec<NetId> = Vec::new();
        let mut stack = vec![(root, true)];
        while let Some((net, is_root)) = stack.pop() {
            let expandable =
                is_xor2(&work, net) && (is_root || fan_or(&fanout, net, usize::MAX) == 1);
            if expandable {
                let gid = work.net(net).driver.expect("xor driver");
                if work.gate(gid).tags.no_reassoc && mode == SynthesisMode::SecurityAware {
                    barrier_hit = true;
                    break;
                }
                tree_gates.push(net);
                let ins = work.gate(gid).inputs.to_vec();
                for i in ins {
                    stack.push((i, false));
                }
            } else {
                leaves.push(net);
            }
        }
        if barrier_hit {
            report.trees_skipped += 1;
            continue;
        }
        if tree_gates.len() < 2 {
            continue; // nothing to gain from a single gate
        }

        // cancel duplicate leaves pairwise (x ^ x = 0)
        leaves.sort_unstable();
        let mut cancelled: Vec<NetId> = Vec::new();
        let mut i = 0;
        while i < leaves.len() {
            if i + 1 < leaves.len() && leaves[i] == leaves[i + 1] {
                i += 2;
            } else {
                cancelled.push(leaves[i]);
                i += 1;
            }
        }
        let mut leaves = cancelled;

        // factoring: group single-load 2-input AND leaves by shared input
        loop {
            let mut groups: BTreeMap<NetId, Vec<usize>> = BTreeMap::new();
            for (li, &leaf) in leaves.iter().enumerate() {
                let Some(gid) = work.net(leaf).driver else {
                    continue;
                };
                let g = work.gate(gid);
                if g.kind != CellKind::And || g.inputs.len() != 2 || g.inputs[0] == g.inputs[1] {
                    continue;
                }
                if fan_or(&fanout, leaf, 1) != 1 {
                    continue;
                }
                if mode == SynthesisMode::SecurityAware && g.tags.is_protected() {
                    continue;
                }
                groups.entry(g.inputs[0]).or_default().push(li);
                groups.entry(g.inputs[1]).or_default().push(li);
            }
            let Some((&common, members)) = groups
                .iter()
                .filter(|(_, v)| v.len() >= 2)
                .max_by_key(|(_, v)| v.len())
            else {
                break;
            };
            let members = members.clone();
            // other-operand nets of each grouped AND
            let others: Vec<NetId> = members
                .iter()
                .map(|&li| {
                    let gid = work.net(leaves[li]).driver.expect("and driver");
                    let g = work.gate(gid);
                    if g.inputs[0] == common {
                        g.inputs[1]
                    } else {
                        g.inputs[0]
                    }
                })
                .collect();
            // build xor of the others, then AND with the common literal
            let xor_net = build_balanced_xor(&mut work, &others);
            let and_net = work.add_gate(CellKind::And, &[common, xor_net]);
            // drop grouped leaves, add the factored one
            let mut keep: Vec<NetId> = leaves
                .iter()
                .enumerate()
                .filter(|(li, _)| !members.contains(li))
                .map(|(_, &n)| n)
                .collect();
            keep.push(and_net);
            leaves = keep;
            report.factorings += 1;
        }

        // rebuild a balanced XOR over the final leaves
        let new_root = build_balanced_xor(&mut work, &leaves);
        work.redirect(&[(root, new_root)], work.num_gates());
        report.trees_rebuilt += 1;
    }

    let cleaned = sweep(&work, mode);
    sp.attr("trees_rebuilt", report.trees_rebuilt);
    sp.attr("trees_skipped", report.trees_skipped);
    sp.attr("factorings", report.factorings);
    seceda_trace::counter("synth.xor_trees_rebuilt", report.trees_rebuilt as u64);
    seceda_trace::counter("synth.xor_trees_skipped", report.trees_skipped as u64);
    seceda_trace::counter("synth.rewrites_applied", report.factorings as u64);
    (cleaned, report)
}

/// Emits a balanced XOR tree over `leaves` (which must be non-empty) and
/// returns the root net.
fn build_balanced_xor(nl: &mut Netlist, leaves: &[NetId]) -> NetId {
    match leaves.len() {
        0 => nl.add_gate(CellKind::Const0, &[]),
        1 => leaves[0],
        _ => {
            let mut layer: Vec<NetId> = leaves.to_vec();
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for pair in layer.chunks(2) {
                    if pair.len() == 2 {
                        next.push(nl.add_gate_tagged(
                            CellKind::Xor,
                            &[pair[0], pair[1]],
                            GateTags::default(),
                        ));
                    } else {
                        next.push(pair[0]);
                    }
                }
                layer = next;
            }
            layer[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::parity_tree;

    /// Builds `y = a·b1 ⊕ a·b2 ⊕ a·b3` as a left-deep chain — the shape
    /// of the paper's example before optimization.
    fn shared_literal_chain() -> Netlist {
        let mut nl = Netlist::new("fig2_shape");
        let a = nl.add_input("a");
        let b1 = nl.add_input("b1");
        let b2 = nl.add_input("b2");
        let b3 = nl.add_input("b3");
        let p1 = nl.add_gate(CellKind::And, &[a, b1]);
        let p2 = nl.add_gate(CellKind::And, &[a, b2]);
        let p3 = nl.add_gate(CellKind::And, &[a, b3]);
        let t = nl.add_gate(CellKind::Xor, &[p1, p2]);
        let y = nl.add_gate(CellKind::Xor, &[t, p3]);
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn factoring_reduces_and_count_and_preserves_function() {
        let nl = shared_literal_chain();
        let (opt, report) = reassociate(&nl, SynthesisMode::Classical);
        assert_eq!(nl.truth_table(), opt.truth_table());
        assert!(report.factorings >= 1, "report: {report:?}");
        let ands = |n: &Netlist| n.gates().iter().filter(|g| g.kind == CellKind::And).count();
        assert_eq!(ands(&nl), 3);
        assert_eq!(ands(&opt), 1, "three products share `a` and must factor");
    }

    #[test]
    fn factored_netlist_exposes_the_unmasked_sum() {
        // After factoring, some wire computes b1 ^ b2 ^ b3 — the secret.
        let nl = shared_literal_chain();
        let (opt, _) = reassociate(&nl, SynthesisMode::Classical);
        let mut found = false;
        'outer: for g in opt.gates() {
            // evaluate candidate wire over all inputs: is it b1^b2^b3?
            for pattern in 0..16u32 {
                let inputs: Vec<bool> = (0..4).map(|b| (pattern >> b) & 1 == 1).collect();
                let values = opt.eval_nets(&inputs, &[]).expect("eval");
                let expect = inputs[1] ^ inputs[2] ^ inputs[3];
                if values[g.output.index()] != expect {
                    continue 'outer;
                }
            }
            found = true;
            break;
        }
        assert!(found, "factoring must materialize the unmasked XOR sum");
    }

    #[test]
    fn barriers_block_the_rewrite_in_secure_mode() {
        let mut nl = Netlist::new("protected");
        let a = nl.add_input("a");
        let b1 = nl.add_input("b1");
        let b2 = nl.add_input("b2");
        let b3 = nl.add_input("b3");
        let bar = GateTags {
            no_reassoc: true,
            ..GateTags::default()
        };
        let p1 = nl.add_gate_tagged(CellKind::And, &[a, b1], bar);
        let p2 = nl.add_gate_tagged(CellKind::And, &[a, b2], bar);
        let p3 = nl.add_gate_tagged(CellKind::And, &[a, b3], bar);
        let t = nl.add_gate_tagged(CellKind::Xor, &[p1, p2], bar);
        let y = nl.add_gate_tagged(CellKind::Xor, &[t, p3], bar);
        nl.mark_output(y, "y");
        let (aware, report) = reassociate(&nl, SynthesisMode::SecurityAware);
        assert_eq!(report.trees_rebuilt, 0);
        assert_eq!(report.trees_skipped, 1);
        assert_eq!(aware.num_gates(), nl.num_gates(), "structure must survive");
        // classical mode tramples right over the barriers
        let (classical, creport) = reassociate(&nl, SynthesisMode::Classical);
        assert_eq!(creport.trees_rebuilt, 1);
        assert_eq!(nl.truth_table(), classical.truth_table());
    }

    #[test]
    fn parity_tree_is_stable() {
        // an already-balanced XOR tree keeps its function (and roughly
        // its size) through the pass
        let nl = parity_tree(8);
        let (opt, _) = reassociate(&nl, SynthesisMode::Classical);
        assert_eq!(nl.truth_table(), opt.truth_table());
        assert!(opt.num_gates() <= nl.num_gates() + 1);
    }

    #[test]
    fn duplicate_leaves_cancel() {
        // y = x ^ a ^ x should simplify to a
        let mut nl = Netlist::new("cancel");
        let a = nl.add_input("a");
        let x = nl.add_input("x");
        let t = nl.add_gate(CellKind::Xor, &[x, a]);
        let y = nl.add_gate(CellKind::Xor, &[t, x]);
        nl.mark_output(y, "y");
        let (opt, _) = reassociate(&nl, SynthesisMode::Classical);
        assert_eq!(nl.truth_table(), opt.truth_table());
        assert_eq!(opt.num_gates(), 0, "x ^ a ^ x is just a wire to a");
    }

    #[test]
    fn multi_fanout_interior_nodes_are_leaves() {
        // t = x1 ^ x2 feeds both the tree and another output: it must not
        // be flattened away
        let mut nl = Netlist::new("mf");
        let x1 = nl.add_input("x1");
        let x2 = nl.add_input("x2");
        let x3 = nl.add_input("x3");
        let t = nl.add_gate(CellKind::Xor, &[x1, x2]);
        let y = nl.add_gate(CellKind::Xor, &[t, x3]);
        nl.mark_output(t, "t");
        nl.mark_output(y, "y");
        let (opt, _) = reassociate(&nl, SynthesisMode::Classical);
        assert_eq!(nl.truth_table(), opt.truth_table());
    }
}
