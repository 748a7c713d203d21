//! Cleanup passes: constant folding, CSE, dead-logic sweep.

use crate::SynthesisMode;
use seceda_netlist::{CellKind, GateId, NetId, Netlist};
use std::collections::HashMap;

/// Incremental netlist rebuilder: copies a netlist gate by gate while a
/// pass substitutes, drops, or rewrites gates.
pub(crate) struct Rebuilder {
    out: Netlist,
    map: Vec<Option<NetId>>,
}

impl Rebuilder {
    /// Starts a rebuild, copying the primary inputs.
    pub fn new(src: &Netlist) -> Self {
        let mut out = Netlist::new(src.name());
        let mut map = vec![None; src.num_nets()];
        for &pi in src.inputs() {
            let name = src.net_label(pi);
            map[pi.index()] = Some(out.add_input(name));
        }
        Rebuilder { out, map }
    }

    /// The new net corresponding to `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old` has not been mapped yet (pass bug: non-topological
    /// traversal).
    pub fn net(&self, old: NetId) -> NetId {
        self.map[old.index()].expect("net used before being mapped")
    }

    /// Declares that `old` maps to `new` (aliasing; no gate emitted).
    pub fn alias(&mut self, old: NetId, new: NetId) {
        self.map[old.index()] = Some(new);
    }

    /// Copies `gate` verbatim (with remapped inputs) and maps its output.
    pub fn copy_gate(&mut self, src: &Netlist, gid: GateId) -> NetId {
        let g = src.gate(gid);
        let inputs: Vec<NetId> = g.inputs.iter().map(|&i| self.net(i)).collect();
        let new_out = self.out.add_gate_tagged(g.kind, &inputs, g.tags);
        self.alias(g.output, new_out);
        new_out
    }

    /// Mutable access to the netlist under construction.
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.out
    }

    /// Pre-creates a DFF for `gid` with a placeholder data input so that
    /// combinational logic reading the DFF output can be rebuilt first.
    /// Returns the new gate id; patch the input with
    /// [`Rebuilder::patch_dff`] after the combinational walk.
    pub fn predeclare_dff(&mut self, src: &Netlist, gid: GateId) -> GateId {
        let tmp = self.out.add_net();
        let out = self
            .out
            .add_gate_tagged(CellKind::Dff, &[tmp], src.gate(gid).tags);
        self.alias(src.gate(gid).output, out);
        self.out.net(out).driver.expect("dff has a driver")
    }

    /// Connects the real data input of a predeclared DFF.
    pub fn patch_dff(&mut self, src: &Netlist, old: GateId, new: GateId) {
        let d = self.net(src.gate(old).inputs[0]);
        self.out.gate_mut(new).inputs[0] = d;
    }

    /// Finishes the rebuild, copying primary outputs.
    pub fn finish(mut self, src: &Netlist) -> Netlist {
        for (net, name) in src.outputs() {
            let mapped = self.net(*net);
            self.out.mark_output(mapped, name.clone());
        }
        self.out
    }
}

/// Constant propagation and local simplification.
///
/// Folds constant inputs through every cell kind, collapses buffers, and
/// replaces fully-determined gates with constants. In
/// [`SynthesisMode::SecurityAware`] mode, protected gates (barriers, key
/// gates, monitors, redundancy) are copied untouched.
pub fn fold_constants(nl: &Netlist, mode: SynthesisMode) -> Netlist {
    let order = nl.topo_order().expect("cyclic netlist");
    let mut rb = Rebuilder::new(nl);
    let dff_pairs: Vec<(GateId, GateId)> = nl
        .dffs()
        .iter()
        .map(|&d| (d, rb.predeclare_dff(nl, d)))
        .collect();
    // constant knowledge about *new* nets
    let mut konst: HashMap<NetId, bool> = HashMap::new();
    let const_net = |rb: &mut Rebuilder, konst: &mut HashMap<NetId, bool>, v: bool| {
        let kind = if v {
            CellKind::Const1
        } else {
            CellKind::Const0
        };
        let n = rb.netlist_mut().add_gate(kind, &[]);
        konst.insert(n, v);
        n
    };
    let handle = |rb: &mut Rebuilder, konst: &mut HashMap<NetId, bool>, gid: GateId| {
        let g = nl.gate(gid);
        if mode == SynthesisMode::SecurityAware && g.tags.is_protected() {
            rb.copy_gate(nl, gid);
            return;
        }
        let ins: Vec<NetId> = g.inputs.iter().map(|&i| rb.net(i)).collect();
        let vals: Vec<Option<bool>> = ins.iter().map(|n| konst.get(n).copied()).collect();
        match g.kind {
            CellKind::Const0 => {
                let n = const_net(rb, konst, false);
                rb.alias(g.output, n);
            }
            CellKind::Const1 => {
                let n = const_net(rb, konst, true);
                rb.alias(g.output, n);
            }
            CellKind::Buf => match vals[0] {
                Some(v) => {
                    let n = const_net(rb, konst, v);
                    rb.alias(g.output, n);
                }
                None => rb.alias(g.output, ins[0]),
            },
            CellKind::Not => match vals[0] {
                Some(v) => {
                    let n = const_net(rb, konst, !v);
                    rb.alias(g.output, n);
                }
                None => {
                    let n = rb
                        .netlist_mut()
                        .add_gate_tagged(CellKind::Not, &[ins[0]], g.tags);
                    rb.alias(g.output, n);
                }
            },
            CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
                let neutral = matches!(g.kind, CellKind::And | CellKind::Nand); // AND neutral = 1
                let inverted = matches!(g.kind, CellKind::Nand | CellKind::Nor);
                // absorbing element present?
                let absorbing = vals.contains(&Some(!neutral));
                if absorbing {
                    let n = const_net(rb, konst, !neutral ^ inverted);
                    rb.alias(g.output, n);
                    return;
                }
                let live: Vec<NetId> = ins
                    .iter()
                    .zip(&vals)
                    .filter(|(_, v)| v.is_none())
                    .map(|(&n, _)| n)
                    .collect();
                match live.len() {
                    0 => {
                        let n = const_net(rb, konst, neutral ^ inverted);
                        rb.alias(g.output, n);
                    }
                    1 => {
                        if inverted {
                            let n =
                                rb.netlist_mut()
                                    .add_gate_tagged(CellKind::Not, &[live[0]], g.tags);
                            rb.alias(g.output, n);
                        } else {
                            rb.alias(g.output, live[0]);
                        }
                    }
                    _ => {
                        let base = match g.kind {
                            CellKind::Nand => CellKind::And,
                            CellKind::Nor => CellKind::Or,
                            k => k,
                        };
                        if live.len() == ins.len() {
                            rb.copy_gate(nl, gid);
                        } else {
                            let n = rb.netlist_mut().add_gate_tagged(base, &live, g.tags);
                            if inverted {
                                let ni =
                                    rb.netlist_mut()
                                        .add_gate_tagged(CellKind::Not, &[n], g.tags);
                                rb.alias(g.output, ni);
                            } else {
                                rb.alias(g.output, n);
                            }
                        }
                    }
                }
            }
            CellKind::Xor | CellKind::Xnor => {
                let mut parity = g.kind == CellKind::Xnor;
                let mut live: Vec<NetId> = Vec::new();
                for (n, v) in ins.iter().zip(&vals) {
                    match v {
                        Some(true) => parity = !parity,
                        Some(false) => {}
                        None => live.push(*n),
                    }
                }
                match live.len() {
                    0 => {
                        let n = const_net(rb, konst, parity);
                        rb.alias(g.output, n);
                    }
                    1 => {
                        if parity {
                            let n =
                                rb.netlist_mut()
                                    .add_gate_tagged(CellKind::Not, &[live[0]], g.tags);
                            rb.alias(g.output, n);
                        } else {
                            rb.alias(g.output, live[0]);
                        }
                    }
                    _ => {
                        let kind = if parity {
                            CellKind::Xnor
                        } else {
                            CellKind::Xor
                        };
                        let n = rb.netlist_mut().add_gate_tagged(kind, &live, g.tags);
                        rb.alias(g.output, n);
                    }
                }
            }
            CellKind::Mux => match vals[0] {
                Some(false) => rb.alias(g.output, ins[1]),
                Some(true) => rb.alias(g.output, ins[2]),
                None => {
                    if ins[1] == ins[2] {
                        rb.alias(g.output, ins[1]);
                    } else {
                        rb.copy_gate(nl, gid);
                    }
                }
            },
            CellKind::Dff => unreachable!("DFFs are not in the combinational order"),
        }
    };
    for gid in order {
        handle(&mut rb, &mut konst, gid);
    }
    for (old, new) in dff_pairs {
        rb.patch_dff(nl, old, new);
    }
    rb.finish(nl)
}

/// Structural common-subexpression elimination.
///
/// Merges gates with the same kind and the same (canonically ordered)
/// inputs. In [`SynthesisMode::SecurityAware`] mode, protected gates are
/// never merged — in particular, the duplicated logic of an FIA
/// countermeasure survives. In classical mode it does not: CSE *removes
/// redundancy by design*, which is the negative cross-effect between
/// optimization and fault-detection the paper warns about.
pub fn dedup(nl: &Netlist, mode: SynthesisMode) -> Netlist {
    let order = nl.topo_order().expect("cyclic netlist");
    let mut rb = Rebuilder::new(nl);
    let dff_pairs: Vec<(GateId, GateId)> = nl
        .dffs()
        .iter()
        .map(|&d| (d, rb.predeclare_dff(nl, d)))
        .collect();
    let mut table: HashMap<(CellKind, Vec<NetId>), NetId> = HashMap::new();
    for gid in order {
        let g = nl.gate(gid);
        let protected = g.tags.is_protected();
        if mode == SynthesisMode::SecurityAware && protected {
            rb.copy_gate(nl, gid);
            continue;
        }
        let mut key_inputs: Vec<NetId> = g.inputs.iter().map(|&i| rb.net(i)).collect();
        let commutative = matches!(
            g.kind,
            CellKind::And
                | CellKind::Nand
                | CellKind::Or
                | CellKind::Nor
                | CellKind::Xor
                | CellKind::Xnor
        );
        if commutative {
            key_inputs.sort_unstable();
        }
        let key = (g.kind, key_inputs);
        match table.get(&key) {
            Some(&existing) => rb.alias(g.output, existing),
            None => {
                let new_out = rb.copy_gate(nl, gid);
                table.insert(key, new_out);
            }
        }
    }
    for (old, new) in dff_pairs {
        rb.patch_dff(nl, old, new);
    }
    rb.finish(nl)
}

/// Removes logic that cannot reach any primary output.
///
/// In [`SynthesisMode::SecurityAware`] mode, gates tagged `monitor` are
/// kept even when unobservable (sensors often drive no functional
/// output); classical mode sweeps them away.
pub fn sweep(nl: &Netlist, mode: SynthesisMode) -> Netlist {
    // mark reachable nets backwards from outputs (and kept monitors)
    let mut live_net = vec![false; nl.num_nets()];
    let mut stack: Vec<NetId> = nl.outputs().iter().map(|&(n, _)| n).collect();
    if mode == SynthesisMode::SecurityAware {
        for g in nl.gates() {
            if g.tags.monitor {
                stack.push(g.output);
            }
        }
    }
    while let Some(n) = stack.pop() {
        if live_net[n.index()] {
            continue;
        }
        live_net[n.index()] = true;
        if let Some(drv) = nl.net(n).driver {
            for &inp in &nl.gate(drv).inputs {
                stack.push(inp);
            }
        }
    }
    let order = nl.topo_order().expect("cyclic netlist");
    let mut rb = Rebuilder::new(nl);
    let dff_pairs: Vec<(GateId, GateId)> = nl
        .dffs()
        .iter()
        .filter(|&&d| live_net[nl.gate(d).output.index()])
        .map(|&d| (d, rb.predeclare_dff(nl, d)))
        .collect();
    for gid in order {
        let g = nl.gate(gid);
        if live_net[g.output.index()] {
            rb.copy_gate(nl, gid);
        }
    }
    for (old, new) in dff_pairs {
        rb.patch_dff(nl, old, new);
    }
    rb.finish(nl)
}

/// The standard cleanup pipeline: constant folding → CSE → sweep.
pub fn optimize(nl: &Netlist, mode: SynthesisMode) -> Netlist {
    let mut sp = seceda_trace::span("synth.optimize");
    sp.attr("gates_before", nl.num_gates());
    sp.attr("security_aware", mode == SynthesisMode::SecurityAware);
    let folded = fold_constants(nl, mode);
    let merged = dedup(&folded, mode);
    let swept = sweep(&merged, mode);
    sp.attr("gates_after", swept.num_gates());
    seceda_trace::counter(
        "synth.rewrites_applied",
        (nl.num_gates().saturating_sub(swept.num_gates())) as u64,
    );
    swept
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, majority, GateTags};

    fn assert_equivalent(a: &Netlist, b: &Netlist) {
        assert_eq!(a.truth_table(), b.truth_table(), "function changed");
    }

    #[test]
    fn fold_removes_constants() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let one = nl.add_gate(CellKind::Const1, &[]);
        let zero = nl.add_gate(CellKind::Const0, &[]);
        let x = nl.add_gate(CellKind::And, &[a, one]); // = a
        let y = nl.add_gate(CellKind::Or, &[x, zero]); // = a
        let z = nl.add_gate(CellKind::Xor, &[y, one]); // = !a
        nl.mark_output(z, "z");
        let folded = optimize(&nl, SynthesisMode::Classical);
        assert_equivalent(&nl, &folded);
        // should be a single inverter
        assert_eq!(folded.num_gates(), 1);
        assert_eq!(folded.gates()[0].kind, CellKind::Not);
    }

    #[test]
    fn fold_handles_all_gate_kinds() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.add_gate(CellKind::Const1, &[]);
        let zero = nl.add_gate(CellKind::Const0, &[]);
        let outs = [
            nl.add_gate(CellKind::Nand, &[a, one]),
            nl.add_gate(CellKind::Nor, &[a, zero]),
            nl.add_gate(CellKind::Xnor, &[a, one]),
            nl.add_gate(CellKind::Mux, &[one, a, b]),
            nl.add_gate(CellKind::Mux, &[zero, a, b]),
            nl.add_gate(CellKind::Mux, &[b, a, a]),
            nl.add_gate(CellKind::Not, &[zero]),
            nl.add_gate(CellKind::Buf, &[one]),
        ];
        for (i, &o) in outs.iter().enumerate() {
            nl.mark_output(o, format!("o{i}"));
        }
        let folded = fold_constants(&nl, SynthesisMode::Classical);
        assert_equivalent(&nl, &folded);
    }

    #[test]
    fn dedup_merges_identical_gates() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::And, &[b, a]); // commutative duplicate
        let z = nl.add_gate(CellKind::Xor, &[x, y]); // = 0 but dedup alone won't know
        nl.mark_output(z, "z");
        let merged = dedup(&nl, SynthesisMode::Classical);
        assert_equivalent(&nl, &merged);
        // the two ANDs collapse to one
        let ands = merged
            .gates()
            .iter()
            .filter(|g| g.kind == CellKind::And)
            .count();
        assert_eq!(ands, 1);
    }

    #[test]
    fn dedup_preserves_protected_redundancy() {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let red = GateTags {
            redundancy: true,
            ..GateTags::default()
        };
        let x = nl.add_gate_tagged(CellKind::And, &[a, b], red);
        let y = nl.add_gate_tagged(CellKind::And, &[a, b], red);
        let cmp = nl.add_gate(CellKind::Xnor, &[x, y]);
        nl.mark_output(x, "x");
        nl.mark_output(cmp, "ok");
        let classical = dedup(&nl, SynthesisMode::Classical);
        let aware = dedup(&nl, SynthesisMode::SecurityAware);
        let count = |n: &Netlist| n.gates().iter().filter(|g| g.kind == CellKind::And).count();
        assert_eq!(count(&classical), 1, "classical CSE merges the redundancy");
        assert_eq!(count(&aware), 2, "security-aware CSE must keep both copies");
    }

    #[test]
    fn sweep_removes_dead_logic_but_keeps_monitors_in_aware_mode() {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let live = nl.add_gate(CellKind::And, &[a, b]);
        let _dead = nl.add_gate(CellKind::Or, &[a, b]);
        let mon = GateTags {
            monitor: true,
            ..GateTags::default()
        };
        let _sensor = nl.add_gate_tagged(CellKind::Xor, &[a, b], mon);
        nl.mark_output(live, "y");
        let classical = sweep(&nl, SynthesisMode::Classical);
        assert_eq!(classical.num_gates(), 1);
        let aware = sweep(&nl, SynthesisMode::SecurityAware);
        assert_eq!(aware.num_gates(), 2);
        assert_equivalent(&nl, &classical);
    }

    #[test]
    fn optimize_preserves_benchmarks() {
        for nl in [c17(), majority()] {
            let opt = optimize(&nl, SynthesisMode::Classical);
            assert_equivalent(&nl, &opt);
            assert!(opt.num_gates() <= nl.num_gates());
            assert_eq!(opt.validate(), Ok(()));
        }
    }

    #[test]
    fn sequential_designs_survive_passes() {
        // toggle flop with some dead combinational logic
        let mut nl = Netlist::new("seq");
        let en = nl.add_input("en");
        let q_fb = nl.add_net();
        let nxt = nl.add_gate(CellKind::Xor, &[q_fb, en]);
        let q = nl.add_gate(CellKind::Dff, &[nxt]);
        let gid = nl.net(nxt).driver.expect("drv");
        nl.gate_mut(gid).inputs[0] = q;
        let _dead = nl.add_gate(CellKind::Not, &[en]);
        nl.mark_output(q, "q");
        let opt = optimize(&nl, SynthesisMode::Classical);
        assert_eq!(opt.dffs().len(), 1);
        assert_eq!(opt.validate(), Ok(()));
        // behaviour check over a few cycles
        let mut state_a = vec![false];
        let mut state_b = vec![false];
        for step in 0..6 {
            let en_val = step % 3 == 0;
            let (oa, sa) = nl.step(&[en_val], &state_a).expect("a");
            let (ob, sb) = opt.step(&[en_val], &state_b).expect("b");
            assert_eq!(oa, ob, "cycle {step}");
            state_a = sa;
            state_b = sb;
        }
    }
}
