//! Wire-delay-annotated static timing on a routed design.

use crate::route::RoutedDesign;
use seceda_netlist::Netlist;

/// Static timing results with wire delays.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Arrival time per net (gate delays + wire delays).
    pub arrival: Vec<f64>,
    /// Critical-path delay at the primary outputs.
    pub critical_path: f64,
    /// Contribution of wires to the critical path (absolute).
    pub wire_delay_on_critical_path: f64,
}

/// Delay of one grid unit of wire, relative to a NAND2 delay.
pub const WIRE_DELAY_PER_UNIT: f64 = 0.2;

/// Computes arrival times where each gate adds its cell delay and each
/// wire adds [`WIRE_DELAY_PER_UNIT`] per Manhattan unit.
///
/// # Panics
///
/// Panics if the netlist is cyclic.
pub fn timing_report(nl: &Netlist, routed: &RoutedDesign) -> TimingReport {
    let order = nl.topo_order().expect("cyclic netlist");
    // wire delay per (sink gate, input net): from routed wires
    let mut arrival = vec![0.0f64; nl.num_nets()];
    let mut wire_part = vec![0.0f64; nl.num_nets()];
    // index wires by (sink gate, net)
    use std::collections::HashMap;
    let mut wire_delay: HashMap<(usize, usize), f64> = HashMap::new();
    let mut output_wire: HashMap<usize, f64> = HashMap::new();
    for w in &routed.wires {
        let d = w.length as f64 * WIRE_DELAY_PER_UNIT;
        match w.sink_gate {
            Some(gi) => {
                wire_delay.insert((gi, w.net.index()), d);
            }
            None => {
                let e = output_wire.entry(w.net.index()).or_insert(0.0);
                if d > *e {
                    *e = d;
                }
            }
        }
    }
    for gid in order {
        let g = nl.gate(gid);
        let gi = gid.index();
        let mut worst = 0.0f64;
        let mut worst_wire = 0.0f64;
        for &inp in &g.inputs {
            let wd = wire_delay.get(&(gi, inp.index())).copied().unwrap_or(0.0);
            let t = arrival[inp.index()] + wd;
            if t > worst {
                worst = t;
                worst_wire = wire_part[inp.index()] + wd;
            }
        }
        arrival[g.output.index()] = worst + g.kind.tree_delay(g.inputs.len());
        wire_part[g.output.index()] = worst_wire;
    }
    let mut critical = 0.0f64;
    let mut critical_wire = 0.0f64;
    for &(n, _) in nl.outputs() {
        let wd = output_wire.get(&n.index()).copied().unwrap_or(0.0);
        let t = arrival[n.index()] + wd;
        if t > critical {
            critical = t;
            critical_wire = wire_part[n.index()] + wd;
        }
    }
    TimingReport {
        arrival,
        critical_path: critical,
        wire_delay_on_critical_path: critical_wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlacementConfig};
    use crate::route::{route, RouteConfig};
    use seceda_netlist::{c17, DepthReport};

    #[test]
    fn wire_delays_extend_pure_gate_timing() {
        let nl = c17();
        let p = place(&nl, &PlacementConfig::default());
        let r = route(&nl, &p, &RouteConfig::default());
        let with_wires = timing_report(&nl, &r);
        let gates_only = DepthReport::of(&nl);
        assert!(
            with_wires.critical_path >= gates_only.critical_path,
            "wires cannot make the design faster"
        );
        assert!(with_wires.wire_delay_on_critical_path >= 0.0);
    }

    #[test]
    fn zero_length_routing_matches_gate_depth() {
        // a single-gate design placed on one cell: wire lengths are small
        let mut nl = seceda_netlist::Netlist::new("one");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(seceda_netlist::CellKind::Nand, &[a, b]);
        nl.mark_output(y, "y");
        let p = place(&nl, &PlacementConfig::default());
        let r = route(&nl, &p, &RouteConfig::default());
        let t = timing_report(&nl, &r);
        assert!(t.critical_path >= 1.0, "at least the NAND delay");
    }
}
