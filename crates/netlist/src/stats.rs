//! Area / depth / composition statistics — the classical "A" in PPA.

use crate::cell::CellKind;
use crate::netlist::Netlist;
use std::collections::BTreeMap;

/// Aggregate statistics of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Gate count per cell kind.
    pub by_kind: BTreeMap<CellKind, usize>,
    /// Total number of gate instances.
    pub num_gates: usize,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Number of D flip-flops.
    pub num_dffs: usize,
    /// Estimated area in gate equivalents, costing n-ary gates as trees
    /// of 2-input cells.
    pub area_ge: f64,
}

impl NetlistStats {
    /// Computes statistics for `nl`.
    pub fn of(nl: &Netlist) -> Self {
        let mut by_kind = BTreeMap::new();
        let mut area = 0.0;
        for g in nl.gates() {
            *by_kind.entry(g.kind).or_insert(0) += 1;
            // An n-input gate decomposes into (n-1) two-input cells.
            let instances = g.inputs.len().saturating_sub(1).max(1) as f64;
            let unit = g.kind.area_ge();
            area += if g.inputs.len() <= 2 {
                unit
            } else {
                unit * instances
            };
        }
        NetlistStats {
            num_gates: nl.num_gates(),
            num_inputs: nl.inputs().len(),
            num_outputs: nl.outputs().len(),
            num_dffs: nl.dffs().len(),
            by_kind,
            area_ge: area,
        }
    }
}

/// Per-net logic depth report (in units of gate delay).
#[derive(Debug, Clone, PartialEq)]
pub struct DepthReport {
    /// Arrival time (accumulated [`CellKind::tree_delay`]) per net.
    pub arrival: Vec<f64>,
    /// The maximum arrival time over the primary outputs — the critical
    /// path delay of the combinational logic.
    pub critical_path: f64,
    /// Maximum logic depth in gate levels (unit delay per gate).
    pub levels: usize,
}

impl DepthReport {
    /// Computes arrival times over the combinational logic, treating
    /// primary inputs and DFF outputs as time-zero sources.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle.
    pub fn of(nl: &Netlist) -> Self {
        let order = nl.topo_order().expect("cyclic netlist");
        let mut arrival = vec![0.0f64; nl.num_nets()];
        let mut level = vec![0usize; nl.num_nets()];
        for gid in order {
            let g = nl.gate(gid);
            let worst_in = g
                .inputs
                .iter()
                .map(|&i| arrival[i.index()])
                .fold(0.0, f64::max);
            let worst_lvl = g
                .inputs
                .iter()
                .map(|&i| level[i.index()])
                .max()
                .unwrap_or(0);
            arrival[g.output.index()] = worst_in + g.kind.tree_delay(g.inputs.len());
            level[g.output.index()] = worst_lvl + 1;
        }
        let critical_path = nl
            .outputs()
            .iter()
            .map(|&(n, _)| arrival[n.index()])
            .fold(0.0, f64::max);
        let levels = nl
            .outputs()
            .iter()
            .map(|&(n, _)| level[n.index()])
            .max()
            .unwrap_or(0);
        DepthReport {
            arrival,
            critical_path,
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::Netlist;

    #[test]
    fn stats_count_kinds_and_area() {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::Xor, &[a, x]);
        nl.mark_output(y, "y");
        let st = NetlistStats::of(&nl);
        assert_eq!(st.num_gates, 2);
        assert_eq!(st.num_inputs, 2);
        assert_eq!(st.num_outputs, 1);
        assert_eq!(st.by_kind[&CellKind::And], 1);
        assert_eq!(st.by_kind[&CellKind::Xor], 1);
        assert!((st.area_ge - (1.5 + 2.5)).abs() < 1e-9);
    }

    #[test]
    fn depth_chain() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut cur = nl.add_gate(CellKind::Nand, &[a, b]);
        for _ in 0..4 {
            cur = nl.add_gate(CellKind::Nand, &[cur, b]);
        }
        nl.mark_output(cur, "y");
        let d = DepthReport::of(&nl);
        assert_eq!(d.levels, 5);
        assert!((d.critical_path - 5.0).abs() < 1e-9);
    }

    #[test]
    fn wide_gate_costs_tree() {
        let mut nl = Netlist::new("w");
        let ins: Vec<_> = (0..8).map(|i| nl.add_input(format!("i{i}"))).collect();
        let y = nl.add_gate(CellKind::Xor, &ins);
        nl.mark_output(y, "y");
        let st = NetlistStats::of(&nl);
        // 8-input XOR = 7 two-input XORs
        assert!((st.area_ge - 7.0 * 2.5).abs() < 1e-9);
        let d = DepthReport::of(&nl);
        // log2(8) = 3 levels of XOR delay 2.0
        assert!((d.critical_path - 6.0).abs() < 1e-9);
    }
}
