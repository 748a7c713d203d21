//! The independent fault-simulation oracle: a walk of the netlist arena
//! in topological order over [`CellKind::eval`](seceda_netlist::CellKind::eval),
//! sharing no code with the compiled tape. Included as a module by the
//! integration tests and, through `#[path]`, by the crate root for the
//! unit tests; the including module brings `Fault` and `FaultKind` into
//! scope.

// each including test target uses a subset of the oracle
#![allow(dead_code)]

use super::{Fault, FaultKind};
use seceda_netlist::{GateId, NetId, Netlist};

/// All net values of one faulty evaluation. A fault takes effect when
/// its net is assigned (a primary input as it is applied, a gate output
/// as it is computed), the last fault listed for a net wins, and DFF
/// outputs are loaded from `state`, never assigned.
pub fn reference(nl: &Netlist, inputs: &[bool], state: &[bool], faults: &[Fault]) -> Vec<bool> {
    let order = nl.topo_order().expect("acyclic");
    reference_walk(nl, &order, inputs, state, faults)
}

/// [`reference`] over a precomputed topological `order`.
pub fn reference_walk(
    nl: &Netlist,
    order: &[GateId],
    inputs: &[bool],
    state: &[bool],
    faults: &[Fault],
) -> Vec<bool> {
    let force = |net: NetId, good: bool| {
        faults
            .iter()
            .rev()
            .find(|f| f.net == net)
            .map_or(good, |f| match f.kind {
                FaultKind::StuckAt0 => false,
                FaultKind::StuckAt1 => true,
                FaultKind::BitFlip => !good,
            })
    };
    let mut values = vec![false; nl.num_nets()];
    for (&pi, &v) in nl.inputs().iter().zip(inputs) {
        values[pi.index()] = force(pi, v);
    }
    for (&d, &v) in nl.dffs().iter().zip(state) {
        values[nl.gate(d).output.index()] = v;
    }
    let mut ins = Vec::new();
    for &gid in order {
        let g = nl.gate(gid);
        ins.clear();
        ins.extend(g.inputs.iter().map(|&i| values[i.index()]));
        values[g.output.index()] = force(g.output, g.kind.eval(&ins));
    }
    values
}

/// The primary-output values among all net `values`.
pub fn outputs(nl: &Netlist, values: &[bool]) -> Vec<bool> {
    nl.outputs()
        .iter()
        .map(|&(n, _)| values[n.index()])
        .collect()
}

/// Per fault, detected iff the oracle's outputs differ under some
/// pattern (DFF outputs held at zero), plus the detected fraction (1.0
/// for no faults).
pub fn reference_coverage(
    nl: &Netlist,
    patterns: &[Vec<bool>],
    faults: &[Fault],
) -> (Vec<bool>, f64) {
    let order = nl.topo_order().expect("acyclic");
    let state = vec![false; nl.dffs().len()];
    let eval =
        |p: &[bool], faults: &[Fault]| outputs(nl, &reference_walk(nl, &order, p, &state, faults));
    let good: Vec<Vec<bool>> = patterns.iter().map(|p| eval(p, &[])).collect();
    let detected: Vec<bool> = faults
        .iter()
        .map(|&f| patterns.iter().zip(&good).any(|(p, g)| &eval(p, &[f]) != g))
        .collect();
    let frac = if faults.is_empty() {
        1.0
    } else {
        detected.iter().filter(|&&d| d).count() as f64 / faults.len() as f64
    };
    (detected, frac)
}
