//! IC camouflaging \[23\] and de-camouflaging.
//!
//! A camouflaged cell looks identical under reverse engineering for a
//! small set of candidate functions (here NAND / NOR / XNOR). The
//! attacker's view is modeled as a *keyed* netlist in which each
//! ambiguous cell is a 4:1 selection over the candidates driven by two
//! "key" bits; de-camouflaging is then exactly the oracle-guided SAT
//! attack of [`crate::sat_attack`](mod@crate::sat_attack).

use crate::locking::{first_free_key, LockedNetlist};
use crate::sat_attack::{sat_attack, SatAttackResult};
use seceda_netlist::{CellKind, GateTags, Netlist, NetlistError};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// The candidate functions a camouflaged cell may implement.
const CANDIDATES: [CellKind; 3] = [CellKind::Nand, CellKind::Nor, CellKind::Xnor];

/// A camouflaged design: the foundry/user-visible ambiguous view plus
/// the designer's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct CamouflagedNetlist {
    /// The attacker's view: ambiguous cells expanded into key-selected
    /// candidate functions (2 key bits per camouflaged gate).
    pub attacker_view: LockedNetlist,
    /// Indices (into the original gate list) of the camouflaged gates.
    pub camouflaged_gates: Vec<usize>,
    /// The true design.
    pub original: Netlist,
}

/// Camouflages `count` pseudo-randomly chosen 2-input gates whose kind is
/// among the candidate set. Gates of other kinds are left alone.
///
/// # Panics
///
/// Panics if the design contains no camouflageable gate.
pub fn camouflage(nl: &Netlist, count: usize, seed: u64) -> CamouflagedNetlist {
    let camouflageable: Vec<usize> = nl
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.inputs.len() == 2 && CANDIDATES.contains(&g.kind))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !camouflageable.is_empty(),
        "no NAND/NOR/XNOR gates to camouflage"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = camouflageable;
    // Fisher-Yates prefix shuffle
    for i in 0..chosen.len().saturating_sub(1) {
        let j = rng.gen_range(i..chosen.len());
        chosen.swap(i, j);
    }
    chosen.truncate(count.min(chosen.len()));
    chosen.sort_unstable();

    // build the attacker's view: replace each chosen gate with the
    // key-selected candidate bundle
    let mut view = Netlist::new(format!("{}_camo", nl.name()));
    let mut map = vec![None; nl.num_nets()];
    for &pi in nl.inputs() {
        let name = nl.net_label(pi);
        map[pi.index()] = Some(view.add_input(name));
    }
    // key inputs appended after functional inputs, two per cell
    let first_key = first_free_key(&view);
    let key_inputs: Vec<_> = (first_key..first_key + 2 * chosen.len())
        .map(|i| view.add_input(format!("key{i}")))
        .collect();
    let mut correct_key = vec![false; 2 * chosen.len()];
    let order = nl.topo_order().expect("cyclic netlist");
    let tags = GateTags {
        key_gate: true,
        ..GateTags::default()
    };
    for gid in order {
        let g = nl.gate(gid);
        let gi = gid.index();
        let ins: Vec<_> = g
            .inputs
            .iter()
            .map(|&i| map[i.index()].expect("topological"))
            .collect();
        let out = match chosen.iter().position(|&c| c == gi) {
            None => view.add_gate_tagged(g.kind, &ins, g.tags),
            Some(slot) => {
                // candidates muxed by two key bits:
                // 00 -> nand, 01 -> nor, 1x -> xnor
                let nand = view.add_gate_tagged(CellKind::Nand, &ins, tags);
                let nor = view.add_gate_tagged(CellKind::Nor, &ins, tags);
                let xnor = view.add_gate_tagged(CellKind::Xnor, &ins, tags);
                let k0 = key_inputs[2 * slot];
                let k1 = key_inputs[2 * slot + 1];
                let lo = view.add_gate_tagged(CellKind::Mux, &[k0, nand, nor], tags);
                let sel = view.add_gate_tagged(CellKind::Mux, &[k1, lo, xnor], tags);
                let truth = CANDIDATES
                    .iter()
                    .position(|&k| k == g.kind)
                    .expect("candidate kind");
                // encode the true function into the correct key
                match truth {
                    0 => {} // 00
                    1 => correct_key[2 * slot] = true,
                    _ => correct_key[2 * slot + 1] = true,
                }
                sel
            }
        };
        map[g.output.index()] = Some(out);
    }
    for (net, name) in nl.outputs() {
        view.mark_output(map[net.index()].expect("output mapped"), name.clone());
    }

    CamouflagedNetlist {
        attacker_view: LockedNetlist {
            netlist: view,
            correct_key,
            num_original_inputs: nl.inputs().len(),
        },
        camouflaged_gates: chosen,
        original: nl.clone(),
    }
}

/// De-camouflages by running the oracle-guided SAT attack against the
/// ambiguous view, returning a functionally correct cell assignment.
///
/// # Errors
///
/// Propagates encoding errors.
pub fn decamouflage(camo: &CamouflagedNetlist) -> Result<Option<SatAttackResult>, NetlistError> {
    let original = camo.original.clone();
    sat_attack(&camo.attacker_view, move |x| original.evaluate(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::c17;

    #[test]
    fn correct_key_reproduces_original() {
        let nl = c17();
        let camo = camouflage(&nl, 3, 5);
        assert_eq!(camo.camouflaged_gates.len(), 3);
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
            assert_eq!(
                camo.attacker_view
                    .evaluate_with_key(&inputs, &camo.attacker_view.correct_key),
                nl.evaluate(&inputs)
            );
        }
    }

    #[test]
    fn decamouflage_recovers_function() {
        let nl = c17();
        let camo = camouflage(&nl, 4, 6);
        let result = decamouflage(&camo).expect("runs").expect("assignment");
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
            assert_eq!(
                camo.attacker_view.evaluate_with_key(&inputs, &result.key),
                nl.evaluate(&inputs),
                "recovered assignment wrong on {inputs:?}"
            );
        }
    }

    #[test]
    fn more_camouflaged_cells_do_not_reduce_effort() {
        let nl = c17();
        let small = camouflage(&nl, 1, 7);
        let large = camouflage(&nl, 6, 8);
        let rs = decamouflage(&small).expect("runs").expect("ok");
        let rl = decamouflage(&large).expect("runs").expect("ok");
        assert!(rl.iterations >= rs.iterations);
    }
}
