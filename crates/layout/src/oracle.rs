//! The full-recompute annealer, kept as the differential oracle for
//! [`crate::place::place`]: it re-costs every net of the design after
//! every swap, where `place` re-costs only the nets the two swapped gates
//! touch. Both must return the same [`Placement`], bit for bit.

use crate::place::{Placement, PlacementConfig};
use seceda_netlist::{NetId, Netlist};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Pin location of a net endpoint: the driving gate, a PI pad, or
/// unplaced (constant drivers sit at the origin).
fn net_source_pos(
    nl: &Netlist,
    placement_gate_pos: &[(u32, u32)],
    input_pos: &[(u32, u32)],
    net: NetId,
) -> (u32, u32) {
    if let Some(drv) = nl.net(net).driver {
        return placement_gate_pos[drv.index()];
    }
    if let Some(k) = nl.inputs().iter().position(|&p| p == net) {
        return input_pos[k];
    }
    (0, 0)
}

/// Computes total HPWL of all nets under the given gate positions.
pub(crate) fn total_hpwl(
    nl: &Netlist,
    gate_pos: &[(u32, u32)],
    input_pos: &[(u32, u32)],
    output_pos: &[(u32, u32)],
) -> f64 {
    let mut total = 0.0;
    // bounding box per net, extended by source, gate sinks, and PO pads
    let mut bbox: Vec<Option<(u32, u32, u32, u32)>> = vec![None; nl.num_nets()];
    let extend = |bbox: &mut Vec<Option<(u32, u32, u32, u32)>>, net: usize, p: (u32, u32)| {
        let entry = &mut bbox[net];
        *entry = Some(match *entry {
            None => (p.0, p.0, p.1, p.1),
            Some((lx, hx, ly, hy)) => (lx.min(p.0), hx.max(p.0), ly.min(p.1), hy.max(p.1)),
        });
    };
    let mut has_sink = vec![false; nl.num_nets()];
    for (gi, g) in nl.gates().iter().enumerate() {
        for &inp in &g.inputs {
            extend(&mut bbox, inp.index(), gate_pos[gi]);
            has_sink[inp.index()] = true;
        }
    }
    for (k, &(n, _)) in nl.outputs().iter().enumerate() {
        extend(&mut bbox, n.index(), output_pos[k]);
        has_sink[n.index()] = true;
    }
    for net_idx in 0..nl.num_nets() {
        if !has_sink[net_idx] {
            continue;
        }
        let net = NetId::from_index(net_idx);
        let src = net_source_pos(nl, gate_pos, input_pos, net);
        extend(&mut bbox, net_idx, src);
        if let Some((lx, hx, ly, hy)) = bbox[net_idx] {
            total += (hx - lx) as f64 + (hy - ly) as f64;
        }
    }
    total
}

/// Simulated annealing that re-costs the whole design after every swap.
pub(crate) fn place(nl: &Netlist, config: &PlacementConfig) -> Placement {
    let n = nl.num_gates();
    let side = (n as f64).sqrt().ceil() as u32;
    let width = side.max(2);
    let height = side.max(2);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // initial placement: row-major
    let mut gate_pos: Vec<(u32, u32)> = (0..n as u32).map(|i| (i % width, i / width)).collect();
    let input_pos: Vec<(u32, u32)> = (0..nl.inputs().len())
        .map(|k| {
            (
                0,
                (k as u32 * height.max(1)) / nl.inputs().len().max(1) as u32,
            )
        })
        .collect();
    let output_pos: Vec<(u32, u32)> = (0..nl.outputs().len())
        .map(|k| {
            (
                width.saturating_sub(1),
                (k as u32 * height.max(1)) / nl.outputs().len().max(1) as u32,
            )
        })
        .collect();

    let mut cost = total_hpwl(nl, &gate_pos, &input_pos, &output_pos);
    // an empty design has nothing to swap
    let steps = if n == 0 { 0 } else { config.steps };
    let mut temperature = config.initial_temperature;
    for _ in 0..steps {
        for _ in 0..config.moves_per_step {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            gate_pos.swap(a, b);
            let new_cost = total_hpwl(nl, &gate_pos, &input_pos, &output_pos);
            let delta = new_cost - cost;
            if delta <= 0.0 || rng.gen_bool((-delta / temperature).exp().clamp(0.0, 1.0)) {
                cost = new_cost;
            } else {
                gate_pos.swap(a, b); // revert
            }
        }
        temperature *= config.cooling;
    }
    Placement {
        width,
        height,
        gate_pos,
        input_pos,
        output_pos,
        hpwl: cost,
    }
}

mod tests {
    use super::*;
    use crate::place::{perturb_placement, place as place_incremental};
    use seceda_netlist::{c17, random_circuit, CellKind, RandomCircuitConfig};

    const QUICK: PlacementConfig = PlacementConfig {
        steps: 10,
        moves_per_step: 40,
        initial_temperature: 10.0,
        cooling: 0.9,
        seed: 0x0091_ACE5,
    };

    /// `place` equals the oracle on the whole placement, and its `hpwl`
    /// equals a from-scratch recompute on its final positions.
    fn assert_matches_oracle(nl: &Netlist, config: &PlacementConfig) {
        let p = place_incremental(nl, config);
        assert_eq!(p, place(nl, config), "{} under {config:?}", nl.name());
        let scratch = total_hpwl(nl, &p.gate_pos, &p.input_pos, &p.output_pos);
        assert_eq!(p.hpwl, scratch, "{}: final hpwl drifted", nl.name());
        let perturbed = perturb_placement(nl, &p, 1, 5);
        assert_eq!(
            perturbed.hpwl,
            total_hpwl(
                nl,
                &perturbed.gate_pos,
                &perturbed.input_pos,
                &perturbed.output_pos
            ),
            "{}: perturbed hpwl",
            nl.name()
        );
    }

    fn assert_matches_everywhere(nl: &Netlist) {
        for seed in [0x0091_ACE5, 1, 2, 3] {
            for config in [PlacementConfig::default(), QUICK] {
                assert_matches_oracle(nl, &PlacementConfig { seed, ..config });
            }
        }
    }

    /// Random circuits of 5–300 gates, with and without XOR; `band`
    /// picks every `BANDS`-th one so the sweep splits across tests.
    const CIRCUITS: u64 = 200;
    const BANDS: u64 = 4;

    fn random_sweep(band: u64) {
        for i in (band..CIRCUITS).step_by(BANDS as usize) {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 1 + (i as usize * 7) % 16,
                num_gates: 5 + (i as usize * 149) % 296,
                num_outputs: 1 + (i as usize * 5) % 8,
                with_xor: i % 2 == 0,
                seed: 0x5EED_0000 + i,
            });
            for config in [PlacementConfig::default(), QUICK] {
                assert_matches_oracle(&nl, &config);
            }
        }
    }

    #[test]
    fn random_circuits_match_the_oracle_band_0() {
        random_sweep(0);
    }

    #[test]
    fn random_circuits_match_the_oracle_band_1() {
        random_sweep(1);
    }

    #[test]
    fn random_circuits_match_the_oracle_band_2() {
        random_sweep(2);
    }

    #[test]
    fn random_circuits_match_the_oracle_band_3() {
        random_sweep(3);
    }

    #[test]
    fn c17_matches_the_oracle() {
        assert_matches_everywhere(&c17());
    }

    /// One design with every pin shape the pin table special-cases: a
    /// gate reading one net twice, a PO driven directly by a PI, a PO
    /// net that also feeds gates, a driver and its load sharing an
    /// input, an undriven net and a constant net.
    #[test]
    fn edge_shapes_match_the_oracle() {
        let mut nl = Netlist::new("edges");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let undriven = nl.add_net();
        let twice = nl.add_gate(CellKind::And, &[a, a]);
        let x = nl.add_gate(CellKind::Nand, &[a, b]);
        let y = nl.add_gate(CellKind::Or, &[x, a]); // x drives y; both read a
        let zero = nl.add_gate(CellKind::Const0, &[]);
        let z = nl.add_gate(CellKind::Xor, &[zero, undriven]);
        let w = nl.add_gate(CellKind::Mux, &[y, twice, z]);
        let _sinkless = nl.add_gate(CellKind::Not, &[c]);
        nl.mark_output(c, "pi_through");
        nl.mark_output(y, "y_also_feeds_w");
        nl.mark_output(w, "w");
        nl.mark_output(w, "w_again");
        assert_matches_everywhere(&nl);
    }

    #[test]
    fn each_edge_shape_alone_matches_the_oracle() {
        let mut designs = Vec::new();

        let mut nl = Netlist::new("reads_twice");
        let a = nl.add_input("a");
        let g = nl.add_gate(CellKind::Xor, &[a, a]);
        let h = nl.add_gate(CellKind::And, &[g, g]);
        nl.mark_output(h, "h");
        designs.push(nl);

        let mut nl = Netlist::new("pi_to_po");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(CellKind::Not, &[b]);
        nl.mark_output(a, "a");
        nl.mark_output(g, "g");
        designs.push(nl);

        let mut nl = Netlist::new("po_feeds_gates");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(CellKind::And, &[a, b]);
        let h = nl.add_gate(CellKind::Not, &[g]);
        let k = nl.add_gate(CellKind::Or, &[g, h]);
        nl.mark_output(g, "g");
        nl.mark_output(k, "k");
        designs.push(nl);

        let mut nl = Netlist::new("shared_net");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::Or, &[x, a]);
        nl.mark_output(y, "y");
        designs.push(nl);

        let mut nl = Netlist::new("undriven_and_constant");
        let a = nl.add_input("a");
        let floating = nl.add_net();
        let one = nl.add_gate(CellKind::Const1, &[]);
        let g = nl.add_gate(CellKind::And, &[a, floating]);
        let h = nl.add_gate(CellKind::Xnor, &[g, one]);
        nl.mark_output(h, "h");
        nl.mark_output(floating, "floating");
        designs.push(nl);

        let mut nl = Netlist::new("one_gate");
        let a = nl.add_input("a");
        let g = nl.add_gate(CellKind::Not, &[a]);
        nl.mark_output(g, "g");
        designs.push(nl);

        let mut nl = Netlist::new("zero_gates");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.mark_output(a, "a");
        nl.mark_output(b, "b");
        designs.push(nl);

        designs.push(Netlist::new("nothing"));

        for nl in &designs {
            assert_matches_everywhere(nl);
        }
    }

    #[test]
    fn an_empty_design_places_its_pads_only() {
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        nl.mark_output(a, "y");
        let p = place_incremental(&nl, &PlacementConfig::default());
        assert!(p.gate_pos.is_empty());
        assert_eq!((p.width, p.height), (2, 2));
        assert_eq!(p.input_pos, vec![(0, 0)]);
        assert_eq!(p.output_pos, vec![(1, 0)]);
        assert_eq!(p.hpwl, 1.0);
    }

    /// Designs of 1,000–2,000 gates: too slow for the oracle in a debug
    /// build, so run in release with `--ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --ignored"]
    fn large_circuits_match_the_oracle() {
        for i in 0..16u64 {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 8 + (i as usize * 5) % 40,
                num_gates: 1_000 + (i as usize * 137) % 1_001,
                num_outputs: 4 + (i as usize * 3) % 28,
                with_xor: i % 2 == 0,
                seed: 0x1A46_E000 + i,
            });
            for config in [PlacementConfig::default(), QUICK] {
                assert_matches_oracle(&nl, &config);
            }
        }
    }
}
