//! Grid placement by simulated annealing.

use seceda_netlist::Netlist;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// A placed design: one grid cell per gate, primary inputs on the west
/// edge, primary outputs on the east edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Grid width (x dimension).
    pub width: u32,
    /// Grid height (y dimension).
    pub height: u32,
    /// Gate positions, indexed by gate index.
    pub gate_pos: Vec<(u32, u32)>,
    /// Primary-input pad positions, indexed by input order.
    pub input_pos: Vec<(u32, u32)>,
    /// Primary-output pad positions, indexed by output order.
    pub output_pos: Vec<(u32, u32)>,
    /// Final half-perimeter wirelength.
    pub hpwl: f64,
}

/// Annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Swap moves per temperature step.
    pub moves_per_step: usize,
    /// Number of temperature steps.
    pub steps: usize,
    /// Initial temperature (in HPWL units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            moves_per_step: 200,
            steps: 60,
            initial_temperature: 10.0,
            cooling: 0.9,
            seed: 0x0091_ACE5,
        }
    }
}

/// Where a net's signal enters the layout: its driver gate, a PI pad,
/// or the origin (undriven nets).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    Gate(usize),
    Input(usize),
    Origin,
}

impl Source {
    pub(crate) fn pos(self, gate_pos: &[(u32, u32)], input_pos: &[(u32, u32)]) -> (u32, u32) {
        match self {
            Source::Gate(g) => gate_pos[g],
            Source::Input(k) => input_pos[k],
            Source::Origin => (0, 0),
        }
    }
}

/// Every net's [`Source`], from one pass over the PIs and the nets (a
/// netlist's PIs are distinct and never gate-driven).
pub(crate) fn net_sources(nl: &Netlist) -> Vec<Source> {
    let mut sources = vec![Source::Origin; nl.num_nets()];
    for (k, &net) in nl.inputs().iter().enumerate() {
        sources[net.index()] = Source::Input(k);
    }
    for (i, net) in nl.nets().iter().enumerate() {
        if let Some(drv) = net.driver {
            sources[i] = Source::Gate(drv.index());
        }
    }
    sources
}

/// A bounding box; [`BBox::EMPTY`] until a point extends it.
#[derive(Debug, Clone, Copy)]
struct BBox {
    lx: u32,
    hx: u32,
    ly: u32,
    hy: u32,
}

impl BBox {
    const EMPTY: BBox = BBox {
        lx: u32::MAX,
        hx: 0,
        ly: u32::MAX,
        hy: 0,
    };

    fn extend(self, (x, y): (u32, u32)) -> BBox {
        BBox {
            lx: self.lx.min(x),
            hx: self.hx.max(x),
            ly: self.ly.min(y),
            hy: self.hy.max(y),
        }
    }

    fn half_perimeter(self) -> u64 {
        if self.lx > self.hx {
            return 0;
        }
        u64::from(self.hx - self.lx) + u64::from(self.hy - self.ly)
    }
}

/// The pins of every net, built once per placement. A net with at least
/// one sink (a gate input or a PO pad) costs the half-perimeter of the
/// box around its source, its sink gates and its PO pads; a sinkless net
/// costs nothing and has no pins. Pads and the origin never move, so
/// each net's fixed pins are folded into one box up front.
struct PinTable {
    /// Per net: the box around its PO pads and its PI-pad or origin
    /// source.
    fixed: Vec<BBox>,
    /// Per net: its sink gates and its driver gate (a repeat does not
    /// change a box).
    gates: Vec<Vec<u32>>,
    /// Per gate: the nets it reads or drives that have a sink, each once.
    touches: Vec<Vec<u32>>,
}

impl PinTable {
    fn new(nl: &Netlist, input_pos: &[(u32, u32)], output_pos: &[(u32, u32)]) -> Self {
        let mut fixed = vec![BBox::EMPTY; nl.num_nets()];
        let mut gates: Vec<Vec<u32>> = vec![Vec::new(); nl.num_nets()];
        let mut has_sink = vec![false; nl.num_nets()];
        for (gi, g) in nl.gates().iter().enumerate() {
            for &inp in &g.inputs {
                gates[inp.index()].push(gi as u32);
                has_sink[inp.index()] = true;
            }
        }
        for (k, &(n, _)) in nl.outputs().iter().enumerate() {
            fixed[n.index()] = fixed[n.index()].extend(output_pos[k]);
            has_sink[n.index()] = true;
        }
        for (net, source) in net_sources(nl).into_iter().enumerate() {
            if !has_sink[net] {
                continue;
            }
            match source {
                Source::Gate(g) => gates[net].push(g as u32),
                Source::Input(k) => fixed[net] = fixed[net].extend(input_pos[k]),
                Source::Origin => fixed[net] = fixed[net].extend((0, 0)),
            }
        }
        let touches = nl
            .gates()
            .iter()
            .map(|g| {
                let mut nets: Vec<u32> = g
                    .inputs
                    .iter()
                    .chain([&g.output])
                    .filter(|n| has_sink[n.index()])
                    .map(|n| n.index() as u32)
                    .collect();
                nets.sort_unstable();
                nets.dedup();
                nets
            })
            .collect();
        PinTable {
            fixed,
            gates,
            touches,
        }
    }

    fn num_nets(&self) -> usize {
        self.fixed.len()
    }

    /// HPWL of `net` under `gate_pos`: O(pins of the net).
    fn net_hpwl(&self, net: usize, gate_pos: &[(u32, u32)]) -> u64 {
        self.gates[net]
            .iter()
            .fold(self.fixed[net], |b, &g| b.extend(gate_pos[g as usize]))
            .half_perimeter()
    }
}

/// Computes total HPWL of all nets under the given gate positions.
pub(crate) fn total_hpwl(
    nl: &Netlist,
    gate_pos: &[(u32, u32)],
    input_pos: &[(u32, u32)],
    output_pos: &[(u32, u32)],
) -> f64 {
    let pins = PinTable::new(nl, input_pos, output_pos);
    (0..pins.num_nets())
        .map(|net| pins.net_hpwl(net, gate_pos))
        .sum::<u64>() as f64
}

/// Places `nl` on a square grid, minimizing HPWL with simulated
/// annealing.
///
/// Each move swaps two gates and re-costs only the nets those two gates
/// touch, so a move costs O(pins of the touched nets), not O(design).
/// Net costs are integers, so the move's wirelength delta is exactly the
/// one a full recompute yields: the accept decisions, and the returned
/// placement with its `hpwl`, are bit-identical to re-costing the whole
/// design after every swap. A netlist without gates gets its pads
/// placed and is not annealed.
pub fn place(nl: &Netlist, config: &PlacementConfig) -> Placement {
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

    let pins = PinTable::new(nl, &input_pos, &output_pos);
    let mut net_cost: Vec<u64> = (0..pins.num_nets())
        .map(|net| pins.net_hpwl(net, &gate_pos))
        .collect();
    let mut cost: u64 = net_cost.iter().sum();
    let mut recosted: Vec<(usize, u64)> = Vec::new();
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
            recosted.clear();
            let mut delta = 0i64;
            // a net both gates touch has both as pins: the swap exchanges
            // two of its points, so it re-costs to its old cost, twice
            for &net in pins.touches[a].iter().chain(&pins.touches[b]) {
                let net = net as usize;
                let c = pins.net_hpwl(net, &gate_pos);
                delta += c as i64 - net_cost[net] as i64;
                recosted.push((net, c));
            }
            if delta <= 0 || rng.gen_bool((-(delta as f64) / temperature).exp().clamp(0.0, 1.0)) {
                cost = cost.wrapping_add_signed(delta);
                for &(net, c) in &recosted {
                    net_cost[net] = c;
                }
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
        hpwl: cost as f64,
    }
}

/// The placement-perturbation defense \[54\]: each gate is moved by a
/// uniform offset in `[-radius, radius]²` (clamped to the grid),
/// deliberately destroying the placement locality the proximity attack
/// feeds on. Returns the perturbed placement with its (worse) HPWL.
pub fn perturb_placement(nl: &Netlist, placement: &Placement, radius: u32, seed: u64) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perturbed = placement.clone();
    let r = radius as i64;
    for pos in &mut perturbed.gate_pos {
        let dx = rng.gen_range(-r..=r);
        let dy = rng.gen_range(-r..=r);
        pos.0 = (pos.0 as i64 + dx).clamp(0, placement.width as i64 - 1) as u32;
        pos.1 = (pos.1 as i64 + dy).clamp(0, placement.height as i64 - 1) as u32;
    }
    perturbed.hpwl = total_hpwl(
        nl,
        &perturbed.gate_pos,
        &perturbed.input_pos,
        &perturbed.output_pos,
    );
    perturbed
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, random_circuit, RandomCircuitConfig};

    #[test]
    fn placement_covers_all_gates() {
        let nl = c17();
        let p = place(&nl, &PlacementConfig::default());
        assert_eq!(p.gate_pos.len(), nl.num_gates());
        assert!(p.gate_pos.iter().all(|&(x, y)| x < p.width && y < p.height));
        assert!(p.hpwl > 0.0);
    }

    #[test]
    fn annealing_improves_over_initial() {
        let nl = random_circuit(&RandomCircuitConfig {
            num_gates: 80,
            num_inputs: 8,
            num_outputs: 4,
            ..RandomCircuitConfig::default()
        });
        let quick = place(
            &nl,
            &PlacementConfig {
                steps: 0,
                ..PlacementConfig::default()
            },
        );
        let full = place(&nl, &PlacementConfig::default());
        assert!(
            full.hpwl < quick.hpwl,
            "annealing should beat row-major: {} vs {}",
            full.hpwl,
            quick.hpwl
        );
    }

    #[test]
    fn perturbation_degrades_wirelength() {
        let nl = random_circuit(&RandomCircuitConfig {
            num_gates: 80,
            num_inputs: 8,
            num_outputs: 4,
            ..RandomCircuitConfig::default()
        });
        let p = place(&nl, &PlacementConfig::default());
        let q = perturb_placement(&nl, &p, 4, 77);
        assert!(q.hpwl > p.hpwl, "perturbation costs wirelength");
        assert!(q.gate_pos.iter().all(|&(x, y)| x < q.width && y < q.height));
    }

    #[test]
    fn deterministic_for_seed() {
        let nl = c17();
        let a = place(&nl, &PlacementConfig::default());
        let b = place(&nl, &PlacementConfig::default());
        assert_eq!(a, b);
    }
}
