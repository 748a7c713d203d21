//! Split manufacturing: FEOL/BEOL partition, the proximity attack, and
//! the wire-lifting defense.
//!
//! The untrusted foundry receives the FEOL: all gates, the wires routed
//! entirely below the split layer, and — crucially — the *partial
//! routes* of cut wires: each cut connection ascends through the lower
//! metal layers toward its partner before being severed, leaving a via
//! stub. The proximity attack \[52\] pairs up stubs by distance; it works
//! because the stubs of a true connection approach each other. The
//! wire-lifting defense \[53\] routes security-critical nets higher, so
//! their stubs stay near the endpoints and give less away; placement
//! perturbation \[54\] adds confusion at the source.

use crate::route::{RoutedDesign, Wire};
use seceda_netlist::{NetId, Netlist};

/// A cut connection as the foundry sees it: the via stubs where the
/// partial routes stop at the split layer.
#[derive(Debug, Clone, PartialEq)]
pub struct HiddenWire {
    /// The underlying (ground truth) wire.
    pub wire: Wire,
    /// Where the source-side partial route ends.
    pub source_stub: (f64, f64),
    /// Where the sink-side partial route ends.
    pub sink_stub: (f64, f64),
}

/// The foundry's view after the split.
#[derive(Debug, Clone, PartialEq)]
pub struct FeolView {
    /// Wires fully visible to the foundry (below the split layer).
    pub visible: Vec<Wire>,
    /// Cut connections with their via stubs — the ground truth the
    /// attacker tries to recover.
    pub hidden: Vec<HiddenWire>,
    /// The split layer used.
    pub split_layer: u8,
}

fn lerp(a: (u32, u32), b: (u32, u32), t: f64) -> (f64, f64) {
    (
        a.0 as f64 + (b.0 as f64 - a.0 as f64) * t,
        a.1 as f64 + (b.1 as f64 - a.1 as f64) * t,
    )
}

/// Splits a routed design at `split_layer`: wires on `layer >=
/// split_layer` are cut. The partial-route fraction of a cut wire is
/// `(split_layer - 1) / layer` of its Manhattan path, half from each
/// end — a wire far above the split leaves stubs near its endpoints,
/// one just above it leaves stubs near the midpoint.
pub fn split_at(routed: &RoutedDesign, split_layer: u8) -> FeolView {
    let mut visible = Vec::new();
    let mut hidden = Vec::new();
    for w in &routed.wires {
        if w.layer < split_layer {
            visible.push(w.clone());
        } else {
            let alpha = if w.layer == 0 {
                0.0
            } else {
                (split_layer.saturating_sub(1)) as f64 / (2.0 * w.layer as f64)
            };
            hidden.push(HiddenWire {
                source_stub: lerp(w.from, w.to, alpha),
                sink_stub: lerp(w.to, w.from, alpha),
                wire: w.clone(),
            });
        }
    }
    FeolView {
        visible,
        hidden,
        split_layer,
    }
}

/// The wire-lifting defense \[53\]: promotes the wires of the given nets
/// to the top layer so their stubs reveal as little as possible.
/// Returns the modified routed design and the extra (via stack)
/// wirelength cost.
pub fn lift_wires(routed: &RoutedDesign, nets: &[NetId], top_layer: u8) -> (RoutedDesign, u64) {
    let mut lifted = routed.clone();
    let mut extra = 0u64;
    for w in &mut lifted.wires {
        if nets.contains(&w.net) && w.layer < top_layer {
            extra += (top_layer - w.layer) as u64;
            w.layer = top_layer;
        }
    }
    lifted.total_length += extra;
    (lifted, extra)
}

/// Result of a proximity attack.
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityResult {
    /// For each hidden connection (in [`FeolView::hidden`] order), the
    /// net whose source stub the attacker paired with its sink stub.
    pub guesses: Vec<NetId>,
    /// Number of correctly recovered connections.
    pub correct: usize,
    /// Correct-connection rate: `correct / hidden`.
    pub ccr: f64,
}

/// The proximity attack \[52\]: pair every sink stub with the closest
/// source stub. A guess is correct when the paired source stub belongs
/// to the true net.
pub fn proximity_attack(nl: &Netlist, view: &FeolView) -> ProximityResult {
    let _ = nl;
    // the foundry sees each stub's via-stack height (= wire layer), so
    // only stubs on the same layer are plausible partners
    let sources: Vec<(NetId, u8, (f64, f64))> = view
        .hidden
        .iter()
        .map(|h| (h.wire.net, h.wire.layer, h.source_stub))
        .collect();
    let mut guesses = Vec::with_capacity(view.hidden.len());
    let mut correct = 0usize;
    for h in &view.hidden {
        let sink = h.sink_stub;
        let mut best_net = NetId::from_index(0);
        let mut best_d = f64::INFINITY;
        for &(net, layer, (sx, sy)) in &sources {
            if layer != h.wire.layer {
                continue;
            }
            let d = (sx - sink.0).abs() + (sy - sink.1).abs();
            if d < best_d {
                best_d = d;
                best_net = net;
            }
        }
        if best_net == h.wire.net {
            correct += 1;
        }
        guesses.push(best_net);
    }
    let ccr = if view.hidden.is_empty() {
        1.0
    } else {
        correct as f64 / view.hidden.len() as f64
    };
    ProximityResult {
        guesses,
        correct,
        ccr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{perturb_placement, place, PlacementConfig};
    use crate::route::{route, RouteConfig};
    use seceda_netlist::{random_circuit, RandomCircuitConfig};

    fn workload() -> (Netlist, RoutedDesign) {
        let nl = random_circuit(&RandomCircuitConfig {
            num_gates: 120,
            num_inputs: 10,
            num_outputs: 6,
            ..RandomCircuitConfig::default()
        });
        let p = place(&nl, &PlacementConfig::default());
        let r = route(&nl, &p, &RouteConfig::default());
        (nl, r)
    }

    #[test]
    fn split_partitions_all_wires() {
        let (_, r) = workload();
        let view = split_at(&r, 3);
        assert_eq!(view.visible.len() + view.hidden.len(), r.wires.len());
        assert!(view.visible.iter().all(|w| w.layer < 3));
        assert!(view.hidden.iter().all(|h| h.wire.layer >= 3));
    }

    #[test]
    fn lower_split_hides_more() {
        let (_, r) = workload();
        let high = split_at(&r, 5);
        let low = split_at(&r, 2);
        // both views partition the same wires, so more hidden is a larger
        // hidden fraction
        assert!(low.hidden.len() > high.hidden.len());
    }

    #[test]
    fn stubs_converge_for_barely_hidden_wires() {
        let (_, r) = workload();
        let view = split_at(&r, 3);
        for h in &view.hidden {
            let gap =
                (h.source_stub.0 - h.sink_stub.0).abs() + (h.source_stub.1 - h.sink_stub.1).abs();
            let full = h.wire.length as f64;
            assert!(gap <= full + 1e-9, "stub gap cannot exceed wire length");
            if h.wire.layer == 3 && h.wire.length > 0 {
                assert!(gap < full, "partial routes must have approached each other");
            }
        }
    }

    #[test]
    fn proximity_attack_beats_chance_on_optimized_placement() {
        let (nl, r) = workload();
        let view = split_at(&r, 5);
        assert!(!view.hidden.is_empty(), "need hidden wires to attack");
        let result = proximity_attack(&nl, &view);
        // random guessing among the hidden sources would land around
        // 1/|hidden|; the attack must do far better
        let chance = 1.0 / view.hidden.len() as f64;
        assert!(
            result.ccr > 0.25 && result.ccr > 4.0 * chance,
            "proximity attack should exploit stub locality: ccr = {} (chance {chance})",
            result.ccr
        );
    }

    #[test]
    fn splitting_lower_is_more_secure() {
        // the headline step-metric of the split-manufacturing literature:
        // the lower the split layer, the lower the attacker's CCR
        let (nl, r) = workload();
        let ccr_low = proximity_attack(&nl, &split_at(&r, 2)).ccr;
        let ccr_high = proximity_attack(&nl, &split_at(&r, 5)).ccr;
        assert!(
            ccr_low < ccr_high,
            "lower split must hurt the attacker: {ccr_low} vs {ccr_high}"
        );
    }

    #[test]
    fn perturbation_lowers_attack_accuracy() {
        let (nl, r) = workload();
        let view = split_at(&r, 3);
        let base = proximity_attack(&nl, &view);
        let perturbed = perturb_placement(&nl, &r.placement, 5, 99);
        let r2 = route(&nl, &perturbed, &RouteConfig::default());
        let view2 = split_at(&r2, 3);
        let attacked = proximity_attack(&nl, &view2);
        assert!(
            attacked.ccr < base.ccr,
            "perturbation must hurt the attack: {} vs {}",
            attacked.ccr,
            base.ccr
        );
    }

    #[test]
    fn lifting_lowers_attack_accuracy_on_lifted_nets() {
        let (nl, r) = workload();
        let view = split_at(&r, 3);
        let base = proximity_attack(&nl, &view);
        // lift every net that was hidden: stubs retreat to the endpoints
        let hidden_nets: Vec<NetId> = view.hidden.iter().map(|h| h.wire.net).collect();
        let (lifted, extra) = lift_wires(&r, &hidden_nets, 6);
        assert!(extra > 0, "lifting must cost vias");
        let view2 = split_at(&lifted, 3);
        let attacked = proximity_attack(&nl, &view2);
        assert!(
            attacked.ccr < base.ccr,
            "lifting must hurt the attack: {} vs {}",
            attacked.ccr,
            base.ccr
        );
    }

    #[test]
    fn empty_hidden_set_is_trivially_safe() {
        let (nl, r) = workload();
        let view = split_at(&r, 7); // above the top layer
        assert!(view.hidden.is_empty());
        let result = proximity_attack(&nl, &view);
        assert_eq!(result.ccr, 1.0);
        assert_eq!(result.correct, 0);
    }
}
