//! Layer-assigned global routing on top of a placement.
//!
//! Each driver→sink connection becomes a [`Wire`] with a Manhattan length
//! and a metal-layer assignment: short wires on the lowest layers, longer
//! wires promoted upward — the standard layer-by-length discipline that
//! split manufacturing (see [`crate::split`]) cuts through.

use crate::place::{net_sources, Placement};
use seceda_netlist::{NetId, Netlist};

/// One point-to-point connection of the routed design.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// The logical net this wire belongs to.
    pub net: NetId,
    /// Source position (driver gate or input pad).
    pub from: (u32, u32),
    /// Sink position (loading gate or output pad).
    pub to: (u32, u32),
    /// The sink: gate index, or `None` for a primary-output pad.
    pub sink_gate: Option<usize>,
    /// Manhattan length.
    pub length: u32,
    /// Assigned metal layer (1 = lowest).
    pub layer: u8,
}

/// Routing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteConfig {
    /// Number of metal layers available.
    pub num_layers: u8,
    /// Wires of length `< quantum` go on layer 1, `< 2*quantum` on
    /// layer 2, and so on.
    pub layer_quantum: u32,
    /// Congestion-driven layer variation: each wire's layer is shifted
    /// by -1/0/+1 pseudo-randomly (deterministic per wire), as real
    /// routers promote/demote wires to resolve congestion. Without it,
    /// layers are a pure function of length — and a layer-based split
    /// would hide only long wires.
    pub congestion_jitter: bool,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            num_layers: 6,
            layer_quantum: 2,
            congestion_jitter: true,
        }
    }
}

/// A routed design: placement plus wires.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedDesign {
    /// The underlying placement.
    pub placement: Placement,
    /// All point-to-point wires.
    pub wires: Vec<Wire>,
    /// Total wirelength.
    pub total_length: u64,
}

/// Routes `nl` under `placement`.
pub fn route(nl: &Netlist, placement: &Placement, config: &RouteConfig) -> RoutedDesign {
    let mut wires = Vec::new();
    let mut total = 0u64;
    let sources = net_sources(nl);
    let source_pos =
        |net: NetId| sources[net.index()].pos(&placement.gate_pos, &placement.input_pos);
    let mut push = |net: NetId, to: (u32, u32), sink_gate: Option<usize>, wires: &mut Vec<Wire>| {
        let from = source_pos(net);
        let length = from.0.abs_diff(to.0) + from.1.abs_diff(to.1);
        let mut layer = ((length / config.layer_quantum.max(1)) + 1) as i32;
        if config.congestion_jitter {
            let h = (net.index() as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(wires.len() as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            layer += ((h >> 17) % 3) as i32 - 1;
        }
        let layer = layer.clamp(1, config.num_layers as i32) as u8;
        total += length as u64;
        wires.push(Wire {
            net,
            from,
            to,
            sink_gate,
            length,
            layer,
        });
    };
    for (gi, g) in nl.gates().iter().enumerate() {
        for &inp in &g.inputs {
            push(inp, placement.gate_pos[gi], Some(gi), &mut wires);
        }
    }
    for (k, &(n, _)) in nl.outputs().iter().enumerate() {
        push(n, placement.output_pos[k], None, &mut wires);
    }
    RoutedDesign {
        placement: placement.clone(),
        wires,
        total_length: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlacementConfig};
    use seceda_netlist::c17;

    fn routed_c17() -> (Netlist, RoutedDesign) {
        let nl = c17();
        let p = place(&nl, &PlacementConfig::default());
        let r = route(&nl, &p, &RouteConfig::default());
        (nl, r)
    }

    #[test]
    fn every_gate_input_gets_a_wire() {
        let (nl, r) = routed_c17();
        let expected: usize =
            nl.gates().iter().map(|g| g.inputs.len()).sum::<usize>() + nl.outputs().len();
        assert_eq!(r.wires.len(), expected);
    }

    #[test]
    fn layer_grows_with_length() {
        let (_, r) = routed_c17();
        for w in &r.wires {
            assert!(w.layer >= 1 && w.layer <= 6);
            if w.length == 0 {
                assert!(w.layer <= 2, "zero-length wire jitters at most one up");
            }
        }
        // without jitter, layer is monotone in length
        let nl = c17();
        let p = place(&nl, &PlacementConfig::default());
        let plain = route(
            &nl,
            &p,
            &RouteConfig {
                congestion_jitter: false,
                ..RouteConfig::default()
            },
        );
        let mut by_len: Vec<&Wire> = plain.wires.iter().collect();
        by_len.sort_by_key(|w| w.length);
        for pair in by_len.windows(2) {
            assert!(pair[0].layer <= pair[1].layer);
        }
    }

    #[test]
    fn total_length_is_sum() {
        let (_, r) = routed_c17();
        let sum: u64 = r.wires.iter().map(|w| w.length as u64).sum();
        assert_eq!(r.total_length, sum);
    }
}
