//! Fault models, simulated by [`FaultSim`](crate::FaultSim).
//!
//! Two consumers share them: *testing* (stuck-at faults graded by ATPG
//! patterns, Sec. III-F of the paper) and *fault-injection attacks*
//! (transient bit flips from laser/EM/glitch campaigns, Sec. II-A.2).

use seceda_netlist::{NetId, Netlist};

/// The kind of a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The net is permanently stuck at 0 (manufacturing defect model).
    StuckAt0,
    /// The net is permanently stuck at 1.
    StuckAt1,
    /// The net's value is inverted for the affected cycle(s) (transient
    /// fault, e.g. from a laser pulse).
    BitFlip,
}

/// A fault at a specific net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulty net.
    pub net: NetId,
    /// The fault behaviour.
    pub kind: FaultKind,
}

impl Fault {
    /// Convenience constructor for a stuck-at fault.
    pub fn stuck_at(net: NetId, value: bool) -> Self {
        Fault {
            net,
            kind: if value {
                FaultKind::StuckAt1
            } else {
                FaultKind::StuckAt0
            },
        }
    }

    /// Convenience constructor for a transient bit flip.
    pub fn flip(net: NetId) -> Self {
        Fault {
            net,
            kind: FaultKind::BitFlip,
        }
    }
}

/// Enumerates the collapsed single-stuck-at fault universe of a netlist:
/// both polarities at every net (primary inputs and gate outputs).
pub fn stuck_at_universe(nl: &Netlist) -> Vec<Fault> {
    // precomputed PI membership: the per-net `inputs().contains(..)` scan
    // was O(PIs) per net, quadratic on input-heavy designs
    let mut is_pi = vec![false; nl.num_nets()];
    for &pi in nl.inputs() {
        is_pi[pi.index()] = true;
    }
    let mut faults = Vec::with_capacity(nl.num_nets() * 2);
    for (idx, &pi) in is_pi.iter().enumerate() {
        let net = NetId::from_index(idx);
        // only consider observable nets: driven nets and primary inputs
        if nl.net(net).driver.is_some() || pi {
            faults.push(Fault::stuck_at(net, false));
            faults.push(Fault::stuck_at(net, true));
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSim;
    use seceda_netlist::{c17, CellKind};

    #[test]
    fn stuck_at_changes_output() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        // G22 output stuck at 1; apply the all-zero pattern whose good
        // G22 value is 0
        let g22_net = nl.outputs()[0].0;
        let fault = Fault::stuck_at(g22_net, true);
        assert_eq!(sim.coverage(&[vec![false; 5]], &[fault]).0, [true]);
    }

    #[test]
    fn bitflip_inverts() {
        let mut nl = Netlist::new("b");
        let a = nl.add_input("a");
        let y = nl.add_gate(CellKind::Buf, &[a]);
        nl.mark_output(y, "y");
        let sim = FaultSim::new(&nl).expect("sim");
        // one packed pattern in bit 0; y is the only output
        let y_word = sim.eval_outputs_with_faults(&[1u64], &[(Fault::flip(y), u64::MAX)])[0];
        assert_eq!(y_word & 1, 0);
        let y_word = sim.eval_outputs_with_faults(&[0u64], &[(Fault::flip(a), u64::MAX)])[0];
        assert_eq!(y_word & 1, 1);
    }

    #[test]
    fn undetectable_without_sensitization() {
        // y = a & b; stuck-at-0 on a is undetectable with b=0
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        let sim = FaultSim::new(&nl).expect("sim");
        let f = Fault::stuck_at(a, false);
        assert_eq!(sim.coverage(&[vec![true, false]], &[f]).0, [false]);
        assert_eq!(sim.coverage(&[vec![true, true]], &[f]).0, [true]);
    }

    #[test]
    fn exhaustive_patterns_reach_full_coverage_on_c17() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let (_, cov) = sim.coverage(&patterns, &faults);
        assert!(
            cov > 0.99,
            "c17 is fully testable with exhaustive patterns, got {cov}"
        );
    }

    #[test]
    fn empty_fault_list_is_full_coverage() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        let (det, cov) = sim.coverage(&[vec![false; 5]], &[]);
        assert!(det.is_empty());
        assert_eq!(cov, 1.0);
    }

    #[test]
    fn universe_covers_all_driven_nets() {
        let nl = c17();
        let faults = stuck_at_universe(&nl);
        // 5 PIs + 6 gate outputs = 11 nets, two polarities each
        assert_eq!(faults.len(), 22);
    }
}
