//! Fault models and fault simulation.
//!
//! Two consumers share this module: *testing* (stuck-at faults graded by
//! ATPG patterns, Sec. III-F of the paper) and *fault-injection attacks*
//! (transient bit flips from laser/EM/glitch campaigns, Sec. II-A.2).

use crate::packed_fault::PackedFaultSim;
use seceda_netlist::{NetId, Netlist, NetlistError};
use std::sync::{Arc, Mutex};

/// Cached good-circuit packed values of one pattern (see
/// [`FaultSim::detects`]).
type GoodCache = Mutex<Option<(Vec<bool>, Arc<Vec<u64>>)>>;

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

/// Combinational fault simulator.
///
/// Scalar fault injection ([`FaultSim::eval_with_faults`]) stays
/// available for transient multi-fault campaigns; the grading entry
/// points ([`FaultSim::detects`], [`FaultSim::coverage`]) delegate to
/// the bit-parallel, fault-dropping [`PackedFaultSim`] engine and are
/// bit-identical to the retained scalar reference
/// ([`FaultSim::coverage_scalar`]).
#[derive(Debug)]
pub struct FaultSim<'a> {
    nl: &'a Netlist,
    engine: PackedFaultSim<'a>,
    /// Packed good values of the most recent [`FaultSim::detects`]
    /// pattern: a detect-loop over a fault list simulates the good
    /// circuit once instead of once per fault.
    good_cache: GoodCache,
}

impl Clone for FaultSim<'_> {
    fn clone(&self) -> Self {
        FaultSim {
            nl: self.nl,
            engine: self.engine.clone(),
            good_cache: Mutex::new(None),
        }
    }
}

impl<'a> FaultSim<'a> {
    /// Builds a fault simulator for a combinational netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(FaultSim {
            engine: PackedFaultSim::new(nl)?,
            good_cache: Mutex::new(None),
            nl,
        })
    }

    /// The packed grading engine backing this simulator.
    pub fn engine(&self) -> &PackedFaultSim<'a> {
        &self.engine
    }

    /// Evaluates all nets under `inputs` with `faults` active.
    ///
    /// Faults take effect at the moment the net is assigned: input faults
    /// corrupt the applied stimulus, gate-output faults corrupt the
    /// computed value, and the last fault listed for a net wins. DFF
    /// outputs are zero pseudo-inputs that are never assigned, so a fault
    /// there has no effect.
    ///
    /// # Panics
    ///
    /// Panics on input width mismatch.
    pub fn eval_with_faults(&self, inputs: &[bool], faults: &[Fault]) -> Vec<bool> {
        self.engine.tape().eval(inputs, None, faults)
    }

    /// Extracts primary outputs from a per-net value vector.
    pub fn outputs(&self, values: &[bool]) -> Vec<bool> {
        self.nl
            .outputs()
            .iter()
            .map(|&(n, _)| values[n.index()])
            .collect()
    }

    /// Returns `true` if `pattern` *detects* `fault`: the faulty outputs
    /// differ from the good outputs.
    ///
    /// The good circuit's packed values are cached per pattern, so a
    /// loop over a fault list with a fixed pattern simulates the good
    /// circuit once; the faulty side re-evaluates only the fault's
    /// fan-out cone.
    pub fn detects(&self, pattern: &[bool], fault: Fault) -> bool {
        let good = {
            let mut cache = self.good_cache.lock().expect("good cache poisoned");
            match cache.as_ref() {
                Some((p, good)) if p == pattern => Arc::clone(good),
                _ => {
                    let good = Arc::new(self.engine.good_values(pattern));
                    *cache = Some((pattern.to_vec(), Arc::clone(&good)));
                    good
                }
            }
        };
        self.engine.detects_given_good(&good, fault)
    }

    /// Scalar reference for [`FaultSim::detects`]: two full circuit
    /// evaluations, no caching. Kept for differential testing.
    pub fn detects_scalar(&self, pattern: &[bool], fault: Fault) -> bool {
        let good = self.outputs(&self.eval_with_faults(pattern, &[]));
        let bad = self.outputs(&self.eval_with_faults(pattern, &[fault]));
        good != bad
    }

    /// Grades a pattern set against a fault list; returns, per fault,
    /// whether any pattern detects it, plus the overall coverage fraction.
    ///
    /// Delegates to the bit-parallel, fault-dropping, cone-restricted
    /// [`PackedFaultSim`]; the result is bit-identical to
    /// [`FaultSim::coverage_scalar`].
    pub fn coverage(&self, patterns: &[Vec<bool>], faults: &[Fault]) -> (Vec<bool>, f64) {
        self.engine.coverage(patterns, faults)
    }

    /// The scalar reference grader: re-simulates the whole netlist for
    /// every (pattern, fault) pair. O(patterns × faults × gates) — kept
    /// as the differential-testing and benchmarking baseline for
    /// [`FaultSim::coverage`].
    pub fn coverage_scalar(&self, patterns: &[Vec<bool>], faults: &[Fault]) -> (Vec<bool>, f64) {
        let mut sp = seceda_trace::span("sim.fault_coverage");
        sp.attr("patterns", patterns.len());
        sp.attr("faults", faults.len());
        sp.attr("engine", "scalar");
        let good_outputs: Vec<Vec<bool>> = patterns
            .iter()
            .map(|p| self.outputs(&self.eval_with_faults(p, &[])))
            .collect();
        let detected: Vec<bool> = faults
            .iter()
            .map(|&f| {
                patterns.iter().zip(&good_outputs).any(|(p, good)| {
                    let bad = self.outputs(&self.eval_with_faults(p, &[f]));
                    &bad != good
                })
            })
            .collect();
        let num_detected = detected.iter().filter(|&&d| d).count();
        let frac = if faults.is_empty() {
            1.0
        } else {
            num_detected as f64 / faults.len() as f64
        };
        seceda_trace::counter("sim.patterns_simulated", patterns.len() as u64);
        seceda_trace::counter("sim.faults_detected", num_detected as u64);
        sp.attr("coverage", frac);
        (detected, frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, CellKind};

    #[test]
    fn stuck_at_changes_output() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        // G22 output stuck at 1; apply the all-zero pattern whose good
        // G22 value is 0
        let g22_net = nl.outputs()[0].0;
        let fault = Fault::stuck_at(g22_net, true);
        assert!(sim.detects(&[false; 5], fault));
    }

    #[test]
    fn bitflip_inverts() {
        let mut nl = Netlist::new("b");
        let a = nl.add_input("a");
        let y = nl.add_gate(CellKind::Buf, &[a]);
        nl.mark_output(y, "y");
        let sim = FaultSim::new(&nl).expect("sim");
        let v = sim.eval_with_faults(&[true], &[Fault::flip(y)]);
        assert!(!v[y.index()]);
        let v = sim.eval_with_faults(&[false], &[Fault::flip(a)]);
        assert!(v[y.index()]);
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
        assert!(!sim.detects(&[true, false], f));
        assert!(sim.detects(&[true, true], f));
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
