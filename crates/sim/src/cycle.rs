//! Zero-delay cycle-accurate simulation with full per-net visibility.

use crate::tape::Tape;
use seceda_netlist::{Netlist, NetlistError};

/// The recorded per-net values of a multi-cycle simulation.
///
/// `values[c][n]` is the value of net `n` during cycle `c` (after the
/// combinational logic settled, before the clock edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTrace {
    /// One vector of net values per simulated cycle.
    pub values: Vec<Vec<bool>>,
    /// Primary-output values per cycle.
    pub outputs: Vec<Vec<bool>>,
}

/// A reusable cycle simulator.
///
/// Compiles the netlist's evaluation tape once, then evaluates cycles
/// without re-deriving it — the hot path for trace acquisition in
/// side-channel experiments.
///
/// # Example
///
/// ```
/// use seceda_netlist::{Netlist, CellKind};
/// use seceda_sim::CycleSim;
///
/// let mut nl = Netlist::new("and");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate(CellKind::And, &[a, b]);
/// nl.mark_output(y, "y");
/// let mut sim = CycleSim::new(&nl)?;
/// let trace = sim.run(&[vec![true, true], vec![true, false]])?;
/// assert_eq!(trace.outputs, vec![vec![true], vec![false]]);
/// # Ok::<(), seceda_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CycleSim<'a> {
    nl: &'a Netlist,
    tape: Tape,
    state: Vec<bool>,
}

impl<'a> CycleSim<'a> {
    /// Builds a simulator for `nl` with the all-zero initial state.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let tape = Tape::new(nl)?;
        let state = vec![false; tape.num_dffs()];
        Ok(CycleSim { nl, tape, state })
    }

    /// Replaces the current DFF state.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match the number of DFFs.
    pub fn set_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// Current DFF state (one bit per DFF, in creation order).
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Evaluates one cycle: returns the value of every net and advances
    /// the DFF state.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input width.
    pub fn step_nets(&mut self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.nl.inputs().len() {
            return Err(NetlistError::WidthMismatch {
                expected: self.nl.inputs().len(),
                got: inputs.len(),
            });
        }
        let values = self.tape.eval(inputs, Some(&self.state), &[]);
        self.tape.next_state(&values, &mut self.state);
        Ok(values)
    }

    /// Runs a sequence of input vectors, recording all net values.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input width.
    pub fn run(&mut self, input_seq: &[Vec<bool>]) -> Result<SimTrace, NetlistError> {
        let mut values = Vec::with_capacity(input_seq.len());
        let mut outputs = Vec::with_capacity(input_seq.len());
        for inputs in input_seq {
            let v = self.step_nets(inputs)?;
            outputs.push(
                self.nl
                    .outputs()
                    .iter()
                    .map(|&(n, _)| v[n.index()])
                    .collect(),
            );
            values.push(v);
        }
        Ok(SimTrace { values, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::CellKind;

    /// 2-bit counter built from two DFFs.
    fn counter2() -> Netlist {
        let mut nl = Netlist::new("cnt2");
        let one = nl.add_gate(CellKind::Const1, &[]);
        // q0' = q0 ^ 1 ; q1' = q1 ^ q0
        let q0_fb = nl.add_net();
        let q1_fb = nl.add_net();
        let n0 = nl.add_gate(CellKind::Xor, &[q0_fb, one]);
        let n1 = nl.add_gate(CellKind::Xor, &[q1_fb, q0_fb]);
        let q0 = nl.add_gate(CellKind::Dff, &[n0]);
        let q1 = nl.add_gate(CellKind::Dff, &[n1]);
        let g0 = nl.net(n0).driver.expect("drv");
        let g1 = nl.net(n1).driver.expect("drv");
        nl.gate_mut(g0).inputs[0] = q0;
        nl.gate_mut(g1).inputs[0] = q1;
        nl.gate_mut(g1).inputs[1] = q0;
        nl.mark_output(q0, "q0");
        nl.mark_output(q1, "q1");
        nl
    }

    #[test]
    fn counter_counts() {
        let nl = counter2();
        let mut sim = CycleSim::new(&nl).expect("sim");
        let trace = sim.run(&vec![vec![]; 5]).expect("run");
        let seen: Vec<u8> = trace
            .outputs
            .iter()
            .map(|o| o[0] as u8 + 2 * (o[1] as u8))
            .collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn state_is_settable() {
        let nl = counter2();
        let mut sim = CycleSim::new(&nl).expect("sim");
        sim.set_state(&[true, true]);
        let trace = sim.run(&vec![vec![]; 1]).expect("run");
        assert_eq!(trace.outputs[0], vec![true, true]);
        assert_eq!(sim.state(), &[false, false]);
    }

    #[test]
    fn trace_has_all_nets() {
        let nl = counter2();
        let mut sim = CycleSim::new(&nl).expect("sim");
        let trace = sim.run(&vec![vec![]; 3]).expect("run");
        assert_eq!(trace.values.len(), 3);
        assert!(trace.values.iter().all(|v| v.len() == nl.num_nets()));
    }

    #[test]
    fn width_mismatch() {
        let nl = counter2();
        let mut sim = CycleSim::new(&nl).expect("sim");
        assert!(sim.run(&[vec![true]]).is_err());
    }
}
