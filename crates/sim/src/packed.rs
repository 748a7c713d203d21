//! Bit-parallel simulation: 64 input patterns per pass.
//!
//! Each net carries a `u64` whose bit *k* is the net's value under pattern
//! *k*. This is the standard trick that makes statistical analyses (signal
//! probabilities, MERO N-detect test generation, fault grading) tractable.

use crate::simword::SimWord;
use crate::tape::Tape;
use seceda_netlist::{Netlist, NetlistError};

/// Bit-parallel combinational simulator.
///
/// # Example
///
/// ```
/// use seceda_netlist::{Netlist, CellKind};
/// use seceda_sim::PackedSim;
///
/// let mut nl = Netlist::new("xor");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate(CellKind::Xor, &[a, b]);
/// nl.mark_output(y, "y");
/// let sim = PackedSim::new(&nl)?;
/// // pattern 0: a=0,b=0; pattern 1: a=1,b=0; pattern 2: a=0,b=1; pattern 3: a=1,b=1
/// let nets = sim.eval(&[0b1010, 0b1100]);
/// assert_eq!(sim.outputs(&nets)[0] & 0b1111, 0b0110);
/// # Ok::<(), seceda_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedSim<'a> {
    nl: &'a Netlist,
    tape: Tape,
}

impl<'a> PackedSim<'a> {
    /// Builds a packed simulator.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(PackedSim {
            nl,
            tape: Tape::new(nl)?,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// Evaluates 64 patterns at once.
    ///
    /// `inputs[k]` is the packed word of primary input *k* (bit *p* =
    /// value of that input under pattern *p*). DFF outputs are treated as
    /// constant-zero pseudo-inputs; use [`PackedSim::eval_with_state`] to
    /// drive them.
    ///
    /// Returns a packed word per net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the number of primary inputs.
    pub fn eval(&self, inputs: &[u64]) -> Vec<u64> {
        self.tape.eval(inputs, None, &[])
    }

    /// Evaluates 64 patterns with explicit packed DFF state.
    ///
    /// # Panics
    ///
    /// Panics on input/state width mismatch.
    pub fn eval_with_state(&self, inputs: &[u64], state: &[u64]) -> Vec<u64> {
        self.tape.eval(inputs, Some(state), &[])
    }

    /// Extracts the packed primary-output words from a per-net vector
    /// returned by [`PackedSim::eval`].
    pub fn outputs(&self, net_values: &[u64]) -> Vec<u64> {
        self.nl
            .outputs()
            .iter()
            .map(|&(n, _)| net_values[n.index()])
            .collect()
    }
}

/// Packs scalar pattern bits into input words of any lane width:
/// `patterns[p][k]` is the value of input *k* under pattern *p*, stored
/// in bit *p* of word *k* (at most `W::BITS` patterns).
///
/// # Panics
///
/// Panics if more than `W::BITS` patterns are supplied, or on pattern
/// width mismatch.
pub fn pack_patterns<W: SimWord>(patterns: &[Vec<bool>], num_inputs: usize) -> Vec<W> {
    assert!(
        patterns.len() <= W::BITS,
        "at most {} patterns per packed word",
        W::BITS
    );
    let mut words = vec![W::ZERO; num_inputs];
    for (p, pat) in patterns.iter().enumerate() {
        assert_eq!(pat.len(), num_inputs, "pattern width mismatch");
        let (lane, bit) = (p / 64, p % 64);
        for (w, _) in words.iter_mut().zip(pat).filter(|(_, &b)| b) {
            *w = w.with_lane(lane, w.lane(lane) | (1u64 << bit));
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::c17;

    #[test]
    fn packed_matches_scalar_on_c17() {
        let nl = c17();
        let sim = PackedSim::new(&nl).expect("sim");
        // all 32 input patterns of c17 in one packed pass
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let words = pack_patterns(&patterns, 5);
        let nets = sim.eval(&words);
        let outs = sim.outputs(&nets);
        for (p, pat) in patterns.iter().enumerate() {
            let scalar = nl.evaluate(pat);
            for (o, &word) in outs.iter().enumerate() {
                assert_eq!((word >> p) & 1 == 1, scalar[o], "pattern {p} output {o}");
            }
        }
    }

    #[test]
    fn constants_and_mux() {
        use seceda_netlist::CellKind;
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let zero = nl.add_gate(CellKind::Const0, &[]);
        let one = nl.add_gate(CellKind::Const1, &[]);
        let y = nl.add_gate(CellKind::Mux, &[s, zero, one]);
        nl.mark_output(y, "y");
        let sim = PackedSim::new(&nl).expect("sim");
        let nets = sim.eval(&[0b10]);
        let outs = sim.outputs(&nets);
        assert_eq!(outs[0] & 0b11, 0b10);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_patterns_rejected() {
        let patterns = vec![vec![false]; 65];
        pack_patterns::<u64>(&patterns, 1);
    }
}
