//! Scan-chain insertion and shift/capture simulation.
//!
//! Mux-scan: every DFF's data input is replaced by
//! `scan_enable ? previous_chain_bit : functional_data`; the last DFF
//! output is exported as `scan_out`. With `scan_enable` high the
//! registers form a shift register fully controllable and observable
//! from the outside — which is exactly the security problem
//! [`crate::scan_attack`] demonstrates.

use seceda_netlist::{CellKind, GateId, GateTags, NetId, Netlist};

/// A scan-inserted design.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanChain {
    /// The modified netlist, with new inputs `scan_enable`, `scan_in`
    /// and a new output `scan_out`.
    pub netlist: Netlist,
    /// DFF gate ids in chain order (scan_in feeds the first; the last
    /// drives scan_out).
    pub chain: Vec<GateId>,
    /// The `scan_enable` input net.
    pub scan_enable: NetId,
    /// The `scan_in` input net.
    pub scan_in: NetId,
}

impl ScanChain {
    /// Chain length (number of scan flops).
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// `true` if the design had no DFFs.
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// Shifts `bits` into the chain (LSB first ends up in the *last*
    /// flop), starting from `state`; returns the new state. Functional
    /// inputs are held at `held_inputs`.
    pub fn shift_in(&self, state: &[bool], bits: &[bool], held_inputs: &[bool]) -> Vec<bool> {
        let mut st = state.to_vec();
        for &b in bits {
            let mut inputs = held_inputs.to_vec();
            inputs.push(true); // scan_enable
            inputs.push(b); // scan_in
            let (_, next) = self.netlist.step(&inputs, &st).expect("step");
            st = next;
        }
        st
    }

    /// One functional capture cycle (scan_enable low).
    pub fn capture(&self, state: &[bool], inputs: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let mut full = inputs.to_vec();
        full.push(false); // scan_enable
        full.push(false); // scan_in
        self.netlist.step(&full, state).expect("step")
    }

    /// Shifts the chain contents out (returns bits in the order they
    /// appear on `scan_out`: last flop first). Functional inputs held.
    pub fn shift_out(&self, state: &[bool], held_inputs: &[bool]) -> Vec<bool> {
        let mut st = state.to_vec();
        let mut out = Vec::with_capacity(self.chain.len());
        // scan_out is the last output
        for _ in 0..self.chain.len() {
            let mut inputs = held_inputs.to_vec();
            inputs.push(true); // scan_enable
            inputs.push(false); // scan_in
            let (outs, next) = self.netlist.step(&inputs, &st).expect("step");
            out.push(outs[outs.len() - 1]);
            st = next;
        }
        out
    }
}

/// Inserts a mux-scan chain over all DFFs (in creation order).
///
/// # Panics
///
/// Panics if the design has no DFFs.
pub fn insert_scan_chain(nl: &Netlist) -> ScanChain {
    let dffs = nl.dffs();
    assert!(!dffs.is_empty(), "scan insertion needs registers");
    let mut scanned = nl.clone();
    let scan_enable = scanned.add_input("scan_enable");
    let scan_in = scanned.add_input("scan_in");
    let tags = GateTags::default();
    let mut prev_q = scan_in;
    for &d in &dffs {
        let functional_d = scanned.gate(d).inputs[0];
        // mux: scan_enable ? prev_q : functional_d
        let mux =
            scanned.add_gate_tagged(CellKind::Mux, &[scan_enable, functional_d, prev_q], tags);
        scanned.gate_mut(d).inputs[0] = mux;
        prev_q = scanned.gate(d).output;
    }
    scanned.mark_output(prev_q, "scan_out");
    ScanChain {
        netlist: scanned,
        chain: dffs,
        scan_enable,
        scan_in,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_cipher::sbox_first_round_registered;

    #[test]
    fn chain_shifts_patterns_through() {
        let nl = sbox_first_round_registered();
        let scan = insert_scan_chain(&nl);
        assert_eq!(scan.len(), 8);
        let held = vec![false; 16];
        // shift in an 8-bit pattern, then shift it back out
        let pattern = [true, false, true, true, false, false, true, false];
        let state = scan.shift_in(&[false; 8], &pattern, &held);
        let out = scan.shift_out(&state, &held);
        // first-in bit reaches the end of the chain and exits first, so
        // the pattern comes back in its original order
        assert_eq!(out, pattern.to_vec());
    }

    #[test]
    fn functional_mode_is_unchanged() {
        let nl = sbox_first_round_registered();
        let scan = insert_scan_chain(&nl);
        let inputs: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let mut plain_state = vec![false; 8];
        let mut scan_state = vec![false; 8];
        for _ in 0..3 {
            let (plain_out, pn) = nl.step(&inputs, &plain_state).expect("step");
            let (scan_out, sn) = scan.capture(&scan_state, &inputs);
            assert_eq!(&scan_out[..plain_out.len()], &plain_out[..]);
            plain_state = pn;
            scan_state = sn;
        }
    }

    #[test]
    fn capture_then_dump_observes_registers() {
        let nl = sbox_first_round_registered();
        let scan = insert_scan_chain(&nl);
        let inputs: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let (_, captured) = scan.capture(&[false; 8], &inputs);
        let dumped = scan.shift_out(&captured, &[false; 16]);
        // the dump must contain exactly the captured state (reversed:
        // last flop exits first)
        let expect: Vec<bool> = captured.iter().rev().copied().collect();
        assert_eq!(dumped, expect);
    }
}
