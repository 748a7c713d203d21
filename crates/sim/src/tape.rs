//! The compiled evaluation tape: one gate kernel for every simulator.
//!
//! A [`Tape`] is a netlist compiled once, in combinational topological
//! order, into flat arrays. [`Tape::gate`] is the only code in this
//! crate that knows what a gate computes, generic over the value: `bool`
//! for the scalar, cycle and event simulators, `u64` and `Lane256` for
//! the packed ones. `Netlist::eval_nets` stays the independent oracle.

use crate::fault::{Fault, FaultKind};
use crate::simword::SimWord;
use seceda_netlist::{CellKind, Netlist, NetlistError};
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A value the kernel evaluates over: `bool`, or any [`SimWord`] whose
/// bits are independent lanes.
pub(crate) trait Word:
    Copy
    + Eq
    + Not<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
{
    /// Logic 0 (in every lane).
    const LOW: Self;
    /// Logic 1 (in every lane).
    const HIGH: Self;
}

impl Word for bool {
    const LOW: Self = false;
    const HIGH: Self = true;
}

impl<W: SimWord> Word for W {
    const LOW: Self = W::ZERO;
    const HIGH: Self = W::ONES;
}

/// The value a fault forces onto its net, given the fault-free value.
pub(crate) fn apply_fault<W: Word>(kind: FaultKind, good: W) -> W {
    match kind {
        FaultKind::StuckAt0 => W::LOW,
        FaultKind::StuckAt1 => W::HIGH,
        FaultKind::BitFlip => !good,
    }
}

/// A netlist compiled for evaluation.
#[derive(Debug, Clone)]
pub(crate) struct Tape {
    /// Per topo position: the gate's function (never `Dff`).
    op: Vec<CellKind>,
    /// Per topo position: the net the gate drives.
    out: Vec<u32>,
    /// CSR fan-in: `ins[off[p]..off[p + 1]]` are the nets gate `p`
    /// reads, in pin order.
    off: Vec<u32>,
    ins: Vec<u32>,
    /// Primary-input nets, in declaration order.
    pis: Vec<u32>,
    /// DFF output (Q) and data (D) nets, in DFF creation order.
    dff_q: Vec<u32>,
    dff_d: Vec<u32>,
    /// Per gate id: its topo position, `u32::MAX` for a DFF.
    pos: Vec<u32>,
    /// CSR fan-out: `fan_pos[fan_off[n]..fan_off[n + 1]]` are the topo
    /// positions of the combinational gates reading net `n`, in
    /// gate-index order, a gate reading `n` twice listed once.
    fan_off: Vec<u32>,
    fan_pos: Vec<u32>,
}

impl Tape {
    /// Compiles `nl`. This is the only reader of the netlist's gate
    /// arena in the crate's simulators.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub(crate) fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        let order = nl.topo_order()?;
        let net = |n: seceda_netlist::NetId| n.index() as u32;
        let mut op = Vec::with_capacity(order.len());
        let mut out = Vec::with_capacity(order.len());
        let mut off = Vec::with_capacity(order.len() + 1);
        let mut ins = Vec::new();
        let mut pos = vec![u32::MAX; nl.num_gates()];
        off.push(0);
        for (p, &gid) in order.iter().enumerate() {
            let g = nl.gate(gid);
            pos[gid.index()] = p as u32;
            op.push(g.kind);
            out.push(net(g.output));
            ins.extend(g.inputs.iter().map(|&i| net(i)));
            off.push(ins.len() as u32);
        }
        let (mut dff_q, mut dff_d) = (Vec::new(), Vec::new());
        for g in nl.gates().iter().filter(|g| g.kind.is_sequential()) {
            dff_q.push(net(g.output));
            dff_d.push(net(g.inputs[0]));
        }
        // fan-out CSR: (net, reader) pairs in gate-index order, a gate
        // reading a net twice listed once, stably sorted by net
        let mut reads: Vec<(u32, u32)> = Vec::new();
        for (g, &p) in nl.gates().iter().zip(&pos).filter(|&(_, &p)| p != u32::MAX) {
            for (k, &i) in g.inputs.iter().enumerate() {
                if !g.inputs[..k].contains(&i) {
                    reads.push((net(i), p));
                }
            }
        }
        reads.sort_by_key(|&(n, _)| n);
        let mut fan_off = vec![0u32; nl.num_nets() + 1];
        for &(n, _) in &reads {
            fan_off[n as usize + 1] += 1;
        }
        for n in 0..nl.num_nets() {
            fan_off[n + 1] += fan_off[n];
        }
        Ok(Tape {
            op,
            out,
            off,
            ins,
            pis: nl.inputs().iter().map(|&i| net(i)).collect(),
            dff_q,
            dff_d,
            pos,
            fan_off,
            fan_pos: reads.into_iter().map(|(_, p)| p).collect(),
        })
    }

    /// Number of combinational gates (topo positions).
    pub(crate) fn len(&self) -> usize {
        self.op.len()
    }

    /// Number of DFFs (state bits).
    pub(crate) fn num_dffs(&self) -> usize {
        self.dff_q.len()
    }

    /// The primary-input nets, in declaration order.
    pub(crate) fn pis(&self) -> &[u32] {
        &self.pis
    }

    /// The function of the gate at topo position `p`.
    pub(crate) fn op(&self, p: usize) -> CellKind {
        self.op[p]
    }

    /// The net driven by the gate at topo position `p`.
    pub(crate) fn out(&self, p: usize) -> usize {
        self.out[p] as usize
    }

    /// The input count of the gate at topo position `p`.
    pub(crate) fn fan_in(&self, p: usize) -> usize {
        (self.off[p + 1] - self.off[p]) as usize
    }

    /// The topo position of gate `gate` (panics if out of range), `None`
    /// for a DFF.
    pub(crate) fn pos_of(&self, gate: usize) -> Option<usize> {
        let p = self.pos[gate];
        (p != u32::MAX).then_some(p as usize)
    }

    /// The topo positions of the combinational gates reading net `n`.
    pub(crate) fn fanout(&self, n: usize) -> &[u32] {
        &self.fan_pos[self.fan_off[n] as usize..self.fan_off[n + 1] as usize]
    }

    /// The kernel: the output of the gate at topo position `p` over the
    /// per-net values `vals`.
    #[inline]
    pub(crate) fn gate<W: Word>(&self, p: usize, vals: &[W]) -> W {
        let ins = &self.ins[self.off[p] as usize..self.off[p + 1] as usize];
        let v = |k: usize| vals[ins[k] as usize];
        let and = || ins.iter().fold(W::HIGH, |a, &i| a & vals[i as usize]);
        let or = || ins.iter().fold(W::LOW, |a, &i| a | vals[i as usize]);
        let xor = || ins.iter().fold(W::LOW, |a, &i| a ^ vals[i as usize]);
        match self.op[p] {
            CellKind::Const0 => W::LOW,
            CellKind::Const1 => W::HIGH,
            CellKind::Buf => v(0),
            CellKind::Not => !v(0),
            CellKind::And => and(),
            CellKind::Nand => !and(),
            CellKind::Or => or(),
            CellKind::Nor => !or(),
            CellKind::Xor => xor(),
            CellKind::Xnor => !xor(),
            CellKind::Mux => {
                let s = v(0);
                (!s & v(1)) | (s & v(2))
            }
            CellKind::Dff => unreachable!("the tape holds combinational gates only"),
        }
    }

    /// Evaluates every net: primary inputs from `inputs`, DFF outputs
    /// from `state` (all zero when `None`), then every gate in topo
    /// order. Undriven nets read zero.
    ///
    /// A fault takes effect when its net is assigned — a primary input
    /// as it is loaded, a gate output as it is computed — and the last
    /// fault listed for a net wins. DFF outputs are loaded, never
    /// assigned, so a fault there has no effect.
    ///
    /// # Panics
    ///
    /// Panics on input or state width mismatch.
    pub(crate) fn eval<W: Word>(
        &self,
        inputs: &[W],
        state: Option<&[W]>,
        faults: &[Fault],
    ) -> Vec<W> {
        assert_eq!(inputs.len(), self.pis.len(), "input width mismatch");
        let mut forced: Vec<Option<FaultKind>> = Vec::new();
        if !faults.is_empty() {
            forced.resize(self.fan_off.len() - 1, None);
            for f in faults {
                forced[f.net.index()] = Some(f.kind);
            }
        }
        let force = |n: usize, v: W| match forced.get(n) {
            Some(&Some(kind)) => apply_fault(kind, v),
            _ => v,
        };
        let mut vals = vec![W::LOW; self.fan_off.len() - 1];
        for (&pi, &v) in self.pis.iter().zip(inputs) {
            vals[pi as usize] = force(pi as usize, v);
        }
        if let Some(state) = state {
            assert_eq!(state.len(), self.dff_q.len(), "state width mismatch");
            for (&q, &v) in self.dff_q.iter().zip(state) {
                vals[q as usize] = v;
            }
        }
        for p in 0..self.op.len() {
            let o = self.out[p] as usize;
            vals[o] = force(o, self.gate(p, &vals));
        }
        vals
    }

    /// Latches the DFF data inputs of a settled cycle `vals` into
    /// `state`.
    pub(crate) fn next_state<W: Word>(&self, vals: &[W], state: &mut [W]) {
        for (s, &d) in state.iter_mut().zip(&self.dff_d) {
            *s = vals[d as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::pack_patterns;
    use crate::simword::Lane256;
    use seceda_netlist::{random_circuit, RandomCircuitConfig};
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn lane256_matches_eval_nets_in_every_lane() {
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..20 {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 6,
                num_gates: 5 + 4 * seed as usize,
                num_outputs: 3,
                with_xor: true,
                seed,
            });
            let tape = Tape::new(&nl).expect("tape");
            // partial first word, partial last sub-lane, full word
            for n in [1usize, 100, 256] {
                let patterns: Vec<Vec<bool>> = (0..n)
                    .map(|_| (0..6).map(|_| rng.gen()).collect())
                    .collect();
                let words = pack_patterns::<Lane256>(&patterns, 6);
                let vals = tape.eval(&words, None, &[]);
                for (p, pattern) in patterns.iter().enumerate() {
                    let got: Vec<bool> = vals
                        .iter()
                        .map(|w| (w.lane(p / 64) >> (p % 64)) & 1 == 1)
                        .collect();
                    assert_eq!(got, nl.eval_nets(pattern, &[]).expect("eval"));
                }
            }
        }
    }
}
