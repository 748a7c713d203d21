//! The compiled evaluation tape: one gate kernel for every simulator.
//!
//! A [`Tape`] is a netlist compiled once, in combinational topological
//! order, into flat arrays. [`Tape::gate`] is the only code in this
//! crate that knows what a gate computes, generic over the value: `bool`
//! for the scalar, cycle and event simulators, `u64` and `Lane256` for
//! the packed ones. `Netlist::eval_nets` stays the independent oracle.
//!
//! A pass forces faults through lane-masked sites: per forced net one
//! affine pair ([`force_pair`]) whose lanes each hold the last site
//! listed for that net in that lane (see [`Tape::eval`]).

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

/// The affine pair `(keep, tog)` that forces a fault of `kind` in the
/// lanes of `mask` and leaves every other lane alone: the forced value
/// of `v` is `(v & keep) ^ tog`. Per lane, stuck-at-0 is `(0, 0)`,
/// stuck-at-1 `(0, 1)`, a flip `(1, 1)` and an untouched lane `(1, 0)`.
pub(crate) fn force_pair<W: Word>(kind: FaultKind, mask: W) -> (W, W) {
    let (keep, tog) = match kind {
        FaultKind::StuckAt0 => (W::LOW, W::LOW),
        FaultKind::StuckAt1 => (W::LOW, W::HIGH),
        FaultKind::BitFlip => (W::HIGH, W::HIGH),
    };
    ((keep & mask) | !mask, tog & mask)
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
    /// Number of nets: the length of a pass's value vector.
    num_nets: usize,
}

impl Tape {
    /// Compiles `nl`. This and [`FanOut::new`] are the only readers of
    /// the netlist's gate arena in the crate's simulators.
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
        Ok(Tape {
            op,
            out,
            off,
            ins,
            pis: nl.inputs().iter().map(|&i| net(i)).collect(),
            dff_q,
            dff_d,
            pos,
            num_nets: nl.num_nets(),
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
    /// Each site `(fault, mask)` forces its fault in the lanes of `mask`
    /// only (`W::HIGH` forces every lane). A fault takes effect when its
    /// net is assigned — a primary input as it is loaded, a gate output
    /// as it is computed — and per net and per lane the last site
    /// listed wins. DFF outputs are loaded, never assigned, so a fault
    /// there has no effect.
    ///
    /// # Panics
    ///
    /// Panics on input or state width mismatch.
    pub(crate) fn eval<W: Word>(
        &self,
        inputs: &[W],
        state: Option<&[W]>,
        sites: &[(Fault, W)],
    ) -> Vec<W> {
        let mut vals = Vec::new();
        self.eval_into(&mut vals, inputs, state, sites);
        vals
    }

    /// [`Tape::eval`] into a reused buffer: `vals` is overwritten with
    /// every net's value.
    pub(crate) fn eval_into<W: Word>(
        &self,
        vals: &mut Vec<W>,
        inputs: &[W],
        state: Option<&[W]>,
        sites: &[(Fault, W)],
    ) {
        assert_eq!(inputs.len(), self.pis.len(), "input width mismatch");
        let num_nets = self.num_nets;
        // per forced net, its slot in `pairs`; a fault-free pass builds
        // no slot table
        let mut slot: Vec<u32> = Vec::new();
        let mut pairs: Vec<(W, W)> = Vec::new();
        if !sites.is_empty() {
            slot.resize(num_nets, u32::MAX);
            for &(fault, mask) in sites {
                let s = &mut slot[fault.net.index()];
                if *s == u32::MAX {
                    *s = pairs.len() as u32;
                    pairs.push((W::HIGH, W::LOW));
                }
                // the lanes of `mask` take this site's pair
                let (keep, tog) = force_pair(fault.kind, mask);
                let (k, t) = &mut pairs[*s as usize];
                *k = (*k & !mask) | (keep & mask);
                *t = (*t & !mask) | (tog & mask);
            }
        }
        let force = |n: usize, v: W| match slot.get(n) {
            Some(&s) if s != u32::MAX => {
                let (keep, tog) = pairs[s as usize];
                (v & keep) ^ tog
            }
            _ => v,
        };
        vals.clear();
        vals.resize(num_nets, W::LOW);
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
            vals[o] = force(o, self.gate(p, vals));
        }
    }

    /// Latches the DFF data inputs of a settled cycle `vals` into
    /// `state`.
    pub(crate) fn next_state<W: Word>(&self, vals: &[W], state: &mut [W]) {
        for (s, &d) in state.iter_mut().zip(&self.dff_d) {
            *s = vals[d as usize];
        }
    }
}

/// The combinational fan-out of every net, in topo positions. Kept
/// apart from the [`Tape`] and built only by the simulators that walk
/// it, so a plain evaluation pass does not hold it in memory.
#[derive(Debug, Clone)]
pub(crate) struct FanOut {
    /// CSR: `pos[off[n]..off[n + 1]]` are the topo positions of the
    /// combinational gates reading net `n`, in gate-index order, a gate
    /// reading `n` twice listed once.
    off: Vec<u32>,
    pos: Vec<u32>,
}

impl FanOut {
    /// The fan-out of `nl`, compiled as `tape`.
    pub(crate) fn new(nl: &Netlist, tape: &Tape) -> Self {
        // (net, reader) pairs in gate-index order, a gate reading a net
        // twice listed once, stably sorted by net
        let mut reads: Vec<(u32, u32)> = Vec::new();
        for (g, &p) in nl
            .gates()
            .iter()
            .zip(&tape.pos)
            .filter(|&(_, &p)| p != u32::MAX)
        {
            for (k, &i) in g.inputs.iter().enumerate() {
                if !g.inputs[..k].contains(&i) {
                    reads.push((i.index() as u32, p));
                }
            }
        }
        reads.sort_by_key(|&(n, _)| n);
        let mut off = vec![0u32; tape.num_nets + 1];
        for &(n, _) in &reads {
            off[n as usize + 1] += 1;
        }
        for n in 0..tape.num_nets {
            off[n + 1] += off[n];
        }
        FanOut {
            off,
            pos: reads.into_iter().map(|(_, p)| p).collect(),
        }
    }

    /// The topo positions of the combinational gates reading net `n`.
    pub(crate) fn readers(&self, n: usize) -> &[u32] {
        &self.pos[self.off[n] as usize..self.off[n + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::reference;
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

    #[test]
    fn bool_sites_match_oracle() {
        // one lane: a site is forced iff its mask is `true`, and the
        // last forced site listed for a net wins
        let kinds = [FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::BitFlip];
        let mut rng = StdRng::seed_from_u64(12);
        for seed in 0..60 {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 5,
                num_gates: 2 + seed as usize % 40,
                num_outputs: 3,
                with_xor: seed % 2 == 0,
                seed,
            });
            let tape = Tape::new(&nl).expect("tape");
            let inputs: Vec<bool> = (0..5).map(|_| rng.gen()).collect();
            let mut sites: Vec<(Fault, bool)> = (0..rng.gen_range(0..5usize))
                .map(|_| {
                    let net = seceda_netlist::NetId::from_index(rng.gen_range(0..nl.num_nets()));
                    (
                        Fault {
                            net,
                            kind: kinds[rng.gen_range(0..3usize)],
                        },
                        rng.gen(),
                    )
                })
                .collect();
            if let Some(&(first, _)) = sites.first() {
                let kind = kinds[rng.gen_range(0..3usize)];
                sites.push((
                    Fault {
                        net: first.net,
                        kind,
                    },
                    rng.gen(),
                ));
            }
            let forced: Vec<Fault> = sites.iter().filter(|s| s.1).map(|s| s.0).collect();
            assert_eq!(
                tape.eval(&inputs, None, &sites),
                reference(&nl, &inputs, &[], &forced),
                "seed {seed}, sites {sites:?}"
            );
        }
    }
}
