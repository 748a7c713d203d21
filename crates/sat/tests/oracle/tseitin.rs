//! Per-net Tseitin encoding of netlists: the differential oracle of the
//! AIG lowering (`seceda_sat::lower_netlist`, `miter`, `FaultMiter`).
//!
//! Every net becomes a variable and every gate a handful of clauses,
//! with no structural hashing, constant folding or node sharing, so a
//! bug in the AIG's canonicalization, its node→literal map or the fault
//! overlay's mark/truncate scope shows as a verdict that differs from
//! this encoding. Written against the crate's public API only; included
//! with `#[path]` by the integration tests of `seceda-sat`,
//! `seceda-dft` and `seceda-verif`, and by the rebuild-per-iteration SAT
//! attack of `seceda-lock`'s unit tests.
#![allow(dead_code)]

use seceda_netlist::{CellKind, NetId, Netlist, NetlistError};
use seceda_sat::{Budget, CnfBuilder, Lit, SolveOutcome, Solver, Var};

/// The variable mapping produced by encoding a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistEncoding {
    /// `vars[net.index()]` is the CNF variable of that net.
    pub vars: Vec<Var>,
    /// Variables of the primary inputs, in port order.
    pub input_vars: Vec<Var>,
    /// Variables of the primary outputs, in port order.
    pub output_vars: Vec<Var>,
}

fn encode_nary<B: CnfBuilder>(cnf: &mut B, kind: CellKind, y: Lit, ins: &[Lit]) {
    match kind {
        CellKind::And | CellKind::Nand => {
            let yy = if kind == CellKind::Nand { !y } else { y };
            let mut big: Vec<Lit> = ins.iter().map(|&l| !l).collect();
            big.push(yy);
            for &l in ins {
                cnf.add_clause([!yy, l]);
            }
            cnf.add_clause(big);
        }
        CellKind::Or | CellKind::Nor => {
            let yy = if kind == CellKind::Nor { !y } else { y };
            let mut big: Vec<Lit> = ins.to_vec();
            big.push(!yy);
            for &l in ins {
                cnf.add_clause([yy, !l]);
            }
            cnf.add_clause(big);
        }
        CellKind::Xor | CellKind::Xnor => {
            let mut acc = ins[0];
            for &l in &ins[1..ins.len() - 1] {
                let t = cnf.new_var().pos();
                cnf.gate_xor(t, acc, l);
                acc = t;
            }
            let yy = if kind == CellKind::Xnor { !y } else { y };
            cnf.gate_xor(yy, acc, ins[ins.len() - 1]);
        }
        _ => unreachable!("encode_nary only handles n-ary kinds"),
    }
}

/// Encodes one gate's function `y <-> kind(ins)`. DFFs are a no-op:
/// their outputs stay free state variables.
fn encode_gate<B: CnfBuilder>(cnf: &mut B, kind: CellKind, y: Lit, ins: &[Lit]) {
    match kind {
        CellKind::Const0 => cnf.add_clause([!y]),
        CellKind::Const1 => cnf.add_clause([y]),
        CellKind::Buf => cnf.gate_buf(y, ins[0]),
        CellKind::Not => cnf.gate_buf(y, !ins[0]),
        CellKind::Mux => cnf.gate_mux(y, ins[0], ins[1], ins[2]),
        CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor if ins.len() == 2 => {
            match kind {
                CellKind::And => cnf.gate_and(y, ins[0], ins[1]),
                CellKind::Nand => cnf.gate_and(!y, ins[0], ins[1]),
                CellKind::Or => cnf.gate_or(y, ins[0], ins[1]),
                _ => cnf.gate_or(!y, ins[0], ins[1]),
            }
        }
        CellKind::Xor | CellKind::Xnor if ins.len() == 2 => {
            let yy = if kind == CellKind::Xnor { !y } else { y };
            cnf.gate_xor(yy, ins[0], ins[1]);
        }
        CellKind::Dff => {}
        _ => encode_nary(cnf, kind, y, ins),
    }
}

/// Encodes the combinational logic of `nl`, one variable per net (plus
/// auxiliaries for wide XORs). DFF outputs stay free; undriven nets
/// other than primary inputs are pinned false, as `Netlist::evaluate`
/// reads them.
pub fn encode_netlist<B: CnfBuilder>(
    nl: &Netlist,
    cnf: &mut B,
) -> Result<NetlistEncoding, NetlistError> {
    let order = nl.topo_order()?;
    let vars: Vec<Var> = (0..nl.num_nets()).map(|_| cnf.new_var()).collect();
    for (k, &v) in vars.iter().enumerate() {
        let net = NetId::from_index(k);
        if nl.net(net).driver.is_none() && !nl.inputs().contains(&net) {
            cnf.add_clause([v.neg()]);
        }
    }
    for gid in order {
        let g = nl.gate(gid);
        let ins: Vec<Lit> = g.inputs.iter().map(|&i| vars[i.index()].pos()).collect();
        encode_gate(cnf, g.kind, vars[g.output.index()].pos(), &ins);
    }
    Ok(NetlistEncoding {
        input_vars: nl.inputs().iter().map(|&n| vars[n.index()]).collect(),
        output_vars: nl.outputs().iter().map(|&(n, _)| vars[n.index()]).collect(),
        vars,
    })
}

/// A miter of two netlists with matching interfaces: the first
/// `shared_inputs` inputs tied together, and a literal (returned) true
/// iff some primary output differs. With equally many DFFs, matched DFF
/// outputs (by `Netlist::dffs` ordinal) are tied too and a difference
/// between matched D inputs also counts, as in `seceda_sat::miter`.
pub fn miter<B: CnfBuilder>(
    a: &Netlist,
    b: &Netlist,
    shared_inputs: usize,
    cnf: &mut B,
) -> Result<(NetlistEncoding, NetlistEncoding, Lit), NetlistError> {
    assert_eq!(a.inputs().len(), b.inputs().len());
    assert_eq!(a.outputs().len(), b.outputs().len());
    let enc_a = encode_netlist(a, cnf)?;
    let enc_b = encode_netlist(b, cnf)?;
    let shared = enc_a.input_vars.iter().zip(&enc_b.input_vars);
    for (&va, &vb) in shared.take(shared_inputs) {
        cnf.gate_buf(va.pos(), vb.pos());
    }
    let mut pairs: Vec<(Var, Var)> = enc_a
        .output_vars
        .iter()
        .copied()
        .zip(enc_b.output_vars.iter().copied())
        .collect();
    let (dffs_a, dffs_b) = (a.dffs(), b.dffs());
    if dffs_a.len() == dffs_b.len() {
        for (&da, &db) in dffs_a.iter().zip(&dffs_b) {
            let (ga, gb) = (a.gate(da), b.gate(db));
            let (qa, qb) = (enc_a.vars[ga.output.index()], enc_b.vars[gb.output.index()]);
            cnf.gate_buf(qa.pos(), qb.pos());
            pairs.push((
                enc_a.vars[ga.inputs[0].index()],
                enc_b.vars[gb.inputs[0].index()],
            ));
        }
    }
    let diffs: Vec<Lit> = pairs
        .into_iter()
        .map(|(oa, ob)| {
            let d = cnf.new_var().pos();
            cnf.gate_xor(d, oa.pos(), ob.pos());
            d
        })
        .collect();
    let diff = cnf.new_var().pos();
    for &d in &diffs {
        cnf.add_clause([diff, !d]);
    }
    cnf.add_clause(diffs.iter().copied().chain([!diff]));
    Ok((enc_a, enc_b, diff))
}

/// Appends `guard` to every clause: the group binds only while `!guard`
/// is assumed, and the root unit `guard` retires it.
struct Gated<'a> {
    inner: &'a mut Solver,
    guard: Lit,
}

impl CnfBuilder for Gated<'_> {
    fn new_var(&mut self) -> Var {
        self.inner.new_var()
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let guard = self.guard;
        self.inner.add_clause(lits.into_iter().chain([guard]));
    }
}

/// Single-fault queries on one persistent solver: the good circuit
/// encoded once, each fault's fan-out cone re-encoded per net on a fresh
/// selector and retired with a root unit after its solve.
pub struct TseitinFaults<'a> {
    nl: &'a Netlist,
    order: Vec<seceda_netlist::GateId>,
    solver: Solver,
    good: NetlistEncoding,
    false_lit: Lit,
}

impl<'a> TseitinFaults<'a> {
    /// Encodes the good circuit of `nl` into a fresh solver.
    pub fn new(nl: &'a Netlist) -> Self {
        let mut solver = Solver::new(0);
        let good = encode_netlist(nl, &mut solver).expect("acyclic netlist");
        let f = solver.new_var();
        solver.add_clause([f.neg()]);
        TseitinFaults {
            nl,
            order: nl.topo_order().expect("acyclic netlist"),
            solver,
            good,
            false_lit: f.pos(),
        }
    }

    /// Searches for an input under which the fault on `net` — stuck at
    /// `Some(v)`, or a bit flip for `None` — changes some output
    /// `watched` selects, while every `(port, value)` in `require` holds
    /// on the faulty circuit. Returns the input pattern, or `None` when
    /// no input exists.
    pub fn query(
        &mut self,
        net: NetId,
        stuck: Option<bool>,
        watched: impl Fn(usize) -> bool,
        require: &[(usize, bool)],
    ) -> Option<Vec<bool>> {
        let nl = self.nl;
        let selector = self.solver.new_var();
        let mut gated = Gated {
            inner: &mut self.solver,
            guard: selector.neg(),
        };
        let mut faulty: Vec<Option<Lit>> = vec![None; nl.num_nets()];
        faulty[net.index()] = Some(match stuck {
            Some(true) => !self.false_lit,
            Some(false) => self.false_lit,
            None => self.good.vars[net.index()].neg(),
        });
        for &gid in &self.order {
            let g = nl.gate(gid);
            if g.output == net || g.inputs.iter().all(|&i| faulty[i.index()].is_none()) {
                continue;
            }
            let ins: Vec<Lit> = g
                .inputs
                .iter()
                .map(|&i| faulty[i.index()].unwrap_or_else(|| self.good.vars[i.index()].pos()))
                .collect();
            let y = gated.new_var().pos();
            faulty[g.output.index()] = Some(y);
            encode_gate(&mut gated, g.kind, y, &ins);
        }
        let faulty_out = |k: usize| {
            let o = nl.outputs()[k].0.index();
            faulty[o].unwrap_or_else(|| self.good.vars[o].pos())
        };
        let mut diffs = Vec::new();
        for k in (0..nl.outputs().len()).filter(|&k| watched(k)) {
            let d = gated.new_var().pos();
            gated.gate_xor(d, self.good.output_vars[k].pos(), faulty_out(k));
            diffs.push(d);
        }
        gated.add_clause(diffs);
        let mut assumptions = vec![selector.pos()];
        assumptions.extend(require.iter().map(|&(k, v)| {
            let l = faulty_out(k);
            if v {
                l
            } else {
                !l
            }
        }));
        let outcome = self.solver.solve(&assumptions, &Budget::unlimited());
        self.solver.add_clause([selector.neg()]);
        match outcome {
            SolveOutcome::Sat(model) => Some(
                self.good
                    .input_vars
                    .iter()
                    .map(|v| model[v.index()])
                    .collect(),
            ),
            SolveOutcome::Unsat => None,
            SolveOutcome::Indeterminate(reason) => {
                unreachable!("unlimited solve stopped: {reason}")
            }
        }
    }
}
