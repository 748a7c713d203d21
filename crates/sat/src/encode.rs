//! Tseitin encoding of netlists and miter construction.
//!
//! The bridge between the circuit world and the solver: every net becomes
//! a variable, every gate a handful of clauses. [`miter`] builds the
//! classical equivalence-checking construction — two circuits sharing
//! inputs, with an output asserting that *some* primary output differs.
//! [`encode_faulty_cone`] appends one fault's selector-gated fan-out
//! cone to a good-circuit encoding; the returned [`FaultCone`] carries
//! the whole query protocol of incremental ATPG and coverage proofs.

use crate::budget::{Budget, SolveOutcome};
use crate::cnf::{CnfBuilder, GatedCnf, Lit, Var};
use crate::solver::Solver;
use seceda_netlist::{CellKind, NetId, Netlist, NetlistError};

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
            // yy <-> AND(ins)
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
            // chain through auxiliaries
            let mut acc = ins[0];
            for &l in &ins[1..ins.len() - 1] {
                let t = cnf.new_var().pos();
                cnf.gate_xor(t, acc, l);
                acc = t;
            }
            let last = ins[ins.len() - 1];
            let yy = if kind == CellKind::Xnor { !y } else { y };
            cnf.gate_xor(yy, acc, last);
        }
        _ => unreachable!("encode_nary only handles n-ary kinds"),
    }
}

/// Encodes one gate's function `y <-> kind(ins)` as clauses. DFFs are a
/// no-op (their outputs model free state variables).
fn encode_gate<B: CnfBuilder>(cnf: &mut B, kind: CellKind, y: Lit, ins: &[Lit]) {
    match kind {
        CellKind::Const0 => cnf.add_clause([!y]),
        CellKind::Const1 => cnf.add_clause([y]),
        CellKind::Buf => cnf.gate_buf(y, ins[0]),
        CellKind::Not => cnf.gate_buf(y, !ins[0]),
        CellKind::Mux => cnf.gate_mux(y, ins[0], ins[1], ins[2]),
        CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
            if ins.len() == 2 {
                match kind {
                    CellKind::And => cnf.gate_and(y, ins[0], ins[1]),
                    CellKind::Nand => cnf.gate_and(!y, ins[0], ins[1]),
                    CellKind::Or => cnf.gate_or(y, ins[0], ins[1]),
                    CellKind::Nor => cnf.gate_or(!y, ins[0], ins[1]),
                    _ => unreachable!(),
                }
            } else {
                encode_nary(cnf, kind, y, ins);
            }
        }
        CellKind::Xor | CellKind::Xnor => {
            if ins.len() == 2 {
                let yy = if kind == CellKind::Xnor { !y } else { y };
                cnf.gate_xor(yy, ins[0], ins[1]);
            } else {
                encode_nary(cnf, kind, y, ins);
            }
        }
        CellKind::Dff => { /* output stays free */ }
    }
}

/// Encodes the combinational logic of `nl` into `cnf`, allocating one
/// variable per net (plus auxiliaries for wide XORs). DFF outputs are
/// left unconstrained (free variables), which models an arbitrary state —
/// callers doing bounded model checking unroll explicitly.
///
/// The sink is any [`CnfBuilder`]: a [`Cnf`](crate::Cnf) under
/// construction, or a live [`Solver`] for incremental
/// encodings.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
pub fn encode_netlist<B: CnfBuilder>(
    nl: &Netlist,
    cnf: &mut B,
) -> Result<NetlistEncoding, NetlistError> {
    let order = nl.topo_order()?;
    let vars: Vec<Var> = (0..nl.num_nets()).map(|_| cnf.new_var()).collect();
    for gid in order {
        let g = nl.gate(gid);
        let y = vars[g.output.index()].pos();
        let ins: Vec<Lit> = g.inputs.iter().map(|&i| vars[i.index()].pos()).collect();
        encode_gate(cnf, g.kind, y, &ins);
    }
    Ok(NetlistEncoding {
        input_vars: nl.inputs().iter().map(|&n| vars[n.index()]).collect(),
        output_vars: nl.outputs().iter().map(|&(n, _)| vars[n.index()]).collect(),
        vars,
    })
}

/// Incrementally encodes the *fan-out cone* of a fault on `net` against
/// an existing good-circuit encoding, under a fresh selector: every
/// added clause binds only while [`FaultCone::solve`] assumes the
/// selector, and [`FaultCone::retire`] switches the cone off for good,
/// so one persistent solver serves a whole fault list.
///
/// `faulty_source` is the literal carrying the faulty value of `net`
/// (a forced-constant variable for stuck-at faults, the inverted good
/// literal for bit flips). Only gates with at least one cone input are
/// re-encoded with fresh variables; every net outside the cone reuses
/// the good encoding, so the incremental cost is proportional to the
/// cone, not the circuit. Cones stop at DFFs: both copies share the same
/// free state variables, so a fault cannot fake a difference through an
/// unconstrained next-state value.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics if `good` was not produced by encoding `nl`.
pub fn encode_faulty_cone<B: CnfBuilder>(
    nl: &Netlist,
    good: &NetlistEncoding,
    net: NetId,
    faulty_source: Lit,
    sink: &mut B,
) -> Result<FaultCone, NetlistError> {
    assert_eq!(
        good.vars.len(),
        nl.num_nets(),
        "good encoding does not match the netlist"
    );
    let order = nl.topo_order()?;
    let selector = sink.new_var();
    let mut faulty: Vec<Option<Lit>> = vec![None; nl.num_nets()];
    faulty[net.index()] = Some(faulty_source);
    let mut gated = GatedCnf::new(sink, selector.neg());
    for gid in order {
        let g = nl.gate(gid);
        if faulty[g.output.index()].is_some() {
            continue; // the fault site itself: its driver is bypassed
        }
        if g.inputs.iter().all(|&i| faulty[i.index()].is_none()) {
            continue; // outside the cone: reuse the good encoding
        }
        let ins: Vec<Lit> = g
            .inputs
            .iter()
            .map(|&i| faulty[i.index()].unwrap_or_else(|| good.vars[i.index()].pos()))
            .collect();
        let y = gated.new_var().pos();
        faulty[g.output.index()] = Some(y);
        encode_gate(&mut gated, g.kind, y, &ins);
    }
    Ok(FaultCone {
        selector,
        outputs: nl
            .outputs()
            .iter()
            .enumerate()
            .filter_map(|(k, &(onet, _))| faulty[onet.index()].map(|l| (k, l)))
            .collect(),
    })
}

/// One fault's selector-gated fan-out cone, as built by
/// [`encode_faulty_cone`]. A fault query is: [`require_difference`]
/// on the ports it watches, [`solve`], done — `solve` retires the cone.
/// A fault whose cone reaches no watched port is decided without a
/// solver call; [`retire`] it directly.
///
/// [`require_difference`]: FaultCone::require_difference
/// [`solve`]: FaultCone::solve
/// [`retire`]: FaultCone::retire
#[must_use = "a fault cone stays in the solver until it is retired"]
#[derive(Debug)]
pub struct FaultCone {
    selector: Var,
    /// `(output port index, faulty output literal)` for each primary
    /// output the fault can reach.
    outputs: Vec<(usize, Lit)>,
}

impl FaultCone {
    /// The faulty circuit's literal for output `port`: the cone's own
    /// literal if the fault reaches it, the shared good one otherwise.
    pub fn output(&self, good: &NetlistEncoding, port: usize) -> Lit {
        self.outputs
            .iter()
            .find(|&&(k, _)| k == port)
            .map_or_else(|| good.output_vars[port].pos(), |&(_, l)| l)
    }

    /// Adds the gated requirement that some watched output differs
    /// between the good and the faulty circuit. Returns `false`, adding
    /// nothing, when the fault reaches no watched output: no input can
    /// expose it there, which proves the query without solving.
    pub fn require_difference<B: CnfBuilder>(
        &self,
        good: &NetlistEncoding,
        watched: impl Fn(usize) -> bool,
        sink: &mut B,
    ) -> bool {
        let mut gated = GatedCnf::new(sink, self.selector.neg());
        let mut diffs = Vec::new();
        for &(k, flit) in self.outputs.iter().filter(|&&(k, _)| watched(k)) {
            let d = gated.new_var().pos();
            gated.gate_xor(d, good.output_vars[k].pos(), flit);
            diffs.push(d);
        }
        if diffs.is_empty() {
            return false;
        }
        gated.add_clause(diffs);
        true
    }

    /// Solves with the cone active (the selector first, then
    /// `assumptions`) under `budget`, then retires the cone.
    pub fn solve(self, solver: &mut Solver, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        let mut active = Vec::with_capacity(1 + assumptions.len());
        active.push(self.selector.pos());
        active.extend_from_slice(assumptions);
        let outcome = solver.solve(&active, budget);
        self.retire(solver);
        outcome
    }

    /// Switches the cone's clauses off for good with a root-level unit.
    pub fn retire<B: CnfBuilder>(self, sink: &mut B) {
        sink.add_clause([self.selector.neg()]);
    }
}

/// Builds a miter of two combinational netlists with identical interfaces:
/// the first `shared_inputs` primary inputs tied together, and a single
/// literal (returned) that is true iff at least one primary output
/// differs.
///
/// With every input shared, asking the solver for that literal answers
/// equivalence: UNSAT under `[diff]` means the circuits agree on every
/// input. Sharing only a prefix leaves the remaining inputs free in each
/// copy — the SAT attack's two keyed copies over one functional input.
///
/// # Errors
///
/// Returns a netlist error if either circuit is cyclic.
///
/// # Panics
///
/// Panics if the interfaces (input/output counts) do not match, or if
/// `shared_inputs` exceeds the input count.
pub fn miter<B: CnfBuilder>(
    a: &Netlist,
    b: &Netlist,
    shared_inputs: usize,
    cnf: &mut B,
) -> Result<(NetlistEncoding, NetlistEncoding, Lit), NetlistError> {
    assert_eq!(
        a.inputs().len(),
        b.inputs().len(),
        "miter needs matching input counts"
    );
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "miter needs matching output counts"
    );
    assert!(
        shared_inputs <= a.inputs().len(),
        "miter cannot share more inputs than it has"
    );
    let enc_a = encode_netlist(a, cnf)?;
    let enc_b = encode_netlist(b, cnf)?;
    let shared = enc_a.input_vars.iter().zip(&enc_b.input_vars);
    for (&va, &vb) in shared.take(shared_inputs) {
        cnf.gate_buf(va.pos(), vb.pos());
    }
    // per-output difference bits
    let mut diffs = Vec::with_capacity(enc_a.output_vars.len());
    for (&oa, &ob) in enc_a.output_vars.iter().zip(&enc_b.output_vars) {
        let d = cnf.new_var().pos();
        cnf.gate_xor(d, oa.pos(), ob.pos());
        diffs.push(d);
    }
    // diff <-> OR(diffs)
    let diff = cnf.new_var().pos();
    for &d in &diffs {
        cnf.add_clause([diff, !d]);
    }
    let mut big = diffs.clone();
    big.push(!diff);
    cnf.add_clause(big);
    Ok((enc_a, enc_b, diff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, SolveOutcome};
    use crate::cnf::Cnf;
    use crate::solver::Solver;
    use seceda_netlist::{c17, majority, CellKind};

    /// Checks every CNF model of an encoded netlist against simulation.
    fn check_encoding_consistency(nl: &Netlist) {
        let mut cnf = Cnf::new();
        let enc = encode_netlist(nl, &mut cnf).expect("encode");
        let n_inputs = nl.inputs().len();
        for pattern in 0..(1u32 << n_inputs) {
            let inputs: Vec<bool> = (0..n_inputs).map(|b| (pattern >> b) & 1 == 1).collect();
            let expected = nl.evaluate(&inputs);
            let assumptions: Vec<Lit> = enc
                .input_vars
                .iter()
                .zip(&inputs)
                .map(|(&v, &b)| v.lit(b))
                .collect();
            let mut solver = Solver::from_cnf(&cnf);
            match solver.solve(&assumptions, &Budget::unlimited()) {
                SolveOutcome::Sat(model) => {
                    for (k, &ov) in enc.output_vars.iter().enumerate() {
                        assert_eq!(
                            model[ov.index()],
                            expected[k],
                            "pattern {pattern} output {k}"
                        );
                    }
                }
                other => panic!("encoding unsat under concrete inputs: {other:?}"),
            }
        }
    }

    #[test]
    fn c17_encoding_matches_simulation() {
        check_encoding_consistency(&c17());
    }

    #[test]
    fn majority_encoding_matches_simulation() {
        check_encoding_consistency(&majority());
    }

    #[test]
    fn wide_gates_encoding() {
        let mut nl = Netlist::new("wide");
        let ins: Vec<_> = (0..5).map(|i| nl.add_input(format!("i{i}"))).collect();
        let a = nl.add_gate(CellKind::And, &ins);
        let o = nl.add_gate(CellKind::Or, &ins);
        let x = nl.add_gate(CellKind::Xor, &ins);
        let nx = nl.add_gate(CellKind::Xnor, &ins);
        let na = nl.add_gate(CellKind::Nand, &ins);
        let no = nl.add_gate(CellKind::Nor, &ins);
        for (net, name) in [
            (a, "a"),
            (o, "o"),
            (x, "x"),
            (nx, "nx"),
            (na, "na"),
            (no, "no"),
        ] {
            nl.mark_output(net, name);
        }
        check_encoding_consistency(&nl);
    }

    #[test]
    fn miter_proves_equivalence() {
        // two structurally different implementations of XOR
        let mut a = Netlist::new("xor1");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let out = a.add_gate(CellKind::Xor, &[x, y]);
        a.mark_output(out, "o");

        let mut b = Netlist::new("xor2");
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let nx = b.add_gate(CellKind::Not, &[x2]);
        let ny = b.add_gate(CellKind::Not, &[y2]);
        let t1 = b.add_gate(CellKind::And, &[x2, ny]);
        let t2 = b.add_gate(CellKind::And, &[nx, y2]);
        let out2 = b.add_gate(CellKind::Or, &[t1, t2]);
        b.mark_output(out2, "o");

        let mut cnf = Cnf::new();
        let (_, _, diff) = miter(&a, &b, 2, &mut cnf).expect("miter");
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(
            solver.solve(&[diff], &Budget::unlimited()),
            SolveOutcome::Unsat,
            "equivalent circuits must have an unsat miter"
        );
    }

    #[test]
    fn miter_finds_counterexample() {
        let mut a = Netlist::new("and");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let out = a.add_gate(CellKind::And, &[x, y]);
        a.mark_output(out, "o");

        let mut b = Netlist::new("or");
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let out2 = b.add_gate(CellKind::Or, &[x2, y2]);
        b.mark_output(out2, "o");

        let mut cnf = Cnf::new();
        let (enc_a, _, diff) = miter(&a, &b, 2, &mut cnf).expect("miter");
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve(&[diff], &Budget::unlimited()) {
            SolveOutcome::Sat(model) => {
                let xi = model[enc_a.input_vars[0].index()];
                let yi = model[enc_a.input_vars[1].index()];
                // AND and OR differ exactly when inputs differ
                assert_ne!(xi & yi, xi | yi);
            }
            other => panic!("AND vs OR must differ: {other:?}"),
        }
    }
}
