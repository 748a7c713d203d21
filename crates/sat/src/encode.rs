//! Tseitin encoding of netlists and miter construction.
//!
//! The bridge between the circuit world and the solver: every net becomes
//! a variable, every gate a handful of clauses. [`miter`] builds the
//! classical equivalence-checking construction — two circuits sharing
//! inputs, with an output asserting that *some* primary output differs.

use crate::cnf::{CnfBuilder, GatedCnf, Lit, Var};
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

impl NetlistEncoding {
    /// The variable of a specific net.
    pub fn var_of(&self, net: seceda_netlist::NetId) -> Var {
        self.vars[net.index()]
    }
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
/// construction, or a live [`Solver`](crate::Solver) for incremental
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
/// an existing good-circuit encoding, gating every added clause on
/// `guard` (add `guard.var()` as a selector: assume `!guard` to activate
/// the cone, add a root-level unit `guard` to retire it).
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
/// Returns `(output port index, faulty output literal)` for each primary
/// output whose value can differ — an empty result proves the fault
/// cannot reach any output (untestable by structure alone).
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
    guard: Lit,
    sink: &mut B,
) -> Result<Vec<(usize, Lit)>, NetlistError> {
    assert_eq!(
        good.vars.len(),
        nl.num_nets(),
        "good encoding does not match the netlist"
    );
    let order = nl.topo_order()?;
    let mut faulty: Vec<Option<Lit>> = vec![None; nl.num_nets()];
    faulty[net.index()] = Some(faulty_source);
    let mut gated = GatedCnf::new(sink, guard);
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
    Ok(nl
        .outputs()
        .iter()
        .enumerate()
        .filter_map(|(k, &(onet, _))| faulty[onet.index()].map(|l| (k, l)))
        .collect())
}

/// A value in a partially evaluated encoding: a known constant, or a
/// solver literal carrying the value symbolically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// The net is a known constant under the given input bindings.
    Const(bool),
    /// The net's value is carried by this literal.
    Lit(Lit),
}

impl Signal {
    /// Lowers the signal to a literal, mapping constants onto a literal
    /// that is false in every model (`const_false`).
    fn as_lit(self, const_false: Lit) -> Lit {
        match self {
            Signal::Const(false) => const_false,
            Signal::Const(true) => !const_false,
            Signal::Lit(l) => l,
        }
    }
}

/// Encodes one gate under partially constant inputs, folding away
/// whatever the constants decide: fully constant gates evaluate on the
/// spot, absorbing inputs (a 0 into an AND, a 1 into an OR) kill the
/// gate, neutral inputs are dropped, and single-survivor gates collapse
/// to a (possibly negated) wire.
fn fold_gate<B: CnfBuilder>(
    cnf: &mut B,
    const_false: Lit,
    kind: CellKind,
    ins: &[Signal],
) -> Signal {
    if kind != CellKind::Dff && ins.iter().all(|v| matches!(v, Signal::Const(_))) {
        let bools: Vec<bool> = ins
            .iter()
            .map(|v| match v {
                Signal::Const(b) => *b,
                Signal::Lit(_) => unreachable!(),
            })
            .collect();
        return Signal::Const(kind.eval(&bools));
    }
    match kind {
        CellKind::Const0 => Signal::Const(false),
        CellKind::Const1 => Signal::Const(true),
        CellKind::Buf => ins[0],
        CellKind::Not => match ins[0] {
            Signal::Const(b) => Signal::Const(!b),
            Signal::Lit(l) => Signal::Lit(!l),
        },
        CellKind::Dff => unreachable!("DFF outputs are pre-bound as free variables"),
        CellKind::And | CellKind::Nand => {
            let inv = kind == CellKind::Nand;
            if ins.contains(&Signal::Const(false)) {
                return Signal::Const(inv);
            }
            // remaining constants are all true, hence neutral
            let syms: Vec<Lit> = ins
                .iter()
                .filter_map(|v| match v {
                    Signal::Lit(l) => Some(*l),
                    Signal::Const(_) => None,
                })
                .collect();
            match syms[..] {
                [l] => Signal::Lit(if inv { !l } else { l }),
                _ => {
                    let y = cnf.new_var().pos();
                    for &l in &syms {
                        cnf.add_clause([!y, l]);
                    }
                    let mut big: Vec<Lit> = syms.iter().map(|&l| !l).collect();
                    big.push(y);
                    cnf.add_clause(big);
                    Signal::Lit(if inv { !y } else { y })
                }
            }
        }
        CellKind::Or | CellKind::Nor => {
            let inv = kind == CellKind::Nor;
            if ins.contains(&Signal::Const(true)) {
                return Signal::Const(!inv);
            }
            let syms: Vec<Lit> = ins
                .iter()
                .filter_map(|v| match v {
                    Signal::Lit(l) => Some(*l),
                    Signal::Const(_) => None,
                })
                .collect();
            match syms[..] {
                [l] => Signal::Lit(if inv { !l } else { l }),
                _ => {
                    let y = cnf.new_var().pos();
                    for &l in &syms {
                        cnf.add_clause([y, !l]);
                    }
                    let mut big = syms.clone();
                    big.push(!y);
                    cnf.add_clause(big);
                    Signal::Lit(if inv { !y } else { y })
                }
            }
        }
        CellKind::Xor | CellKind::Xnor => {
            let mut parity = kind == CellKind::Xnor;
            let mut syms: Vec<Lit> = Vec::new();
            for v in ins {
                match v {
                    Signal::Const(b) => parity ^= b,
                    Signal::Lit(l) => syms.push(*l),
                }
            }
            let mut acc = syms[0];
            for &l in &syms[1..] {
                let t = cnf.new_var().pos();
                cnf.gate_xor(t, acc, l);
                acc = t;
            }
            Signal::Lit(if parity { !acc } else { acc })
        }
        CellKind::Mux => match ins[0] {
            Signal::Const(s) => ins[if s { 2 } else { 1 }],
            Signal::Lit(sel) => match (ins[1], ins[2]) {
                (Signal::Const(a), Signal::Const(b)) if a == b => Signal::Const(a),
                (Signal::Const(false), Signal::Const(true)) => Signal::Lit(sel),
                (Signal::Const(true), Signal::Const(false)) => Signal::Lit(!sel),
                (a, b) => {
                    let y = cnf.new_var().pos();
                    cnf.gate_mux(y, sel, a.as_lit(const_false), b.as_lit(const_false));
                    Signal::Lit(y)
                }
            },
        },
    }
}

/// Encodes `nl` under *bound inputs* — each primary input is either a
/// known constant or an externally supplied literal — folding constants
/// through the circuit so only the logic that actually depends on
/// symbolic inputs costs variables and clauses.
///
/// This is the workhorse of the persistent-solver SAT attack: an
/// observation copy has all functional inputs constant and only the key
/// inputs symbolic, so the folded copy shrinks to the key-dependent
/// cone. `const_false` must be a literal that is false in every model
/// (callers allocate one variable and add a unit clause once); it is
/// only used to lower residual constants inside mixed MUXes. DFF outputs
/// are fresh free variables, exactly as in [`encode_netlist`].
///
/// Returns one [`Signal`] per primary output, in port order.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics unless exactly one binding per primary input is given.
pub fn encode_netlist_bound<B: CnfBuilder>(
    nl: &Netlist,
    bindings: &[Signal],
    const_false: Lit,
    sink: &mut B,
) -> Result<Vec<Signal>, NetlistError> {
    assert_eq!(
        bindings.len(),
        nl.inputs().len(),
        "one binding per primary input"
    );
    let order = nl.topo_order()?;
    let mut vals: Vec<Option<Signal>> = vec![None; nl.num_nets()];
    for (k, &pi) in nl.inputs().iter().enumerate() {
        vals[pi.index()] = Some(bindings[k]);
    }
    for d in nl.dffs() {
        let out = nl.gate(d).output;
        vals[out.index()] = Some(Signal::Lit(sink.new_var().pos()));
    }
    for gid in order {
        let g = nl.gate(gid);
        let ins: Vec<Signal> = g
            .inputs
            .iter()
            .map(|&i| vals[i.index()].expect("topological order"))
            .collect();
        vals[g.output.index()] = Some(fold_gate(sink, const_false, g.kind, &ins));
    }
    Ok(nl
        .outputs()
        .iter()
        .map(|&(n, _)| vals[n.index()].expect("outputs are driven"))
        .collect())
}

/// Builds a miter of two combinational netlists with identical interfaces:
/// shared primary inputs, and a single literal (returned) that is true iff
/// at least one primary output differs.
///
/// Asking the solver for that literal answers equivalence: UNSAT under
/// `[diff]` means the circuits agree on every input.
///
/// # Errors
///
/// Returns a netlist error if either circuit is cyclic.
///
/// # Panics
///
/// Panics if the interfaces (input/output counts) do not match.
pub fn miter<B: CnfBuilder>(
    a: &Netlist,
    b: &Netlist,
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
    let enc_a = encode_netlist(a, cnf)?;
    let enc_b = encode_netlist(b, cnf)?;
    // tie the inputs together
    for (&va, &vb) in enc_a.input_vars.iter().zip(&enc_b.input_vars) {
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
        let (_, _, diff) = miter(&a, &b, &mut cnf).expect("miter");
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
        let (enc_a, _, diff) = miter(&a, &b, &mut cnf).expect("miter");
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

    #[test]
    fn fully_bound_encoding_folds_to_evaluation() {
        // with every input constant, the folded encoding must collapse to
        // plain evaluation without emitting a single clause or variable
        for nl in [c17(), majority()] {
            let n = nl.inputs().len();
            for pattern in 0..(1u32 << n) {
                let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
                let mut cnf = Cnf::new();
                let cf = cnf.new_var().pos();
                let vars_before = cnf.num_vars();
                let clauses_before = cnf.clauses().len();
                let bindings: Vec<Signal> = inputs.iter().map(|&b| Signal::Const(b)).collect();
                let outs = encode_netlist_bound(&nl, &bindings, cf, &mut cnf).expect("encode");
                assert_eq!(
                    cnf.num_vars(),
                    vars_before,
                    "no variables for constant logic"
                );
                assert_eq!(cnf.clauses().len(), clauses_before, "no clauses either");
                let expected = nl.evaluate(&inputs);
                for (k, out) in outs.iter().enumerate() {
                    assert_eq!(
                        *out,
                        Signal::Const(expected[k]),
                        "pattern {pattern} output {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_encoding_matches_full_encoding_on_symbolic_inputs() {
        // all-symbolic bindings: the folded encoding must define the same
        // function as encode_netlist — check every model on every input
        use seceda_netlist::{random_circuit, RandomCircuitConfig};
        for seed in [3u64, 8, 19] {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 5,
                num_gates: 40,
                num_outputs: 3,
                with_xor: true,
                seed,
            });
            let mut cnf = Cnf::new();
            let cf = cnf.new_var().pos();
            cnf.add_clause([!cf]);
            let in_lits: Vec<Lit> = (0..5).map(|_| cnf.new_var().pos()).collect();
            let bindings: Vec<Signal> = in_lits.iter().map(|&l| Signal::Lit(l)).collect();
            let outs = encode_netlist_bound(&nl, &bindings, cf, &mut cnf).expect("encode");
            for pattern in 0..(1u32 << 5) {
                let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
                let assumptions: Vec<Lit> = in_lits
                    .iter()
                    .zip(&inputs)
                    .map(|(&l, &b)| if b { l } else { !l })
                    .collect();
                let mut solver = Solver::from_cnf(&cnf);
                match solver.solve(&assumptions, &Budget::unlimited()) {
                    SolveOutcome::Sat(model) => {
                        let expected = nl.evaluate(&inputs);
                        for (k, out) in outs.iter().enumerate() {
                            let got = match out {
                                Signal::Const(b) => *b,
                                Signal::Lit(l) => l.eval(model[l.var().index()]),
                            };
                            assert_eq!(got, expected[k], "seed {seed} pattern {pattern} out {k}");
                        }
                    }
                    other => panic!("bound encoding unsat under concrete inputs: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn partially_bound_encoding_matches_cofactor() {
        // half constants, half symbolic — the folded cone must equal the
        // cofactor of the circuit under the fixed bits
        let nl = c17();
        let fixed = [true, false, true];
        let mut cnf = Cnf::new();
        let cf = cnf.new_var().pos();
        cnf.add_clause([!cf]);
        let free: Vec<Lit> = (0..2).map(|_| cnf.new_var().pos()).collect();
        let bindings: Vec<Signal> = fixed
            .iter()
            .map(|&b| Signal::Const(b))
            .chain(free.iter().map(|&l| Signal::Lit(l)))
            .collect();
        let outs = encode_netlist_bound(&nl, &bindings, cf, &mut cnf).expect("encode");
        for pattern in 0..4u32 {
            let tail: Vec<bool> = (0..2).map(|b| (pattern >> b) & 1 == 1).collect();
            let mut inputs = fixed.to_vec();
            inputs.extend(&tail);
            let assumptions: Vec<Lit> = free
                .iter()
                .zip(&tail)
                .map(|(&l, &b)| if b { l } else { !l })
                .collect();
            let mut solver = Solver::from_cnf(&cnf);
            match solver.solve(&assumptions, &Budget::unlimited()) {
                SolveOutcome::Sat(model) => {
                    let expected = nl.evaluate(&inputs);
                    for (k, out) in outs.iter().enumerate() {
                        let got = match out {
                            Signal::Const(b) => *b,
                            Signal::Lit(l) => l.eval(model[l.var().index()]),
                        };
                        assert_eq!(got, expected[k], "pattern {pattern} out {k}");
                    }
                }
                other => panic!("cofactor encoding unsat under concrete inputs: {other:?}"),
            }
        }
    }
}
