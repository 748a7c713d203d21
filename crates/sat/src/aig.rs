//! Structurally-hashed AIG (and-inverter graph) intermediate form.
//!
//! Netlists lower into a node table of two-input ANDs and XORs with
//! complemented edges, built through a *structural hash*: every node
//! construction first canonicalizes its operands (constant folding,
//! absorption, operand ordering, complement normalization) and then
//! looks the shape up in a hash table, so structurally identical
//! subcircuits — whether inside one netlist copy or across many —
//! become one node. The hash is *two-level*: an AND of two complemented
//! ANDs whose children line up as `¬(p∧q) ∧ ¬(¬p∧¬q)` is recognized and
//! re-consed as the single node `XOR(p, q)`, so XOR structure built out
//! of raw ANDs and XOR structure lowered from explicit gates share.
//!
//! The payoff for the SAT attack: the two keyed circuit copies of the
//! miter share every subcircuit that does not depend on the key (they
//! read the same input nodes), and each is encoded to CNF exactly once.
//! [`AigCnf`] keeps a persistent node→literal map, so incremental
//! callers (the DIP loop) pay clauses only for nodes that are *new*
//! since the last lowering.

use crate::cnf::{CnfBuilder, Lit};
use seceda_netlist::{CellKind, Netlist, NetlistError};
use std::collections::HashMap;

/// An edge into the AIG: a node index plus a complement bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false edge (the reserved node 0, uncomplemented).
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true edge (the reserved node 0, complemented).
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, complement: bool) -> Self {
        AigLit(node << 1 | complement as u32)
    }

    /// Index of the node this edge points at.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` if the edge is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The constant edge for `b`.
    pub fn constant(b: bool) -> Self {
        if b {
            AigLit::TRUE
        } else {
            AigLit::FALSE
        }
    }

    /// The constant value of this edge, if it is one.
    pub fn as_const(self) -> Option<bool> {
        match self {
            AigLit::FALSE => Some(false),
            AigLit::TRUE => Some(true),
            _ => None,
        }
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;

    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

/// Node shapes. `Input` carries the external CNF literal the node
/// stands for; `And`/`Xor` hold canonically ordered operand edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// Reserved node 0: constant false.
    Const,
    /// An externally supplied literal (primary input, key bit, state).
    Input(Lit),
    And(AigLit, AigLit),
    Xor(AigLit, AigLit),
}

/// Hash-table key discriminants (the node shape after canonicalization).
const KIND_INPUT: u8 = 1;
const KIND_AND: u8 = 2;
const KIND_XOR: u8 = 3;

/// The structurally-hashed AIG node table.
///
/// Append-only: node indices are stable, so [`AigCnf`] maps can be kept
/// across many lowering calls.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(u8, u32, u32), u32>,
    hash_hits: u64,
}

impl Aig {
    /// An empty AIG (just the constant node).
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            strash: HashMap::new(),
            hash_hits: 0,
        }
    }

    /// Number of nodes in the table (including the constant node).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// How many node constructions were answered from the structural
    /// hash instead of allocating — the sharing the AIG discovered.
    pub fn hash_hits(&self) -> u64 {
        self.hash_hits
    }

    fn intern(&mut self, key: (u8, u32, u32), node: Node) -> u32 {
        if let Some(&n) = self.strash.get(&key) {
            self.hash_hits += 1;
            return n;
        }
        let n = u32::try_from(self.nodes.len()).expect("AIG node overflow");
        self.nodes.push(node);
        self.strash.insert(key, n);
        n
    }

    /// The input node carrying external literal `lit`. Complements
    /// normalize (`input(!l) == !input(l)`), so each variable gets one
    /// node.
    pub fn input(&mut self, lit: Lit) -> AigLit {
        let pos = lit.var().pos();
        let n = self.intern((KIND_INPUT, pos.code() as u32, 0), Node::Input(pos));
        AigLit::new(n, !lit.is_positive())
    }

    /// `a AND b`, canonicalized and hash-consed.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE || a == b {
            return b;
        }
        if b == AigLit::TRUE {
            return a;
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        // two-level hash: ¬(p∧q) ∧ ¬(r∧s) with {r,s} = {¬p,¬q} is XOR(p,q)
        if a.is_complement() && b.is_complement() {
            if let (Node::And(p, q), Node::And(r, s)) = (self.nodes[a.node()], self.nodes[b.node()])
            {
                if (r == !p && s == !q) || (r == !q && s == !p) {
                    return self.xor(p, q);
                }
            }
        }
        AigLit::new(self.intern((KIND_AND, a.0, b.0), Node::And(a, b)), false)
    }

    /// `a OR b` via De Morgan.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// `a XOR b`, complement-normalized (signs migrate to the output
    /// edge) and hash-consed.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        if a == b {
            return AigLit::FALSE;
        }
        if a == !b {
            return AigLit::TRUE;
        }
        if let Some(c) = a.as_const() {
            return if c { !b } else { b };
        }
        if let Some(c) = b.as_const() {
            return if c { !a } else { a };
        }
        let out_neg = a.is_complement() ^ b.is_complement();
        let (a, b) = (
            AigLit::new(a.node() as u32, false),
            AigLit::new(b.node() as u32, false),
        );
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let n = self.intern((KIND_XOR, a.0, b.0), Node::Xor(a, b));
        AigLit::new(n, out_neg)
    }

    /// `s ? b : a` (the [`CellKind::Mux`] convention: select high picks
    /// the *second* data input), composed from AND/OR so the components
    /// hash-cons.
    pub fn mux(&mut self, s: AigLit, a: AigLit, b: AigLit) -> AigLit {
        let lo = self.and(!s, a);
        let hi = self.and(s, b);
        self.or(lo, hi)
    }

    /// n-ary AND fold.
    fn and_n(&mut self, ins: &[AigLit]) -> AigLit {
        ins.iter().fold(AigLit::TRUE, |acc, &l| self.and(acc, l))
    }

    /// n-ary OR fold.
    fn or_n(&mut self, ins: &[AigLit]) -> AigLit {
        ins.iter().fold(AigLit::FALSE, |acc, &l| self.or(acc, l))
    }

    /// n-ary XOR fold.
    fn xor_n(&mut self, ins: &[AigLit]) -> AigLit {
        ins.iter().fold(AigLit::FALSE, |acc, &l| self.xor(acc, l))
    }

    /// Lowers one gate function over already-lowered input edges.
    fn gate(&mut self, kind: CellKind, ins: &[AigLit]) -> AigLit {
        match kind {
            CellKind::Const0 => AigLit::FALSE,
            CellKind::Const1 => AigLit::TRUE,
            CellKind::Buf => ins[0],
            CellKind::Not => !ins[0],
            CellKind::And => self.and_n(ins),
            CellKind::Nand => !self.and_n(ins),
            CellKind::Or => self.or_n(ins),
            CellKind::Nor => !self.or_n(ins),
            CellKind::Xor => self.xor_n(ins),
            CellKind::Xnor => !self.xor_n(ins),
            CellKind::Mux => self.mux(ins[0], ins[1], ins[2]),
            CellKind::Dff => unreachable!("DFF outputs are pre-bound"),
        }
    }
}

/// Persistent node→literal map for lowering AIG edges to CNF.
///
/// Keep one alongside a long-lived [`Aig`] and a long-lived solver: each
/// [`AigCnf::lit_of`] call emits clauses only for nodes not yet lowered,
/// which is what makes repeated lowering through a shared AIG (the DIP
/// loop's observation copies) incremental.
#[derive(Debug, Clone)]
pub struct AigCnf {
    lits: Vec<Option<Lit>>,
    /// A literal false in every model, lowering the constant node.
    const_false: Lit,
}

impl AigCnf {
    /// A fresh map. `const_false` must be a literal the caller pinned
    /// false (one variable plus one unit clause, allocated once).
    pub fn new(const_false: Lit) -> Self {
        AigCnf {
            lits: Vec::new(),
            const_false,
        }
    }

    /// The CNF literal carrying edge `l`, emitting Tseitin clauses into
    /// `sink` for every not-yet-lowered node under it.
    pub fn lit_of<B: CnfBuilder>(&mut self, aig: &Aig, l: AigLit, sink: &mut B) -> Lit {
        if self.lits.len() < aig.nodes.len() {
            self.lits.resize(aig.nodes.len(), None);
        }
        let mut stack = vec![l.node()];
        while let Some(&n) = stack.last() {
            if self.lits[n].is_some() {
                stack.pop();
                continue;
            }
            match aig.nodes[n] {
                Node::Const => {
                    self.lits[n] = Some(self.const_false);
                    stack.pop();
                }
                Node::Input(lit) => {
                    self.lits[n] = Some(lit);
                    stack.pop();
                }
                Node::And(a, b) | Node::Xor(a, b) => {
                    let (la, lb) = (self.lits[a.node()], self.lits[b.node()]);
                    let (Some(la), Some(lb)) = (la, lb) else {
                        if la.is_none() {
                            stack.push(a.node());
                        }
                        if lb.is_none() {
                            stack.push(b.node());
                        }
                        continue;
                    };
                    let la = if a.is_complement() { !la } else { la };
                    let lb = if b.is_complement() { !lb } else { lb };
                    let y = sink.new_var().pos();
                    match aig.nodes[n] {
                        Node::And(..) => sink.gate_and(y, la, lb),
                        Node::Xor(..) => sink.gate_xor(y, la, lb),
                        _ => unreachable!(),
                    }
                    self.lits[n] = Some(y);
                    stack.pop();
                }
            }
        }
        let lit = self.lits[l.node()].expect("just lowered");
        if l.is_complement() {
            !lit
        } else {
            lit
        }
    }
}

/// Lowers the combinational logic of `nl` into `aig` under *bound
/// inputs*: `bindings[k]` is the AIG edge driving primary input *k*
/// (a constant, an [`Aig::input`] node, or any internal edge). DFF
/// outputs become fresh free variables allocated from `sink`, as in
/// [`crate::encode_netlist`].
///
/// Returns one edge per primary output, in port order; lower them with
/// [`AigCnf::lit_of`] when (and only when) they are needed as literals.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics unless exactly one binding per primary input is given.
pub fn lower_netlist_bound<B: CnfBuilder>(
    nl: &Netlist,
    aig: &mut Aig,
    bindings: &[AigLit],
    sink: &mut B,
) -> Result<Vec<AigLit>, NetlistError> {
    assert_eq!(
        bindings.len(),
        nl.inputs().len(),
        "one binding per primary input"
    );
    let order = nl.topo_order()?;
    let mut vals: Vec<Option<AigLit>> = vec![None; nl.num_nets()];
    for (k, &pi) in nl.inputs().iter().enumerate() {
        vals[pi.index()] = Some(bindings[k]);
    }
    for d in nl.dffs() {
        let out = nl.gate(d).output;
        let free = sink.new_var().pos();
        vals[out.index()] = Some(aig.input(free));
    }
    let mut ins: Vec<AigLit> = Vec::new();
    for gid in order {
        let g = nl.gate(gid);
        ins.clear();
        ins.extend(
            g.inputs
                .iter()
                .map(|&i| vals[i.index()].expect("topological order")),
        );
        vals[g.output.index()] = Some(aig.gate(g.kind, &ins));
    }
    Ok(nl
        .outputs()
        .iter()
        .map(|&(n, _)| vals[n.index()].expect("outputs are driven"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, SolveOutcome};
    use crate::cnf::{Cnf, Var};
    use crate::solver::Solver;
    use seceda_netlist::{c17, majority, random_circuit, RandomCircuitConfig};

    fn fresh(cnf: &mut Cnf) -> (Lit, AigCnf) {
        let cf = cnf.new_var().pos();
        cnf.add_clause([!cf]);
        (cf, AigCnf::new(cf))
    }

    #[test]
    fn constant_folding_and_absorption() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let a = aig.input(cnf.new_var().pos());
        assert_eq!(aig.and(AigLit::FALSE, a), AigLit::FALSE);
        assert_eq!(aig.and(AigLit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), AigLit::FALSE);
        assert_eq!(aig.or(a, AigLit::TRUE), AigLit::TRUE);
        assert_eq!(aig.xor(a, a), AigLit::FALSE);
        assert_eq!(aig.xor(a, !a), AigLit::TRUE);
        assert_eq!(aig.xor(a, AigLit::FALSE), a);
        assert_eq!(aig.xor(a, AigLit::TRUE), !a);
    }

    #[test]
    fn structural_hash_shares_nodes() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let a = aig.input(cnf.new_var().pos());
        let b = aig.input(cnf.new_var().pos());
        let n1 = aig.and(a, b);
        let n2 = aig.and(b, a); // operand order canonicalizes
        assert_eq!(n1, n2);
        assert_eq!(aig.hash_hits(), 1);
        let x1 = aig.xor(a, !b);
        let x2 = aig.xor(!a, b); // complements migrate to the edge
        assert_eq!(x1, x2);
    }

    #[test]
    fn two_level_hash_recognizes_xor_from_ands() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let a = aig.input(cnf.new_var().pos());
        let b = aig.input(cnf.new_var().pos());
        let explicit = aig.xor(a, b);
        // (a OR b) AND NOT(a AND b) == ¬(¬a∧¬b) ∧ ¬(a∧b)
        let n_or = aig.or(a, b);
        let n_and = aig.and(a, b);
        let built = aig.and(n_or, !n_and);
        assert_eq!(built, explicit, "AND-built XOR must cons to the XOR node");
    }

    #[test]
    fn input_complement_normalizes() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        assert_eq!(aig.input(v.neg()), !aig.input(v.pos()));
        assert_eq!(aig.num_nodes(), 2); // const + one input node
    }

    /// Every model of the AIG-encoded circuit matches simulation.
    fn check_aig_encoding(nl: &Netlist) {
        let mut cnf = Cnf::new();
        let (_cf, mut map) = fresh(&mut cnf);
        let mut aig = Aig::new();
        let in_vars: Vec<Var> = (0..nl.inputs().len()).map(|_| cnf.new_var()).collect();
        let bindings: Vec<AigLit> = in_vars.iter().map(|v| aig.input(v.pos())).collect();
        let outs = lower_netlist_bound(nl, &mut aig, &bindings, &mut cnf).expect("lower");
        let out_lits: Vec<Lit> = outs
            .iter()
            .map(|&o| map.lit_of(&aig, o, &mut cnf))
            .collect();
        let n = nl.inputs().len();
        for pattern in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
            let assumptions: Vec<Lit> = in_vars
                .iter()
                .zip(&inputs)
                .map(|(&v, &b)| v.lit(b))
                .collect();
            let mut solver = Solver::from_cnf(&cnf);
            match solver.solve(&assumptions, &Budget::unlimited()) {
                SolveOutcome::Sat(model) => {
                    let expected = nl.evaluate(&inputs);
                    for (k, &ol) in out_lits.iter().enumerate() {
                        assert_eq!(
                            ol.eval(model[ol.var().index()]),
                            expected[k],
                            "pattern {pattern} output {k}"
                        );
                    }
                }
                other => panic!("AIG encoding unsat under concrete inputs: {other:?}"),
            }
        }
    }

    #[test]
    fn aig_encoding_matches_simulation_on_c17_and_majority() {
        check_aig_encoding(&c17());
        check_aig_encoding(&majority());
    }

    #[test]
    fn aig_encoding_matches_simulation_on_random_circuits() {
        for seed in [2u64, 7, 23] {
            let nl = random_circuit(&RandomCircuitConfig {
                num_inputs: 5,
                num_gates: 40,
                num_outputs: 3,
                with_xor: true,
                seed,
            });
            check_aig_encoding(&nl);
        }
    }

    #[test]
    fn two_copies_share_every_non_key_node() {
        // lowering the same netlist twice over the same input nodes
        // must not allocate a single new node the second time
        let nl = c17();
        let mut cnf = Cnf::new();
        let mut aig = Aig::new();
        let ins: Vec<AigLit> = (0..5)
            .map(|_| {
                let v = cnf.new_var();
                aig.input(v.pos())
            })
            .collect();
        let o1 = lower_netlist_bound(&nl, &mut aig, &ins, &mut cnf).expect("lower");
        let nodes_after_first = aig.num_nodes();
        let o2 = lower_netlist_bound(&nl, &mut aig, &ins, &mut cnf).expect("lower");
        assert_eq!(aig.num_nodes(), nodes_after_first, "second copy is free");
        assert_eq!(o1, o2);
    }

    #[test]
    fn incremental_lowering_emits_each_node_once() {
        let mut cnf = Cnf::new();
        let (_cf, mut map) = fresh(&mut cnf);
        let mut aig = Aig::new();
        let a = aig.input(cnf.new_var().pos());
        let b = aig.input(cnf.new_var().pos());
        let ab = aig.and(a, b);
        map.lit_of(&aig, ab, &mut cnf);
        let clauses_after = cnf.clauses().len();
        // same node again: no new clauses, same literal
        let l1 = map.lit_of(&aig, ab, &mut cnf);
        let l2 = map.lit_of(&aig, !ab, &mut cnf);
        assert_eq!(cnf.clauses().len(), clauses_after);
        assert_eq!(l1, !l2);
        // a superstructure pays only for the new node
        let c = aig.input(cnf.new_var().pos());
        let abc = aig.and(ab, c);
        map.lit_of(&aig, abc, &mut cnf);
        assert_eq!(
            cnf.clauses().len(),
            clauses_after + 3,
            "one AND = 3 clauses"
        );
    }

    #[test]
    fn folded_constants_cost_nothing() {
        // all-constant bindings collapse to constant edges: no nodes
        // beyond inputs, no clauses
        let nl = c17();
        let mut cnf = Cnf::new();
        let (_cf, _map) = fresh(&mut cnf);
        let mut aig = Aig::new();
        let n = nl.inputs().len();
        for pattern in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
            let bindings: Vec<AigLit> = inputs.iter().map(|&b| AigLit::constant(b)).collect();
            let before = aig.num_nodes();
            let (vars_before, clauses_before) = (cnf.num_vars(), cnf.clauses().len());
            let outs = lower_netlist_bound(&nl, &mut aig, &bindings, &mut cnf).expect("lower");
            assert_eq!(
                aig.num_nodes(),
                before,
                "constant lowering allocates nothing"
            );
            assert_eq!(cnf.num_vars(), vars_before, "no variables either");
            assert_eq!(cnf.clauses().len(), clauses_before, "nor clauses");
            let expected = nl.evaluate(&inputs);
            for (k, o) in outs.iter().enumerate() {
                assert_eq!(o.as_const(), Some(expected[k]), "pattern {pattern} out {k}");
            }
        }
    }

    #[test]
    fn partially_bound_encoding_matches_cofactor() {
        // three inputs constant, two symbolic — the mixed binding of every
        // DIP observation copy: the lowered cone must equal the cofactor
        // of the circuit under the fixed bits
        let nl = c17();
        let fixed = [true, false, true];
        let mut cnf = Cnf::new();
        let (_cf, mut map) = fresh(&mut cnf);
        let mut aig = Aig::new();
        let free: Vec<Lit> = (0..2).map(|_| cnf.new_var().pos()).collect();
        let bindings: Vec<AigLit> = fixed
            .iter()
            .map(|&b| AigLit::constant(b))
            .chain(free.iter().map(|&l| aig.input(l)))
            .collect();
        let outs = lower_netlist_bound(&nl, &mut aig, &bindings, &mut cnf).expect("lower");
        let out_lits: Vec<Lit> = outs
            .iter()
            .map(|&o| map.lit_of(&aig, o, &mut cnf))
            .collect();
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
                    for (k, &ol) in out_lits.iter().enumerate() {
                        assert_eq!(
                            ol.eval(model[ol.var().index()]),
                            expected[k],
                            "pattern {pattern} out {k}"
                        );
                    }
                }
                other => panic!("cofactor lowering unsat under concrete inputs: {other:?}"),
            }
        }
    }
}
