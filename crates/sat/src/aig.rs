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
//! of raw ANDs and XOR structure lowered from explicit gates share. The
//! table keys a shape as one `u128` and hashes it with one folded
//! multiply under a per-process seed; a construction hashes once.
//!
//! The payoff for the SAT attack: the two keyed circuit copies of the
//! miter share every subcircuit that does not depend on the key (they
//! read the same input nodes), and each is encoded to CNF exactly once.
//! [`AigCnf`] keeps a persistent node→literal map, so incremental
//! callers (the DIP loop) pay clauses only for nodes that are *new*
//! since the last lowering.

use crate::cnf::{CnfBuilder, Lit, Var};
use seceda_netlist::{CellKind, Netlist, NetlistError};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

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
    fn is_complement(self) -> bool {
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

/// A node shape as one structural-hash key: the discriminant above the
/// two operand codes.
fn key(kind: u8, a: u32, b: u32) -> u128 {
    u128::from(kind) << 64 | u128::from(b) << 32 | u128::from(a)
}

/// The structural hash's hasher state: a seed drawn once per process.
/// Nodes and their order never depend on the hash, only the table's
/// buckets do; with the seed unknown, a netlist cannot be built so that
/// its nodes all land in one bucket run.
#[derive(Debug, Clone, Copy)]
struct StrashState([u64; 2]);

impl Default for StrashState {
    fn default() -> Self {
        static SEED: OnceLock<[u64; 2]> = OnceLock::new();
        StrashState(*SEED.get_or_init(|| {
            let keys = RandomState::new();
            [keys.hash_one(0u8), keys.hash_one(1u8)]
        }))
    }
}

impl BuildHasher for StrashState {
    type Hasher = StrashHasher;

    fn build_hasher(&self) -> StrashHasher {
        StrashHasher {
            seed: self.0,
            hash: 0,
        }
    }
}

/// Hashes a [`key`] with one folded multiply: the two halves of the
/// 128-bit product of its seeded halves, XORed.
struct StrashHasher {
    seed: [u64; 2],
    hash: u64,
}

impl Hasher for StrashHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("structural-hash keys are u128")
    }

    fn write_u128(&mut self, key: u128) {
        let p =
            u128::from(key as u64 ^ self.seed[0]) * u128::from((key >> 64) as u64 ^ self.seed[1]);
        self.hash = p as u64 ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The structurally-hashed AIG node table.
///
/// Nodes are only appended, so indices are stable and [`AigCnf`] maps
/// can be kept across many lowering calls. The one exception is
/// crate-private: a scoped overlay (the fault queries of
/// [`FaultMiter`](crate::FaultMiter)) builds above a mark and truncates
/// the table, and its map, back to that mark when it retires.
#[derive(Debug, Clone)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<u128, u32, StrashState>,
    hash_hits: u64,
}

impl Default for Aig {
    fn default() -> Self {
        Aig::new()
    }
}

impl Aig {
    /// An empty AIG (just the constant node).
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            strash: HashMap::default(),
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

    /// Drops every node at index `mark` or above, together with its
    /// structural-hash entry, so later constructions cannot reach them.
    pub(crate) fn truncate(&mut self, mark: usize) {
        for n in mark..self.nodes.len() {
            let key = match self.nodes[n] {
                Node::Const => unreachable!("the constant node is never truncated"),
                Node::Input(lit) => key(KIND_INPUT, lit.code() as u32, 0),
                Node::And(a, b) => key(KIND_AND, a.0, b.0),
                Node::Xor(a, b) => key(KIND_XOR, a.0, b.0),
            };
            self.strash.remove(&key);
        }
        self.nodes.truncate(mark);
    }

    /// The node of shape `key`, allocated as `node` if it is new; one
    /// hash either way.
    fn intern(&mut self, key: u128, node: Node) -> u32 {
        match self.strash.entry(key) {
            Entry::Occupied(e) => {
                self.hash_hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => {
                let n = u32::try_from(self.nodes.len()).expect("AIG node overflow");
                self.nodes.push(node);
                *e.insert(n)
            }
        }
    }

    /// The input node carrying external literal `lit`. Complements
    /// normalize (`input(!l) == !input(l)`), so each variable gets one
    /// node.
    pub fn input(&mut self, lit: Lit) -> AigLit {
        let pos = lit.var().pos();
        let n = self.intern(key(KIND_INPUT, pos.code() as u32, 0), Node::Input(pos));
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
        AigLit::new(self.intern(key(KIND_AND, a.0, b.0), Node::And(a, b)), false)
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
        let n = self.intern(key(KIND_XOR, a.0, b.0), Node::Xor(a, b));
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
    pub(crate) fn gate(&mut self, kind: CellKind, ins: &[AigLit]) -> AigLit {
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

    /// Lowers every node of `aig` not yet lowered, reachable from a net
    /// or not: the two-level XOR rule leaves its AND operands orphaned,
    /// and a later construction may still hash-hit them.
    pub(crate) fn lower_all<B: CnfBuilder>(&mut self, aig: &Aig, sink: &mut B) {
        for n in 1..aig.num_nodes() {
            self.lit_of(aig, AigLit::new(n as u32, false), sink);
        }
    }

    /// Forgets the literals of every node at index `mark` or above.
    pub(crate) fn truncate(&mut self, mark: usize) {
        self.lits.truncate(mark);
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

/// Lowers the combinational logic of `nl` into `aig`: `inputs[k]` is
/// the AIG edge driving primary input *k* (a constant, an
/// [`Aig::input`] node, or any internal edge), and `state[j]` drives the
/// output of the *j*-th DFF in [`Netlist::dffs`] order. With `state`
/// `None`, DFF outputs become fresh free variables allocated from
/// `sink`. Undriven nets other than primary inputs lower to constant
/// false, as [`Netlist::evaluate`] reads them.
///
/// Returns one edge per net, indexed by
/// [`NetId::index`](seceda_netlist::NetId::index); lower the ones
/// needed as literals with [`AigCnf::lit_of`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
///
/// # Panics
///
/// Panics unless exactly one edge per primary input (and, if given, one
/// per DFF) is passed.
pub fn lower_netlist<B: CnfBuilder>(
    nl: &Netlist,
    aig: &mut Aig,
    inputs: &[AigLit],
    state: Option<&[AigLit]>,
    sink: &mut B,
) -> Result<Vec<AigLit>, NetlistError> {
    assert_eq!(
        inputs.len(),
        nl.inputs().len(),
        "one edge per primary input"
    );
    let order = nl.topo_order()?;
    let mut nets = vec![AigLit::FALSE; nl.num_nets()];
    for (&pi, &e) in nl.inputs().iter().zip(inputs) {
        nets[pi.index()] = e;
    }
    let dffs = nl.dffs();
    if let Some(state) = state {
        assert_eq!(state.len(), dffs.len(), "one edge per DFF");
    }
    for (j, &d) in dffs.iter().enumerate() {
        nets[nl.gate(d).output.index()] = match state {
            Some(state) => state[j],
            None => aig.input(sink.new_var().pos()),
        };
    }
    let mut ins: Vec<AigLit> = Vec::new();
    for gid in order {
        let g = nl.gate(gid);
        ins.clear();
        ins.extend(g.inputs.iter().map(|&i| nets[i.index()]));
        nets[g.output.index()] = aig.gate(g.kind, &ins);
    }
    Ok(nets)
}

/// A miter of two netlists built in one [`Aig`], from [`miter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Miter {
    /// The input variables: every input of `a` in port order, then the
    /// inputs of `b` past the shared prefix, then — when both copies
    /// have the same number of DFFs — one shared state variable per DFF
    /// in [`Netlist::dffs`] order.
    pub vars: Vec<Var>,
    /// The edges driving `a`'s inputs, in port order.
    pub a_inputs: Vec<AigLit>,
    /// The edges driving `b`'s inputs: `a`'s shared prefix, then its own.
    pub b_inputs: Vec<AigLit>,
    /// True iff some primary output differs between the two copies.
    pub diff: AigLit,
}

/// Builds a miter of two netlists with matching interfaces: the first
/// `shared_inputs` primary inputs are tied together, the rest stay free
/// in each copy, and [`Miter::diff`] is true iff some output differs.
///
/// When both netlists have the same number of DFFs, the *k*-th DFF of
/// each (in [`Netlist::dffs`] order) reads one shared state variable,
/// and `diff` is also true when some matched pair's D inputs differ:
/// an UNSAT `diff` then proves the copies equivalent under that
/// register correspondence (equal outputs and equal next state from
/// every shared state). With differing DFF counts, DFF outputs are free
/// in each copy and only the outputs are compared.
///
/// Every input of `a` gets a fresh variable from `sink`, then every
/// unshared input of `b`, then the shared state. Both copies read the
/// same input and state nodes, so all logic that agrees structurally on
/// the shared inputs hash-conses into one node and its output
/// difference folds away: `diff` is
/// [`AigLit::FALSE`] when the copies are structurally equal. With every
/// input shared, an UNSAT `diff` proves equivalence; sharing only a
/// prefix gives the SAT attack's two keyed copies over one functional
/// input.
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
    aig: &mut Aig,
    sink: &mut B,
) -> Result<Miter, NetlistError> {
    let n = a.inputs().len();
    assert_eq!(n, b.inputs().len(), "miter needs matching input counts");
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "miter needs matching output counts"
    );
    assert!(
        shared_inputs <= n,
        "miter cannot share more inputs than it has"
    );
    let (dffs_a, dffs_b) = (a.dffs(), b.dffs());
    let shared_state = dffs_a.len() == dffs_b.len();
    let num_inputs = 2 * n - shared_inputs;
    let num_vars = num_inputs + if shared_state { dffs_a.len() } else { 0 };
    let vars: Vec<Var> = (0..num_vars).map(|_| sink.new_var()).collect();
    let edges: Vec<AigLit> = vars.iter().map(|v| aig.input(v.pos())).collect();
    let a_inputs = edges[..n].to_vec();
    let b_inputs: Vec<AigLit> = edges[..shared_inputs]
        .iter()
        .chain(&edges[n..num_inputs])
        .copied()
        .collect();
    let state = shared_state.then(|| &edges[num_inputs..]);
    let nets_a = lower_netlist(a, aig, &a_inputs, state, sink)?;
    let nets_b = lower_netlist(b, aig, &b_inputs, state, sink)?;
    let mut diff = AigLit::FALSE;
    for (&(oa, _), &(ob, _)) in a.outputs().iter().zip(b.outputs()) {
        let d = aig.xor(nets_a[oa.index()], nets_b[ob.index()]);
        diff = aig.or(diff, d);
    }
    if shared_state {
        for (&da, &db) in dffs_a.iter().zip(&dffs_b) {
            let (na, nb) = (a.gate(da).inputs[0], b.gate(db).inputs[0]);
            let d = aig.xor(nets_a[na.index()], nets_b[nb.index()]);
            diff = aig.or(diff, d);
        }
    }
    Ok(Miter {
        vars,
        a_inputs,
        b_inputs,
        diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, SolveOutcome};
    use crate::cnf::{Cnf, Var};
    use crate::solver::Solver;
    use seceda_netlist::{c17, majority, random_circuit, RandomCircuitConfig};

    /// Lowers `nl` combinationally and picks its primary outputs.
    fn lower_outputs(nl: &Netlist, aig: &mut Aig, inputs: &[AigLit], cnf: &mut Cnf) -> Vec<AigLit> {
        let nets = lower_netlist(nl, aig, inputs, None, cnf).expect("lower");
        nl.outputs().iter().map(|&(n, _)| nets[n.index()]).collect()
    }

    fn fresh(cnf: &mut Cnf) -> (Lit, AigCnf) {
        let cf = cnf.new_var().pos();
        cnf.add_clause([!cf]);
        (cf, AigCnf::new(cf))
    }

    #[test]
    fn default_keeps_the_constant_node() {
        let mut cnf = Cnf::new();
        let mut aig = Aig::default();
        assert_eq!(aig.num_nodes(), Aig::new().num_nodes());
        assert_ne!(aig.input(cnf.new_var().pos()), AigLit::FALSE);
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
        let outs = lower_outputs(nl, &mut aig, &bindings, &mut cnf);
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
    fn aig_encoding_matches_simulation_on_wide_gates() {
        let mut nl = Netlist::new("wide");
        let ins: Vec<_> = (0..5).map(|i| nl.add_input(format!("i{i}"))).collect();
        for (kind, name) in [
            (CellKind::And, "a"),
            (CellKind::Or, "o"),
            (CellKind::Xor, "x"),
            (CellKind::Xnor, "nx"),
            (CellKind::Nand, "na"),
            (CellKind::Nor, "no"),
        ] {
            let net = nl.add_gate(kind, &ins);
            nl.mark_output(net, name);
        }
        let mux = nl.add_gate(CellKind::Mux, &ins[..3]);
        nl.mark_output(mux, "m");
        check_aig_encoding(&nl);
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
        let o1 = lower_outputs(&nl, &mut aig, &ins, &mut cnf);
        let nodes_after_first = aig.num_nodes();
        let o2 = lower_outputs(&nl, &mut aig, &ins, &mut cnf);
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
        let c_lit = cnf.new_var().pos();
        let c = aig.input(c_lit);
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
            let outs = lower_outputs(&nl, &mut aig, &bindings, &mut cnf);
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
        let outs = lower_outputs(&nl, &mut aig, &bindings, &mut cnf);
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

    #[test]
    fn undriven_nets_lower_to_false() {
        // y = AND(a, ghost) with `ghost` never driven: it reads as 0, as
        // in `Netlist::evaluate`, so y folds to constant false
        let mut nl = Netlist::new("ghost");
        let a = nl.add_input("a");
        let ghost = nl.add_net();
        let y = nl.add_gate(CellKind::And, &[a, ghost]);
        nl.mark_output(y, "y");
        let mut cnf = Cnf::new();
        let mut aig = Aig::new();
        let ins = [aig.input(cnf.new_var().pos())];
        let nets = lower_netlist(&nl, &mut aig, &ins, None, &mut cnf).expect("lower");
        assert_eq!(nets[ghost.index()], AigLit::FALSE);
        assert_eq!(nets[y.index()], AigLit::FALSE);
        assert_eq!(nl.evaluate(&[true]), [false]);
    }

    #[test]
    fn state_edges_drive_dff_outputs_in_dffs_order() {
        // q1 = DFF(a), q2 = DFF(!a), y = q1 XOR q2: bound state feeds y
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let na = nl.add_gate(CellKind::Not, &[a]);
        let q1 = nl.add_gate(CellKind::Dff, &[a]);
        let q2 = nl.add_gate(CellKind::Dff, &[na]);
        let y = nl.add_gate(CellKind::Xor, &[q1, q2]);
        nl.mark_output(y, "y");
        let mut cnf = Cnf::new();
        let mut aig = Aig::new();
        let ins = [aig.input(cnf.new_var().pos())];
        let dffs = nl.dffs();
        assert_eq!(dffs.len(), 2);
        for state in [[false, false], [true, false], [false, true], [true, true]] {
            let edges = state.map(AigLit::constant);
            let nets = lower_netlist(&nl, &mut aig, &ins, Some(&edges), &mut cnf).expect("lower");
            for (j, &d) in dffs.iter().enumerate() {
                assert_eq!(nets[nl.gate(d).output.index()], edges[j]);
            }
            assert_eq!(nets[y.index()], AigLit::constant(state[0] ^ state[1]));
        }
        // unbound state: one fresh free variable per DFF
        let vars = cnf.num_vars();
        let nets = lower_netlist(&nl, &mut aig, &ins, None, &mut cnf).expect("lower");
        assert_eq!(cnf.num_vars(), vars + 2);
        assert!(nets[y.index()].as_const().is_none());
    }

    #[test]
    fn truncation_drops_nodes_and_their_hash_entries() {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let (_cf, mut map) = fresh(&mut cnf);
        let a = aig.input(cnf.new_var().pos());
        let b = aig.input(cnf.new_var().pos());
        let ab = aig.and(a, b);
        map.lower_all(&aig, &mut cnf);
        let mark = aig.num_nodes();
        let c_lit = cnf.new_var().pos();
        let c = aig.input(c_lit);
        let abc = aig.and(ab, c);
        let x = aig.xor(abc, a);
        map.lit_of(&aig, x, &mut cnf);
        aig.truncate(mark);
        map.truncate(mark);
        assert_eq!(aig.num_nodes(), mark);
        // the same constructions allocate afresh instead of hash-hitting
        // a dropped node, and the map lowers them anew
        let hits = aig.hash_hits();
        let c2 = aig.input(c_lit);
        assert_eq!(aig.hash_hits(), hits, "dropped input node must not hit");
        let abc2 = aig.and(ab, c2);
        assert_eq!(abc2.node(), mark + 1);
        let clauses = cnf.clauses().len();
        map.lit_of(&aig, abc2, &mut cnf);
        assert_eq!(cnf.clauses().len(), clauses + 3, "re-lowered, not reused");
        // nodes below the mark still hash-hit
        assert_eq!(aig.and(b, a), ab);
    }

    #[test]
    fn miter_folds_structurally_equal_copies() {
        let nl = c17();
        let mut cnf = Cnf::new();
        let mut aig = Aig::new();
        let m = miter(&nl, &nl, 5, &mut aig, &mut cnf).expect("miter");
        assert_eq!(m.diff, AigLit::FALSE);
        assert_eq!(m.vars.len(), 5);
        assert_eq!(m.a_inputs, m.b_inputs);
    }

    #[test]
    fn miter_shares_only_the_prefix() {
        let nl = c17();
        let mut cnf = Cnf::new();
        let mut aig = Aig::new();
        let m = miter(&nl, &nl, 3, &mut aig, &mut cnf).expect("miter");
        assert_eq!(m.vars.len(), 7, "a's five inputs, then b's two own");
        assert_eq!(m.a_inputs[..3], m.b_inputs[..3]);
        assert_ne!(m.a_inputs[3..], m.b_inputs[3..]);
        assert_eq!(m.b_inputs[3], aig.input(m.vars[5].pos()));
        assert!(m.diff.as_const().is_none());
    }

    /// Solves `m.diff` and returns a's inputs from the model, if SAT.
    fn miter_witness(aig: &Aig, m: &Miter, cnf: &mut Cnf, n: usize) -> Option<Vec<bool>> {
        let cf = cnf.new_var().pos();
        cnf.add_clause([!cf]);
        let diff = AigCnf::new(cf).lit_of(aig, m.diff, cnf);
        match Solver::from_cnf(cnf).solve(&[diff], &Budget::unlimited()) {
            SolveOutcome::Sat(model) => {
                Some(m.vars[..n].iter().map(|v| model[v.index()]).collect())
            }
            SolveOutcome::Unsat => None,
            other => panic!("unlimited solve stopped: {other:?}"),
        }
    }

    #[test]
    fn miter_proves_equivalence() {
        // XOR against its sum-of-products, whatever the AIG folds
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
        let mut aig = Aig::new();
        let m = miter(&a, &b, 2, &mut aig, &mut cnf).expect("miter");
        assert_eq!(miter_witness(&aig, &m, &mut cnf, 2), None);
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
        let mut aig = Aig::new();
        let m = miter(&a, &b, 2, &mut aig, &mut cnf).expect("miter");
        let w = miter_witness(&aig, &m, &mut cnf, 2).expect("AND and OR differ");
        assert_ne!(w[0] & w[1], w[0] | w[1]);
    }
}
