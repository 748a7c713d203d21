//! The [`Netlist`] container and its construction / query / evaluation API.

use crate::cell::{CellKind, Gate, GateTags, InputList};
use crate::error::NetlistError;
use crate::id::{GateId, NetId};
use crate::symbol::{Symbol, SymbolTable};
use std::sync::Arc;

/// A single-bit signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Optional user-facing name, interned in the owning netlist's
    /// [`SymbolTable`] (primary ports always have one). Resolve it with
    /// [`Netlist::net_name`] or [`SymbolTable::resolve`].
    pub name: Option<Symbol>,
    /// The gate driving this net, if any. Primary inputs and dangling nets
    /// have no driver.
    pub driver: Option<GateId>,
}

/// Per-net fanout in compressed sparse row form: one flat load array
/// plus offsets, instead of one `Vec` per net.
///
/// Built in two O(n) passes by [`Netlist::fanout`]; at 10^6 gates this
/// replaces a million small allocations with two.
#[derive(Debug, Clone)]
pub struct Fanout {
    offsets: Vec<u32>,
    loads: Vec<GateId>,
}

impl Fanout {
    /// The gates reading `net`, in gate-creation order (a gate reading
    /// the same net through several pins appears once per pin).
    pub fn loads(&self, net: NetId) -> &[GateId] {
        let i = net.index();
        &self.loads[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A flat gate-level netlist.
///
/// The netlist owns a dense array of [`Net`]s and [`Gate`]s. Primary inputs
/// are nets without drivers registered via [`Netlist::add_input`]; primary
/// outputs are (net, name) pairs registered via [`Netlist::mark_output`].
/// The same net may be marked as several outputs and an input may directly
/// be an output.
///
/// # Example
///
/// ```
/// use seceda_netlist::{Netlist, CellKind};
///
/// let mut nl = Netlist::new("half_adder");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let sum = nl.add_gate(CellKind::Xor, &[a, b]);
/// let carry = nl.add_gate(CellKind::And, &[a, b]);
/// nl.mark_output(sum, "sum");
/// nl.mark_output(carry, "carry");
/// assert_eq!(nl.evaluate(&[true, true]), vec![false, true]);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    /// Shared by clones until one of them interns a new name.
    symbols: Arc<SymbolTable>,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    /// `is_input[n]` for every net up to the last primary input: O(1)
    /// membership for the driver checks.
    is_input: Vec<bool>,
    outputs: Vec<(NetId, String)>,
}

/// Structural equality: two netlists are equal when they have the same
/// design name, the same nets in the same order with the same drivers,
/// the same gates (kind, input/output ids, tags), the same primary
/// inputs (ids *and* port names), and the same primary outputs (ids and
/// port names).
///
/// Names of *internal* nets are intentionally not compared: they are
/// debugging metadata, and frontends (e.g. the `.bench` writer/parser
/// pair) may synthesize labels for unnamed nets without changing the
/// circuit.
impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nets.len() == other.nets.len()
            && self.gates == other.gates
            && self.outputs == other.outputs
            && self.inputs == other.inputs
            && self
                .nets
                .iter()
                .zip(&other.nets)
                .all(|(a, b)| a.driver == b.driver)
            && self
                .inputs
                .iter()
                .zip(&other.inputs)
                .all(|(&a, &b)| self.net_name(a) == other.net_name(b))
    }
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist::with_capacity(name, 0, 0)
    }

    /// Creates an empty netlist with pre-sized net and gate arrays and
    /// room for a name per net (parsers know the design size up front).
    pub fn with_capacity(name: impl Into<String>, nets: usize, gates: usize) -> Self {
        Netlist {
            name: name.into(),
            symbols: Arc::new(SymbolTable::with_capacity(nets)),
            nets: Vec::with_capacity(nets),
            gates: Vec::with_capacity(gates),
            inputs: Vec::new(),
            is_input: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The interned name table shared by all nets of this design.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns `name` in this netlist's symbol table. Clones share the
    /// table until one of them interns a name it does not hold yet;
    /// that one then copies it.
    pub fn intern(&mut self, name: &str) -> Symbol {
        SymbolTable::intern_shared(&mut self.symbols, name)
    }

    /// The name of `net`, if it has one.
    pub fn net_name(&self, id: NetId) -> Option<&str> {
        self.nets[id.index()].name.map(|s| self.symbols.resolve(s))
    }

    /// A printable label for `net`: its name, or `n<index>` for unnamed
    /// nets.
    pub fn net_label(&self, id: NetId) -> String {
        match self.net_name(id) {
            Some(name) => name.to_string(),
            None => id.to_string(),
        }
    }

    /// Adds a fresh, undriven, unnamed net and returns its id.
    pub fn add_net(&mut self) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Net {
            name: None,
            driver: None,
        });
        id
    }

    /// Adds a fresh named net (undriven) and returns its id.
    pub fn add_named_net(&mut self, name: impl Into<String>) -> NetId {
        let sym = self.intern(&name.into());
        self.add_symbol_net(sym)
    }

    /// Adds a fresh undriven net named by an already-interned symbol
    /// (the parsers intern each identifier once).
    pub(crate) fn add_symbol_net(&mut self, sym: Symbol) -> NetId {
        let id = self.add_net();
        self.nets[id.index()].name = Some(sym);
        id
    }

    /// Names (or renames) an existing net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_net_name(&mut self, net: NetId, name: &str) {
        let sym = self.intern(name);
        self.nets[net.index()].name = Some(sym);
    }

    /// Declares a new primary input with the given port name.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_named_net(name);
        self.push_input(id);
        id
    }

    /// Returns `true` if `net` is a primary input.
    pub(crate) fn is_input(&self, net: NetId) -> bool {
        self.is_input.get(net.index()).copied().unwrap_or(false)
    }

    fn push_input(&mut self, net: NetId) {
        if self.is_input.len() <= net.index() {
            self.is_input.resize(net.index() + 1, false);
        }
        self.is_input[net.index()] = true;
        self.inputs.push(net);
    }

    /// Promotes an existing undriven net to a primary input (parsers
    /// see forward references to a signal before its `INPUT`
    /// declaration).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if the net is driven
    /// by a gate or already declared as an input.
    pub fn promote_input(&mut self, net: NetId) -> Result<(), NetlistError> {
        if self.nets[net.index()].driver.is_some() || self.is_input(net) {
            return Err(NetlistError::MultipleDrivers(self.net_label(net)));
        }
        self.push_input(net);
        Ok(())
    }

    /// Adds a gate of `kind` reading `inputs`, creating and returning its
    /// output net.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs violates the cell's arity or if an
    /// input id is out of range.
    pub fn add_gate(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        self.add_gate_tagged(kind, inputs, GateTags::default())
    }

    /// Like [`Netlist::add_gate`] but attaches security tags to the gate.
    pub fn add_gate_tagged(&mut self, kind: CellKind, inputs: &[NetId], tags: GateTags) -> NetId {
        let (lo, hi) = kind.arity();
        assert!(
            inputs.len() >= lo && inputs.len() <= hi,
            "cell {kind} cannot take {} inputs",
            inputs.len()
        );
        for &i in inputs {
            assert!(i.index() < self.nets.len(), "input {i} out of range");
        }
        let output = self.add_net();
        let gid = GateId::from_index(self.gates.len());
        self.gates.push(Gate {
            kind,
            inputs: InputList::from_slice(inputs),
            output,
            tags,
        });
        self.nets[output.index()].driver = Some(gid);
        output
    }

    /// Adds a gate that drives an *existing* net instead of creating a
    /// fresh one. This is the primitive behind name-based frontends,
    /// where a signal may be referenced (creating its net) before the
    /// line defining its driver is seen.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] on an input-count violation,
    /// [`NetlistError::UnknownNet`] if any id is out of range, and
    /// [`NetlistError::MultipleDrivers`] if `output` is already driven
    /// or is a primary input.
    pub fn try_add_gate_driving(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
        output: NetId,
        tags: GateTags,
    ) -> Result<GateId, NetlistError> {
        let (lo, hi) = kind.arity();
        if inputs.len() < lo || inputs.len() > hi {
            return Err(NetlistError::BadArity {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        for &i in inputs {
            if i.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(i.to_string()));
            }
        }
        if output.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(output.to_string()));
        }
        if self.nets[output.index()].driver.is_some() || self.is_input(output) {
            return Err(NetlistError::MultipleDrivers(self.net_label(output)));
        }
        let gid = GateId::from_index(self.gates.len());
        self.gates.push(Gate {
            kind,
            inputs: InputList::from_slice(inputs),
            output,
            tags,
        });
        self.nets[output.index()].driver = Some(gid);
        Ok(gid)
    }

    /// Registers `net` as a primary output under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn mark_output(&mut self, net: NetId, name: impl Into<String>) {
        assert!(net.index() < self.nets.len(), "output {net} out of range");
        self.outputs.push((net, name.into()));
    }

    /// Removes all primary-output markings (used by passes that rebuild the
    /// output interface).
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    /// Primary input nets in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as (net, port name) pairs in declaration order.
    pub fn outputs(&self) -> &[(NetId, String)] {
        &self.outputs
    }

    /// Primary output nets in declaration order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.outputs.iter().map(|&(n, _)| n).collect()
    }

    /// All gates, indexable by [`GateId::index`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Mutable access to a gate (used by rewiring passes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        &mut self.gates[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of gate instances.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Ids of all D flip-flop gates, in creation order. The k-th entry
    /// corresponds to state bit k in [`Netlist::eval_nets`].
    pub fn dffs(&self) -> Vec<GateId> {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(i, _)| GateId::from_index(i))
            .collect()
    }

    /// Returns `true` if the netlist contains no sequential elements.
    pub fn is_combinational(&self) -> bool {
        self.gates.iter().all(|g| !g.kind.is_sequential())
    }

    /// Per-net fanout in compressed sparse row form (two allocations
    /// total): counting pass, prefix sum, fill pass.
    pub fn fanout(&self) -> Fanout {
        let mut offsets = vec![0u32; self.nets.len() + 1];
        for g in &self.gates {
            for &inp in &g.inputs {
                offsets[inp.index() + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..self.nets.len()].to_vec();
        let mut loads = vec![GateId::from_index(0); offsets[self.nets.len()] as usize];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                let c = &mut cursor[inp.index()];
                loads[*c as usize] = GateId::from_index(i);
                *c += 1;
            }
        }
        Fanout { offsets, loads }
    }

    /// Topological order of the *combinational* gates (DFFs excluded; DFF
    /// outputs are treated as sources, like primary inputs).
    ///
    /// Fully iterative (Kahn's algorithm over the CSR fanout), so depth
    /// is bounded by memory, not the call stack — 10^6-gate chains sort
    /// without recursion.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// gates form a cycle.
    pub fn topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        let _t = seceda_trace::hist_timer("ir.topo_ns");
        let n = self.gates.len();
        // indegree over combinational gates: count inputs driven by comb gates
        let mut indeg = vec![0usize; n];
        let mut ready: Vec<usize> = Vec::new();
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                continue;
            }
            let d = g
                .inputs
                .iter()
                .filter(|&&inp| {
                    self.nets[inp.index()]
                        .driver
                        .map(|drv| !self.gates[drv.index()].kind.is_sequential())
                        .unwrap_or(false)
                })
                .count();
            indeg[i] = d;
            if d == 0 {
                ready.push(i);
            }
        }
        let fanout = self.fanout();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(GateId::from_index(i));
            let out = self.gates[i].output;
            for &succ in fanout.loads(out) {
                let s = succ.index();
                if self.gates[s].kind.is_sequential() {
                    continue;
                }
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        let comb_count = self
            .gates
            .iter()
            .filter(|g| !g.kind.is_sequential())
            .count();
        if order.len() != comb_count {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(order)
    }

    /// Evaluates every net for one cycle.
    ///
    /// `inputs` must match [`Netlist::inputs`] in length; `state` must match
    /// the number of DFFs (use `&[]` for combinational designs). Returns the
    /// value of every net; undriven internal nets read as `false`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on wrong vector widths and
    /// [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn eval_nets(&self, inputs: &[bool], state: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.inputs.len() {
            return Err(NetlistError::WidthMismatch {
                expected: self.inputs.len(),
                got: inputs.len(),
            });
        }
        let dffs = self.dffs();
        if state.len() != dffs.len() {
            return Err(NetlistError::WidthMismatch {
                expected: dffs.len(),
                got: state.len(),
            });
        }
        let order = self.topo_order()?;
        let mut values = vec![false; self.nets.len()];
        for (k, &pi) in self.inputs.iter().enumerate() {
            values[pi.index()] = inputs[k];
        }
        for (k, &d) in dffs.iter().enumerate() {
            values[self.gates[d.index()].output.index()] = state[k];
        }
        let mut scratch: Vec<bool> = Vec::new();
        for gid in order {
            let g = &self.gates[gid.index()];
            scratch.clear();
            scratch.extend(g.inputs.iter().map(|&i| values[i.index()]));
            values[g.output.index()] = g.kind.eval(&scratch);
        }
        Ok(values)
    }

    /// Evaluates the primary outputs and the next DFF state for one cycle.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_nets`].
    pub fn step(
        &self,
        inputs: &[bool],
        state: &[bool],
    ) -> Result<(Vec<bool>, Vec<bool>), NetlistError> {
        let values = self.eval_nets(inputs, state)?;
        let outputs = self
            .outputs
            .iter()
            .map(|&(n, _)| values[n.index()])
            .collect();
        let next_state = self
            .dffs()
            .iter()
            .map(|&d| values[self.gates[d.index()].inputs[0].index()])
            .collect();
        Ok((outputs, next_state))
    }

    /// Convenience: evaluates a combinational netlist's outputs.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch, cycles, or if the design is sequential.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        assert!(
            self.is_combinational(),
            "evaluate() requires a combinational netlist; use step()"
        );
        let (outs, _) = self.step(inputs, &[]).expect("evaluation failed");
        outs
    }

    /// Rewires in one pass: every input pin of the gates `0..before`,
    /// and every primary output, that reads the first net of a move
    /// reads its second net instead. A splice appends its gates (which
    /// read the target) and then redirects over the gates before them,
    /// so they keep reading it. Moves are applied once, not chased; a
    /// net moved twice takes its last move. Costs O(pins + outputs +
    /// the id span of the moved nets).
    ///
    /// # Panics
    ///
    /// Panics if a net is out of range or `before` exceeds the gate count.
    pub fn redirect(&mut self, moves: &[(NetId, NetId)], before: usize) {
        for &(from, new) in moves {
            assert!(
                from.index().max(new.index()) < self.nets.len(),
                "move {from} → {new} out of range"
            );
        }
        // replacements indexed from the lowest moved net: one move needs
        // no net-sized table
        let lo = moves.iter().map(|m| m.0.index()).min().unwrap_or(0);
        let span = moves.iter().map(|m| m.0.index() + 1 - lo).max();
        let mut to: Vec<Option<NetId>> = vec![None; span.unwrap_or(0)];
        for &(from, new) in moves {
            to[from.index() - lo] = Some(new);
        }
        let moved = |net: &mut NetId| {
            if let Some(&Some(new)) = to.get(net.index().wrapping_sub(lo)) {
                *net = new;
            }
        };
        for g in &mut self.gates[..before] {
            g.inputs.iter_mut().for_each(moved);
        }
        self.outputs.iter_mut().for_each(|(net, _)| moved(net));
    }

    /// Checks structural invariants: arity bounds, id ranges, single driver
    /// per net, and acyclicity of the combinational logic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut seen_driver = vec![false; self.nets.len()];
        for g in &self.gates {
            let (lo, hi) = g.kind.arity();
            if g.inputs.len() < lo || g.inputs.len() > hi {
                return Err(NetlistError::BadArity {
                    kind: g.kind.to_string(),
                    got: g.inputs.len(),
                });
            }
            for &i in &g.inputs {
                if i.index() >= self.nets.len() {
                    return Err(NetlistError::UnknownNet(i.to_string()));
                }
            }
            if g.output.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(g.output.to_string()));
            }
            if seen_driver[g.output.index()] {
                return Err(NetlistError::MultipleDrivers(g.output.to_string()));
            }
            seen_driver[g.output.index()] = true;
        }
        for &pi in &self.inputs {
            if seen_driver[pi.index()] {
                return Err(NetlistError::MultipleDrivers(pi.to_string()));
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Exhaustive truth table of a small combinational netlist, one entry
    /// per input assignment in counting order (LSB = first input).
    ///
    /// # Panics
    ///
    /// Panics if the design has more than 20 inputs or is sequential.
    pub fn truth_table(&self) -> Vec<Vec<bool>> {
        let n = self.inputs.len();
        assert!(n <= 20, "truth_table limited to 20 inputs");
        let mut rows = Vec::with_capacity(1 << n);
        for pattern in 0u32..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
            rows.push(self.evaluate(&inputs));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let s = nl.add_gate(CellKind::Xor, &[a, b, cin]);
        let ab = nl.add_gate(CellKind::And, &[a, b]);
        let ac = nl.add_gate(CellKind::And, &[a, cin]);
        let bc = nl.add_gate(CellKind::And, &[b, cin]);
        let cout = nl.add_gate(CellKind::Or, &[ab, ac, bc]);
        nl.mark_output(s, "s");
        nl.mark_output(cout, "cout");
        nl
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        for pattern in 0..8u8 {
            let a = pattern & 1 == 1;
            let b = pattern & 2 == 2;
            let c = pattern & 4 == 4;
            let expect_sum = a ^ b ^ c;
            let expect_cout = (a & b) | (a & c) | (b & c);
            assert_eq!(
                nl.evaluate(&[a, b, c]),
                vec![expect_sum, expect_cout],
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(full_adder().validate(), Ok(()));
    }

    #[test]
    fn sequential_step_counts() {
        // 1-bit toggle counter: q' = q ^ 1
        let mut nl = Netlist::new("toggle");
        let one = nl.add_gate(CellKind::Const1, &[]);
        let q_net = nl.add_net(); // placeholder for feedback
        let next = nl.add_gate(CellKind::Xor, &[q_net, one]);
        let q = nl.add_gate(CellKind::Dff, &[next]);
        // rewire: feedback net is the dff output; replace placeholder usage
        let gid = nl.net(next).driver.expect("driver");
        nl.gate_mut(gid).inputs[0] = q;
        nl.mark_output(q, "q");
        let (out0, s1) = nl.step(&[], &[false]).expect("step");
        assert_eq!(out0, vec![false]);
        assert_eq!(s1, vec![true]);
        let (out1, s2) = nl.step(&[], &s1).expect("step");
        assert_eq!(out1, vec![true]);
        assert_eq!(s2, vec![false]);
    }

    #[test]
    fn redirect_rewires_loads_and_outputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::Not, &[x]);
        nl.mark_output(x, "x");
        nl.mark_output(y, "y");
        // Splice an inverter after x: x now feeds only the new gate.
        let before = nl.num_gates();
        let nx = nl.add_gate(CellKind::Not, &[x]);
        nl.redirect(&[(x, nx)], before);
        assert_eq!(nl.outputs()[0].0, nx);
        // The old NOT gate must now read nx instead of x.
        let not_gate = nl.net(y).driver.expect("driver");
        assert_eq!(nl.gate(not_gate).inputs[0], nx);
        // The new gate, at index `before`, keeps reading x.
        assert_eq!(nl.gate(GateId::from_index(before)).inputs[0], x);
        // Function: out x is now !(a&b), out y is !!(a&b)
        assert_eq!(nl.evaluate(&[true, true]), vec![false, true]);
        assert_eq!(nl.evaluate(&[true, false]), vec![true, false]);
        assert_eq!(nl.validate(), Ok(()));
    }

    #[test]
    fn redirect_applies_each_move_once() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(a, "a");
        nl.mark_output(b, "b");
        // a → b and b → c: a's loads land on b, not on c
        nl.redirect(&[(a, b), (b, c)], nl.num_gates());
        assert_eq!(nl.gate(GateId::from_index(0)).inputs.as_slice(), [b, c]);
        assert_eq!(nl.output_nets(), [b, c]);
        // `before = 0` leaves every gate alone but still moves outputs
        nl.redirect(&[(c, x)], 0);
        assert_eq!(nl.gate(GateId::from_index(0)).inputs.as_slice(), [b, c]);
        assert_eq!(nl.output_nets(), [b, x]);
    }

    #[test]
    fn cycle_is_detected() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let tmp = nl.add_net();
        let x = nl.add_gate(CellKind::And, &[a, tmp]);
        let gid = nl.net(x).driver.expect("driver");
        // close the loop: x depends on itself
        nl.gate_mut(gid).inputs[1] = x;
        assert_eq!(nl.topo_order(), Err(NetlistError::CombinationalCycle));
    }

    #[test]
    fn width_mismatch_reported() {
        let nl = full_adder();
        assert!(matches!(
            nl.step(&[true], &[]),
            Err(NetlistError::WidthMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn csr_fanout_matches_input_scan() {
        let nl = full_adder();
        let csr = nl.fanout();
        for i in 0..nl.num_nets() {
            let net = NetId::from_index(i);
            // the gates reading `net`, in creation order (a gate reading
            // it twice appears twice)
            let scan: Vec<GateId> = nl
                .gates()
                .iter()
                .enumerate()
                .flat_map(|(g, gate)| {
                    gate.inputs
                        .iter()
                        .filter(move |&&inp| inp == net)
                        .map(move |_| GateId::from_index(g))
                })
                .collect();
            assert_eq!(scan, csr.loads(net), "net {i}");
        }
        let edges: usize = nl.gates().iter().map(|g| g.inputs.len()).sum();
        assert_eq!(csr.loads.len(), edges);
    }

    #[test]
    fn gate_driving_existing_net() {
        let mut nl = Netlist::new("fwd");
        let a = nl.add_input("a");
        let fwd = nl.add_named_net("y"); // referenced before defined
        let top = nl.add_gate(CellKind::Not, &[fwd]);
        nl.mark_output(top, "z");
        let gid = nl
            .try_add_gate_driving(CellKind::Buf, &[a], fwd, GateTags::default())
            .expect("drive forward net");
        assert_eq!(nl.net(fwd).driver, Some(gid));
        assert_eq!(nl.validate(), Ok(()));
        assert_eq!(nl.evaluate(&[true]), vec![false]);
        // a second driver on the same net is rejected
        assert_eq!(
            nl.try_add_gate_driving(CellKind::Buf, &[a], fwd, GateTags::default()),
            Err(NetlistError::MultipleDrivers("y".into()))
        );
        // driving a primary input is rejected
        assert_eq!(
            nl.try_add_gate_driving(CellKind::Not, &[fwd], a, GateTags::default()),
            Err(NetlistError::MultipleDrivers("a".into()))
        );
    }

    #[test]
    fn promote_input_checks_driver() {
        let mut nl = Netlist::new("p");
        let fwd = nl.add_named_net("x");
        assert_eq!(nl.promote_input(fwd), Ok(()));
        assert_eq!(nl.inputs(), &[fwd]);
        assert_eq!(
            nl.promote_input(fwd),
            Err(NetlistError::MultipleDrivers("x".into()))
        );
        let g = nl.add_gate(CellKind::Not, &[fwd]);
        assert!(matches!(
            nl.promote_input(g),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn interned_names_resolve() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let x = nl.add_gate(CellKind::Not, &[a]);
        assert_eq!(nl.net_name(a), Some("a"));
        assert_eq!(nl.net_name(x), None);
        assert_eq!(nl.net_label(a), "a");
        assert_eq!(nl.net_label(x), "n1");
        nl.set_net_name(x, "inv_a");
        assert_eq!(nl.net_name(x), Some("inv_a"));
        // interning the same string twice yields one symbol
        let mut nl2 = Netlist::new("m");
        let s1 = nl2.intern("shared");
        let s2 = nl2.intern("shared");
        assert_eq!(s1, s2);
        assert_eq!(nl2.symbols().len(), 1);
    }

    #[test]
    fn interning_on_a_clone_leaves_the_original_unchanged() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let x = nl.add_gate(CellKind::Not, &[a]);
        nl.set_net_name(x, "inv_a");
        let mut copy = nl.clone();
        // a name both already hold resolves without copying the table
        assert_eq!(copy.intern("a"), nl.symbols().lookup("a").expect("a"));
        let y = copy.add_named_net("fresh");
        copy.set_net_name(x, "renamed");
        assert_eq!(nl.symbols().len(), 2);
        assert_eq!(nl.symbols().lookup("fresh"), None);
        assert_eq!(nl.net_name(a), Some("a"));
        assert_eq!(nl.net_name(x), Some("inv_a"));
        assert_eq!(copy.symbols().len(), 4);
        assert_eq!(copy.net_name(y), Some("fresh"));
        assert_eq!(copy.net_name(x), Some("renamed"));
    }

    #[test]
    fn equality_ignores_internal_net_names() {
        let mut a = full_adder();
        let mut b = full_adder();
        assert_eq!(a, b);
        // naming an internal net does not break equality
        let int = a.gates()[0].output;
        a.set_net_name(int, "sum_wire");
        assert_eq!(a, b);
        // but renaming a primary input does
        let pi = b.inputs()[0];
        b.set_net_name(pi, "other");
        assert_ne!(a, b);
    }

    #[test]
    fn truth_table_size() {
        let nl = full_adder();
        let tt = nl.truth_table();
        assert_eq!(tt.len(), 8);
        assert_eq!(tt[7], vec![true, true]); // 1+1+1 = 11b
    }
}
