//! Fault queries on one persistent solver: the good circuit lowered once
//! through the AIG, each fault's cone a scoped overlay above it (see
//! [`FaultMiter`]).

use crate::aig::{lower_netlist, Aig, AigCnf, AigLit};
use crate::budget::{Budget, SolveOutcome, StopReason};
use crate::cnf::{GatedCnf, Var};
use crate::solver::Solver;
use seceda_netlist::{GateId, NetId, Netlist, NetlistError};

/// What a [`FaultMiter::query`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultVerdict {
    /// An input pattern, in primary-input port order, under which the
    /// fault shows as asked.
    Exposed(Vec<bool>),
    /// No input exposes the fault as asked: decided by the AIG (the
    /// cone reaches no watched output, or a goal folds to false) or by
    /// UNSAT.
    Unexposable,
    /// The budget ran out before the query was decided.
    Undecided(StopReason),
}

/// A netlist's good circuit in a live solver, plus the scoped fault-cone
/// overlay every query builds and retires.
///
/// This is the one fault-query protocol of incremental ATPG and
/// coverage proofs. The good circuit is lowered into an [`Aig`] and
/// every node of it is encoded, ungated, into a live solver; the node
/// count at that point is the *mark*. A query rebuilds the fault's
/// fan-out cone in the same AIG above the mark: stuck-at sites bind to
/// constant edges, so the cone constant-folds, and a gate whose faulty
/// edge equals its good edge leaves the cone. The query's goals — some
/// watched output differs, required faulty output values hold — are
/// AIG edges too. A goal that folds to false decides the query without
/// a solver call; otherwise the goals are lowered through a fresh
/// selector and solved under it. Retiring the query adds the root unit
/// `¬selector` and truncates the AIG and its node→literal map back to
/// the mark.
///
/// The invariant that makes the overlay sound: every node below the
/// mark has an *ungated* literal, and no node at or above it outlives
/// its query. A node whose defining clauses were gated on a retired
/// selector is unconstrained; truncation guarantees no later query can
/// reach one, and lowering every good node up front — including the AND
/// operands the two-level XOR rule leaves orphaned — guarantees no cone
/// lowers a node below the mark under its own selector.
#[derive(Debug)]
pub struct FaultMiter<'a> {
    nl: &'a Netlist,
    /// Combinational gates in topological order.
    order: Vec<GateId>,
    /// Per net: the position in `order` just past its driver (0 for
    /// primary inputs, DFF outputs and undriven nets), where its cone
    /// starts.
    start: Vec<usize>,
    aig: Aig,
    map: AigCnf,
    solver: Solver,
    inputs: Vec<Var>,
    /// The good circuit's edge per net.
    good: Vec<AigLit>,
    /// AIG node count after the good circuit: the overlay's floor.
    mark: usize,
    /// The faulty circuit's edge per net; equal to `good` off the cone.
    faulty: Vec<AigLit>,
    /// Nets whose faulty edge differs from the good one.
    cone: Vec<NetId>,
}

impl<'a> FaultMiter<'a> {
    /// Lowers the good circuit of `nl` and encodes every node of it into
    /// a fresh solver. DFF outputs are free variables shared by the good
    /// and every faulty circuit, so cones stop at DFFs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let mut solver = Solver::new(0);
        let const_false = solver.new_var().pos();
        solver.add_clause([!const_false]);
        let mut aig = Aig::new();
        let inputs: Vec<Var> = nl.inputs().iter().map(|_| solver.new_var()).collect();
        let edges: Vec<AigLit> = inputs.iter().map(|v| aig.input(v.pos())).collect();
        let good = lower_netlist(nl, &mut aig, &edges, None, &mut solver)?;
        let mut map = AigCnf::new(const_false);
        map.lower_all(&aig, &mut solver);
        let order = nl.topo_order()?;
        let mut start = vec![0; nl.num_nets()];
        for (k, &gid) in order.iter().enumerate() {
            start[nl.gate(gid).output.index()] = k + 1;
        }
        Ok(FaultMiter {
            nl,
            order,
            start,
            mark: aig.num_nodes(),
            aig,
            map,
            solver,
            inputs,
            faulty: good.clone(),
            good,
            cone: Vec::new(),
        })
    }

    /// The persistent solver, for metering a budget across queries by
    /// its accumulated conflicts.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Searches for an input under which the fault on `net` makes some
    /// primary output selected by `watched` differ from the good
    /// circuit, while the faulty circuit's output `port` takes `value`
    /// for every `(port, value)` in `require`.
    ///
    /// `faulty` maps the net's good edge to its faulty one:
    /// [`AigLit::FALSE`] or [`AigLit::TRUE`] for a stuck-at fault, the
    /// complement for a bit flip. The query runs under `budget`; an
    /// undecided one is retired like a decided one, so the next query
    /// sees a consistent solver.
    pub fn query(
        &mut self,
        net: NetId,
        faulty: impl FnOnce(AigLit) -> AigLit,
        watched: impl Fn(usize) -> bool,
        require: &[(usize, bool)],
        budget: &Budget,
    ) -> FaultVerdict {
        self.build_cone(net, faulty(self.good[net.index()]));
        let verdict = self.solve_goals(watched, require, budget);
        for n in self.cone.drain(..) {
            self.faulty[n.index()] = self.good[n.index()];
        }
        self.aig.truncate(self.mark);
        self.map.truncate(self.mark);
        verdict
    }

    /// Rebuilds the faulty edges of the fan-out cone of `net` above the
    /// mark, recording every net whose edge changes.
    fn build_cone(&mut self, net: NetId, site: AigLit) {
        if site == self.good[net.index()] {
            return;
        }
        self.faulty[net.index()] = site;
        self.cone.push(net);
        let nl = self.nl;
        let mut ins: Vec<AigLit> = Vec::new();
        for &gid in &self.order[self.start[net.index()]..] {
            let g = nl.gate(gid);
            if g.inputs
                .iter()
                .all(|&i| self.faulty[i.index()] == self.good[i.index()])
            {
                continue;
            }
            ins.clear();
            ins.extend(g.inputs.iter().map(|&i| self.faulty[i.index()]));
            let edge = self.aig.gate(g.kind, &ins);
            if edge != self.good[g.output.index()] {
                self.faulty[g.output.index()] = edge;
                self.cone.push(g.output);
            }
        }
    }

    /// Builds the query's goal edges and decides them, folding first and
    /// solving under a fresh selector only if no goal is false.
    fn solve_goals(
        &mut self,
        watched: impl Fn(usize) -> bool,
        require: &[(usize, bool)],
        budget: &Budget,
    ) -> FaultVerdict {
        let outputs = self.nl.outputs();
        let mut diff = AigLit::FALSE;
        for (_, &(o, _)) in outputs.iter().enumerate().filter(|&(k, _)| watched(k)) {
            let d = self.aig.xor(self.good[o.index()], self.faulty[o.index()]);
            diff = self.aig.or(diff, d);
        }
        let mut goals = vec![diff];
        for &(port, value) in require {
            let edge = self.faulty[outputs[port].0.index()];
            goals.push(if value { edge } else { !edge });
        }
        if goals.contains(&AigLit::FALSE) {
            return FaultVerdict::Unexposable;
        }
        let selector = self.solver.new_var();
        let mut assumptions = vec![selector.pos()];
        let mut gated = GatedCnf::new(&mut self.solver, selector.neg());
        for goal in goals {
            assumptions.push(self.map.lit_of(&self.aig, goal, &mut gated));
        }
        let outcome = self.solver.solve(&assumptions, budget);
        self.solver.add_clause([selector.neg()]);
        match outcome {
            SolveOutcome::Sat(model) => {
                FaultVerdict::Exposed(self.inputs.iter().map(|v| model[v.index()]).collect())
            }
            SolveOutcome::Unsat => FaultVerdict::Unexposable,
            SolveOutcome::Indeterminate(reason) => FaultVerdict::Undecided(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::CellKind;

    fn stuck_at_1(_: AigLit) -> AigLit {
        AigLit::TRUE
    }

    /// `o1 = s XOR a` as a mux (optionally), `o2 = AND(AND(u, NOT s), a)`.
    /// With `u` stuck at 1 the faulty `o2` is `¬s ∧ a`, which forces
    /// `o1 = 1`: requiring faulty `o2 = 1` and `o1 = 0` is impossible.
    fn design(orphan_xor: bool) -> (Netlist, NetId) {
        let mut nl = Netlist::new("overlay");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let u = nl.add_input("u");
        let ns = nl.add_gate(CellKind::Not, &[s]);
        let o1 = if orphan_xor {
            // s ? ¬a : a lowers to OR(AND(¬s, a), AND(s, ¬a)), which the
            // two-level rule re-conses as XOR(s, a): the AND operand
            // ¬s ∧ a stays in the table, reachable from no net
            let na = nl.add_gate(CellKind::Not, &[a]);
            nl.add_gate(CellKind::Mux, &[s, a, na])
        } else {
            nl.add_gate(CellKind::Xor, &[s, a])
        };
        let t = nl.add_gate(CellKind::And, &[u, ns]);
        let o2 = nl.add_gate(CellKind::And, &[t, a]);
        nl.mark_output(o1, "o1");
        nl.mark_output(o2, "o2");
        (nl, u)
    }

    #[test]
    fn retired_cones_leave_no_stale_literal_behind() {
        for orphan_xor in [false, true] {
            let (nl, u) = design(orphan_xor);
            let mut fm = FaultMiter::new(&nl).expect("lower");
            let mark = fm.aig.num_nodes();
            for round in 0..3 {
                let verdict = fm.query(
                    u,
                    stuck_at_1,
                    |k| k == 1,
                    &[(1, true), (0, false)],
                    &Budget::unlimited(),
                );
                assert_eq!(
                    verdict,
                    FaultVerdict::Unexposable,
                    "orphan_xor {orphan_xor}, round {round}"
                );
                assert_eq!(fm.aig.num_nodes(), mark, "the cone is truncated away");
                assert!(fm.cone.is_empty() && fm.faulty == fm.good);
                // the plain sensitization query is exposable: u = 0,
                // s = 0, a = 1
                match fm.query(u, stuck_at_1, |_| true, &[], &Budget::unlimited()) {
                    FaultVerdict::Exposed(p) => {
                        assert_eq!((p[0], p[1], p[2]), (false, true, false))
                    }
                    other => panic!("u stuck-at-1 is testable: {other:?}"),
                }
                assert_eq!(fm.aig.num_nodes(), mark);
            }
        }
    }

    #[test]
    fn faults_without_a_differing_output_make_no_solver_call() {
        // b reaches the output only through AND(0, b), which folds to
        // the good edge, and otherwise only a dangling OR
        let mut nl = Netlist::new("masked");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let zero = nl.add_gate(CellKind::Const0, &[]);
        let y = nl.add_gate(CellKind::And, &[zero, b]);
        nl.add_gate(CellKind::Or, &[a, b]);
        nl.mark_output(y, "y");
        nl.mark_output(a, "a");
        let mut fm = FaultMiter::new(&nl).expect("lower");
        let (vars, clauses) = (fm.solver.num_vars(), fm.solver.num_clauses());
        for faulty in [|_| AigLit::FALSE, |_| AigLit::TRUE, |g: AigLit| !g] {
            assert_eq!(
                fm.query(b, faulty, |_| true, &[], &Budget::unlimited()),
                FaultVerdict::Unexposable
            );
        }
        assert_eq!(fm.solver.num_vars(), vars, "no selector was allocated");
        assert_eq!(fm.solver.num_clauses(), clauses);
    }

    #[test]
    fn undriven_nets_read_false_in_fault_queries() {
        // y = AND(a, ghost), ghost undriven: y is constant 0, so no
        // fault on `a` or on `ghost` stuck-at-0 shows; ghost stuck-at-1
        // does, with a = 1
        let mut nl = Netlist::new("ghost");
        let a = nl.add_input("a");
        let ghost = nl.add_net();
        let y = nl.add_gate(CellKind::And, &[a, ghost]);
        nl.mark_output(y, "y");
        let mut fm = FaultMiter::new(&nl).expect("lower");
        let unlimited = Budget::unlimited();
        let sa0 = |_| AigLit::FALSE;
        assert_eq!(
            fm.query(a, sa0, |_| true, &[], &unlimited),
            FaultVerdict::Unexposable
        );
        assert_eq!(
            fm.query(ghost, sa0, |_| true, &[], &unlimited),
            FaultVerdict::Unexposable
        );
        assert_eq!(
            fm.query(ghost, stuck_at_1, |_| true, &[], &unlimited),
            FaultVerdict::Exposed(vec![true])
        );
    }
}
