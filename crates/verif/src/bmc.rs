//! Bounded model checking by time-frame unrolling.
//!
//! Frames are lowered into one structurally-hashed AIG, chained by edge:
//! each frame's DFF outputs are the previous frame's D-input edges, and
//! frame 0's are constant false (the all-zero reset state). One solver
//! serves every depth; each depth adds only its new frame's nodes and
//! asks for the target under an assumption.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sat::{lower_netlist, Aig, AigCnf, AigLit, Budget, SolveOutcome, Solver, Var};

/// Result of a reachability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcResult {
    /// A witness: input vector per cycle driving the monitored output to
    /// the target value in the last listed cycle.
    Reachable(Vec<Vec<bool>>),
    /// Not reachable within the bound.
    UnreachableWithin(usize),
}

impl BmcResult {
    /// `true` if a witness was found.
    pub fn is_reachable(&self) -> bool {
        matches!(self, BmcResult::Reachable(_))
    }
}

/// Checks whether output `output_index` can take `target_value` within
/// `bound` cycles from the all-zero initial state.
///
/// # Errors
///
/// Returns a netlist error on cyclic combinational logic.
///
/// # Panics
///
/// Panics if `output_index` is out of range or `bound == 0`.
pub fn bmc_reach(
    nl: &Netlist,
    output_index: usize,
    target_value: bool,
    bound: usize,
) -> Result<BmcResult, NetlistError> {
    assert!(output_index < nl.outputs().len(), "output out of range");
    assert!(bound > 0, "bound must be positive");
    let dffs = nl.dffs();
    let target_net = nl.outputs()[output_index].0.index();
    let mut solver = Solver::new(0);
    let const_false = solver.new_var().pos();
    solver.add_clause([!const_false]);
    let mut aig = Aig::new();
    let mut map = AigCnf::new(const_false);
    let mut state = vec![AigLit::FALSE; dffs.len()];
    let mut frames: Vec<Vec<Var>> = Vec::with_capacity(bound);
    for _ in 0..bound {
        let vars: Vec<Var> = nl.inputs().iter().map(|_| solver.new_var()).collect();
        let inputs: Vec<AigLit> = vars.iter().map(|v| aig.input(v.pos())).collect();
        let nets = lower_netlist(nl, &mut aig, &inputs, Some(&state), &mut solver)?;
        frames.push(vars);
        state = dffs
            .iter()
            .map(|&d| nets[nl.gate(d).inputs[0].index()])
            .collect();
        let out = nets[target_net];
        let target = if target_value { out } else { !out };
        if target == AigLit::FALSE {
            continue;
        }
        let lit = map.lit_of(&aig, target, &mut solver);
        if let SolveOutcome::Sat(model) = solver.solve(&[lit], &Budget::unlimited()) {
            let witness = frames
                .iter()
                .map(|vars| vars.iter().map(|v| model[v.index()]).collect())
                .collect();
            return Ok(BmcResult::Reachable(witness));
        }
    }
    Ok(BmcResult::UnreachableWithin(bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{CellKind, NetId};
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

    /// A 2-bit saturating counter that raises `alarm` when it reaches 3;
    /// it only counts when `en` is high.
    fn counter_with_alarm() -> Netlist {
        let mut nl = Netlist::new("cnt_alarm");
        let en = nl.add_input("en");
        let q0_fb = nl.add_net();
        let q1_fb = nl.add_net();
        // next0 = en ? !q0 : q0 ; next1 = en & q0 ? !q1 : q1
        let nq0 = nl.add_gate(CellKind::Not, &[q0_fb]);
        let next0 = nl.add_gate(CellKind::Mux, &[en, q0_fb, nq0]);
        let carry = nl.add_gate(CellKind::And, &[en, q0_fb]);
        let nq1 = nl.add_gate(CellKind::Not, &[q1_fb]);
        let next1 = nl.add_gate(CellKind::Mux, &[carry, q1_fb, nq1]);
        let q0 = nl.add_gate(CellKind::Dff, &[next0]);
        let q1 = nl.add_gate(CellKind::Dff, &[next1]);
        // patch feedback
        nl.redirect(&[(q0_fb, q0), (q1_fb, q1)], nl.num_gates());
        let alarm = nl.add_gate(CellKind::And, &[q0, q1]);
        nl.mark_output(alarm, "alarm");
        nl
    }

    #[test]
    fn alarm_reachable_in_exactly_four_cycles() {
        let nl = counter_with_alarm();
        // counter reads 3 after three increments; the alarm output shows
        // it in the following frame’s combinational logic, i.e. frame 4
        let result = bmc_reach(&nl, 0, true, 6).expect("bmc");
        match &result {
            BmcResult::Reachable(witness) => {
                assert_eq!(witness.len(), 4, "witness: {witness:?}");
                // replay the witness on the simulator
                let mut state = vec![false; 2];
                let mut alarm_seen = false;
                for inputs in witness {
                    let (outs, next) = nl.step(inputs, &state).expect("step");
                    alarm_seen = outs[0];
                    state = next;
                }
                assert!(alarm_seen, "replay must confirm the witness");
            }
            other => panic!("expected reachable, got {other:?}"),
        }
    }

    #[test]
    fn alarm_unreachable_in_three_cycles() {
        let nl = counter_with_alarm();
        let result = bmc_reach(&nl, 0, true, 3).expect("bmc");
        assert_eq!(result, BmcResult::UnreachableWithin(3));
    }

    #[test]
    fn zero_is_immediately_reachable() {
        let nl = counter_with_alarm();
        let result = bmc_reach(&nl, 0, false, 1).expect("bmc");
        assert!(result.is_reachable());
    }

    /// A random sequential design: two inputs, `regs` registers fed
    /// back into random logic, two outputs.
    fn random_sequential(seed: u64, regs: usize) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nl = Netlist::new(format!("seq_{seed}"));
        let mut pool: Vec<NetId> = vec![nl.add_input("x0"), nl.add_input("x1")];
        let fb: Vec<NetId> = (0..regs).map(|_| nl.add_net()).collect();
        pool.extend(&fb);
        let kinds = [
            CellKind::And,
            CellKind::Or,
            CellKind::Xor,
            CellKind::Nand,
            CellKind::Not,
            CellKind::Mux,
        ];
        for _ in 0..12 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let arity = match kind {
                CellKind::Not => 1,
                CellKind::Mux => 3,
                _ => 2,
            };
            let ins: Vec<NetId> = (0..arity)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            pool.push(nl.add_gate(kind, &ins));
        }
        for &f in &fb {
            let d = pool[rng.gen_range(2 + regs..pool.len())];
            let q = nl.add_gate(CellKind::Dff, &[d]);
            nl.redirect(&[(f, q)], nl.num_gates());
        }
        for k in 0..2 {
            let o = pool[rng.gen_range(2 + regs..pool.len())];
            nl.mark_output(o, format!("o{k}"));
        }
        nl
    }

    /// The first cycle (1-based) in which output `out` can equal
    /// `value` from the all-zero state, by exhaustive simulation.
    fn first_reach(nl: &Netlist, out: usize, value: bool, bound: usize) -> Option<usize> {
        let mut states = std::collections::BTreeSet::from([vec![false; nl.dffs().len()]]);
        for depth in 1..=bound {
            let mut next = std::collections::BTreeSet::new();
            for state in &states {
                for x in 0..4u8 {
                    let inputs = [x & 1 == 1, x & 2 == 2];
                    let (outs, ns) = nl.step(&inputs, state).expect("step");
                    if outs[out] == value {
                        return Some(depth);
                    }
                    next.insert(ns);
                }
            }
            states = next;
        }
        None
    }

    #[test]
    fn bmc_matches_exhaustive_simulation_on_random_sequential_designs() {
        let mut reached = 0;
        for seed in 0..60u64 {
            let nl = random_sequential(seed, 1 + (seed % 3) as usize);
            for out in 0..2 {
                for value in [false, true] {
                    let expected = first_reach(&nl, out, value, 5);
                    match bmc_reach(&nl, out, value, 5).expect("bmc") {
                        BmcResult::Reachable(witness) => {
                            assert_eq!(Some(witness.len()), expected, "seed {seed}");
                            let mut state = vec![false; nl.dffs().len()];
                            let mut last = None;
                            for inputs in &witness {
                                let (outs, next) = nl.step(inputs, &state).expect("step");
                                last = Some(outs[out]);
                                state = next;
                            }
                            assert_eq!(last, Some(value), "seed {seed}: replay");
                            reached += 1;
                        }
                        BmcResult::UnreachableWithin(5) => {
                            assert_eq!(expected, None, "seed {seed}");
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        assert!(reached > 100, "{reached}");
    }
}
