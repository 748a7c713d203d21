//! The oracle-guided SAT attack on logic locking \[33\].
//!
//! The attacker holds the locked netlist (reverse-engineered from layout)
//! and black-box access to an activated chip (the *oracle*). Each
//! iteration asks the solver for a *distinguishing input pattern* (DIP) —
//! an input on which two different keys produce different outputs — and
//! queries the oracle on it. The oracle response rules out at least one
//! equivalence class of wrong keys. When no DIP remains, any surviving
//! key is functionally correct.
//!
//! [`sat_attack`] keeps ONE live solver across the whole DIP loop, and
//! encodes through a structurally-hashed AIG ([`seceda_sat::Aig`]): the
//! two keyed copies share every node that does not depend on the key
//! (they read the same input nodes), the difference miter folds away
//! key-independent outputs at construction time, and each iteration's
//! two observation copies hash-cons against everything already built —
//! the persistent [`seceda_sat::AigCnf`] map emits clauses only for
//! genuinely new nodes. Learned clauses survive across iterations, so
//! later (harder) DIP queries start from everything the solver already
//! derived. Every observable output — each DIP and the final key — is
//! canonicalized to the lexicographically smallest satisfying
//! assignment, so the attack's result is a property of the formula
//! regardless of encoding, solver history, or worker count. The
//! rebuild-from-scratch baseline is kept as [`sat_attack_rebuild`]
//! (direct Tseitin encoding, fresh solver per iteration) for
//! differential testing and benchmarking.

use crate::locking::LockedNetlist;
use seceda_netlist::NetlistError;
use seceda_sat::{
    encode_netlist, lower_netlist_bound, Aig, AigCnf, AigLit, Budget, Cnf, CnfBuilder, Lit,
    SolveOutcome, Solver, StopReason, Var,
};

/// Outcome of a SAT attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SatAttackResult {
    /// A functionally correct key (may differ from the designer's key
    /// bit-for-bit while producing identical behaviour).
    pub key: Vec<bool>,
    /// Number of DIP iterations (equals oracle queries).
    pub iterations: usize,
    /// Total solver conflicts across all iterations, a proxy for attack
    /// effort.
    pub conflicts: u64,
    /// Solver conflicts spent in each DIP iteration (the final entry is
    /// the key-extraction solve).
    pub conflict_deltas: Vec<u64>,
    /// Problem clauses in the final solver state: for [`sat_attack`] the
    /// AIG-encoded scaffold plus every observation copy; for
    /// [`sat_attack_rebuild`] the last direct re-encoding.
    pub clauses: usize,
    /// Always 1; kept for report consumers.
    pub portfolio_k: usize,
}

/// Everything a suspended [`sat_attack_budgeted`] run needs to resume on
/// a fresh solver: the accumulated oracle observations plus the
/// transcript bookkeeping. The observations *are* the attack's state —
/// the DIP sequence is a property of the formula (lex-min
/// canonicalization), so replaying the observations into a fresh
/// scaffold reproduces the exact formula the suspended run held, and the
/// resumed run continues bit-identically to a never-suspended one.
#[derive(Debug, Clone, PartialEq)]
pub struct SatAttackCheckpoint {
    /// Accumulated `(x_hat, y_hat)` oracle observations, in DIP order.
    pub observations: Vec<(Vec<bool>, Vec<bool>)>,
    /// Completed DIP iterations (equals `observations.len()`).
    pub iterations: usize,
    /// Total solver conflicts spent so far, *including* effort lost to
    /// the suspended partial solve (which a resume redoes from scratch).
    pub conflicts: u64,
    /// Per-completed-iteration conflict deltas (see
    /// [`SatAttackResult::conflict_deltas`]); the suspended solve has no
    /// entry.
    pub conflict_deltas: Vec<u64>,
}

/// Result of a budgeted SAT attack: done, provably key-free, or
/// suspended with a resumable checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum SatAttackOutcome {
    /// The attack finished and recovered a key.
    Complete(SatAttackResult),
    /// The attack finished: no key satisfies the observations (cannot
    /// happen for consistently locked designs).
    NoKey,
    /// The budget ran out mid-attack. Resume by passing the checkpoint
    /// back to [`sat_attack_budgeted`] with a fresh budget.
    Suspended {
        /// State to resume from.
        checkpoint: SatAttackCheckpoint,
        /// Which limit stopped the run.
        reason: StopReason,
    },
}

/// Encodes the attack scaffolding — two copies of the locked circuit
/// sharing X but with independent keys, plus the difference miter — into
/// any clause sink. Returns `(x_vars, k1_vars, k2_vars, diff_lit)`.
#[allow(clippy::type_complexity)]
fn encode_attack_scaffold<B: CnfBuilder>(
    locked: &LockedNetlist,
    sink: &mut B,
) -> Result<(Vec<Var>, Vec<Var>, Vec<Var>, Lit), NetlistError> {
    let nl = &locked.netlist;
    let nx = locked.num_original_inputs;
    let nk = locked.key_width();
    let enc1 = encode_netlist(nl, sink)?;
    let enc2 = encode_netlist(nl, sink)?;
    // share functional inputs
    for i in 0..nx {
        sink.gate_buf(enc1.input_vars[i].pos(), enc2.input_vars[i].pos());
    }
    // diff literal over outputs
    let mut diffs = Vec::new();
    for (o1, o2) in enc1.output_vars.iter().zip(&enc2.output_vars) {
        let d = sink.new_var().pos();
        sink.gate_xor(d, o1.pos(), o2.pos());
        diffs.push(d);
    }
    let diff = sink.new_var().pos();
    for &d in &diffs {
        sink.add_clause([diff, !d]);
    }
    let mut big = diffs;
    big.push(!diff);
    sink.add_clause(big);

    let k1: Vec<_> = enc1.input_vars[nx..nx + nk].to_vec();
    let k2: Vec<_> = enc2.input_vars[nx..nx + nk].to_vec();
    let x_vars = enc1.input_vars[..nx].to_vec();
    Ok((x_vars, k1, k2, diff))
}

/// Appends one observation `(x_hat, y_hat)` to the attack encoding: a
/// fresh constrained circuit copy per key, with inputs pinned to `x_hat`,
/// outputs pinned to `y_hat`, and key inputs tied to the key variables.
fn encode_observation<B: CnfBuilder>(
    locked: &LockedNetlist,
    sink: &mut B,
    k1: &[Var],
    k2: &[Var],
    x_hat: &[bool],
    y_hat: &[bool],
) -> Result<(), NetlistError> {
    let nl = &locked.netlist;
    let nx = locked.num_original_inputs;
    for key_vars in [k1, k2] {
        let enc = encode_netlist(nl, sink)?;
        for (i, &xv) in x_hat.iter().enumerate() {
            sink.add_clause([enc.input_vars[i].lit(xv)]);
        }
        for (j, kv) in key_vars.iter().enumerate() {
            sink.gate_buf(enc.input_vars[nx + j].pos(), kv.pos());
        }
        for (o, &yv) in enc.output_vars.iter().zip(y_hat) {
            sink.add_clause([o.lit(yv)]);
        }
    }
    Ok(())
}

/// The persistent AIG-backed attack encoding state: one node table, one
/// node→literal map, and the input nodes for X and both key copies, all
/// shared across the scaffold and every observation copy.
struct AigScaffold {
    aig: Aig,
    map: AigCnf,
    const_false: Lit,
    x_vars: Vec<Var>,
    k1: Vec<Var>,
    k1_nodes: Vec<AigLit>,
    k2_nodes: Vec<AigLit>,
    diff: Lit,
}

/// Encodes the attack scaffolding through a structurally-hashed AIG:
/// both keyed copies are lowered over the *same* X input nodes, so every
/// key-independent cone is built (and encoded to CNF) exactly once, and
/// the difference miter folds to constant-false for outputs the key
/// cannot influence. `const_false` must already be pinned false in
/// `sink`.
fn encode_attack_scaffold_aig<B: CnfBuilder>(
    locked: &LockedNetlist,
    const_false: Lit,
    sink: &mut B,
) -> Result<AigScaffold, NetlistError> {
    let nl = &locked.netlist;
    let nx = locked.num_original_inputs;
    let nk = locked.key_width();
    let mut aig = Aig::new();
    let mut map = AigCnf::new(const_false);
    let x_vars: Vec<Var> = (0..nx).map(|_| sink.new_var()).collect();
    let k1: Vec<Var> = (0..nk).map(|_| sink.new_var()).collect();
    let k2: Vec<Var> = (0..nk).map(|_| sink.new_var()).collect();
    let x_nodes: Vec<AigLit> = x_vars.iter().map(|v| aig.input(v.pos())).collect();
    let k1_nodes: Vec<AigLit> = k1.iter().map(|v| aig.input(v.pos())).collect();
    let k2_nodes: Vec<AigLit> = k2.iter().map(|v| aig.input(v.pos())).collect();

    let bind1: Vec<AigLit> = x_nodes.iter().chain(&k1_nodes).copied().collect();
    let outs1 = lower_netlist_bound(nl, &mut aig, &bind1, sink)?;
    let bind2: Vec<AigLit> = x_nodes.iter().chain(&k2_nodes).copied().collect();
    let outs2 = lower_netlist_bound(nl, &mut aig, &bind2, sink)?;

    // difference miter, folded in the AIG: key-independent outputs are
    // the same node in both copies and vanish as XOR(n, n) = false
    let mut diff_edge = AigLit::FALSE;
    for (&o1, &o2) in outs1.iter().zip(&outs2) {
        let d = aig.xor(o1, o2);
        diff_edge = aig.or(diff_edge, d);
    }
    let diff = map.lit_of(&aig, diff_edge, sink);
    Ok(AigScaffold {
        aig,
        map,
        const_false,
        x_vars,
        k1,
        k1_nodes,
        k2_nodes,
        diff,
    })
}

/// Appends one observation `(x_hat, y_hat)` with the functional inputs
/// bound to constants and folded through the AIG: only the key-dependent
/// cone survives as nodes, and of those only the nodes not already
/// hash-consed by earlier iterations cost clauses. Semantically
/// identical to [`encode_observation`] — both pin the same function of
/// the key variables — which is what keeps the lex-min DIP transcript
/// (and hence the iteration count) in exact agreement with the rebuild
/// baseline.
fn encode_observation_aig<B: CnfBuilder>(
    locked: &LockedNetlist,
    sc: &mut AigScaffold,
    sink: &mut B,
    x_hat: &[bool],
    y_hat: &[bool],
) -> Result<(), NetlistError> {
    let nl = &locked.netlist;
    for copy in 0..2 {
        let key_nodes = if copy == 0 {
            &sc.k1_nodes
        } else {
            &sc.k2_nodes
        };
        let bindings: Vec<AigLit> = x_hat
            .iter()
            .map(|&b| AigLit::constant(b))
            .chain(key_nodes.iter().copied())
            .collect();
        let outs = lower_netlist_bound(nl, &mut sc.aig, &bindings, sink)?;
        for (&out, &yv) in outs.iter().zip(y_hat) {
            match out.as_const() {
                Some(b) => {
                    if b != yv {
                        // the observation contradicts a key-independent
                        // output; make the formula unsatisfiable
                        sink.add_clause([sc.const_false]);
                    }
                }
                None => {
                    let l = sc.map.lit_of(&sc.aig, out, sink);
                    sink.add_clause([if yv { l } else { !l }]);
                }
            }
        }
    }
    Ok(())
}

/// Builds the full attack CNF for a given observation set (the
/// rebuild-per-iteration formulation). Returns
/// `(cnf, x_vars, k1_vars, k2_vars, diff_lit)`.
#[allow(clippy::type_complexity)]
fn build_attack_cnf(
    locked: &LockedNetlist,
    observations: &[(Vec<bool>, Vec<bool>)],
) -> Result<(Cnf, Vec<Var>, Vec<Var>, Vec<Var>, Lit), NetlistError> {
    let mut cnf = Cnf::new();
    let (x_vars, k1, k2, diff) = encode_attack_scaffold(locked, &mut cnf)?;
    for (x_hat, y_hat) in observations {
        encode_observation(locked, &mut cnf, &k1, &k2, x_hat, y_hat)?;
    }
    Ok((cnf, x_vars, k1, k2, diff))
}

/// Refines a satisfying model into the *lexicographically smallest*
/// assignment of `vars` consistent with `base` (bit-by-bit, preferring
/// `false`), using incremental assumption-only queries.
///
/// The result is a property of the formula alone — independent of the
/// starting model and the solver's heuristic state. Canonicalizing both
/// the DIPs and the final key pins the attack's whole observable output
/// to the formula, so the incremental and the rebuild-per-iteration
/// attacks walk identical DIP sequences, agree on iteration counts
/// exactly, and recover the same key bit-for-bit — the invariants the
/// differential suite and the benchmark check, for any worker count.
///
/// A query that comes back [`SolveOutcome::Indeterminate`] (a limited
/// budget ran out) aborts the whole refinement with the stop reason: a
/// partially minimized assignment is NOT canonical and must not leak
/// into the DIP transcript. Queries under an unlimited budget never stop
/// early, so then the result is always `Ok`.
fn lex_min_model(
    solve: &mut impl FnMut(&[Lit]) -> SolveOutcome,
    vars: &[Var],
    base: &[Lit],
    model: &[bool],
) -> Result<Vec<bool>, StopReason> {
    let mut assumptions = base.to_vec();
    let mut current: Vec<bool> = vars.iter().map(|v| model[v.index()]).collect();
    for i in 0..vars.len() {
        if current[i] {
            // can this bit be false? (the current model only witnesses true)
            assumptions.push(vars[i].neg());
            match solve(&assumptions) {
                SolveOutcome::Sat(m) => {
                    current[i] = false;
                    for (j, vj) in vars.iter().enumerate().skip(i + 1) {
                        current[j] = m[vj.index()];
                    }
                }
                SolveOutcome::Unsat => {
                    assumptions.pop();
                    assumptions.push(vars[i].pos());
                }
                SolveOutcome::Indeterminate(reason) => return Err(reason),
            }
        } else {
            assumptions.push(vars[i].neg());
        }
    }
    Ok(current)
}

/// Runs the SAT attack against `locked`, using `oracle` as the activated
/// chip (a function from functional inputs to outputs).
///
/// The attack is fully incremental: one structurally-hashed AIG and one
/// persistent solver carry the scaffold, every observation copy, every
/// DIP query, and the final key extraction.
///
/// Returns a functionally correct key, or `None` if even the final
/// key-extraction step is unsatisfiable (cannot happen for consistently
/// locked designs).
///
/// # Errors
///
/// Propagates encoding errors (cyclic netlists).
pub fn sat_attack(
    locked: &LockedNetlist,
    oracle: impl Fn(&[bool]) -> Vec<bool>,
) -> Result<Option<SatAttackResult>, NetlistError> {
    match sat_attack_budgeted(locked, oracle, &Budget::unlimited(), None)? {
        SatAttackOutcome::Complete(r) => Ok(Some(r)),
        SatAttackOutcome::NoKey => Ok(None),
        // unlimited budgets skip every budget check (and chaos only
        // injects exhaustion into limited budgets), so suspension is
        // impossible here
        SatAttackOutcome::Suspended { reason, .. } => {
            unreachable!("unbudgeted SAT attack suspended: {reason}")
        }
    }
}

/// Budgeted, checkpointable SAT attack.
///
/// Runs the same incremental lex-min-canonicalized attack as
/// [`sat_attack`], but threads `budget` through every constituent solve:
/// the **conflict cap meters the whole attack** (each solve gets what the
/// previous ones left over, by the solver's accumulated conflicts), the
/// **propagation cap applies per constituent solve**, and the deadline /
/// cancel flag bound the entire computation. When the budget runs out the
/// attack returns [`SatAttackOutcome::Suspended`] with a
/// [`SatAttackCheckpoint`] holding every completed observation; passing
/// that checkpoint back (with a fresh budget) resumes on a fresh solver
/// by replaying the observations into a new scaffold.
///
/// Because every DIP and the key are lex-min canonical — properties of
/// the formula, not of solver state — a suspended-and-resumed attack
/// recovers **bit-identical** iteration counts, DIP sequences, and keys
/// to a straight-through run. The interrupted solve's partial effort is
/// discarded (it is counted in [`SatAttackCheckpoint::conflicts`] but has
/// no `conflict_deltas` entry, and the resume redoes that solve from
/// scratch), so resuming with an equally tiny conflict budget can make no
/// progress; resume with a larger or unlimited budget.
///
/// # Errors
///
/// Propagates encoding errors (cyclic netlists).
pub fn sat_attack_budgeted(
    locked: &LockedNetlist,
    oracle: impl Fn(&[bool]) -> Vec<bool>,
    budget: &Budget,
    resume: Option<&SatAttackCheckpoint>,
) -> Result<SatAttackOutcome, NetlistError> {
    let mut sp = seceda_trace::span("lock.sat_attack");
    sp.attr("key_width", locked.key_width());
    sp.attr("budgeted", budget.is_limited());
    sp.attr("resumed", resume.is_some());
    let mut solver = Solver::new(0);
    // a literal that is false in every model, for lowering AIG constants
    let const_false = solver.new_var().pos();
    solver.add_clause([!const_false]);
    let mut sc = encode_attack_scaffold_aig(locked, const_false, &mut solver)?;
    let diff = sc.diff;
    let mut observations: Vec<(Vec<bool>, Vec<bool>)> =
        resume.map(|c| c.observations.clone()).unwrap_or_default();
    let mut iterations = resume.map_or(0, |c| c.iterations);
    let mut conflict_deltas: Vec<u64> = resume.map_or_else(Vec::new, |c| c.conflict_deltas.clone());
    let prior_conflicts = resume.map_or(0, |c| c.conflicts);
    // replay checkpointed observations into the fresh scaffold; the
    // hash-consed AIG reproduces the suspended run's formula exactly
    for (x_hat, y_hat) in &observations {
        encode_observation_aig(locked, &mut sc, &mut solver, x_hat, y_hat)?;
    }
    // the fresh solver starts at zero conflicts, so its counter IS this
    // run's spent-conflict meter
    let suspend = |sp: &mut seceda_trace::Span,
                   solver: &Solver,
                   observations: Vec<(Vec<bool>, Vec<bool>)>,
                   iterations: usize,
                   conflict_deltas: Vec<u64>,
                   reason: StopReason| {
        sp.attr("result", "suspended");
        if seceda_trace::enabled() {
            sp.attr("stop_reason", format!("{reason}"));
        }
        seceda_trace::counter("lock.attack_suspended", 1);
        Ok(SatAttackOutcome::Suspended {
            checkpoint: SatAttackCheckpoint {
                observations,
                iterations,
                conflicts: prior_conflicts + solver.num_conflicts,
                conflict_deltas,
            },
            reason,
        })
    };
    loop {
        // one histogram sample per DIP iteration (the final UNSAT
        // round included), so slow-iteration tails show up as p99
        let _iter_t = seceda_trace::hist_timer("sat.dip_iter_ns");
        let before = solver.num_conflicts;
        let sub = budget.minus(solver.num_conflicts, 0);
        match solver.solve(&[diff], &sub) {
            SolveOutcome::Sat(model) => {
                let x_hat = match lex_min_model(
                    &mut |a| {
                        let sub = budget.minus(solver.num_conflicts, 0);
                        solver.solve(a, &sub)
                    },
                    &sc.x_vars,
                    &[diff],
                    &model,
                ) {
                    Ok(x_hat) => x_hat,
                    Err(reason) => {
                        // the iteration did not complete: no delta, no
                        // observation, no iteration count
                        return suspend(
                            &mut sp,
                            &solver,
                            observations,
                            iterations,
                            conflict_deltas,
                            reason,
                        );
                    }
                };
                iterations += 1;
                seceda_trace::progress("lock.dip_iterations", iterations as u64);
                conflict_deltas.push(solver.num_conflicts - before);
                let y_hat = oracle(&x_hat);
                encode_observation_aig(locked, &mut sc, &mut solver, &x_hat, &y_hat)?;
                observations.push((x_hat, y_hat));
            }
            SolveOutcome::Unsat => {
                conflict_deltas.push(solver.num_conflicts - before);
                // no DIP left: extract any key satisfying all
                // observations from the SAME solver, just without the
                // diff assumption
                let before = solver.num_conflicts;
                let sub = budget.minus(solver.num_conflicts, 0);
                let result = match solver.solve(&[], &sub) {
                    SolveOutcome::Sat(model) => {
                        // canonicalize to the lex-min key so the result
                        // is a property of the formula, not of the
                        // solver's search history
                        let key = match lex_min_model(
                            &mut |a| {
                                let sub = budget.minus(solver.num_conflicts, 0);
                                solver.solve(a, &sub)
                            },
                            &sc.k1,
                            &[],
                            &model,
                        ) {
                            Ok(key) => key,
                            Err(reason) => {
                                // withdraw the exhausted-DIP delta: the
                                // resume redoes that proof and the
                                // extraction together
                                conflict_deltas.pop();
                                return suspend(
                                    &mut sp,
                                    &solver,
                                    observations,
                                    iterations,
                                    conflict_deltas,
                                    reason,
                                );
                            }
                        };
                        conflict_deltas.push(solver.num_conflicts - before);
                        SatAttackOutcome::Complete(SatAttackResult {
                            key,
                            iterations,
                            conflicts: prior_conflicts + solver.num_conflicts,
                            conflict_deltas,
                            clauses: solver.num_problem_clauses(),
                            portfolio_k: 1,
                        })
                    }
                    SolveOutcome::Unsat => SatAttackOutcome::NoKey,
                    SolveOutcome::Indeterminate(reason) => {
                        conflict_deltas.pop();
                        return suspend(
                            &mut sp,
                            &solver,
                            observations,
                            iterations,
                            conflict_deltas,
                            reason,
                        );
                    }
                };
                seceda_trace::counter("lock.dip_iterations", iterations as u64);
                seceda_trace::counter("sat.aig_nodes", sc.aig.num_nodes() as u64);
                seceda_trace::counter("sat.aig_hash_hits", sc.aig.hash_hits());
                sp.attr("iterations", iterations);
                sp.attr("aig_nodes", sc.aig.num_nodes());
                return Ok(result);
            }
            SolveOutcome::Indeterminate(reason) => {
                return suspend(
                    &mut sp,
                    &solver,
                    observations,
                    iterations,
                    conflict_deltas,
                    reason,
                );
            }
        }
        assert!(
            iterations <= 1 << 16,
            "SAT attack runaway: too many iterations"
        );
    }
}

/// The original rebuild-per-iteration SAT attack: re-encodes the full
/// attack CNF and builds a fresh solver on every DIP iteration. Kept as
/// the differential-testing and benchmarking baseline for [`sat_attack`];
/// both must agree on iteration counts and recover functionally
/// equivalent keys.
///
/// # Errors
///
/// Propagates encoding errors (cyclic netlists).
pub fn sat_attack_rebuild(
    locked: &LockedNetlist,
    oracle: impl Fn(&[bool]) -> Vec<bool>,
) -> Result<Option<SatAttackResult>, NetlistError> {
    let mut observations: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
    let mut iterations = 0usize;
    let mut conflicts = 0u64;
    let mut conflict_deltas: Vec<u64> = Vec::new();
    let unlimited = Budget::unlimited();
    loop {
        let (cnf, x_vars, _, _, diff) = build_attack_cnf(locked, &observations)?;
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve(&[diff], &unlimited) {
            SolveOutcome::Sat(model) => {
                iterations += 1;
                let x_hat = lex_min_model(
                    &mut |a| solver.solve(a, &unlimited),
                    &x_vars,
                    &[diff],
                    &model,
                )
                .unwrap_or_else(|reason| unreachable!("unlimited lex-min stopped: {reason}"));
                conflicts += solver.num_conflicts;
                conflict_deltas.push(solver.num_conflicts);
                let y_hat = oracle(&x_hat);
                observations.push((x_hat, y_hat));
            }
            SolveOutcome::Unsat => {
                conflicts += solver.num_conflicts;
                conflict_deltas.push(solver.num_conflicts);
                // no DIP left: extract any key satisfying all observations
                let (cnf, _, k1, _, _) = build_attack_cnf(locked, &observations)?;
                let mut solver = Solver::from_cnf(&cnf);
                return Ok(match solver.solve(&[], &unlimited) {
                    SolveOutcome::Sat(model) => {
                        // same lex-min canonicalization as the
                        // incremental attack: both walk identical DIP
                        // transcripts over identical observation sets,
                        // so the canonical keys agree bit-for-bit
                        let key =
                            lex_min_model(&mut |a| solver.solve(a, &unlimited), &k1, &[], &model)
                                .unwrap_or_else(|reason| {
                                    unreachable!("unlimited lex-min stopped: {reason}")
                                });
                        conflicts += solver.num_conflicts;
                        conflict_deltas.push(solver.num_conflicts);
                        Some(SatAttackResult {
                            key,
                            iterations,
                            conflicts,
                            conflict_deltas,
                            clauses: cnf.clauses().len(),
                            portfolio_k: 1,
                        })
                    }
                    SolveOutcome::Unsat => None,
                    SolveOutcome::Indeterminate(reason) => {
                        unreachable!("unlimited solve stopped: {reason}")
                    }
                });
            }
            SolveOutcome::Indeterminate(reason) => {
                unreachable!("unlimited solve stopped: {reason}")
            }
        }
        assert!(
            iterations <= 1 << 16,
            "SAT attack runaway: too many iterations"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locking::{mux_lock, sfll_hd0, xor_lock};
    use seceda_netlist::{c17, majority};

    fn check_attack_recovers_function(locked: &LockedNetlist, original: &seceda_netlist::Netlist) {
        let oracle = |x: &[bool]| original.evaluate(x);
        let result = sat_attack(locked, oracle)
            .expect("attack runs")
            .expect("key found");
        // recovered key must be functionally correct on every input
        let n = locked.num_original_inputs;
        for pattern in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
            assert_eq!(
                locked.evaluate_with_key(&inputs, &result.key),
                original.evaluate(&inputs),
                "recovered key wrong on {inputs:?}"
            );
        }
    }

    #[test]
    fn breaks_xor_locking_on_c17() {
        let nl = c17();
        let locked = xor_lock(&nl, 8, 7);
        check_attack_recovers_function(&locked, &nl);
    }

    #[test]
    fn breaks_mux_locking_on_majority() {
        let nl = majority();
        let locked = mux_lock(&nl, 4, 9);
        check_attack_recovers_function(&locked, &nl);
    }

    #[test]
    fn sfll_requires_many_more_queries() {
        // SFLL-HD0's resilience: each DIP rules out only the keys equal
        // to that DIP, so the attack needs ~2^n oracle queries, versus a
        // handful for XOR locking.
        let nl = c17();
        let xor = xor_lock(&nl, 8, 11);
        let sfll = sfll_hd0(&nl, &[true, false, true, false, true]);
        let oracle = |x: &[bool]| nl.evaluate(x);
        let xr = sat_attack(&xor, oracle).expect("runs").expect("key");
        let sr = sat_attack(&sfll, oracle).expect("runs").expect("key");
        assert!(
            sr.iterations > 4 * xr.iterations.max(1),
            "SFLL must cost far more queries: sfll {} vs xor {}",
            sr.iterations,
            xr.iterations
        );
        // and the SFLL iteration count approaches the input-space size
        assert!(
            sr.iterations >= 12,
            "SFLL-HD0 on 5 inputs needs on the order of 2^5 queries, got {}",
            sr.iterations
        );
    }

    #[test]
    fn attack_effort_grows_with_key_width() {
        let nl = c17();
        let small = xor_lock(&nl, 2, 21);
        let large = xor_lock(&nl, 16, 22);
        let oracle = |x: &[bool]| nl.evaluate(x);
        let rs = sat_attack(&small, oracle).expect("runs").expect("key");
        let rl = sat_attack(&large, oracle).expect("runs").expect("key");
        // more key gates mean at least as many (usually more) iterations
        assert!(rl.iterations >= rs.iterations);
    }

    /// Drives a budgeted attack to completion by repeatedly suspending
    /// under `step` conflicts and resuming with a doubled budget until it
    /// finishes, recording how many suspensions occurred.
    fn run_with_suspensions(
        locked: &LockedNetlist,
        oracle: impl Fn(&[bool]) -> Vec<bool> + Copy,
        step: u64,
    ) -> (SatAttackResult, usize) {
        let mut checkpoint: Option<SatAttackCheckpoint> = None;
        let mut budget_conflicts = step;
        let mut suspensions = 0usize;
        loop {
            let budget = Budget::unlimited().with_max_conflicts(budget_conflicts);
            match sat_attack_budgeted(locked, oracle, &budget, checkpoint.as_ref())
                .expect("attack runs")
            {
                SatAttackOutcome::Complete(r) => return (r, suspensions),
                SatAttackOutcome::NoKey => panic!("consistently locked design has a key"),
                SatAttackOutcome::Suspended {
                    checkpoint: cp,
                    reason,
                } => {
                    assert_eq!(reason, StopReason::Conflicts);
                    assert_eq!(cp.iterations, cp.observations.len());
                    assert_eq!(cp.conflict_deltas.len(), cp.iterations);
                    suspensions += 1;
                    assert!(suspensions < 64, "attack never finishes");
                    checkpoint = Some(cp);
                    // grow the budget so the redone solve eventually fits
                    budget_conflicts = budget_conflicts.saturating_mul(2);
                }
            }
        }
    }

    fn check_resume_matches_straight_through(
        locked: &LockedNetlist,
        original: &seceda_netlist::Netlist,
    ) {
        let oracle = |x: &[bool]| original.evaluate(x);
        let straight = sat_attack(locked, oracle)
            .expect("attack runs")
            .expect("key found");
        let (resumed, suspensions) = run_with_suspensions(locked, oracle, 1);
        assert!(
            suspensions > 0,
            "a 1-conflict budget must suspend at least once"
        );
        // bit-identical transcript: same key, same DIP count
        assert_eq!(resumed.key, straight.key);
        assert_eq!(resumed.iterations, straight.iterations);
        assert_eq!(resumed.conflict_deltas.len(), resumed.iterations + 2);
        // suspended partial solves are counted as effort but re-done, so
        // total conflicts can only be >= the per-iteration deltas
        assert!(resumed.conflicts >= resumed.conflict_deltas.iter().sum::<u64>());
    }

    #[test]
    fn budgeted_attack_suspends_and_resumes_bit_identically() {
        let nl = c17();
        let locked = xor_lock(&nl, 8, 7);
        check_resume_matches_straight_through(&locked, &nl);
    }

    #[test]
    fn budgeted_attack_resumes_on_parsed_bench_host() {
        let text = "\
# c17 from the ISCAS-85 suite
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";
        let nl = seceda_netlist::parse_bench(text).expect("c17 parses");
        let locked = xor_lock(&nl, 6, 13);
        check_resume_matches_straight_through(&locked, &nl);
    }

    #[test]
    fn zero_conflict_budget_suspends_immediately_with_empty_checkpoint() {
        let nl = c17();
        let locked = xor_lock(&nl, 8, 7);
        let oracle = |x: &[bool]| nl.evaluate(x);
        let budget = Budget::unlimited().with_max_conflicts(0);
        match sat_attack_budgeted(&locked, oracle, &budget, None).expect("attack runs") {
            SatAttackOutcome::Suspended { checkpoint, reason } => {
                assert_eq!(reason, StopReason::Conflicts);
                assert_eq!(checkpoint.iterations, 0);
                assert!(checkpoint.observations.is_empty());
                assert!(checkpoint.conflict_deltas.is_empty());
            }
            other => panic!("expected suspension, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_attack() {
        let nl = c17();
        let locked = xor_lock(&nl, 8, 7);
        let oracle = |x: &[bool]| nl.evaluate(x);
        let plain = sat_attack(&locked, oracle).expect("runs").expect("key");
        match sat_attack_budgeted(&locked, oracle, &Budget::unlimited(), None).expect("runs") {
            SatAttackOutcome::Complete(r) => {
                assert_eq!(r.key, plain.key);
                assert_eq!(r.iterations, plain.iterations);
                assert_eq!(r.conflict_deltas, plain.conflict_deltas);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn conflict_deltas_cover_every_solve() {
        let nl = c17();
        let locked = xor_lock(&nl, 8, 7);
        let oracle = |x: &[bool]| nl.evaluate(x);
        let r = sat_attack(&locked, oracle).expect("runs").expect("key");
        // one delta per DIP query, one for the exhausted-DIP proof, one
        // for the key extraction
        assert_eq!(r.conflict_deltas.len(), r.iterations + 2);
        assert_eq!(r.conflicts, r.conflict_deltas.iter().sum::<u64>());
    }
}
