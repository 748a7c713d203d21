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
//! regardless of encoding, solver history, or worker count.
//!
//! The attack is one loop, [`sat_attack_budgeted`]; [`sat_attack`] runs
//! it under an unlimited budget. Every step is one canonical solve: a
//! solve under what the budget has left, then lex-min refinement. The
//! DIP step canonicalizes the functional inputs under the difference
//! assumption; once that is unsatisfiable, key extraction canonicalizes
//! the first key copy with no assumption. A [`SatAttackCheckpoint`] is
//! the loop's state, so a spent budget at any solve leaves through one
//! exit, and a resume starts the loop from the checkpoint.
//!
//! The rebuild-from-scratch baseline (a per-net Tseitin miter sharing only
//! the functional inputs, fresh solver per iteration) is kept in
//! test-only code as the differential oracle of this attack.

use crate::locking::LockedNetlist;
use seceda_netlist::NetlistError;
use seceda_sat::{
    lower_netlist, miter, Aig, AigCnf, AigLit, Budget, CnfBuilder, Lit, SolveOutcome, Solver,
    StopReason, Var,
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
    /// Problem clauses in the final solver state: the AIG-encoded
    /// scaffold plus every observation copy.
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SatAttackCheckpoint {
    /// Accumulated `(x_hat, y_hat)` oracle observations, in DIP order:
    /// one per completed DIP iteration.
    pub observations: Vec<(Vec<bool>, Vec<bool>)>,
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
/// the [`miter`] of two keyed copies sharing the functional inputs X, so
/// every key-independent cone is built (and encoded to CNF) exactly
/// once, and the difference folds to constant-false for outputs the key
/// cannot influence. `const_false` must already be pinned false in
/// `sink`.
fn encode_aig_scaffold<B: CnfBuilder>(
    locked: &LockedNetlist,
    const_false: Lit,
    sink: &mut B,
) -> Result<AigScaffold, NetlistError> {
    let nl = &locked.netlist;
    let nx = locked.num_original_inputs;
    let mut aig = Aig::new();
    let mut map = AigCnf::new(const_false);
    // variables: X, then the first copy's key k1, then the second's k2
    let m = miter(nl, nl, nx, &mut aig, sink)?;
    let diff = map.lit_of(&aig, m.diff, sink);
    Ok(AigScaffold {
        aig,
        map,
        const_false,
        x_vars: m.vars[..nx].to_vec(),
        k1: m.vars[nx..nl.inputs().len()].to_vec(),
        k1_nodes: m.a_inputs[nx..].to_vec(),
        k2_nodes: m.b_inputs[nx..].to_vec(),
        diff,
    })
}

/// Appends one observation `(x_hat, y_hat)` with the functional inputs
/// bound to constants and folded through the AIG: only the key-dependent
/// cone survives as nodes, and of those only the nodes not already
/// hash-consed by earlier iterations cost clauses. Semantically
/// identical to the rebuild baseline's per-net Tseitin observation copy
/// — both pin the same function of the key variables — which is what
/// keeps the lex-min DIP transcript (and hence the iteration count) in
/// exact agreement with it.
fn encode_observation_aig<B: CnfBuilder>(
    locked: &LockedNetlist,
    sc: &mut AigScaffold,
    sink: &mut B,
    x_hat: &[bool],
    y_hat: &[bool],
) -> Result<(), NetlistError> {
    let nl = &locked.netlist;
    // `zip` below would silently drop the constraints of missing outputs
    assert!(
        x_hat.len() == locked.num_original_inputs && y_hat.len() == nl.outputs().len(),
        "observation has {} inputs and {} outputs; the locked design expects {} and {}",
        x_hat.len(),
        y_hat.len(),
        locked.num_original_inputs,
        nl.outputs().len()
    );
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
        let nets = lower_netlist(nl, &mut sc.aig, &bindings, None, sink)?;
        for (&(o, _), &yv) in nl.outputs().iter().zip(y_hat) {
            let out = nets[o.index()];
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
/// differential suite checks, for any worker count.
///
/// A query that comes back [`SolveOutcome::Indeterminate`] (a limited
/// budget ran out) aborts the whole refinement with the stop reason: a
/// partially minimized assignment is NOT canonical and must not leak
/// into the DIP transcript. Queries under an unlimited budget never stop
/// early, so then the result is always `Ok`.
pub(crate) fn lex_min_model(
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

/// Solves under `base` with whatever `budget` leaves after the solver's
/// conflicts so far, then canonicalizes `vars` with [`lex_min_model`],
/// metering every refinement query the same way. `Ok(None)` when `base`
/// is unsatisfiable; `Err` when the budget ran out first.
fn canonical(
    solver: &mut Solver,
    budget: &Budget,
    base: &[Lit],
    vars: &[Var],
) -> Result<Option<Vec<bool>>, StopReason> {
    let mut solve = |a: &[Lit]| {
        let left = budget.minus(solver.num_conflicts);
        solver.solve(a, &left)
    };
    match solve(base) {
        SolveOutcome::Sat(model) => lex_min_model(&mut solve, vars, base, &model).map(Some),
        SolveOutcome::Unsat => Ok(None),
        SolveOutcome::Indeterminate(reason) => Err(reason),
    }
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
///
/// # Panics
///
/// Panics if `oracle` returns a vector whose length is not the locked
/// design's output count (a short response would otherwise drop
/// constraints and yield a wrong key), or after 2^16 iterations.
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
/// [`sat_attack`], but caps the conflicts the whole attack spends: each
/// constituent solve gets what the previous ones left over, by the
/// solver's accumulated conflicts. Conflicts count work, not time, so
/// where an attack suspends is a pure function of the locked design,
/// the oracle and the budget. When the budget runs out the
/// attack returns [`SatAttackOutcome::Suspended`] with a
/// [`SatAttackCheckpoint`] holding every completed observation; passing
/// that checkpoint back (with a fresh budget) resumes on a fresh solver
/// by replaying the observations into a new scaffold.
///
/// Because every DIP and the key are lex-min canonical — properties of
/// the formula, not of solver state — a suspended-and-resumed attack
/// recovers **bit-identical** iteration counts, DIP sequences, and keys
/// to a straight-through run. The interrupted step's partial effort is
/// discarded (it is counted in [`SatAttackCheckpoint::conflicts`] but has
/// no `conflict_deltas` entry, and the resume redoes that step from
/// scratch), so resuming with an equally tiny conflict budget can make no
/// progress; resume with a larger or unlimited budget.
///
/// # Errors
///
/// Propagates encoding errors (cyclic netlists).
///
/// # Panics
///
/// As [`sat_attack`]; the widths are checked for `resume`'s
/// observations too.
pub fn sat_attack_budgeted(
    locked: &LockedNetlist,
    oracle: impl Fn(&[bool]) -> Vec<bool>,
    budget: &Budget,
    resume: Option<&SatAttackCheckpoint>,
) -> Result<SatAttackOutcome, NetlistError> {
    let mut sp = seceda_trace::span("lock.sat_attack");
    sp.attr("key_width", locked.key_width());
    sp.attr("budgeted", budget.max_conflicts().is_some());
    sp.attr("resumed", resume.is_some());
    let mut solver = Solver::new(0);
    // a literal that is false in every model, for lowering AIG constants
    let const_false = solver.new_var().pos();
    solver.add_clause([!const_false]);
    let mut sc = encode_aig_scaffold(locked, const_false, &mut solver)?;
    // the checkpoint is the loop's state: replaying its observations
    // into the fresh scaffold reproduces the suspended run's formula
    let mut cp = resume.cloned().unwrap_or_default();
    for (x_hat, y_hat) in &cp.observations {
        encode_observation_aig(locked, &mut sc, &mut solver, x_hat, y_hat)?;
    }
    // the fresh solver starts at zero conflicts, so its counter is this
    // run's spent-conflict meter; a step's delta is recorded only once
    // the step completes
    let key = loop {
        // one histogram sample per DIP iteration (the final UNSAT
        // round included), so slow-iteration tails show up as p99
        let _iter_t = seceda_trace::hist_timer("sat.dip_iter_ns");
        let before = solver.num_conflicts;
        let x_hat = match canonical(&mut solver, budget, &[sc.diff], &sc.x_vars) {
            Ok(Some(x_hat)) => x_hat,
            Ok(None) => {
                // no DIP left: extract the key from the SAME solver,
                // just without the diff assumption
                let proved = solver.num_conflicts;
                let key = canonical(&mut solver, budget, &[], &sc.k1);
                if key.is_ok() {
                    cp.conflict_deltas.push(proved - before);
                    cp.conflict_deltas.push(solver.num_conflicts - proved);
                }
                break key;
            }
            Err(reason) => break Err(reason),
        };
        cp.conflict_deltas.push(solver.num_conflicts - before);
        let y_hat = oracle(&x_hat);
        encode_observation_aig(locked, &mut sc, &mut solver, &x_hat, &y_hat)?;
        cp.observations.push((x_hat, y_hat));
        assert!(
            cp.observations.len() <= 1 << 16,
            "SAT attack runaway: too many iterations"
        );
    };
    cp.conflicts += solver.num_conflicts;
    let key = match key {
        Ok(key) => key,
        Err(reason) => {
            sp.attr("result", "suspended");
            if seceda_trace::enabled() {
                sp.attr("stop_reason", format!("{reason}"));
            }
            seceda_trace::counter("lock.attack_suspended", 1);
            return Ok(SatAttackOutcome::Suspended {
                checkpoint: cp,
                reason,
            });
        }
    };
    let iterations = cp.observations.len();
    seceda_trace::counter("lock.dip_iterations", iterations as u64);
    seceda_trace::counter("sat.aig_nodes", sc.aig.num_nodes() as u64);
    seceda_trace::counter("sat.aig_hash_hits", sc.aig.hash_hits());
    sp.attr("iterations", iterations);
    sp.attr("aig_nodes", sc.aig.num_nodes());
    Ok(match key {
        Some(key) => SatAttackOutcome::Complete(SatAttackResult {
            key,
            iterations,
            conflicts: cp.conflicts,
            conflict_deltas: cp.conflict_deltas,
            clauses: solver.num_problem_clauses(),
            portfolio_k: 1,
        }),
        None => SatAttackOutcome::NoKey,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locking::{mux_lock, sfll_hd0, xor_lock};
    use seceda_netlist::{c17, majority, parse_bench, random_circuit, RandomCircuitConfig};

    /// c17 as an ISCAS-85 `.bench` text, for the parsed-host tests.
    const C17_BENCH: &str = "\
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
                    assert_eq!(cp.conflict_deltas.len(), cp.observations.len());
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

        // the one-conflict probe: its checkpoint, resumed unbudgeted,
        // lands on the straight-through key and DIP count in one step
        let starved = Budget::unlimited().with_max_conflicts(1);
        let checkpoint =
            match sat_attack_budgeted(locked, oracle, &starved, None).expect("attack runs") {
                SatAttackOutcome::Suspended { checkpoint, .. } => checkpoint,
                other => panic!("a 1-conflict budget must suspend, got {other:?}"),
            };
        match sat_attack_budgeted(locked, oracle, &Budget::unlimited(), Some(&checkpoint))
            .expect("resume runs")
        {
            SatAttackOutcome::Complete(r) => {
                assert_eq!(r.key, straight.key);
                assert_eq!(r.iterations, straight.iterations);
            }
            other => panic!("an unbudgeted resume must complete, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_attack_suspends_and_resumes_bit_identically() {
        let nl = c17();
        for key_width in [8, 12] {
            let locked = xor_lock(&nl, key_width, 7);
            check_resume_matches_straight_through(&locked, &nl);
        }
    }

    #[test]
    fn budgeted_attack_resumes_on_parsed_bench_host() {
        let nl = parse_bench(C17_BENCH).expect("c17 parses");
        let locked = xor_lock(&nl, 6, 13);
        check_resume_matches_straight_through(&locked, &nl);
    }

    /// The ladder test's 100-gate random host with a 16-bit lock.
    fn random_host() -> seceda_netlist::Netlist {
        random_circuit(&RandomCircuitConfig {
            num_inputs: 10,
            num_gates: 100,
            num_outputs: 5,
            with_xor: true,
            seed: 3,
        })
    }

    #[test]
    fn budgeted_attack_resumes_on_random_host() {
        let nl = random_host();
        check_resume_matches_straight_through(&xor_lock(&nl, 16, 11), &nl);
    }

    #[test]
    #[should_panic(expected = "observation has 5 inputs and 1 outputs; \
                               the locked design expects 5 and 2")]
    fn short_oracle_response_is_rejected() {
        let nl = c17();
        let locked = xor_lock(&nl, 8, 7);
        let _ = sat_attack(&locked, |x: &[bool]| nl.evaluate(x)[..1].to_vec());
    }

    #[test]
    #[should_panic(expected = "observation has 4 inputs and 2 outputs; \
                               the locked design expects 5 and 2")]
    fn truncated_checkpoint_observation_is_rejected() {
        let nl = c17();
        let locked = xor_lock(&nl, 8, 7);
        let x = vec![true; 5];
        let checkpoint = SatAttackCheckpoint {
            observations: vec![(x[..4].to_vec(), nl.evaluate(&x))],
            ..SatAttackCheckpoint::default()
        };
        let oracle = |x: &[bool]| nl.evaluate(x);
        let _ = sat_attack_budgeted(&locked, oracle, &Budget::unlimited(), Some(&checkpoint));
    }

    /// The one metering rule on a conflict-budget ladder 0, 1, 2, 4, ...:
    /// the budget caps the whole attack, so a run under a larger budget
    /// replays a smaller one's run and goes further. A suspended run's
    /// observations are a prefix of the next rung's, and a completed run
    /// equals the unlimited one.
    fn check_budget_ladder(locked: &LockedNetlist, original: &seceda_netlist::Netlist) {
        let oracle = |x: &[bool]| original.evaluate(x);
        let unlimited = sat_attack(locked, oracle)
            .expect("attack runs")
            .expect("key found");
        let mut previous: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        let mut partial = 0usize;
        let mut b = 0u64;
        loop {
            let budget = Budget::unlimited().with_max_conflicts(b);
            match sat_attack_budgeted(locked, oracle, &budget, None).expect("attack runs") {
                SatAttackOutcome::Suspended { checkpoint, reason } => {
                    assert_eq!(reason, StopReason::Conflicts, "budget {b}");
                    assert!(
                        checkpoint.observations.starts_with(&previous),
                        "budget {b}: observations must extend the smaller budget's"
                    );
                    partial += usize::from(!checkpoint.observations.is_empty());
                    previous = checkpoint.observations;
                    assert!(b <= unlimited.conflicts, "budget {b} suspended");
                }
                SatAttackOutcome::Complete(r) => {
                    assert_eq!(r, unlimited, "budget {b}: completed run diverged");
                    break;
                }
                SatAttackOutcome::NoKey => panic!("budget {b}: attack lost the key"),
            }
            b = (2 * b).max(1);
        }
        assert!(partial > 0, "some rung must suspend mid-attack");
    }

    #[test]
    fn conflict_budget_ladder_meters_the_whole_attack() {
        let nl = c17();
        check_budget_ladder(&xor_lock(&nl, 12, 7), &nl);
        let parsed = parse_bench(C17_BENCH).expect("c17 parses");
        check_budget_ladder(&xor_lock(&parsed, 6, 13), &parsed);
        let random = random_host();
        check_budget_ladder(&xor_lock(&random, 16, 11), &random);
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
