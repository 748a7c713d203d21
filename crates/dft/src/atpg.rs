//! SAT-based ATPG for single stuck-at faults.
//!
//! Random patterns knock out the easy faults; each remaining fault gets
//! a dedicated SAT query on a sensitization miter (good circuit vs.
//! faulty circuit, shared inputs, some output must differ). UNSAT proves
//! the fault untestable (redundant logic).
//!
//! The miter is built *incrementally*: [`AtpgSolver`] encodes the good
//! circuit exactly once and keeps one persistent solver across every
//! fault. Each query appends only the fault's fan-out cone, gated on a
//! fresh selector literal passed as an assumption, then retires the cone
//! with a root-level unit — so learned clauses about the good circuit
//! accumulate across the whole run instead of being rebuilt per fault.

use seceda_netlist::{NetId, Netlist, NetlistError};
use seceda_sat::{
    encode_faulty_cone, encode_netlist, Budget, CnfBuilder, GatedCnf, Lit, NetlistEncoding,
    SolveOutcome, Solver, StopReason,
};
use seceda_sim::{fault::stuck_at_universe, Fault, FaultKind, PackedFaultSim};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Result of a test-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgResult {
    /// The generated test patterns.
    pub patterns: Vec<Vec<bool>>,
    /// Faults proven untestable (no input can expose them).
    pub untestable: Vec<Fault>,
    /// Achieved coverage over the *testable* faults.
    pub coverage: f64,
    /// Total fault universe size.
    pub total_faults: usize,
}

/// What a budgeted single-fault query produced.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTestOutcome {
    /// A test pattern exposing the fault.
    Test(Vec<bool>),
    /// Proven untestable (redundant logic, or the fault reaches no
    /// output).
    Untestable,
    /// The per-fault budget ran out before the query was decided — the
    /// industry-standard *aborted fault*. The solver stays usable; the
    /// fault's clause group is retired, so later queries are unaffected.
    Aborted(StopReason),
}

/// A persistent incremental ATPG engine: the good circuit is encoded
/// once, and every fault query only appends that fault's selector-gated
/// fan-out cone to the same live solver.
pub struct AtpgSolver<'a> {
    nl: &'a Netlist,
    solver: Solver,
    good: NetlistEncoding,
    /// A literal constrained false at the root; stuck-at faults read it
    /// (or its negation) as their faulty source value.
    false_lit: Lit,
}

impl<'a> AtpgSolver<'a> {
    /// Encodes the good circuit into a fresh persistent solver.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (cyclic netlists).
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let mut solver = Solver::new(0);
        let good = encode_netlist(nl, &mut solver)?;
        let f = solver.new_var();
        solver.add_clause([f.neg()]);
        Ok(AtpgSolver {
            nl,
            solver,
            good,
            false_lit: f.pos(),
        })
    }

    /// The literal carrying the faulty value of `fault.net`.
    fn faulty_source(&self, fault: Fault) -> Lit {
        match fault.kind {
            FaultKind::StuckAt0 => self.false_lit,
            FaultKind::StuckAt1 => !self.false_lit,
            FaultKind::BitFlip => self.good.vars[fault.net.index()].neg(),
        }
    }

    /// Generates a test for a single fault; `None` means proven
    /// untestable (by structure when the fault reaches no output, by
    /// UNSAT otherwise).
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn generate_test(&mut self, fault: Fault) -> Result<Option<Vec<bool>>, NetlistError> {
        match self.generate_test_budgeted(fault, &Budget::unlimited())? {
            FaultTestOutcome::Test(pattern) => Ok(Some(pattern)),
            FaultTestOutcome::Untestable => Ok(None),
            // unlimited budgets skip every budget check
            FaultTestOutcome::Aborted(reason) => {
                unreachable!("unbudgeted ATPG query aborted: {reason}")
            }
        }
    }

    /// Budgeted [`AtpgSolver::generate_test`]: the sensitization query
    /// runs under `budget`, and exhaustion yields
    /// [`FaultTestOutcome::Aborted`] instead of an answer. The aborted
    /// fault's clause group is retired exactly like a decided one, so
    /// the engine continues to the next fault with a consistent solver.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn generate_test_budgeted(
        &mut self,
        fault: Fault,
        budget: &Budget,
    ) -> Result<FaultTestOutcome, NetlistError> {
        let faulty_source = self.faulty_source(fault);
        let sel = self.solver.new_var();
        let guard = sel.neg();
        let cone = encode_faulty_cone(
            self.nl,
            &self.good,
            fault.net,
            faulty_source,
            guard,
            &mut self.solver,
        )?;
        if cone.is_empty() {
            // the fault reaches no primary output: untestable without a
            // single solver call
            self.solver.add_clause([guard]);
            return Ok(FaultTestOutcome::Untestable);
        }
        // gated sensitization requirement: some cone output must differ
        let mut gated = GatedCnf::new(&mut self.solver, guard);
        let mut diffs = Vec::new();
        for &(k, flit) in &cone {
            let d = gated.new_var().pos();
            let good_out = self.good.output_vars[k].pos();
            gated.gate_xor(d, good_out, flit);
            diffs.push(d);
        }
        gated.add_clause(diffs);
        let result = self.solver.solve(&[sel.pos()], budget);
        // retire this fault's clause group for good
        self.solver.add_clause([guard]);
        Ok(match result {
            SolveOutcome::Sat(model) => FaultTestOutcome::Test(
                self.good
                    .input_vars
                    .iter()
                    .map(|v| model[v.index()])
                    .collect(),
            ),
            SolveOutcome::Unsat => FaultTestOutcome::Untestable,
            SolveOutcome::Indeterminate(reason) => FaultTestOutcome::Aborted(reason),
        })
    }

    /// The net a fault on `net` feeds, resolved through the good
    /// encoding (introspection hook for coverage-style callers).
    pub fn good_var_of(&self, net: NetId) -> seceda_sat::Var {
        self.good.vars[net.index()]
    }
}

/// Generates a test for a single fault; `None` means proven untestable.
///
/// One-shot convenience wrapper over [`AtpgSolver`]; batch callers
/// should keep one `AtpgSolver` across faults.
///
/// # Errors
///
/// Propagates encoding errors.
pub fn generate_test_for(nl: &Netlist, fault: Fault) -> Result<Option<Vec<bool>>, NetlistError> {
    AtpgSolver::new(nl)?.generate_test(fault)
}

/// Full ATPG: random bootstrap then SAT cleanup.
///
/// # Errors
///
/// Propagates simulator/encoding errors.
pub fn generate_tests(
    nl: &Netlist,
    random_patterns: usize,
    seed: u64,
) -> Result<AtpgResult, NetlistError> {
    let mut sp = seceda_trace::span("dft.atpg");
    sp.attr("gates", nl.num_gates());
    sp.attr("random_patterns", random_patterns);
    let faults = stuck_at_universe(nl);
    let sim = PackedFaultSim::new(nl)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let num_inputs = nl.inputs().len();
    let mut patterns: Vec<Vec<bool>> = (0..random_patterns)
        .map(|_| (0..num_inputs).map(|_| rng.gen()).collect())
        .collect();
    // incremental grading: the random bootstrap drops the easy faults,
    // then each SAT pattern is graded (packed) against only the faults
    // still undetected at that moment — a SAT pattern generated for one
    // fault frequently detects several others, saving their SAT queries,
    // and the full end-of-run re-grade disappears entirely (the final
    // `detected` vector is identical to a from-scratch grade of all
    // patterns against all faults, since detection is monotone).
    let mut detected = vec![false; faults.len()];
    sim.grade(&patterns, &faults, &mut detected);
    let mut untestable = Vec::new();
    let mut sat_queries = 0u64;
    let mut atpg = AtpgSolver::new(nl)?;
    for (k, &f) in faults.iter().enumerate() {
        // heartbeat: the watchdog sees fault-list progress even while
        // individual SAT queries are slow
        seceda_trace::progress("dft.faults_processed", k as u64 + 1);
        if detected[k] {
            continue;
        }
        sat_queries += 1;
        match atpg.generate_test(f)? {
            Some(pattern) => {
                sim.grade(std::slice::from_ref(&pattern), &faults, &mut detected);
                patterns.push(pattern);
            }
            None => untestable.push(f),
        }
    }
    let testable = faults.len() - untestable.len();
    let covered = detected.iter().filter(|&&d| d).count();
    let coverage = if testable == 0 {
        1.0
    } else {
        covered as f64 / testable as f64
    };
    seceda_trace::counter("dft.patterns_generated", patterns.len() as u64);
    seceda_trace::counter("dft.sat_queries", sat_queries);
    seceda_trace::counter("dft.aborted_faults", untestable.len() as u64);
    sp.attr("total_faults", faults.len());
    sp.attr("patterns", patterns.len());
    sp.attr("untestable", untestable.len());
    sp.attr("coverage", coverage);
    Ok(AtpgResult {
        patterns,
        untestable,
        coverage,
        total_faults: faults.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, CellKind};

    #[test]
    fn c17_reaches_full_coverage() {
        let nl = c17();
        let result = generate_tests(&nl, 4, 9).expect("atpg");
        assert!(result.untestable.is_empty(), "c17 is fully testable");
        assert!(
            (result.coverage - 1.0).abs() < 1e-9,
            "coverage {}",
            result.coverage
        );
    }

    #[test]
    fn redundant_logic_is_proven_untestable() {
        // y = a | (a & b): the AND is redundant; its stuck-at-0 is
        // untestable
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let ab = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::Or, &[a, ab]);
        nl.mark_output(y, "y");
        let result = generate_tests(&nl, 8, 10).expect("atpg");
        let sa0 = Fault::stuck_at(ab, false);
        assert!(
            result.untestable.contains(&sa0),
            "redundant AND stuck-at-0 must be untestable: {:?}",
            result.untestable
        );
    }

    #[test]
    fn sat_patterns_actually_detect_their_faults() {
        let nl = c17();
        let faults = stuck_at_universe(&nl);
        let sim = seceda_sim::FaultSim::new(&nl).expect("sim");
        let mut atpg = AtpgSolver::new(&nl).expect("encode");
        for &f in &faults {
            if let Some(pattern) = atpg.generate_test(f).expect("query") {
                assert!(sim.detects(&pattern, f), "SAT pattern must detect {f:?}");
            }
        }
    }

    #[test]
    fn persistent_solver_agrees_with_one_shot_queries() {
        // differential: the shared-solver path must classify every fault
        // exactly like a fresh solver per fault
        let nl = c17();
        let faults = stuck_at_universe(&nl);
        let mut atpg = AtpgSolver::new(&nl).expect("encode");
        for &f in &faults {
            let shared = atpg.generate_test(f).expect("query").is_some();
            let fresh = generate_test_for(&nl, f).expect("query").is_some();
            assert_eq!(shared, fresh, "testability verdicts diverge on {f:?}");
        }
    }

    #[test]
    fn zero_budget_aborts_fault_and_solver_stays_usable() {
        let nl = c17();
        let faults = stuck_at_universe(&nl);
        let mut atpg = AtpgSolver::new(&nl).expect("encode");
        // starve the first query by propagations: the first poll fires
        // immediately, before any decision can be made
        let starved = Budget::unlimited().with_max_propagations(0);
        let aborted = atpg
            .generate_test_budgeted(faults[0], &starved)
            .expect("query");
        assert!(
            matches!(aborted, FaultTestOutcome::Aborted(_)),
            "a zero-propagation budget must abort: {aborted:?}"
        );
        // the aborted fault's cone was retired; every later unbudgeted
        // query must still agree with a fresh one-shot solver
        for &f in &faults {
            let shared = atpg.generate_test(f).expect("query").is_some();
            let fresh = generate_test_for(&nl, f).expect("query").is_some();
            assert_eq!(shared, fresh, "verdicts diverge after abort on {f:?}");
        }
        // and re-querying the starved fault with no budget decides it
        assert!(matches!(
            atpg.generate_test_budgeted(faults[0], &Budget::unlimited())
                .expect("query"),
            FaultTestOutcome::Test(_) | FaultTestOutcome::Untestable
        ));
    }

    #[test]
    fn more_random_patterns_reduce_sat_work() {
        let nl = c17();
        let few = generate_tests(&nl, 1, 11).expect("atpg");
        let many = generate_tests(&nl, 32, 11).expect("atpg");
        // both must reach full coverage; with 32 random patterns the SAT
        // stage has less to do so the final pattern count shrinks or ties
        assert!((few.coverage - 1.0).abs() < 1e-9);
        assert!((many.coverage - 1.0).abs() < 1e-9);
    }
}
