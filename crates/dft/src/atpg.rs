//! SAT-based ATPG for single stuck-at faults.
//!
//! Random patterns knock out the easy faults; each remaining fault gets
//! a dedicated SAT query on a sensitization miter (good circuit vs.
//! faulty circuit, shared inputs, some output must differ). UNSAT proves
//! the fault untestable (redundant logic).
//!
//! The miter is built *incrementally*: [`AtpgSolver`] lowers the good
//! circuit once, through the structurally-hashed AIG, into one
//! persistent solver kept across every fault. Each query builds only the
//! fault's fan-out cone as a [`seceda_sat::FaultMiter`] overlay: stuck-at
//! sites bind to constants and fold, so a fault the AIG already masks is
//! decided with no solver call, and a live cone is solved under a fresh
//! selector, then retired and truncated away. Learned clauses about the
//! good circuit accumulate across the whole run instead of being rebuilt
//! per fault.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sat::{AigLit, Budget, FaultMiter, FaultVerdict, StopReason};
use seceda_sim::{fault::stuck_at_universe, Fault, FaultKind, FaultSim};
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

/// A persistent incremental ATPG engine: the good circuit is lowered
/// once, and every fault query only adds that fault's selector-gated
/// fan-out cone to the same live solver.
pub struct AtpgSolver<'a> {
    faults: FaultMiter<'a>,
}

impl<'a> AtpgSolver<'a> {
    /// Lowers the good circuit into a fresh persistent solver.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (cyclic netlists).
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(AtpgSolver {
            faults: FaultMiter::new(nl)?,
        })
    }

    /// Generates a test for a single fault under `budget`. The fault is
    /// proven untestable by the AIG when its cone folds away before
    /// every output, by UNSAT otherwise. Exhaustion yields
    /// [`FaultTestOutcome::Aborted`] instead of an answer; the aborted
    /// fault's clause group is retired exactly like a decided one, so
    /// the engine continues to the next fault with a consistent solver.
    /// Under [`Budget::unlimited`] no query aborts.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn generate_test(
        &mut self,
        fault: Fault,
        budget: &Budget,
    ) -> Result<FaultTestOutcome, NetlistError> {
        let faulty = |good: AigLit| match fault.kind {
            FaultKind::StuckAt0 => AigLit::FALSE,
            FaultKind::StuckAt1 => AigLit::TRUE,
            FaultKind::BitFlip => !good,
        };
        // sensitization requirement: some primary output differs
        Ok(
            match self.faults.query(fault.net, faulty, |_| true, &[], budget) {
                FaultVerdict::Exposed(pattern) => FaultTestOutcome::Test(pattern),
                FaultVerdict::Unexposable => FaultTestOutcome::Untestable,
                FaultVerdict::Undecided(reason) => FaultTestOutcome::Aborted(reason),
            },
        )
    }
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
    let sim = FaultSim::new(nl)?;
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
        if detected[k] {
            continue;
        }
        sat_queries += 1;
        match atpg.generate_test(f, &Budget::unlimited())? {
            FaultTestOutcome::Test(pattern) => {
                sim.grade(std::slice::from_ref(&pattern), &faults, &mut detected);
                patterns.push(pattern);
            }
            FaultTestOutcome::Untestable => untestable.push(f),
            // an aborted fault stays undetected; unlimited, none aborts
            FaultTestOutcome::Aborted(_) => {}
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
    seceda_trace::counter("dft.untestable_faults", untestable.len() as u64);
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

    /// The fresh-solver reference for incremental ATPG: one new
    /// [`AtpgSolver`] per fault, unlimited.
    fn generate_test_for(nl: &Netlist, fault: Fault) -> Result<FaultTestOutcome, NetlistError> {
        AtpgSolver::new(nl)?.generate_test(fault, &Budget::unlimited())
    }

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
        // y = a | (a & b): the AND is redundant and `b` never reaches
        // `y`, so the AND's stuck-at-0 and `b` stuck-at-0/1 are
        // untestable — proven, never aborted, by an unbudgeted run
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let ab = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::Or, &[a, ab]);
        nl.mark_output(y, "y");
        let (result, events) = seceda_trace::session(|| generate_tests(&nl, 8, 10));
        let result = result.expect("atpg");
        let sa0 = Fault::stuck_at(ab, false);
        assert!(
            result.untestable.contains(&sa0),
            "redundant AND stuck-at-0 must be untestable: {:?}",
            result.untestable
        );
        assert_eq!(result.untestable.len(), 3);
        let counters = seceda_trace::Summary::of(&events).counters;
        assert_eq!(counters.get("dft.untestable_faults"), Some(&3));
        assert_eq!(counters.get("dft.aborted_faults"), None);
    }

    #[test]
    fn sat_patterns_actually_detect_their_faults() {
        let nl = c17();
        let faults = stuck_at_universe(&nl);
        let sim = FaultSim::new(&nl).expect("sim");
        let mut atpg = AtpgSolver::new(&nl).expect("encode");
        for &f in &faults {
            if let FaultTestOutcome::Test(pattern) =
                atpg.generate_test(f, &Budget::unlimited()).expect("query")
            {
                let (detected, _) = sim.coverage(&[pattern], &[f]);
                assert_eq!(detected, [true], "SAT pattern must detect {f:?}");
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
            let shared = atpg.generate_test(f, &Budget::unlimited()).expect("query");
            let fresh = generate_test_for(&nl, f).expect("query");
            assert_eq!(
                matches!(shared, FaultTestOutcome::Test(_)),
                matches!(fresh, FaultTestOutcome::Test(_)),
                "testability verdicts diverge on {f:?}"
            );
        }
    }

    #[test]
    fn zero_budget_aborts_fault_and_solver_stays_usable() {
        let nl = c17();
        let faults = stuck_at_universe(&nl);
        let mut atpg = AtpgSolver::new(&nl).expect("encode");
        // starve the first query: a zero-conflict budget stops at solve
        // entry, before any decision can be made
        let starved = Budget::unlimited().with_max_conflicts(0);
        let aborted = atpg.generate_test(faults[0], &starved).expect("query");
        assert_eq!(
            aborted,
            FaultTestOutcome::Aborted(StopReason::Conflicts),
            "a zero-conflict budget must abort"
        );
        // the aborted fault's cone was retired; every later unbudgeted
        // query must still agree with a fresh one-shot solver
        for &f in &faults {
            let shared = atpg.generate_test(f, &Budget::unlimited()).expect("query");
            let fresh = generate_test_for(&nl, f).expect("query");
            assert_eq!(
                matches!(shared, FaultTestOutcome::Test(_)),
                matches!(fresh, FaultTestOutcome::Test(_)),
                "verdicts diverge after abort on {f:?}"
            );
        }
        // and re-querying the starved fault with no budget decides it
        assert!(matches!(
            atpg.generate_test(faults[0], &Budget::unlimited())
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
