//! Budget property suite: budgeted solving must be *monotone* (a larger
//! budget never flips a determined answer, and never un-determines a
//! query a smaller budget could finish), *deterministic* (conflict-limited
//! outcomes are pure functions of the formula), and *prompt* (an
//! already-spent budget stops before any search).

use seceda_sat::{Budget, Cnf, Lit, SolveOutcome, Solver, StopReason};
use seceda_testkit::prelude::*;

/// The pigeonhole principle PHP(pigeons, holes): satisfiable iff
/// `pigeons <= holes`, and famously resolution-hard when `pigeons =
/// holes + 1` — the standard way to make a small formula burn an
/// honest number of conflicts.
fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
    let mut cnf = Cnf::new();
    let vars = cnf.new_vars(pigeons * holes);
    let p = |i: usize, j: usize| vars[i * holes + j];
    for i in 0..pigeons {
        cnf.add_clause((0..holes).map(|j| p(i, j).pos()));
    }
    for j in 0..holes {
        for a in 0..pigeons {
            for b in a + 1..pigeons {
                cnf.add_clause([p(a, j).neg(), p(b, j).neg()]);
            }
        }
    }
    cnf
}

fn random_cnf(num_vars: usize, clause_spec: &[Vec<(usize, bool)>]) -> Cnf {
    let mut cnf = Cnf::new();
    let vars = cnf.new_vars(num_vars);
    for clause in clause_spec {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, sign)| vars[v % num_vars].lit(sign))
            .collect();
        cnf.add_clause(lits);
    }
    cnf
}

/// Asserts the monotonicity contract over a growing budget ladder:
/// once some budget determines the query, every larger budget
/// determines it with the same answer (each solve on a fresh solver, so
/// the trajectories are directly comparable).
fn assert_budget_monotone(cnf: &Cnf, budgets: &[u64], make: impl Fn(u64) -> Budget) {
    let reference = Solver::from_cnf(cnf)
        .solve(&[], &Budget::unlimited())
        .is_sat();
    let mut first_determined: Option<(u64, bool)> = None;
    for &b in budgets {
        let outcome = Solver::from_cnf(cnf).solve(&[], &make(b));
        match outcome {
            SolveOutcome::Sat(_) | SolveOutcome::Unsat => {
                assert_eq!(
                    outcome.is_sat(),
                    reference,
                    "budget {b} flipped the determined answer"
                );
                if first_determined.is_none() {
                    first_determined = Some((b, outcome.is_sat()));
                }
            }
            SolveOutcome::Indeterminate(reason) => {
                assert!(
                    first_determined.is_none(),
                    "budget {b} ({reason}) un-determined a query budget \
                     {:?} could finish",
                    first_determined
                );
            }
        }
    }
    assert!(
        first_determined.is_some(),
        "the largest budget must determine the query"
    );
}

#[test]
fn conflict_budget_is_monotone_on_hard_formulas() {
    // unsat and resolution-hard: small budgets genuinely truncate
    let budgets: Vec<u64> = (0..18).map(|i| 1u64 << i).collect();
    assert_budget_monotone(&pigeonhole(6, 5), &budgets, |b| {
        Budget::unlimited().with_max_conflicts(b)
    });
    // satisfiable sibling
    assert_budget_monotone(&pigeonhole(5, 5), &budgets, |b| {
        Budget::unlimited().with_max_conflicts(b)
    });
}

#[test]
fn small_conflict_budget_truncates_the_pigeonhole_proof() {
    // sanity that the ladder above actually exercises both regimes:
    // 50 conflicts cannot refute PHP(6,5), a million can
    let starved =
        Solver::from_cnf(&pigeonhole(6, 5)).solve(&[], &Budget::unlimited().with_max_conflicts(50));
    assert_eq!(starved, SolveOutcome::Indeterminate(StopReason::Conflicts));
    let ample = Solver::from_cnf(&pigeonhole(6, 5))
        .solve(&[], &Budget::unlimited().with_max_conflicts(1 << 20));
    assert_eq!(ample, SolveOutcome::Unsat);
}

#[test]
fn zero_budgets_stop_before_any_search() {
    // an already-spent budget (a `Budget::minus` remainder) must refuse
    // deterministically even on formulas that need no conflict at all
    let cnf = pigeonhole(3, 3);
    let mut solver = Solver::from_cnf(&cnf);
    for _ in 0..2 {
        assert_eq!(
            solver.solve(&[], &Budget::unlimited().with_max_conflicts(0)),
            SolveOutcome::Indeterminate(StopReason::Conflicts)
        );
    }
    assert_eq!(
        solver.solve(&[], &Budget::unlimited().with_max_conflicts(5).minus(9)),
        SolveOutcome::Indeterminate(StopReason::Conflicts)
    );
    assert_eq!(solver.num_decisions, 0, "a refusal makes no decision");
    // the refusals spent nothing and the solver answers normally after
    assert!(solver.solve(&[], &Budget::unlimited()).is_sat());
}

#[test]
fn suspended_solver_keeps_learning_and_finishes_under_slices() {
    // one solver, repeated 100-conflict slices: clauses learned in a
    // suspended slice carry over, so the slices converge on the same
    // answer one unbudgeted call produces (PHP(7,6) needs several
    // hundred conflicts from scratch)
    let cnf = pigeonhole(7, 6);
    let slice = Budget::unlimited().with_max_conflicts(100);
    let mut solver = Solver::from_cnf(&cnf);
    let mut suspensions = 0usize;
    let final_outcome = loop {
        match solver.solve(&[], &slice) {
            SolveOutcome::Indeterminate(StopReason::Conflicts) => {
                suspensions += 1;
                assert!(suspensions < 10_000, "slices must converge");
            }
            other => break other,
        }
    };
    assert_eq!(final_outcome, SolveOutcome::Unsat);
    assert!(
        suspensions > 0,
        "PHP(7,6) must not fit one 100-conflict slice"
    );
    assert!(solver.num_conflicts >= 100 * suspensions as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conflict_budget_monotone_on_random_cnf(
        num_vars in 2usize..9,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
            0..30
        ),
    ) {
        let cnf = random_cnf(num_vars, &clauses);
        let reference = Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited()).is_sat();
        let mut determined_at: Option<u64> = None;
        for b in [1u64, 2, 4, 16, 256, 1 << 16] {
            let outcome = Solver::from_cnf(&cnf)
                .solve(&[], &Budget::unlimited().with_max_conflicts(b));
            if outcome.is_determined() {
                prop_assert_eq!(outcome.is_sat(), reference, "budget {}", b);
                determined_at.get_or_insert(b);
            } else {
                prop_assert!(determined_at.is_none(), "budget {} regressed", b);
            }
        }
        prop_assert!(determined_at.is_some());
    }
}
