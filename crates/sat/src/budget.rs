//! Execution budgets and ternary solve outcomes.
//!
//! NP-hard queries (SAT attacks, ATPG on redundant logic, formal
//! detection proofs) can run unbounded; a closure loop that re-evaluates
//! every threat after every edit cannot afford that. A [`Budget`] caps a
//! computation by the conflicts its solves may spend; a budgeted solve
//! returns [`SolveOutcome`], whose third state —
//! [`SolveOutcome::Indeterminate`] — carries *why* the search gave up
//! ([`StopReason`]) instead of wedging the caller.
//!
//! One metering rule: a budget caps the conflicts that **one call**
//! spends, however many solves that call makes. [`Solver::solve`] caps
//! its own search; a multi-solve computation (the SAT attack's DIP loop,
//! a detection proof over a fault universe) hands each constituent solve
//! what the earlier ones left, via [`Budget::minus`]. A call whose budget
//! is spent stops its next solve before any search.
//!
//! Determinism: budgets count work, never time. Budget checks happen at
//! deterministic points of a deterministic search (solve entry and each
//! conflict), so every budgeted outcome is a pure function of the
//! formula and the budget, reproducible on any host and at any worker
//! count.
//!
//! [`Solver::solve`]: crate::Solver::solve

/// The conflicts a computation may spend before returning
/// [`SolveOutcome::Indeterminate`]. The default is unlimited.
///
/// ```
/// use seceda_sat::Budget;
///
/// let budget = Budget::unlimited().with_max_conflicts(10_000);
/// assert_eq!(budget.minus(4_000).max_conflicts(), Some(6_000));
/// assert_eq!(Budget::unlimited().max_conflicts(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_conflicts: Option<u64>,
}

impl Budget {
    /// No limit: a solve under this budget skips every budget check and
    /// is immune to chaos-injected exhaustion, so it always returns a
    /// determined answer.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps the conflicts one call may spend.
    pub fn with_max_conflicts(mut self, n: u64) -> Budget {
        self.max_conflicts = Some(n);
        self
    }

    /// The conflict cap, if any (`None` when unlimited).
    pub fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The budget left after spending `conflicts` of this one: the cap
    /// shrinks, saturating at zero (the next solve then stops before
    /// any search), and an unlimited budget stays unlimited.
    pub fn minus(&self, conflicts: u64) -> Budget {
        Budget {
            max_conflicts: self.max_conflicts.map(|n| n.saturating_sub(conflicts)),
        }
    }
}

/// Why a budgeted solve stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The conflict budget was spent.
    Conflicts,
    /// The `testkit::chaos` harness injected budget exhaustion.
    ChaosInjected,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Conflicts => "conflict budget exhausted",
            StopReason::ChaosInjected => "chaos-injected budget exhaustion",
        })
    }
}

/// The ternary result of every solve: a determined answer, or a
/// principled refusal with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment, indexed by variable.
    Sat(Vec<bool>),
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The budget ran out first; the solver remains usable and keeps
    /// everything it learned.
    Indeterminate(StopReason),
}

impl SolveOutcome {
    /// `true` if a satisfying assignment was found.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }

    /// `true` for `Sat` or `Unsat` — the budget did not run out.
    pub fn is_determined(&self) -> bool {
        !matches!(self, SolveOutcome::Indeterminate(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveOutcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_not_limited() {
        assert_eq!(Budget::unlimited().max_conflicts(), None);
        assert_eq!(
            Budget::unlimited().with_max_conflicts(5).max_conflicts(),
            Some(5)
        );
        assert_eq!(
            Budget::unlimited().with_max_conflicts(0).max_conflicts(),
            Some(0)
        );
    }

    #[test]
    fn minus_saturates_at_zero() {
        let b = Budget::unlimited().with_max_conflicts(100);
        assert_eq!(b.minus(30).max_conflicts(), Some(70));
        assert_eq!(b.minus(200).max_conflicts(), Some(0));
        // an unlimited budget stays unlimited
        assert_eq!(Budget::unlimited().minus(1_000_000).max_conflicts(), None);
    }

    #[test]
    fn outcome_conversions() {
        let sat = SolveOutcome::Sat(vec![true, false]);
        assert!(sat.is_sat() && sat.is_determined());
        assert_eq!(sat.model(), Some(&[true, false][..]));
        let ind = SolveOutcome::Indeterminate(StopReason::Conflicts);
        assert!(!ind.is_determined());
        assert_eq!(ind.model(), None);
    }
}
