//! Execution budgets and ternary solve outcomes.
//!
//! NP-hard queries (SAT attacks, ATPG on redundant logic, formal
//! detection proofs) can run unbounded; a closure loop that re-evaluates
//! every threat after every edit cannot afford that. A [`Budget`] caps a
//! solve by conflicts and/or propagations; a budgeted solve returns
//! [`SolveOutcome`], whose third state — [`SolveOutcome::Indeterminate`]
//! — carries *why* the search gave up ([`StopReason`]) instead of
//! wedging the caller.
//!
//! Both limits are **per call**: they cap the *delta* each solve may
//! spend on top of whatever the solver already consumed. A multi-solve
//! computation (the DIP loop) threads one budget through its solves
//! with [`Budget::minus`].
//!
//! Determinism: budgets count work, never time. Budget checks happen at
//! deterministic points of a deterministic search, so every budgeted
//! outcome is a pure function of the formula and the budget,
//! reproducible on any host and at any worker count.

/// Limits on how much work a solve may spend before returning
/// [`SolveOutcome::Indeterminate`]. The default is unlimited; builder
/// methods add limits independently.
///
/// ```
/// use seceda_sat::Budget;
///
/// let budget = Budget::unlimited()
///     .with_max_conflicts(10_000)
///     .with_max_propagations(1_000_000);
/// assert!(budget.is_limited());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_conflicts: Option<u64>,
    max_propagations: Option<u64>,
}

impl Budget {
    /// No limits: a solve under this budget always returns a determined
    /// answer (and pays no budget-checking overhead).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps the conflicts a single solve may spend (per solver).
    pub fn with_max_conflicts(mut self, n: u64) -> Budget {
        self.max_conflicts = Some(n);
        self
    }

    /// Caps the literals a single solve may propagate (per solver).
    /// Checked on the existing every-1024-propagations poll, so the
    /// effective stop point is the first poll at or past the limit.
    pub fn with_max_propagations(mut self, n: u64) -> Budget {
        self.max_propagations = Some(n);
        self
    }

    /// Whether any limit is set. Unlimited budgets skip budget checks
    /// entirely (and are immune to chaos-injected exhaustion, so an
    /// unlimited solve always returns a determined answer).
    pub fn is_limited(&self) -> bool {
        self.max_conflicts.is_some() || self.max_propagations.is_some()
    }

    /// The conflict cap, if any.
    pub fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The propagation cap, if any.
    pub fn max_propagations(&self) -> Option<u64> {
        self.max_propagations
    }

    /// The budget left after spending `conflicts` / `propagations` of
    /// this one: each limit shrinks, saturating at zero (the next solve
    /// then stops before any search), and unlimited axes stay
    /// unlimited. Multi-solve computations (the DIP loop) use this to thread one
    /// budget through every constituent solve.
    pub fn minus(&self, conflicts: u64, propagations: u64) -> Budget {
        Budget {
            max_conflicts: self.max_conflicts.map(|n| n.saturating_sub(conflicts)),
            max_propagations: self
                .max_propagations
                .map(|n| n.saturating_sub(propagations)),
        }
    }
}

/// Why a budgeted solve stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The per-call conflict limit was reached.
    Conflicts,
    /// The per-call propagation limit was reached.
    Propagations,
    /// The `testkit::chaos` harness injected budget exhaustion.
    ChaosInjected,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Conflicts => "conflict budget exhausted",
            StopReason::Propagations => "propagation budget exhausted",
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
        assert!(!Budget::unlimited().is_limited());
        assert!(Budget::unlimited().with_max_conflicts(5).is_limited());
        assert!(Budget::unlimited().with_max_propagations(5).is_limited());
    }

    #[test]
    fn minus_saturates_each_axis() {
        let b = Budget::unlimited()
            .with_max_conflicts(100)
            .with_max_propagations(1000);
        let rest = b.minus(30, 2000);
        assert_eq!(rest.max_conflicts(), Some(70));
        assert_eq!(rest.max_propagations(), Some(0));
        // unlimited axes stay unlimited
        let u = Budget::unlimited().minus(1_000_000, 1_000_000);
        assert!(!u.is_limited());
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
