//! Multi-session security closure: the secure-composition loop at
//! campaign scale.
//!
//! The paper's flow (Sec. IV) re-evaluates *every* threat after *every*
//! countermeasure. Run naively over a portfolio of candidate schedules
//! — the way closure is actually driven, many variants of the same
//! design racing to an all-pass report — that is quadratic amounts of
//! repeated work: most steps touch a small cone of the design, and most
//! schedules share long prefixes.
//!
//! This driver makes the loop affordable without changing a single
//! reported bit. Each session is a [`CompositionEngine`] whose
//! evaluations go through one shared [`EvalCache`]; each cache key binds
//! the whole-design digest and exactly the other state its evaluator
//! reads, so sessions that share state share work, and a step that
//! regresses a metric can be rolled back and re-verified for the price
//! of a lookup.
//!
//! Sessions run concurrently over `seceda_testkit::par`; the per-key
//! lock inside [`EvalCache`] guarantees each distinct evaluation is
//! computed exactly once even when many sessions reach the same state
//! simultaneously.
//!
//! A countermeasure pass that panics is rolled back like a regressing
//! step, recorded with the panic's message.

use crate::cache::{CacheStats, EvalCache};
use crate::compose::{CompositionEngine, Countermeasure, DesignUnderTest, SecurityEvaluation};
use crate::metrics::SecurityReport;
use seceda_netlist::NetlistError;
use seceda_testkit::par::{panic_message, par_map};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One closure session: a design plus the countermeasure schedule to
/// drive it through.
#[derive(Debug, Clone)]
pub struct ClosureSession {
    /// Session label, carried onto the outcome.
    pub label: String,
    /// The starting design state.
    pub design: DesignUnderTest,
    /// Countermeasures to apply, in order.
    pub schedule: Vec<Countermeasure>,
}

impl ClosureSession {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        design: DesignUnderTest,
        schedule: Vec<Countermeasure>,
    ) -> Self {
        ClosureSession {
            label: label.into(),
            design,
            schedule,
        }
    }
}

/// Driver knobs shared by every session of a closure run.
#[derive(Debug, Clone, Copy)]
pub struct ClosureConfig {
    /// Evaluation thresholds and effort.
    pub eval: SecurityEvaluation,
    /// Roll back any step whose re-evaluation regressed a passing
    /// metric — the paper's negative cross-effect — and re-verify the
    /// restored state before continuing the schedule.
    pub rollback_regressions: bool,
}

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig {
            eval: SecurityEvaluation::default(),
            rollback_regressions: true,
        }
    }
}

/// What one session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's label.
    pub label: String,
    /// Countermeasures that survived (applied and not rolled back).
    pub applied: Vec<Countermeasure>,
    /// Steps that were rolled back, with the names of the metrics they
    /// regressed, or with the message of the panic that aborted the
    /// countermeasure pass.
    pub rolled_back: Vec<(Countermeasure, Vec<String>)>,
    /// The final verification report.
    pub final_report: SecurityReport,
    /// Total evaluations the session ran (baseline + per-step +
    /// rollback re-verifies + final verify).
    pub evaluations: usize,
}

impl SessionOutcome {
    /// Whether the session reached closure: every metric of the final
    /// report passes (degraded metrics do not count as failures, same
    /// as [`SecurityReport::all_pass`]).
    pub fn closed(&self) -> bool {
        self.final_report.all_pass()
    }
}

/// The aggregate of a closure run.
#[derive(Debug, Clone)]
pub struct ClosureReport {
    /// Per-session outcomes, in input order.
    pub sessions: Vec<SessionOutcome>,
    /// Cache statistics at the end of the run; all-zero for uncached
    /// (full-recompute) runs.
    pub cache: CacheStats,
}

/// Runs every session concurrently over one shared, freshly created
/// evaluation cache.
///
/// # Errors
///
/// Propagates the first simulator error any session hits.
pub fn run_closure(
    sessions: Vec<ClosureSession>,
    config: &ClosureConfig,
) -> Result<ClosureReport, NetlistError> {
    run_sessions(sessions, config, Some(Arc::new(EvalCache::new())))
}

/// Runs every session with full recomputation (no cache) — the
/// reference the differential suite and perfbench's `closure_campaign`
/// workload compare cached runs against.
///
/// # Errors
///
/// Propagates the first simulator error any session hits.
pub fn run_closure_full(
    sessions: Vec<ClosureSession>,
    config: &ClosureConfig,
) -> Result<ClosureReport, NetlistError> {
    run_sessions(sessions, config, None)
}

/// Runs every session, sharing `cache` if one is given.
fn run_sessions(
    sessions: Vec<ClosureSession>,
    config: &ClosureConfig,
    cache: Option<Arc<EvalCache>>,
) -> Result<ClosureReport, NetlistError> {
    let mut run_span = seceda_trace::span("closure.run")
        .with("sessions", sessions.len())
        .with("cached", cache.is_some());
    seceda_trace::counter("closure.sessions", sessions.len() as u64);
    let results = par_map(&sessions, |_, session| {
        run_session(session, config, cache.clone())
    });
    let mut outcomes = Vec::with_capacity(results.len());
    for res in results {
        outcomes.push(res?);
    }
    let stats = cache.as_deref().map(EvalCache::stats).unwrap_or_default();
    run_span.attr("closed", outcomes.iter().filter(|s| s.closed()).count());
    run_span.attr("cache_hits", stats.hits);
    Ok(ClosureReport {
        sessions: outcomes,
        cache: stats,
    })
}

fn run_session(
    session: &ClosureSession,
    config: &ClosureConfig,
    cache: Option<Arc<EvalCache>>,
) -> Result<SessionOutcome, NetlistError> {
    let mut sp =
        seceda_trace::span("closure.session").with("gates", session.design.netlist.num_gates());
    if seceda_trace::enabled() {
        sp.attr("label", session.label.clone());
    }
    let mut engine = match cache {
        Some(c) => CompositionEngine::with_cache(session.design.clone(), config.eval, c),
        None => CompositionEngine::new(session.design.clone(), config.eval),
    };
    engine.evaluate("baseline")?;
    let mut rolled_back = Vec::new();
    for &cm in &session.schedule {
        let snapshot = engine.design().clone();
        let reasons = match catch_unwind(AssertUnwindSafe(|| engine.apply(cm))) {
            Ok(outcome) => {
                let regressions = outcome?.regressions;
                if !config.rollback_regressions || regressions.is_empty() {
                    continue;
                }
                engine.revert_last(snapshot);
                regressions
            }
            Err(payload) => {
                // the pass panicked before `apply` logged `cm`
                engine.restore(snapshot);
                let message = panic_message(payload.as_ref());
                vec![format!("countermeasure panicked: {message}")]
            }
        };
        // re-verify the restored state; with a shared cache this is
        // served from the pre-apply keys
        engine.evaluate("after rollback")?;
        rolled_back.push((cm, reasons));
    }
    let final_report = engine.evaluate("closure verify")?.clone();
    sp.attr("evaluations", engine.history().len());
    sp.attr("rolled_back", rolled_back.len());
    Ok(SessionOutcome {
        label: session.label.clone(),
        applied: engine.applied().to_vec(),
        rolled_back,
        final_report,
        evaluations: engine.history().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{CellKind, Netlist};

    fn and_gadget() -> DesignUnderTest {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        DesignUnderTest::new(nl)
    }

    #[test]
    fn identical_sessions_share_the_cache() {
        let schedule = vec![Countermeasure::XorLock(8), Countermeasure::TrojanMonitor];
        let sessions: Vec<ClosureSession> = (0..3)
            .map(|i| ClosureSession::new(format!("s{i}"), and_gadget(), schedule.clone()))
            .collect();
        let config = ClosureConfig::default();
        let report = run_closure(sessions, &config).expect("closure");
        assert_eq!(report.sessions.len(), 3);
        // three identical sessions: everything after the first
        // computation of each state is a hit
        assert!(
            report.cache.hits > report.cache.misses,
            "stats: {:?}",
            report.cache
        );
        let first = &report.sessions[0].final_report;
        for s in &report.sessions[1..] {
            assert_eq!(s.final_report.metrics, first.metrics);
        }
    }

    #[test]
    fn cached_and_full_closure_agree() {
        let schedule = vec![
            Countermeasure::XorLock(8),
            Countermeasure::ParityCheck,
            Countermeasure::TrojanMonitor,
        ];
        let mk = || vec![ClosureSession::new("s", and_gadget(), schedule.clone())];
        let config = ClosureConfig::default();
        let cached = run_closure(mk(), &config).expect("cached");
        let full = run_closure_full(mk(), &config).expect("full");
        assert_eq!(full.cache.hits, 0, "uncached runs report zero stats");
        for (c, f) in cached.sessions.iter().zip(&full.sessions) {
            assert_eq!(c.final_report.metrics, f.final_report.metrics);
            assert_eq!(c.applied, f.applied);
            assert_eq!(c.rolled_back, f.rolled_back);
        }
    }

    #[test]
    fn regressing_step_is_rolled_back() {
        // the paper's [61] cross-effect: parity prediction on a masked
        // design recombines the shares — the driver must refuse it
        let schedule = vec![
            Countermeasure::Masking,
            Countermeasure::ParityCheck,
            Countermeasure::DuplicationCompare,
        ];
        let sessions = vec![ClosureSession::new("masked", and_gadget(), schedule)];
        let config = ClosureConfig::default();
        let report = run_closure(sessions, &config).expect("closure");
        let s = &report.sessions[0];
        assert_eq!(
            s.applied,
            vec![Countermeasure::Masking, Countermeasure::DuplicationCompare],
            "the regressing parity step must not survive"
        );
        assert_eq!(s.rolled_back.len(), 1);
        assert_eq!(s.rolled_back[0].0, Countermeasure::ParityCheck);
        assert!(s.rolled_back[0]
            .1
            .contains(&"first-order probing leaks".to_string()));
        // masking + share-wise duplication: the final state passes both
        // the side-channel and fault metrics (piracy still fails — no
        // locking in this schedule)
        for name in ["first-order probing leaks", "fault-detection coverage"] {
            let m = s
                .final_report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("metric present");
            assert_eq!(
                m.verdict,
                crate::metrics::Verdict::Pass,
                "{name}: {:?}",
                s.final_report
            );
        }
    }

    #[test]
    fn a_panicking_countermeasure_is_rolled_back() {
        use seceda_testkit::chaos;
        use Countermeasure::{DuplicationCompare, Masking, ParityCheck, TrojanMonitor, XorLock};
        // AND(a, b) into XOR(·, c): under both seeds a par worker of
        // TrojanMonitor's rare-signal selection panics
        let mut nl = Netlist::new("and_xor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::Xor, &[ab, c]);
        nl.mark_output(y, "y");
        let schedule = vec![
            Masking,
            ParityCheck,
            DuplicationCompare,
            XorLock(8),
            TrojanMonitor,
        ];
        let mk = || {
            let dut = DesignUnderTest::new(nl.clone());
            vec![ClosureSession::new("chaotic", dut, schedule.clone())]
        };
        let config = ClosureConfig::default();
        for seed in [7, 0xDEAD_BEEF] {
            chaos::with_seed(seed, || {
                let cached = run_closure(mk(), &config).expect("cached closure completes");
                let full = run_closure_full(mk(), &config).expect("full closure completes");
                let (c, f) = (&cached.sessions[0], &full.sessions[0]);
                assert_eq!(c.final_report.metrics, f.final_report.metrics, "{seed:#x}");
                assert_eq!(c.applied, f.applied, "{seed:#x}");
                assert_eq!(c.rolled_back, f.rolled_back, "{seed:#x}");
                assert!(!c.applied.contains(&TrojanMonitor), "{seed:#x}");
                let (cm, reasons) = c.rolled_back.last().expect("the monitor rolled back");
                assert_eq!(*cm, TrojanMonitor, "{seed:#x}");
                assert!(
                    reasons[0].starts_with("countermeasure panicked: chaos:"),
                    "{seed:#x}: {reasons:?}"
                );
            });
        }
    }

    #[test]
    fn rollback_disabled_keeps_the_regressing_step() {
        let schedule = vec![Countermeasure::Masking, Countermeasure::ParityCheck];
        let sessions = vec![ClosureSession::new("naive", and_gadget(), schedule.clone())];
        let config = ClosureConfig {
            rollback_regressions: false,
            ..ClosureConfig::default()
        };
        let report = run_closure(sessions, &config).expect("closure");
        let s = &report.sessions[0];
        assert_eq!(s.applied, schedule);
        assert!(s.rolled_back.is_empty());
        assert!(!s.closed(), "the naive flow ships the broken masking");
    }
}
