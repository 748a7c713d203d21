//! The secure-composition engine (the paper's Sec. IV, executable).
//!
//! The engine owns a design under test, applies countermeasures, and —
//! after every single application — re-runs the evaluations for *all*
//! threat vectors, comparing against the previous report. A metric that
//! flips from pass to fail is a *negative cross-effect*: the freshly
//! inserted countermeasure silently compromised an earlier one.
//!
//! The canonical run (see the tests and the `secure_composition`
//! example) reproduces \[61\]: Boolean masking passes the side-channel
//! evaluation; adding parity-based fault detection restores fault
//! coverage but *fails* the re-run side-channel check, because the
//! parity predictor recombines the shares. Duplication-with-compare,
//! which compares share-wise, composes cleanly.

use crate::cache::{CacheKey, EvalCache};
use crate::metrics::{MetricProvenance, MetricSource, MetricValue, SecurityMetric, SecurityReport};
use crate::threat::ThreatVector;
use seceda_fia::{
    analyze_faults, duplicate_with_compare, parity_protect, FaultCampaign, InjectionModel,
};
use seceda_lock::xor_lock;
use seceda_netlist::{DesignDigest, DigestBuilder, Netlist, NetlistError};
use seceda_sca::{first_order_leaks, mask_netlist, ProbingModel};
use seceda_testkit::chaos;
use seceda_testkit::par::par_map_catch;
use seceda_trojan::{instrument, rare_signals, RareSignal};
use std::sync::Arc;

/// A design plus the interface semantics the evaluations need.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignUnderTest {
    /// The current netlist.
    pub netlist: Netlist,
    /// Masked-interface description, if the design is masked (set by the
    /// masking countermeasure).
    pub probing_model: Option<ProbingModel>,
    /// Index of an alarm output, if a detection scheme is present.
    pub alarm_index: Option<usize>,
    /// Number of locking key bits present.
    pub key_bits: usize,
    /// Whether runtime Trojan monitors are present.
    pub monitored: bool,
}

impl DesignUnderTest {
    /// Wraps a plain netlist with no countermeasures applied.
    pub fn new(netlist: Netlist) -> Self {
        DesignUnderTest {
            netlist,
            probing_model: None,
            alarm_index: None,
            key_bits: 0,
            monitored: false,
        }
    }
}

/// The countermeasures the engine can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Countermeasure {
    /// 3-share ISW Boolean masking (`seceda-sca`).
    Masking,
    /// Parity-code fault detection (`seceda-fia`) — cheap, but does not
    /// compose with masking.
    ParityCheck,
    /// Duplication with comparison (`seceda-fia`) — share-wise, composes
    /// with masking.
    DuplicationCompare,
    /// EPIC-style XOR locking with the given key width (`seceda-lock`).
    XorLock(usize),
    /// Rare-event Trojan monitors (`seceda-trojan`).
    TrojanMonitor,
}

/// Thresholds and effort knobs of the evaluation suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityEvaluation {
    /// Max tolerated first-order probing leaks (0 = provably none).
    pub max_probing_leaks: usize,
    /// Min fault-detection coverage.
    pub min_fault_coverage: f64,
    /// Fault campaign shots.
    pub fia_shots: usize,
    /// Min locking key bits for piracy protection.
    pub min_key_bits: usize,
    /// Max unmonitored rare nets (Trojan insertion surface).
    pub max_unmonitored_rare_nets: usize,
    /// Rarity threshold for the Trojan surface metric.
    pub rare_threshold: f64,
    /// Seed for the stochastic evaluations.
    pub seed: u64,
}

impl Default for SecurityEvaluation {
    fn default() -> Self {
        SecurityEvaluation {
            max_probing_leaks: 0,
            min_fault_coverage: 0.99,
            fia_shots: 100,
            min_key_bits: 8,
            max_unmonitored_rare_nets: 0,
            rare_threshold: 0.05,
            seed: 0xC0DE,
        }
    }
}

/// What one engine step produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationOutcome {
    /// The full multi-threat report after the step.
    pub report: SecurityReport,
    /// Names of metrics that regressed pass → fail in this step — the
    /// cross-effects the paper warns about.
    pub regressions: Vec<String>,
}

/// The composition engine.
#[derive(Debug, Clone)]
pub struct CompositionEngine {
    dut: DesignUnderTest,
    eval: SecurityEvaluation,
    history: Vec<SecurityReport>,
    applied: Vec<Countermeasure>,
    cache: Option<Arc<EvalCache>>,
    /// [`state_key`] of the current state, computed on the first cached
    /// evaluation after each edit.
    key: Option<DesignDigest>,
}

impl CompositionEngine {
    /// Creates an engine over a design.
    pub fn new(dut: DesignUnderTest, eval: SecurityEvaluation) -> Self {
        CompositionEngine {
            dut,
            eval,
            history: Vec::new(),
            applied: Vec::new(),
            cache: None,
            key: None,
        }
    }

    /// Creates an engine whose threat evaluations are served through a
    /// shared [`EvalCache`].
    ///
    /// Every cached evaluation is keyed on the whole state: the design
    /// digest, every [`DesignUnderTest`] interface field and every
    /// [`SecurityEvaluation`] field. The evaluators read nothing else,
    /// so a cache hit is bit-identical to a recompute — the
    /// differential suite in `tests/incremental_compose.rs` holds the
    /// engine to that contract.
    pub fn with_cache(
        dut: DesignUnderTest,
        eval: SecurityEvaluation,
        cache: Arc<EvalCache>,
    ) -> Self {
        CompositionEngine {
            cache: Some(cache),
            ..CompositionEngine::new(dut, eval)
        }
    }

    /// The shared evaluation cache, if caching is enabled.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// The current design state.
    pub fn design(&self) -> &DesignUnderTest {
        &self.dut
    }

    /// Countermeasures applied so far, in order.
    pub fn applied(&self) -> &[Countermeasure] {
        &self.applied
    }

    /// All reports, in chronological order.
    pub fn history(&self) -> &[SecurityReport] {
        &self.history
    }

    /// Evaluates every threat vector on the current design and appends
    /// the report to the history.
    ///
    /// The four threat evaluators run isolated from each other: each is
    /// caught on panic, so one crashing evaluator degrades *its* metric
    /// to [`crate::Verdict::Unavailable`] while the rest of the
    /// re-evaluation completes normally. Degradations are counted on the
    /// `compose.threats_degraded` trace counter.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn evaluate(&mut self, label: &str) -> Result<&SecurityReport, NetlistError> {
        let _reeval_t = seceda_trace::hist_timer("compose.reeval_ns");
        let mut eval_span = seceda_trace::span("compose.evaluate")
            .with("label", label)
            .with("gates", self.dut.netlist.num_gates());
        if self.cache.is_some() && self.key.is_none() {
            self.key = Some(state_key(&self.dut, &self.eval));
        }
        let dut = &self.dut;
        let eval = &self.eval;
        let cache = self.cache.as_deref();
        let key = self.key;
        let results = par_map_catch(&ThreatVector::ALL, |i, &threat| {
            let (tag, name) = threat_metric(threat);
            let _threat_t = seceda_trace::hist_timer("compose.threat_ns");
            let _sp = seceda_trace::span("compose.threat").with("threat", tag);
            // chaos runs *before* the cache lookup so a cached closure
            // degrades on exactly the same steps as a full recompute —
            // and degraded metrics are never cached
            if chaos::active() {
                chaos::maybe_panic("compose.threat.panic", i as u64);
                if chaos::maybe_exhaust("compose.threat.exhaust", i as u64) {
                    seceda_trace::counter("chaos.injections", 1);
                    let reason = "chaos-injected budget exhaustion";
                    return Ok((SecurityMetric::unavailable(name, threat, reason), false));
                }
            }
            let compute = || -> Result<SecurityMetric, NetlistError> {
                let value = match threat {
                    ThreatVector::SideChannel => eval_side_channel(dut, eval),
                    ThreatVector::FaultInjection => eval_fault_injection(dut, eval)?,
                    ThreatVector::Piracy => eval_piracy(dut, eval),
                    ThreatVector::Trojan => eval_trojan(dut, eval, cache, key)?,
                };
                Ok(SecurityMetric::new(name, threat, value))
            };
            match (cache, key) {
                (Some(c), Some(dep)) => c.get_or_compute(CacheKey { threat, dep }, compute),
                _ => Ok((compute()?, false)),
            }
        });
        let caching = self.cache.is_some();
        let mut report = SecurityReport::new(label);
        for (res, threat) in results.into_iter().zip(ThreatVector::ALL) {
            let (metric, hit) = match res {
                Ok(Ok(computed)) => computed,
                // simulator errors are real errors, not degradations
                Ok(Err(e)) => return Err(e),
                Err(p) => {
                    if p.message.starts_with("chaos:") {
                        seceda_trace::counter("chaos.injections", 1);
                    }
                    let reason = format!("threat evaluator panicked: {}", p.message);
                    let name = threat_metric(threat).1;
                    (SecurityMetric::unavailable(name, threat, reason), false)
                }
            };
            if caching {
                report.provenance.push(MetricProvenance {
                    name: metric.name.clone(),
                    source: if hit {
                        MetricSource::Cached
                    } else {
                        MetricSource::Computed
                    },
                });
            }
            report.metrics.push(metric);
        }
        let degraded = report.degraded().len();
        if degraded > 0 {
            seceda_trace::counter("compose.threats_degraded", degraded as u64);
        }
        if caching {
            let hits = report.cached_count();
            let misses = report.provenance.len() - hits;
            if hits > 0 {
                seceda_trace::counter("compose.cache_hits", hits as u64);
            }
            if misses > 0 {
                seceda_trace::counter("compose.cache_misses", misses as u64);
            }
            eval_span.attr("cache_hits", hits);
        }
        eval_span.attr("degraded", degraded);

        let failing = report
            .metrics
            .iter()
            .filter(|m| m.verdict == crate::metrics::Verdict::Fail)
            .count();
        eval_span.attr("metrics", report.metrics.len());
        eval_span.attr("failing", failing);
        self.history.push(report);
        Ok(self.history.last().expect("just pushed"))
    }

    /// Applies a countermeasure, then re-evaluates **all** threats and
    /// reports any regression — the paper's secure-composition loop.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if the countermeasure cannot apply to the current design
    /// (e.g. masking a sequential netlist).
    pub fn apply(&mut self, cm: Countermeasure) -> Result<EvaluationOutcome, NetlistError> {
        let mut apply_span = seceda_trace::span("compose.apply");
        if seceda_trace::enabled() {
            // Debug-formatting the countermeasure allocates on every
            // apply; this is the closure hot path, so only pay for the
            // attribute when a recorder is actually listening.
            apply_span.attr("countermeasure", format!("{cm:?}"));
        }
        let had_baseline = !self.history.is_empty();
        // the key the last cached evaluation left, if the state has not
        // changed since: the parent's, for the selection memo
        let parent = self.key.take();
        match cm {
            Countermeasure::Masking => {
                let masked = mask_netlist(&self.dut.netlist);
                self.dut.probing_model = Some(ProbingModel::of(&masked));
                self.dut.netlist = masked.netlist;
                self.dut.alarm_index = None; // masking replaced the design
            }
            Countermeasure::ParityCheck => {
                let p = parity_protect(&self.dut.netlist);
                self.dut.netlist = p.netlist;
                self.dut.alarm_index = p.alarm_index;
            }
            Countermeasure::DuplicationCompare => {
                let p = duplicate_with_compare(&self.dut.netlist);
                self.dut.netlist = p.netlist;
                self.dut.alarm_index = p.alarm_index;
            }
            Countermeasure::XorLock(bits) => {
                let locked = xor_lock(&self.dut.netlist, bits, self.eval.seed ^ 3);
                self.dut.netlist = locked.netlist;
                self.dut.key_bits += bits;
                // key inputs change the interface; exact probing no
                // longer applies as-is
                self.dut.probing_model = None;
            }
            Countermeasure::TrojanMonitor => {
                // watch each rare net the Trojan metric counts
                let rare = selection(&self.dut, &self.eval, self.cache.as_deref(), parent)?;
                self.dut.netlist = instrument(&self.dut.netlist, &rare, 1, usize::MAX).netlist;
                self.dut.monitored = true;
            }
        }
        self.applied.push(cm);
        let label = format!("after {cm:?}");
        self.evaluate(&label)?;
        // the baseline is borrowed from history rather than cloned —
        // reports on big closures carry four metrics plus provenance and
        // cloning one per step was pure overhead
        let last = self.history.len() - 1;
        let regressions: Vec<String> = if had_baseline {
            self.history[last]
                .regressions_from(&self.history[last - 1])
                .into_iter()
                .map(|m| m.name.clone())
                .collect()
        } else {
            Vec::new()
        };
        apply_span.attr("regressions", regressions.len());
        seceda_trace::counter("compose.reevaluations", 1);
        Ok(EvaluationOutcome {
            report: self.history[last].clone(),
            regressions,
        })
    }

    /// Restores the design to `snapshot` (taken with
    /// [`design`](Self::design)`.clone()` before the most recent
    /// [`apply`](Self::apply)) and pops the countermeasure log.
    ///
    /// The report history stays append-only — the closure driver
    /// re-evaluates the restored state, and with a shared cache that
    /// re-evaluation hits the pre-apply keys instead of recomputing.
    /// Returns the countermeasure that was rolled back.
    pub fn revert_last(&mut self, snapshot: DesignUnderTest) -> Option<Countermeasure> {
        self.restore(snapshot);
        self.applied.pop()
    }

    /// Restores the design to `snapshot`, keeping the countermeasure
    /// log (an [`apply`](Self::apply) that panicked logged nothing).
    pub(crate) fn restore(&mut self, snapshot: DesignUnderTest) {
        self.dut = snapshot;
        self.key = None; // recomputed on the next cached evaluation
    }
}

/// A design state's one rarity estimate, which the Trojan metric counts
/// and `TrojanMonitor` watches; a cache memoizes it under the state key
/// (`key`, computed here if `None`).
fn selection(
    dut: &DesignUnderTest,
    eval: &SecurityEvaluation,
    cache: Option<&EvalCache>,
    key: Option<DesignDigest>,
) -> Result<Arc<[RareSignal]>, NetlistError> {
    let select =
        || rare_signals(&dut.netlist, 64, eval.rare_threshold, eval.seed ^ 4).map(Arc::from);
    let Some(cache) = cache else {
        return select();
    };
    let key = key.unwrap_or_else(|| state_key(dut, eval));
    let (rare, hit) = cache.rare_signals(key, select)?;
    let counter = if hit {
        "compose.select_hits"
    } else {
        "compose.select_misses"
    };
    seceda_trace::counter(counter, 1);
    Ok(rare)
}

/// The key of every cached evaluation of a design state: a digest of
/// the whole design, every interface field and every evaluation
/// parameter. Each evaluator is a deterministic function of these
/// inputs, so equal keys imply bit-identical results. Both structs are
/// destructured without `..`, so a field added to either fails to
/// compile here until it is absorbed.
fn state_key(dut: &DesignUnderTest, eval: &SecurityEvaluation) -> DesignDigest {
    let DesignUnderTest {
        netlist,
        probing_model,
        alarm_index,
        key_bits,
        monitored,
    } = dut;
    let SecurityEvaluation {
        max_probing_leaks,
        min_fault_coverage,
        fia_shots,
        min_key_bits,
        max_unmonitored_rare_nets,
        rare_threshold,
        seed,
    } = eval;
    let mut b = DigestBuilder::new();
    b.absorb_digest(DesignDigest::of(netlist));
    match probing_model {
        Some(ProbingModel {
            num_secrets,
            num_randoms,
        }) => {
            b.absorb(1);
            b.absorb(*num_secrets as u64);
            b.absorb(*num_randoms as u64);
        }
        None => b.absorb(0),
    }
    b.absorb(alarm_index.map_or(0, |i| i as u64 + 1));
    b.absorb(*key_bits as u64);
    b.absorb(u64::from(*monitored));
    b.absorb(*max_probing_leaks as u64);
    b.absorb(min_fault_coverage.to_bits());
    b.absorb(*fia_shots as u64);
    b.absorb(*min_key_bits as u64);
    b.absorb(*max_unmonitored_rare_nets as u64);
    b.absorb(rare_threshold.to_bits());
    b.absorb(*seed);
    b.finish()
}

/// The trace tag and report metric name of each threat's evaluation.
fn threat_metric(threat: ThreatVector) -> (&'static str, &'static str) {
    match threat {
        ThreatVector::SideChannel => ("side-channel", "first-order probing leaks"),
        ThreatVector::FaultInjection => ("fault-injection", "fault-detection coverage"),
        ThreatVector::Piracy => ("piracy", "locking key bits"),
        ThreatVector::Trojan => ("trojan", "unmonitored rare nets"),
    }
}

/// The design's probing model when exact probing applies: the inputs
/// are still exactly the model's share triples plus its randomness.
fn masked_model(dut: &DesignUnderTest) -> Option<&ProbingModel> {
    dut.probing_model.as_ref().filter(|model| {
        dut.netlist.inputs().len() == model.num_secrets * seceda_sca::NUM_SHARES + model.num_randoms
    })
}

/// Side channels: exact first-order probing when masked; every secret
/// wire counts as a leak otherwise.
fn eval_side_channel(dut: &DesignUnderTest, eval: &SecurityEvaluation) -> MetricValue {
    let leaks = match masked_model(dut) {
        Some(model) => first_order_leaks(&dut.netlist, model).len(),
        // unmasked: every secret wire is a first-order leak
        None => dut.netlist.inputs().len().max(1),
    };
    MetricValue::LowerBetter {
        value: leaks as f64,
        threshold: eval.max_probing_leaks as f64,
    }
}

/// Fault injection: detection coverage on single gate faults.
fn eval_fault_injection(
    dut: &DesignUnderTest,
    eval: &SecurityEvaluation,
) -> Result<MetricValue, NetlistError> {
    let campaign = FaultCampaign {
        model: InjectionModel::RandomGate,
        shots: eval.fia_shots,
        seed: eval.seed,
    };
    let analysis = analyze_faults(&dut.netlist, dut.alarm_index, &campaign, 4, eval.seed ^ 1)?;
    let coverage = if analysis.detected + analysis.silent == 0 {
        // nothing corrupted anything — treat as covered only when an
        // alarm exists; an unprotected design earns no credit
        if dut.alarm_index.is_some() {
            1.0
        } else {
            0.0
        }
    } else {
        analysis.detection_coverage
    };
    Ok(MetricValue::HigherBetter {
        value: coverage,
        threshold: eval.min_fault_coverage,
    })
}

/// Piracy: locking key material present.
fn eval_piracy(dut: &DesignUnderTest, eval: &SecurityEvaluation) -> MetricValue {
    MetricValue::HigherBetter {
        value: dut.key_bits as f64,
        threshold: eval.min_key_bits as f64,
    }
}

/// Trojans: unmonitored rare-net surface, the [`selection`] nets that
/// toggle at all (as for `seceda_trojan::insert_trojan`). A monitored
/// design reports zero surface without being simulated.
fn eval_trojan(
    dut: &DesignUnderTest,
    eval: &SecurityEvaluation,
    cache: Option<&EvalCache>,
    key: Option<DesignDigest>,
) -> Result<MetricValue, NetlistError> {
    let unmonitored = if dut.monitored {
        0
    } else {
        selection(dut, eval, cache, key)?
            .iter()
            .filter(|s| s.rarity > 0.0)
            .count()
    };
    Ok(MetricValue::LowerBetter {
        value: unmonitored as f64,
        threshold: eval.max_unmonitored_rare_nets as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Verdict as V;
    use seceda_netlist::CellKind;

    fn and_gadget() -> DesignUnderTest {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        DesignUnderTest::new(nl)
    }

    fn sca_verdict(report: &SecurityReport) -> V {
        report
            .metrics
            .iter()
            .find(|m| m.name == "first-order probing leaks")
            .expect("metric present")
            .verdict
    }

    #[test]
    fn masking_fixes_sca_and_leaves_fia_open() {
        let mut engine = CompositionEngine::new(and_gadget(), SecurityEvaluation::default());
        engine.evaluate("baseline").expect("eval");
        assert_eq!(sca_verdict(&engine.history()[0]), V::Fail);
        let outcome = engine.apply(Countermeasure::Masking).expect("apply");
        assert_eq!(sca_verdict(&outcome.report), V::Pass);
        let fia = outcome
            .report
            .metrics
            .iter()
            .find(|m| m.name == "fault-detection coverage")
            .expect("metric");
        assert_eq!(fia.verdict, V::Fail, "masking alone detects no faults");
        assert!(outcome.regressions.is_empty());
    }

    #[test]
    fn parity_check_on_masked_design_regresses_sca() {
        // The paper's Sec. IV / [61] cross-effect, caught automatically.
        let mut engine = CompositionEngine::new(and_gadget(), SecurityEvaluation::default());
        engine.evaluate("baseline").expect("eval");
        engine.apply(Countermeasure::Masking).expect("mask");
        let outcome = engine.apply(Countermeasure::ParityCheck).expect("parity");
        assert!(
            outcome
                .regressions
                .contains(&"first-order probing leaks".to_string()),
            "the engine must flag the masking/parity conflict: {:?}",
            outcome.regressions
        );
        assert_eq!(sca_verdict(&outcome.report), V::Fail);
        // and the fault metric did improve — that's why naive flows
        // accept this countermeasure
        let fia = outcome
            .report
            .metrics
            .iter()
            .find(|m| m.name == "fault-detection coverage")
            .expect("metric");
        assert_eq!(fia.verdict, V::Pass);
    }

    #[test]
    fn duplication_composes_cleanly_with_masking() {
        let mut engine = CompositionEngine::new(and_gadget(), SecurityEvaluation::default());
        engine.evaluate("baseline").expect("eval");
        engine.apply(Countermeasure::Masking).expect("mask");
        let outcome = engine
            .apply(Countermeasure::DuplicationCompare)
            .expect("dwc");
        assert!(
            outcome.regressions.is_empty(),
            "share-wise duplication must not break masking: {:?}",
            outcome.regressions
        );
        assert_eq!(sca_verdict(&outcome.report), V::Pass);
        let fia = outcome
            .report
            .metrics
            .iter()
            .find(|m| m.name == "fault-detection coverage")
            .expect("metric");
        assert_eq!(fia.verdict, V::Pass);
    }

    #[test]
    fn locking_and_monitoring_move_their_metrics() {
        let mut engine = CompositionEngine::new(and_gadget(), SecurityEvaluation::default());
        engine.evaluate("baseline").expect("eval");
        let locked = engine.apply(Countermeasure::XorLock(8)).expect("lock");
        let piracy = locked
            .report
            .metrics
            .iter()
            .find(|m| m.name == "locking key bits")
            .expect("metric");
        assert_eq!(piracy.verdict, V::Pass);
        let monitored = engine
            .apply(Countermeasure::TrojanMonitor)
            .expect("monitor");
        let trojan = monitored
            .report
            .metrics
            .iter()
            .find(|m| m.name == "unmonitored rare nets")
            .expect("metric");
        assert_eq!(trojan.verdict, V::Pass);
    }

    #[test]
    fn chaos_panic_in_one_threat_degrades_only_that_metric() {
        chaos::with_forced("compose.threat.panic", Some(1), || {
            let mut engine = CompositionEngine::new(and_gadget(), SecurityEvaluation::default());
            let report = engine.evaluate("chaotic").expect("eval completes").clone();
            assert_eq!(report.metrics.len(), 4, "every threat stays in the report");
            let degraded = report.degraded();
            assert_eq!(degraded.len(), 1, "exactly the injected threat degrades");
            assert_eq!(degraded[0].name, "fault-detection coverage");
            assert_eq!(degraded[0].verdict, V::Unavailable);
            assert!(matches!(
                &degraded[0].value,
                MetricValue::Unavailable { reason } if reason.contains("chaos")
            ));
            // the other three evaluated normally
            for name in [
                "first-order probing leaks",
                "locking key bits",
                "unmonitored rare nets",
            ] {
                let m = report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .expect("metric present");
                assert_ne!(m.verdict, V::Unavailable, "{name} must not degrade");
            }
        });
    }

    #[test]
    fn forced_threat_exhaustion_degrades_every_metric_but_completes() {
        let mut engine = CompositionEngine::new(and_gadget(), SecurityEvaluation::default());
        chaos::with_forced("compose.threat.exhaust", None, || {
            let report = engine.evaluate("starved").expect("eval completes").clone();
            assert_eq!(report.metrics.len(), 4);
            assert_eq!(report.degraded().len(), 4, "every threat exhausted");
            assert!(
                report.all_pass(),
                "degraded metrics must not fail the report"
            );
        });
        // and a fresh evaluation outside the scope recovers
        let healthy = engine.evaluate("recovered").expect("eval").clone();
        assert!(healthy.degraded().is_empty());
    }

    #[test]
    fn monitored_design_is_not_simulated_for_the_trojan_metric() {
        // only probability runs under this thread's probe span count, so
        // spans recorded by concurrently running tests are ignored
        let traced_probability_runs = |monitored: bool| {
            let mut dut = and_gadget();
            dut.monitored = monitored;
            let (value, events) = seceda_trace::session(|| {
                let _probe = seceda_trace::span("test.trojan_probe");
                eval_trojan(&dut, &SecurityEvaluation::default(), None, None).expect("eval")
            });
            assert!(value.passes());
            let spans = seceda_trace::Summary::of(&events).spans;
            let probe = spans
                .iter()
                .find(|s| s.name == "test.trojan_probe")
                .expect("probe span")
                .id;
            spans
                .iter()
                .filter(|s| s.name == "sim.signal_probabilities" && s.parent == Some(probe))
                .count()
        };
        assert_eq!(traced_probability_runs(true), 0);
        assert_eq!(traced_probability_runs(false), 1);
    }

    #[test]
    fn state_key_moves_with_every_input() {
        let dut = and_gadget();
        let eval = SecurityEvaluation::default();
        let model = |num_secrets, num_randoms| {
            Some(ProbingModel {
                num_secrets,
                num_randoms,
            })
        };
        let with = |f: &dyn Fn(&mut DesignUnderTest)| {
            let mut d = dut.clone();
            f(&mut d);
            state_key(&d, &eval)
        };
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let tuned = |f: &dyn Fn(&mut SecurityEvaluation)| {
            let mut e = eval;
            f(&mut e);
            state_key(&dut, &e)
        };
        let keys = [
            ("base", state_key(&dut, &eval)),
            ("netlist gate", {
                let mut nl = Netlist::new("and");
                let a = nl.add_input("a");
                let b = nl.add_input("b");
                let y = nl.add_gate(CellKind::Or, &[a, b]);
                nl.mark_output(y, "y");
                state_key(&DesignUnderTest::new(nl), &eval)
            }),
            ("probing_model", with(&|d| d.probing_model = model(1, 0))),
            ("num_secrets", with(&|d| d.probing_model = model(2, 0))),
            ("num_randoms", with(&|d| d.probing_model = model(1, 1))),
            ("alarm_index", with(&|d| d.alarm_index = Some(0))),
            ("alarm_index value", with(&|d| d.alarm_index = Some(1))),
            ("key_bits", with(&|d| d.key_bits = 1)),
            ("monitored", with(&|d| d.monitored = true)),
            ("max_probing_leaks", tuned(&|e| e.max_probing_leaks += 1)),
            (
                "min_fault_coverage",
                tuned(&|e| e.min_fault_coverage = next_up(e.min_fault_coverage)),
            ),
            ("fia_shots", tuned(&|e| e.fia_shots += 1)),
            ("min_key_bits", tuned(&|e| e.min_key_bits += 1)),
            (
                "max_unmonitored_rare_nets",
                tuned(&|e| e.max_unmonitored_rare_nets += 1),
            ),
            (
                "rare_threshold",
                tuned(&|e| e.rare_threshold = next_up(e.rare_threshold)),
            ),
            ("seed", tuned(&|e| e.seed ^= 1)),
        ];
        for (i, (a, ka)) in keys.iter().enumerate() {
            for (b, kb) in &keys[i + 1..] {
                assert_ne!(
                    ka, kb,
                    "changing {b} instead of {a} must move the state key"
                );
            }
        }
        assert_eq!(
            keys[0].1,
            state_key(&and_gadget(), &eval),
            "the key is a pure function"
        );
    }

    #[test]
    fn history_accumulates() {
        let mut engine = CompositionEngine::new(and_gadget(), SecurityEvaluation::default());
        engine.evaluate("baseline").expect("eval");
        engine.apply(Countermeasure::Masking).expect("mask");
        engine
            .apply(Countermeasure::DuplicationCompare)
            .expect("dwc");
        assert_eq!(engine.history().len(), 3);
        assert_eq!(
            engine.applied(),
            &[Countermeasure::Masking, Countermeasure::DuplicationCompare]
        );
    }
}
