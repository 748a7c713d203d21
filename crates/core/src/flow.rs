//! The EDA flow pipelines: classical (the paper's Fig. 1) and
//! security-centric.
//!
//! The classical flow optimizes PPA stage by stage and performs *no*
//! security work — its report records, per stage, what a security-aware
//! flow would additionally have checked. The secure flow runs the same
//! stages with tag-honoring synthesis plus the per-stage security duties
//! of Table II, and verifies at the end that the result is still
//! functionally equivalent to the input.

use crate::metrics::{MetricValue, SecurityMetric, SecurityReport};
use crate::threat::ThreatVector;
use seceda_dft::generate_tests;
use seceda_layout::{place, route, timing_report, PlacementConfig, RouteConfig};
use seceda_netlist::{Netlist, NetlistError, NetlistStats};
use seceda_sim::{fault::stuck_at_universe, FaultSim};
use seceda_synth::{optimize, reassociate, SynthesisMode};
use seceda_trojan::rare_signals;
use seceda_verif::{check_equivalence, EquivResult};

/// Results of one flow stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (matches Fig. 1 / Table II rows).
    pub stage: String,
    /// Gate count after the stage.
    pub gates: usize,
    /// Area in gate equivalents after the stage.
    pub area_ge: f64,
    /// Critical-path delay after the stage (gate + wire, where known).
    pub delay: f64,
    /// Security checks a classical flow skips here (informational) or a
    /// secure flow ran (with results folded into the final report).
    pub security_notes: Vec<String>,
}

impl StageReport {
    /// Builds a stage record with gate count and area *freshly computed*
    /// from `nl` — every stage re-measures the design it actually ends
    /// on, instead of reusing numbers from an earlier stage.
    pub fn record(
        nl: &Netlist,
        stage: impl Into<String>,
        delay: f64,
        security_notes: Vec<String>,
    ) -> Self {
        let stats = NetlistStats::of(nl);
        StageReport {
            stage: stage.into(),
            gates: stats.num_gates,
            area_ge: stats.area_ge,
            delay,
            security_notes,
        }
    }

    /// Copies the stage metrics onto an open trace span.
    pub fn annotate_span(&self, span: &mut seceda_trace::Span) {
        span.attr("stage", self.stage.as_str());
        span.attr("gates", self.gates);
        span.attr("area_ge", self.area_ge);
        span.attr("delay", self.delay);
        span.attr("security_notes", self.security_notes.join("; "));
    }
}

/// Closes a stage: annotates its span with the report and appends the
/// report to the flow's stage list.
fn finish_stage(stages: &mut Vec<StageReport>, mut span: seceda_trace::Span, report: StageReport) {
    report.annotate_span(&mut span);
    drop(span);
    stages.push(report);
}

/// A full flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Per-stage records, in execution order.
    pub stages: Vec<StageReport>,
    /// The final netlist.
    pub result: Netlist,
    /// Whether the final netlist was verified equivalent to the input.
    pub equivalence_checked: bool,
    /// The security evaluation (empty for the classical flow).
    pub security: SecurityReport,
}

/// Test-preparation metric that stays affordable on large designs: full
/// SAT-backed ATPG below `SAT_ATPG_GATE_LIMIT` gates, random-pattern
/// grading on a sampled fault universe above it.
const SAT_ATPG_GATE_LIMIT: usize = 400;

fn test_prep_note(nl: &Netlist) -> Result<String, NetlistError> {
    if nl.num_gates() <= SAT_ATPG_GATE_LIMIT {
        let atpg = generate_tests(nl, 32, 7)?;
        return Ok(format!(
            "ATPG: {:.1}% stuck-at coverage with {} patterns, {} untestable",
            atpg.coverage * 100.0,
            atpg.patterns.len(),
            atpg.untestable.len()
        ));
    }
    // sampled random-pattern grading for big designs
    let universe = stuck_at_universe(nl);
    let stride = (universe.len() / 256).max(1);
    let sampled: Vec<_> = universe.iter().step_by(stride).copied().collect();
    let sim = FaultSim::new(nl)?;
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(7);
    let patterns: Vec<Vec<bool>> = (0..64)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
        .collect();
    let (_, coverage) = sim.coverage(&patterns, &sampled);
    Ok(format!(
        "random-pattern grading: {:.1}% coverage over {} sampled faults (design too large for exhaustive SAT ATPG)",
        coverage * 100.0,
        sampled.len()
    ))
}

/// Runs the classical, security-unaware flow of Fig. 1: logic synthesis
/// (full optimization incl. re-association), physical synthesis,
/// timing/power analysis, and test preparation — PPA only.
///
/// With tracing on (`SECEDA_TRACE=1`) the run emits a `flow.classical`
/// root span with one `flow.stage` child per Fig. 1 stage, each carrying
/// gates/area/delay/security-note attributes.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_classical_flow(nl: &Netlist) -> Result<FlowReport, NetlistError> {
    let _flow_span = seceda_trace::span("flow.classical").with("design", nl.name());
    let mut stages = Vec::new();

    // logic synthesis: every optimization fires, tags be damned
    let sp = seceda_trace::span("flow.stage");
    let (reassoc, _) = reassociate(nl, SynthesisMode::Classical);
    let synthesized = optimize(&reassoc, SynthesisMode::Classical);
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "logic synthesis",
            seceda_netlist::DepthReport::of(&synthesized).critical_path,
            vec![
                "skipped: ordering barriers ignored (Fig. 2 hazard)".into(),
                "skipped: redundancy merged by CSE".into(),
            ],
        ),
    );

    // physical synthesis
    let sp = seceda_trace::span("flow.stage");
    let placement = place(&synthesized, &PlacementConfig::default());
    let routed = route(&synthesized, &placement, &RouteConfig::default());
    let timing = timing_report(&synthesized, &routed);
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "physical synthesis",
            timing.critical_path,
            vec![
                "skipped: no leakage assessment (TVLA)".into(),
                "skipped: no sensors/shields placed".into(),
            ],
        ),
    );

    // timing & power verification
    let sp = seceda_trace::span("flow.stage");
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "timing/power verification",
            timing.critical_path,
            vec!["skipped: no side-channel simulation".into()],
        ),
    );

    // test preparation
    let sp = seceda_trace::span("flow.stage");
    let atpg_note = test_prep_note(&synthesized)?;
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "test preparation",
            timing.critical_path,
            vec![
                atpg_note,
                "skipped: scan chain left unprotected (scan-attack hazard)".into(),
            ],
        ),
    );

    Ok(FlowReport {
        stages,
        result: synthesized,
        equivalence_checked: false,
        security: SecurityReport::new("classical flow (no security evaluation)"),
    })
}

/// Runs the security-centric flow: the same stages, but synthesis honors
/// security tags, every stage contributes a security metric, and the
/// output is formally checked equivalent to the input.
///
/// With tracing on (`SECEDA_TRACE=1`) the run emits a `flow.secure` root
/// span with one `flow.stage` child per Table II stage, each carrying
/// gates/area/delay/security-note attributes; nested synthesis, SAT,
/// simulation, and ATPG spans hang off their stage.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_secure_flow(nl: &Netlist) -> Result<FlowReport, NetlistError> {
    let _flow_span = seceda_trace::span("flow.secure").with("design", nl.name());
    let mut stages = Vec::new();
    let mut security = SecurityReport::new("secure flow");

    // logic synthesis, tag-honoring
    let sp = seceda_trace::span("flow.stage");
    let (reassoc, reassoc_report) = reassociate(nl, SynthesisMode::SecurityAware);
    let synthesized = optimize(&reassoc, SynthesisMode::SecurityAware);
    let barriers = synthesized
        .gates()
        .iter()
        .filter(|g| g.tags.no_reassoc)
        .count();
    security.metrics.push(SecurityMetric::new(
        "masking barriers preserved",
        ThreatVector::SideChannel,
        MetricValue::HigherBetter {
            value: barriers as f64,
            threshold: nl.gates().iter().filter(|g| g.tags.no_reassoc).count() as f64,
        },
    ));
    let redundancy = synthesized
        .gates()
        .iter()
        .filter(|g| g.tags.redundancy)
        .count();
    security.metrics.push(SecurityMetric::new(
        "redundancy gates preserved",
        ThreatVector::FaultInjection,
        MetricValue::HigherBetter {
            value: redundancy as f64,
            threshold: nl.gates().iter().filter(|g| g.tags.redundancy).count() as f64,
        },
    ));
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "logic synthesis (security-aware)",
            seceda_netlist::DepthReport::of(&synthesized).critical_path,
            vec![format!(
                "{} XOR trees skipped at barriers, {} rebuilt",
                reassoc_report.trees_skipped, reassoc_report.trees_rebuilt
            )],
        ),
    );

    // physical synthesis + Trojan surface assessment
    let sp = seceda_trace::span("flow.stage");
    let placement = place(&synthesized, &PlacementConfig::default());
    let routed = route(&synthesized, &placement, &RouteConfig::default());
    let timing = timing_report(&synthesized, &routed);
    let rare = rare_signals(&synthesized, 32, 0.05, 11)?.len();
    // reported for awareness; unmonitored designs have no universal
    // rare-net threshold, so the metric never pass/fail-gates the flow
    security.metrics.push(SecurityMetric::new(
        "rare-net Trojan surface",
        ThreatVector::Trojan,
        MetricValue::Informational { value: rare as f64 },
    ));
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "physical synthesis (security-aware)",
            timing.critical_path,
            vec![format!(
                "wirelength {} (sensors/shields placeable via seceda-layout)",
                routed.total_length
            )],
        ),
    );

    // functional validation: formal equivalence against the input
    let sp = seceda_trace::span("flow.stage");
    let equivalent = check_equivalence(nl, &synthesized)? == EquivResult::Equivalent;
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "functional validation",
            timing.critical_path,
            vec![format!("SAT equivalence: {equivalent}")],
        ),
    );

    // test preparation
    let sp = seceda_trace::span("flow.stage");
    let atpg_note = test_prep_note(&synthesized)?;
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "test preparation",
            timing.critical_path,
            vec![atpg_note],
        ),
    );

    Ok(FlowReport {
        stages,
        result: synthesized,
        equivalence_checked: equivalent,
        security,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{c17, random_circuit, CellKind, GateTags, RandomCircuitConfig};
    use seceda_sca::mask_netlist;

    #[test]
    fn classical_flow_runs_and_reports_stages() {
        let report = run_classical_flow(&c17()).expect("flow");
        assert_eq!(report.stages.len(), 4);
        assert!(!report.equivalence_checked);
        assert!(report.stages.iter().all(|s| !s.security_notes.is_empty()));
        // classical flow preserves function on an untagged design
        assert_eq!(report.result.truth_table(), c17().truth_table());
    }

    #[test]
    fn secure_flow_preserves_function_and_verifies_it() {
        let report = run_secure_flow(&c17()).expect("flow");
        assert!(report.equivalence_checked, "equivalence must be proven");
        assert_eq!(report.result.truth_table(), c17().truth_table());
    }

    #[test]
    fn classical_flow_destroys_masking_secure_flow_keeps_it() {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        let masked = mask_netlist(&nl);

        let classical = run_classical_flow(&masked.netlist).expect("flow");
        let secure = run_secure_flow(&masked.netlist).expect("flow");
        let barriers = |n: &Netlist| n.gates().iter().filter(|g| g.tags.no_reassoc).count();
        assert!(
            barriers(&classical.result) < barriers(&masked.netlist),
            "classical flow optimizes through the gadget"
        );
        assert_eq!(
            barriers(&secure.result),
            barriers(&masked.netlist),
            "secure flow must keep every barrier gate"
        );
        assert!(secure.security.all_pass());
    }

    #[test]
    fn secure_flow_keeps_redundancy() {
        use seceda_fia::duplicate_with_compare;
        let p = duplicate_with_compare(&seceda_netlist::majority());
        let secure = run_secure_flow(&p.netlist).expect("flow");
        let red = |n: &Netlist| n.gates().iter().filter(|g| g.tags.redundancy).count();
        assert_eq!(red(&secure.result), red(&p.netlist));
        let classical = run_classical_flow(&p.netlist).expect("flow");
        assert!(red(&classical.result) < red(&p.netlist));
    }

    #[test]
    fn flows_survive_synthesis_removing_every_gate() {
        let mut nl = Netlist::new("buffer");
        let a = nl.add_input("a");
        let y = nl.add_gate(CellKind::Buf, &[a]);
        nl.mark_output(y, "y");
        let secure = run_secure_flow(&nl).expect("secure flow");
        let classical = run_classical_flow(&nl).expect("classical flow");
        assert_eq!(secure.result.num_gates(), 0, "synthesis drops the buffer");
        assert!(secure.equivalence_checked, "equivalence must be proven");
        for report in [&secure, &classical] {
            assert_eq!(report.result.truth_table(), nl.truth_table());
        }
    }

    /// Every stage delay and the physical stage's wirelength, as the
    /// full-recompute annealer produced them: a placement speed-up must
    /// leave the Fig. 1 report unchanged.
    #[test]
    fn flow_reports_keep_their_golden_numbers() {
        let rand100 = random_circuit(&RandomCircuitConfig {
            num_gates: 100,
            ..RandomCircuitConfig::default()
        });
        for (nl, synth_delay, physical_delay, wirelength) in [
            (c17(), 3.0, 3.8, 13),
            (rand100, 23.5, 28.900000000000002, 233),
        ] {
            let delays = [synth_delay, physical_delay, physical_delay, physical_delay];
            let secure = run_secure_flow(&nl).expect("secure flow");
            let stage_delays: Vec<f64> = secure.stages.iter().map(|s| s.delay).collect();
            assert_eq!(stage_delays, delays, "{} secure", nl.name());
            assert_eq!(
                secure.stages[1].security_notes,
                [format!(
                    "wirelength {wirelength} (sensors/shields placeable via seceda-layout)"
                )],
                "{}",
                nl.name()
            );
            let classical = run_classical_flow(&nl).expect("classical flow");
            let stage_delays: Vec<f64> = classical.stages.iter().map(|s| s.delay).collect();
            assert_eq!(stage_delays, delays, "{} classical", nl.name());
        }
    }

    #[test]
    fn tags_flow_through_gate_tags_helper() {
        // guard: GateTags is re-exported where the flow expects it
        let t = GateTags::default();
        assert!(!t.is_protected());
    }
}
