//! The EDA flow pipelines: classical (the paper's Fig. 1) and
//! security-centric.
//!
//! The classical flow optimizes PPA stage by stage and performs *no*
//! security work — its report records, per stage, what a security-aware
//! flow would additionally have checked. The secure flow runs the same
//! stages with tag-honoring synthesis plus the per-stage security duties
//! of Table II, and verifies at the end that the result is still
//! functionally equivalent to the input.
//!
//! Both flows hand their synthesized netlist to one back end: place →
//! route → timing, then test preparation. When both synthesize the same
//! netlist (an untagged design gives tag-honoring synthesis nothing to
//! keep), the second flow on the same thread reuses the first one's
//! back end instead of computing it again.

use crate::metrics::{MetricValue, SecurityMetric, SecurityReport};
use crate::threat::ThreatVector;
use seceda_dft::generate_tests;
use seceda_layout::{place, route, timing_report, PlacementConfig, RouteConfig};
use seceda_netlist::{Netlist, NetlistError, NetlistStats};
use seceda_sim::{fault::stuck_at_universe, FaultSim};
use seceda_synth::{optimize, reassociate, SynthesisMode};
use seceda_trojan::rare_signals;
use seceda_verif::{check_equivalence, EquivResult};
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

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
    fn annotate_span(&self, span: &mut seceda_trace::Span) {
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

/// What the back end makes of one synthesized netlist; both flows
/// report from it.
#[derive(Debug)]
struct BackEnd {
    /// Critical-path delay after routing, gate plus wire.
    critical_path: f64,
    /// Total routed wirelength.
    wirelength: u64,
    /// The test-preparation note, set by the first flow that reaches
    /// that stage.
    test_note: OnceCell<String>,
}

impl BackEnd {
    /// The test-preparation note of `nl`, the netlist this back end was
    /// computed from, and whether an earlier flow had already made it.
    fn test_note(&self, nl: &Netlist) -> Result<(String, bool), NetlistError> {
        if let Some(note) = self.test_note.get() {
            return Ok((note.clone(), true));
        }
        let note = test_prep_note(nl)?;
        Ok((self.test_note.get_or_init(|| note).clone(), false))
    }
}

thread_local! {
    /// The back end of the last netlist this thread placed, keyed on a
    /// clone of that netlist.
    static LAST_BACK_END: RefCell<Option<(Netlist, Rc<BackEnd>)>> = const { RefCell::new(None) };
}

/// Places, routes and times the synthesized `nl` with the default
/// configs, and returns the result with whether it was reused.
///
/// The result is memoized exactly: one entry per thread, holding a
/// clone of the last netlist placed. A netlist `==` to it reuses its
/// back end, test-preparation note included, and counts
/// `flow.backend_reused`; any other netlist recomputes and replaces the
/// entry. `Netlist::eq` compares the design name, every gate (kind,
/// tags, pins), the net drivers and both port lists with their names,
/// and ignores internal net names. No stage memoized here reads a net
/// name: `place`, `route`, `timing_report`, ATPG and fault grading see
/// only ids, kinds and ports, so a netlist that differs from the key
/// only in internal names gets the same back end either way. A stage
/// that errors or panics stores nothing.
fn run_back_end(nl: &Netlist) -> (Rc<BackEnd>, bool) {
    let hit = LAST_BACK_END.with_borrow(|memo| match memo {
        Some((key, back_end)) if key == nl => Some(Rc::clone(back_end)),
        _ => None,
    });
    if let Some(back_end) = hit {
        seceda_trace::counter("flow.backend_reused", 1);
        return (back_end, true);
    }
    let placement = place(nl, &PlacementConfig::default());
    let routed = route(nl, &placement, &RouteConfig::default());
    let back_end = Rc::new(BackEnd {
        critical_path: timing_report(nl, &routed).critical_path,
        wirelength: routed.total_length,
        test_note: OnceCell::new(),
    });
    LAST_BACK_END.set(Some((nl.clone(), Rc::clone(&back_end))));
    (back_end, false)
}

/// Runs the classical, security-unaware flow of Fig. 1: logic synthesis
/// (full optimization incl. re-association), physical synthesis,
/// timing/power analysis, and test preparation — PPA only.
///
/// Place, route, timing and ATPG run on the synthesized netlist unless
/// the last flow on this thread synthesized an equal one (`==`): then
/// its critical path and test note are reused, so
/// `run_secure_flow(nl)` followed by `run_classical_flow(nl)` on an
/// untagged design computes the back end once. The report is the same
/// either way.
///
/// With tracing on (`SECEDA_TRACE=1`) the run emits a `flow.classical`
/// root span with one `flow.stage` child per Fig. 1 stage, each carrying
/// gates/area/delay/security-note attributes; the physical-synthesis and
/// test-preparation stages also carry `reused`, and each reuse counts
/// `flow.backend_reused`.
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
    let mut sp = seceda_trace::span("flow.stage");
    let (back_end, reused) = run_back_end(&synthesized);
    sp.attr("reused", reused);
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "physical synthesis",
            back_end.critical_path,
            vec![
                "skipped: no leakage assessment (TVLA)".into(),
                "skipped: no sensors placed".into(),
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
            back_end.critical_path,
            vec!["skipped: no side-channel simulation".into()],
        ),
    );

    // test preparation
    let mut sp = seceda_trace::span("flow.stage");
    let (atpg_note, reused) = back_end.test_note(&synthesized)?;
    sp.attr("reused", reused);
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "test preparation",
            back_end.critical_path,
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
/// The back end (place, route, timing, ATPG) is shared with
/// [`run_classical_flow`]: when the last flow on this thread
/// synthesized a netlist equal (`==`) to this one, its wirelength,
/// critical path and test note are reused. The rare-net surface and the
/// equivalence check always run. The report is the same either way.
///
/// With tracing on (`SECEDA_TRACE=1`) the run emits a `flow.secure` root
/// span with one `flow.stage` child per Table II stage, each carrying
/// gates/area/delay/security-note attributes; nested synthesis, SAT,
/// simulation, and ATPG spans hang off their stage. The
/// physical-synthesis and test-preparation stages also carry `reused`,
/// and each reuse counts `flow.backend_reused`.
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
    let mut sp = seceda_trace::span("flow.stage");
    let (back_end, reused) = run_back_end(&synthesized);
    sp.attr("reused", reused);
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
            back_end.critical_path,
            vec![format!(
                "wirelength {} (sensors placeable via seceda-layout)",
                back_end.wirelength
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
            back_end.critical_path,
            vec![format!("SAT equivalence: {equivalent}")],
        ),
    );

    // test preparation
    let mut sp = seceda_trace::span("flow.stage");
    let (atpg_note, reused) = back_end.test_note(&synthesized)?;
    sp.attr("reused", reused);
    finish_stage(
        &mut stages,
        sp,
        StageReport::record(
            &synthesized,
            "test preparation",
            back_end.critical_path,
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
    use seceda_netlist::{c17, random_circuit, CellKind, GateId, GateTags, RandomCircuitConfig};
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
        let masked = masked_and();
        let classical = run_classical_flow(&masked).expect("flow");
        let secure = run_secure_flow(&masked).expect("flow");
        let barriers = |n: &Netlist| n.gates().iter().filter(|g| g.tags.no_reassoc).count();
        assert!(
            barriers(&classical.result) < barriers(&masked),
            "classical flow optimizes through the gadget"
        );
        assert_eq!(
            barriers(&secure.result),
            barriers(&masked),
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

    /// `f`'s result on a new thread, whose back-end memo is empty.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("flow thread"))
    }

    type Flow = fn(&Netlist) -> Result<FlowReport, NetlistError>;

    /// Both flows in both orders on fresh threads: `[secure first,
    /// classical first]`, each as `(secure, classical)` reports.
    fn both_orders(nl: &Netlist) -> [(FlowReport, FlowReport); 2] {
        [true, false].map(|secure_first| {
            on_fresh_thread(|| {
                let (first, second): (Flow, Flow) = if secure_first {
                    (run_secure_flow, run_classical_flow)
                } else {
                    (run_classical_flow, run_secure_flow)
                };
                let a = first(nl).expect("first flow");
                let b = second(nl).expect("second flow");
                if secure_first {
                    (a, b)
                } else {
                    (b, a)
                }
            })
        })
    }

    /// Every stage delay and the physical stage's wirelength, as the
    /// full-recompute annealer produced them: a placement speed-up must
    /// leave the Fig. 1 report unchanged, and so must reusing the other
    /// flow's back end, whichever flow runs first.
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
            for (order, (secure, classical)) in ["secure first", "classical first"]
                .into_iter()
                .zip(both_orders(&nl))
            {
                let stage_delays: Vec<f64> = secure.stages.iter().map(|s| s.delay).collect();
                assert_eq!(stage_delays, delays, "{} secure, {order}", nl.name());
                assert_eq!(
                    secure.stages[1].security_notes,
                    [format!(
                        "wirelength {wirelength} (sensors placeable via seceda-layout)"
                    )],
                    "{}, {order}",
                    nl.name()
                );
                let stage_delays: Vec<f64> = classical.stages.iter().map(|s| s.delay).collect();
                assert_eq!(stage_delays, delays, "{} classical, {order}", nl.name());
            }
        }
    }

    /// Every report is the same whether its flow ran first on a fresh
    /// thread or right after the other flow: on designs both flows
    /// synthesize alike (c17, a random host) and on one they do not (a
    /// masked gadget).
    #[test]
    fn reports_are_the_same_with_and_without_reuse() {
        let rand100 = random_circuit(&RandomCircuitConfig {
            num_gates: 100,
            ..RandomCircuitConfig::default()
        });
        for nl in [c17(), rand100, masked_and()] {
            let [(secure_first, classical_second), (secure_second, classical_first)] =
                both_orders(&nl);
            assert_eq!(secure_first, secure_second, "{} secure", nl.name());
            assert_eq!(classical_first, classical_second, "{} classical", nl.name());
        }
    }

    /// A first-order masked AND gadget: its ordering barriers make the
    /// two flows synthesize different netlists.
    fn masked_and() -> Netlist {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        mask_netlist(&nl).netlist
    }

    /// `y = XOR(AND(a, b), c)`, with the inputs promoted in `order` and
    /// the output named `out`.
    fn small(order: [usize; 3], out: &str) -> Netlist {
        let mut nl = Netlist::new("small");
        let nets = ["a", "b", "c"].map(|n| nl.add_named_net(n));
        for i in order {
            nl.promote_input(nets[i]).expect("undriven");
        }
        let x = nl.add_gate(CellKind::And, &[nets[0], nets[1]]);
        let y = nl.add_gate(CellKind::Xor, &[x, nets[2]]);
        nl.mark_output(y, out);
        nl
    }

    /// Any change that `Netlist::eq` sees misses the memo; renaming an
    /// internal net, which it does not see, hits it.
    #[test]
    fn back_end_memo_misses_on_every_visible_change() {
        let base = small([0, 1, 2], "y");
        let mut rewired = base.clone();
        rewired.gate_mut(GateId::from_index(1)).inputs[1] = base.inputs()[0];
        let mut tagged = base.clone();
        tagged.gate_mut(GateId::from_index(0)).tags.monitor = true;
        let mut renamed_internal = base.clone();
        renamed_internal.set_net_name(base.gates()[0].output, "x");
        on_fresh_thread(|| {
            for (variant, name) in [
                (rewired, "one gate input rewired"),
                (tagged, "one tag flipped"),
                (small([1, 0, 2], "y"), "primary inputs reordered"),
                (small([0, 1, 2], "z"), "output renamed"),
            ] {
                assert!(!run_back_end(&base).1, "{name}: the base is placed anew");
                assert!(run_back_end(&base).1, "{name}: the base hits itself");
                assert!(!run_back_end(&variant).1, "{name} must miss");
            }
            assert!(!run_back_end(&base).1);
            assert!(
                run_back_end(&renamed_internal).1,
                "internal names are not keyed"
            );
        });
    }

    #[test]
    fn tags_flow_through_gate_tags_helper() {
        // guard: GateTags is re-exported where the flow expects it
        let t = GateTags::default();
        assert!(!t.is_protected());
    }
}
