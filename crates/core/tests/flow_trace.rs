//! Integration test for the flow telemetry: the secure flow must emit
//! exactly one `flow.stage` span per Table II stage, nested under the
//! `flow.secure` root, with the stage metrics attached as attributes;
//! a classical flow that reuses the secure flow's back end says so.

use seceda_core::{run_classical_flow, run_secure_flow};
use seceda_netlist::{c17, random_circuit, CellKind, Netlist, RandomCircuitConfig};
use seceda_sca::mask_netlist;
use seceda_testkit::json::Json;
use seceda_trace::{session, to_json_lines, AttrValue, SpanRecord, Summary};

const SECURE_STAGES: [&str; 4] = [
    "logic synthesis (security-aware)",
    "physical synthesis (security-aware)",
    "functional validation",
    "test preparation",
];

#[test]
fn secure_flow_emits_one_span_per_stage() {
    let (report, events) = session(|| run_secure_flow(&c17()).expect("flow"));
    let summary = Summary::of(&events);

    let roots: Vec<_> = summary.spans_named("flow.secure").collect();
    assert_eq!(roots.len(), 1, "exactly one flow root span");
    let root = roots[0];
    assert_eq!(root.parent, None, "flow root has no parent");
    assert_eq!(
        root.attr("design"),
        Some(&AttrValue::Str("c17".into())),
        "root carries the design name"
    );

    let stage_spans: Vec<_> = summary.spans_named("flow.stage").collect();
    assert_eq!(
        stage_spans.len(),
        SECURE_STAGES.len(),
        "one span per Table II stage"
    );
    for (span, (expected_name, stage)) in stage_spans
        .iter()
        .zip(SECURE_STAGES.iter().zip(&report.stages))
    {
        assert_eq!(span.parent, Some(root.id), "stages nest under the flow");
        assert_eq!(
            span.attr("stage"),
            Some(&AttrValue::Str((*expected_name).to_string())),
            "stage order matches Table II"
        );
        assert_eq!(
            span.attr("gates"),
            Some(&AttrValue::Int(stage.gates as i64)),
            "gate count attribute matches the stage report"
        );
        assert_eq!(
            span.attr("area_ge"),
            Some(&AttrValue::Float(stage.area_ge)),
            "area attribute matches the stage report"
        );
        assert_eq!(
            span.attr("delay"),
            Some(&AttrValue::Float(stage.delay)),
            "delay attribute matches the stage report"
        );
        match span.attr("security_notes") {
            Some(AttrValue::Str(notes)) => assert!(!notes.is_empty()),
            other => panic!("security_notes must be a string attr, got {other:?}"),
        }
        assert!(span.end_ns >= span.start_ns);
    }
}

#[test]
fn secure_flow_counters_cover_sat_sim_and_atpg() {
    // On c17 the secure flow makes no solver call at all: the AIG miter
    // of the synthesized and the original design folds to false, and the
    // random ATPG bootstrap covers every fault. On a 100-gate random
    // design (the size of the signoff benchmark's) the random bootstrap
    // leaves faults for SAT ATPG.
    let nl = random_circuit(&RandomCircuitConfig {
        num_inputs: 16,
        num_gates: 100,
        num_outputs: 8,
        with_xor: true,
        seed: 1,
    });
    let (_, events) = session(|| run_secure_flow(&nl).expect("flow"));
    let summary = Summary::of(&events);
    for name in [
        "sat.decisions",
        "sat.propagations",
        "sim.patterns_simulated",
        "dft.patterns_generated",
        "synth.xor_trees_rebuilt",
    ] {
        assert!(
            summary.counters.contains_key(name),
            "counter {name} must be emitted by the secure flow; got {:?}",
            summary.counters.keys().collect::<Vec<_>>()
        );
    }
    // ATPG produced at least one pattern
    assert!(summary.counters.get("dft.patterns_generated").copied() > Some(0));
    // SAT ran for the ATPG cleanup
    assert!(summary.spans_named("sat.solve").next().is_some());
}

#[test]
fn flow_events_export_as_valid_json_lines() {
    let (_, events) = session(|| run_secure_flow(&c17()).expect("flow"));
    let lines = to_json_lines(&events);
    let mut span_lines = 0;
    for line in lines.lines() {
        let json = Json::parse(line).expect("each line is standalone JSON");
        let ty = json.get("type").expect("type field");
        if ty == &Json::Str("span".into()) {
            span_lines += 1;
            assert!(json.get("name").is_some());
            assert!(json.get("start_ns").is_some());
            assert!(json.get("end_ns").is_some());
        }
    }
    assert!(span_lines >= 5, "root + four stages at minimum");
}

/// The secure then the classical flow on `nl`, on a new thread (whose
/// back-end memo is empty), traced.
fn secure_then_classical(nl: &Netlist) -> Summary {
    let (_, events) = session(|| {
        std::thread::scope(|s| {
            s.spawn(|| {
                run_secure_flow(nl).expect("secure flow");
                run_classical_flow(nl).expect("classical flow");
            })
            .join()
            .expect("flow thread")
        })
    });
    Summary::of(&events)
}

/// The stage spans under the flow root named `root`, in order, each
/// with whether it has a `dft.atpg` child.
fn stages<'a>(summary: &'a Summary, root: &str) -> Vec<(&'a SpanRecord, bool)> {
    let root = summary.spans_named(root).next().expect("flow root");
    summary
        .spans_named("flow.stage")
        .filter(|s| s.parent == Some(root.id))
        .map(|stage| {
            let atpg = summary
                .spans_named("dft.atpg")
                .any(|a| a.parent == Some(stage.id));
            (stage, atpg)
        })
        .collect()
}

/// `(stage name, reused)` of every stage that carries the attribute.
fn reused(stages: &[(&SpanRecord, bool)]) -> Vec<(String, bool)> {
    stages
        .iter()
        .filter_map(|(s, _)| match (s.attr("stage"), s.attr("reused")) {
            (Some(AttrValue::Str(name)), Some(AttrValue::Bool(r))) => Some((name.clone(), *r)),
            _ => None,
        })
        .collect()
}

#[test]
fn classical_flow_reuses_the_secure_back_end_of_an_equal_netlist() {
    let summary = secure_then_classical(&c17());
    assert_eq!(summary.counters.get("flow.backend_reused"), Some(&1));

    let secure = stages(&summary, "flow.secure");
    assert_eq!(
        reused(&secure),
        [
            ("physical synthesis (security-aware)".into(), false),
            ("test preparation".into(), false),
        ]
    );
    assert!(secure[3].1, "the secure flow runs ATPG");

    let classical = stages(&summary, "flow.classical");
    assert_eq!(
        reused(&classical),
        [
            ("physical synthesis".into(), true),
            ("test preparation".into(), true),
        ]
    );
    assert!(
        classical.iter().all(|(_, atpg)| !atpg),
        "a reused back end runs no ATPG"
    );
}

#[test]
fn flows_that_synthesize_different_netlists_share_nothing() {
    let mut nl = Netlist::new("and");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let y = nl.add_gate(CellKind::And, &[a, b]);
    nl.mark_output(y, "y");
    let summary = secure_then_classical(&mask_netlist(&nl).netlist);
    assert_eq!(summary.counters.get("flow.backend_reused"), None);
    for root in ["flow.secure", "flow.classical"] {
        let spans = stages(&summary, root);
        let flags = reused(&spans);
        assert_eq!(flags.len(), 2, "{root}");
        assert!(flags.iter().all(|(_, r)| !r), "{root}: {flags:?}");
        assert!(spans[3].1, "{root} runs its own ATPG");
    }
}
