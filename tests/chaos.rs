//! Deterministic chaos suite: provoke worker panics, budget
//! exhaustion, and truncated parser input at the workspace's injection
//! points, and pin that every engine degrades gracefully — and that the
//! degradation itself is bit-identical across worker counts and repeat
//! runs.
//!
//! `verify.sh` additionally runs this suite with `SECEDA_CHAOS` set to
//! two fixed seeds, at one and at eight workers; every test here
//! installs its own chaos scope (which overrides the environment),
//! except the ambient-survival test, which deliberately runs under
//! whatever the environment armed. Scopes are per thread, nest, and
//! reach every `par` worker a test's evaluation spawns.

use seceda_core::{CompositionEngine, DesignUnderTest, MetricValue, SecurityEvaluation, Verdict};
use seceda_dft::{AtpgSolver, FaultTestOutcome};
use seceda_fia::codes::duplicate_with_compare;
use seceda_lock::{sat_attack_budgeted, xor_lock, SatAttackOutcome, SatAttackResult};
use seceda_netlist::{c17, majority, parse_design, write_bench, DesignFormat};
use seceda_sat::{Budget, StopReason};
use seceda_sim::{fault::stuck_at_universe, FaultSim};
use seceda_testkit::chaos;
use seceda_testkit::par::with_workers;
use seceda_verif::prove_detection;

/// The two seeds `verify.sh` pins for its quick-mode chaos runs.
const VERIFY_SEEDS: [u64; 2] = [0xDEAD_BEEF, 0xCAFE];

/// One evaluation of c17 under the current chaos configuration,
/// fingerprinted as `(metric name, available?)` per metric.
fn evaluate_fingerprint(workers: usize) -> Vec<(String, bool)> {
    with_workers(workers, || {
        let mut engine =
            CompositionEngine::new(DesignUnderTest::new(c17()), SecurityEvaluation::default());
        let report = engine
            .evaluate("chaos suite")
            .expect("chaos never surfaces as a hard error")
            .clone();
        report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value.is_available()))
            .collect()
    })
}

#[test]
fn forced_threat_panic_degrades_exactly_one_metric_at_every_worker_count() {
    for workers in [1usize, 2, 8] {
        for run in 0..2 {
            let report = chaos::with_forced("compose.threat.panic", Some(1), || {
                with_workers(workers, || {
                    let mut engine = CompositionEngine::new(
                        DesignUnderTest::new(c17()),
                        SecurityEvaluation::default(),
                    );
                    engine
                        .evaluate("forced panic")
                        .expect("evaluation completes")
                        .clone()
                })
            });
            assert_eq!(report.metrics.len(), 4, "workers={workers} run={run}");
            let degraded = report.degraded();
            assert_eq!(degraded.len(), 1, "workers={workers} run={run}");
            assert_eq!(
                degraded[0].name, "fault-detection coverage",
                "salt 1 pins the fault-injection evaluator"
            );
            match &degraded[0].value {
                MetricValue::Unavailable { reason } => {
                    assert!(reason.contains("chaos"), "reason: {reason}")
                }
                other => panic!("degraded metric must be Unavailable, got {other:?}"),
            }
            // the other three metrics computed normally
            for m in &report.metrics {
                if m.name != "fault-detection coverage" {
                    assert!(m.value.is_available(), "{} degraded too", m.name);
                    assert_ne!(m.verdict, Verdict::Unavailable);
                }
            }
        }
    }
}

#[test]
fn seeded_evaluation_is_deterministic_across_worker_counts() {
    for seed in VERIFY_SEEDS {
        let reference = chaos::with_seed(seed, || evaluate_fingerprint(1));
        assert_eq!(reference.len(), 4);
        for workers in [2usize, 8] {
            let got = chaos::with_seed(seed, || evaluate_fingerprint(workers));
            assert_eq!(
                got, reference,
                "seed {seed:#x}: degradation pattern must not depend on \
                 worker count (workers={workers})"
            );
        }
        // and a repeat run is bit-identical
        let again = chaos::with_seed(seed, || evaluate_fingerprint(1));
        assert_eq!(again, reference, "seed {seed:#x}: repeat run differed");
    }
}

#[test]
fn truncated_parser_input_never_panics_under_pinned_seeds() {
    let texts = [
        write_bench(&c17()),
        write_bench(&majority()),
        write_bench(&xor_lock(&c17(), 8, 7).netlist),
    ];
    for seed in VERIFY_SEEDS {
        for text in &texts {
            // the truncation decision is salted by input length, so the
            // outcome for a fixed (seed, text) must be reproducible
            let first = chaos::with_seed(seed, || parse_design(text, DesignFormat::Bench).is_ok());
            let second = chaos::with_seed(seed, || parse_design(text, DesignFormat::Bench).is_ok());
            assert_eq!(first, second, "seed {seed:#x}: nondeterministic parse");
        }
    }
    // forced truncation on every call still returns a typed result
    chaos::with_forced("parse.design", None, || {
        for text in &texts {
            let _ = parse_design(text, DesignFormat::Bench);
        }
    });
}

#[test]
fn forced_sat_budget_exhaustion_degrades_proof_to_undecided_holes() {
    let protected = duplicate_with_compare(&majority());
    // a *limited* budget is chaos-eligible; forcing "sat.budget" makes
    // every solver query report chaos-injected exhaustion
    let proof = chaos::with_forced("sat.budget", None, || {
        prove_detection(&protected, &Budget::unlimited().with_max_conflicts(1 << 20))
            .expect("encoding still works under chaos")
    });
    assert!(
        !proof.undecided.is_empty(),
        "forced exhaustion must leave queries undecided"
    );
    assert!(!proof.holds(), "undecided faults are holes in the proof");
    assert!(proof.violations.is_empty(), "no fabricated violations");
    assert_eq!(proof.proven + proof.undecided.len(), proof.total);
    // chaos-free, the same proof closes completely (`without_chaos`
    // overrides an ambient SECEDA_CHAOS for this reference run)
    let full =
        chaos::without_chaos(|| prove_detection(&protected, &Budget::unlimited()).expect("prove"));
    assert!(full.holds());
}

#[test]
fn chaos_aborted_atpg_queries_never_fabricate_a_verdict() {
    let nl = c17();
    let faults = stuck_at_universe(&nl);
    let sim = FaultSim::new(&nl).expect("sim");
    // a limited (but ample) budget makes every query chaos-eligible
    let ample = Budget::unlimited().with_max_conflicts(1 << 20);
    let mut aborted = 0usize;
    for seed in VERIFY_SEEDS {
        let mut reference: Option<Vec<FaultTestOutcome>> = None;
        for workers in [1usize, 8] {
            let outcomes: Vec<FaultTestOutcome> = chaos::with_seed(seed, || {
                with_workers(workers, || {
                    let mut atpg = AtpgSolver::new(&nl).expect("lower");
                    faults
                        .iter()
                        .map(|&f| atpg.generate_test(f, &ample).expect("query"))
                        .collect()
                })
            });
            for (&f, outcome) in faults.iter().zip(&outcomes) {
                match outcome {
                    FaultTestOutcome::Aborted(reason) => {
                        assert_eq!(*reason, StopReason::ChaosInjected, "seed {seed:#x} {f:?}");
                        aborted += 1;
                    }
                    FaultTestOutcome::Test(pattern) => {
                        let (detected, _) = sim.coverage(std::slice::from_ref(pattern), &[f]);
                        assert_eq!(detected, [true], "seed {seed:#x}: pattern misses {f:?}");
                    }
                    FaultTestOutcome::Untestable => {
                        let fresh = chaos::without_chaos(|| {
                            AtpgSolver::new(&nl)
                                .expect("lower")
                                .generate_test(f, &Budget::unlimited())
                                .expect("query")
                        });
                        assert_eq!(fresh, FaultTestOutcome::Untestable, "seed {seed:#x} {f:?}");
                    }
                }
            }
            // ATPG's outcomes do not depend on the worker count
            match &reference {
                Some(r) => assert_eq!(&outcomes, r, "seed {seed:#x} workers={workers}"),
                None => reference = Some(outcomes),
            }
        }
    }
    assert!(
        aborted > 0,
        "the pinned seeds must abort at least one query"
    );
}

#[test]
fn chaos_suspended_attack_resumes_chaos_free_to_the_straight_through_key() {
    let original = c17();
    let locked = xor_lock(&original, 8, 7);
    let oracle = |x: &[bool]| original.evaluate(x);
    // the straight-through reference and the resume below run under
    // `without_chaos`, which overrides an ambient SECEDA_CHAOS
    let straight: SatAttackResult = chaos::without_chaos(|| {
        match sat_attack_budgeted(&locked, oracle, &Budget::unlimited(), None).expect("attack runs")
        {
            SatAttackOutcome::Complete(r) => r,
            other => panic!("unbudgeted c17 attack must complete: {other:?}"),
        }
    });
    // a limited (but ample) budget makes every constituent solve
    // chaos-eligible; ~1/8 of them report injected exhaustion, so some
    // seed in the pinned list suspends the attack mid-flight
    let ample = Budget::unlimited().with_max_conflicts(1 << 20);
    let mut suspensions = 0usize;
    for seed in VERIFY_SEEDS {
        let outcome = chaos::with_seed(seed, || {
            sat_attack_budgeted(&locked, oracle, &ample, None).expect("attack runs")
        });
        match outcome {
            SatAttackOutcome::Complete(r) => {
                assert_eq!(r.key, straight.key, "seed {seed:#x}: key diverged");
                assert_eq!(r.iterations, straight.iterations, "seed {seed:#x}");
            }
            SatAttackOutcome::Suspended { checkpoint, .. } => {
                suspensions += 1;
                let resumed = chaos::without_chaos(|| {
                    sat_attack_budgeted(&locked, oracle, &Budget::unlimited(), Some(&checkpoint))
                        .expect("resume runs")
                });
                match resumed {
                    SatAttackOutcome::Complete(r) => {
                        assert_eq!(r.key, straight.key, "seed {seed:#x}: key diverged");
                        assert_eq!(
                            r.iterations, straight.iterations,
                            "seed {seed:#x}: iteration count diverged"
                        );
                    }
                    other => panic!("chaos-free resume must complete: {other:?}"),
                }
            }
            SatAttackOutcome::NoKey => panic!("seed {seed:#x}: attack lost the key"),
        }
    }
    assert!(
        suspensions > 0,
        "at least one pinned seed must actually suspend the attack"
    );
}

#[test]
fn ambient_env_chaos_is_survivable_end_to_end() {
    // under `SECEDA_CHAOS=<seed>` (as verify.sh runs this suite) the
    // harness is ambient-active; without it, nothing fires. Either way
    // the whole pipeline must complete without an escaping panic:
    // parses return typed results, evaluations degrade per-threat, and
    // budgeted attacks complete or suspend with a checkpoint.
    let text = write_bench(&c17());
    let _ = parse_design(&text, DesignFormat::Bench);
    let mut engine =
        CompositionEngine::new(DesignUnderTest::new(c17()), SecurityEvaluation::default());
    let report = engine
        .evaluate("ambient chaos")
        .expect("evaluation completes");
    assert_eq!(report.metrics.len(), 4);
    let original = c17();
    let locked = xor_lock(&original, 8, 7);
    let outcome = sat_attack_budgeted(
        &locked,
        |x: &[bool]| original.evaluate(x),
        &Budget::unlimited().with_max_conflicts(1 << 20),
        None,
    )
    .expect("attack runs");
    match outcome {
        SatAttackOutcome::Complete(_) | SatAttackOutcome::Suspended { .. } => {}
        SatAttackOutcome::NoKey => panic!("c17 attack must not lose the key"),
    }
}
