//! Differential suite for the incremental closure machinery: a cached
//! composition engine must produce **bit-identical** reports to a
//! full-recompute engine at every step of every schedule — across
//! designs, random countermeasure sequences, worker counts, and chaos
//! injection. This is the contract that makes the evaluation cache
//! admissible at all.
//!
//! Chaos scopes are per thread (and inherited by `par` workers), so a
//! chaos test here never arms chaos in a concurrently running clean one.

use seceda_core::{
    run_closure, run_closure_full, ClosureConfig, ClosureSession, CompositionEngine,
    Countermeasure, DesignUnderTest, EvalCache, MetricSource, SecurityEvaluation, Verdict,
};
use seceda_netlist::{
    c17, parse_design, random_circuit, ripple_adder, write_bench, DesignFormat, Netlist,
    RandomCircuitConfig,
};
use seceda_testkit::chaos;
use seceda_testkit::par::with_workers;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// Countermeasure pool for the random schedules. Masking is excluded
/// here because exact probing only scales to gadget-sized interfaces
/// (`first_order_leaks` bounds the variable count); the masking paths
/// are exercised by the dedicated gadget tests below and in
/// `closure.rs`.
fn random_countermeasure(rng: &mut StdRng) -> Countermeasure {
    match rng.gen_range(0..5u32) {
        0 => Countermeasure::XorLock(4),
        1 => Countermeasure::XorLock(8),
        2 => Countermeasure::ParityCheck,
        3 => Countermeasure::DuplicationCompare,
        _ => Countermeasure::TrojanMonitor,
    }
}

/// Drives a cached engine and a full-recompute engine through the same
/// random schedule, asserting identical reports at every step.
fn differential(design: Netlist, seed: u64, steps: usize) {
    let eval = SecurityEvaluation {
        fia_shots: 20,
        ..SecurityEvaluation::default()
    };
    let cache = Arc::new(EvalCache::new());
    let mut cached =
        CompositionEngine::with_cache(DesignUnderTest::new(design.clone()), eval, cache.clone());
    let mut full = CompositionEngine::new(DesignUnderTest::new(design), eval);

    let a = cached.evaluate("baseline").expect("cached eval").clone();
    let b = full.evaluate("baseline").expect("full eval").clone();
    assert_eq!(a, b, "seed {seed:#x}: baseline diverged");

    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..steps {
        let cm = random_countermeasure(&mut rng);
        let oc = cached.apply(cm).expect("cached apply");
        let of = full.apply(cm).expect("full apply");
        // SecurityReport equality covers label + every metric bit;
        // provenance is deliberately outside the equality
        assert_eq!(
            oc.report, of.report,
            "seed {seed:#x} step {step} ({cm:?}): reports diverged"
        );
        assert_eq!(oc.regressions, of.regressions, "seed {seed:#x} step {step}");
        // only the cached engine maintains a hash, so only it can
        // report the dirty cone
        assert!(oc.dirty_gates.is_some(), "seed {seed:#x} step {step}");
        assert!(of.dirty_gates.is_none(), "seed {seed:#x} step {step}");
    }
    assert_eq!(cached.history().len(), full.history().len());
}

#[test]
fn cached_matches_full_on_bench_designs() {
    differential(c17(), 0xC17, 5);
    differential(ripple_adder(8), 0xADD, 5);
}

#[test]
fn cached_matches_full_on_random_designs() {
    for seed in [7u64, 8] {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 10,
            num_gates: 150,
            num_outputs: 4,
            with_xor: true,
            seed,
        });
        differential(nl, seed, 6);
    }
}

#[test]
fn cached_matches_full_on_parsed_designs() {
    // a design that went through the .bench round-trip (internal nets
    // renamed) must cache exactly like the built original
    let nl = ripple_adder(8);
    let reparsed = parse_design(&write_bench(&nl), DesignFormat::Bench).expect("parse");
    differential(reparsed, 0xBE9C, 5);
}

#[test]
fn cached_matches_full_across_worker_counts() {
    for workers in [1usize, 4] {
        with_workers(workers, || differential(c17(), 0x440 + workers as u64, 4));
    }
}

#[test]
fn cached_matches_full_under_chaos() {
    // chaos decisions are pure functions of (seed, point, salt) and the
    // engine checks them *before* the cache lookup, so a cached closure
    // must degrade on exactly the same steps as a full recompute — the
    // verify.sh chaos seeds are the ones that matter
    for seed in [0xDEAD_BEEFu64, 0xCAFE] {
        chaos::with_seed(seed, || differential(c17(), seed, 4));
    }
}

#[test]
fn degraded_metrics_are_recomputed_not_served() {
    let cache = Arc::new(EvalCache::new());
    let eval = SecurityEvaluation::default();
    let mut engine =
        CompositionEngine::with_cache(DesignUnderTest::new(c17()), eval, cache.clone());
    // salt 1 pins the fault-injection evaluator: it panics, degrades,
    // and must NOT be published to the cache
    chaos::with_forced("compose.threat.panic", Some(1), || {
        let report = engine.evaluate("chaotic").expect("eval").clone();
        assert_eq!(report.degraded().len(), 1);
        assert_eq!(report.degraded()[0].name, "fault-detection coverage");
    });
    // once the scope ends the same key recomputes to a real value; the
    // three clean metrics come straight from the cache
    let report = engine.evaluate("recovered").expect("eval").clone();
    assert!(report.degraded().is_empty(), "stale degradation served");
    assert_eq!(
        report.cached_count(),
        3,
        "provenance: {:?}",
        report.provenance
    );
    let fia = report
        .provenance
        .iter()
        .find(|p| p.name == "fault-detection coverage")
        .expect("provenance present");
    assert_eq!(fia.source, MetricSource::Computed);
}

#[test]
fn second_identical_session_is_all_hits() {
    let cache = Arc::new(EvalCache::new());
    let eval = SecurityEvaluation::default();
    let schedule = [Countermeasure::XorLock(8), Countermeasure::TrojanMonitor];
    let run = || {
        let mut engine =
            CompositionEngine::with_cache(DesignUnderTest::new(c17()), eval, cache.clone());
        engine.evaluate("baseline").expect("eval");
        for cm in schedule {
            engine.apply(cm).expect("apply");
        }
        engine.history().last().expect("report").clone()
    };
    let first = run();
    let before = cache.stats();
    let second = run();
    let after = cache.stats();
    assert_eq!(first, second);
    assert_eq!(
        after.misses, before.misses,
        "a replayed session must not compute anything"
    );
    assert_eq!(second.cached_count(), 4, "{:?}", second.provenance);
}

/// Runs the same portfolio through the cached closure driver and the
/// full-recompute one, at one and at four workers, and requires
/// identical final reports, applied steps and rollbacks per session.
fn assert_closure_matches_full_recompute(
    mk: impl Fn() -> Vec<ClosureSession>,
    config: &ClosureConfig,
) {
    for workers in [1usize, 4] {
        with_workers(workers, || {
            let cached = run_closure(mk(), config).expect("cached closure");
            let full = run_closure_full(mk(), config).expect("full closure");
            assert_eq!(cached.sessions.len(), full.sessions.len());
            for (c, f) in cached.sessions.iter().zip(&full.sessions) {
                assert_eq!(c.label, f.label);
                assert_eq!(c.final_report.metrics, f.final_report.metrics);
                assert_eq!(c.applied, f.applied);
                assert_eq!(c.rolled_back, f.rolled_back);
            }
            assert!(
                cached.cache.hits > 0,
                "shared prefixes must hit: {:?}",
                cached.cache
            );
            assert_eq!(full.cache.hits, 0);
        });
    }
}

#[test]
fn closure_driver_matches_full_recompute_on_a_portfolio() {
    // several sessions with shared prefixes over one design family
    let designs = [c17(), ripple_adder(4)];
    let schedules: [&[Countermeasure]; 3] = [
        &[Countermeasure::XorLock(8), Countermeasure::TrojanMonitor],
        &[
            Countermeasure::XorLock(8),
            Countermeasure::ParityCheck,
            Countermeasure::TrojanMonitor,
        ],
        &[
            Countermeasure::DuplicationCompare,
            Countermeasure::XorLock(4),
        ],
    ];
    let mk = || {
        let mut sessions = Vec::new();
        for (i, d) in designs.iter().enumerate() {
            for (j, s) in schedules.iter().enumerate() {
                sessions.push(ClosureSession::new(
                    format!("d{i}s{j}"),
                    DesignUnderTest::new(d.clone()),
                    s.to_vec(),
                ));
            }
        }
        sessions
    };
    let config = ClosureConfig {
        eval: SecurityEvaluation {
            fia_shots: 20,
            ..SecurityEvaluation::default()
        },
        ..ClosureConfig::default()
    };
    assert_closure_matches_full_recompute(mk, &config);

    // the shape real sign-off campaigns take, at full evaluation
    // effort: one 300-gate design, four sessions of six
    // countermeasures that share a four-step hardening prefix and
    // vary a two-step suffix
    use Countermeasure::{ParityCheck, TrojanMonitor, XorLock};
    let design = random_circuit(&RandomCircuitConfig {
        num_inputs: 24,
        num_gates: 300,
        num_outputs: 12,
        with_xor: true,
        seed: 5,
    });
    let prefix = [XorLock(4), TrojanMonitor, XorLock(2), ParityCheck];
    let suffixes = [
        [XorLock(2), TrojanMonitor],
        [TrojanMonitor, XorLock(2)],
        [XorLock(4), TrojanMonitor],
        [TrojanMonitor, XorLock(4)],
    ];
    let mk = || {
        suffixes
            .iter()
            .enumerate()
            .map(|(i, suffix)| {
                ClosureSession::new(
                    format!("s{i}"),
                    DesignUnderTest::new(design.clone()),
                    prefix.iter().chain(suffix).copied().collect(),
                )
            })
            .collect()
    };
    assert_closure_matches_full_recompute(mk, &ClosureConfig::default());
}

#[test]
fn masked_gadget_caches_without_losing_the_cross_effect() {
    // the paper's masking/parity conflict must survive caching: the
    // regression is re-detected from cached metrics bit-identically
    let mut nl = Netlist::new("and");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let y = nl.add_gate(seceda_netlist::CellKind::And, &[a, b]);
    nl.mark_output(y, "y");
    let eval = SecurityEvaluation::default();
    let cache = Arc::new(EvalCache::new());
    let mut cached =
        CompositionEngine::with_cache(DesignUnderTest::new(nl.clone()), eval, cache.clone());
    let mut full = CompositionEngine::new(DesignUnderTest::new(nl), eval);
    for engine in [&mut cached, &mut full] {
        engine.evaluate("baseline").expect("eval");
        engine.apply(Countermeasure::Masking).expect("mask");
    }
    let oc = cached.apply(Countermeasure::ParityCheck).expect("parity");
    let of = full.apply(Countermeasure::ParityCheck).expect("parity");
    assert_eq!(oc.report, of.report);
    assert!(oc
        .regressions
        .contains(&"first-order probing leaks".to_string()));
    let sca = oc
        .report
        .metrics
        .iter()
        .find(|m| m.name == "first-order probing leaks")
        .expect("metric");
    assert_eq!(sca.verdict, Verdict::Fail);
}
