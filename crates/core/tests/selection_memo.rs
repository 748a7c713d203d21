//! The rare-signal selection memo in `EvalCache`, shared by the Trojan
//! evaluation and `TrojanMonitor`: each distinct (design, threshold,
//! seed) selection is simulated once per cache, at any worker count, a
//! failed selection publishes nothing, and a memoized selection builds
//! the same design as an uncached engine.
//!
//! Every test runs its whole body inside one `seceda_trace::session`,
//! so the tests of this file serialize and each reads only its own
//! `compose.select_*` counters.

use seceda_core::{
    run_closure, run_closure_full, ClosureConfig, ClosureSession, CompositionEngine,
    Countermeasure, DesignUnderTest, EvalCache, SecurityEvaluation,
};
use seceda_netlist::{random_circuit, Netlist, RandomCircuitConfig};
use seceda_testkit::chaos;
use seceda_testkit::par::with_workers;
use seceda_trace::{Event, Summary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn design() -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 10,
        num_gates: 150,
        num_outputs: 4,
        with_xor: true,
        seed: 0x5E1,
    })
}

fn eval() -> SecurityEvaluation {
    SecurityEvaluation {
        fia_shots: 20,
        ..SecurityEvaluation::default()
    }
}

/// The traced `(compose.select_hits, compose.select_misses)`.
fn selections(events: &[Event]) -> (u64, u64) {
    let counters = Summary::of(events).counters;
    let read = |name| counters.get(name).copied().unwrap_or(0);
    (read("compose.select_hits"), read("compose.select_misses"))
}

#[test]
fn sessions_sharing_states_select_each_state_once() {
    use Countermeasure::{TrojanMonitor, XorLock};
    let nl = design();
    let mk = || {
        (0..3)
            .map(|i| {
                ClosureSession::new(
                    format!("s{i}"),
                    DesignUnderTest::new(nl.clone()),
                    vec![TrojanMonitor, XorLock(4), TrojanMonitor],
                )
            })
            .collect::<Vec<_>>()
    };
    let config = ClosureConfig {
        eval: eval(),
        ..ClosureConfig::default()
    };
    seceda_trace::session(|| {
        for workers in [1usize, 8] {
            with_workers(workers, || {
                let full = run_closure_full(mk(), &config).expect("full closure");
                drop(seceda_trace::drain());
                let cached = run_closure(mk(), &config).expect("cached closure");
                let (hits, misses) = selections(&seceda_trace::drain());
                for (c, f) in cached.sessions.iter().zip(&full.sessions) {
                    assert_eq!(c.final_report.metrics, f.final_report.metrics);
                    assert_eq!(c.applied, f.applied);
                    assert_eq!(c.rolled_back, f.rolled_back);
                }
                // two distinct states: the root and the state after
                // the first monitor and the lock; the root's one Trojan
                // evaluation and the six monitors look them up
                assert_eq!(misses, 2, "{workers} workers");
                assert_eq!(hits + misses, 7, "{workers} workers");
            });
        }
    });
}

#[test]
fn a_panicking_selection_publishes_nothing() {
    let nl = design();
    let cache = Arc::new(EvalCache::new());
    let cached_engine =
        || CompositionEngine::with_cache(DesignUnderTest::new(nl.clone()), eval(), cache.clone());
    seceda_trace::session(|| {
        // an engine that has not evaluated yet: no Trojan evaluation
        // published the selection, so the selection's signal-probability
        // run is the only par work in this apply
        let mut engine = cached_engine();
        let panicked = chaos::with_forced("par.worker", None, || {
            catch_unwind(AssertUnwindSafe(|| {
                engine.apply(Countermeasure::TrojanMonitor)
            }))
        });
        let payload = panicked.expect_err("the forced par.worker panic unwinds out of apply");
        let message = payload
            .downcast_ref::<String>()
            .expect("chaos panics carry a String");
        assert!(message.contains("par.worker"), "{message}");
        // the lookup never returned, so it traced nothing
        assert_eq!(selections(&seceda_trace::drain()), (0, 0));

        // a fresh engine over the same cache selects again: its Trojan
        // evaluation misses, and its monitor reads what that published
        let mut fresh = cached_engine();
        fresh.evaluate("baseline").expect("eval");
        let oc = fresh.apply(Countermeasure::TrojanMonitor).expect("apply");
        assert_eq!(selections(&seceda_trace::drain()), (1, 1));

        let mut full = CompositionEngine::new(DesignUnderTest::new(nl.clone()), eval());
        full.evaluate("baseline").expect("eval");
        let of = full.apply(Countermeasure::TrojanMonitor).expect("apply");
        assert_eq!(oc.report, of.report);
        assert_eq!(fresh.design(), full.design());
    });
}
