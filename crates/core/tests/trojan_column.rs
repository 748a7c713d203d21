//! The Trojan column on one rare-net rule: the Trojan designer, the
//! MERO test generator, the runtime monitor, the secure flow's surface
//! note and the composition engine's Trojan metric all select rare nets
//! through `seceda_trojan::rare_signals`. The pinned values were taken
//! before the consumers shared that function, so they show the move
//! changed no selection; the last test holds the engine's metric and
//! its monitor to one estimate of each design state.

use seceda_core::{
    run_secure_flow, CompositionEngine, Countermeasure, DesignUnderTest, EvalCache,
    SecurityEvaluation,
};
use seceda_netlist::{random_circuit, Netlist, RandomCircuitConfig};
use seceda_trojan::{
    generate_mero_tests, insert_rare_event_monitor, insert_trojan, instrument, rare_signals,
    MeroConfig, TrojanConfig,
};
use std::sync::Arc;

/// The 150-gate host of the selection-memo suite.
fn host() -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 10,
        num_gates: 150,
        num_outputs: 4,
        with_xor: true,
        seed: 0x5E1,
    })
}

/// The Trojan victim of the `supply_chain` example.
fn victim() -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_gates: 150,
        num_inputs: 12,
        num_outputs: 6,
        with_xor: false,
        ..RandomCircuitConfig::default()
    })
}

/// `(net index, rare value)` pairs.
fn indexed(pairs: &[(seceda_netlist::NetId, bool)]) -> Vec<(usize, bool)> {
    pairs.iter().map(|&(n, v)| (n.index(), v)).collect()
}

#[test]
fn the_monitor_watches_the_pinned_rare_nets() {
    // the engine's monitor parameters: width 1, threshold 0.05, seed ^ 4
    let seed = SecurityEvaluation::default().seed ^ 4;
    let monitored = insert_rare_event_monitor(&host(), 1, usize::MAX, 0.05, seed).expect("monitor");
    let watched: Vec<(usize, bool)> = monitored.watched.iter().flat_map(|g| indexed(g)).collect();
    assert_eq!(
        watched,
        [
            (16, false),
            (29, true),
            (39, false),
            (67, false),
            (69, true),
            (72, true),
            (73, true),
            (78, false),
            (96, true),
            (100, false),
            (101, false),
            (117, true),
            (121, false),
            (125, false),
            (142, false),
            (155, true),
            (89, true),
            (114, true),
            (112, true),
        ]
    );
}

#[test]
fn the_trojan_designer_picks_the_pinned_trigger() {
    let trojan = insert_trojan(&victim(), &TrojanConfig::default()).expect("insert");
    assert_eq!(
        indexed(&trojan.trigger),
        [(86, true), (151, true), (54, true)]
    );
    assert_eq!(trojan.trigger_net.index(), 162);
    let witness: String = trojan
        .activation_example
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    assert_eq!(witness, "101110111000");
}

#[test]
fn mero_targets_the_pinned_rare_nodes_in_gate_order() {
    let tests = generate_mero_tests(&victim(), &MeroConfig::default()).expect("mero");
    assert_eq!(tests.patterns.len(), 43);
    let nets: Vec<usize> = tests.rare_nodes.iter().map(|&(n, _)| n.index()).collect();
    assert_eq!(
        nets,
        [
            13, 15, 18, 20, 21, 23, 24, 25, 27, 28, 30, 31, 32, 33, 37, 38, 40, 43, 44, 45, 46, 47,
            48, 49, 50, 51, 54, 55, 56, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72,
            73, 74, 76, 78, 79, 80, 81, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 97, 98, 99,
            101, 102, 106, 107, 108, 109, 110, 111, 112, 114, 115, 117, 118, 119, 120, 121, 122,
            124, 125, 126, 127, 128, 129, 130, 131, 132, 134, 136, 137, 138, 139, 140, 141, 142,
            144, 145, 146, 147, 148, 149, 150, 151, 153, 154, 155, 156, 157, 158, 159, 160
        ]
    );
    let polarities: String = tests
        .rare_nodes
        .iter()
        .map(|&(_, v)| if v { '1' } else { '0' })
        .collect();
    assert_eq!(polarities, "01001000110001010000011111110000111110101001001111100100001111011110111000110001000011010100000101111010111110010000");
}

#[test]
fn the_secure_flow_notes_the_pinned_surface() {
    let design = random_circuit(&RandomCircuitConfig {
        num_gates: 100,
        num_inputs: 10,
        num_outputs: 5,
        ..RandomCircuitConfig::default()
    });
    let report = run_secure_flow(&design).expect("flow");
    let surface = report
        .security
        .metrics
        .iter()
        .find(|m| m.name == "rare-net Trojan surface")
        .expect("surface note");
    assert_eq!(surface.value.value(), 4.0);
}

#[test]
fn the_trojan_metric_counts_what_the_monitor_watches() {
    let nl = host();
    let eval = SecurityEvaluation {
        fia_shots: 20,
        ..SecurityEvaluation::default()
    };
    let selection = rare_signals(&nl, 64, eval.rare_threshold, eval.seed ^ 4).expect("select");
    let toggling = selection.iter().filter(|s| s.rarity > 0.0).count();
    assert!(toggling > 0, "the host has a Trojan surface to count");
    let expected = instrument(&nl, &selection, 1, usize::MAX).netlist;
    let cache = Arc::new(EvalCache::new());
    for cached in [false, true] {
        let dut = DesignUnderTest::new(nl.clone());
        let mut engine = if cached {
            CompositionEngine::with_cache(dut, eval, cache.clone())
        } else {
            CompositionEngine::new(dut, eval)
        };
        let report = engine.evaluate("baseline").expect("eval");
        let surface = report
            .metrics
            .iter()
            .find(|m| m.name == "unmonitored rare nets")
            .expect("trojan metric");
        assert_eq!(surface.value.value(), toggling as f64, "cached: {cached}");
        engine
            .apply(Countermeasure::TrojanMonitor)
            .expect("monitor");
        assert_eq!(*engine.design().netlist, expected, "cached: {cached}");
    }
}
