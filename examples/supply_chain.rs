//! Supply-chain security scenario: a design is locked against an
//! untrusted foundry, split-manufactured, screened for Trojans, and its
//! scan infrastructure hardened — every scheme evaluated against its
//! matching attack.
//!
//! ```sh
//! cargo run --example supply_chain
//! cargo run --example supply_chain -- path/to/design.bench
//! ```
//!
//! With a design file argument, section 1 (locking vs the SAT attack)
//! runs on the external design instead of the built-in c17.

use seceda_dft::{scan_attack_recover_key, scan_victim, secure_scan_wrap};
use seceda_layout::{
    lift_wires, place, proximity_attack, route, split_at, PlacementConfig, RouteConfig,
};
use seceda_lock::{output_corruption, sat_attack, sfll_hd0, xor_lock};
use seceda_netlist::{c17, parse_design_path, random_circuit, RandomCircuitConfig};
use seceda_trojan::{
    generate_mero_tests, insert_trojan, trigger_coverage, MeroConfig, TrojanConfig,
};

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== 1. logic locking vs the SAT attack ===");
    let nl = match std::env::args().nth(1) {
        Some(path) => {
            let parsed = parse_design_path(&path)?;
            println!(
                "external design {}: {} gates, {} inputs",
                parsed.name(),
                parsed.num_gates(),
                parsed.inputs().len()
            );
            parsed
        }
        None => c17(),
    };
    let xor = xor_lock(&nl, 8, 42);
    let corruption = output_corruption(&xor, 20, 20, 43);
    println!(
        "XOR locking, 8 key bits: avg output corruption {:.2}",
        corruption.avg_output_corruption
    );
    let oracle = |x: &[bool]| nl.evaluate(x);
    let attack = sat_attack(&xor, oracle)?.expect("key recovered");
    println!(
        "  -> SAT attack recovers a working key in {} oracle queries",
        attack.iterations
    );
    let protected: Vec<bool> = (0..nl.inputs().len()).map(|i| i % 2 == 0).collect();
    let sfll = sfll_hd0(&nl, &protected);
    let sfll_attack = sat_attack(&sfll, oracle)?.expect("key recovered");
    println!(
        "SFLL-HD0 resists: the attack needs {} queries (~2^inputs)",
        sfll_attack.iterations
    );

    println!("\n=== 2. split manufacturing vs the proximity attack ===");
    let host = random_circuit(&RandomCircuitConfig {
        num_gates: 120,
        num_inputs: 10,
        num_outputs: 6,
        ..RandomCircuitConfig::default()
    });
    let placement = place(&host, &PlacementConfig::default());
    let routed = route(&host, &placement, &RouteConfig::default());
    for split in [2u8, 3, 4, 5] {
        let view = split_at(&routed, split);
        let result = proximity_attack(&host, &view);
        println!(
            "  split at M{split}: {:>3} hidden wires, attacker CCR {:.2}",
            view.hidden.len(),
            result.ccr
        );
    }
    let hidden_nets: Vec<_> = split_at(&routed, 3)
        .hidden
        .iter()
        .map(|h| h.wire.net)
        .collect();
    let (lifted, cost) = lift_wires(&routed, &hidden_nets, 6);
    let lifted_ccr = proximity_attack(&host, &split_at(&lifted, 3)).ccr;
    println!("  wire lifting (cost {cost} via units): CCR drops to {lifted_ccr:.2}");

    println!("\n=== 3. Trojan insertion vs MERO test generation ===");
    let victim = random_circuit(&RandomCircuitConfig {
        num_gates: 150,
        num_inputs: 12,
        num_outputs: 6,
        with_xor: false,
        ..RandomCircuitConfig::default()
    });
    let trojan = insert_trojan(&victim, &TrojanConfig::default())?;
    println!(
        "inserted a {}-signal rare trigger (payload: {:?})",
        trojan.trigger.len(),
        trojan.payload
    );
    let tests = generate_mero_tests(&victim, &MeroConfig::default())?;
    let coverage = trigger_coverage(&victim, &tests, 2, 200, 7)?;
    println!(
        "MERO: {} patterns, {:.0}% coverage of sampled 2-node triggers",
        tests.patterns.len(),
        coverage * 100.0
    );
    let fired = tests.patterns.iter().any(|p| trojan.trigger_fires(p));
    println!("  -> the inserted Trojan is excited by the test set: {fired}");

    println!("\n=== 4. scan-chain attack vs secure scan ===");
    let key = 0x42u8;
    let chip = scan_victim(key);
    let recovered = scan_attack_recover_key(&chip, 0xA7);
    println!("plain scan chain: attacker recovers key {recovered:#04x} (true {key:#04x})");
    let secured = secure_scan_wrap(scan_victim(key), 0xBEEF);
    let inputs = seceda_netlist::u64_to_bits(0xA7, 8);
    let (_, state) = secured.capture(&[false; 8], &inputs);
    let scrambled = secured.dump_scrambled(&state, &inputs);
    println!(
        "secure scan: dump is keyed-scrambled ({} bits of noise to the attacker)",
        scrambled.len()
    );
    Ok(())
}
