//! Fault-simulate an external design: packed stuck-at coverage and
//! signal-probability profiling for any `.bench` / `.v` netlist.
//!
//! ```sh
//! cargo run --example fault_coverage -- crates/netlist/tests/data/c17.bench
//! cargo run --example fault_coverage            # built-in c17
//! ```

use seceda_netlist::{c17, parse_design_path, NetlistStats};
use seceda_sim::fault::stuck_at_universe;
use seceda_sim::FaultSim;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
use seceda_trojan::rare_signals;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let nl = match std::env::args().nth(1) {
        Some(path) => parse_design_path(&path)?,
        None => c17(),
    };
    let stats = NetlistStats::of(&nl);
    println!(
        "design {}: {} gates, {} inputs, {} outputs",
        nl.name(),
        stats.num_gates,
        stats.num_inputs,
        stats.num_outputs
    );
    if stats.num_dffs > 0 {
        println!("(sequential design: fault grading covers the combinational core)");
    }

    let faults = stuck_at_universe(&nl);
    let mut rng = StdRng::seed_from_u64(1);
    let patterns: Vec<Vec<bool>> = (0..256)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    let sim = FaultSim::new(&nl)?;
    let (detected, coverage) = sim.coverage(&patterns, &faults);
    println!(
        "stuck-at coverage: {:.1}% of {} faults with {} random patterns",
        coverage * 100.0,
        faults.len(),
        patterns.len()
    );
    let undetected = detected.iter().filter(|&&d| !d).count();
    println!("undetected faults: {undetected}");

    let rare = rare_signals(&nl, 8, 0.05, 2)?.len();
    println!(
        "signal probabilities: {rare} of {} gate outputs are rare (min(p, 1 − p) ≤ 0.05) — Trojan trigger candidates",
        stats.num_gates
    );
    Ok(())
}
