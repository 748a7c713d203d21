//! Regenerates the quantitative series of the reproduction: the Fig. 2
//! experiment and the Sec. IV step-metric sweeps.
//!
//! ```sh
//! cargo run --release --example sweeps
//! ```

use seceda_core::explore;
use seceda_layout::{place, proximity_attack, route, split_at, PlacementConfig, RouteConfig};
use seceda_lock::{sat_attack, xor_lock};
use seceda_netlist::{c17, random_circuit, CellKind, Netlist, NetlistStats, RandomCircuitConfig};
use seceda_puf::{collect_crps, model_arbiter_puf, ArbiterPuf, ArbiterPufConfig};
use seceda_sca::{
    acquire_fixed_vs_random, first_order_leaks, mask_netlist, tvla, MaskedNetlist, ProbingModel,
    TraceCampaign,
};
use seceda_synth::{reassociate, SynthesisMode};

fn main() {
    // --- Fig. 2 ---
    // the target: c = a AND b on secret a, b, under 3-share ISW masking
    let mut nl = Netlist::new("and");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let y = nl.add_gate(CellKind::And, &[a, b]);
    nl.mark_output(y, "y");
    let masked = mask_netlist(&nl);
    let model = ProbingModel::of(&masked);
    let (classical, report) = reassociate(&masked.netlist, SynthesisMode::Classical);
    println!("=== Fig. 2: ISW AND gadget vs security-unaware synthesis ===");
    println!(
        "probing leaks: designed {} | classical synthesis ({} factorings) {}",
        first_order_leaks(&masked.netlist, &model).len(),
        report.factorings,
        first_order_leaks(&classical, &model).len()
    );
    println!("\nTVLA max|t| vs trace count (threshold 4.5):");
    println!("{:>8} {:>12} {:>12}", "traces", "secure", "broken");
    for traces in [200usize, 500, 1000, 2000, 5000] {
        let campaign = TraceCampaign {
            traces_per_group: traces,
            ..TraceCampaign::default()
        };
        let ok = acquire_fixed_vs_random(&masked, &[true, true], &campaign).expect("traces");
        let broken = MaskedNetlist {
            netlist: classical.clone(),
            ..masked.clone()
        };
        let bad = acquire_fixed_vs_random(&broken, &[true, true], &campaign).expect("traces");
        println!(
            "{:>8} {:>12.2} {:>12.2}",
            traces,
            tvla(&ok.fixed, &ok.random).max_abs_t,
            tvla(&bad.fixed, &bad.random).max_abs_t
        );
    }

    // --- step metrics ---
    println!("\n=== Sec. IV: step-function metrics ===");
    let nl = c17();
    let sat = explore(
        "SAT-attack queries vs key width (XOR locking)",
        &[2.0, 4.0, 8.0, 16.0, 24.0, 32.0],
        |bits| {
            let locked = xor_lock(&nl, bits as usize, 5);
            sat_attack(&locked, |x| nl.evaluate(x))
                .expect("attack")
                .expect("key")
                .iterations as f64
        },
    );
    let area = explore(
        "area (GE) vs key width",
        &[2.0, 4.0, 8.0, 16.0, 24.0, 32.0],
        |bits| NetlistStats::of(&xor_lock(&nl, bits as usize, 5).netlist).area_ge,
    );

    let host = random_circuit(&RandomCircuitConfig {
        num_gates: 120,
        num_inputs: 10,
        num_outputs: 6,
        ..RandomCircuitConfig::default()
    });
    let placement = place(&host, &PlacementConfig::default());
    let routed = route(&host, &placement, &RouteConfig::default());
    let ccr = explore(
        "proximity-attack CCR vs split layer",
        &[2.0, 3.0, 4.0, 5.0, 6.0],
        |layer| proximity_attack(&host, &split_at(&routed, layer as u8)).ccr,
    );

    let config = ArbiterPufConfig {
        noise_sigma: 0.0,
        ..ArbiterPufConfig::default()
    };
    let puf = ArbiterPuf::manufacture(&config, 99);
    let test = collect_crps(|c| puf.respond_ideal(c), 32, 400, 1);
    let puf_sweep = explore(
        "PUF modeling accuracy vs training CRPs",
        &[10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0],
        |n| {
            let train = collect_crps(|c| puf.respond_ideal(c), 32, n as usize, 2);
            model_arbiter_puf(&train, &test, 25, 0.1).accuracy
        },
    );

    for sweep in [&sat, &ccr, &puf_sweep, &area] {
        println!("\n{} (step score {:.2}):", sweep.name, sweep.step_score());
        for p in &sweep.points {
            println!("  {:>8.0} -> {:>10.3}", p.parameter, p.metric);
        }
    }
    println!(
        "\nsecurity metrics concentrate their change (step scores {:.2}, {:.2}, {:.2});",
        sat.step_score(),
        ccr.step_score(),
        puf_sweep.step_score()
    );
    println!("the PPA area curve does not ({:.2}).", area.step_score());
}
