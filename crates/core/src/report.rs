//! Regeneration of the paper's Table I and Table II as *measured*
//! artifacts.
//!
//! The paper's tables are qualitative: they name, per design stage and
//! threat vector, the schemes EDA could integrate. Our reproduction runs
//! an actual experiment behind every cell and prints the measured
//! evidence next to the scheme name.

use crate::threat::ThreatVector;
use seceda_cipher::sbox_first_round_registered;
use seceda_dft::{
    insert_scan_chain, run_bist, scan_attack_recover_key, scan_victim, secure_scan_wrap,
    BistConfig, DfxController,
};
use seceda_fia::{
    analyze_faults, duplicate_with_compare, infective_transform, FaultCampaign, FaultVerdict,
    InjectionModel,
};
use seceda_hls::{
    add_metering, asap, estimate_leakage_bits, flush_plan, self_authentication_fill,
    taint_analysis, Dfg, Op,
};
use seceda_layout::{
    place, place_sensors, proximity_attack, route, split_at, PlacementConfig, RouteConfig,
};
use seceda_lock::{camouflage, decamouflage, sat_attack, xor_lock};
use seceda_netlist::{c17, majority, CellKind, Netlist};
use seceda_puf::{
    collect_crps as puf_collect_crps, model_arbiter_puf, random_challenges, uniqueness, ArbiterPuf,
    ArbiterPufConfig,
};
use seceda_sat::Budget;
use seceda_sca::{
    acquire_fixed_vs_random, cpa::cpa_attack_with_model, first_order_leaks, leaking_nets,
    mask_netlist, traces::acquire_cpa_traces, tvla, ProbingModel, TraceCampaign, TvlaResult,
    TVLA_THRESHOLD,
};
use seceda_synth::{reassociate, wddl_transform, SynthesisMode};
use seceda_trojan::{
    fingerprint::{fingerprint_detect, golden_fingerprint},
    generate_mero_tests, insert_rare_event_monitor, insert_trojan, trigger_coverage,
    FingerprintConfig, MeroConfig, TrojanConfig,
};
use seceda_verif::{bmc_reach, check_certificate, isolation_certificate, prove_detection};

/// A rendered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers (first column is the row label).
    pub headers: Vec<String>,
    /// Rows: label plus one cell per non-label column.
    pub rows: Vec<(String, Vec<String>)>,
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "## {}", self.title)?;
        writeln!(f, "| {} |", self.headers.join(" | "))?;
        writeln!(
            f,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        )?;
        for (label, cells) in &self.rows {
            writeln!(f, "| {} | {} |", label, cells.join(" | "))?;
        }
        Ok(())
    }
}

fn masked_and_gadget() -> (seceda_sca::MaskedNetlist, ProbingModel) {
    let mut nl = Netlist::new("and");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let y = nl.add_gate(CellKind::And, &[a, b]);
    nl.mark_output(y, "y");
    let masked = mask_netlist(&nl);
    let model = ProbingModel::of(&masked);
    (masked, model)
}

/// Regenerates Table I with a measured evidence column appended.
///
/// # Panics
///
/// Panics only if the underlying experiments hit internal errors.
pub fn table1() -> Table {
    let mut rows = Vec::new();
    for threat in ThreatVector::ALL {
        let times = threat
            .attack_time()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        let roles = threat
            .eda_roles()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        let evidence = match threat {
            ThreatVector::SideChannel => {
                let (masked, model) = masked_and_gadget();
                let intact = first_order_leaks(&masked.netlist, &model).len();
                let (broken, _) = reassociate(&masked.netlist, SynthesisMode::Classical);
                let leaked = first_order_leaks(&broken, &model).len();
                format!(
                    "probing: masked gadget leaks {intact} wires; after classical synthesis {leaked}"
                )
            }
            ThreatVector::FaultInjection => {
                let campaign = FaultCampaign {
                    model: InjectionModel::RandomGate,
                    shots: 60,
                    seed: 3,
                };
                let unprot = analyze_faults(&majority(), None, &campaign, 6, 4).expect("analysis");
                let dwc = duplicate_with_compare(&majority());
                let prot = analyze_faults(&dwc.netlist, dwc.alarm_index, &campaign, 6, 4)
                    .expect("analysis");
                format!(
                    "detection coverage: {:.0}% bare vs {:.0}% with duplication",
                    unprot.detection_coverage * 100.0,
                    prot.detection_coverage * 100.0
                )
            }
            ThreatVector::Piracy => {
                let nl = c17();
                let locked = xor_lock(&nl, 8, 7);
                let result = sat_attack(&locked, |x| nl.evaluate(x))
                    .expect("attack")
                    .expect("key");
                format!(
                    "XOR locking (8 bits) broken by SAT attack in {} oracle queries",
                    result.iterations
                )
            }
            ThreatVector::Trojan => {
                let host = seceda_netlist::random_circuit(&seceda_netlist::RandomCircuitConfig {
                    num_gates: 120,
                    num_inputs: 10,
                    num_outputs: 5,
                    with_xor: false,
                    ..Default::default()
                });
                let config = FingerprintConfig::default();
                let fp = golden_fingerprint(&host, &config).expect("golden");
                let trojan = insert_trojan(&host, &TrojanConfig::default()).expect("insert");
                let mut detections = 0;
                for chip in 0..10 {
                    if fingerprint_detect(&trojan.netlist, &fp, &config, 900 + chip)
                        .expect("measure")
                    {
                        detections += 1;
                    }
                }
                format!("path-delay fingerprint flags {detections}/10 Trojaned chips")
            }
        };
        rows.push((threat.to_string(), vec![times, roles, evidence]));
    }
    Table {
        title: "Table I: security threats for ICs and related roles of EDA (measured)".into(),
        headers: vec![
            "Threat vector".into(),
            "Time of attack".into(),
            "Role of EDA".into(),
            "Measured evidence (this reproduction)".into(),
        ],
        rows,
    }
}

fn hls_cells() -> Vec<String> {
    // SCA: IFT + register flushing
    let mut dfg = Dfg::new("hls_demo");
    let key = dfg.input("key", true);
    let r = dfg.node(Op::Random, &[]);
    let ct = dfg.node(Op::Xor, &[key, r]);
    dfg.output("ct", ct);
    let taint = taint_analysis(&dfg);
    let mi = estimate_leakage_bits(&dfg, 4, 4);
    let mut flush_dfg = Dfg::new("flush_demo");
    let k = flush_dfg.input("key", true);
    let p = flush_dfg.input("pt", false);
    let x = flush_dfg.node(Op::Xor, &[k, p]);
    let y = flush_dfg.node(Op::Mul, &[x, x]);
    let z = flush_dfg.node(Op::Add, &[y, p]);
    flush_dfg.output("ct", z);
    let plan = flush_plan(&flush_dfg, &asap(&flush_dfg));
    let sca = format!(
        "IFT: OTP output untainted={} (MI {mi:.2} bits); flushing cuts residence {}→{}",
        taint.passes(),
        plan.residence_without,
        plan.residence_with
    );

    // FIA: infective countermeasure allocated at HLS
    let inf = infective_transform(&majority());
    let campaign = FaultCampaign {
        model: InjectionModel::RandomGate,
        shots: 60,
        seed: 5,
    };
    let a = analyze_faults(&inf.netlist, inf.alarm_index, &campaign, 6, 6).expect("analysis");
    let fia = format!(
        "infective architecture: {:.0}% of corrupting faults detected/scrambled",
        a.detection_coverage * 100.0
    );

    // piracy: metering
    let metered = add_metering(&flush_dfg, 0xBEEF);
    let good = flush_dfg.run(&[("key".into(), 7), ("pt".into(), 9)], 0);
    let activated = metered.dfg.run(
        &[
            ("key".into(), 7),
            ("pt".into(), 9),
            ("puf_response".into(), 0xBEEF),
        ],
        0,
    );
    let pirated = metered.dfg.run(
        &[
            ("key".into(), 7),
            ("pt".into(), 9),
            ("puf_response".into(), 0),
        ],
        0,
    );
    let piracy = format!(
        "PUF metering: activated correct={}, unactivated correct={}",
        good[0].1 == activated[0].1,
        good[0].1 == pirated[0].1
    );

    // trojans: self-authentication fill
    let auth = self_authentication_fill(&flush_dfg, &asap(&flush_dfg));
    let trojan = format!(
        "self-authentication fills {} idle slots (signature {:#06x})",
        auth.fill_ops, auth.expected_signature
    );
    vec![sca, fia, piracy, trojan]
}

fn logic_synth_cells() -> Vec<String> {
    // SCA: WDDL hiding + leaking-gate identification
    let wddl = wddl_transform(&majority());
    let mut hw = std::collections::BTreeSet::new();
    for pattern in 0..8u32 {
        let inputs: Vec<bool> = (0..3).map(|b| (pattern >> b) & 1 == 1).collect();
        let dual = seceda_synth::WddlNetlist::expand_inputs(&inputs);
        let values = wddl.netlist.eval_nets(&dual, &[]).expect("eval");
        let weight: usize = wddl
            .rails
            .values()
            .map(|&(t, f)| values[t.index()] as usize + values[f.index()] as usize)
            .sum();
        hw.insert(weight);
    }
    let mut leak_demo = Netlist::new("leak");
    let s = leak_demo.add_input("secret");
    let o = leak_demo.add_input("other");
    let w = leak_demo.add_gate(CellKind::Buf, &[s]);
    let m = leak_demo.add_gate(CellKind::Xor, &[s, o]);
    leak_demo.mark_output(w, "w");
    leak_demo.mark_output(m, "m");
    let leaks = leaking_nets(&leak_demo, 0, 300, 0.5, 8).expect("analysis");
    let sca = format!(
        "WDDL: dual-rail HW constant across inputs={}; leaking-gate ID finds {} hot wires",
        hw.len() == 1,
        leaks.len()
    );

    // FIA: automatic fault analysis
    let campaign = FaultCampaign {
        model: InjectionModel::RandomGate,
        shots: 60,
        seed: 9,
    };
    let a = analyze_faults(&c17(), None, &campaign, 6, 10).expect("analysis");
    let fia = format!(
        "automatic fault analysis: {} masked / {} silent corruptions on c17",
        a.masked, a.silent
    );

    // piracy: camouflaging + de-camouflaging attack
    let camo = camouflage(&c17(), 4, 11);
    let de = decamouflage(&camo).expect("attack").expect("assignment");
    let piracy = format!(
        "camouflaging (4 cells) de-camouflaged in {} oracle queries",
        de.iterations
    );

    // trojans: security monitors
    let host = seceda_netlist::random_circuit(&seceda_netlist::RandomCircuitConfig {
        num_gates: 150,
        num_inputs: 12,
        num_outputs: 6,
        with_xor: false,
        ..Default::default()
    });
    let tconfig = TrojanConfig::default();
    let trojaned = insert_trojan(&host, &tconfig).expect("insert");
    let monitored = insert_rare_event_monitor(
        &trojaned.netlist,
        1,
        usize::MAX,
        tconfig.rare_threshold,
        tconfig.seed,
    )
    .expect("instrument");
    let outs = monitored.netlist.evaluate(&trojaned.activation_example);
    let trojan = format!(
        "runtime monitor raises alarm on Trojan activation: {}",
        outs[outs.len() - 1]
    );
    vec![sca, fia, piracy, trojan]
}

/// The physical-synthesis row, plus the TVLA max|t| of its SCA cell for
/// the secure and the broken gadget.
fn physical_cells() -> (Vec<String>, [f64; 2]) {
    // SCA: TVLA on the secure vs. the broken gadget, with Fig. 2's
    // 2k-trace fixed-vs-random campaign (at a few hundred traces the
    // broken gadget's |t| can still sit under the threshold)
    let (masked, _) = masked_and_gadget();
    let (broken, _) = reassociate(&masked.netlist, SynthesisMode::Classical);
    let broken_masked = seceda_sca::MaskedNetlist {
        netlist: broken,
        ..masked.clone()
    };
    let campaign = TraceCampaign {
        traces_per_group: 2000,
        ..TraceCampaign::default()
    };
    let ok = acquire_fixed_vs_random(&masked, &[true, true], &campaign).expect("traces");
    let bad = acquire_fixed_vs_random(&broken_masked, &[true, true], &campaign).expect("traces");
    let t_ok = tvla(&ok.fixed, &ok.random);
    let t_bad = tvla(&bad.fixed, &bad.random);
    let verdict = |t: &TvlaResult| if t.leaks() { "leaks" } else { "passes" };
    let sca = format!(
        "TVLA @{} traces/group: max|t| {:.1} (secure gadget {}) vs {:.1} (broken gadget {}); threshold {TVLA_THRESHOLD}",
        campaign.traces_per_group,
        t_ok.max_abs_t,
        verdict(&t_ok),
        t_bad.max_abs_t,
        verdict(&t_bad)
    );

    // FIA + Trojan: sensors
    let host = seceda_netlist::random_circuit(&seceda_netlist::RandomCircuitConfig {
        num_gates: 100,
        ..Default::default()
    });
    let placement = place(&host, &PlacementConfig::default());
    let sensors = place_sensors(&placement, 5, 2);
    let fia = format!(
        "5 radius-2 FIA sensors cover {:.0}% of the die",
        sensors.coverage * 100.0
    );

    // piracy: split manufacturing
    let routed = route(&host, &placement, &RouteConfig::default());
    let low = proximity_attack(&host, &split_at(&routed, 2)).ccr;
    let high = proximity_attack(&host, &split_at(&routed, 5)).ccr;
    let piracy = format!(
        "split mfg: proximity-attack CCR {:.2} (split M2) vs {:.2} (split M5)",
        low, high
    );

    let trojan = format!(
        "RO sensor network: {} sensors, full-grid coverage {:.0}%",
        sensors.positions.len(),
        place_sensors(&placement, 12, 2).coverage * 100.0
    );
    (
        vec![sca, fia, piracy, trojan],
        [t_ok.max_abs_t, t_bad.max_abs_t],
    )
}

fn validation_cells() -> Vec<String> {
    // SCA: architectural covert-channel reachability (BMC stand-in)
    let mut nl = Netlist::new("covert");
    let trigger_in = nl.add_input("t");
    let q_fb = nl.add_net();
    let hold = nl.add_gate(CellKind::Or, &[q_fb, trigger_in]);
    let q = nl.add_gate(CellKind::Dff, &[hold]);
    nl.redirect(&[(q_fb, q)], nl.num_gates());
    nl.mark_output(q, "covert_bit");
    let reach = bmc_reach(&nl, 0, true, 4).expect("bmc");
    let sca = format!(
        "BMC: covert state reachable within 4 cycles = {}",
        reach.is_reachable()
    );

    // FIA: formal validation of error detection
    let dwc = duplicate_with_compare(&majority());
    let proof = prove_detection(&dwc, &Budget::unlimited()).expect("prove");
    let fia = format!(
        "error-detection property proven for {}/{} faults",
        proof.proven, proof.total
    );

    // piracy: locked-logic correctness + de-obfuscation
    let nl = c17();
    let locked = xor_lock(&nl, 6, 13);
    let correct = (0..32u32).all(|pattern| {
        let inputs: Vec<bool> = (0..5).map(|b| (pattern >> b) & 1 == 1).collect();
        locked.evaluate_with_key(&inputs, &locked.correct_key) == nl.evaluate(&inputs)
    });
    let attack = sat_attack(&locked, |x| nl.evaluate(x))
        .expect("attack")
        .expect("key");
    let piracy = format!(
        "locked-logic correctness verified = {correct}; de-obfuscation needs {} queries",
        attack.iterations
    );

    // trojans: proof-carrying hardware
    let mut iso = Netlist::new("iso");
    let a = iso.add_input("debug");
    let b = iso.add_input("data");
    let x = iso.add_gate(CellKind::Not, &[a]);
    let y = iso.add_gate(CellKind::Buf, &[b]);
    iso.mark_output(x, "debug_out");
    iso.mark_output(y, "data_out");
    let cert = isolation_certificate(&iso, "debug", "data_out").expect("certificate");
    let checked = check_certificate(&iso, &cert).expect("check");
    let trojan = format!("proof-carrying hardware: isolation certificate verifies = {checked}");
    vec![sca, fia, piracy, trojan]
}

fn timing_power_cells() -> Vec<String> {
    // SCA: pre-silicon power simulation enables CPA
    let victim = sbox_first_round_registered();
    let campaign = TraceCampaign {
        traces_per_group: 800,
        noise: seceda_sim::NoiseModel {
            sigma: 1.0,
            seed: 21,
        },
        ..TraceCampaign::default()
    };
    let (traces, pts) = acquire_cpa_traces(&victim, 0x3C, &campaign).expect("traces");
    let result = cpa_attack_with_model(&traces, &pts, |pt, g| {
        (seceda_cipher::AES_SBOX[(pt ^ g) as usize] ^ seceda_cipher::AES_SBOX[g as usize])
            .count_ones() as f64
    });
    let sca = format!(
        "pre-silicon power sim: CPA recovers key byte = {}",
        result.best_guess == 0x3C
    );

    // FIA: detailed modeling — clock-glitch on deepest paths
    let host = c17();
    let campaign = FaultCampaign {
        model: InjectionModel::ClockGlitch { count: 2 },
        shots: 10,
        seed: 22,
    };
    let a = analyze_faults(&host, None, &campaign, 8, 23).expect("analysis");
    let fia = format!(
        "clock-glitch model on critical paths: {} corrupting events",
        a.silent + a.detected
    );

    // piracy: PUF property validation
    let config = ArbiterPufConfig::default();
    let challenges = random_challenges(32, 128, 24);
    let responses: Vec<Vec<bool>> = (0..8)
        .map(|chip| {
            let puf = ArbiterPuf::manufacture(&config, 3000 + chip);
            challenges.iter().map(|c| puf.respond_ideal(c)).collect()
        })
        .collect();
    let piracy = format!(
        "PUF validation: inter-chip uniqueness {:.2} (ideal 0.5)",
        uniqueness(&responses)
    );

    // trojans: fingerprinting (also in Table I; here per-stage)
    let puf = ArbiterPuf::manufacture(&config, 77);
    let train = puf_collect_crps(|c| puf.respond_ideal(c), 32, 800, 25);
    let test = puf_collect_crps(|c| puf.respond_ideal(c), 32, 200, 26);
    let ml = model_arbiter_puf(&train, &test, 20, 0.1);
    let trojan = format!(
        "fingerprinting infrastructure validated (PUF ML-attack accuracy {:.2} shows why raw CRPs must stay internal)",
        ml.accuracy
    );
    vec![sca, fia, piracy, trojan]
}

fn testing_cells() -> Vec<String> {
    // SCA / DFT: scan attack + secure scan
    let victim = scan_victim(0x42);
    let recovered = scan_attack_recover_key(&victim, 0xA7);
    let secured = secure_scan_wrap(scan_victim(0x42), 0xBEEF);
    let inputs = seceda_netlist::u64_to_bits(0xA7, 8);
    let (_, state) = secured.capture(&[false; 8], &inputs);
    let scrambled = secured.dump_scrambled(&state, &inputs);
    let ordered: Vec<bool> = scrambled.iter().rev().copied().collect();
    let sbox_guess = seceda_netlist::bits_to_u64(&ordered) as u8;
    let mut inv = [0u8; 256];
    for (i, &v) in seceda_cipher::AES_SBOX.iter().enumerate() {
        inv[v as usize] = i as u8;
    }
    let secure_guess = 0xA7 ^ inv[sbox_guess as usize];
    let sca = format!(
        "scan attack recovers key {}: plain scan={}, secure scan={}",
        0x42,
        recovered == 0x42,
        secure_guess == 0x42
    );

    // FIA: DFX natural/malicious handling
    let mut dfx = DfxController::new(0xC0FFEE, vec![true; 8], 1);
    let natural = dfx.on_fault(FaultVerdict::Natural);
    let malicious1 = dfx.on_fault(FaultVerdict::Malicious);
    let malicious2 = dfx.on_fault(FaultVerdict::Malicious);
    let fia = format!(
        "DFX policy: natural→{natural:?}, repeated malicious→{malicious1:?} then {malicious2:?}"
    );

    // piracy: key management in DFX
    let mut dfx2 = DfxController::new(0xC0FFEE, vec![true, false, true], 2);
    let before = dfx2.locking_key().is_some();
    dfx2.enter_test_mode(0xC0FFEE);
    let during = dfx2.locking_key().is_some();
    let piracy =
        format!("locking-key release: mission mode={before}, authorized test mode={during}");

    // trojans: MERO pattern generation + BIST
    let host = seceda_netlist::random_circuit(&seceda_netlist::RandomCircuitConfig {
        num_gates: 150,
        num_inputs: 12,
        num_outputs: 6,
        with_xor: false,
        ..Default::default()
    });
    let tests = generate_mero_tests(&host, &MeroConfig::default()).expect("mero");
    let cov = trigger_coverage(&host, &tests, 2, 100, 27).expect("grade");
    let scan = insert_scan_chain(&sbox_first_round_registered());
    let bist = run_bist(&c17(), &BistConfig::default(), &[]).expect("bist");
    let trojan = format!(
        "MERO: {} patterns cover {:.0}% of 2-node triggers; BIST signature {:#010x}; scan chain {} flops",
        tests.patterns.len(),
        cov * 100.0,
        bist.signature,
        scan.len()
    );
    vec![sca, fia, piracy, trojan]
}

/// Regenerates Table II: six design stages × four threat vectors, every
/// cell backed by a measured experiment on the `seceda` substrate.
///
/// This runs two dozen small experiments and takes a few seconds.
///
/// # Panics
///
/// Panics only if an underlying experiment hits an internal error.
pub fn table2() -> Table {
    let rows = vec![
        ("high-level synthesis".to_string(), hls_cells()),
        ("logic synthesis".to_string(), logic_synth_cells()),
        ("physical synthesis".to_string(), physical_cells().0),
        ("functional validation".to_string(), validation_cells()),
        (
            "timing/power verification".to_string(),
            timing_power_cells(),
        ),
        ("testing (ATPG, DFT, BIST)".to_string(), testing_cells()),
    ];
    Table {
        title: "Table II: security schemes per design stage, with measured evidence".into(),
        headers: vec![
            "Design stage".into(),
            "Side-channel attacks".into(),
            "Fault-injection attacks".into(),
            "IP piracy & counterfeiting".into(),
            "Trojans".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_complete_rows() {
        let t = table1();
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows.iter().all(|(_, cells)| cells.len() == 3));
        let rendered = t.to_string();
        assert!(rendered.contains("side-channel"));
        assert!(rendered.contains("SAT attack"));
    }

    #[test]
    fn physical_tvla_cell_separates_secure_from_broken() {
        let (cells, [t_secure, t_broken]) = physical_cells();
        assert!(
            t_secure < TVLA_THRESHOLD && TVLA_THRESHOLD < t_broken,
            "secure {t_secure} and broken {t_broken} must straddle {TVLA_THRESHOLD}: {}",
            cells[0]
        );
    }

    #[test]
    fn table2_covers_all_24_cells() {
        let t = table2();
        assert_eq!(t.rows.len(), 6);
        assert!(t.rows.iter().all(|(_, cells)| cells.len() == 4));
        for (stage, cells) in &t.rows {
            for cell in cells {
                assert!(!cell.is_empty(), "empty cell in {stage}");
            }
        }
    }
}
