//! Attack-versus-defense integration tests: every attack implemented in
//! one crate is run against the matching defense from another, and the
//! published outcome (who wins) must reproduce.

use seceda_cipher::{sbox_first_round_registered, ToyCipher, AES_SBOX, TOY_ROUNDS};
use seceda_dft::{scan_attack_recover_key, scan_victim, secure_scan_wrap};
use seceda_fia::{dfa_attack, FaultDiscriminator, FaultVerdict};
use seceda_puf::{collect_crps, model_arbiter_puf, ArbiterPuf, ArbiterPufConfig, XorArbiterPuf};
use seceda_sca::{cpa::cpa_attack_with_model, traces::acquire_cpa_traces, TraceCampaign};
use seceda_trojan::{insert_rare_event_monitor, insert_trojan, TrojanConfig};

#[test]
fn cpa_beats_the_unprotected_sbox() {
    let victim = sbox_first_round_registered();
    let campaign = TraceCampaign {
        traces_per_group: 1200,
        noise: seceda_sim::NoiseModel {
            sigma: 1.0,
            seed: 3,
        },
        ..TraceCampaign::default()
    };
    let key = 0xC3;
    let (traces, pts) = acquire_cpa_traces(&victim, key, &campaign).expect("traces");
    let result = cpa_attack_with_model(&traces, &pts, |pt, g| {
        (AES_SBOX[(pt ^ g) as usize] ^ AES_SBOX[g as usize]).count_ones() as f64
    });
    assert_eq!(result.best_guess, key);
}

#[test]
fn dfa_beats_the_unprotected_toy_cipher_and_dies_on_infection() {
    let key = 0xFACE;
    let cipher = ToyCipher::new(key);
    let pts: Vec<u16> = (0..16).map(|i| 0x0101u16.wrapping_mul(i * 7 + 1)).collect();
    // unprotected: faulty ciphertexts escape, DFA pins the key
    let pairs: Vec<(u16, u16)> = pts
        .iter()
        .enumerate()
        .map(|(i, &pt)| {
            (
                cipher.encrypt(pt),
                cipher.encrypt_with_fault(pt, TOY_ROUNDS - 1, i % 16),
            )
        })
        .collect();
    let open = dfa_attack(&pairs);
    assert!(open.candidates.contains(&key));
    assert!(
        open.candidates.len() <= 4,
        "{} candidates",
        open.candidates.len()
    );

    // with infection, the "faulty ciphertext" is scrambled junk and the
    // true key no longer stands out
    let infected: Vec<(u16, u16)> = pts
        .iter()
        .enumerate()
        .map(|(i, &pt)| {
            let good = cipher.encrypt(pt);
            (good, good.rotate_left(i as u32 % 13 + 1) ^ 0x1357)
        })
        .collect();
    let blocked = dfa_attack(&infected);
    assert!(
        !blocked.candidates.contains(&key) || blocked.candidates.len() > 100,
        "infection must deny a crisp key recovery"
    );
}

#[test]
fn scan_attack_beats_plain_scan_but_not_secure_scan() {
    let key = 0x9D;
    let plain = scan_victim(key);
    assert_eq!(scan_attack_recover_key(&plain, 0x31), key);

    let secured = secure_scan_wrap(scan_victim(key), 0xABCD);
    let pt = 0x31u8;
    let inputs = seceda_netlist::u64_to_bits(pt as u64, 8);
    let (_, state) = secured.capture(&[false; 8], &inputs);
    let scrambled = secured.dump_scrambled(&state, &inputs);
    let ordered: Vec<bool> = scrambled.iter().rev().copied().collect();
    let mut inv = [0u8; 256];
    for (i, &v) in AES_SBOX.iter().enumerate() {
        inv[v as usize] = i as u8;
    }
    let guess = pt ^ inv[seceda_netlist::bits_to_u64(&ordered) as usize];
    assert_ne!(guess, key, "secure scan must break the inversion");
}

#[test]
fn ml_attack_beats_plain_puf_but_not_xor4() {
    let quiet = ArbiterPufConfig {
        noise_sigma: 0.0,
        ..ArbiterPufConfig::default()
    };
    let plain = ArbiterPuf::manufacture(&quiet, 404);
    let train = collect_crps(|c| plain.respond_ideal(c), 32, 1500, 1);
    let test = collect_crps(|c| plain.respond_ideal(c), 32, 400, 2);
    let plain_acc = model_arbiter_puf(&train, &test, 25, 0.1).accuracy;

    let xor4 = XorArbiterPuf::manufacture(&quiet, 4, 404);
    let train = collect_crps(|c| xor4.respond_ideal(c), 32, 1500, 1);
    let test = collect_crps(|c| xor4.respond_ideal(c), 32, 400, 2);
    let xor_acc = model_arbiter_puf(&train, &test, 25, 0.1).accuracy;

    assert!(plain_acc > 0.9, "plain arbiter PUF clones: {plain_acc}");
    assert!(xor_acc < 0.75, "XOR-4 resists: {xor_acc}");
}

#[test]
fn trojan_vs_monitor_vs_discriminator() {
    // a Trojan fires; the monitor alarms; the discriminator, seeing the
    // same location hammered, rules "malicious"
    let host = seceda_netlist::random_circuit(&seceda_netlist::RandomCircuitConfig {
        num_gates: 150,
        num_inputs: 12,
        num_outputs: 6,
        with_xor: false,
        ..Default::default()
    });
    let tconfig = TrojanConfig::default();
    let trojan = insert_trojan(&host, &tconfig).expect("insert");
    let monitored = insert_rare_event_monitor(
        &trojan.netlist,
        1,
        usize::MAX,
        tconfig.rare_threshold,
        tconfig.seed,
    )
    .expect("instrument");

    let witness = trojan.activation_example.clone();
    let outs = monitored.netlist.evaluate(&witness);
    assert!(outs[outs.len() - 1], "monitor must alarm on activation");

    // the attacker re-triggers repeatedly: discriminator sees a pattern
    let mut discriminator = FaultDiscriminator::new(6, 0.5, 1e-6);
    for attempt in 0..6u64 {
        discriminator.record(trojan.trigger_net.index(), 1_000_000 * (attempt + 1));
    }
    assert_eq!(discriminator.verdict(), FaultVerdict::Malicious);
}
