//! Trace-acquisition campaigns on the simulated power side channel.

use crate::isw::MaskedNetlist;
use seceda_netlist::{Netlist, NetlistError};
use seceda_sim::{CycleSim, NoiseModel, PowerModel, TraceRecorder};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Configuration of a trace-acquisition campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCampaign {
    /// Traces per group.
    pub traces_per_group: usize,
    /// Power model used by the recorder.
    pub power_model: PowerModel,
    /// Measurement noise.
    pub noise: NoiseModel,
    /// RNG seed for stimulus generation.
    pub seed: u64,
}

impl Default for TraceCampaign {
    fn default() -> Self {
        TraceCampaign {
            traces_per_group: 1000,
            power_model: PowerModel::HammingDistance,
            noise: NoiseModel::default(),
            seed: 0xF1A5,
        }
    }
}

/// The two trace groups of a fixed-vs-random campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedVsRandom {
    /// Traces acquired with the fixed unmasked input.
    pub fixed: Vec<Vec<f64>>,
    /// Traces acquired with uniformly random unmasked inputs.
    pub random: Vec<Vec<f64>>,
}

/// Acquires fixed-vs-random traces from a masked netlist.
///
/// Each trace is two cycles: a "precharge" cycle applying all-zero
/// shares/randoms, then the value cycle; the Hamming-distance sample of
/// the value cycle is the trace (one sample per trace). Shares and gadget
/// randomness are fresh and uniform for *both* groups; only the unmasked
/// values are fixed vs random — exactly the TVLA protocol.
///
/// # Errors
///
/// Propagates simulator errors (cyclic netlists).
///
/// # Panics
///
/// Panics if `fixed_value` width does not match the masked interface.
pub fn acquire_fixed_vs_random(
    masked: &MaskedNetlist,
    fixed_value: &[bool],
    campaign: &TraceCampaign,
) -> Result<FixedVsRandom, NetlistError> {
    assert_eq!(
        fixed_value.len(),
        masked.num_original_inputs,
        "fixed value width mismatch"
    );
    let mut rng = StdRng::seed_from_u64(campaign.seed);
    let nl = &masked.netlist;
    let mut sim = CycleSim::new(nl)?;
    let mut recorder = TraceRecorder::new(nl, campaign.power_model, campaign.noise);
    let zero_inputs = vec![false; nl.inputs().len()];

    let acquire_one = |values: &[bool],
                       rng: &mut StdRng,
                       sim: &mut CycleSim<'_>,
                       recorder: &mut TraceRecorder|
     -> Result<Vec<f64>, NetlistError> {
        let share_bits: Vec<bool> = (0..2 * values.len()).map(|_| rng.gen()).collect();
        let randoms: Vec<bool> = (0..masked.num_randoms).map(|_| rng.gen()).collect();
        let stimulated = masked.encode_inputs(values, &share_bits, &randoms);
        recorder.reset();
        // precharge cycle establishes the toggle reference
        let pre = sim.step_nets(&zero_inputs)?;
        let _ = recorder.sample(&pre);
        let val = sim.step_nets(&stimulated)?;
        Ok(vec![recorder.sample(&val)])
    };

    let mut fixed = Vec::with_capacity(campaign.traces_per_group);
    let mut random = Vec::with_capacity(campaign.traces_per_group);
    for _ in 0..campaign.traces_per_group {
        fixed.push(acquire_one(fixed_value, &mut rng, &mut sim, &mut recorder)?);
        let rand_vals: Vec<bool> = (0..masked.num_original_inputs).map(|_| rng.gen()).collect();
        random.push(acquire_one(&rand_vals, &mut rng, &mut sim, &mut recorder)?);
    }
    Ok(FixedVsRandom { fixed, random })
}

/// Acquires CPA-style traces from a *registered* victim whose inputs are
/// `pt\[8\]` then `key\[8\]` and whose S-box output feeds a DFF bank (see
/// `seceda_cipher::sbox_first_round_registered`): random plaintexts,
/// fixed key. Returns `(traces, plaintext_bytes)`.
///
/// The trace sample is windowed on the clock edge at which the register
/// bank switches: the recorder weights register-output nets 1.0 and all
/// combinational nets 0.0, modeling the temporal separation a real scope
/// capture provides (combinational switching lands in earlier samples).
/// Each trace covers the transition `SBOX[key] -> SBOX[pt ^ key]`, so
/// the matching CPA model is `HD(SBOX[guess], SBOX[pt ^ guess])` (use
/// [`crate::cpa::cpa_attack_with_model`]).
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if the interface is not `pt\[8\] ++ key\[8\]` with a DFF bank.
pub fn acquire_cpa_traces(
    nl: &Netlist,
    key_byte: u8,
    campaign: &TraceCampaign,
) -> Result<(Vec<Vec<f64>>, Vec<u8>), NetlistError> {
    assert_eq!(nl.inputs().len(), 16, "expected pt[8] ++ key[8] interface");
    assert!(!nl.dffs().is_empty(), "CPA victim must be registered");
    let mut rng = StdRng::seed_from_u64(campaign.seed);
    let mut sim = CycleSim::new(nl)?;
    let mut recorder = TraceRecorder::new(nl, campaign.power_model, campaign.noise);
    // window on the register bank: only DFF outputs contribute power
    let mut weights = vec![0.0; nl.num_nets()];
    for d in nl.dffs() {
        weights[nl.gate(d).output.index()] = 1.0;
    }
    recorder.set_weights(weights);
    let key_bits: Vec<bool> = (0..8).map(|b| (key_byte >> b) & 1 == 1).collect();
    let mut zero_pt: Vec<bool> = vec![false; 8];
    zero_pt.extend(&key_bits);
    let mut traces = Vec::with_capacity(campaign.traces_per_group);
    let mut pts = Vec::with_capacity(campaign.traces_per_group);
    for _ in 0..campaign.traces_per_group {
        let pt: u8 = rng.gen();
        let mut inputs: Vec<bool> = (0..8).map(|b| (pt >> b) & 1 == 1).collect();
        inputs.extend(&key_bits);
        recorder.reset();
        // cycle 1: pt=0 loads SBOX[key] into the register bank
        let _ = sim.step_nets(&zero_pt)?;
        // cycle 2: registers show SBOX[key]; next state = SBOX[pt^key]
        let c1 = sim.step_nets(&inputs)?;
        let _ = recorder.sample(&c1);
        // cycle 3: registers switch to SBOX[pt^key] — the attacked sample
        let c2 = sim.step_nets(&inputs)?;
        traces.push(vec![recorder.sample(&c2)]);
        pts.push(pt);
    }
    Ok((traces, pts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isw::mask_netlist;
    use crate::tvla::tvla;
    use seceda_cipher::sbox_first_round_registered;
    use seceda_netlist::CellKind;
    use seceda_synth::{reassociate, SynthesisMode};

    fn masked_and() -> MaskedNetlist {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        mask_netlist(&nl)
    }

    #[test]
    fn protected_gadget_passes_tvla() {
        let masked = masked_and();
        let campaign = TraceCampaign {
            traces_per_group: 800,
            ..TraceCampaign::default()
        };
        let groups = acquire_fixed_vs_random(&masked, &[true, true], &campaign).expect("acquire");
        let result = tvla(&groups.fixed, &groups.random);
        assert!(
            !result.leaks(),
            "secure gadget must pass TVLA, max |t| = {}",
            result.max_abs_t
        );
    }

    #[test]
    fn broken_gadget_fails_tvla() {
        let masked = masked_and();
        let (broken, _) = reassociate(&masked.netlist, SynthesisMode::Classical);
        let broken_masked = MaskedNetlist {
            netlist: broken,
            ..masked
        };
        let campaign = TraceCampaign {
            traces_per_group: 800,
            ..TraceCampaign::default()
        };
        let groups =
            acquire_fixed_vs_random(&broken_masked, &[true, true], &campaign).expect("acquire");
        let result = tvla(&groups.fixed, &groups.random);
        assert!(
            result.leaks(),
            "factored gadget must fail TVLA, max |t| = {}",
            result.max_abs_t
        );
    }

    #[test]
    fn cpa_recovers_key_from_netlist_traces() {
        use seceda_cipher::AES_SBOX;
        let nl = sbox_first_round_registered();
        let campaign = TraceCampaign {
            traces_per_group: 1500,
            noise: seceda_sim::NoiseModel {
                sigma: 1.0,
                seed: 77,
            },
            ..TraceCampaign::default()
        };
        let key = 0x5A;
        let (traces, pts) = acquire_cpa_traces(&nl, key, &campaign).expect("acquire");
        let result = crate::cpa::cpa_attack_with_model(&traces, &pts, |pt, g| {
            (AES_SBOX[(pt ^ g) as usize] ^ AES_SBOX[g as usize]).count_ones() as f64
        });
        assert_eq!(result.best_guess, key);
        assert!(result.margin() > 0.1, "margin {}", result.margin());
    }
}
