//! Path-delay fingerprinting \[35\].
//!
//! A golden population of chips (process variation only) defines, per
//! measured transition, a distribution of settling delays. A Trojan's
//! additional load/stage slows some path; a chip whose delay falls
//! outside the golden envelope is flagged. The measurement is our
//! event-driven simulator with per-gate delay variation.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sim::EventSim;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Fingerprinting parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintConfig {
    /// Number of golden chips characterized.
    pub golden_chips: usize,
    /// Relative process variation per gate delay (e.g. 0.05 = ±5%).
    pub process_sigma: f64,
    /// Number of random input transitions measured per chip.
    pub transitions: usize,
    /// A chip is flagged if any measured delay exceeds the golden mean
    /// by `threshold_sigmas` standard deviations.
    pub threshold_sigmas: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        FingerprintConfig {
            golden_chips: 30,
            process_sigma: 0.04,
            transitions: 16,
            threshold_sigmas: 4.0,
            seed: 0xF1D0,
        }
    }
}

/// A golden delay fingerprint: per measured transition, mean and
/// standard deviation of the settle time over the golden population.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayFingerprint {
    /// The stimulus transitions measured (pairs of input vectors).
    pub stimuli: Vec<(Vec<bool>, Vec<bool>)>,
    /// Mean settle time per transition.
    pub mean: Vec<f64>,
    /// Standard deviation per transition.
    pub std: Vec<f64>,
}

/// Measures one chip: for every stimulus transition and every primary
/// output, the time of the output's last toggle (0.0 if it did not
/// toggle). Per-output resolution is what lets a local Trojan show up —
/// the global settling time is dominated by the design's critical path.
fn measure_chip(
    nl: &Netlist,
    stimuli: &[(Vec<bool>, Vec<bool>)],
    process_sigma: f64,
    extra_delay_per_gate: f64,
    rng: &mut StdRng,
) -> Result<Vec<f64>, NetlistError> {
    let mut sim = EventSim::new(nl)?;
    for gi in 0..nl.num_gates() {
        let g = &nl.gates()[gi];
        let nominal = g.kind.tree_delay(g.inputs.len());
        let variation = 1.0 + process_sigma * (rng.gen_range(-1.0..1.0f64) * 1.7);
        sim.set_gate_delay(gi, (nominal * variation + extra_delay_per_gate).max(0.01));
    }
    let output_nets: Vec<usize> = nl.outputs().iter().map(|&(n, _)| n.index()).collect();
    let mut measurements = Vec::with_capacity(stimuli.len() * output_nets.len());
    for (from, to) in stimuli {
        let report = sim.transition(from, to);
        for &net in &output_nets {
            let last = report
                .events
                .iter()
                .filter(|e| e.net == net)
                .map(|e| e.time)
                .fold(0.0f64, f64::max);
            measurements.push(last);
        }
    }
    Ok(measurements)
}

/// Characterizes the golden population and returns its fingerprint.
///
/// # Errors
///
/// Returns an error if the netlist is cyclic.
pub fn golden_fingerprint(
    nl: &Netlist,
    config: &FingerprintConfig,
) -> Result<DelayFingerprint, NetlistError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = nl.inputs().len();
    let stimuli: Vec<(Vec<bool>, Vec<bool>)> = (0..config.transitions)
        .map(|_| {
            let from: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let to: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            (from, to)
        })
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); stimuli.len() * nl.outputs().len()];
    for _ in 0..config.golden_chips {
        let chip = measure_chip(nl, &stimuli, config.process_sigma, 0.0, &mut rng)?;
        for (t, v) in chip.into_iter().enumerate() {
            samples[t].push(v);
        }
    }
    let mean: Vec<f64> = samples
        .iter()
        .map(|s| s.iter().sum::<f64>() / s.len().max(1) as f64)
        .collect();
    let std: Vec<f64> = samples
        .iter()
        .zip(&mean)
        .map(|(s, m)| {
            let v = s.iter().map(|x| (x - m).powi(2)).sum::<f64>() / s.len().max(1) as f64;
            v.sqrt().max(1e-6)
        })
        .collect();
    Ok(DelayFingerprint { stimuli, mean, std })
}

/// Tests a suspect chip (netlist `suspect`, possibly Trojaned) against a
/// golden fingerprint. Returns `true` if the chip is flagged.
///
/// The suspect is measured with its own process variation (fresh seed)
/// so false positives are possible — the detection-threshold tradeoff
/// of every parametric test.
///
/// # Errors
///
/// Returns an error if the netlist is cyclic.
pub fn fingerprint_detect(
    suspect: &Netlist,
    fingerprint: &DelayFingerprint,
    config: &FingerprintConfig,
    chip_seed: u64,
) -> Result<bool, NetlistError> {
    let mut rng = StdRng::seed_from_u64(chip_seed);
    let measured = measure_chip(
        suspect,
        &fingerprint.stimuli,
        config.process_sigma,
        0.0,
        &mut rng,
    )?;
    Ok(measured
        .iter()
        .zip(&fingerprint.mean)
        .zip(&fingerprint.std)
        .any(|((m, mu), sd)| (m - mu).abs() > config.threshold_sigmas * sd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert::{insert_trojan, TrojanConfig};
    use seceda_netlist::{random_circuit, RandomCircuitConfig};

    fn host() -> Netlist {
        random_circuit(&RandomCircuitConfig {
            num_gates: 120,
            num_inputs: 10,
            num_outputs: 5,
            with_xor: false,
            ..RandomCircuitConfig::default()
        })
    }

    #[test]
    fn golden_chips_mostly_pass() {
        let nl = host();
        let config = FingerprintConfig::default();
        let fp = golden_fingerprint(&nl, &config).expect("golden");
        let mut false_positives = 0;
        for chip in 0..20 {
            if fingerprint_detect(&nl, &fp, &config, 9000 + chip).expect("measure") {
                false_positives += 1;
            }
        }
        assert!(
            false_positives <= 2,
            "threshold 4σ should rarely flag genuine chips: {false_positives}/20"
        );
    }

    #[test]
    fn trojaned_chips_get_flagged() {
        let nl = host();
        let config = FingerprintConfig::default();
        let fp = golden_fingerprint(&nl, &config).expect("golden");
        let trojan = insert_trojan(&nl, &TrojanConfig::default()).expect("insert");
        let mut detections = 0;
        for chip in 0..20 {
            if fingerprint_detect(&trojan.netlist, &fp, &config, 9100 + chip).expect("measure") {
                detections += 1;
            }
        }
        assert!(
            detections >= 10,
            "payload gates on output paths must slow the chip: {detections}/20"
        );
    }
}
