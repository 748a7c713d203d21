//! Arbiter PUF under the additive linear delay model.
//!
//! An n-stage arbiter PUF races a signal through n switch stages; the
//! challenge selects the crossing pattern and an arbiter samples which
//! path wins. The standard model: the delay difference is a linear
//! function `w · Φ(c)` of the parity-transformed challenge `Φ(c)`, with
//! per-instance Gaussian stage weights `w` and per-evaluation thermal
//! noise.

use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Arbiter PUF instance parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterPufConfig {
    /// Number of switch stages (challenge bits).
    pub stages: usize,
    /// Standard deviation of the per-stage process variation. The
    /// asymmetric-layout enhancement \[30\] increases this, improving
    /// inter-chip uniqueness and noise margin.
    pub variation_sigma: f64,
    /// Standard deviation of per-evaluation thermal noise.
    pub noise_sigma: f64,
}

impl Default for ArbiterPufConfig {
    fn default() -> Self {
        ArbiterPufConfig {
            stages: 32,
            variation_sigma: 1.0,
            noise_sigma: 0.05,
        }
    }
}

/// One manufactured arbiter PUF instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterPuf {
    weights: Vec<f64>, // stages + 1
    noise_sigma: f64,
    noise_rng: StdRng,
}

impl ArbiterPuf {
    /// "Manufactures" an instance: draws the stage weights from the
    /// process (`chip_seed` identifies the chip).
    pub fn manufacture(config: &ArbiterPufConfig, chip_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(chip_seed);
        let weights = (0..=config.stages)
            .map(|_| config.variation_sigma * rng.gen_normal())
            .collect();
        ArbiterPuf {
            weights,
            noise_sigma: config.noise_sigma,
            noise_rng: StdRng::seed_from_u64(chip_seed ^ 0x5EED_0000),
        }
    }

    /// Number of challenge bits.
    pub fn stages(&self) -> usize {
        self.weights.len() - 1
    }

    /// The parity feature transform `Φ(c)`: `Φ_i = Π_{j≥i} (1 - 2c_j)`,
    /// with a trailing constant 1.
    pub fn features(challenge: &[bool]) -> Vec<f64> {
        let n = challenge.len();
        let mut phi = vec![1.0; n + 1];
        for i in (0..n).rev() {
            let sign = if challenge[i] { -1.0 } else { 1.0 };
            phi[i] = phi[i + 1] * sign;
        }
        phi
    }

    /// The noiseless delay difference for a challenge.
    fn delay_difference(&self, challenge: &[bool]) -> f64 {
        assert_eq!(challenge.len(), self.stages(), "challenge width");
        Self::features(challenge)
            .iter()
            .zip(&self.weights)
            .map(|(f, w)| f * w)
            .sum()
    }

    /// Evaluates the PUF response with fresh thermal noise.
    pub fn respond(&mut self, challenge: &[bool]) -> bool {
        let noise = self.noise_sigma * self.noise_rng.gen_normal();
        self.delay_difference(challenge) + noise > 0.0
    }

    /// The ideal (noise-free) response.
    pub fn respond_ideal(&self, challenge: &[bool]) -> bool {
        self.delay_difference(challenge) > 0.0
    }
}

/// An XOR arbiter PUF: `k` independent arbiter chains whose responses
/// are XOR-combined — the classical hardening against modeling attacks.
#[derive(Debug, Clone, PartialEq)]
pub struct XorArbiterPuf {
    chains: Vec<ArbiterPuf>,
}

impl XorArbiterPuf {
    /// Manufactures `k` chains on one chip.
    pub fn manufacture(config: &ArbiterPufConfig, k: usize, chip_seed: u64) -> Self {
        XorArbiterPuf {
            chains: (0..k)
                .map(|i| ArbiterPuf::manufacture(config, chip_seed.wrapping_add(i as u64 * 77)))
                .collect(),
        }
    }

    /// Number of challenge bits.
    pub fn stages(&self) -> usize {
        self.chains[0].stages()
    }

    /// Evaluates the XOR of all chain responses (with noise).
    pub fn respond(&mut self, challenge: &[bool]) -> bool {
        self.chains
            .iter_mut()
            .fold(false, |acc, c| acc ^ c.respond(challenge))
    }

    /// The ideal (noise-free) response.
    pub fn respond_ideal(&self, challenge: &[bool]) -> bool {
        self.chains
            .iter()
            .fold(false, |acc, c| acc ^ c.respond_ideal(challenge))
    }
}

/// Draws `count` uniformly random challenges of width `stages`.
pub fn random_challenges(stages: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..stages).map(|_| rng.gen()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_have_expected_shape() {
        let phi = ArbiterPuf::features(&[false, false, false]);
        assert_eq!(phi, vec![1.0, 1.0, 1.0, 1.0]);
        let phi = ArbiterPuf::features(&[true, false, false]);
        assert_eq!(phi, vec![-1.0, 1.0, 1.0, 1.0]);
        let phi = ArbiterPuf::features(&[false, false, true]);
        assert_eq!(phi, vec![-1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn responses_are_deterministic_without_noise() {
        let config = ArbiterPufConfig {
            noise_sigma: 0.0,
            ..ArbiterPufConfig::default()
        };
        let mut puf = ArbiterPuf::manufacture(&config, 1);
        let challenges = random_challenges(32, 50, 2);
        for c in &challenges {
            assert_eq!(puf.respond(c), puf.respond_ideal(c));
        }
    }

    #[test]
    fn different_chips_differ() {
        let config = ArbiterPufConfig::default();
        let a = ArbiterPuf::manufacture(&config, 10);
        let b = ArbiterPuf::manufacture(&config, 11);
        let challenges = random_challenges(32, 200, 3);
        let differing = challenges
            .iter()
            .filter(|c| a.respond_ideal(c) != b.respond_ideal(c))
            .count();
        assert!(
            (60..=140).contains(&differing),
            "two chips should disagree on roughly half: {differing}/200"
        );
    }

    #[test]
    fn noise_flips_marginal_responses_occasionally() {
        let config = ArbiterPufConfig {
            noise_sigma: 1.0, // exaggerated
            ..ArbiterPufConfig::default()
        };
        let mut puf = ArbiterPuf::manufacture(&config, 20);
        let challenges = random_challenges(32, 300, 4);
        let flips: usize = challenges
            .iter()
            .filter(|c| puf.respond(c) != puf.respond_ideal(c))
            .count();
        assert!(flips > 0, "heavy noise must flip something");
    }

    #[test]
    fn xor_puf_combines_chains() {
        let config = ArbiterPufConfig {
            noise_sigma: 0.0,
            ..ArbiterPufConfig::default()
        };
        let xor3 = XorArbiterPuf::manufacture(&config, 3, 30);
        let challenges = random_challenges(32, 100, 5);
        for c in &challenges {
            let expect = xor3
                .chains
                .iter()
                .fold(false, |acc, chain| acc ^ chain.respond_ideal(c));
            assert_eq!(xor3.respond_ideal(c), expect);
        }
    }

    #[test]
    #[should_panic(expected = "challenge width")]
    fn wrong_challenge_width_panics() {
        let puf = ArbiterPuf::manufacture(&ArbiterPufConfig::default(), 1);
        let _ = puf.respond_ideal(&[true; 5]);
    }
}
