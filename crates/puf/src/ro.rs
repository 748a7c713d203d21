//! Ring-oscillator PUF.

use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// RO PUF parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoPufConfig {
    /// Number of ring oscillators.
    pub num_oscillators: usize,
    /// Nominal frequency (arbitrary units).
    pub nominal_frequency: f64,
    /// Process-variation standard deviation of each RO's frequency.
    pub variation_sigma: f64,
    /// Per-measurement jitter standard deviation.
    pub noise_sigma: f64,
}

impl Default for RoPufConfig {
    fn default() -> Self {
        RoPufConfig {
            num_oscillators: 32,
            nominal_frequency: 100.0,
            variation_sigma: 1.0,
            noise_sigma: 0.05,
        }
    }
}

/// A manufactured RO PUF instance. Response bits come from comparing
/// disjoint oscillator pairs: bit `i` is `freq[2i] > freq[2i+1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoPuf {
    frequencies: Vec<f64>,
    noise_sigma: f64,
    noise_rng: StdRng,
}

impl RoPuf {
    /// Manufactures an instance.
    pub fn manufacture(config: &RoPufConfig, chip_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(chip_seed);
        let frequencies = (0..config.num_oscillators)
            .map(|_| config.nominal_frequency + config.variation_sigma * rng.gen_normal())
            .collect();
        RoPuf {
            frequencies,
            noise_sigma: config.noise_sigma,
            noise_rng: StdRng::seed_from_u64(chip_seed ^ 0x0501_13A7),
        }
    }

    /// Number of response bits (half the oscillator count).
    pub fn response_bits(&self) -> usize {
        self.frequencies.len() / 2
    }

    /// Reads the full response with fresh measurement jitter.
    pub fn read(&mut self) -> Vec<bool> {
        (0..self.response_bits())
            .map(|i| {
                let fa = self.frequencies[2 * i] + self.noise_sigma * self.noise_rng.gen_normal();
                let fb =
                    self.frequencies[2 * i + 1] + self.noise_sigma * self.noise_rng.gen_normal();
                fa > fb
            })
            .collect()
    }

    /// The ideal (jitter-free) response.
    pub fn read_ideal(&self) -> Vec<bool> {
        (0..self.response_bits())
            .map(|i| self.frequencies[2 * i] > self.frequencies[2 * i + 1])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{reliability, uniqueness};

    #[test]
    fn population_is_unique_and_reliable() {
        let config = RoPufConfig::default();
        let responses: Vec<Vec<bool>> = (0..10)
            .map(|chip| RoPuf::manufacture(&config, 500 + chip).read_ideal())
            .collect();
        let u = uniqueness(&responses);
        assert!((0.3..=0.7).contains(&u), "uniqueness {u}");

        let mut chip = RoPuf::manufacture(&config, 501);
        let reference = chip.read_ideal();
        let rereads: Vec<Vec<bool>> = (0..10).map(|_| chip.read()).collect();
        let r = reliability(&reference, &rereads);
        assert!(r > 0.9, "reliability {r}");
    }

    #[test]
    fn jitter_hurts_reliability() {
        let noisy = RoPufConfig {
            noise_sigma: 2.0,
            ..RoPufConfig::default()
        };
        let mut chip = RoPuf::manufacture(&noisy, 502);
        let reference = chip.read_ideal();
        let rereads: Vec<Vec<bool>> = (0..10).map(|_| chip.read()).collect();
        let r = reliability(&reference, &rereads);
        assert!(r < 0.99, "heavy jitter must flip bits: {r}");
    }
}
