//! SRAM power-up PUF.
//!
//! Each cell's cross-coupled inverter pair has a process mismatch; the
//! power-up value follows the mismatch sign unless the mismatch is so
//! small that supply noise wins — those are the unreliable cells.

use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// SRAM PUF parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramPufConfig {
    /// Number of cells (response bits).
    pub cells: usize,
    /// Mismatch standard deviation.
    pub mismatch_sigma: f64,
    /// Power-up noise standard deviation.
    pub noise_sigma: f64,
}

impl Default for SramPufConfig {
    fn default() -> Self {
        SramPufConfig {
            cells: 256,
            mismatch_sigma: 1.0,
            noise_sigma: 0.1,
        }
    }
}

/// A manufactured SRAM PUF instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SramPuf {
    mismatch: Vec<f64>,
    noise_sigma: f64,
    noise_rng: StdRng,
}

impl SramPuf {
    /// Manufactures an instance.
    pub fn manufacture(config: &SramPufConfig, chip_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(chip_seed);
        let mismatch = (0..config.cells)
            .map(|_| config.mismatch_sigma * rng.gen_normal())
            .collect();
        SramPuf {
            mismatch,
            noise_sigma: config.noise_sigma,
            noise_rng: StdRng::seed_from_u64(chip_seed ^ 0x54A3),
        }
    }

    /// Simulates a power-up readout with fresh noise.
    pub fn power_up(&mut self) -> Vec<bool> {
        let sigma = self.noise_sigma;
        let mut values = Vec::with_capacity(self.mismatch.len());
        for &m in &self.mismatch {
            values.push(m + sigma * self.noise_rng.gen_normal() > 0.0);
        }
        values
    }

    /// The ideal (noise-free) power-up pattern.
    pub fn power_up_ideal(&self) -> Vec<bool> {
        self.mismatch.iter().map(|&m| m > 0.0).collect()
    }

    /// Indices of cells whose |mismatch| is below `margin` — candidates
    /// for dark-bit masking during enrollment.
    pub fn unreliable_cells(&self, margin: f64) -> Vec<usize> {
        self.mismatch
            .iter()
            .enumerate()
            .filter(|(_, m)| m.abs() < margin)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{reliability, uniqueness};

    #[test]
    fn population_metrics() {
        let config = SramPufConfig::default();
        let responses: Vec<Vec<bool>> = (0..8)
            .map(|chip| SramPuf::manufacture(&config, 900 + chip).power_up_ideal())
            .collect();
        let u = uniqueness(&responses);
        assert!((0.4..=0.6).contains(&u), "uniqueness {u}");
    }

    #[test]
    fn dark_bit_masking_improves_reliability() {
        let config = SramPufConfig {
            noise_sigma: 0.4,
            ..SramPufConfig::default()
        };
        let mut chip = SramPuf::manufacture(&config, 901);
        let reference = chip.power_up_ideal();
        let rereads: Vec<Vec<bool>> = (0..10).map(|_| chip.power_up()).collect();
        let raw = reliability(&reference, &rereads);
        // mask out low-margin cells and recompute
        let mask = chip.unreliable_cells(1.0);
        let filter = |r: &[bool]| -> Vec<bool> {
            r.iter()
                .enumerate()
                .filter(|(i, _)| !mask.contains(i))
                .map(|(_, &b)| b)
                .collect()
        };
        let masked_ref = filter(&reference);
        let masked_rereads: Vec<Vec<bool>> = rereads.iter().map(|r| filter(r)).collect();
        let masked = reliability(&masked_ref, &masked_rereads);
        assert!(
            masked > raw,
            "dark-bit masking must help: {masked} vs {raw}"
        );
        assert!(masked > 0.985, "masked reliability {masked}");
    }
}
