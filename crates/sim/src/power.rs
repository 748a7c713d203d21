//! Pre-silicon power modeling: Hamming-weight / Hamming-distance leakage
//! with Gaussian measurement noise.
//!
//! Real side-channel measurements observe dynamic power, which at the
//! gate level is dominated by net toggles. The two standard first-order
//! models are *Hamming weight* (HW: power proportional to the number of
//! 1-valued nets) and *Hamming distance* (HD: proportional to the number
//! of nets that toggled between consecutive states). Both are supported;
//! HD is the default because it models CMOS switching.

use seceda_netlist::Netlist;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Which leakage model maps net values to a power sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowerModel {
    /// Power ∝ number of nets holding logic 1.
    HammingWeight,
    /// Power ∝ number of nets that toggled since the previous cycle.
    #[default]
    HammingDistance,
}

/// Additive Gaussian measurement noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the additive noise (power units; one net
    /// toggle = 1.0).
    pub sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            sigma: 1.0,
            seed: 0x5CA1_AB1E,
        }
    }
}

/// Records one power sample per simulated cycle.
///
/// # Example
///
/// ```
/// use seceda_netlist::{Netlist, CellKind};
/// use seceda_sim::{CycleSim, TraceRecorder, PowerModel, NoiseModel};
///
/// let mut nl = Netlist::new("and");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate(CellKind::And, &[a, b]);
/// nl.mark_output(y, "y");
///
/// let mut rec = TraceRecorder::new(&nl, PowerModel::HammingDistance,
///                                  NoiseModel { sigma: 0.0, seed: 1 });
/// let mut sim = CycleSim::new(&nl)?;
/// let v1 = sim.step_nets(&[false, false])?;
/// let v2 = sim.step_nets(&[true, true])?;
/// let p1 = rec.sample(&v1);
/// let p2 = rec.sample(&v2);
/// assert_eq!(p1, 0.0);       // nothing toggled from the all-zero reset
/// assert_eq!(p2, 3.0);       // a, b and y all toggled
/// # Ok::<(), seceda_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    model: PowerModel,
    sigma: f64,
    rng: StdRng,
    prev: Option<Vec<bool>>,
    /// Per-net capacitance weight (default 1.0 per net).
    weights: Vec<f64>,
}

impl TraceRecorder {
    /// Creates a recorder for `nl` with unit net weights.
    ///
    /// # Panics
    ///
    /// Panics if `noise.sigma` is negative.
    pub fn new(nl: &Netlist, model: PowerModel, noise: NoiseModel) -> Self {
        assert!(noise.sigma >= 0.0, "negative standard deviation");
        TraceRecorder {
            model,
            sigma: noise.sigma,
            rng: StdRng::seed_from_u64(noise.seed),
            prev: None,
            weights: vec![1.0; nl.num_nets()],
        }
    }

    /// Sets per-net capacitance weights (e.g. from fanout or wire length).
    ///
    /// # Panics
    ///
    /// Panics if `weights` has the wrong length.
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(weights.len(), self.weights.len(), "weight count mismatch");
        self.weights = weights;
    }

    /// Resets the toggle reference state (e.g. between traces).
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Converts one cycle's net values into a noisy power sample and
    /// updates the toggle reference.
    ///
    /// # Panics
    ///
    /// Panics if `net_values` does not hold one value per net.
    pub fn sample(&mut self, net_values: &[bool]) -> f64 {
        assert_eq!(net_values.len(), self.weights.len(), "net count mismatch");
        let raw = match self.model {
            PowerModel::HammingWeight => net_values
                .iter()
                .zip(&self.weights)
                .filter(|(&v, _)| v)
                .map(|(_, &w)| w)
                .sum(),
            PowerModel::HammingDistance => match &self.prev {
                None => 0.0,
                Some(prev) => net_values
                    .iter()
                    .zip(prev)
                    .zip(&self.weights)
                    .filter(|((&cur, &prv), _)| cur != prv)
                    .map(|(_, &w)| w)
                    .sum(),
            },
        };
        self.prev = Some(net_values.to_vec());
        raw + self.sigma * self.rng.gen_normal()
    }

    /// Records a full trace: one sample per cycle of `net_values_seq`.
    pub fn record(&mut self, net_values_seq: &[Vec<bool>]) -> Vec<f64> {
        net_values_seq.iter().map(|v| self.sample(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{CellKind, Netlist};

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::Xor, &[a, b]);
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn hw_counts_ones() {
        let nl = tiny();
        let mut rec = TraceRecorder::new(
            &nl,
            PowerModel::HammingWeight,
            NoiseModel {
                sigma: 0.0,
                seed: 0,
            },
        );
        assert_eq!(rec.sample(&[true, true, false]), 2.0);
        assert_eq!(rec.sample(&[false, false, false]), 0.0);
    }

    #[test]
    fn hd_counts_toggles() {
        let nl = tiny();
        let mut rec = TraceRecorder::new(
            &nl,
            PowerModel::HammingDistance,
            NoiseModel {
                sigma: 0.0,
                seed: 0,
            },
        );
        assert_eq!(rec.sample(&[true, false, true]), 0.0); // no reference yet
        assert_eq!(rec.sample(&[false, false, true]), 1.0);
        assert_eq!(rec.sample(&[true, true, false]), 3.0);
    }

    #[test]
    fn weights_scale_contributions() {
        let nl = tiny();
        let mut rec = TraceRecorder::new(
            &nl,
            PowerModel::HammingWeight,
            NoiseModel {
                sigma: 0.0,
                seed: 0,
            },
        );
        rec.set_weights(vec![2.0, 3.0, 5.0]);
        assert_eq!(rec.sample(&[true, false, true]), 7.0);
    }

    #[test]
    #[should_panic(expected = "net count mismatch")]
    fn sample_rejects_wrong_width() {
        let nl = tiny();
        let mut rec = TraceRecorder::new(&nl, PowerModel::HammingWeight, NoiseModel::default());
        rec.sample(&[true, true, false, true]);
    }

    #[test]
    fn noise_is_reproducible() {
        let nl = tiny();
        let mk = || {
            TraceRecorder::new(
                &nl,
                PowerModel::HammingWeight,
                NoiseModel {
                    sigma: 2.0,
                    seed: 42,
                },
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..10 {
            assert_eq!(a.sample(&[true, true, true]), b.sample(&[true, true, true]));
        }
    }

    #[test]
    fn noise_has_roughly_right_spread() {
        let nl = tiny();
        let mut rec = TraceRecorder::new(
            &nl,
            PowerModel::HammingWeight,
            NoiseModel {
                sigma: 1.0,
                seed: 7,
            },
        );
        let n = 4000;
        let samples: Vec<f64> = (0..n).map(|_| rec.sample(&[false, false, false])).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }
}
