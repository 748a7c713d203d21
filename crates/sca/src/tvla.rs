//! Test Vector Leakage Assessment: Welch's t-test on trace groups.
//!
//! TVLA \[16\] compares the per-sample means of two trace populations
//! (classically "fixed plaintext" vs "random plaintext"). A |t| value
//! above 4.5 at any sample rejects, with high confidence, the hypothesis
//! that the device leaks nothing about the difference between the
//! groups.

/// The conventional TVLA pass/fail threshold on |t|.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Result of a TVLA evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TvlaResult {
    /// Welch's t statistic per trace sample.
    pub t_values: Vec<f64>,
    /// max |t| over all samples.
    pub max_abs_t: f64,
}

impl TvlaResult {
    /// `true` if any sample exceeds the threshold — the design leaks.
    pub fn leaks(&self) -> bool {
        self.max_abs_t > TVLA_THRESHOLD
    }
}

/// Welch's t statistic for two sample sets (single sample point).
///
/// Returns 0.0 when either group has fewer than two observations or both
/// variances vanish.
fn welch_t(group_a: &[f64], group_b: &[f64]) -> f64 {
    if group_a.len() < 2 || group_b.len() < 2 {
        return 0.0;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let var = |xs: &[f64], m: f64| {
        xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
    };
    let ma = mean(group_a);
    let mb = mean(group_b);
    let va = var(group_a, ma);
    let vb = var(group_b, mb);
    let denom = (va / group_a.len() as f64 + vb / group_b.len() as f64).sqrt();
    if denom == 0.0 {
        if ma == mb {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (ma - mb) / denom
    }
}

/// Runs TVLA over two trace matrices (`traces[i]` is one trace; all
/// traces must share the same number of samples).
///
/// # Panics
///
/// Panics if trace lengths are inconsistent.
pub fn tvla(group_a: &[Vec<f64>], group_b: &[Vec<f64>]) -> TvlaResult {
    let num_samples = group_a
        .first()
        .or_else(|| group_b.first())
        .map(|t| t.len())
        .unwrap_or(0);
    for t in group_a.iter().chain(group_b) {
        assert_eq!(t.len(), num_samples, "inconsistent trace length");
    }
    let mut t_values = Vec::with_capacity(num_samples);
    let mut max_abs = 0.0f64;
    let mut col_a = Vec::with_capacity(group_a.len());
    let mut col_b = Vec::with_capacity(group_b.len());
    for s in 0..num_samples {
        col_a.clear();
        col_a.extend(group_a.iter().map(|t| t[s]));
        col_b.clear();
        col_b.extend(group_b.iter().map(|t| t[s]));
        let t = welch_t(&col_a, &col_b);
        if t.abs() > max_abs {
            max_abs = t.abs();
        }
        t_values.push(t);
    }
    TvlaResult {
        t_values,
        max_abs_t: max_abs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

    fn noisy(mean: f64, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| vec![mean + rng.gen_range(-0.5..0.5)])
            .collect()
    }

    #[test]
    fn identical_distributions_pass() {
        let a = noisy(3.0, 500, 1);
        let b = noisy(3.0, 500, 2);
        let r = tvla(&a, &b);
        assert!(!r.leaks(), "max |t| = {}", r.max_abs_t);
    }

    #[test]
    fn shifted_means_fail() {
        let a = noisy(3.0, 500, 3);
        let b = noisy(3.4, 500, 4);
        let r = tvla(&a, &b);
        assert!(r.leaks(), "max |t| = {}", r.max_abs_t);
    }

    #[test]
    fn welch_t_sign_follows_means() {
        let a = [1.0, 1.1, 0.9, 1.0];
        let b = [2.0, 2.1, 1.9, 2.0];
        assert!(welch_t(&a, &b) < 0.0);
        assert!(welch_t(&b, &a) > 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(welch_t(&[1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(welch_t(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!(welch_t(&[1.0, 1.0], &[2.0, 2.0]).is_infinite());
    }

    #[test]
    fn multi_sample_traces_tracked_per_sample() {
        // sample 0 identical, sample 1 shifted
        let a: Vec<Vec<f64>> = (0..200).map(|i| vec![1.0 + (i % 2) as f64, 5.0]).collect();
        let b: Vec<Vec<f64>> = (0..200).map(|i| vec![1.0 + (i % 2) as f64, 6.0]).collect();
        let r = tvla(&a, &b);
        assert!(r.t_values[0].abs() < 1.0);
        assert!(r.t_values[1].is_infinite() || r.t_values[1].abs() > TVLA_THRESHOLD);
    }

    #[test]
    fn empty_groups() {
        let r = tvla(&[], &[]);
        assert_eq!(r.t_values.len(), 0);
        assert!(!r.leaks());
    }
}
