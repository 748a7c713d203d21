//! Correlation power analysis (CPA) \[1\] with a caller-supplied leakage
//! model.

/// Result of a CPA key-byte recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaResult {
    /// |Pearson correlation| per key guess (max over samples).
    pub correlation: Vec<f64>,
    /// The best-correlating key guess.
    pub best_guess: u8,
}

impl CpaResult {
    /// Margin between the best and the second-best guess correlation.
    pub fn margin(&self) -> f64 {
        let mut sorted = self.correlation.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        sorted[0] - sorted.get(1).copied().unwrap_or(0.0)
    }
}

/// Pearson correlation of two equal-length samples. Returns 0 for
/// degenerate (constant) inputs.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

/// Recovers one AES key byte by CPA with the leakage model
/// `model(plaintext, guess)`: e.g. first-round S-box Hamming weight
/// `HW(SBOX[pt ^ guess])`, or, for a registered implementation whose
/// register bank transitions from `SBOX[guess]` to `SBOX[pt ^ guess]`,
/// `HD(SBOX[guess], SBOX[pt ^ guess])`.
///
/// `traces[i]` is the trace for plaintext byte `plaintexts[i]`; each
/// trace may have several samples (max-correlation over samples is used).
///
/// The trace matrix is transposed once and each sample column is
/// centered with its variance precomputed, so the 256-guess loop is a
/// single pass per (guess, sample) pair instead of re-copying the
/// column and re-deriving both means inside every Pearson call; the
/// guesses then fan out across cores.
///
/// # Panics
///
/// Panics if `traces` and `plaintexts` differ in length.
pub fn cpa_attack_with_model(
    traces: &[Vec<f64>],
    plaintexts: &[u8],
    model: impl Fn(u8, u8) -> f64 + Sync,
) -> CpaResult {
    assert_eq!(traces.len(), plaintexts.len(), "trace/plaintext mismatch");
    let n = traces.len();
    let num_samples = traces.first().map(|t| t.len()).unwrap_or(0);
    if n < 2 || num_samples == 0 {
        // degenerate input: every Pearson correlation is defined as 0
        return CpaResult {
            correlation: vec![0.0; 256],
            best_guess: 0,
        };
    }
    // transpose to sample-major, center each column, precompute sum of
    // squared deviations (the per-sample half of Pearson's denominator)
    let mut columns = vec![vec![0.0f64; n]; num_samples];
    for (i, t) in traces.iter().enumerate() {
        for (s, column) in columns.iter_mut().enumerate() {
            column[i] = t[s];
        }
    }
    let mut col_sq = vec![0.0f64; num_samples];
    for (column, sq) in columns.iter_mut().zip(&mut col_sq) {
        let mean = column.iter().sum::<f64>() / n as f64;
        for v in column.iter_mut() {
            *v -= mean;
        }
        *sq = column.iter().map(|v| v * v).sum();
    }
    let guesses: Vec<u8> = (0..=255u8).collect();
    let correlation = seceda_testkit::par::par_map(&guesses, |_, &guess| {
        let mut hyp: Vec<f64> = plaintexts.iter().map(|&pt| model(pt, guess)).collect();
        let mean = hyp.iter().sum::<f64>() / n as f64;
        for v in hyp.iter_mut() {
            *v -= mean;
        }
        let hyp_sq: f64 = hyp.iter().map(|v| v * v).sum();
        if hyp_sq == 0.0 {
            return 0.0;
        }
        let mut best = 0.0f64;
        for (column, &sq) in columns.iter().zip(&col_sq) {
            if sq == 0.0 {
                continue;
            }
            let cov: f64 = hyp.iter().zip(column).map(|(h, c)| h * c).sum();
            let c = (cov / (hyp_sq.sqrt() * sq.sqrt())).abs();
            if c > best {
                best = c;
            }
        }
        best
    });
    let best_guess = correlation
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(g, _)| g as u8)
        .unwrap_or(0);
    CpaResult {
        correlation,
        best_guess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_cipher::AES_SBOX;
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

    /// CPA under the Hamming-weight model `HW(SBOX[pt ^ guess])`.
    fn cpa_attack(traces: &[Vec<f64>], plaintexts: &[u8]) -> CpaResult {
        cpa_attack_with_model(traces, plaintexts, |pt, guess| {
            AES_SBOX[(pt ^ guess) as usize].count_ones() as f64
        })
    }

    #[test]
    fn pearson_basics() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    /// Synthetic traces: power = HW(SBOX[pt ^ k]) + noise.
    fn synthetic_traces(key: u8, n: usize, noise: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut traces = Vec::with_capacity(n);
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            let pt: u8 = rng.gen();
            let hw = AES_SBOX[(pt ^ key) as usize].count_ones() as f64;
            let sample = hw + rng.gen_range(-noise..=noise);
            traces.push(vec![sample]);
            pts.push(pt);
        }
        (traces, pts)
    }

    #[test]
    fn recovers_key_from_clean_traces() {
        let (traces, pts) = synthetic_traces(0x3C, 300, 0.0, 11);
        let result = cpa_attack(&traces, &pts);
        assert_eq!(result.best_guess, 0x3C);
        assert!(result.margin() > 0.1, "margin {}", result.margin());
    }

    #[test]
    fn recovers_key_despite_noise() {
        let (traces, pts) = synthetic_traces(0xA7, 2000, 4.0, 12);
        let result = cpa_attack(&traces, &pts);
        assert_eq!(result.best_guess, 0xA7);
    }

    #[test]
    fn single_pass_correlations_match_naive_pearson() {
        // multi-sample traces: sample 1 leaks, samples 0 and 2 are noise
        let mut rng = StdRng::seed_from_u64(21);
        let key = 0x5A;
        let mut traces = Vec::new();
        let mut pts = Vec::new();
        for _ in 0..150 {
            let pt: u8 = rng.gen();
            let hw = AES_SBOX[(pt ^ key) as usize].count_ones() as f64;
            traces.push(vec![rng.gen_range(0.0..8.0), hw, rng.gen_range(0.0..8.0)]);
            pts.push(pt);
        }
        let result = cpa_attack(&traces, &pts);
        let mut column = vec![0.0f64; traces.len()];
        for guess in 0..=255u8 {
            let hyp: Vec<f64> = pts
                .iter()
                .map(|&pt| AES_SBOX[(pt ^ guess) as usize].count_ones() as f64)
                .collect();
            let mut naive = 0.0f64;
            for s in 0..3 {
                for (i, t) in traces.iter().enumerate() {
                    column[i] = t[s];
                }
                naive = naive.max(pearson(&hyp, &column).abs());
            }
            let fast = result.correlation[guess as usize];
            assert!(
                (fast - naive).abs() < 1e-9,
                "guess {guess}: fast {fast} vs naive {naive}"
            );
        }
        assert_eq!(result.best_guess, key);
    }

    #[test]
    fn degenerate_inputs_yield_zero_correlations() {
        let empty = cpa_attack(&[], &[]);
        assert_eq!(empty.best_guess, 0);
        assert!(empty.correlation.iter().all(|&c| c == 0.0));
        let one = cpa_attack(&[vec![1.0]], &[0x42]);
        assert!(one.correlation.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn fails_gracefully_on_unrelated_traces() {
        let mut rng = StdRng::seed_from_u64(13);
        let traces: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.gen_range(0.0..8.0)]).collect();
        let pts: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        let result = cpa_attack(&traces, &pts);
        // correlations should all be small
        assert!(result.correlation.iter().all(|&c| c < 0.35));
    }
}
