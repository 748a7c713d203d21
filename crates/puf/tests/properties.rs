//! Property-based tests for PUFs and the TRNG.

use seceda_puf::{
    bit_aliasing, reliability, uniformity, uniqueness, ArbiterPuf, ArbiterPufConfig, Trng,
    TrngConfig, TrngHealth,
};
use seceda_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn metrics_stay_in_range(chips in 2usize..8, bits in 1usize..64, seed in any::<u64>()) {
        // synthesize an arbitrary response matrix from the seed
        let responses: Vec<Vec<bool>> = (0..chips)
            .map(|c| {
                (0..bits)
                    .map(|b| (seed.rotate_left((c * 7 + b) as u32) & 1) == 1)
                    .collect()
            })
            .collect();
        let u = uniqueness(&responses);
        prop_assert!((0.0..=1.0).contains(&u));
        let a = bit_aliasing(&responses);
        prop_assert!((0.0..=0.5 + 1e-9).contains(&a));
        for r in &responses {
            let f = uniformity(r);
            prop_assert!((0.0..=1.0).contains(&f));
        }
        let rel = reliability(&responses[0], &responses[1..]);
        prop_assert!((0.0..=1.0).contains(&rel));
    }

    #[test]
    fn noiseless_puf_is_perfectly_reliable(chip in any::<u64>()) {
        let config = ArbiterPufConfig {
            noise_sigma: 0.0,
            ..ArbiterPufConfig::default()
        };
        let mut puf = ArbiterPuf::manufacture(&config, chip);
        let challenges = seceda_puf::random_challenges(32, 64, chip ^ 1);
        let reference: Vec<bool> = challenges.iter().map(|c| puf.respond_ideal(c)).collect();
        let reread: Vec<bool> = challenges.iter().map(|c| puf.respond(c)).collect();
        prop_assert_eq!(reference, reread);
    }

    #[test]
    fn von_neumann_output_is_unbiased_for_any_source_bias(bias_pct in 20u32..80) {
        let mut trng = Trng::new(TrngConfig {
            source_bias: bias_pct as f64 / 100.0,
            repetition_cutoff: 10_000,
            proportion_cutoff: 100_000,
            proportion_window: 99_999,
            seed: bias_pct as u64 * 31,
            ..TrngConfig::default()
        });
        let bits = trng.bits(1500);
        prop_assert_eq!(bits.len(), 1500);
        let ones = bits.iter().filter(|&&b| b).count();
        prop_assert!((600..=900).contains(&ones), "ones = {}", ones);
    }

    #[test]
    fn stuck_sources_are_always_caught(seed in any::<u64>()) {
        let mut trng = Trng::new(TrngConfig {
            stuck: true,
            seed,
            ..TrngConfig::default()
        });
        prop_assert!(trng.bits(16).is_empty());
        prop_assert_eq!(trng.health(), TrngHealth::RepetitionFailure);
    }
}
