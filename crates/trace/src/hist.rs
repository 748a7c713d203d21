//! Zero-dependency log-bucketed histograms.
//!
//! [`Histogram`] aggregates `u64` samples (typically nanoseconds) into
//! logarithmic buckets with four linear sub-buckets per power of two, so
//! any percentile estimate is within 25% relative error of the true
//! sample — accurate enough for p50/p90/p99 latency reporting — at a
//! fixed 157-slot footprint.
//!
//! Samples are recorded through [`crate::histogram`] as events and
//! aggregated by [`crate::Summary`], which hands out the histograms it
//! builds.

/// Linear sub-buckets per power of two (2 bits of mantissa).
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Values at or above `2^MAX_EXP` land in the overflow bucket.
/// `2^40` ns is ~18 minutes, far beyond any probe this crate records.
const MAX_EXP: u32 = 40;
/// Bucket count: exact buckets for 0..4, four sub-buckets per octave
/// from 2^2 through 2^39, and one overflow bucket.
const NUM_BUCKETS: usize = SUBS + (MAX_EXP as usize - SUB_BITS as usize) * SUBS + 1;
/// Index of the overflow bucket (samples ≥ 2^40).
const OVERFLOW_BUCKET: usize = NUM_BUCKETS - 1;

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of a sample value.
fn bucket_index(value: u64) -> usize {
    if value < SUBS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    if msb >= MAX_EXP {
        return OVERFLOW_BUCKET;
    }
    let sub = ((value >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS + (msb - SUB_BITS) as usize * SUBS + sub
}

/// Inclusive `[low, high]` value range of a bucket.
///
/// The overflow bucket reports `[2^40, u64::MAX]`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index < SUBS {
        return (index as u64, index as u64);
    }
    if index == OVERFLOW_BUCKET {
        return (1u64 << MAX_EXP, u64::MAX);
    }
    let b = index - SUBS;
    let msb = SUB_BITS + (b / SUBS) as u32;
    let sub = (b % SUBS) as u64;
    let low = (1u64 << msb) + (sub << (msb - SUB_BITS));
    let high = low + (1u64 << (msb - SUB_BITS)) - 1;
    (low, high)
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`): the upper bound of
    /// the bucket where the cumulative count crosses `ceil(q * count)`,
    /// clamped to the observed `[min, max]` so p100 is exact and
    /// overflow-bucket estimates never exceed a real sample.
    ///
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let (_, high) = bucket_bounds(i);
                return high.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate. See [`Histogram::quantile`].
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate. See [`Histogram::quantile`].
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate. See [`Histogram::quantile`].
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Guard returned by [`hist_timer`]: records the elapsed nanoseconds
/// into the named histogram on drop. When tracing is off the guard is
/// empty — no clock read, no record — so per-iteration timers can stay
/// in hot loops unconditionally.
#[derive(Debug)]
pub struct HistTimer {
    name: &'static str,
    start: Option<std::time::Instant>,
}

/// Starts a duration sample for `name` (conventionally `*_ns`); the
/// sample records when the guard drops.
///
/// ```
/// let ((), events) = seceda_trace::session(|| {
///     for _ in 0..3 {
///         let _t = seceda_trace::hist_timer("demo.iter_ns");
///     }
/// });
/// let summary = seceda_trace::Summary::of(&events);
/// assert_eq!(summary.histogram("demo.iter_ns").unwrap().count(), 3);
/// ```
pub fn hist_timer(name: &'static str) -> HistTimer {
    HistTimer {
        name,
        start: crate::recorder::enabled().then(std::time::Instant::now),
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            crate::recorder::histogram(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_cover_u64() {
        let mut expected_low = 0u64;
        for i in 0..OVERFLOW_BUCKET {
            let (low, high) = bucket_bounds(i);
            assert_eq!(low, expected_low, "bucket {i} starts after a gap");
            assert!(high >= low);
            expected_low = high + 1;
        }
        assert_eq!(expected_low, 1u64 << MAX_EXP);
        assert_eq!(bucket_bounds(OVERFLOW_BUCKET), (1u64 << MAX_EXP, u64::MAX));
    }

    #[test]
    fn every_value_lands_in_its_bounds() {
        let probes = [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            63,
            64,
            100,
            1_000,
            65_535,
            65_536,
            1_000_000_007,
            (1u64 << 39) + 12345,
            (1u64 << 40) - 1,
            1u64 << 40,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            let (low, high) = bucket_bounds(i);
            assert!(
                (low..=high).contains(&v),
                "value {v} mapped to bucket {i} = [{low}, {high}]"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded_by_a_quarter() {
        for &v in &[5u64, 100, 12_345, 9_999_999, 123_456_789_012] {
            let (low, high) = bucket_bounds(bucket_index(v));
            assert!(
                (high - low) as f64 <= 0.25 * low.max(1) as f64 + 1.0,
                "bucket [{low}, {high}] for {v} wider than 25%"
            );
        }
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        for (q, expected) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let est = h.quantile(q);
            let err = (est as f64 - expected as f64).abs() / expected as f64;
            assert!(
                err <= 0.25,
                "q={q}: estimate {est} vs true {expected} (err {err:.2})"
            );
            assert!(est >= expected, "upper-bound estimate never undershoots");
        }
        assert_eq!(h.quantile(1.0), 1000, "p100 is exact");
        assert_eq!(h.quantile(0.0), h.quantile(1e-9), "q=0 behaves like min");
    }

    #[test]
    fn overflow_bucket_catches_huge_samples_and_reports_max() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(10);
        h.record(10);
        h.record(u64::MAX);
        h.record(1u64 << 50);
        assert_eq!(h.buckets[OVERFLOW_BUCKET], 2);
        assert_eq!(h.max(), u64::MAX);
        // both high quantiles sit in the overflow bucket; the estimate is
        // clamped to the observed max, not the bucket's 2^64-1 bound
        assert_eq!(h.quantile(0.99), u64::MAX);
        // p50 sits in 10's bucket [10, 11]; the estimate is the bucket's
        // upper bound
        assert_eq!(h.p50(), 11);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
