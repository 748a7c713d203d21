//! Natural vs. malicious fault discrimination (Sec. III-F).
//!
//! The paper argues a security-aware DFX infrastructure must *respond
//! differently* to natural faults (recover and resume) and tampering
//! attempts (re-key or halt), and that telling them apart is non-trivial
//! \[59\]. This module implements the statistical discriminator: natural
//! single-event upsets strike uniformly at random locations and times,
//! while an attacker repeatedly targets the same sensitive spot.

use std::collections::HashMap;

/// Verdict over an observed sequence of fault events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultVerdict {
    /// Consistent with natural, uniformly distributed upsets → recover
    /// and resume operation.
    Natural,
    /// Spatially/temporally clustered → treat as an attack: re-key or
    /// discontinue service.
    Malicious,
    /// Not enough events to decide.
    Undecided,
}

/// Sliding-window fault discriminator.
///
/// Records `(location, cycle)` fault events and classifies the recent
/// window: if one location accounts for more than `cluster_fraction` of
/// events, or the event *rate* exceeds `max_rate_per_cycle` (faults per
/// cycle), the verdict is [`FaultVerdict::Malicious`].
///
/// # Example
///
/// ```
/// use seceda_fia::{FaultDiscriminator, FaultVerdict};
///
/// let mut d = FaultDiscriminator::new(8, 0.5, 0.01);
/// for cycle in 0..8 {
///     d.record(42, cycle * 1000); // same spot, again and again
/// }
/// assert_eq!(d.verdict(), FaultVerdict::Malicious);
/// ```
#[derive(Debug, Clone)]
pub struct FaultDiscriminator {
    window: usize,
    cluster_fraction: f64,
    max_rate_per_cycle: f64,
    events: Vec<(usize, u64)>,
}

impl FaultDiscriminator {
    /// Creates a discriminator.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` or the fractions are out of range.
    pub fn new(window: usize, cluster_fraction: f64, max_rate_per_cycle: f64) -> Self {
        assert!(window >= 2, "window too small");
        assert!(
            (0.0..=1.0).contains(&cluster_fraction),
            "cluster fraction must be in [0, 1]"
        );
        assert!(max_rate_per_cycle > 0.0, "rate bound must be positive");
        FaultDiscriminator {
            window,
            cluster_fraction,
            max_rate_per_cycle,
            events: Vec::new(),
        }
    }

    /// Records a fault event at `location` (e.g. a net or sensor index)
    /// during `cycle`.
    pub fn record(&mut self, location: usize, cycle: u64) {
        self.events.push((location, cycle));
        if self.events.len() > self.window {
            self.events.remove(0);
        }
    }

    /// Classifies the current window.
    pub fn verdict(&self) -> FaultVerdict {
        if self.events.len() < self.window {
            return FaultVerdict::Undecided;
        }
        // spatial clustering
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for &(loc, _) in &self.events {
            *counts.entry(loc).or_insert(0) += 1;
        }
        let max_count = counts.values().copied().max().unwrap_or(0);
        if (max_count as f64) / (self.events.len() as f64) > self.cluster_fraction {
            return FaultVerdict::Malicious;
        }
        // temporal rate
        let first = self.events.first().map(|&(_, c)| c).unwrap_or(0);
        let last = self.events.last().map(|&(_, c)| c).unwrap_or(0);
        let span = last.saturating_sub(first).max(1);
        if self.events.len() as f64 / span as f64 > self.max_rate_per_cycle {
            return FaultVerdict::Malicious;
        }
        FaultVerdict::Natural
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn repeated_location_is_malicious() {
        let mut d = FaultDiscriminator::new(10, 0.5, 0.001);
        for i in 0..10 {
            d.record(7, i * 100_000);
        }
        assert_eq!(d.verdict(), FaultVerdict::Malicious);
    }

    #[test]
    fn burst_rate_is_malicious() {
        let mut d = FaultDiscriminator::new(10, 0.9, 0.001);
        for i in 0..10u64 {
            d.record(i as usize, 1000 + i); // 10 faults in 10 cycles
        }
        assert_eq!(d.verdict(), FaultVerdict::Malicious);
    }

    #[test]
    fn sparse_uniform_faults_are_natural() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut d = FaultDiscriminator::new(10, 0.5, 0.001);
        let mut cycle = 0u64;
        for _ in 0..10 {
            cycle += rng.gen_range(50_000..150_000u64);
            d.record(rng.gen_range(0..10_000), cycle);
        }
        assert_eq!(d.verdict(), FaultVerdict::Natural);
    }

    #[test]
    fn undecided_until_window_full() {
        let mut d = FaultDiscriminator::new(5, 0.5, 0.001);
        for i in 0..4 {
            d.record(i, i as u64 * 100_000);
            assert_eq!(d.verdict(), FaultVerdict::Undecided);
        }
        d.record(4, 500_000);
        assert_ne!(d.verdict(), FaultVerdict::Undecided);
    }

    #[test]
    fn window_slides() {
        let mut d = FaultDiscriminator::new(4, 0.6, 0.001);
        // old benign events scroll out; recent hammering dominates
        for i in 0..4 {
            d.record(i, i as u64 * 100_000);
        }
        assert_eq!(d.verdict(), FaultVerdict::Natural);
        for i in 0..4 {
            d.record(99, 1_000_000 + i * 200_000);
        }
        assert_eq!(d.verdict(), FaultVerdict::Malicious);
        assert_eq!(d.events.len(), 4);
    }

    #[test]
    #[should_panic(expected = "window too small")]
    fn tiny_window_rejected() {
        let _ = FaultDiscriminator::new(1, 0.5, 0.1);
    }
}
