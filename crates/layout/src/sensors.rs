//! Physical security structures: fault-injection and Trojan sensors.
//!
//! Sensors \[9\], \[26\] detect local disturbances (laser spots, EM probes,
//! delay anomalies from Trojans) within a radius.

use crate::place::Placement;

/// A set of placed sensors and their coverage statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorPlan {
    /// Sensor positions on the placement grid.
    pub positions: Vec<(u32, u32)>,
    /// Detection radius (Chebyshev distance).
    pub radius: u32,
    /// Fraction of grid cells within radius of at least one sensor.
    pub coverage: f64,
}

impl SensorPlan {
    /// Whether a disturbance at `(x, y)` is detected.
    pub fn detects(&self, x: u32, y: u32) -> bool {
        self.positions
            .iter()
            .any(|&(sx, sy)| sx.abs_diff(x).max(sy.abs_diff(y)) <= self.radius)
    }
}

/// Greedy max-coverage sensor placement: each sensor goes to the grid
/// cell covering the most currently-uncovered cells.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn place_sensors(placement: &Placement, count: usize, radius: u32) -> SensorPlan {
    assert!(count > 0, "need at least one sensor");
    let w = placement.width;
    let h = placement.height;
    let mut covered = vec![false; (w * h) as usize];
    let idx = |x: u32, y: u32| (y * w + x) as usize;
    let mut positions = Vec::with_capacity(count);
    for _ in 0..count {
        let mut best = (0u32, 0u32);
        let mut best_gain = 0usize;
        for x in 0..w {
            for y in 0..h {
                let mut gain = 0;
                for cx in x.saturating_sub(radius)..=(x + radius).min(w - 1) {
                    for cy in y.saturating_sub(radius)..=(y + radius).min(h - 1) {
                        if !covered[idx(cx, cy)] {
                            gain += 1;
                        }
                    }
                }
                if gain > best_gain {
                    best_gain = gain;
                    best = (x, y);
                }
            }
        }
        if best_gain == 0 {
            break; // fully covered
        }
        let (x, y) = best;
        for cx in x.saturating_sub(radius)..=(x + radius).min(w - 1) {
            for cy in y.saturating_sub(radius)..=(y + radius).min(h - 1) {
                covered[idx(cx, cy)] = true;
            }
        }
        positions.push(best);
    }
    let coverage = covered.iter().filter(|&&c| c).count() as f64 / covered.len() as f64;
    SensorPlan {
        positions,
        radius,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlacementConfig};
    use seceda_netlist::{random_circuit, RandomCircuitConfig};

    fn placement() -> Placement {
        let nl = random_circuit(&RandomCircuitConfig {
            num_gates: 100,
            ..RandomCircuitConfig::default()
        });
        place(&nl, &PlacementConfig::default())
    }

    #[test]
    fn more_sensors_more_coverage() {
        let p = placement();
        let few = place_sensors(&p, 1, 2);
        let many = place_sensors(&p, 6, 2);
        assert!(many.coverage >= few.coverage);
        assert!(many.coverage > 0.5, "six radius-2 sensors on a 10x10 grid");
    }

    #[test]
    fn detection_matches_radius() {
        let p = placement();
        let plan = place_sensors(&p, 1, 2);
        let (sx, sy) = plan.positions[0];
        assert!(plan.detects(sx, sy));
        assert!(plan.detects(sx.saturating_sub(2), sy));
        if sx + 3 < p.width {
            assert!(!plan.detects(sx + 3, sy + 3));
        }
    }

    #[test]
    fn full_coverage_stops_adding_sensors() {
        let p = placement();
        let plan = place_sensors(&p, 1000, 10);
        assert!((plan.coverage - 1.0).abs() < 1e-9);
        assert!(plan.positions.len() < 1000, "greedy stops when covered");
    }
}
