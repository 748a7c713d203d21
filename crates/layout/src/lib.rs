//! # seceda-layout
//!
//! Physical synthesis ("place and route") model and the physical-stage
//! security schemes of Table II.
//!
//! * [`place`](mod@place) — grid placement by simulated annealing over
//!   half-perimeter wirelength, with an optional *perturbation* defense
//!   that trades wirelength for split-manufacturing security \[54\].
//!   A net→pin table built once per call lets each swap re-cost only the
//!   nets of the two swapped gates; the result is bit-identical to
//!   re-costing the whole design after every swap;
//! * [`route`](mod@route) — layer-assigned global routing: short connections on low
//!   metal, long ones higher — the structural fact split manufacturing
//!   relies on;
//! * [`timing`] — wire-delay-annotated static timing on top of the
//!   placement;
//! * [`split`] — split manufacturing \[27\]: FEOL/BEOL partition at a
//!   chosen metal layer, the proximity attack \[52\] that exploits
//!   placement locality, and the wire-lifting defense \[53\];
//! * [`sensors`] — on-grid placement of fault-injection / Trojan sensors
//!   \[9\], \[26\], \[28\] with spatial coverage metrics.

#[cfg(test)]
mod oracle;
pub mod place;
pub mod route;
pub mod sensors;
pub mod split;
pub mod timing;

pub use place::{perturb_placement, place, Placement, PlacementConfig};
pub use route::{route, RouteConfig, RoutedDesign, Wire};
pub use sensors::{place_sensors, SensorPlan};
pub use split::{lift_wires, proximity_attack, split_at, FeolView, ProximityResult};
pub use timing::{timing_report, TimingReport};
