//! # seceda-sca
//!
//! Side-channel analysis and countermeasures — the crate behind the
//! paper's motivational example (Fig. 2) and the SCA column of Table II.
//!
//! * [`tvla`](mod@tvla) — Test Vector Leakage Assessment \[16\]: Welch's t-test over
//!   fixed-vs-random trace groups, the physical-synthesis-stage leakage
//!   evaluation of Table II;
//! * [`cpa`] — Correlation Power Analysis \[1\] under a caller-supplied
//!   leakage model, the attack the countermeasures defend against;
//! * [`isw`] — the ISW private-circuit masking transform \[15\]: 3-share
//!   Boolean masking with the AND-gadget schedule from the paper's
//!   Sec. II-B, emitting `no_reassoc` ordering barriers on every gadget
//!   gate;
//! * [`probing`] — an *exact* first-order probing checker that enumerates
//!   share and randomness distributions (no measurement noise), used to
//!   verify gadgets and to expose what security-unaware synthesis broke;
//! * [`leakage`] — per-net first-order leakage identification
//!   ("identification of leaking gates", Table II logic-synthesis cell);
//! * [`traces`] — trace-acquisition campaigns over the simulator's power
//!   models.

pub mod cpa;
pub mod isw;
pub mod leakage;
pub mod probing;
pub mod traces;
pub mod tvla;

pub use cpa::CpaResult;
pub use isw::{mask_netlist, MaskedNetlist, NUM_SHARES};
pub use leakage::{leaking_nets, LeakingNet};
pub use probing::{first_order_leaks, second_order_leaks, ProbingModel};
pub use traces::{acquire_fixed_vs_random, FixedVsRandom, TraceCampaign};
pub use tvla::{tvla, TvlaResult, TVLA_THRESHOLD};
