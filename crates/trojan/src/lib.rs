//! # seceda-trojan
//!
//! Hardware Trojans: insertion, detection by testing, detection by
//! path-delay fingerprints, and runtime monitors — the Trojan column
//! of Table II.
//!
//! * [`insert`] — rare-trigger Trojan insertion: the trigger is a
//!   conjunction of rarely-active internal signals (found by signal
//!   probability analysis), the payload corrupts, leaks, or disables;
//! * [`mero`] — MERO-style statistical test generation \[40\]: patterns
//!   that excite every rare node to its rare value at least N times,
//!   maximizing the chance of firing unknown triggers;
//! * [`fingerprint`] — path-delay fingerprinting \[35\]: compare a chip's
//!   path-delay signature against a golden population with process
//!   variation; the extra load of a Trojan shows as an outlier;
//! * [`monitor`] — design-time insertion of runtime security monitors
//!   \[25\] that raise an alarm when a rare trigger condition actually
//!   fires in the field.

pub mod fingerprint;
pub mod insert;
pub mod mero;
pub mod monitor;

pub use fingerprint::{fingerprint_detect, DelayFingerprint, FingerprintConfig};
pub use insert::{insert_trojan, PayloadKind, TrojanConfig, TrojanedNetlist};
pub use mero::{generate_mero_tests, trigger_coverage, MeroConfig, MeroTestSet};
pub use monitor::{
    insert_rare_event_monitor, instrument, rare_signals, MonitoredNetlist, RareSignal,
};
