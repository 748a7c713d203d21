//! # seceda-core
//!
//! The paper's primary contribution made executable: a *security-centric
//! EDA flow* with holistic re-evaluation of every threat after every
//! countermeasure — "secure composition" (Knechtel et al., DATE 2020).
//!
//! The thesis of the paper is that countermeasures interact: adding
//! error-detecting logic can void a masking scheme \[61\], classical
//! optimization can strip redundancy and watermarks, and a locking pass
//! can change timing enough to open fault windows. The only defensible
//! flow is one that, after *every* insertion, re-runs the evaluations
//! for *all* threat vectors and reports regressions. That flow is this
//! crate:
//!
//! * [`threat`] — threat vectors, attack timing, and the EDA roles of
//!   the paper's Table I;
//! * [`metrics`] — the security-metric framework, including the
//!   step-function behaviour Sec. IV predicts (and [`dse`] measures);
//! * [`compose`] — the composition engine: apply countermeasures to a
//!   design-under-test, re-evaluate all threats, detect cross-effects;
//! * [`cache`] — the per-threat evaluation cache, one lock per key, that
//!   makes the re-evaluate-everything loop affordable: results are keyed
//!   on the whole state (design digest, interface fields, evaluation
//!   parameters), so a hit is bit-identical to a recompute;
//! * [`closure`] — the multi-session closure driver: many
//!   countermeasure schedules evaluated concurrently over one shared
//!   cache, with rollback of regressing steps;
//! * [`flow`] — the classical (Fig. 1) and security-centric flow
//!   pipelines over the `seceda` substrate crates;
//! * [`dse`] — security-aware design-space exploration with
//!   step-function detection;
//! * [`report`] — the regenerators for the paper's Table I and Table II
//!   as *measured* artifacts.

pub mod cache;
pub mod closure;
pub mod compose;
pub mod dse;
pub mod flow;
pub mod metrics;
pub mod report;
pub mod threat;

pub use cache::{CacheStats, EvalCache};
pub use closure::{
    run_closure, run_closure_full, ClosureConfig, ClosureReport, ClosureSession, SessionOutcome,
};
pub use compose::{
    CompositionEngine, Countermeasure, DesignUnderTest, EvaluationOutcome, SecurityEvaluation,
};
pub use dse::{explore, step_score, DsePoint, DseSweep};
pub use flow::{run_classical_flow, run_secure_flow, FlowReport, StageReport};
pub use metrics::{
    MetricProvenance, MetricSource, MetricValue, SecurityMetric, SecurityReport, Verdict,
};
pub use report::{table1, table2, Table};
pub use threat::{AttackTime, EdaRole, ThreatVector};
