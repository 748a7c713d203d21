//! The security-metric framework.
//!
//! Sec. IV of the paper: EDA is metrics-driven, but security metrics
//! differ fundamentally from PPA — an intelligent attacker targets the
//! worst case, not the average, so "unlikely but possible" events count,
//! and many metrics behave like *step functions* of design effort.

use crate::threat::ThreatVector;
use seceda_testkit::json::{Json, ToJson};
use std::fmt;

/// A measured metric value with its pass direction.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Higher is better (e.g. fault-detection coverage).
    HigherBetter {
        /// Measured value.
        value: f64,
        /// Minimum acceptable value.
        threshold: f64,
    },
    /// Lower is better (e.g. TVLA |t|, leaking-wire count).
    LowerBetter {
        /// Measured value.
        value: f64,
        /// Maximum acceptable value.
        threshold: f64,
    },
    /// Reported for awareness but never pass/fail-gated — e.g. the
    /// rare-net Trojan surface of an unmonitored design, where no
    /// universal threshold exists. Always yields
    /// [`Verdict::NotApplicable`].
    Informational {
        /// Measured value.
        value: f64,
    },
    /// The evaluation could not produce a value — it panicked or was
    /// chaos-injected. Graceful degradation:
    /// the metric stays in the report (so the rest of the evaluation is
    /// not lost) with the reason, and yields [`Verdict::Unavailable`]
    /// rather than silently passing or failing.
    Unavailable {
        /// Why the evaluation produced no value.
        reason: String,
    },
}

impl MetricValue {
    /// Whether the metric meets its threshold. Informational metrics
    /// have no threshold and never fail; unavailable metrics carry no
    /// value and never "pass" (they are gated by
    /// [`Verdict::Unavailable`], not by this predicate).
    pub fn passes(&self) -> bool {
        match self {
            MetricValue::HigherBetter { value, threshold } => value >= threshold,
            MetricValue::LowerBetter { value, threshold } => value <= threshold,
            MetricValue::Informational { .. } => true,
            MetricValue::Unavailable { .. } => false,
        }
    }

    /// The raw measured value (`NaN` for unavailable metrics).
    pub fn value(&self) -> f64 {
        match self {
            MetricValue::HigherBetter { value, .. }
            | MetricValue::LowerBetter { value, .. }
            | MetricValue::Informational { value } => *value,
            MetricValue::Unavailable { .. } => f64::NAN,
        }
    }

    /// `false` when the evaluation produced no value.
    pub fn is_available(&self) -> bool {
        !matches!(self, MetricValue::Unavailable { .. })
    }
}

/// Pass/fail with an explanation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The metric meets its threshold.
    Pass,
    /// The metric violates its threshold.
    Fail,
    /// The metric could not be evaluated for this design.
    NotApplicable,
    /// The evaluation was degraded (panic, budget exhaustion, chaos
    /// injection) and produced no value this run; earlier or later runs
    /// may still produce one.
    Unavailable,
}

/// One evaluated security metric.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityMetric {
    /// Short metric name (e.g. "first-order probing leaks").
    pub name: String,
    /// The threat vector it speaks to.
    pub threat: ThreatVector,
    /// The measurement.
    pub value: MetricValue,
    /// The verdict.
    pub verdict: Verdict,
}

impl SecurityMetric {
    /// Builds a metric, deriving the verdict from the value.
    /// Informational values are never gated and report
    /// [`Verdict::NotApplicable`].
    pub fn new(name: impl Into<String>, threat: ThreatVector, value: MetricValue) -> Self {
        SecurityMetric {
            name: name.into(),
            threat,
            verdict: match &value {
                MetricValue::Informational { .. } => Verdict::NotApplicable,
                MetricValue::Unavailable { .. } => Verdict::Unavailable,
                _ if value.passes() => Verdict::Pass,
                _ => Verdict::Fail,
            },
            value,
        }
    }

    /// Builds a degraded metric: the named evaluation could not run (or
    /// finish) for `reason`; the verdict is [`Verdict::Unavailable`].
    pub fn unavailable(
        name: impl Into<String>,
        threat: ThreatVector,
        reason: impl Into<String>,
    ) -> Self {
        SecurityMetric::new(
            name,
            threat,
            MetricValue::Unavailable {
                reason: reason.into(),
            },
        )
    }
}

impl fmt::Display for SecurityMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} = {:.4} ({:?})",
            self.threat,
            self.name,
            self.value.value(),
            self.verdict
        )
    }
}

/// How a metric in a report was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricSource {
    /// Evaluated from scratch this run.
    Computed,
    /// Served from the shared evaluation cache: an earlier evaluation
    /// already computed the metric under the same cache key (the same
    /// design digest and the same state the evaluator reads).
    Cached,
}

/// Provenance of one metric in a report (recorded by the incremental
/// composition engine when it runs with an evaluation cache).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricProvenance {
    /// The metric name this entry describes.
    pub name: String,
    /// Where the value came from.
    pub source: MetricSource,
}

/// A full multi-threat evaluation of one design state.
#[derive(Debug, Clone, Default)]
pub struct SecurityReport {
    /// Label of the design state (e.g. "after masking").
    pub label: String,
    /// All evaluated metrics.
    pub metrics: Vec<SecurityMetric>,
    /// Per-metric provenance, parallel to `metrics`, when the engine
    /// ran with an evaluation cache; empty otherwise.
    pub provenance: Vec<MetricProvenance>,
}

/// Equality compares the label and the metrics only. Provenance is
/// execution metadata — whether a value was computed or served from
/// cache — and a cached report must compare equal to its full-recompute
/// twin; this is the bit-identity contract the differential suite
/// pins. (Same discipline as `Netlist`'s equality, which ignores
/// internal net names as debugging metadata.)
impl PartialEq for SecurityReport {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label && self.metrics == other.metrics
    }
}

impl SecurityReport {
    /// Creates an empty report.
    pub fn new(label: impl Into<String>) -> Self {
        SecurityReport {
            label: label.into(),
            metrics: Vec::new(),
            provenance: Vec::new(),
        }
    }

    /// Number of metrics served from the evaluation cache this run.
    pub fn cached_count(&self) -> usize {
        self.provenance
            .iter()
            .filter(|p| p.source == MetricSource::Cached)
            .count()
    }

    /// `true` if every metric passes. Degraded ([`Verdict::Unavailable`])
    /// metrics do not fail the report — they are surfaced separately by
    /// [`SecurityReport::degraded`] so a partial evaluation still yields
    /// a usable (if weaker) verdict.
    pub fn all_pass(&self) -> bool {
        self.metrics.iter().all(|m| m.verdict != Verdict::Fail)
    }

    /// Metrics whose evaluation degraded to
    /// [`Verdict::Unavailable`] this run.
    pub fn degraded(&self) -> Vec<&SecurityMetric> {
        self.metrics
            .iter()
            .filter(|m| m.verdict == Verdict::Unavailable)
            .collect()
    }

    /// Metrics that regressed (pass → fail) relative to `baseline` —
    /// the *negative cross-effect* detector of the composition engine.
    pub fn regressions_from<'a>(&'a self, baseline: &SecurityReport) -> Vec<&'a SecurityMetric> {
        self.metrics
            .iter()
            .filter(|m| {
                m.verdict == Verdict::Fail
                    && baseline
                        .metrics
                        .iter()
                        .any(|b| b.name == m.name && b.verdict == Verdict::Pass)
            })
            .collect()
    }
}

impl ToJson for MetricValue {
    fn to_json(&self) -> Json {
        if let MetricValue::Unavailable { reason } = self {
            return Json::obj()
                .field("direction", "unavailable")
                .field("value", Json::Null)
                .field("threshold", Json::Null)
                .field("reason", reason.as_str())
                .build();
        }
        let (direction, value, threshold) = match self {
            MetricValue::HigherBetter { value, threshold } => {
                ("higher-better", *value, Json::Num(*threshold))
            }
            MetricValue::LowerBetter { value, threshold } => {
                ("lower-better", *value, Json::Num(*threshold))
            }
            MetricValue::Informational { value } => ("informational", *value, Json::Null),
            MetricValue::Unavailable { .. } => unreachable!("handled above"),
        };
        Json::obj()
            .field("direction", direction)
            .field("value", value)
            .field("threshold", threshold)
            .build()
    }
}

impl ToJson for Verdict {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Verdict::Pass => "pass",
                Verdict::Fail => "fail",
                Verdict::NotApplicable => "n/a",
                Verdict::Unavailable => "unavailable",
            }
            .to_string(),
        )
    }
}

impl ToJson for SecurityMetric {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name.as_str())
            .with("threat", &self.threat)
            .with("value", &self.value)
            .with("verdict", &self.verdict)
            .build()
    }
}

impl ToJson for SecurityReport {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .field("label", self.label.as_str())
            .field("all_pass", self.all_pass())
            .field("metrics", Json::arr(&self.metrics));
        if !self.provenance.is_empty() {
            obj = obj.field("cached", self.cached_count() as i64);
        }
        obj.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_respect_direction() {
        let cov = MetricValue::HigherBetter {
            value: 0.99,
            threshold: 0.95,
        };
        assert!(cov.passes());
        let t = MetricValue::LowerBetter {
            value: 7.2,
            threshold: 4.5,
        };
        assert!(!t.passes());
    }

    #[test]
    fn informational_metrics_never_gate() {
        let m = SecurityMetric::new(
            "rare-net Trojan surface",
            ThreatVector::Trojan,
            MetricValue::Informational { value: 12.0 },
        );
        assert_eq!(m.verdict, Verdict::NotApplicable);
        assert!(m.value.passes());
        assert_eq!(m.value.value(), 12.0);
        let mut r = SecurityReport::new("x");
        r.metrics.push(m.clone());
        assert!(r.all_pass(), "informational metrics must not fail a report");
        let j = m.value.to_json();
        assert_eq!(j.get("direction"), Some(&Json::Str("informational".into())));
        assert_eq!(j.get("threshold"), Some(&Json::Null));
    }

    #[test]
    fn unavailable_metrics_degrade_without_failing() {
        let m = SecurityMetric::unavailable(
            "fault-detection coverage",
            ThreatVector::FaultInjection,
            "worker panicked: chaos: injected panic at compose.threat.panic#1",
        );
        assert_eq!(m.verdict, Verdict::Unavailable);
        assert!(!m.value.is_available());
        assert!(m.value.value().is_nan());
        let mut r = SecurityReport::new("x");
        r.metrics.push(m.clone());
        assert!(
            r.all_pass(),
            "a degraded metric must not fail the whole report"
        );
        assert_eq!(r.degraded().len(), 1);
        assert_eq!(r.degraded()[0].name, "fault-detection coverage");
        // an Unavailable metric is not a regression from a passing one
        let mut base = SecurityReport::new("base");
        base.metrics.push(SecurityMetric::new(
            "fault-detection coverage",
            ThreatVector::FaultInjection,
            MetricValue::HigherBetter {
                value: 1.0,
                threshold: 0.5,
            },
        ));
        assert!(r.regressions_from(&base).is_empty());
        let j = m.value.to_json();
        assert_eq!(j.get("direction"), Some(&Json::Str("unavailable".into())));
        assert_eq!(j.get("value"), Some(&Json::Null));
        assert!(matches!(j.get("reason"), Some(Json::Str(s)) if s.contains("chaos")));
        assert_eq!(m.verdict.to_json(), Json::Str("unavailable".into()));
    }

    #[test]
    fn regressions_are_detected() {
        let mut before = SecurityReport::new("masked");
        before.metrics.push(SecurityMetric::new(
            "probing leaks",
            ThreatVector::SideChannel,
            MetricValue::LowerBetter {
                value: 0.0,
                threshold: 0.0,
            },
        ));
        let mut after = SecurityReport::new("masked+parity");
        after.metrics.push(SecurityMetric::new(
            "probing leaks",
            ThreatVector::SideChannel,
            MetricValue::LowerBetter {
                value: 2.0,
                threshold: 0.0,
            },
        ));
        let regressions = after.regressions_from(&before);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "probing leaks");
        assert!(!after.all_pass());
        assert!(before.all_pass());
    }
}
