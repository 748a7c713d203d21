//! Human-readable rendering: span tree with total/self time, counter
//! rollups, gauge snapshots, and histogram percentiles.

use crate::hist::Histogram;
use crate::recorder::{AttrValue, Event, SpanRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Aggregated view of a drained event list.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Completed spans in recording order (snapshot records of spans
    /// that were still open at drain time carry `unfinished: true`).
    pub spans: Vec<SpanRecord>,
    /// Total per counter name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last observed value per gauge name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Aggregated histogram per metric name.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Per parent span id, the indices into `spans` of its direct
    /// children, in recording order; built once by [`Summary::of`].
    children: HashMap<u64, Vec<usize>>,
}

impl Summary {
    /// Aggregates a drained event list.
    pub fn of(events: &[Event]) -> Self {
        let mut summary = Summary::default();
        for ev in events {
            match ev {
                Event::Span(s) => summary.spans.push(s.clone()),
                Event::Counter(c) => *summary.counters.entry(c.name).or_insert(0) += c.delta,
                Event::Gauge(g) => {
                    summary.gauges.insert(g.name, g.value);
                }
                Event::Hist(h) => summary
                    .histograms
                    .entry(h.name)
                    .or_insert_with(Histogram::new)
                    .record(h.value),
            }
        }
        for (i, s) in summary.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                summary.children.entry(p).or_default().push(i);
            }
        }
        summary
    }

    /// Direct children of the span with id `id`, in recording order.
    fn children_of(&self, id: u64) -> impl Iterator<Item = &SpanRecord> {
        let idx = self.children.get(&id).map_or(&[][..], Vec::as_slice);
        idx.iter().map(|&i| &self.spans[i])
    }

    /// Spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The aggregated histogram for a metric, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Self time of a span: its duration minus the durations of its
    /// direct children.
    pub fn self_time_ns(&self, span: &SpanRecord) -> u64 {
        let children: u64 = self.children_of(span.id).map(SpanRecord::duration_ns).sum();
        span.duration_ns().saturating_sub(children)
    }

    /// Renders the span tree plus counter/gauge/histogram rollups.
    pub fn render(&self) -> String {
        self.render_depth(usize::MAX)
    }

    /// Like [`Summary::render`], but prunes the span tree below
    /// `max_depth` levels (roots are depth 0); elided subtrees are
    /// replaced by a one-line count. Counters, gauges, and histograms
    /// are always rolled up in full.
    pub fn render_depth(&self, max_depth: usize) -> String {
        let mut out = String::new();
        // roots: spans without a parent, or whose parent was not recorded
        let ids: HashSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut ordered: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !ids.contains(&p)))
            .collect();
        ordered.sort_by_key(|s| s.start_ns);
        for root in ordered {
            self.render_span(root, 0, max_depth, &mut out);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, total) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {total}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let width = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  n={} p50={} p90={} p99={} max={}",
                    h.count(),
                    fmt_metric(name, h.p50()),
                    fmt_metric(name, h.p90()),
                    fmt_metric(name, h.p99()),
                    fmt_metric(name, h.max()),
                );
            }
        }
        out
    }

    fn render_span(&self, span: &SpanRecord, depth: usize, max_depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let _ = write!(
            out,
            "{indent}{}  total {}, self {}",
            span.name,
            fmt_duration(span.duration_ns()),
            fmt_duration(self.self_time_ns(span)),
        );
        if span.unfinished {
            out.push_str("  [UNFINISHED]");
        }
        if !span.attrs.is_empty() {
            out.push_str("  [");
            for (i, (k, v)) in span.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{k}={}", fmt_attr(v));
            }
            out.push(']');
        }
        out.push('\n');
        let mut children: Vec<&SpanRecord> = self.children_of(span.id).collect();
        if children.is_empty() {
            return;
        }
        if depth >= max_depth {
            let _ = writeln!(out, "{indent}  … {} child span(s) elided", children.len());
            return;
        }
        children.sort_by_key(|s| s.start_ns);
        for child in children {
            self.render_span(child, depth + 1, max_depth, out);
        }
    }
}

fn fmt_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(i) => i.to_string(),
        AttrValue::Float(f) => format!("{f:.3}"),
        AttrValue::Str(s) => format!("{s:?}"),
        AttrValue::Bool(b) => b.to_string(),
    }
}

/// Formats a histogram statistic: metrics named `*_ns` are durations.
fn fmt_metric(name: &str, value: u64) -> String {
    if name.ends_with("_ns") {
        fmt_duration(value)
    } else {
        value.to_string()
    }
}

/// Formats a nanosecond duration with a human-friendly unit.
pub fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Event {
        Event::Span(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            thread: 0,
            unfinished: false,
            attrs: Vec::new(),
        })
    }

    /// A nested session recorded children-first, as spans close: two
    /// roots, a three-level chain, siblings out of start order, an
    /// unfinished root snapshot with an unfinished child, and two
    /// orphans whose parent was never recorded.
    fn session() -> Vec<Event> {
        let mut events = vec![
            span(4, Some(3), "leaf", 12, 15),
            span(3, Some(2), "mid", 11, 19),
            span(6, Some(2), "sib.late", 40, 45),
            span(5, Some(2), "sib.early", 25, 30),
            span(2, Some(1), "child", 10, 50),
            span(1, None, "root", 0, 100),
            span(8, Some(99), "orphan", 120, 130),
            span(9, Some(8), "orphan.child", 121, 122),
            span(10, Some(98), "orphan2", 110, 111),
            span(7, None, "root2", 200, 220),
        ];
        for (id, parent, start) in [(11u64, None, 300u64), (12, Some(11), 305)] {
            let Event::Span(mut s) = span(id, parent, "open", start, 400) else {
                unreachable!()
            };
            s.unfinished = true;
            events.push(Event::Span(s));
        }
        events
    }

    /// The definitions the index replaces: scan every span per span.
    fn naive_self_time(spans: &[SpanRecord], span: &SpanRecord) -> u64 {
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(SpanRecord::duration_ns)
            .sum();
        span.duration_ns().saturating_sub(children)
    }

    fn naive_render(spans: &[SpanRecord], span: &SpanRecord, depth: usize, out: &mut Vec<String>) {
        out.push(format!(
            "{}{}  total {}, self {}",
            "  ".repeat(depth),
            span.name,
            fmt_duration(span.duration_ns()),
            fmt_duration(naive_self_time(spans, span)),
        ));
        let mut children: Vec<&SpanRecord> =
            spans.iter().filter(|s| s.parent == Some(span.id)).collect();
        children.sort_by_key(|s| s.start_ns);
        for c in children {
            naive_render(spans, c, depth + 1, out);
        }
    }

    #[test]
    fn indexed_summary_matches_the_naive_definitions() {
        let summary = Summary::of(&session());
        for s in &summary.spans {
            assert_eq!(
                summary.self_time_ns(s),
                naive_self_time(&summary.spans, s),
                "{}",
                s.name
            );
        }
        let spans = &summary.spans;
        let mut roots: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent.is_none() || !spans.iter().any(|p| Some(p.id) == s.parent))
            .collect();
        roots.sort_by_key(|s| s.start_ns);
        let mut expected = Vec::new();
        for r in roots {
            naive_render(spans, r, 0, &mut expected);
        }
        let rendered: Vec<String> = summary
            .render()
            .lines()
            .map(|l| l.trim_end_matches("  [UNFINISHED]").to_string())
            .collect();
        assert_eq!(rendered, expected);
        assert_eq!(expected.len(), spans.len(), "every span renders once");
        // spot values: root minus child, child minus its three children
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(summary.self_time_ns(by_name("root")), 60);
        assert_eq!(summary.self_time_ns(by_name("child")), 40 - 8 - 5 - 5);
        assert_eq!(summary.self_time_ns(by_name("orphan")), 9);
        assert_eq!(summary.self_time_ns(by_name("leaf")), 3);
    }
}
