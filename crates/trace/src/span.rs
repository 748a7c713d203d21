//! RAII span guards.

use crate::alloc;
use crate::recorder::{self, AttrValue, Event, LiveSpan, SpanRecord};

/// An open span. Created by [`span`]; records itself on drop.
///
/// When tracing is disabled the guard is empty and every method is a
/// no-op, so instrumentation can stay in hot paths unconditionally.
#[derive(Debug)]
pub struct Span {
    data: Option<Box<SpanData>>,
}

#[derive(Debug)]
struct SpanData {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    thread: u32,
    /// (allocations, bytes) on the opening thread at open time, when
    /// allocation accounting is on (`SECEDA_TRACE_ALLOC=1`).
    alloc_at_open: Option<(u64, u64)>,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Opens a span. The returned guard records the span when dropped.
///
/// While open, the span appears in [`crate::drain`] snapshots as an
/// unfinished record. With `SECEDA_TRACE_ALLOC=1`, the closed record
/// carries `alloc_count` / `alloc_bytes` attributes: the allocations
/// made on the opening thread between open and drop (children
/// included, like wall time).
///
/// ```
/// let mut root = seceda_trace::span("flow.stage");
/// root.attr("stage", "logic synthesis");
/// // ... timed work ...
/// drop(root);
/// ```
pub fn span(name: impl Into<String>) -> Span {
    if !recorder::enabled() {
        return Span { data: None };
    }
    let id = recorder::next_span_id();
    let parent = recorder::current_span();
    recorder::push_span(id);
    let name = name.into();
    let start_ns = recorder::now_ns();
    let thread = recorder::thread_ordinal();
    recorder::register_live(LiveSpan {
        id,
        parent,
        name: name.clone(),
        start_ns,
        thread,
    });
    Span {
        data: Some(Box::new(SpanData {
            id,
            parent,
            name,
            start_ns,
            thread,
            alloc_at_open: alloc::thread_totals(),
            attrs: Vec::new(),
        })),
    }
}

impl Span {
    /// Attaches a key/value attribute. No-op when the span is disabled.
    pub fn attr<V: Into<AttrValue>>(&mut self, key: &'static str, value: V) {
        if let Some(data) = &mut self.data {
            data.attrs.push((key, value.into()));
        }
    }

    /// Builder-style [`Span::attr`].
    #[must_use]
    pub fn with<V: Into<AttrValue>>(mut self, key: &'static str, value: V) -> Self {
        self.attr(key, value);
        self
    }

    /// The span id, if recording.
    pub fn id(&self) -> Option<u64> {
        self.data.as_ref().map(|d| d.id)
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.data.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut data) = self.data.take() {
            if let (Some((count0, bytes0)), Some((count1, bytes1))) =
                (data.alloc_at_open, alloc::thread_totals())
            {
                // saturating: a guard moved to another thread sees that
                // thread's counters, which may be behind the opener's
                data.attrs.push((
                    "alloc_count",
                    AttrValue::Int(count1.saturating_sub(count0) as i64),
                ));
                data.attrs.push((
                    "alloc_bytes",
                    AttrValue::Int(bytes1.saturating_sub(bytes0) as i64),
                ));
            }
            recorder::pop_span(data.id);
            recorder::unregister_live(data.id);
            recorder::record(Event::Span(SpanRecord {
                id: data.id,
                parent: data.parent,
                name: data.name,
                start_ns: data.start_ns,
                end_ns: recorder::now_ns(),
                thread: data.thread,
                unfinished: false,
                attrs: data.attrs,
            }));
        }
    }
}
