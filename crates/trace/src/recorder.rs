//! The process-wide recorder: event model, enable gate, and collection.
//!
//! All instrumentation funnels into a single global recorder guarded by a
//! mutex. The hot-path cost when telemetry is fully disabled is one
//! relaxed atomic load (see [`flags`]); instrumented crates therefore
//! leave their probes in unconditionally. Spans nest per thread via a
//! thread-local stack, so a span opened on a worker thread starts a new
//! root rather than attaching to an unrelated parent.
//!
//! Besides the event buffer, the recorder keeps a **live-span registry**
//! of currently-open spans, so mid-run snapshots ([`drain`]) can emit
//! in-flight work as explicitly-marked unfinished records.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer attribute (counts, sizes).
    Int(i64),
    /// Floating-point attribute (areas, delays).
    Float(f64),
    /// String attribute (stage names, verdicts).
    Str(String),
    /// Boolean attribute.
    Bool(bool),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(v.into())
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// A completed span: a named, timed, attributed region of work.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Span name (dotted convention, e.g. `sat.solve`).
    pub name: String,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End time in nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Ordinal of the recording thread (process-unique, dense from 0).
    pub thread: u32,
    /// True for spans that were still open when a [`drain`] snapshot was
    /// taken: `end_ns` is the snapshot time, not a real completion, and
    /// attributes attached after the snapshot are absent.
    pub unfinished: bool,
    /// Key/value attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A monotonically accumulating count (e.g. SAT decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRecord {
    /// Counter name (dotted convention, e.g. `sat.decisions`).
    pub name: &'static str,
    /// Amount added by this record.
    pub delta: u64,
    /// Span open on the recording thread at the time, if any.
    pub span: Option<u64>,
    /// Record time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
}

/// A point-in-time measurement (e.g. current gate count).
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeRecord {
    /// Gauge name.
    pub name: &'static str,
    /// Observed value.
    pub value: f64,
    /// Span open on the recording thread at the time, if any.
    pub span: Option<u64>,
    /// Record time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
}

/// One sample of a histogram metric (e.g. nanoseconds of one DIP
/// iteration). Samples aggregate into [`crate::Histogram`]s in
/// [`crate::Summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistRecord {
    /// Histogram name (dotted convention; the `_ns` suffix marks
    /// duration-valued metrics for rendering).
    pub name: &'static str,
    /// The sampled value.
    pub value: u64,
    /// Span open on the recording thread at the time, if any.
    pub span: Option<u64>,
    /// Record time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span.
    Span(SpanRecord),
    /// A counter increment.
    Counter(CounterRecord),
    /// A gauge observation.
    Gauge(GaugeRecord),
    /// A histogram sample.
    Hist(HistRecord),
}

/// A currently-open span, kept so [`drain`] can snapshot it as an
/// unfinished record.
#[derive(Debug)]
pub(crate) struct LiveSpan {
    pub(crate) id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) name: String,
    pub(crate) start_ns: u64,
    pub(crate) thread: u32,
}

const F_INIT: u8 = 1;
const F_TRACE: u8 = 2;

static FLAGS: AtomicU8 = AtomicU8::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static LIVE: Mutex<Vec<LiveSpan>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORD: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    // a panic inside an instrumented region must not disable telemetry
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The probe gate: a single relaxed atomic load on the hot path. Bit
/// `F_TRACE` means events are recorded.
fn flags() -> u8 {
    let f = FLAGS.load(Ordering::Relaxed);
    if f & F_INIT != 0 {
        f
    } else {
        init_from_env()
    }
}

#[cold]
fn init_from_env() -> u8 {
    let on = std::env::var_os("SECEDA_TRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let set = F_INIT | if on { F_TRACE } else { 0 };
    FLAGS.fetch_or(set, Ordering::Relaxed) | set
}

/// Whether tracing is currently on.
///
/// First call reads the `SECEDA_TRACE` environment variable (`0`, empty,
/// or unset mean off; anything else means on); later calls are a single
/// relaxed atomic load. [`set_enabled`] overrides the environment.
pub fn enabled() -> bool {
    flags() & F_TRACE != 0
}

/// Turns tracing on or off programmatically (overrides `SECEDA_TRACE`).
pub fn set_enabled(on: bool) {
    if on {
        FLAGS.fetch_or(F_INIT | F_TRACE, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!F_TRACE, Ordering::Relaxed);
        FLAGS.fetch_or(F_INIT, Ordering::Relaxed);
    }
}

pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub(crate) fn next_span_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Dense process-unique ordinal of the calling thread (0, 1, 2, ...).
pub(crate) fn thread_ordinal() -> u32 {
    THREAD_ORD.with(|t| {
        let v = t.get();
        if v != u32::MAX {
            v
        } else {
            let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

pub(crate) fn current_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

pub(crate) fn push_span(id: u64) {
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
}

pub(crate) fn pop_span(id: u64) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // spans are RAII guards, so `id` is normally the top; tolerate
        // out-of-order drops from explicit `drop()` calls
        if let Some(pos) = stack.iter().rposition(|&x| x == id) {
            stack.remove(pos);
        }
    });
}

pub(crate) fn register_live(span: LiveSpan) {
    lock(&LIVE).push(span);
}

pub(crate) fn unregister_live(id: u64) {
    let mut live = lock(&LIVE);
    if let Some(pos) = live.iter().rposition(|s| s.id == id) {
        live.remove(pos);
    }
}

pub(crate) fn record(event: Event) {
    lock(&EVENTS).push(event);
}

/// Adds `delta` to the named counter. No-op when tracing is off.
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        record(Event::Counter(CounterRecord {
            name,
            delta,
            span: current_span(),
            ts_ns: now_ns(),
        }));
    }
}

/// Records a point-in-time observation. No-op when tracing is off.
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        record(Event::Gauge(GaugeRecord {
            name,
            value,
            span: current_span(),
            ts_ns: now_ns(),
        }));
    }
}

/// Records one histogram sample. No-op when tracing is off.
///
/// Samples aggregate into log-bucketed [`crate::Histogram`]s in
/// [`crate::Summary`], which reports p50/p90/p99/max per metric. By
/// convention, duration-valued metrics end in `_ns`.
pub fn histogram(name: &'static str, value: u64) {
    if enabled() {
        record(Event::Hist(HistRecord {
            name,
            value,
            span: current_span(),
            ts_ns: now_ns(),
        }));
    }
}

/// Removes and returns every event recorded so far, in recording order.
///
/// Spans still open at the time of the call are appended as
/// explicitly-marked snapshot records (`unfinished: true`, `end_ns` =
/// snapshot time, no attributes) so mid-run snapshots are lossless; each such span records again — finished, with its
/// attributes — when its guard finally drops.
pub fn drain() -> Vec<Event> {
    let mut events = std::mem::take(&mut *lock(&EVENTS));
    let snapshot_ns = now_ns();
    for live in lock(&LIVE).iter() {
        events.push(Event::Span(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name.clone(),
            start_ns: live.start_ns,
            end_ns: snapshot_ns,
            thread: live.thread,
            unfinished: true,
            attrs: Vec::new(),
        }));
    }
    events
}

/// Runs `f` with tracing enabled and returns its result together with
/// the events it recorded.
///
/// Sessions serialize on a process-wide lock, so concurrently running
/// tests using `session` cannot leak events into each other. Events
/// recorded before the session (e.g. by code running with
/// `SECEDA_TRACE=1`) are drained and discarded; the prior enabled state
/// is restored afterwards.
pub fn session<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let _guard = lock(&SESSION);
    let was_enabled = enabled();
    set_enabled(true);
    drop(drain());
    let result = f();
    let events = drain();
    set_enabled(was_enabled);
    (result, events)
}
