//! # seceda-trace
//!
//! Zero-dependency flight recorder for the `seceda` pipeline. The
//! paper's secure-composition loop — re-evaluate **all** threats after
//! **every** countermeasure — is an iterative, *measured* process; this
//! crate makes each iteration observable:
//!
//! * [`span`] — RAII guards with name, key/value attributes, monotonic
//!   start/stop timing, per-thread parent nesting, and (opt-in)
//!   per-span allocation deltas;
//! * [`counter`] / [`gauge`] — accumulating counts (SAT decisions,
//!   events simulated, patterns generated) and point-in-time values;
//! * [`histogram`] / [`hist_timer`] — log-bucketed latency/size
//!   distributions with p50/p90/p99/max in [`Summary`] (per DIP
//!   iteration, per threat evaluation, per fault-sim batch, per parse);
//! * allocation accounting ([`alloc`]) — a counting global allocator,
//!   armed by `SECEDA_TRACE_ALLOC=1`, attributing alloc-count/byte
//!   deltas to the enclosing span;
//! * a process-wide, thread-safe recorder ([`drain`], [`session`]) that
//!   collects events from every instrumented crate; spans still open at
//!   [`drain`] are emitted as explicitly-marked unfinished records, so
//!   mid-run snapshots are lossless;
//! * exports — [`to_json_lines`] / [`from_json_lines`] for JSONL
//!   sessions and [`to_chrome_trace`] for `chrome://tracing` / Perfetto
//!   (the `seceda_obs` CLI wraps export, hot-span top-N, and
//!   session diffing);
//! * [`Summary`] — tree rendering with total and self time per span,
//!   plus counter/gauge/histogram rollups.
//!
//! ## Overhead policy
//!
//! Tracing is off unless `SECEDA_TRACE=1` is set (or [`set_enabled`] is
//! called). When off, every probe is a single relaxed atomic load —
//! instrumented crates keep probes in hot paths unconditionally, and
//! probe granularity is chosen per call (one span per SAT solve, not per
//! propagation) so the enabled mode stays usable too. The allocation
//! counter follows the same policy behind its own gate
//! (`SECEDA_TRACE_ALLOC`).
//!
//! ```
//! let ((), events) = seceda_trace::session(|| {
//!     let mut sp = seceda_trace::span("demo.work");
//!     sp.attr("items", 3usize);
//!     seceda_trace::counter("demo.items_done", 3);
//!     seceda_trace::histogram("demo.item_ns", 1500);
//! });
//! let summary = seceda_trace::Summary::of(&events);
//! assert_eq!(summary.counters["demo.items_done"], 3);
//! assert_eq!(summary.spans_named("demo.work").count(), 1);
//! assert_eq!(summary.histogram("demo.item_ns").unwrap().count(), 1);
//! ```

pub mod alloc;
mod chrome;
mod export;
mod hist;
mod recorder;
mod render;
mod span;

pub use chrome::to_chrome_trace;
pub use export::{from_json_lines, to_json_lines};
pub use hist::{hist_timer, HistTimer, Histogram};
pub use recorder::{
    counter, drain, enabled, gauge, histogram, session, set_enabled, AttrValue, CounterRecord,
    Event, GaugeRecord, HistRecord, SpanRecord,
};
pub use render::{fmt_duration, Summary};
pub use span::{span, Span};
