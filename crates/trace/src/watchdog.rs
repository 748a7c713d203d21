//! Progress-heartbeat stall watchdog.
//!
//! Long-running engines (the SAT-attack DIP loop, packed fault-sim
//! campaigns, ATPG, scale parses) publish monotonic [`crate::progress`]
//! gauges; every probe additionally bumps a process-wide activity
//! generation while a watchdog is armed. The watchdog thread polls that
//! generation: if it stops moving for the configured timeout, the run is
//! *hung*, not slow — the watchdog prints a stall report to stderr (live
//! span stack per thread plus the latest progress gauges) and, when
//! configured, aborts the process. When activity resumes the stall flag
//! clears, so a watchdog can ride along a whole pipeline and flag each
//! hang exactly once.
//!
//! ```no_run
//! let wd = seceda_trace::Watchdog::start(std::time::Duration::from_secs(30));
//! // ... long run ...
//! assert!(!wd.stalled());
//! drop(wd); // disarms
//! ```
//!
//! A watchdog is armed in code only: [`Watchdog::start`] for a
//! report-only one, [`Watchdog::start_with`] with
//! [`WatchdogConfig::abort_on_stall`] to make a stall fatal.

use crate::recorder;
use crate::render::fmt_duration;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry of armed watchdogs, so synchronous stall reports (budget
/// exhaustion inside an engine) can reach every live sink without the
/// reporter owning a [`Watchdog`] handle.
static ARMED: Mutex<Vec<ArmedEntry>> = Mutex::new(Vec::new());
/// Fast gate mirroring `ARMED.len()`: lets [`report_budget_stall`] be a
/// single relaxed load when no watchdog is armed.
static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);
/// Monotonic id source for registry entries.
static NEXT_WATCHDOG_ID: AtomicU64 = AtomicU64::new(1);

struct ArmedEntry {
    id: u64,
    sink: StallSink,
    stall_reports: Arc<AtomicU64>,
}

/// Delivers a synchronous "budget exhausted" stall report — naming the
/// live span stack and progress gauges, like a timeout-detected stall —
/// to every armed watchdog. Unlike the watchdog thread's own reports
/// this is *event-driven*: an engine that hits its wall-clock deadline
/// calls this at the moment it gives up, so the report captures the
/// spans that were actually open inside the budgeted region.
///
/// Returns the number of watchdogs the report reached (0 when none are
/// armed — the call is then one relaxed atomic load).
pub fn report_budget_stall(context: &str) -> usize {
    if ARMED_COUNT.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    let body = stall_report_body(&format!(
        "seceda-trace watchdog: BUDGET EXHAUSTED in {context} — live span stack:"
    ));
    let armed = match ARMED.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    for entry in armed.iter() {
        entry.stall_reports.fetch_add(1, Ordering::Relaxed);
        write_to_sink(&entry.sink, &body);
    }
    armed.len()
}

fn register_armed(sink: &StallSink, stall_reports: &Arc<AtomicU64>) -> u64 {
    let id = NEXT_WATCHDOG_ID.fetch_add(1, Ordering::Relaxed);
    let mut armed = match ARMED.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    armed.push(ArmedEntry {
        id,
        sink: sink.clone(),
        stall_reports: Arc::clone(stall_reports),
    });
    ARMED_COUNT.store(armed.len(), Ordering::Relaxed);
    id
}

fn deregister_armed(id: u64) {
    let mut armed = match ARMED.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    armed.retain(|e| e.id != id);
    ARMED_COUNT.store(armed.len(), Ordering::Relaxed);
}

/// Where stall reports are written.
#[derive(Debug, Clone, Default)]
pub enum StallSink {
    /// One locked stderr write per report (the default). The write goes
    /// to the *process* stderr — under `cargo test` it bypasses libtest's
    /// per-test capture, since the watchdog runs on its own thread.
    #[default]
    Stderr,
    /// Append each report to a shared buffer instead. Tests use this to
    /// keep output capture deterministic and to assert on report content.
    Buffer(Arc<Mutex<String>>),
}

/// Watchdog tuning knobs. See [`Watchdog::start_with`].
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// How long the activity generation may sit still before the run
    /// counts as stalled.
    pub timeout: Duration,
    /// Poll interval of the watchdog thread. Defaults to a quarter of
    /// the timeout, clamped to [1ms, 1s].
    pub poll: Duration,
    /// Abort the process (after printing the stall report) instead of
    /// just flagging. Off by default.
    pub abort_on_stall: bool,
    /// Destination of stall reports.
    pub sink: StallSink,
}

impl WatchdogConfig {
    /// A report-only config with the given timeout and a derived poll
    /// interval.
    pub fn new(timeout: Duration) -> WatchdogConfig {
        let poll = (timeout / 4).clamp(Duration::from_millis(1), Duration::from_secs(1));
        WatchdogConfig {
            timeout,
            poll,
            abort_on_stall: false,
            sink: StallSink::Stderr,
        }
    }
}

/// An armed stall watchdog. Disarms (and joins its thread) on drop.
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    stalled: Arc<AtomicBool>,
    stall_reports: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
    registry_id: u64,
}

impl Watchdog {
    /// Arms a report-only watchdog with the given stall timeout.
    pub fn start(timeout: Duration) -> Watchdog {
        Watchdog::start_with(WatchdogConfig::new(timeout))
    }

    /// Arms a watchdog with full configuration.
    pub fn start_with(config: WatchdogConfig) -> Watchdog {
        recorder::arm_watch();
        let stop = Arc::new(AtomicBool::new(false));
        let stalled = Arc::new(AtomicBool::new(false));
        let stall_reports = Arc::new(AtomicU64::new(0));
        let registry_id = register_armed(&config.sink, &stall_reports);
        let handle = {
            let stop = Arc::clone(&stop);
            let stalled = Arc::clone(&stalled);
            let stall_reports = Arc::clone(&stall_reports);
            std::thread::Builder::new()
                .name("seceda-watchdog".into())
                .spawn(move || watch_loop(&config, &stop, &stalled, &stall_reports))
                .expect("spawn watchdog thread")
        };
        Watchdog {
            stop,
            stalled,
            stall_reports,
            handle: Some(handle),
            registry_id,
        }
    }

    /// Whether the run is stalled *right now* (no probe activity for at
    /// least the timeout). Clears automatically when activity resumes.
    pub fn stalled(&self) -> bool {
        self.stalled.load(Ordering::Relaxed)
    }

    /// How many distinct stalls this watchdog has reported.
    pub fn stall_reports(&self) -> u64 {
        self.stall_reports.load(Ordering::Relaxed)
    }

    /// Disarms the watchdog and joins its thread. Equivalent to drop,
    /// but explicit at call sites that want the timing visible.
    pub fn stop(self) {}
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        deregister_armed(self.registry_id);
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        recorder::disarm_watch();
    }
}

fn watch_loop(
    config: &WatchdogConfig,
    stop: &AtomicBool,
    stalled: &AtomicBool,
    stall_reports: &AtomicU64,
) {
    let mut last_gen = recorder::activity_generation();
    let mut last_change = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        std::thread::park_timeout(config.poll);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let gen = recorder::activity_generation();
        if gen != last_gen {
            last_gen = gen;
            last_change = Instant::now();
            stalled.store(false, Ordering::Relaxed);
            continue;
        }
        let still_for = last_change.elapsed();
        if still_for >= config.timeout && !stalled.load(Ordering::Relaxed) {
            stalled.store(true, Ordering::Relaxed);
            stall_reports.fetch_add(1, Ordering::Relaxed);
            report_stall(still_for, &config.sink);
            if config.abort_on_stall {
                std::process::abort();
            }
        }
    }
}

/// Writes the stall report — live span stack and progress snapshot — to
/// the configured sink in one locked write so concurrent output cannot
/// interleave.
fn report_stall(still_for: Duration, sink: &StallSink) {
    let body = stall_report_body(&format!(
        "seceda-trace watchdog: NO PROGRESS for {} — live span stack:",
        fmt_duration(still_for.as_nanos() as u64)
    ));
    write_to_sink(sink, &body);
}

/// Renders the common stall-report body under `header`: live span stack
/// plus the latest progress gauges.
fn stall_report_body(header: &str) -> String {
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    let live = recorder::live_spans();
    if live.is_empty() {
        out.push_str("  (no spans open — enable SECEDA_TRACE=1 for span-level dumps)\n");
    }
    for span in &live {
        out.push_str(&format!(
            "  [thread {}] span #{} {} (open {}{})\n",
            span.thread,
            span.id,
            span.name,
            fmt_duration(crate::recorder::now_ns().saturating_sub(span.start_ns)),
            span.parent
                .map(|p| format!(", parent #{p}"))
                .unwrap_or_default(),
        ));
    }
    let progress = recorder::progress_snapshot();
    if !progress.is_empty() {
        out.push_str("  progress gauges at stall:\n");
        for (name, value) in &progress {
            out.push_str(&format!("    {name} = {value}\n"));
        }
    }
    out
}

/// One locked write per report so concurrent output cannot interleave.
fn write_to_sink(sink: &StallSink, out: &str) {
    match sink {
        StallSink::Stderr => {
            let stderr = std::io::stderr();
            let mut lock = stderr.lock();
            let _ = lock.write_all(out.as_bytes());
        }
        StallSink::Buffer(buf) => {
            if let Ok(mut buf) = buf.lock() {
                buf.push_str(out);
            }
        }
    }
}
