//! Flight-recorder layer tests: histogram sessions, allocation
//! accounting determinism under threads, Chrome-trace export (JSON
//! escaping round-trip through `seceda_testkit::json`), and lossless
//! drains of unfinished spans.
//!
//! Every recorder-touching test runs inside [`seceda_trace::session`],
//! which serializes on a process-wide lock.

use seceda_testkit::json::Json;
use seceda_trace::{
    drain, from_json_lines, hist_timer, histogram, session, span, to_chrome_trace, to_json_lines,
    Event, Summary,
};

#[test]
fn histogram_samples_aggregate_per_metric_in_summary() {
    let ((), events) = session(|| {
        for v in [100u64, 200, 400, 800, 100_000] {
            histogram("t.sample_ns", v);
        }
        histogram("t.other", 7);
        let _t = hist_timer("t.timed_ns");
    });
    let summary = Summary::of(&events);
    let h = summary.histogram("t.sample_ns").expect("histogram present");
    assert_eq!(h.count(), 5);
    assert_eq!(h.max(), 100_000);
    assert!(h.p50() >= 200 && h.p50() <= 500, "p50 = {}", h.p50());
    assert_eq!(summary.histogram("t.other").unwrap().count(), 1);
    assert_eq!(summary.histogram("t.timed_ns").unwrap().count(), 1);
    // the render carries the percentile line
    let rendered = summary.render();
    assert!(rendered.contains("histograms:"));
    assert!(rendered.contains("t.sample_ns"));
    assert!(rendered.contains("p99="));
}

#[test]
fn histogram_samples_attach_to_the_open_span() {
    let ((), events) = session(|| {
        let _sp = span("hctx");
        histogram("hctx.value", 42);
    });
    let span_id = events
        .iter()
        .find_map(|e| match e {
            Event::Span(s) => Some(s.id),
            _ => None,
        })
        .expect("span recorded");
    let hist_span = events
        .iter()
        .find_map(|e| match e {
            Event::Hist(h) => Some(h.span),
            _ => None,
        })
        .expect("hist recorded");
    assert_eq!(hist_span, Some(span_id));
}

#[test]
fn alloc_accounting_attributes_each_threads_allocations_to_its_own_span() {
    const PER_THREAD_BYTES: usize = 1 << 20;
    let ((), events) = session(|| {
        seceda_trace::alloc::set_alloc_counting(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut sp = span("alloc.worker");
                    sp.attr("worker", i as usize);
                    // a worker allocates exactly one big buffer; its span
                    // must see at least that, and a span that allocates
                    // nothing big must not inherit a sibling's megabyte
                    let buf = vec![i as u8; PER_THREAD_BYTES];
                    std::hint::black_box(&buf);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        seceda_trace::alloc::set_alloc_counting(false);
    });
    let summary = Summary::of(&events);
    let workers: Vec<_> = summary.spans_named("alloc.worker").collect();
    assert_eq!(workers.len(), 4);
    for w in &workers {
        let bytes = match w.attr("alloc_bytes") {
            Some(seceda_trace::AttrValue::Int(b)) => *b as usize,
            other => panic!("alloc_bytes attr missing/typed wrong: {other:?}"),
        };
        let count = match w.attr("alloc_count") {
            Some(seceda_trace::AttrValue::Int(c)) => *c,
            other => panic!("alloc_count attr missing/typed wrong: {other:?}"),
        };
        assert!(
            bytes >= PER_THREAD_BYTES,
            "span must cover its own 1MiB buffer, saw {bytes}"
        );
        assert!(
            bytes < 3 * PER_THREAD_BYTES,
            "span must not absorb sibling threads' buffers, saw {bytes}"
        );
        assert!(count >= 1);
    }
}

#[test]
fn alloc_accounting_is_deterministic_for_a_fixed_workload() {
    // same single-thread workload twice -> identical byte attribution
    let run = || {
        let ((), events) = session(|| {
            seceda_trace::alloc::set_alloc_counting(true);
            let sp = span("alloc.fixed");
            let v: Vec<u64> = Vec::with_capacity(1000);
            std::hint::black_box(&v);
            drop(v);
            drop(sp);
            seceda_trace::alloc::set_alloc_counting(false);
        });
        let summary = Summary::of(&events);
        let s = summary.spans_named("alloc.fixed").next().unwrap().clone();
        match s.attr("alloc_bytes") {
            Some(seceda_trace::AttrValue::Int(b)) => *b,
            _ => panic!("alloc_bytes missing"),
        }
    };
    // warm-up run: lets process-global capacity (live-span registry,
    // thread-local span stack) settle so the measured runs see an
    // identical allocation sequence
    let _ = run();
    let a = run();
    let b = run();
    assert_eq!(a, b, "same workload must attribute the same bytes");
    assert!(a >= 8000, "the 1000-u64 buffer must be visible, saw {a}");
}

#[test]
fn chrome_trace_round_trips_escaped_strings_through_testkit_json() {
    let ((), events) = session(|| {
        let mut sp = span("escape \"quotes\" and \\slashes\\");
        sp.attr("note", "line1\nline2\ttab \"quoted\" \u{1F980} \u{7}");
        counter_with_weird_name();
        histogram("h.samples", 3);
    });
    // JSONL round-trip: parse back and compare the span payloads
    let lines = to_json_lines(&events);
    let back = from_json_lines(&lines).expect("jsonl parses back");
    assert_eq!(back, events, "JSONL import is the exact inverse of export");

    // chrome export is one valid JSON array (escaping included)
    let chrome = to_chrome_trace(&events);
    let parsed = Json::parse(&chrome).expect("chrome trace is valid JSON");
    let Json::Arr(entries) = &parsed else {
        panic!("chrome trace must be a JSON array");
    };
    assert!(!entries.is_empty());
    for entry in entries {
        let ph = entry.get("ph").expect("every event has a phase");
        assert!(matches!(ph, Json::Str(_)));
        assert!(entry.get("pid").is_some());
    }
    // the escaped span survived with its exact name and attr
    let escaped = entries
        .iter()
        .find(|e| e.get("name") == Some(&Json::Str("escape \"quotes\" and \\slashes\\".into())))
        .expect("escaped span exported");
    let args = escaped.get("args").expect("args");
    assert_eq!(
        args.get("note"),
        Some(&Json::Str(
            "line1\nline2\ttab \"quoted\" \u{1F980} \u{7}".into()
        ))
    );
    // spans are complete events with microsecond ts/dur
    assert_eq!(escaped.get("ph"), Some(&Json::Str("X".into())));
    assert!(matches!(
        escaped.get("ts"),
        Some(Json::Num(_)) | Some(Json::Int(_))
    ));
}

fn counter_with_weird_name() {
    seceda_trace::counter("weird.\"name\"", 2);
}

#[test]
fn chrome_counters_carry_running_totals() {
    let ((), events) = session(|| {
        seceda_trace::counter("c.total", 3);
        seceda_trace::counter("c.total", 4);
    });
    let chrome = to_chrome_trace(&events);
    let Json::Arr(entries) = Json::parse(&chrome).unwrap() else {
        panic!("array expected");
    };
    let totals: Vec<i64> = entries
        .iter()
        .filter(|e| e.get("name") == Some(&Json::Str("c.total".into())))
        .filter_map(|e| match e.get("args").and_then(|a| a.get("c.total")) {
            Some(Json::Int(i)) => Some(*i),
            _ => None,
        })
        .collect();
    assert_eq!(totals, vec![3, 7], "counter track accumulates");
}

#[test]
fn drain_emits_open_spans_as_marked_unfinished_records() {
    let ((), events) = session(|| {
        let outer = span("snap.outer");
        let inner = span("snap.inner");
        // snapshot mid-flight: both spans still open
        let snapshot = drain();
        let unfinished: Vec<String> = snapshot
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) if s.unfinished => Some(s.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(unfinished, vec!["snap.outer", "snap.inner"]);
        for e in &snapshot {
            if let Event::Span(s) = e {
                assert!(s.end_ns >= s.start_ns);
            }
        }
        drop(inner);
        drop(outer);
    });
    // after the guards drop, the final drain carries the *finished*
    // records — same ids, unfinished = false
    let finished: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span(s) if !s.unfinished => Some(s.name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(finished, vec!["snap.inner", "snap.outer"]);
    assert!(
        events.iter().all(|e| match e {
            Event::Span(s) => !s.unfinished,
            _ => true,
        }),
        "nothing is open at session end"
    );
}

#[test]
fn unfinished_records_render_with_a_marker_and_export_the_flag() {
    let ((), _events) = session(|| {
        let sp = span("live.one");
        let snapshot = drain();
        let summary = Summary::of(&snapshot);
        assert!(summary.render().contains("[UNFINISHED]"));
        let lines = to_json_lines(&snapshot);
        let parsed = Json::parse(lines.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get("unfinished"), Some(&Json::Bool(true)));
        let back = from_json_lines(&lines).expect("parses");
        match &back[0] {
            Event::Span(s) => assert!(s.unfinished),
            other => panic!("expected span, got {other:?}"),
        }
        drop(sp);
    });
}
