//! Flow telemetry: run both EDA flows and the four engine hot loops
//! under the flight recorder, and inspect where the time goes.
//!
//! ```sh
//! SECEDA_TRACE=1 cargo run --example flow-trace
//! ```
//!
//! The example force-enables the recorder so plain `cargo run` shows the
//! same output; in library use, tracing stays off unless `SECEDA_TRACE=1`
//! is set, and costs a single atomic load per probe when off.
//!
//! Besides the span trees it prints, the full session is written to
//! `target/flow_trace.jsonl`, ready for the `seceda_obs` CLI:
//!
//! ```sh
//! cargo run -p seceda-trace --bin seceda_obs -- top target/flow_trace.jsonl
//! cargo run -p seceda-trace --bin seceda_obs -- export target/flow_trace.jsonl -o trace.json
//! # then open trace.json in chrome://tracing or https://ui.perfetto.dev
//! ```

use seceda_core::{
    run_classical_flow, run_closure, run_secure_flow, ClosureConfig, ClosureSession,
    CompositionEngine, Countermeasure, DesignUnderTest, SecurityEvaluation,
};
use seceda_lock::{sat_attack, sat_attack_budgeted, xor_lock, SatAttackOutcome};
use seceda_netlist::{c17, parse_design, write_bench, DesignFormat, Netlist, Word};
use seceda_sat::Budget;
use seceda_sim::{fault::stuck_at_universe, FaultSim};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
use seceda_trace::{drain, set_enabled, to_json_lines, Event, Summary};

/// Resolves the build's `target` directory (`CARGO_TARGET_DIR` if set).
/// Cargo may run the example with a crate directory as cwd, so a
/// relative `target/` would land in the wrong place; instead walk up
/// from the running executable (`target/<profile>/examples/...`).
fn target_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return std::path::PathBuf::from(dir);
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(target) = exe
            .ancestors()
            .find(|p| p.file_name().is_some_and(|n| n == "target"))
        {
            return target.to_path_buf();
        }
    }
    std::path::PathBuf::from("target")
}

/// A masked slice of the AES S-box: the first 8 table entries (3 address
/// bits, all 8 output bits), protected with 3-share ISW masking. The full
/// 8-bit S-box masks to ~26k gates, which a debug-build demo cannot push
/// through SAT equivalence in reasonable time; the slice keeps every
/// stage — including equivalence on masked logic — within seconds.
fn masked_sbox_slice() -> Netlist {
    let mut nl = Netlist::new("aes_sbox_slice");
    let x = Word::input(&mut nl, "x", 3);
    let table: Vec<u64> = seceda_cipher::AES_SBOX[..8]
        .iter()
        .map(|&v| v as u64)
        .collect();
    let y = seceda_cipher::table_lookup(&mut nl, &x, &table, 8);
    y.mark_output(&mut nl, "y");
    seceda_sca::mask_netlist(&nl).netlist
}

/// Runs both flows over `nl` and returns the recorded events.
fn trace_both_flows(nl: &Netlist) -> Result<Vec<Event>, Box<dyn std::error::Error>> {
    drain(); // discard anything a previous run left behind
    run_classical_flow(nl)?;
    run_secure_flow(nl)?;
    Ok(drain())
}

/// Exercises each instrumented engine hot loop — `.bench` parsing, the
/// SAT-attack DIP loop, packed fault-sim batches, and the composition
/// engine's threat evaluations — so the session carries histogram
/// samples for all four subsystems.
fn trace_engine_histograms(sbox: &Netlist) -> Result<Vec<Event>, Box<dyn std::error::Error>> {
    drain();

    // parse: round-trip c17 and the masked S-box slice through .bench
    // text (each parse records parse.design_ns; topo sorts record
    // ir.topo_ns)
    for nl in [&c17(), sbox] {
        let text = write_bench(nl);
        let reparsed = parse_design(&text, DesignFormat::Bench)?;
        reparsed.topo_order()?;
    }

    // SAT attack: the incremental DIP loop records one sat.dip_iter_ns
    // sample per iteration
    let original = c17();
    let locked = xor_lock(&original, 8, 7);
    let attack = sat_attack(&locked, |x| original.evaluate(x))?.expect("c17 key recovered");
    assert!(attack.iterations > 0);

    // fault sim: 256 patterns = four 64-wide batches, one
    // sim.fault_batch_ns sample each
    let sim = FaultSim::new(&original)?;
    let faults = stuck_at_universe(&original);
    let mut rng = StdRng::seed_from_u64(0xF10A);
    let patterns: Vec<Vec<bool>> = (0..256)
        .map(|_| (0..original.inputs().len()).map(|_| rng.gen()).collect())
        .collect();
    sim.coverage(&patterns, &faults);

    // compose: one full multi-threat evaluation records four
    // compose.threat_ns samples
    let mut engine = CompositionEngine::new(
        DesignUnderTest::new(original),
        SecurityEvaluation::default(),
    );
    engine.evaluate("flow-trace baseline")?;

    Ok(drain())
}

/// Exercises the robustness paths so the session also carries the
/// degradation counters: a budget-starved SAT attack that suspends and
/// resumes (`sat.indeterminate`, `lock.attack_suspended`), and a
/// chaos-scoped threat evaluation (`chaos.injections`,
/// `compose.threats_degraded`).
fn trace_degradation_counters() -> Result<Vec<Event>, Box<dyn std::error::Error>> {
    drain();

    // budgeted attack: a one-conflict budget suspends almost
    // immediately; the checkpoint then resumes to completion unbudgeted
    let original = c17();
    let locked = xor_lock(&original, 8, 7);
    let oracle = |x: &[bool]| original.evaluate(x);
    let starved = Budget::unlimited().with_max_conflicts(1);
    let outcome = sat_attack_budgeted(&locked, oracle, &starved, None)?;
    if let SatAttackOutcome::Suspended { checkpoint, .. } = outcome {
        let resumed =
            sat_attack_budgeted(&locked, oracle, &Budget::unlimited(), Some(&checkpoint))?;
        assert!(matches!(resumed, SatAttackOutcome::Complete(_)));
    }

    // chaos-scoped evaluation: force one threat evaluator to panic; the
    // engine completes and degrades exactly that metric. The injected
    // panic is caught and converted to a degraded metric, so silence
    // the default hook's backtrace for the duration.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    seceda_testkit::chaos::with_forced("compose.threat.panic", Some(1), || {
        let mut engine =
            CompositionEngine::new(DesignUnderTest::new(c17()), SecurityEvaluation::default());
        let report = engine
            .evaluate("flow-trace chaos")
            .expect("evaluation completes under chaos")
            .clone();
        assert_eq!(report.degraded().len(), 1);
    });
    std::panic::set_hook(hook);

    Ok(drain())
}

/// Exercises the incremental-closure machinery: a small portfolio of
/// sessions with identical schedules over one shared evaluation cache,
/// so the session carries the cache telemetry (`compose.cache_hits`,
/// `compose.cache_misses`, `closure.sessions`)
/// plus `compose.reeval_ns` samples for every re-evaluation.
fn trace_closure_counters() -> Result<f64, Box<dyn std::error::Error>> {
    let design = c17();
    let schedule = vec![Countermeasure::XorLock(8), Countermeasure::TrojanMonitor];
    let sessions: Vec<ClosureSession> = (0..3)
        .map(|i| {
            ClosureSession::new(
                format!("s{i}"),
                DesignUnderTest::new(design.clone()),
                schedule.clone(),
            )
        })
        .collect();
    let report = run_closure(sessions, &ClosureConfig::default())?;
    assert!(report.cache.hits > 0, "shared schedules must hit the cache");
    Ok(report.cache.hit_rate())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    set_enabled(true);

    // 1. c17 — small enough to print the span tree in full depth.
    let c17_events = trace_both_flows(&c17())?;
    println!("=== c17: classical + secure flow, full span tree ===");
    print!("{}", Summary::of(&c17_events).render());

    // 2. A masked AES S-box slice — here ATPG and equivalence emit
    //    hundreds of SAT spans, so prune the tree below the per-stage
    //    work spans and let the counter rollup carry the totals.
    let sbox = masked_sbox_slice();
    println!(
        "\n=== {} ({} gates masked): classical + secure flow ===",
        sbox.name(),
        sbox.num_gates()
    );
    let sbox_events = trace_both_flows(&sbox)?;
    print!("{}", Summary::of(&sbox_events).render_depth(2));

    // 3. Engine latency distributions: parse, SAT attack, fault sim,
    //    and composition engine, with p50/p90/p99/max per metric.
    let engine_events = trace_engine_histograms(&sbox)?;
    let engine_summary = Summary::of(&engine_events);
    println!("\n=== engine latency histograms (parse / sat / sim / compose) ===");
    for metric in [
        "parse.design_ns",
        "ir.topo_ns",
        "sat.dip_iter_ns",
        "sim.fault_batch_ns",
        "compose.threat_ns",
        "compose.reeval_ns",
    ] {
        let h = engine_summary
            .histogram(metric)
            .unwrap_or_else(|| panic!("{metric}: no samples recorded"));
        println!(
            "{metric:<20} n={} p50={} p90={} p99={} max={}",
            h.count(),
            seceda_trace::fmt_duration(h.p50()),
            seceda_trace::fmt_duration(h.p90()),
            seceda_trace::fmt_duration(h.p99()),
            seceda_trace::fmt_duration(h.max()),
        );
    }

    // 4. Degradation counters: a suspended-and-resumed budgeted attack
    //    and one forced-chaos evaluation, so `seceda_obs top` also shows
    //    the robustness counters.
    let degradation_events = trace_degradation_counters()?;
    let degradation_summary = Summary::of(&degradation_events);
    println!("\n=== degradation counters (budgeted attack + forced chaos) ===");
    for counter in [
        "sat.indeterminate",
        "lock.attack_suspended",
        "chaos.injections",
        "compose.threats_degraded",
    ] {
        let total = degradation_summary
            .counters
            .get(counter)
            .copied()
            .unwrap_or(0);
        assert!(total > 0, "{counter}: no increments recorded");
        println!("{counter:<26} total={total}");
    }

    // 5. Incremental closure: three sessions with identical schedules
    //    over one shared cache — the cache counters land
    //    in `seceda_obs top` alongside the hit rate printed here.
    drain();
    let hit_rate = trace_closure_counters()?;
    let closure_events = drain();
    let closure_summary = Summary::of(&closure_events);
    println!("\n=== incremental closure (3 sessions, shared cache) ===");
    for counter in [
        "closure.sessions",
        "compose.cache_hits",
        "compose.cache_misses",
    ] {
        let total = closure_summary.counters.get(counter).copied().unwrap_or(0);
        assert!(total > 0, "{counter}: no increments recorded");
        println!("{counter:<26} total={total}");
    }
    println!("cache hit rate             {hit_rate:.3}");

    // 6. The whole session as JSON-lines for the seceda_obs CLI
    //    (export to Perfetto, hot-span top-N, session diffing).
    let mut all_events = c17_events;
    all_events.extend(sbox_events);
    all_events.extend(engine_events);
    all_events.extend(degradation_events);
    all_events.extend(closure_events);
    let jsonl_path = target_dir().join("flow_trace.jsonl");
    std::fs::write(&jsonl_path, to_json_lines(&all_events))?;
    println!(
        "\nwrote {} ({} events) — inspect with `seceda_obs top|summary|export`",
        jsonl_path.display(),
        all_events.len()
    );
    Ok(())
}
