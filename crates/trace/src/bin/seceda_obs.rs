//! `seceda_obs` — the flight-recorder inspection CLI.
//!
//! Operates on JSON-lines trace sessions (the format written by
//! `seceda_trace::to_json_lines`, e.g. `target/flow_trace.jsonl` from
//! the flow-trace example):
//!
//! ```sh
//! seceda_obs export session.jsonl -o trace.json   # Chrome/Perfetto trace
//! seceda_obs top -n 15 session.jsonl              # hot spans by self time
//! seceda_obs diff before.jsonl after.jsonl        # per-span-name deltas
//! seceda_obs summary session.jsonl                # span tree + rollups
//! ```
//!
//! `export` output loads directly in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use seceda_trace::{fmt_duration, from_json_lines, to_chrome_trace, Event, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: seceda_obs <command> [options]

commands:
  export <session.jsonl> [-o <out.json>]  write a Chrome trace-event JSON
                                          array (chrome://tracing, Perfetto);
                                          stdout when -o is omitted
  top [-n N] <session.jsonl>              hottest span names by total self
                                          time (default N=10), plus counter
                                          totals and gauge snapshots
  diff <a.jsonl> <b.jsonl>                per-span-name total-time comparison
  summary <session.jsonl>                 render the span tree with counter,
                                          gauge, and histogram rollups";

fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_json_lines(&text).map_err(|e| format!("{path}: {e}"))
}

/// Per-span-name aggregate: (count, total ns, self ns).
fn by_name(events: &[Event]) -> BTreeMap<String, (u64, u64, u64)> {
    let summary = Summary::of(events);
    let mut agg: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for span in &summary.spans {
        let slot = agg.entry(span.name.clone()).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += span.duration_ns();
        slot.2 += summary.self_time_ns(span);
    }
    agg
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let mut out_path: Option<&str> = None;
    let mut input: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" => out_path = Some(it.next().ok_or("-o needs a path")?),
            path if input.is_none() => input = Some(path),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let input = input.ok_or("export needs a session file")?;
    let trace = to_chrome_trace(&load(input)?);
    match out_path {
        Some(path) => {
            std::fs::write(path, &trace).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {path} ({} events) — load it in chrome://tracing or https://ui.perfetto.dev",
                trace.matches("\"ph\"").count()
            );
        }
        None => println!("{trace}"),
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut n = 10usize;
    let mut input: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-n" => {
                n = it
                    .next()
                    .ok_or("-n needs a count")?
                    .parse()
                    .map_err(|_| "-n needs a number")?
            }
            path if input.is_none() => input = Some(path),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let input = input.ok_or("top needs a session file")?;
    let events = load(input)?;
    let mut rows: Vec<(String, (u64, u64, u64))> = by_name(&events).into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    println!(
        "{:<32} {:>7} {:>12} {:>12}",
        "span", "count", "total", "self"
    );
    for (name, (count, total, self_ns)) in rows.into_iter().take(n) {
        println!(
            "{:<32} {:>7} {:>12} {:>12}",
            name,
            count,
            fmt_duration(total),
            fmt_duration(self_ns)
        );
    }
    // counters and gauges are few; show them all, sorted by total so the
    // hot probes (sat.aig_hash_hits, sim.lane_width, ...) lead
    let summary = Summary::of(&events);
    if !summary.counters.is_empty() {
        let mut counters: Vec<_> = summary.counters.iter().collect();
        counters.sort_by_key(|(_, &total)| std::cmp::Reverse(total));
        println!("\n{:<32} {:>12}", "counter", "total");
        for (name, total) in counters {
            println!("{name:<32} {total:>12}");
        }
    }
    if !summary.gauges.is_empty() {
        println!("\n{:<32} {:>12}", "gauge", "last");
        for (name, value) in &summary.gauges {
            println!("{name:<32} {value:>12}");
        }
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("diff needs exactly two session files".into());
    };
    let a = by_name(&load(a_path)?);
    let b = by_name(&load(b_path)?);
    let names: Vec<&String> = {
        let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    println!(
        "{:<32} {:>12} {:>12} {:>9}",
        "span", "a_total", "b_total", "delta"
    );
    for name in names {
        let at = a.get(name).map_or(0, |v| v.1);
        let bt = b.get(name).map_or(0, |v| v.1);
        let delta = if at == 0 {
            "new".to_string()
        } else if bt == 0 {
            "gone".to_string()
        } else {
            format!("{:+.1}%", (bt as f64 / at as f64 - 1.0) * 100.0)
        };
        println!(
            "{:<32} {:>12} {:>12} {:>9}",
            name,
            fmt_duration(at),
            fmt_duration(bt),
            delta
        );
    }
    Ok(())
}

fn cmd_summary(args: &[String]) -> Result<(), String> {
    let [input] = args else {
        return Err("summary needs exactly one session file".into());
    };
    print!("{}", Summary::of(&load(input)?).render_depth(4));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "export" => cmd_export(rest),
        "top" => cmd_top(rest),
        "diff" => cmd_diff(rest),
        "summary" => cmd_summary(rest),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("seceda_obs: {e}");
            ExitCode::FAILURE
        }
    }
}
