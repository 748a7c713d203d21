//! `seceda-netlist` — ingest a design file and print its vitals.
//!
//! ```text
//! seceda_netlist <design.{bench,v,vg}> [--write-bench <out.bench>]
//! ```
//!
//! Parses the design (format picked from the extension), reports parse
//! throughput, composition, depth and the whole-design digest, and can
//! re-export the design as `.bench`.

use seceda_netlist::{parse_design_path, write_bench, DepthReport, DesignDigest, NetlistStats};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut out_bench: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--write-bench" => {
                if i + 1 >= args.len() {
                    eprintln!("--write-bench needs a path");
                    std::process::exit(2);
                }
                out_bench = Some(&args[i + 1]);
                i += 2;
            }
            "-h" | "--help" => {
                println!(
                    "usage: seceda_netlist <design.{{bench,v,vg}}> [--write-bench <out.bench>]"
                );
                return;
            }
            other => {
                if path.is_some() {
                    eprintln!("unexpected argument `{other}`");
                    std::process::exit(2);
                }
                path = Some(other);
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: seceda_netlist <design.{{bench,v,vg}}> [--write-bench <out.bench>]");
        std::process::exit(2);
    };

    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let nl = match parse_design_path(path) {
        Ok(nl) => nl,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let parse_time = t0.elapsed();
    let t1 = Instant::now();
    let order = match nl.topo_order() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let topo_time = t1.elapsed();
    let stats = NetlistStats::of(&nl);
    let depth = DepthReport::of(&nl);

    println!("design    {}", nl.name());
    println!(
        "parsed    {} bytes in {:.2} ms ({:.0} gates/s)",
        bytes,
        parse_time.as_secs_f64() * 1e3,
        stats.num_gates as f64 / parse_time.as_secs_f64().max(1e-9)
    );
    println!(
        "topo      {} comb gates in {:.2} ms",
        order.len(),
        topo_time.as_secs_f64() * 1e3
    );
    println!(
        "ports     {} inputs, {} outputs",
        stats.num_inputs, stats.num_outputs
    );
    println!(
        "gates     {} total, {} dffs, {:.1} GE",
        stats.num_gates, stats.num_dffs, stats.area_ge
    );
    for (kind, count) in &stats.by_kind {
        println!("          {kind:<7} {count}");
    }
    println!(
        "depth     {} levels, critical path {:.1} delay units",
        depth.levels, depth.critical_path
    );
    let t2 = Instant::now();
    let digest = DesignDigest::of(&nl);
    println!(
        "digest    {} ({:.2} ms)",
        digest,
        t2.elapsed().as_secs_f64() * 1e3
    );

    if let Some(out) = out_bench {
        let text = write_bench(&nl);
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("{out}: {e}");
            std::process::exit(1);
        }
        println!("wrote     {out}");
    }
}
