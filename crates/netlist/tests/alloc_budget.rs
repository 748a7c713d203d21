//! Allocation counts of interning and parsing, pinned without timing.
//!
//! The symbol table keeps every name in one arena, so interning costs no
//! allocation per name: only the arena, the offsets and the index grow,
//! each by doubling. Counts come from the counting allocator in
//! `seceda-trace`, per thread, so concurrent tests do not disturb them.

use seceda_netlist::{parse_bench, parse_verilog, SymbolTable};
use seceda_trace::alloc::{set_alloc_counting, thread_totals};
use std::fmt::Write as _;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    set_alloc_counting(true);
    let (before, _) = thread_totals().expect("counting is on");
    let out = f();
    let (after, _) = thread_totals().expect("counting is on");
    (out, after - before)
}

#[test]
fn interning_allocates_nothing_per_name() {
    let names: Vec<String> = (0..10_000).map(|i| format!("net_{i}")).collect();
    let (table, count) = allocations(|| {
        let mut table = SymbolTable::new();
        for n in &names {
            table.intern(n);
        }
        table
    });
    assert_eq!(table.len(), names.len());
    assert!(count < 100, "{count} allocations for 10,000 names");
}

#[test]
fn parsing_allocates_less_than_once_per_name() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/rand300.bench");
    let text = std::fs::read_to_string(path).expect("fixture");
    let (nl, count) = allocations(|| parse_bench(&text).expect("parse"));
    let names = nl.symbols().len() as u64;
    assert!(names > 300, "{names} names");
    assert!(count < names, "{count} allocations for {names} names");
}

/// A 1,000-wire chain in structural Verilog, one statement per line:
/// `w{k} = XOR(w{k-1}, i{k mod 16})`, with line comments after every
/// tenth gate and a block comment inside every hundredth.
fn chain_verilog(wires: usize) -> String {
    let mut text = String::from("// a chain of XORs\nmodule chain (y);\n  input i0");
    for k in 1..16 {
        let _ = write!(text, ", i{k}");
    }
    text.push_str(";\n  output y;\n");
    for k in 0..wires {
        let _ = writeln!(text, "  wire w{k};");
    }
    let _ = writeln!(text, "  xor g0 (w0, i0, i1);");
    for k in 1..wires {
        let comment = match k % 100 {
            0 => " /* every hundredth */",
            _ => "",
        };
        let _ = write!(text, "  xor g{k} (w{k},{comment} w{}, i{});", k - 1, k % 16);
        text.push_str(if k % 10 == 0 { " // tenth\n" } else { "\n" });
    }
    let _ = writeln!(text, "  assign y = w{};\nendmodule", wires - 1);
    text
}

#[test]
fn verilog_parsing_allocates_less_than_once_per_name() {
    let text = chain_verilog(1_000);
    let (nl, count) = allocations(|| parse_verilog(&text).expect("parse"));
    assert_eq!(nl.num_gates(), 1_001, "1,000 XORs and the output alias");
    let names = nl.symbols().len() as u64;
    assert!(names > 1_000, "{names} names");
    assert!(count < names, "{count} allocations for {names} names");
}
