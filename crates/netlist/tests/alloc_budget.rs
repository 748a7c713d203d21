//! Allocation counts of interning and parsing, pinned without timing.
//!
//! The symbol table keeps every name in one arena, so interning costs no
//! allocation per name: only the arena, the offsets and the index grow,
//! each by doubling. Counts come from the counting allocator in
//! `seceda-trace`, per thread, so concurrent tests do not disturb them.

use seceda_netlist::{parse_bench, SymbolTable};
use seceda_trace::alloc::{set_alloc_counting, thread_totals};

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
