//! Wide designs through both parsers: many primary inputs in `.bench`
//! and many declarations in Verilog.
//!
//! Input membership and duplicate declarations are checked in O(1) per
//! name, so parse time grows linearly with the width. The debug tests
//! check the netlists and the typed errors at 10k–40k names; the
//! `#[ignore]`d test parses 10^5-wide designs in release under a wall
//! time bound that a per-name scan of the inputs or the declarations
//! would exceed many times over.

use seceda_netlist::{parse_bench, parse_verilog, write_bench, Netlist, NetlistError};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// `n` inputs `i0..`, `n` gates `g{k} = XOR(i{k}, i{k+1 mod n})` and
/// the outputs `g0` and `g{n-1}`. Every line is one net, so the design
/// is `2n` names wide.
fn wide_bench(n: usize) -> String {
    let mut text = String::new();
    for k in 0..n {
        let _ = writeln!(text, "INPUT(i{k})");
    }
    for k in 0..n {
        let _ = writeln!(text, "g{k} = XOR(i{k}, i{})", (k + 1) % n);
    }
    let _ = writeln!(text, "OUTPUT(g0)\nOUTPUT(g{})", n - 1);
    text
}

/// The Verilog twin of [`wide_bench`]: `n` inputs and `n` wires, one
/// declaration and one `xor` per line, and the outputs as `assign`
/// aliases of the first and last wire.
fn wide_verilog(n: usize) -> String {
    let mut text = String::from("module wide (y0, y1);\noutput y0, y1;\n");
    for k in 0..n {
        let _ = writeln!(text, "input i{k};");
    }
    for k in 0..n {
        let _ = writeln!(text, "wire w{k};");
    }
    for k in 0..n {
        let _ = writeln!(text, "xor (w{k}, i{k}, i{});", (k + 1) % n);
    }
    let _ = writeln!(text, "assign y0 = w0;\nassign y1 = w{};\nendmodule", n - 1);
    text
}

/// Both outputs are 1 exactly when only input 0 is set (`g0` and
/// `g{n-1}` both read it), and 0 on all-zero inputs.
fn check_wide(nl: &Netlist, n: usize, gates: usize) {
    assert_eq!(nl.inputs().len(), n);
    assert_eq!(nl.num_gates(), gates);
    assert_eq!(nl.outputs().len(), 2);
    let mut bits = vec![false; n];
    assert_eq!(nl.evaluate(&bits), vec![false, false]);
    bits[0] = true;
    assert_eq!(nl.evaluate(&bits), vec![true, true]);
    bits[0] = false;
    bits[n / 2] = true;
    assert_eq!(nl.evaluate(&bits), vec![false, false]);
}

#[test]
fn wide_bench_parses_and_roundtrips() {
    for n in [5_000, 20_000] {
        let nl = parse_bench(&wide_bench(n)).expect("wide .bench");
        check_wide(&nl, n, n);
        assert_eq!(nl.symbols().len(), 2 * n);
        assert_eq!(parse_bench(&write_bench(&nl)).expect("reparse"), nl);
    }
}

#[test]
fn wide_bench_keeps_its_typed_errors() {
    let n = 20_000;
    let base = wide_bench(n);
    // a second INPUT of an input, a gate driving an input, a second
    // driver of a gate output
    for (extra, net) in [
        ("INPUT(i19999)", "i19999"),
        ("i5 = NOT(i3)", "i5"),
        ("g7 = BUFF(i1)", "g7"),
    ] {
        let err = parse_bench(&format!("{base}{extra}\n")).unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers(net.into()), "{extra}");
    }
    // a driven net declared an input afterwards
    let err = parse_bench(&format!("{base}INPUT(g3)\n")).unwrap_err();
    assert_eq!(err, NetlistError::MultipleDrivers("g3".into()));
    // read or listed as an output but never defined
    let err = parse_bench(&format!("{base}h = AND(i0, ghost)\n")).unwrap_err();
    assert_eq!(err, NetlistError::UnknownNet("ghost".into()));
    let err = parse_bench(&format!("{base}OUTPUT(nowhere)\n")).unwrap_err();
    assert_eq!(err, NetlistError::UnknownNet("nowhere".into()));
}

#[test]
fn wide_verilog_parses() {
    for n in [5_000, 20_000] {
        let nl = parse_verilog(&wide_verilog(n)).expect("wide Verilog");
        // the two output aliases are BUF gates
        check_wide(&nl, n, n + 2);
    }
}

#[test]
fn wide_verilog_keeps_its_typed_errors() {
    let n = 20_000;
    let body = wide_verilog(n);
    let (head, tail) = body.split_at(body.find("xor").expect("gate lines"));
    let line = head.lines().count() + 1;
    for dup in ["wire w4;", "input w19999;", "output i0;", "wire y1;"] {
        let err = parse_verilog(&format!("{head}{dup}\n{tail}")).unwrap_err();
        match err {
            NetlistError::Parse { line: l, message } => {
                assert_eq!(l, line, "{dup}");
                assert!(message.contains("declared twice"), "{dup}: {message}");
            }
            other => panic!("{dup}: {other:?}"),
        }
    }
    // a gate or an assign driving an input, and an output left undriven
    let err = parse_verilog(&body.replace("xor (w7,", "xor (i7,")).unwrap_err();
    assert_eq!(err, NetlistError::MultipleDrivers("i7".into()));
    let err = parse_verilog(&body.replace("assign y1", "assign i3")).unwrap_err();
    assert_eq!(err, NetlistError::MultipleDrivers("i3".into()));
    let err = parse_verilog(&body.replace("assign y1", "assign w0")).unwrap_err();
    assert_eq!(err, NetlistError::MultipleDrivers("w0".into()));
    let undriven = body.replace(&format!("assign y1 = w{};\n", n - 1), "");
    let err = parse_verilog(&undriven).unwrap_err();
    assert_eq!(err, NetlistError::UnknownNet("y1".into()));
}

/// Runs `parse` on `text` and checks it finished inside `limit`.
fn timed<T>(what: &str, text: &str, limit: Duration, parse: impl Fn(&str) -> T) -> T {
    let start = Instant::now();
    let out = parse(text);
    let took = start.elapsed();
    assert!(took < limit, "{what} took {took:?}, limit {limit:?}");
    out
}

/// 10^5 inputs and 10^5 wires. Linear parsers take tens of
/// milliseconds in release; a scan of the input list per gate, or of
/// the declarations per declaration, takes seconds.
#[test]
#[ignore = "10^5-wide designs; run in release"]
fn width_1e5_parses_in_linear_time() {
    let n = 100_000;
    let limit = Duration::from_secs(2);
    let nl = timed(".bench", &wide_bench(n), limit, parse_bench).expect("wide .bench");
    check_wide(&nl, n, n);
    let nl = timed("Verilog", &wide_verilog(n), limit, parse_verilog).expect("wide Verilog");
    check_wide(&nl, n, n + 2);
}
