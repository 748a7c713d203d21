//! ISCAS-85/89 `.bench` reader and writer.
//!
//! The `.bench` grammar is line-oriented:
//!
//! ```text
//! # c17
//! INPUT(G1)
//! OUTPUT(G22)
//! G10 = NAND(G1, G3)
//! G5  = DFF(G10)
//! ```
//!
//! Signals are pure names; forward references are legal (a signal may
//! be read, or listed as an `OUTPUT`, before the line defining its
//! driver). Gate keywords are case-insensitive: the classic set
//! (`AND`, `NAND`, `OR`, `NOR`, `XOR`, `XNOR`, `NOT`, `BUF`/`BUFF`,
//! `DFF`) plus the toolkit extensions `MUX(sel, a, b)`, `CONST0()`,
//! and `CONST1()`.
//!
//! Two comment conventions carry toolkit metadata losslessly through a
//! write→parse roundtrip:
//!
//! - `# design: <name>` sets the design name;
//! - a trailing `# tags: key,monitor,...` on a gate line restores the
//!   gate's [`GateTags`].
//!
//! The parser is a single iterative pass: names intern into the
//! netlist's symbol table on first sight, so parsing is O(total input
//! length) and never recurses.

use crate::cell::{CellKind, GateTags};
use crate::error::NetlistError;
use crate::id::NetId;
use crate::netlist::Netlist;
use crate::symbol::Symbol;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Name given to parsed designs that carry no `# design:` header.
pub(crate) const DEFAULT_DESIGN_NAME: &str = "bench";

fn parse_err(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.into(),
    }
}

/// Maps a `.bench` gate keyword (case-insensitive) to a cell kind.
fn kind_from_keyword(kw: &str) -> Option<CellKind> {
    // keywords are short: an ASCII-uppercase copy avoids allocating for
    // the common already-uppercase case only at the cost of 8 bytes
    let mut buf = [0u8; 8];
    if kw.len() > buf.len() {
        return None;
    }
    buf[..kw.len()].copy_from_slice(kw.as_bytes());
    buf[..kw.len()].make_ascii_uppercase();
    Some(match &buf[..kw.len()] {
        b"AND" => CellKind::And,
        b"NAND" => CellKind::Nand,
        b"OR" => CellKind::Or,
        b"NOR" => CellKind::Nor,
        b"XOR" => CellKind::Xor,
        b"XNOR" => CellKind::Xnor,
        b"NOT" => CellKind::Not,
        b"BUF" | b"BUFF" => CellKind::Buf,
        b"DFF" => CellKind::Dff,
        b"MUX" => CellKind::Mux,
        b"CONST0" => CellKind::Const0,
        b"CONST1" => CellKind::Const1,
        _ => return None,
    })
}

fn keyword_for_kind(kind: CellKind) -> &'static str {
    match kind {
        CellKind::And => "AND",
        CellKind::Nand => "NAND",
        CellKind::Or => "OR",
        CellKind::Nor => "NOR",
        CellKind::Xor => "XOR",
        CellKind::Xnor => "XNOR",
        CellKind::Not => "NOT",
        CellKind::Buf => "BUFF",
        CellKind::Dff => "DFF",
        CellKind::Mux => "MUX",
        CellKind::Const0 => "CONST0",
        CellKind::Const1 => "CONST1",
    }
}

fn parse_tags(comment: &str) -> GateTags {
    let mut tags = GateTags::default();
    if let Some(list) = comment.trim().strip_prefix("tags:") {
        for tag in list.split(',') {
            match tag.trim() {
                "barrier" => tags.no_reassoc = true,
                "key" => tags.key_gate = true,
                "monitor" => tags.monitor = true,
                "tainted" => tags.tainted = true,
                "redundancy" => tags.redundancy = true,
                _ => {}
            }
        }
    }
    tags
}

fn format_tags(tags: &GateTags) -> String {
    let mut names: Vec<&str> = Vec::new();
    if tags.no_reassoc {
        names.push("barrier");
    }
    if tags.key_gate {
        names.push("key");
    }
    if tags.monitor {
        names.push("monitor");
    }
    if tags.tainted {
        names.push("tainted");
    }
    if tags.redundancy {
        names.push("redundancy");
    }
    if names.is_empty() {
        String::new()
    } else {
        format!(" # tags: {}", names.join(","))
    }
}

/// Signal-name bookkeeping shared by the frontends: a symbol-indexed
/// map from interned names to nets, creating nets on first reference.
pub(crate) struct SignalMap {
    net_of: Vec<Option<NetId>>,
}

impl SignalMap {
    /// An empty map with room for `names` signals.
    pub(crate) fn with_capacity(names: usize) -> Self {
        SignalMap {
            net_of: Vec::with_capacity(names),
        }
    }

    /// The net carrying `name`, created (named, undriven) on first
    /// sight.
    pub(crate) fn net(&mut self, nl: &mut Netlist, name: &str) -> NetId {
        self.entry(nl, name).0
    }

    /// The net carrying `name`, and whether this call created it.
    pub(crate) fn entry(&mut self, nl: &mut Netlist, name: &str) -> (NetId, bool) {
        let sym = nl.intern(name);
        if self.net_of.len() <= sym.index() {
            self.net_of.resize(sym.index() + 1, None);
        }
        match self.net_of[sym.index()] {
            Some(net) => (net, false),
            None => {
                let net = nl.add_symbol_net(sym);
                self.net_of[sym.index()] = Some(net);
                (net, true)
            }
        }
    }

    /// The net for `sym` if that name was seen already.
    pub(crate) fn lookup(&self, sym: Symbol) -> Option<NetId> {
        self.net_of.get(sym.index()).copied().flatten()
    }
}

fn valid_signal_name(name: &str) -> bool {
    !name.is_empty()
        && !name
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '(' | ')' | ',' | '=' | '#'))
}

/// Parses ISCAS `.bench` text into a [`Netlist`].
///
/// # Errors
///
/// Never panics; malformed input yields typed errors:
/// [`NetlistError::Parse`] (with the 1-based line) for syntax problems,
/// [`NetlistError::BadArity`] for wrong gate input counts,
/// [`NetlistError::MultipleDrivers`] for a signal defined twice (or an
/// `INPUT` that is also driven), [`NetlistError::UnknownNet`] for
/// signals referenced but never defined, and
/// [`NetlistError::CombinationalCycle`] for cyclic logic.
pub fn parse_bench(text: &str) -> Result<Netlist, NetlistError> {
    let mut sp = seceda_trace::span("parse.bench");
    // guess capacity: most lines are gates
    let approx_lines = text.len() / 16;
    let mut nl = Netlist::with_capacity(DEFAULT_DESIGN_NAME, approx_lines, approx_lines);
    let mut signals = SignalMap::with_capacity(approx_lines);
    // (net, port override) of every pending OUTPUT, marked at the end
    // so forward references work; order preserved
    let mut outputs: Vec<(NetId, Option<String>)> = Vec::new();
    let mut arg_buf: Vec<NetId> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        // split off the comment; a `tags:` comment on a gate line is
        // metadata, `design:` sets the design name
        let (body, comment) = match raw.split_once('#') {
            Some((b, c)) => (b, Some(c)),
            None => (raw, None),
        };
        if let Some(c) = comment {
            if let Some(name) = c.trim().strip_prefix("design:") {
                let name = name.trim();
                if !name.is_empty() {
                    nl.set_name(name);
                }
            }
        }
        let body = body.trim();
        if body.is_empty() {
            continue;
        }

        if let Some((dest, rhs)) = body.split_once('=') {
            // gate line: dest = KIND(arg, arg, ...); `body` is trimmed,
            // so whitespace can only sit around the `=` and the `(`
            let dest = dest.trim_end();
            if !valid_signal_name(dest) {
                return Err(parse_err(line, format!("bad signal name `{dest}`")));
            }
            let (kw, rest) = rhs
                .trim_start()
                .split_once('(')
                .ok_or_else(|| parse_err(line, "expected `KIND(...)` after `=`"))?;
            let kw = kw.trim_end();
            let kind = kind_from_keyword(kw)
                .ok_or_else(|| parse_err(line, format!("unknown gate type `{kw}`")))?;
            let args = rest
                .strip_suffix(')')
                .ok_or_else(|| parse_err(line, "missing `)` (truncated gate line?)"))?
                .trim_end();
            arg_buf.clear();
            // `KIND()` has no arguments; otherwise every one is a name
            if !args.is_empty() {
                for arg in args.split(',') {
                    let arg = arg.trim();
                    if arg.is_empty() {
                        return Err(parse_err(line, "empty gate argument"));
                    }
                    if !valid_signal_name(arg) {
                        return Err(parse_err(line, format!("bad signal name `{arg}`")));
                    }
                    arg_buf.push(signals.net(&mut nl, arg));
                }
            }
            let tags = comment.map(parse_tags).unwrap_or_default();
            let out = signals.net(&mut nl, dest);
            nl.try_add_gate_driving(kind, &arg_buf, out, tags)?;
        } else if let Some(rest) = strip_keyword(body, "INPUT") {
            let name = paren_arg(rest, line)?;
            // a second INPUT of one name fails here as MultipleDrivers
            let net = signals.net(&mut nl, name);
            nl.promote_input(net)?;
        } else if let Some(rest) = strip_keyword(body, "OUTPUT") {
            let name = paren_arg(rest, line)?;
            // `# port: <name>` keeps a port name that differs from the
            // signal name (several ports on one net, or an input that
            // is also an output)
            let port = comment
                .and_then(|c| c.trim().strip_prefix("port:"))
                .map(|p| p.trim().to_string());
            outputs.push((signals.net(&mut nl, name), port));
        } else {
            return Err(parse_err(
                line,
                format!("expected INPUT(...), OUTPUT(...), or `sig = KIND(...)`, got `{body}`"),
            ));
        }
    }

    // every referenced signal must be an input or have a driver by now
    for net in (0..nl.num_nets()).map(NetId::from_index) {
        if nl.net(net).driver.is_none() && !nl.is_input(net) {
            return Err(NetlistError::UnknownNet(nl.net_label(net)));
        }
    }
    for (net, port) in outputs {
        let name = port.unwrap_or_else(|| nl.net_label(net));
        nl.mark_output(net, name);
    }
    nl.topo_order()?; // the builders checked all but cycles
    sp.attr("gates", nl.num_gates());
    sp.attr("inputs", nl.inputs().len());
    Ok(nl)
}

/// Strips a case-insensitive keyword prefix, returning the remainder.
fn strip_keyword<'a>(body: &'a str, kw: &str) -> Option<&'a str> {
    // compared as bytes: `kw` is ASCII, so a match ends on a char
    // boundary, and a multi-byte char straddling `kw.len()` is no match
    let head = body.as_bytes().get(..kw.len())?;
    if head.eq_ignore_ascii_case(kw.as_bytes()) {
        Some(&body[kw.len()..])
    } else {
        None
    }
}

/// Extracts `name` from a `(name)` remainder of an INPUT/OUTPUT line.
fn paren_arg(rest: &str, line: usize) -> Result<&str, NetlistError> {
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| parse_err(line, "expected `(signal)`"))?;
    let name = inner.trim();
    if !valid_signal_name(name) {
        return Err(parse_err(line, format!("bad signal name `{name}`")));
    }
    Ok(name)
}

/// Serializes a netlist to `.bench` text.
///
/// Every net is given a signal name: its interned name when it has
/// one, the (first) output port name for unnamed output nets, and
/// `n<index>` otherwise; collisions are uniquified with a `__<index>`
/// suffix. Gate tags survive as `# tags:` comments. The line order —
/// inputs, then gates in creation order, then outputs — means a design
/// whose nets were created in that same order (all the built-in
/// generators) reparses to a structurally *identical* netlist, net and
/// gate ids included.
///
/// Undriven non-input nets that are read by gates (dangling
/// placeholders) are given an explicit `CONST0()` driver, which
/// preserves simulation semantics (undriven nets read as false) at the
/// cost of one extra gate per dangling net.
pub fn write_bench(nl: &Netlist) -> String {
    let mut names: Vec<Option<String>> = vec![None; nl.num_nets()];
    let mut used: HashSet<String> = HashSet::new();
    let mut assign = |names: &mut Vec<Option<String>>, net: NetId, candidate: String| {
        let name = if used.contains(&candidate) {
            format!("{candidate}__{}", net.index())
        } else {
            candidate
        };
        used.insert(name.clone());
        names[net.index()] = Some(name);
    };
    // first port name per unnamed output net
    let mut port_of: Vec<Option<&str>> = vec![None; nl.num_nets()];
    for (net, port) in nl.outputs() {
        port_of[net.index()].get_or_insert(port.as_str());
    }
    for &pi in nl.inputs() {
        let candidate = nl
            .net_name(pi)
            .map(str::to_string)
            .unwrap_or_else(|| pi.to_string());
        assign(&mut names, pi, candidate);
    }
    for g in nl.gates() {
        let out = g.output;
        let candidate = match nl.net_name(out) {
            Some(n) => n.to_string(),
            None => match port_of[out.index()] {
                Some(p) => p.to_string(),
                None => out.to_string(),
            },
        };
        assign(&mut names, out, candidate);
    }
    // dangling nets read by gates: named now, driven by CONST0 below
    let mut dangling: Vec<NetId> = Vec::new();
    for g in nl.gates() {
        for &inp in &g.inputs {
            if names[inp.index()].is_none() {
                let candidate = nl
                    .net_name(inp)
                    .map(str::to_string)
                    .unwrap_or_else(|| inp.to_string());
                assign(&mut names, inp, candidate);
                dangling.push(inp);
            }
        }
    }

    let name_of = |names: &[Option<String>], net: NetId| -> String {
        names[net.index()].clone().expect("net named")
    };
    let mut out = String::with_capacity(nl.num_gates() * 24 + 64);
    let _ = writeln!(out, "# design: {}", nl.name());
    let _ = writeln!(
        out,
        "# {} gates, {} inputs, {} outputs",
        nl.num_gates(),
        nl.inputs().len(),
        nl.outputs().len()
    );
    for &pi in nl.inputs() {
        let _ = writeln!(out, "INPUT({})", name_of(&names, pi));
    }
    for &net in &dangling {
        let _ = writeln!(
            out,
            "{} = CONST0() # undriven placeholder",
            name_of(&names, net)
        );
    }
    for g in nl.gates() {
        let _ = write!(
            out,
            "{} = {}(",
            name_of(&names, g.output),
            keyword_for_kind(g.kind)
        );
        for (k, &inp) in g.inputs.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&name_of(&names, inp));
        }
        let _ = writeln!(out, "){}", format_tags(&g.tags));
    }
    for (net, port) in nl.outputs() {
        let sig = name_of(&names, *net);
        if port == &sig {
            let _ = writeln!(out, "OUTPUT({sig})");
        } else {
            // port name differs from the signal name (several ports on
            // one net, or an input doubling as an output): keep it in a
            // comment the parser understands
            let _ = writeln!(out, "OUTPUT({sig}) # port: {port}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_circuits::c17;

    const C17_BENCH: &str = "\
# design: c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    #[test]
    fn c17_parses_and_matches_builtin() {
        let parsed = parse_bench(C17_BENCH).expect("parse");
        assert_eq!(parsed.inputs().len(), 5);
        assert_eq!(parsed.outputs().len(), 2);
        assert_eq!(parsed.num_gates(), 6);
        // same function as the in-process builder
        assert_eq!(parsed.truth_table(), c17().truth_table());
    }

    #[test]
    fn forward_references_and_case() {
        let text = "\
output(Y)
Y = nand(A, B)
input(A)
INPUT(B)
";
        let nl = parse_bench(text).expect("parse");
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.evaluate(&[true, true]), vec![false]);
    }

    #[test]
    fn roundtrip_c17_exact() {
        let nl = c17();
        let text = write_bench(&nl);
        let back = parse_bench(&text).expect("reparse");
        assert_eq!(back, nl);
    }

    #[test]
    fn tags_survive_roundtrip() {
        let mut nl = Netlist::new("tagged");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_tagged(
            CellKind::Xor,
            &[a, b],
            GateTags {
                key_gate: true,
                monitor: true,
                ..GateTags::default()
            },
        );
        nl.mark_output(y, "y");
        let z = nl.add_gate_tagged(
            CellKind::And,
            &[a, y],
            GateTags {
                no_reassoc: true,
                tainted: true,
                redundancy: true,
                ..GateTags::default()
            },
        );
        nl.mark_output(z, "z");
        let back = parse_bench(&write_bench(&nl)).expect("reparse");
        assert_eq!(back, nl);
        assert!(back.gates()[0].tags.key_gate);
        assert!(back.gates()[0].tags.monitor);
        let tags = back.gates()[1].tags;
        assert!(tags.no_reassoc && tags.tainted && tags.redundancy);
    }

    #[test]
    fn undefined_net_is_typed() {
        let err = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert_eq!(err, NetlistError::UnknownNet("ghost".into()));
    }

    #[test]
    fn duplicate_driver_is_typed() {
        let err = parse_bench("INPUT(a)\ny = NOT(a)\ny = BUFF(a)\nOUTPUT(y)\n").unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers("y".into()));
        let err = parse_bench("INPUT(a)\na = NOT(a)\n").unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers("a".into()));
        let err = parse_bench("INPUT(a)\nINPUT(a)\n").unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers("a".into()));
    }

    #[test]
    fn cycle_is_typed() {
        let err = parse_bench("INPUT(a)\nx = AND(a, y)\ny = NOT(x)\nOUTPUT(y)\n").unwrap_err();
        assert_eq!(err, NetlistError::CombinationalCycle);
    }

    #[test]
    fn truncated_and_malformed_lines_are_typed() {
        for bad in [
            "INPUT(a)\ny = NAND(a",         // truncated
            "INPUT(a)\ny = FROB(a, a)\n",   // unknown type
            "INPUT(a\n",                    // bad decl
            "bogus line\n",                 // no directive
            "INPUT(a)\ny = NAND(a, , a)\n", // empty arg
            "INPUT(a)\ny = NAND(a b)\n",    // missing comma
        ] {
            let err = parse_bench(bad).unwrap_err();
            assert!(
                matches!(err, NetlistError::Parse { .. }),
                "`{bad}` gave {err:?}"
            );
        }
        let err = parse_bench("INPUT(a)\ny = NAND(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn multibyte_char_inside_a_keyword_is_a_parse_error() {
        // the em space straddles the length of `INPUT`
        let err = parse_bench("INPU\u{2003}T(G7)\n").unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn dff_parses_as_state() {
        let text = "\
INPUT(d)
q = DFF(d)
OUTPUT(q)
";
        let nl = parse_bench(text).expect("parse");
        assert_eq!(nl.dffs().len(), 1);
        let (outs, next) = nl.step(&[true], &[false]).expect("step");
        assert_eq!(outs, vec![false]);
        assert_eq!(next, vec![true]);
    }

    #[test]
    fn dangling_nets_export_as_const0() {
        let mut nl = Netlist::new("dangle");
        let a = nl.add_input("a");
        let ghost = nl.add_net();
        let y = nl.add_gate(CellKind::Or, &[a, ghost]);
        nl.mark_output(y, "y");
        let back = parse_bench(&write_bench(&nl)).expect("reparse");
        // one extra CONST0 gate, same function
        assert_eq!(back.num_gates(), nl.num_gates() + 1);
        assert_eq!(back.truth_table(), nl.truth_table());
    }
}
