//! Structural (gate-level) Verilog reader.
//!
//! The supported subset is what synthesis tools emit for flattened
//! gate-level netlists — and what the ISCAS/ITC benchmark translations
//! use:
//!
//! ```text
//! // comments (line and /* block */)
//! module c17 (G1, G2, G3, G6, G7, G22, G23);
//!   input G1, G2, G3, G6, G7;
//!   wire G10, G11, G16, G19;
//!   output G22, G23;
//!   nand g0 (G10, G1, G3);
//!   nand    (G11, G3, G6);      // instance name optional
//!   assign G22 = G10_bar;       // identifier alias
//!   assign G23 = 1'b0;          // constant tie
//! endmodule
//! ```
//!
//! Supported statements:
//!
//! - `module <name> ( ... );` — one module per file; the port list is
//!   ignored (ports are re-declared in the body, non-ANSI style).
//! - `input` / `output` / `wire` declarations of **scalar** nets.
//!   Vector declarations (`input [7:0] a;`) are rejected with a typed
//!   parse error.
//! - Primitive instantiations `KIND [name] (out, in, ...);` for the
//!   Verilog primitives `and`, `nand`, `or`, `nor`, `xor`, `xnor`,
//!   `not`, `buf`, plus the toolkit extensions `dff` and `mux`
//!   (`mux (y, sel, a, b)`). Positional connections only, output
//!   first; named (`.Y(y)`) connections are rejected.
//! - `assign lhs = rhs;` where `rhs` is a single identifier (becomes a
//!   `BUF`) or a `1'b0` / `1'b1` constant (becomes a `CONST` cell).
//! - `endmodule`.
//!
//! All identifiers must be declared before use; referencing an
//! undeclared signal is a typed [`NetlistError::UnknownNet`]. The
//! parser is a single pass over the statement list and never panics on
//! malformed input.

use crate::cell::{CellKind, GateTags};
use crate::error::NetlistError;
use crate::id::NetId;
use crate::netlist::Netlist;
use crate::parse::bench::SignalMap;
use std::borrow::Cow;

fn parse_err(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.into(),
    }
}

/// Splits `text` on `;` into `(statement, 1-based line of its first
/// token)` pairs; `endmodule` needs no semicolon and is returned as a
/// final statement. Comments before a statement's first token are
/// skipped, so a statement is a slice of `text` unless a comment sits
/// inside it: then it is copied with each `/* */` comment replaced by
/// one space and each `//` comment dropped up to its newline.
fn statements(text: &str) -> Result<Vec<(Cow<'_, str>, usize)>, NetlistError> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut line = 1;
    // the open statement's first line; where its current comment-free
    // run starts; and what came before that run, once a comment was cut
    let mut open: Option<usize> = None;
    let mut run = 0;
    let mut copy: Option<String> = None;
    let mut i = 0;
    while i < bytes.len() {
        let (end, gap) = match (bytes[i], bytes.get(i + 1)) {
            (b'/', Some(b'/')) => (text[i..].find('\n').map_or(text.len(), |n| i + n), ""),
            (b'/', Some(b'*')) => {
                let close = text[i + 2..]
                    .find("*/")
                    .ok_or_else(|| parse_err(line, "unterminated /* comment"))?;
                let end = i + 2 + close + 2;
                line += bytes[i..end].iter().filter(|&&b| b == b'\n').count();
                (end, " ")
            }
            (b';', _) => {
                if let Some(first_line) = open.take() {
                    out.push((joined(copy.take(), &text[run..i]), first_line));
                }
                i += 1;
                continue;
            }
            (b, _) => {
                line += usize::from(b == b'\n');
                let c = text[i..].chars().next().unwrap_or(' ');
                if open.is_none() && !c.is_whitespace() {
                    open = Some(line);
                    run = i;
                }
                i += c.len_utf8();
                continue;
            }
        };
        if open.is_some() {
            let s = copy.get_or_insert_with(String::new);
            s.push_str(&text[run..i]);
            s.push_str(gap);
            run = end;
        }
        i = end;
    }
    if let Some(first_line) = open {
        out.push((joined(copy, &text[run..]), first_line));
    }
    Ok(out)
}

/// A statement's text: `copy` (what preceded its last comment) followed
/// by `tail`, borrowed when no comment was cut.
fn joined(copy: Option<String>, tail: &str) -> Cow<'_, str> {
    match copy {
        Some(mut s) => {
            s.push_str(tail);
            Cow::Owned(s)
        }
        None => Cow::Borrowed(tail),
    }
}

/// Checks that `tok` is a scalar identifier. A rejected token is shown
/// with its line breaks as spaces, as the statement reads on one line.
fn check_identifier(tok: &str, line: usize) -> Result<(), NetlistError> {
    let shown = || tok.replace('\n', " ");
    if tok.contains('[') || tok.contains(']') || tok.contains(':') {
        return Err(parse_err(
            line,
            format!(
                "vector nets are not supported (`{}`); flatten to scalars",
                shown()
            ),
        ));
    }
    let mut chars = tok.chars();
    let ok = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '\\' => {
            chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '$' | '.'))
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(parse_err(line, format!("bad identifier `{}`", shown())))
    }
}

fn prim_kind(kw: &str) -> Option<CellKind> {
    Some(match kw {
        "and" => CellKind::And,
        "nand" => CellKind::Nand,
        "or" => CellKind::Or,
        "nor" => CellKind::Nor,
        "xor" => CellKind::Xor,
        "xnor" => CellKind::Xnor,
        "not" => CellKind::Not,
        "buf" => CellKind::Buf,
        "dff" => CellKind::Dff,
        "mux" => CellKind::Mux,
        _ => return None,
    })
}

/// Parses the structural-Verilog subset into a [`Netlist`].
///
/// # Errors
///
/// Never panics: [`NetlistError::Parse`] for syntax errors (with the
/// 1-based line), [`NetlistError::UnknownNet`] for undeclared signals,
/// [`NetlistError::MultipleDrivers`] / [`NetlistError::BadArity`] /
/// [`NetlistError::CombinationalCycle`] for structural violations.
pub fn parse_verilog(text: &str) -> Result<Netlist, NetlistError> {
    let mut sp = seceda_trace::span("parse.verilog");
    let stmts = statements(text)?;
    sp.attr("statements", stmts.len());
    let mut nl = Netlist::with_capacity("module", stmts.len(), stmts.len());
    let mut signals = SignalMap::with_capacity(stmts.len());
    let mut outputs: Vec<NetId> = Vec::new();
    let mut saw_module = false;
    let mut saw_end = false;
    // one primitive's connections, reused across statements
    let mut ids = Vec::new();

    // resolves a *declared* identifier to its net
    let resolve = |nl: &Netlist, signals: &SignalMap, tok: &str| {
        nl.symbols()
            .lookup(tok)
            .and_then(|sym| signals.lookup(sym))
            .ok_or_else(|| NetlistError::UnknownNet(tok.to_string()))
    };

    for (stmt, line) in &stmts {
        let line = *line;
        if saw_end {
            return Err(parse_err(line, "statement after endmodule"));
        }
        if !saw_module && !stmt.trim_start().starts_with("module") {
            return Err(parse_err(line, "expected `module` declaration first"));
        }
        let stmt = stmt.trim();
        let (kw, rest) = match stmt.find(|c: char| c.is_whitespace() || c == '(') {
            Some(i) => (&stmt[..i], stmt[i..].trim()),
            None => (stmt, ""),
        };
        match kw {
            "module" => {
                if saw_module {
                    return Err(parse_err(line, "only one module per file is supported"));
                }
                saw_module = true;
                let name = rest
                    .split(|c: char| c.is_whitespace() || c == '(')
                    .next()
                    .unwrap_or("");
                if name.is_empty() {
                    return Err(parse_err(line, "module needs a name"));
                }
                check_identifier(name, line)?;
                nl.set_name(name);
                // the port list itself is ignored; ports are declared
                // in the body
            }
            "endmodule" => {
                if !rest.is_empty() {
                    return Err(parse_err(line, "unexpected tokens after endmodule"));
                }
                saw_end = true;
            }
            "input" | "output" | "wire" => {
                for tok in rest.split(',') {
                    let tok = tok.trim();
                    if tok.is_empty() {
                        return Err(parse_err(line, format!("empty name in {kw} declaration")));
                    }
                    check_identifier(tok, line)?;
                    // only declarations create nets, so a name that
                    // already has one was declared before
                    let (net, fresh) = signals.entry(&mut nl, tok);
                    if !fresh {
                        return Err(parse_err(line, format!("`{tok}` declared twice")));
                    }
                    match kw {
                        "input" => nl.promote_input(net)?,
                        "output" => outputs.push(net),
                        _ => {}
                    }
                }
            }
            "assign" => {
                let (lhs, rhs) = rest
                    .split_once('=')
                    .ok_or_else(|| parse_err(line, "assign needs `lhs = rhs`"))?;
                let (lhs, rhs) = (lhs.trim(), rhs.trim());
                check_identifier(lhs, line)?;
                let out = resolve(&nl, &signals, lhs)?;
                match rhs {
                    "1'b0" | "1'B0" => {
                        nl.try_add_gate_driving(CellKind::Const0, &[], out, GateTags::default())?;
                    }
                    "1'b1" | "1'B1" => {
                        nl.try_add_gate_driving(CellKind::Const1, &[], out, GateTags::default())?;
                    }
                    _ => {
                        check_identifier(rhs, line)?;
                        let src = resolve(&nl, &signals, rhs)?;
                        nl.try_add_gate_driving(CellKind::Buf, &[src], out, GateTags::default())?;
                    }
                }
            }
            _ => {
                let kind = prim_kind(kw)
                    .ok_or_else(|| parse_err(line, format!("unsupported statement `{kw} ...`")))?;
                // KIND [instance_name] ( out, in, ... )
                let open = rest
                    .find('(')
                    .ok_or_else(|| parse_err(line, "primitive needs a connection list"))?;
                let inst = rest[..open].trim();
                if !inst.is_empty() {
                    check_identifier(inst, line)?;
                }
                let conns = rest[open + 1..]
                    .trim_end()
                    .strip_suffix(')')
                    .ok_or_else(|| parse_err(line, "missing `)` in connection list"))?;
                ids.clear();
                for tok in conns.split(',') {
                    let tok = tok.trim();
                    if tok.is_empty() {
                        return Err(parse_err(line, "empty connection"));
                    }
                    if tok.starts_with('.') {
                        return Err(parse_err(
                            line,
                            "named port connections are not supported; use positional",
                        ));
                    }
                    check_identifier(tok, line)?;
                    ids.push(resolve(&nl, &signals, tok)?);
                }
                let Some((&out, ins)) = ids.split_first() else {
                    return Err(parse_err(line, "primitive needs an output connection"));
                };
                nl.try_add_gate_driving(kind, ins, out, GateTags::default())?;
            }
        }
    }
    if !saw_module {
        return Err(parse_err(1, "no module declaration found"));
    }
    if !saw_end {
        return Err(parse_err(
            stmts.last().map(|s| s.1).unwrap_or(1),
            "missing endmodule",
        ));
    }
    for net in outputs {
        if nl.net(net).driver.is_none() && !nl.is_input(net) {
            return Err(NetlistError::UnknownNet(nl.net_label(net)));
        }
        let name = nl.net_label(net);
        nl.mark_output(net, name);
    }
    nl.topo_order()?; // the builders checked all but cycles
    sp.attr("gates", nl.num_gates());
    sp.attr("inputs", nl.inputs().len());
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_circuits::c17;

    const C17_V: &str = "\
// c17 gate-level netlist
module c17 (G1, G2, G3, G6, G7, G22, G23);
  input G1, G2, G3, G6, G7;
  wire G10, G11, G16, G19;
  output G22, G23;
  nand g0 (G10, G1, G3);
  nand g1 (G11, G3, G6);
  nand g2 (G16, G2, G11);
  nand g3 (G19, G11, G7);
  nand g4 (G22, G10, G16);
  nand g5 (G23, G16, G19);
endmodule
";

    #[test]
    fn c17_verilog_matches_builtin_function() {
        let parsed = parse_verilog(C17_V).expect("parse");
        assert_eq!(parsed.name(), "c17");
        assert_eq!(parsed.inputs().len(), 5);
        assert_eq!(parsed.outputs().len(), 2);
        assert_eq!(parsed.num_gates(), 6);
        assert_eq!(parsed.truth_table(), c17().truth_table());
    }

    #[test]
    fn comments_and_instance_names_are_optional() {
        let text = "\
module m (a, y); /* block
   comment spanning lines */
  input a;
  output y;
  not (y, a); // no instance name
endmodule
";
        let nl = parse_verilog(text).expect("parse");
        assert_eq!(nl.evaluate(&[true]), vec![false]);
    }

    /// Comments inside a statement are cut out of it: lines still count
    /// from the text, and a rejected token reads as on one line, each
    /// line break or comment a space.
    #[test]
    fn comments_inside_statements() {
        let text = "\
module m (a, b, y);
  input a, /* second
  input */ b;
  output y;
  and g (y, // out
    a, b);
endmodule
";
        let nl = parse_verilog(text).expect("parse");
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.evaluate(&[true, true]), vec![true]);
        for (bad, message) in [
            (
                "module m (a);\n/* one\ntwo */ input a // tail\n b;\nendmodule\n",
                "bad identifier `a   b`",
            ),
            (
                "module m (a);\ninput a;\n/* x */ wire [1:0]\n w;\nendmodule\n",
                "vector nets are not supported (`[1:0]  w`); flatten to scalars",
            ),
        ] {
            let err = parse_verilog(bad).unwrap_err();
            assert_eq!(
                err,
                NetlistError::Parse {
                    line: 3,
                    message: message.into()
                }
            );
        }
    }

    #[test]
    fn assign_alias_and_constants() {
        let text = "\
module m (a, y, z, k);
  input a;
  output y, z, k;
  wire t;
  assign t = a;
  not (y, t);
  assign z = 1'b1;
  assign k = 1'b0;
endmodule
";
        let nl = parse_verilog(text).expect("parse");
        assert_eq!(nl.evaluate(&[false]), vec![true, true, false]);
    }

    #[test]
    fn dff_extension() {
        let text = "\
module m (d, q);
  input d;
  output q;
  dff r (q, d);
endmodule
";
        let nl = parse_verilog(text).expect("parse");
        assert_eq!(nl.dffs().len(), 1);
        let (outs, next) = nl.step(&[true], &[false]).expect("step");
        assert_eq!(outs, vec![false]);
        assert_eq!(next, vec![true]);
    }

    #[test]
    fn vectors_are_rejected_with_parse_error() {
        let text = "module m (a);\n  input [7:0] a;\nendmodule\n";
        let err = parse_verilog(text).unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn undeclared_signal_is_typed() {
        let text = "\
module m (a, y);
  input a;
  output y;
  not (y, ghost);
endmodule
";
        let err = parse_verilog(text).unwrap_err();
        assert_eq!(err, NetlistError::UnknownNet("ghost".into()));
    }

    #[test]
    fn malformed_inputs_are_typed_parse_errors() {
        for bad in [
            "module m (a);\n input a;\n",                      // missing endmodule
            "not (y, a);\nendmodule\n",                        // no module
            "module m (a);\ninput a;\nfrob (a);\nendmodule\n", // unknown primitive
            "module m (a);\ninput a;\ninput a;\nendmodule\n",  // double declaration
            "module m (a, y);\ninput a;\noutput y;\nnot u1 (y, a\nendmodule\n", // truncated
            "module m (a, y);\ninput a;\noutput y;\nnot u1 (.A(a), .Y(y));\nendmodule\n",
            "module m;\ninput a;\nendmodule\nmodule n;\nendmodule\n", // two modules
            "module m (a);\ninput a;\n/* unterminated\nendmodule\n",
        ] {
            let err = parse_verilog(bad).unwrap_err();
            assert!(
                matches!(err, NetlistError::Parse { .. }),
                "`{bad}` gave {err:?}"
            );
        }
    }

    #[test]
    fn duplicate_driver_is_typed() {
        let text = "\
module m (a, y);
  input a;
  output y;
  not (y, a);
  buf (y, a);
endmodule
";
        let err = parse_verilog(text).unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers("y".into()));
    }

    #[test]
    fn combinational_cycle_is_typed() {
        let text = "\
module m (a, y);
  input a;
  output y;
  wire x;
  and (x, a, y);
  not (y, x);
endmodule
";
        let err = parse_verilog(text).unwrap_err();
        assert_eq!(err, NetlistError::CombinationalCycle);
    }

    #[test]
    fn undriven_output_is_typed() {
        let text = "module m (y);\noutput y;\nendmodule\n";
        let err = parse_verilog(text).unwrap_err();
        assert_eq!(err, NetlistError::UnknownNet("y".into()));
    }
}
