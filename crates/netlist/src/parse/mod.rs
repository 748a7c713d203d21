//! Real-design frontend: parsers for standard netlist interchange
//! formats.
//!
//! Two formats are supported, both producing the ordinary [`Netlist`]:
//!
//! - **ISCAS-85/89 `.bench`** ([`parse_bench`]) — `INPUT(x)` /
//!   `OUTPUT(y)` declarations plus `sig = KIND(a, b, ...)` gate lines,
//!   with a matching writer ([`write_bench`]) used for roundtrip
//!   testing and for exporting generated circuits.
//! - **Structural Verilog** ([`parse_verilog`]) — a gate-level subset:
//!   one `module`, scalar `input`/`output`/`wire` declarations,
//!   primitive gate instantiations (`nand g1 (y, a, b);`), and simple
//!   `assign` aliases. See the `verilog` module docs for the exact
//!   subset.
//!
//! Both parsers are single-pass, name-resolving (forward references
//! are legal), fully iterative, and return typed [`NetlistError`]s on
//! malformed input — they never panic. Signal names are interned in
//! the netlist's symbol table as they are seen, so a 10^6-gate design
//! parses with O(n) work and no per-net string duplication.

mod bench;
mod verilog;

pub use bench::{parse_bench, write_bench};
pub use verilog::parse_verilog;

use crate::error::NetlistError;
use crate::netlist::Netlist;
use std::path::Path;

/// A netlist interchange format understood by [`parse_design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignFormat {
    /// ISCAS-85/89 `.bench`.
    Bench,
    /// Structural (gate-level) Verilog.
    Verilog,
}

impl DesignFormat {
    /// Guesses the format from a file extension (`bench`, `v`/`vg`).
    fn from_extension(ext: &str) -> Option<DesignFormat> {
        match ext.to_ascii_lowercase().as_str() {
            "bench" => Some(DesignFormat::Bench),
            "v" | "vg" => Some(DesignFormat::Verilog),
            _ => None,
        }
    }
}

/// Parses `text` in the given format.
///
/// # Errors
///
/// Propagates the format parser's [`NetlistError`].
pub fn parse_design(text: &str, format: DesignFormat) -> Result<Netlist, NetlistError> {
    let mut sp = seceda_trace::span("parse.design")
        .with(
            "format",
            match format {
                DesignFormat::Bench => "bench",
                DesignFormat::Verilog => "verilog",
            },
        )
        .with("bytes", text.len());
    // chaos injection point: a truncated input models an interrupted
    // read or corrupted hand-off; the parser must reject it with a
    // proper error, never panic
    let chaos_text;
    let text = if seceda_testkit::chaos::active() {
        match seceda_testkit::chaos::truncate_input("parse.design", text) {
            Some(t) => {
                seceda_trace::counter("chaos.injections", 1);
                chaos_text = t;
                &chaos_text
            }
            None => text,
        }
    } else {
        text
    };
    let timer = seceda_trace::hist_timer("parse.design_ns");
    let result = match format {
        DesignFormat::Bench => parse_bench(text),
        DesignFormat::Verilog => parse_verilog(text),
    };
    drop(timer);
    if seceda_trace::enabled() {
        seceda_trace::counter("parse.lines", text.lines().count() as u64);
        if let Ok(nl) = &result {
            seceda_trace::counter("parse.gates", nl.num_gates() as u64);
            sp.attr("gates", nl.num_gates());
        }
        sp.attr("ok", result.is_ok());
    }
    result
}

/// Reads and parses a design file, picking the format from its
/// extension. If the parsed design carries no name of its own, the
/// file stem becomes the design name.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] for unreadable files or unknown
/// extensions, and the format parser's errors otherwise.
pub fn parse_design_path(path: impl AsRef<Path>) -> Result<Netlist, NetlistError> {
    let path = path.as_ref();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let format = DesignFormat::from_extension(ext).ok_or_else(|| {
        NetlistError::Io(format!(
            "unknown design extension `{ext}` (expected .bench, .v, or .vg): {}",
            path.display()
        ))
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| NetlistError::Io(format!("{}: {e}", path.display())))?;
    let mut nl = parse_design(&text, format)?;
    if nl.name() == bench::DEFAULT_DESIGN_NAME {
        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
            nl.set_name(stem);
        }
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_dispatch() {
        assert_eq!(
            DesignFormat::from_extension("bench"),
            Some(DesignFormat::Bench)
        );
        assert_eq!(
            DesignFormat::from_extension("BENCH"),
            Some(DesignFormat::Bench)
        );
        assert_eq!(
            DesignFormat::from_extension("v"),
            Some(DesignFormat::Verilog)
        );
        assert_eq!(DesignFormat::from_extension("txt"), None);
        assert_eq!(DesignFormat::from_extension("edif"), None);
    }

    #[test]
    fn chaos_truncated_input_errors_instead_of_panicking() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        // forced truncation: the cut happens on every call; the parser
        // must return Ok or Err — never panic — and deterministically
        let first = seceda_testkit::chaos::with_forced("parse.design", None, || {
            parse_design(text, DesignFormat::Bench).is_ok()
        });
        let second = seceda_testkit::chaos::with_forced("parse.design", None, || {
            parse_design(text, DesignFormat::Bench).is_ok()
        });
        assert_eq!(first, second, "truncation must be deterministic");
        // seeded runs fire probabilistically; whatever they cut, the
        // parser must survive
        for seed in [1u64, 0xDEAD_BEEF, 42] {
            seceda_testkit::chaos::with_seed(seed, || {
                let _ = parse_design(text, DesignFormat::Bench);
            });
        }
        // without chaos the same text parses cleanly
        assert!(parse_design(text, DesignFormat::Bench).is_ok());
    }

    #[test]
    fn missing_file_is_typed_io_error() {
        let err = parse_design_path("/nonexistent/x.bench").unwrap_err();
        assert!(matches!(err, NetlistError::Io(_)));
        let err = parse_design_path("/nonexistent/x.weird").unwrap_err();
        assert!(matches!(err, NetlistError::Io(_)));
    }
}
