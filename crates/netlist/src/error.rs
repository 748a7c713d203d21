//! Error type shared by fallible netlist operations.

use std::error::Error;
use std::fmt;

/// Errors produced by netlist construction, validation, and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A referenced net id does not exist in the netlist.
    UnknownNet(String),
    /// A gate was declared with an input count outside its kind's arity.
    BadArity {
        /// The offending cell kind mnemonic.
        kind: String,
        /// Number of inputs supplied.
        got: usize,
    },
    /// Two drivers were attached to the same net.
    MultipleDrivers(String),
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle,
    /// A design file (`.bench` or Verilog) could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An input vector of the wrong width was supplied for evaluation.
    WidthMismatch {
        /// Expected number of bits.
        expected: usize,
        /// Provided number of bits.
        got: usize,
    },
    /// A design file could not be read (or its format recognized).
    Io(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownNet(n) => write!(f, "unknown net {n}"),
            NetlistError::BadArity { kind, got } => {
                write!(f, "cell {kind} cannot take {got} inputs")
            }
            NetlistError::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
            NetlistError::CombinationalCycle => write!(f, "combinational cycle detected"),
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::WidthMismatch { expected, got } => {
                write!(f, "expected {expected} input bits, got {got}")
            }
            NetlistError::Io(message) => write!(f, "io error: {message}"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = NetlistError::BadArity {
            kind: "and".into(),
            got: 1,
        };
        assert_eq!(e.to_string(), "cell and cannot take 1 inputs");
        let e = NetlistError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<NetlistError>();
    }
}
