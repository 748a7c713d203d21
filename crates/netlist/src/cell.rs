//! Cell library: the gate kinds understood by the whole toolkit.

use crate::id::NetId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The kind of a gate instance.
///
/// All combinational kinds except [`CellKind::Mux`] accept an arbitrary
/// number of inputs (≥1 for `Buf`/`Not`, ≥2 for the others); technology
/// mapping in `seceda-synth` decomposes wide gates into 2-input cells.
/// [`CellKind::Dff`] is the single sequential element: one data input,
/// sampled on the (implicit) global clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// Constant logic 0 (no inputs).
    Const0,
    /// Constant logic 1 (no inputs).
    Const1,
    /// Buffer: output equals its single input.
    Buf,
    /// Inverter.
    Not,
    /// N-ary AND.
    And,
    /// N-ary NAND.
    Nand,
    /// N-ary OR.
    Or,
    /// N-ary NOR.
    Nor,
    /// N-ary XOR (odd parity).
    Xor,
    /// N-ary XNOR (even parity).
    Xnor,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output is `sel ? b : a`.
    Mux,
    /// D flip-flop; input `[d]`, output is the registered value.
    Dff,
}

impl CellKind {
    /// All cell kinds, in a stable order (useful for histograms).
    pub const ALL: [CellKind; 12] = [
        CellKind::Const0,
        CellKind::Const1,
        CellKind::Buf,
        CellKind::Not,
        CellKind::And,
        CellKind::Nand,
        CellKind::Or,
        CellKind::Nor,
        CellKind::Xor,
        CellKind::Xnor,
        CellKind::Mux,
        CellKind::Dff,
    ];

    /// Returns `true` for the D flip-flop.
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Returns the valid input arity range `(min, max)` for this kind,
    /// where `max == usize::MAX` means unbounded.
    pub fn arity(self) -> (usize, usize) {
        match self {
            CellKind::Const0 | CellKind::Const1 => (0, 0),
            CellKind::Buf | CellKind::Not | CellKind::Dff => (1, 1),
            CellKind::Mux => (3, 3),
            _ => (2, usize::MAX),
        }
    }

    /// Evaluates the cell function over `inputs`.
    ///
    /// For [`CellKind::Dff`] this returns the data input (the "next state"
    /// function); sequential timing is the simulator's responsibility.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` violates [`CellKind::arity`].
    pub fn eval(self, inputs: &[bool]) -> bool {
        let (lo, hi) = self.arity();
        assert!(
            inputs.len() >= lo && inputs.len() <= hi,
            "{self} expects between {lo} and {hi} inputs, got {}",
            inputs.len()
        );
        match self {
            CellKind::Const0 => false,
            CellKind::Const1 => true,
            CellKind::Buf | CellKind::Dff => inputs[0],
            CellKind::Not => !inputs[0],
            CellKind::And => inputs.iter().all(|&x| x),
            CellKind::Nand => !inputs.iter().all(|&x| x),
            CellKind::Or => inputs.iter().any(|&x| x),
            CellKind::Nor => !inputs.iter().any(|&x| x),
            CellKind::Xor => inputs.iter().fold(false, |acc, &x| acc ^ x),
            CellKind::Xnor => !inputs.iter().fold(false, |acc, &x| acc ^ x),
            CellKind::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// Area of a 2-input instance in gate equivalents (1 GE = one NAND2).
    ///
    /// N-ary instances are costed as a tree of 2-input cells by
    /// [`crate::NetlistStats`].
    pub fn area_ge(self) -> f64 {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Buf => 0.5,
            CellKind::Not => 0.5,
            CellKind::And | CellKind::Or => 1.5,
            CellKind::Nand | CellKind::Nor => 1.0,
            CellKind::Xor | CellKind::Xnor => 2.5,
            CellKind::Mux => 2.5,
            CellKind::Dff => 6.0,
        }
    }

    /// Nominal propagation delay of a 2-input instance, in arbitrary
    /// delay units (1.0 = one NAND2 delay).
    pub fn delay(self) -> f64 {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Buf => 0.5,
            CellKind::Not => 0.5,
            CellKind::Nand | CellKind::Nor => 1.0,
            CellKind::And | CellKind::Or => 1.5,
            CellKind::Xor | CellKind::Xnor => 2.0,
            CellKind::Mux => 2.0,
            CellKind::Dff => 1.0,
        }
    }

    /// Delay of an instance with `fan_in` inputs, built as a log-depth
    /// tree of 2-input cells: [`delay`](Self::delay) times
    /// ⌈log2(fan_in)⌉ levels, at least one (a 3-input `Mux` costs two).
    pub fn tree_delay(self, fan_in: usize) -> f64 {
        let levels = usize::BITS - (fan_in.max(2) - 1).leading_zeros();
        self.delay() * f64::from(levels)
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Const0 => "const0",
            CellKind::Const1 => "const1",
            CellKind::Buf => "buf",
            CellKind::Not => "not",
            CellKind::And => "and",
            CellKind::Nand => "nand",
            CellKind::Or => "or",
            CellKind::Nor => "nor",
            CellKind::Xor => "xor",
            CellKind::Xnor => "xnor",
            CellKind::Mux => "mux",
            CellKind::Dff => "dff",
        };
        f.write_str(s)
    }
}

/// Security-relevant markers attached to a gate by analysis and
/// countermeasure passes.
///
/// Classical EDA has no such notion; `seceda` passes use these tags to
/// communicate constraints (e.g. [`GateTags::no_reassoc`] is the ordering
/// barrier that keeps private-circuit XOR trees intact — see Fig. 2 of the
/// paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct GateTags {
    /// Synthesis must not re-associate or merge this gate with its
    /// neighbours (ordering barrier for masking schemes).
    pub no_reassoc: bool,
    /// This gate was inserted by a logic-locking pass (key gate).
    pub key_gate: bool,
    /// This gate is part of a security monitor / sensor and must survive
    /// optimization.
    pub monitor: bool,
    /// This gate carries a secret-dependent signal (taint from IFT).
    pub tainted: bool,
    /// This gate belongs to redundancy inserted by an FIA countermeasure.
    pub redundancy: bool,
}

impl GateTags {
    /// Tags with every marker cleared (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the gate must not be touched by optimization.
    pub fn is_protected(&self) -> bool {
        self.no_reassoc || self.key_gate || self.monitor || self.redundancy
    }
}

/// Number of gate inputs stored inline (without a heap allocation) by
/// [`InputList`]. Covers every fixed-arity cell (`Not`/`Buf`/`Dff` = 1,
/// `Mux` = 3) and the overwhelmingly common 2-input instances of the
/// n-ary kinds, plus the 3-input XOR/majority idioms of the adders.
pub const INLINE_INPUTS: usize = 4;

#[derive(Debug, Clone)]
enum InputRepr {
    Inline {
        len: u8,
        buf: [NetId; INLINE_INPUTS],
    },
    Heap(Vec<NetId>),
}

/// The input nets of one gate, stored inline for up to
/// [`INLINE_INPUTS`] entries and spilled to the heap only for wider
/// gates.
///
/// At 10^5–10^6 gates, per-gate `Vec<NetId>` allocations dominated
/// netlist construction; this container removes them for the common
/// case while dereferencing to `[NetId]`, so existing slice-style
/// access (`g.inputs.iter()`, `g.inputs[0]`, `g.inputs.len()`) keeps
/// working unchanged.
#[derive(Clone)]
pub struct InputList(InputRepr);

impl InputList {
    /// Builds a list from a slice, choosing inline storage when it fits.
    pub fn from_slice(inputs: &[NetId]) -> Self {
        if inputs.len() <= INLINE_INPUTS {
            let mut buf = [NetId(0); INLINE_INPUTS];
            buf[..inputs.len()].copy_from_slice(inputs);
            InputList(InputRepr::Inline {
                len: inputs.len() as u8,
                buf,
            })
        } else {
            InputList(InputRepr::Heap(inputs.to_vec()))
        }
    }

    /// The inputs as a slice, in positional order.
    pub fn as_slice(&self) -> &[NetId] {
        match &self.0 {
            InputRepr::Inline { len, buf } => &buf[..*len as usize],
            InputRepr::Heap(v) => v,
        }
    }

    /// The inputs as a mutable slice (rewiring passes redirect entries
    /// in place; the arity of a gate never changes after creation).
    fn as_mut_slice(&mut self) -> &mut [NetId] {
        match &mut self.0 {
            InputRepr::Inline { len, buf } => &mut buf[..*len as usize],
            InputRepr::Heap(v) => v,
        }
    }
}

impl Deref for InputList {
    type Target = [NetId];
    fn deref(&self) -> &[NetId] {
        self.as_slice()
    }
}

impl DerefMut for InputList {
    fn deref_mut(&mut self) -> &mut [NetId] {
        self.as_mut_slice()
    }
}

impl From<&[NetId]> for InputList {
    fn from(inputs: &[NetId]) -> Self {
        InputList::from_slice(inputs)
    }
}

impl From<Vec<NetId>> for InputList {
    fn from(inputs: Vec<NetId>) -> Self {
        // canonicalize: short lists always live inline so equality and
        // hashing never depend on how the list was built
        InputList::from_slice(&inputs)
    }
}

impl<const N: usize> From<[NetId; N]> for InputList {
    fn from(inputs: [NetId; N]) -> Self {
        InputList::from_slice(&inputs)
    }
}

impl PartialEq for InputList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for InputList {}

impl Hash for InputList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for InputList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a> IntoIterator for &'a InputList {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut InputList {
    type Item = &'a mut NetId;
    type IntoIter = std::slice::IterMut<'a, NetId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// A gate instance: a cell kind, its input nets, and its output net.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Gate {
    /// The cell function.
    pub kind: CellKind,
    /// Input nets, in positional order (see [`CellKind`] for semantics).
    pub inputs: InputList,
    /// The single output net driven by this gate.
    pub output: NetId,
    /// Security markers.
    pub tags: GateTags,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables() {
        assert!(!CellKind::And.eval(&[true, false]));
        assert!(CellKind::And.eval(&[true, true, true]));
        assert!(CellKind::Nand.eval(&[true, false]));
        assert!(CellKind::Or.eval(&[false, true]));
        assert!(!CellKind::Nor.eval(&[false, true]));
        assert!(CellKind::Xor.eval(&[true, true, true]));
        assert!(!CellKind::Xor.eval(&[true, true]));
        assert!(CellKind::Xnor.eval(&[true, true]));
        assert!(!CellKind::Not.eval(&[true]));
        assert!(CellKind::Buf.eval(&[true]));
        assert!(!CellKind::Const0.eval(&[]));
        assert!(CellKind::Const1.eval(&[]));
    }

    #[test]
    fn mux_selects() {
        // inputs = [sel, a, b]; sel ? b : a
        assert!(!CellKind::Mux.eval(&[false, false, true]));
        assert!(CellKind::Mux.eval(&[true, false, true]));
        assert!(CellKind::Mux.eval(&[false, true, false]));
    }

    #[test]
    fn tree_delay_counts_two_input_levels() {
        assert_eq!(CellKind::Not.tree_delay(1), 0.5);
        assert_eq!(CellKind::Nand.tree_delay(2), 1.0);
        assert_eq!(CellKind::Mux.tree_delay(3), 2.0 * 2.0);
        assert_eq!(CellKind::And.tree_delay(5), 1.5 * 3.0);
        assert_eq!(CellKind::Const0.tree_delay(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "expects between")]
    fn arity_checked() {
        CellKind::And.eval(&[true]);
    }

    #[test]
    fn input_list_inline_and_heap_agree() {
        let ids: Vec<NetId> = (0..7).map(NetId::from_index).collect();
        let short = InputList::from_slice(&ids[..3]);
        let wide = InputList::from_slice(&ids);
        assert_eq!(short.len(), 3);
        assert_eq!(wide.len(), 7);
        assert_eq!(&short[..], &ids[..3]);
        assert_eq!(&wide[..], &ids[..]);
        // canonical representation: a short Vec converts to the same
        // (inline) value as a slice build
        let via_vec: InputList = ids[..3].to_vec().into();
        assert_eq!(short, via_vec);
        let mut hs = std::collections::HashSet::new();
        hs.insert(short.clone());
        assert!(hs.contains(&via_vec));
    }

    #[test]
    fn input_list_mutation_in_place() {
        let ids: Vec<NetId> = (0..4).map(NetId::from_index).collect();
        let mut l = InputList::from_slice(&ids);
        l[2] = NetId::from_index(9);
        for x in &mut l {
            if x.index() == 9 {
                *x = NetId::from_index(11);
            }
        }
        assert_eq!(l[2], NetId::from_index(11));
    }

    #[test]
    fn protected_tags() {
        let mut tags = GateTags::new();
        assert!(!tags.is_protected());
        tags.no_reassoc = true;
        assert!(tags.is_protected());
        let tags = GateTags {
            monitor: true,
            ..GateTags::default()
        };
        assert!(tags.is_protected());
    }
}
