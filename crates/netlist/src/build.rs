//! Word-level construction helpers.
//!
//! Cipher and datapath generators need to manipulate multi-bit buses; a
//! [`Word`] is an ordered list of nets (LSB first) together with free
//! functions that lower word operations to gates.

use crate::cell::CellKind;
use crate::id::NetId;
use crate::netlist::Netlist;

/// An ordered bundle of nets forming a bus, least-significant bit first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word(pub Vec<NetId>);

impl Word {
    /// Creates a word from bits (LSB first).
    pub fn new(bits: Vec<NetId>) -> Self {
        Word(bits)
    }

    /// Declares `width` fresh primary inputs named `name[i]`.
    pub fn input(nl: &mut Netlist, name: &str, width: usize) -> Self {
        Word(
            (0..width)
                .map(|i| nl.add_input(format!("{name}[{i}]")))
                .collect(),
        )
    }

    /// Creates a constant word holding `value` (LSB first).
    pub fn constant(nl: &mut Netlist, value: u64, width: usize) -> Self {
        Word(
            (0..width)
                .map(|i| {
                    let kind = if (value >> i) & 1 == 1 {
                        CellKind::Const1
                    } else {
                        CellKind::Const0
                    };
                    nl.add_gate(kind, &[])
                })
                .collect(),
        )
    }

    /// Bus width in bits.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// The bits, LSB first.
    pub fn bits(&self) -> &[NetId] {
        &self.0
    }

    /// Marks every bit as a primary output named `name[i]`.
    pub fn mark_output(&self, nl: &mut Netlist, name: &str) {
        for (i, &b) in self.0.iter().enumerate() {
            nl.mark_output(b, format!("{name}[{i}]"));
        }
    }

    /// Bitwise XOR with another word of the same width.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn xor(&self, nl: &mut Netlist, other: &Word) -> Word {
        self.zip_map(nl, other, CellKind::Xor)
    }

    /// Bitwise AND with another word of the same width.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn and(&self, nl: &mut Netlist, other: &Word) -> Word {
        self.zip_map(nl, other, CellKind::And)
    }

    /// Bitwise OR with another word of the same width.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn or(&self, nl: &mut Netlist, other: &Word) -> Word {
        self.zip_map(nl, other, CellKind::Or)
    }

    /// Bitwise NOT.
    pub fn not(&self, nl: &mut Netlist) -> Word {
        Word(
            self.0
                .iter()
                .map(|&b| nl.add_gate(CellKind::Not, &[b]))
                .collect(),
        )
    }

    /// Ripple-carry addition (modulo 2^width). Returns the sum word.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add(&self, nl: &mut Netlist, other: &Word) -> Word {
        assert_eq!(self.width(), other.width(), "word width mismatch");
        let mut carry: Option<NetId> = None;
        let mut bits = Vec::with_capacity(self.width());
        for (&a, &b) in self.0.iter().zip(&other.0) {
            match carry {
                None => {
                    bits.push(nl.add_gate(CellKind::Xor, &[a, b]));
                    carry = Some(nl.add_gate(CellKind::And, &[a, b]));
                }
                Some(c) => {
                    bits.push(nl.add_gate(CellKind::Xor, &[a, b, c]));
                    let ab = nl.add_gate(CellKind::And, &[a, b]);
                    let ac = nl.add_gate(CellKind::And, &[a, c]);
                    let bc = nl.add_gate(CellKind::And, &[b, c]);
                    carry = Some(nl.add_gate(CellKind::Or, &[ab, ac, bc]));
                }
            }
        }
        Word(bits)
    }

    /// Word-level 2:1 multiplexer: `sel ? other : self`, bitwise.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn mux(&self, nl: &mut Netlist, other: &Word, sel: NetId) -> Word {
        assert_eq!(self.width(), other.width(), "word width mismatch");
        Word(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(&a, &b)| nl.add_gate(CellKind::Mux, &[sel, a, b]))
                .collect(),
        )
    }

    /// Left rotation by `k` bit positions (towards the MSB).
    pub fn rotate_left(&self, k: usize) -> Word {
        let w = self.width();
        if w == 0 {
            return self.clone();
        }
        let k = k % w;
        let mut bits = Vec::with_capacity(w);
        // bit i of result = bit (i - k) mod w of input
        for i in 0..w {
            bits.push(self.0[(i + w - k) % w]);
        }
        Word(bits)
    }

    /// Equality comparison against another word; returns a single net that
    /// is 1 iff all bits match.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or empty words.
    pub fn eq(&self, nl: &mut Netlist, other: &Word) -> NetId {
        let per_bit = self.zip_map(nl, other, CellKind::Xnor);
        if per_bit.0.len() == 1 {
            per_bit.0[0]
        } else {
            nl.add_gate(CellKind::And, &per_bit.0)
        }
    }

    fn zip_map(&self, nl: &mut Netlist, other: &Word, kind: CellKind) -> Word {
        assert_eq!(self.width(), other.width(), "word width mismatch");
        Word(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(&a, &b)| nl.add_gate(kind, &[a, b]))
                .collect(),
        )
    }
}

/// Converts output bits (LSB first) of an evaluation back to an integer.
pub fn bits_to_u64(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

/// Expands an integer into `width` bools, LSB first.
pub fn u64_to_bits(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn eval_word_circuit(nl: &Netlist, a: u64, b: u64, width: usize) -> u64 {
        let mut inputs = u64_to_bits(a, width);
        inputs.extend(u64_to_bits(b, width));
        bits_to_u64(&nl.evaluate(&inputs))
    }

    #[test]
    fn add_matches_integer_addition() {
        let mut nl = Netlist::new("adder");
        let a = Word::input(&mut nl, "a", 8);
        let b = Word::input(&mut nl, "b", 8);
        let s = a.add(&mut nl, &b);
        s.mark_output(&mut nl, "s");
        for (x, y) in [(0u64, 0u64), (1, 1), (200, 100), (255, 255), (17, 240)] {
            assert_eq!(eval_word_circuit(&nl, x, y, 8), (x + y) & 0xff);
        }
    }

    #[test]
    fn xor_and_or_not() {
        let mut nl = Netlist::new("bitwise");
        let a = Word::input(&mut nl, "a", 4);
        let b = Word::input(&mut nl, "b", 4);
        let x = a.xor(&mut nl, &b);
        let n = a.not(&mut nl);
        let o = a.or(&mut nl, &b);
        let m = a.and(&mut nl, &b);
        x.mark_output(&mut nl, "x");
        n.mark_output(&mut nl, "n");
        o.mark_output(&mut nl, "o");
        m.mark_output(&mut nl, "m");
        let mut inputs = u64_to_bits(0b1100, 4);
        inputs.extend(u64_to_bits(0b1010, 4));
        let out = nl.evaluate(&inputs);
        assert_eq!(bits_to_u64(&out[0..4]), 0b0110);
        assert_eq!(bits_to_u64(&out[4..8]), 0b0011);
        assert_eq!(bits_to_u64(&out[8..12]), 0b1110);
        assert_eq!(bits_to_u64(&out[12..16]), 0b1000);
    }

    #[test]
    fn rotate_left_is_pure_wiring() {
        let mut nl = Netlist::new("rot");
        let a = Word::input(&mut nl, "a", 8);
        let r = a.rotate_left(3);
        r.mark_output(&mut nl, "r");
        let inputs = u64_to_bits(0b0000_0001, 8);
        assert_eq!(bits_to_u64(&nl.evaluate(&inputs)), 0b0000_1000);
        let inputs = u64_to_bits(0b1000_0000, 8);
        assert_eq!(bits_to_u64(&nl.evaluate(&inputs)), 0b0000_0100);
    }

    #[test]
    fn eq_and_mux() {
        let mut nl = Netlist::new("eqmux");
        let a = Word::input(&mut nl, "a", 4);
        let b = Word::input(&mut nl, "b", 4);
        let sel = nl.add_input("sel");
        let e = a.eq(&mut nl, &b);
        let m = a.mux(&mut nl, &b, sel);
        nl.mark_output(e, "e");
        m.mark_output(&mut nl, "m");
        let mut inputs = u64_to_bits(5, 4);
        inputs.extend(u64_to_bits(5, 4));
        inputs.push(false);
        let out = nl.evaluate(&inputs);
        assert!(out[0]);
        assert_eq!(bits_to_u64(&out[1..5]), 5);
        let mut inputs = u64_to_bits(5, 4);
        inputs.extend(u64_to_bits(9, 4));
        inputs.push(true);
        let out = nl.evaluate(&inputs);
        assert!(!out[0]);
        assert_eq!(bits_to_u64(&out[1..5]), 9);
    }

    #[test]
    fn constant_word() {
        let mut nl = Netlist::new("const");
        let c = Word::constant(&mut nl, 0xA5, 8);
        c.mark_output(&mut nl, "c");
        assert_eq!(bits_to_u64(&nl.evaluate(&[])), 0xA5);
    }

    #[test]
    fn bits_helpers_roundtrip() {
        for v in [0u64, 1, 0xdead, u32::MAX as u64] {
            assert_eq!(bits_to_u64(&u64_to_bits(v, 32)), v & 0xffff_ffff);
        }
    }
}
