//! Gate-level generation of table lookups and cipher slices.

use crate::aes::AES_SBOX;
use seceda_netlist::{CellKind, NetId, Netlist, Word};

/// Builds a Shannon-expansion multiplexer tree computing `leaves[sel]`
/// where `sel` is formed from `sel_bits` (LSB first).
///
/// Constant subtrees are folded, so sparse tables stay small.
///
/// # Panics
///
/// Panics if `leaves.len() != 2^sel_bits.len()`.
fn mux_tree(nl: &mut Netlist, sel_bits: &[NetId], leaves: &[bool]) -> NetId {
    assert_eq!(
        leaves.len(),
        1usize << sel_bits.len(),
        "leaf count must be 2^selector bits"
    );
    if leaves.iter().all(|&b| b) {
        return nl.add_gate(CellKind::Const1, &[]);
    }
    if leaves.iter().all(|&b| !b) {
        return nl.add_gate(CellKind::Const0, &[]);
    }
    if sel_bits.len() == 1 {
        // leaves = [f(0), f(1)]
        return match (leaves[0], leaves[1]) {
            (false, true) => nl.add_gate(CellKind::Buf, &[sel_bits[0]]),
            (true, false) => nl.add_gate(CellKind::Not, &[sel_bits[0]]),
            _ => unreachable!("constant cases handled above"),
        };
    }
    // split on the most significant selector bit
    let msb = sel_bits[sel_bits.len() - 1];
    let rest = &sel_bits[..sel_bits.len() - 1];
    let half = leaves.len() / 2;
    let lo = mux_tree(nl, rest, &leaves[..half]);
    let hi = mux_tree(nl, rest, &leaves[half..]);
    nl.add_gate(CellKind::Mux, &[msb, lo, hi])
}

/// Instantiates a combinational lookup of `table` indexed by the word
/// `index`, producing an `out_width`-bit result word.
///
/// # Panics
///
/// Panics if `table.len() != 2^index.width()`.
pub fn table_lookup(nl: &mut Netlist, index: &Word, table: &[u64], out_width: usize) -> Word {
    assert_eq!(
        table.len(),
        1usize << index.width(),
        "table size must be 2^index width"
    );
    let bits = (0..out_width)
        .map(|bit| {
            let leaves: Vec<bool> = table.iter().map(|&v| (v >> bit) & 1 == 1).collect();
            mux_tree(nl, index.bits(), &leaves)
        })
        .collect();
    Word::new(bits)
}

/// Adds the first-round S-box slice of one AES byte lane to `nl`:
/// inputs `pt\[8\]` and `key\[8\]`, result word `SBOX[pt ^ key]`.
fn first_round_slice(nl: &mut Netlist) -> Word {
    let pt = Word::input(nl, "pt", 8);
    let key = Word::input(nl, "key", 8);
    let x = pt.xor(nl, &key);
    let table: Vec<u64> = AES_SBOX.iter().map(|&v| v as u64).collect();
    table_lookup(nl, &x, &table, 8)
}

/// Generates the classical CPA target: the first-round S-box slice of
/// one AES byte lane (inputs `pt\[8\]` and `key\[8\]`) with a register
/// bank on its output `SBOX[pt ^ key]`: each output bit feeds a DFF
/// whose output is the primary output `s\[i\]`. The attack samples the
/// power of the register update (Hamming distance of the stored bytes).
pub fn sbox_first_round_registered() -> Netlist {
    let mut nl = Netlist::new("aes_round1_byte_reg");
    let s = first_round_slice(&mut nl);
    for (i, &bit) in s.bits().iter().enumerate() {
        let q = nl.add_gate(CellKind::Dff, &[bit]);
        nl.mark_output(q, format!("s[{i}]"));
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{bits_to_u64, u64_to_bits};

    /// The AES S-box as one table lookup: input `x[8]`, output
    /// `y[8] = SBOX[x]`.
    fn aes_sbox_lookup() -> Netlist {
        let mut nl = Netlist::new("aes_sbox");
        let x = Word::input(&mut nl, "x", 8);
        let table: Vec<u64> = AES_SBOX.iter().map(|&v| v as u64).collect();
        let y = table_lookup(&mut nl, &x, &table, 8);
        y.mark_output(&mut nl, "y");
        nl
    }

    #[test]
    fn registered_slice_pipelines_by_one_cycle() {
        let nl = sbox_first_round_registered();
        assert_eq!(nl.dffs().len(), 8);
        let mut inputs = u64_to_bits(0x12, 8);
        inputs.extend(u64_to_bits(0x34, 8));
        let state = vec![false; 8];
        let (out0, state1) = nl.step(&inputs, &state).expect("step");
        assert_eq!(bits_to_u64(&out0), 0); // register still holds reset
        let (out1, _) = nl.step(&inputs, &state1).expect("step");
        assert_eq!(bits_to_u64(&out1) as u8, AES_SBOX[0x12 ^ 0x34]);
    }

    #[test]
    fn mux_tree_matches_table() {
        let mut nl = Netlist::new("t");
        let sel = vec![nl.add_input("s0"), nl.add_input("s1"), nl.add_input("s2")];
        let leaves = [true, false, false, true, true, true, false, false];
        let y = mux_tree(&mut nl, &sel, &leaves);
        nl.mark_output(y, "y");
        for (i, &expect) in leaves.iter().enumerate() {
            assert_eq!(
                nl.evaluate(&u64_to_bits(i as u64, 3))[0],
                expect,
                "index {i}"
            );
        }
    }

    #[test]
    fn constant_tables_fold() {
        let mut nl = Netlist::new("t");
        let sel = vec![nl.add_input("s0"), nl.add_input("s1")];
        let y = mux_tree(&mut nl, &sel, &[true; 4]);
        nl.mark_output(y, "y");
        // a single const gate, no muxes
        assert_eq!(nl.num_gates(), 1);
        assert!(nl.evaluate(&[false, true])[0]);
    }

    #[test]
    fn sbox_netlist_matches_table() {
        let nl = aes_sbox_lookup();
        for x in [0usize, 1, 0x53, 0x7f, 0xca, 0xff] {
            let out = bits_to_u64(&nl.evaluate(&u64_to_bits(x as u64, 8)));
            assert_eq!(out as u8, AES_SBOX[x], "x = {x:#x}");
        }
    }

    #[test]
    fn sbox_netlist_exhaustive() {
        let nl = aes_sbox_lookup();
        for (x, &want) in AES_SBOX.iter().enumerate() {
            let out = bits_to_u64(&nl.evaluate(&u64_to_bits(x as u64, 8)));
            assert_eq!(out as u8, want);
        }
    }

    #[test]
    fn first_round_slice_matches_model() {
        let mut nl = Netlist::new("aes_round1_byte");
        let s = first_round_slice(&mut nl);
        s.mark_output(&mut nl, "s");
        for (pt, key) in [(0u8, 0u8), (0x12, 0x34), (0xff, 0xa5), (0x80, 0x01)] {
            let mut inputs = u64_to_bits(pt as u64, 8);
            inputs.extend(u64_to_bits(key as u64, 8));
            let out = bits_to_u64(&nl.evaluate(&inputs)) as u8;
            assert_eq!(out, AES_SBOX[(pt ^ key) as usize]);
        }
    }
}
