//! The scan-based key-recovery attack \[39\] and secure scan.
//!
//! Victim: an AES first-round byte slice with the key *embedded* as
//! constants and the S-box output registered. In mission mode the key is
//! unobservable; with scan access the attacker applies a chosen
//! plaintext, captures one round, dumps the register through the scan
//! chain, and inverts `key = pt ^ SBOX⁻¹(dump)`.
//!
//! Secure scan scrambles the scan-out stream with a keyed LFSR: the test
//! engineer (who knows the test key) descrambles; the attacker reads
//! noise.

use crate::bist::Lfsr;
use crate::scan::{insert_scan_chain, ScanChain};
use seceda_cipher::{table_lookup, AES_SBOX};
use seceda_netlist::{bits_to_u64, u64_to_bits, CellKind, Netlist, Word};

/// Builds the attack victim: `pt\[8\]` input, embedded constant `key`,
/// registered S-box output, scan chain inserted.
pub fn scan_victim(key: u8) -> ScanChain {
    let mut nl = Netlist::new("scan_victim");
    let pt = Word::input(&mut nl, "pt", 8);
    let key_word = Word::constant(&mut nl, key as u64, 8);
    let x = pt.xor(&mut nl, &key_word);
    let table: Vec<u64> = AES_SBOX.iter().map(|&v| v as u64).collect();
    let s = table_lookup(&mut nl, &x, &table, 8);
    for (i, &bit) in s.bits().iter().enumerate() {
        let q = nl.add_gate(CellKind::Dff, &[bit]);
        nl.mark_output(q, format!("s[{i}]"));
    }
    insert_scan_chain(&nl)
}

fn inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    for (i, &v) in AES_SBOX.iter().enumerate() {
        inv[v as usize] = i as u8;
    }
    inv
}

/// Runs the scan attack: one chosen plaintext, one capture, one dump.
/// Returns the recovered key byte.
pub fn scan_attack_recover_key(victim: &ScanChain, chosen_pt: u8) -> u8 {
    let inputs = u64_to_bits(chosen_pt as u64, 8);
    // capture the round: registers now hold SBOX[pt ^ key]
    let (_, state) = victim.capture(&vec![false; victim.len()], &inputs);
    // dump via scan (first-out bit = last flop = MSB of the byte)
    let dump = victim.shift_out(&state, &inputs);
    let ordered: Vec<bool> = dump.into_iter().rev().collect();
    let sbox_out = bits_to_u64(&ordered) as u8;
    chosen_pt ^ inv_sbox()[sbox_out as usize]
}

/// A scan design hardened with keyed scan-out scrambling.
#[derive(Debug, Clone)]
pub struct SecuredScanDesign {
    /// The underlying scan design (unchanged netlist).
    pub scan: ScanChain,
    /// The secret test key seeding the scrambler.
    test_key: u16,
}

impl SecuredScanDesign {
    /// Dumps the chain as an *attacker* (no key): scan-out bits arrive
    /// XOR-scrambled with the keyed stream.
    pub fn dump_scrambled(&self, state: &[bool], held_inputs: &[bool]) -> Vec<bool> {
        let raw = self.scan.shift_out(state, held_inputs);
        let mut lfsr = Lfsr::new(self.test_key.into(), 16);
        raw.into_iter().map(|b| b ^ lfsr.next_bit()).collect()
    }

    /// Forwards a functional capture.
    pub fn capture(&self, state: &[bool], inputs: &[bool]) -> (Vec<bool>, Vec<bool>) {
        self.scan.capture(state, inputs)
    }
}

/// Wraps a scan design with keyed scan-out scrambling.
pub fn secure_scan_wrap(scan: ScanChain, test_key: u16) -> SecuredScanDesign {
    SecuredScanDesign { scan, test_key }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The authorized tester's view of a scrambled dump: XOR with the
    /// keyed stream again.
    fn descramble(scrambled: &[bool], key: u16) -> Vec<bool> {
        let mut lfsr = Lfsr::new(key.into(), 16);
        scrambled.iter().map(|&b| b ^ lfsr.next_bit()).collect()
    }

    #[test]
    fn plain_scan_leaks_the_key() {
        for key in [0x00u8, 0x5A, 0xFF, 0x3C] {
            let victim = scan_victim(key);
            let recovered = scan_attack_recover_key(&victim, 0xA7);
            assert_eq!(recovered, key, "scan attack must recover {key:#x}");
        }
    }

    #[test]
    fn attack_works_for_any_chosen_plaintext() {
        let victim = scan_victim(0x42);
        for pt in [0x00u8, 0x01, 0x80, 0xFF] {
            assert_eq!(scan_attack_recover_key(&victim, pt), 0x42);
        }
    }

    #[test]
    fn secure_scan_defeats_the_attack_but_serves_the_tester() {
        let key = 0x42u8;
        let secured = secure_scan_wrap(scan_victim(key), 0xBEEF);
        let chosen_pt = 0xA7u8;
        let inputs = u64_to_bits(chosen_pt as u64, 8);
        let (_, state) = secured.capture(&[false; 8], &inputs);

        // attacker path: scrambled dump inverts to the wrong key
        let scrambled = secured.dump_scrambled(&state, &inputs);
        let ordered: Vec<bool> = scrambled.iter().rev().copied().collect();
        let guess = chosen_pt ^ inv_sbox()[bits_to_u64(&ordered) as usize];
        assert_ne!(guess, key, "scrambling must break the inversion");

        // tester path: correct key descrambles to the true register value
        let clear = descramble(&scrambled, 0xBEEF);
        let ordered: Vec<bool> = clear.iter().rev().copied().collect();
        let sbox_out = bits_to_u64(&ordered) as u8;
        assert_eq!(sbox_out, AES_SBOX[(chosen_pt ^ key) as usize]);

        // wrong test key descrambles to junk
        let junk = descramble(&scrambled, 0x1111);
        assert_ne!(junk, clear);
    }
}
