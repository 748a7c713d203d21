//! Differential fault analysis (DFA) on the toy SPN cipher.
//!
//! The adversary obtains pairs of (correct, faulty) ciphertexts for the
//! same plaintext, where the fault is a single-bit flip injected right
//! before the last S-box layer. Each pair constrains the last round key;
//! intersecting the candidate sets over a few pairs pins it down — this
//! is the attack that motivates the detection/infection countermeasures
//! of [`crate::codes`].

use seceda_cipher::{TOY_PERM, TOY_ROUNDS, TOY_SBOX};

/// Result of a DFA key recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfaResult {
    /// Master keys consistent with all provided pairs.
    pub candidates: Vec<u16>,
    /// Number of (correct, faulty) pairs consumed.
    pub pairs_used: usize,
}

fn inv_sbox() -> [u8; 16] {
    let mut inv = [0u8; 16];
    for (i, &v) in TOY_SBOX.iter().enumerate() {
        inv[v as usize] = i as u8;
    }
    inv
}

fn inv_permute(x: u16) -> u16 {
    // TOY_PERM maps output bit i <- input bit TOY_PERM[i]; invert it
    let mut y = 0u16;
    for (i, &src) in TOY_PERM.iter().enumerate() {
        y |= ((x >> i) & 1) << src;
    }
    y
}

fn inv_sub(x: u16, inv: &[u8; 16]) -> u16 {
    let mut y = 0u16;
    for n in 0..4 {
        let nib = (x >> (4 * n)) & 0xF;
        y |= (inv[nib as usize] as u16) << (4 * n);
    }
    y
}

/// Runs DFA: each pair is `(correct_ct, faulty_ct)` where the faulty run
/// had a single-bit flip injected before the last round's S-box layer.
/// Returns all master keys consistent with every pair.
///
/// The attack inverts the last round under each last-round-key candidate
/// and keeps those for which the pair's difference collapses to a single
/// bit at the fault location — the classical DFA filtering step. With
/// the toy cipher's rotational key schedule, the master key follows
/// directly from the last round key.
pub fn dfa_attack(pairs: &[(u16, u16)]) -> DfaResult {
    let inv = inv_sbox();
    let mut candidates: Vec<u16> = Vec::new();
    for k_last in 0..=u16::MAX {
        let consistent = pairs.iter().all(|&(ct, ct_f)| {
            // undo final whitening and the last round's P-layer + S-box
            let s_good = inv_sub(inv_permute(ct ^ k_last), &inv);
            let s_bad = inv_sub(inv_permute(ct_f ^ k_last), &inv);
            let delta = s_good ^ s_bad;
            delta.count_ones() == 1
        });
        if consistent {
            // master key = last round key rotated back
            candidates.push(k_last.rotate_right(TOY_ROUNDS as u32));
        }
        if k_last == u16::MAX {
            break;
        }
    }
    DfaResult {
        candidates,
        pairs_used: pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_cipher::ToyCipher;

    /// Collects one DFA pair per plaintext from a cipher instance by
    /// injecting a single-bit fault before the last S-box layer.
    fn collect_pairs(cipher: &ToyCipher, plaintexts: &[u16]) -> Vec<(u16, u16)> {
        plaintexts
            .iter()
            .enumerate()
            .map(|(i, &pt)| {
                let good = cipher.encrypt(pt);
                let bad = cipher.encrypt_with_fault(pt, TOY_ROUNDS - 1, i % 16);
                (good, bad)
            })
            .collect()
    }

    #[test]
    fn inverse_helpers_roundtrip() {
        let inv = inv_sbox();
        for x in 0..16u8 {
            assert_eq!(inv[TOY_SBOX[x as usize] as usize], x);
        }
        for v in [0u16, 0xFFFF, 0xA5C3, 0x0001, 0x8000] {
            let p = {
                let mut y = 0u16;
                for (i, &src) in TOY_PERM.iter().enumerate() {
                    y |= ((v >> src) & 1) << i;
                }
                y
            };
            assert_eq!(inv_permute(p), v);
        }
    }

    #[test]
    fn dfa_recovers_the_key() {
        // fault positions must cover every nibble: a fault in nibble n
        // only constrains the key bits feeding that nibble
        let key = 0xC0DE;
        let cipher = ToyCipher::new(key);
        let pts: Vec<u16> = (0..16)
            .map(|i| 0x1111u16.wrapping_mul(i + 3) ^ (i << 7))
            .collect();
        let pairs = collect_pairs(&cipher, &pts);
        let result = dfa_attack(&pairs);
        assert!(
            result.candidates.contains(&key),
            "true key must survive: {:04x?}",
            result.candidates
        );
        assert!(
            result.candidates.len() <= 2,
            "faults covering all nibbles should pin the key down: {} left",
            result.candidates.len()
        );
    }

    #[test]
    fn partial_fault_coverage_leaves_unconstrained_nibbles() {
        // faults only in nibble 0 (bits 0..4) leave the other key nibbles
        // free: at least 2^12 candidates survive
        let key = 0x1337;
        let cipher = ToyCipher::new(key);
        let pairs: Vec<(u16, u16)> = (0..6u16)
            .map(|i| {
                let pt = 0x0505u16.wrapping_mul(i + 1);
                (
                    cipher.encrypt(pt),
                    cipher.encrypt_with_fault(pt, TOY_ROUNDS - 1, (i % 4) as usize),
                )
            })
            .collect();
        let result = dfa_attack(&pairs);
        assert!(result.candidates.contains(&key));
        assert!(
            result.candidates.len() >= (1 << 12),
            "unfaulted nibbles stay free: {} candidates",
            result.candidates.len()
        );
    }

    #[test]
    fn single_pair_leaves_many_candidates() {
        let cipher = ToyCipher::new(0xBEEF);
        let pairs = collect_pairs(&cipher, &[0x1234]);
        let one = dfa_attack(&pairs);
        let pairs4 = collect_pairs(&cipher, &[0x1234, 0x9876, 0x0F0F, 0x3C3C]);
        let four = dfa_attack(&pairs4);
        assert!(
            one.candidates.len() > four.candidates.len(),
            "more pairs must shrink the candidate set ({} vs {})",
            one.candidates.len(),
            four.candidates.len()
        );
        assert!(four.candidates.contains(&0xBEEF));
    }

    #[test]
    fn infection_breaks_dfa() {
        // with the infective countermeasure the faulty "ciphertext" is
        // scrambled; the filtering condition then rejects the true key
        // as often as any other, leaving a candidate set that does not
        // single out the key
        let key = 0x5EED;
        let cipher = ToyCipher::new(key);
        let pts: Vec<u16> = (0..8).map(|i| 0x2222u16.wrapping_mul(i + 1)).collect();
        let pairs: Vec<(u16, u16)> = pts
            .iter()
            .enumerate()
            .map(|(i, &pt)| {
                let good = cipher.encrypt(pt);
                // infected output: pseudo-random junk instead of the
                // faulty ciphertext
                let junk = good.rotate_left((i % 7) as u32 + 1).wrapping_mul(0x9E37) ^ 0xA5A5;
                (good, junk)
            })
            .collect();
        let result = dfa_attack(&pairs);
        assert!(
            result.candidates.len() != 1 || result.candidates[0] != key,
            "infection must deny the adversary a unique correct key"
        );
    }
}
