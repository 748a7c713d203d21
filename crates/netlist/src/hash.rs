//! The whole-design digest: one linear pass over a netlist's layout.
//!
//! [`DesignDigest::of`] absorbs the dense gate array — every gate's
//! kind, tags, output net index and input net indices in pin order,
//! packed into as few 64-bit words as stay decodable — followed by the
//! primary-input and primary-output interface. That is
//! exactly what the index-driven evaluators downstream see (fault-shot
//! selection picks gates by index, random stimuli are drawn per input
//! position), so two designs share a digest only when those evaluators
//! behave bit-identically on both. Net names are not absorbed.
//!
//! The pass needs no topological order and allocates nothing, so it is
//! O(gates + pins) on 10^5–10^6-gate designs and accepts any netlist,
//! including sequential loops. [`DigestBuilder`] is the streaming
//! accumulator behind it, reused by `seceda-core` to derive its
//! evaluation-cache keys.

use crate::cell::GateTags;
use crate::netlist::Netlist;
use std::fmt;

/// SplitMix64, the digest's bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 128-bit whole-design digest (see [`DesignDigest::of`]).
///
/// Equal digests are the cache-key contract of the incremental
/// composition engine: two design states with equal digests have the
/// same dense gate layout, tags and interface, so every deterministic
/// evaluator produces bit-identical results on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignDigest(pub [u64; 2]);

impl DesignDigest {
    /// Digests a whole design in one pass over its gate array and
    /// interface.
    ///
    /// Each gate absorbs one header word — kind (bits 0–7), tags
    /// (8–15), input count (16–31) and output net index (32–63) — then
    /// its input net indices two to a word (`a | b << 32`), the last
    /// one alone when the count is odd. A gate with 2^16 − 1 inputs or
    /// more saturates the count field and absorbs its exact count in
    /// one extra word after the header. Net indices are 32-bit, so the
    /// word sequence decodes back to the gate array: the encoding is
    /// injective.
    pub fn of(nl: &Netlist) -> Self {
        let _t = seceda_trace::hist_timer("ir.hash_ns");
        let mut d = DigestBuilder::new();
        d.absorb(nl.num_nets() as u64);
        d.absorb(nl.num_gates() as u64);
        for g in nl.gates() {
            let n = g.inputs.len();
            let count = n.min(WIDE_GATE) as u64;
            d.absorb(
                g.kind as u64
                    | tag_bits(g.tags) << 8
                    | count << 16
                    | (g.output.index() as u64) << 32,
            );
            if n >= WIDE_GATE {
                d.absorb(n as u64);
            }
            let mut pairs = g.inputs.chunks_exact(2);
            for pair in &mut pairs {
                d.absorb(pair[0].index() as u64 | (pair[1].index() as u64) << 32);
            }
            if let [last] = pairs.remainder() {
                d.absorb(last.index() as u64);
            }
        }
        d.absorb(nl.inputs().len() as u64);
        for &pi in nl.inputs() {
            d.absorb(pi.index() as u64);
        }
        d.absorb(nl.outputs().len() as u64);
        for &(po, _) in nl.outputs() {
            d.absorb(po.index() as u64);
        }
        d.finish()
    }
}

impl fmt::Display for DesignDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Streaming 128-bit digest accumulator.
///
/// Absorption is order-sensitive, so the position of every absorbed
/// word is bound into the result without explicit index mixing. The two
/// lanes mix independently (SplitMix64 chaining and an FNV-style
/// multiply-accumulate), so a collision must defeat both at once.
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    lo: u64,
    hi: u64,
}

impl DigestBuilder {
    /// A fresh accumulator.
    pub fn new() -> Self {
        DigestBuilder {
            lo: 0x5ECE_DA00_0000_0001,
            hi: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Absorbs one word.
    pub fn absorb(&mut self, x: u64) {
        self.lo = mix64(self.lo ^ x);
        self.hi = self
            .hi
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(mix64(x ^ 0x9E37_79B9_7F4A_7C15));
    }

    /// Absorbs both lanes of a finished digest.
    pub fn absorb_digest(&mut self, d: DesignDigest) {
        self.absorb(d.0[0]);
        self.absorb(d.0[1]);
    }

    /// Finalizes with cross-lane avalanche.
    pub fn finish(&self) -> DesignDigest {
        DesignDigest([mix64(self.lo ^ self.hi), mix64(self.hi ^ mix64(self.lo))])
    }
}

impl Default for DigestBuilder {
    fn default() -> Self {
        DigestBuilder::new()
    }
}

/// The input-count field of a gate's header word saturates here; a
/// gate with this many inputs or more absorbs its exact count in an
/// extra word after the header.
const WIDE_GATE: usize = 0xFFFF;

fn tag_bits(tags: GateTags) -> u64 {
    u64::from(tags.no_reassoc)
        | u64::from(tags.key_gate) << 1
        | u64::from(tags.monitor) << 2
        | u64::from(tags.tainted) << 3
        | u64::from(tags.redundancy) << 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::id::NetId;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("ha");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_gate(CellKind::Xor, &[a, b]);
        let c = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(s, "s");
        nl.mark_output(c, "c");
        nl
    }

    /// A one-gate design `kind(pins...)` over three inputs `s`, `a`, `b`,
    /// with `order` choosing which inputs feed the pins.
    fn one_gate(kind: CellKind, order: &[usize], tags: GateTags) -> Netlist {
        let mut nl = Netlist::new("t");
        let pis = [nl.add_input("s"), nl.add_input("a"), nl.add_input("b")];
        let pins: Vec<_> = order.iter().map(|&k| pis[k]).collect();
        let y = nl.add_gate_tagged(kind, &pins, tags);
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn identical_builds_share_every_fingerprint() {
        assert_eq!(
            DesignDigest::of(&half_adder()),
            DesignDigest::of(&half_adder())
        );
    }

    #[test]
    fn internal_net_names_do_not_affect_the_digest() {
        let mut named = half_adder();
        let int = named.gates()[0].output;
        named.set_net_name(int, "sum_wire");
        assert_eq!(DesignDigest::of(&named), DesignDigest::of(&half_adder()));
    }

    #[test]
    fn operand_order_is_significant() {
        // the index-driven evaluators see different input lists, so
        // even a symmetric kind's operand order moves the digest
        let plain = GateTags::default();
        assert_ne!(
            DesignDigest::of(&one_gate(CellKind::And, &[1, 2], plain)),
            DesignDigest::of(&one_gate(CellKind::And, &[2, 1], plain))
        );
    }

    #[test]
    fn mux_pin_order_is_significant() {
        // three pins pack as one pair plus a lone word: every
        // permutation must still move the digest
        let plain = GateTags::default();
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let digests: Vec<_> = perms
            .iter()
            .map(|order| DesignDigest::of(&one_gate(CellKind::Mux, order, plain)))
            .collect();
        for (i, d) in digests.iter().enumerate() {
            for (j, e) in digests.iter().enumerate().skip(i + 1) {
                assert_ne!(d, e, "{:?} vs {:?}", perms[i], perms[j]);
            }
        }
    }

    #[test]
    fn odd_and_even_input_counts_stay_distinct() {
        // an odd gate's lone last word `c` equals the pair `c | n0 << 32`
        // of the same gate with net 0 appended; only the count differs
        let plain = GateTags::default();
        assert_ne!(
            DesignDigest::of(&one_gate(CellKind::And, &[1, 2, 0], plain)),
            DesignDigest::of(&one_gate(CellKind::And, &[1, 2, 0, 0], plain))
        );
        assert_ne!(
            DesignDigest::of(&one_gate(CellKind::Xor, &[1, 0], plain)),
            DesignDigest::of(&one_gate(CellKind::Xor, &[1, 0, 0], plain))
        );
    }

    #[test]
    fn a_pair_that_spells_a_header_is_not_read_as_one() {
        // Without the count field these two designs absorb the same
        // words: A's second pair `n4 | n7 << 32` is B's second header
        // (And = 4, output n7), and A's second header (Not = 3, output
        // n7) is B's pair `n3 | n7 << 32`.
        let build = |gates: [(CellKind, &[usize]); 2]| {
            let mut nl = Netlist::new("t");
            let pis: Vec<NetId> = (0..6).map(|i| nl.add_input(format!("i{i}"))).collect();
            let outs = [nl.add_net(), nl.add_net()];
            let net = |i: usize| if i < 6 { pis[i] } else { outs[i - 6] };
            for ((kind, pins), out) in gates.into_iter().zip(outs) {
                let pins: Vec<NetId> = pins.iter().map(|&i| net(i)).collect();
                nl.try_add_gate_driving(kind, &pins, out, GateTags::default())
                    .expect("gate");
            }
            nl.mark_output(outs[0], "y");
            assert_eq!(outs.map(NetId::index), [6, 7]);
            assert_eq!(CellKind::Not as u64, 3);
            assert_eq!(CellKind::And as u64, 4);
            nl
        };
        let a = build([(CellKind::And, &[0, 1, 4, 7]), (CellKind::Not, &[5])]);
        let b = build([(CellKind::And, &[0, 1]), (CellKind::And, &[3, 7, 5])]);
        assert_ne!(DesignDigest::of(&a), DesignDigest::of(&b));
    }

    #[test]
    fn gates_wider_than_the_count_field_absorb_their_exact_count() {
        // both gates saturate the 16-bit count field, and the wider one
        // only appends net 0, which packs into the narrower one's lone
        // last word: the extra count word alone tells them apart
        let wide = |extra_zero: bool| {
            let mut nl = Netlist::new("wide");
            let nets: Vec<NetId> = (0..=WIDE_GATE + 2).map(|_| nl.add_net()).collect();
            let mut pins = nets[1..].to_vec();
            assert!(pins.len() > WIDE_GATE && pins.len() % 2 == 1);
            if extra_zero {
                pins.push(nets[0]);
            }
            let y = nl.add_gate(CellKind::And, &pins);
            nl.mark_output(y, "y");
            DesignDigest::of(&nl)
        };
        assert_ne!(wide(false), wide(true));
    }

    #[test]
    fn tags_distinguish_otherwise_equal_gates() {
        let plain = DesignDigest::of(&one_gate(CellKind::Not, &[1], GateTags::default()));
        let tagged = |set: fn(&mut GateTags)| {
            let mut tags = GateTags::default();
            set(&mut tags);
            DesignDigest::of(&one_gate(CellKind::Not, &[1], tags))
        };
        let variants = [
            tagged(|t| t.no_reassoc = true),
            tagged(|t| t.key_gate = true),
            tagged(|t| t.monitor = true),
            tagged(|t| t.tainted = true),
            tagged(|t| t.redundancy = true),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, plain, "tag {i} must move the digest");
            for w in &variants[i + 1..] {
                assert_ne!(v, w);
            }
        }
    }

    #[test]
    fn sequential_designs_hash_without_traversing_state_loops() {
        // 1-bit toggle counter with a combinational feedback through a DFF
        let mut nl = Netlist::new("toggle");
        let one = nl.add_gate(CellKind::Const1, &[]);
        let q_net = nl.add_net();
        let next = nl.add_gate(CellKind::Xor, &[q_net, one]);
        let q = nl.add_gate(CellKind::Dff, &[next]);
        let gid = nl.net(next).driver.expect("driver");
        nl.gate_mut(gid).inputs[0] = q;
        nl.mark_output(q, "q");
        assert_eq!(DesignDigest::of(&nl), DesignDigest::of(&nl.clone()));
    }

    #[test]
    fn digest_display_is_32_hex_chars() {
        let s = DesignDigest::of(&half_adder()).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
