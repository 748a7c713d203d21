//! Topological watermarking for design-IP ownership claims.
//!
//! A keyed PRG selects insertion points; at each point a signature bit is
//! embedded as a functionally transparent double-inverter (bit 1) or
//! double-buffer (bit 0) pair. Verification re-derives the positions from
//! the owner's secret and reads the pattern back.
//!
//! The scheme doubles as a composition case study: classical synthesis
//! legitimately removes buffer/inverter pairs, destroying the mark, while
//! tag-honoring synthesis (the watermark gates carry the `monitor` tag)
//! preserves it — optimization versus security again.

use seceda_netlist::{CellKind, GateTags, NetId, Netlist};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// An embedded watermark: the owner's secret plus the claimed signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watermark {
    /// Owner secret (selects insertion points).
    pub secret: u64,
    /// The embedded signature bits.
    pub signature: Vec<bool>,
}

fn mark_tags() -> GateTags {
    GateTags {
        monitor: true,
        ..GateTags::default()
    }
}

/// Embeds `signature` into `nl`; returns the watermarked netlist.
///
/// # Panics
///
/// Panics if the netlist has no gates or the signature is empty.
pub fn embed_watermark(nl: &Netlist, secret: u64, signature: &[bool]) -> Netlist {
    assert!(nl.num_gates() > 0, "cannot watermark an empty netlist");
    assert!(!signature.is_empty(), "empty signature");
    assert!(
        signature.len() <= nl.num_gates(),
        "signature longer than the number of candidate nets"
    );
    let mut marked = nl.clone();
    let candidates: Vec<NetId> = nl.gates().iter().map(|g| g.output).collect();
    let targets = select_targets(&candidates, secret, signature.len());
    let mut moves = Vec::with_capacity(targets.len());
    for (&bit, target) in signature.iter().zip(targets) {
        let kind = if bit { CellKind::Not } else { CellKind::Buf };
        // two stages restore polarity; the second takes over the loads
        let stage1 = marked.add_gate_tagged(kind, &[target], mark_tags());
        let stage2 = marked.add_gate_tagged(kind, &[stage1], mark_tags());
        moves.push((target, stage2));
    }
    // targets are distinct original nets, so one pass rewires them all
    marked.redirect(&moves, nl.num_gates());
    marked
}

/// Keyed sampling without replacement: a Fisher-Yates prefix shuffle
/// seeded by the owner secret.
fn select_targets(candidates: &[NetId], secret: u64, count: usize) -> Vec<NetId> {
    let mut rng = StdRng::seed_from_u64(secret);
    let mut pool = candidates.to_vec();
    for i in 0..pool.len().saturating_sub(1) {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// Verifies the watermark: re-derives the insertion points from `secret`
/// and checks that each point carries the expected transparent pair.
/// Returns the number of signature bits recovered intact.
///
/// Verification is structural: it looks for a pair of same-kind
/// `Buf`/`Not` gates in a chain hanging off the expected net.
pub fn verify_watermark(nl: &Netlist, watermark: &Watermark) -> usize {
    // Collect, for every net, a chain signature: driver kind + its single
    // input's driver kind (the two inserted stages appear as two chained
    // unary gates somewhere in the fanout of the original target).
    let mut recovered = 0usize;
    // reconstruct the original candidate list length: watermark gates
    // were appended after the original gates, two per bit
    let inserted = 2 * watermark.signature.len();
    if nl.num_gates() < inserted {
        return 0;
    }
    let original_gates = nl.num_gates() - inserted;
    let candidates: Vec<NetId> = nl.gates()[..original_gates]
        .iter()
        .map(|g| g.output)
        .collect();
    if candidates.is_empty() || watermark.signature.len() > candidates.len() {
        return 0;
    }
    let targets = select_targets(&candidates, watermark.secret, watermark.signature.len());
    let mut cursor = original_gates;
    for (&bit, expected_target) in watermark.signature.iter().zip(targets) {
        let kind = if bit { CellKind::Not } else { CellKind::Buf };
        // the two inserted gates for this bit sit at `cursor`, `cursor+1`
        if cursor + 1 < nl.num_gates() {
            let g1 = &nl.gates()[cursor];
            let g2 = &nl.gates()[cursor + 1];
            if g1.kind == kind
                && g2.kind == kind
                && g1.inputs[..] == [expected_target]
                && g2.inputs[..] == [g1.output]
            {
                recovered += 1;
            }
        }
        cursor += 2;
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::c17;

    #[test]
    fn watermark_is_functionally_transparent() {
        let nl = c17();
        let marked = embed_watermark(&nl, 0xB0B, &[true, false, true, true]);
        assert_eq!(nl.truth_table(), marked.truth_table());
    }

    #[test]
    fn owner_verifies_full_signature() {
        let nl = c17();
        let wm = Watermark {
            secret: 0xB0B,
            signature: vec![true, false, true, true],
        };
        let marked = embed_watermark(&nl, wm.secret, &wm.signature);
        assert_eq!(verify_watermark(&marked, &wm), 4);
    }

    #[test]
    fn wrong_secret_recovers_little() {
        let nl = c17();
        let wm = Watermark {
            secret: 0xB0B,
            signature: vec![true, false, true, true, false, true],
        };
        let marked = embed_watermark(&nl, wm.secret, &wm.signature);
        let forged = Watermark {
            secret: 0xBAD,
            ..wm.clone()
        };
        assert!(verify_watermark(&marked, &forged) < wm.signature.len());
    }

    #[test]
    fn unmarked_design_fails_verification() {
        let nl = c17();
        let wm = Watermark {
            secret: 0xB0B,
            signature: vec![true, false],
        };
        assert_eq!(verify_watermark(&nl, &wm), 0);
    }
}
