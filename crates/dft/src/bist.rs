//! Logic built-in self test: LFSR stimulus, MISR compaction.

use seceda_netlist::{Netlist, NetlistError};
use seceda_sim::{pack_patterns, Fault, FaultSim};

/// A Fibonacci LFSR over up to 64 bits with a fixed maximal-ish tap set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u64,
    width: u32,
    taps: u64,
}

impl Lfsr {
    /// Creates an LFSR of `width` bits seeded with `seed` (a zero seed
    /// is replaced by 1, which a real LFSR cannot leave either).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 64.
    pub fn new(seed: u64, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        let taps = match width {
            16 => 0x2D,                  // x^16 + x^14 + x^13 + x^11 + 1, period 65535
            8 => 0x1D,                   // x^8 + x^6 + x^5 + x^4 + 1, period 255
            _ => (1 << (width - 1)) | 1, // fallback (period not maximal)
        };
        let state = seed & mask;
        Lfsr {
            state: if state == 0 { 1 } else { state },
            width,
            taps: taps & mask,
        }
    }

    /// Advances one step and returns the output bit.
    pub fn next_bit(&mut self) -> bool {
        let fb = (self.state & self.taps).count_ones() & 1;
        let out = self.state & 1 == 1;
        self.state = (self.state >> 1) | ((fb as u64) << (self.width - 1));
        out
    }

    /// Produces a pattern of `n` bits.
    pub fn pattern(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

/// A multiple-input signature register: compacts response vectors into a
/// rolling signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    state: u64,
    width: u32,
    taps: u64,
}

impl Misr {
    /// Creates a MISR of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 64.
    pub fn new(width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        Misr {
            state: 0,
            width,
            taps: (0xB400_0000_0000_0000u64 >> (64 - width)) & mask | 1,
        }
    }

    /// Absorbs one response vector (LSB-first bits).
    pub fn absorb(&mut self, response: &[bool]) {
        let mut word = 0u64;
        for (i, &b) in response.iter().enumerate() {
            if b {
                word ^= 1 << (i as u32 % self.width);
            }
        }
        let fb = (self.state & self.taps).count_ones() & 1;
        self.state = ((self.state >> 1) | ((fb as u64) << (self.width - 1))) ^ word;
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.state
    }
}

/// BIST parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistConfig {
    /// Number of LFSR patterns to apply.
    pub patterns: usize,
    /// LFSR seed.
    pub seed: u64,
    /// MISR width.
    pub misr_width: u32,
}

impl Default for BistConfig {
    fn default() -> Self {
        BistConfig {
            patterns: 256,
            seed: 0xACE1,
            misr_width: 32,
        }
    }
}

/// Result of one BIST session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistResult {
    /// The compacted signature.
    pub signature: u64,
    /// Number of patterns applied.
    pub patterns: usize,
}

/// Runs BIST on a combinational netlist with optional injected faults
/// (empty slice = golden run).
///
/// LFSR patterns are applied in 64-pattern packed batches (the faulty
/// responses of all 64 come from one bit-parallel pass), then unpacked
/// and absorbed by the MISR in LFSR order — the signature is
/// bit-identical to a run that simulates one pattern at a time.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_bist(
    nl: &Netlist,
    config: &BistConfig,
    faults: &[Fault],
) -> Result<BistResult, NetlistError> {
    let sim = FaultSim::new(nl)?;
    let mut lfsr = Lfsr::new(config.seed, 16);
    let mut misr = Misr::new(config.misr_width);
    let n = nl.inputs().len();
    let num_outputs = nl.outputs().len();
    let mut response = vec![false; num_outputs];
    let sites: Vec<(Fault, u64)> = faults.iter().map(|&f| (f, u64::MAX)).collect();
    let mut remaining = config.patterns;
    while remaining > 0 {
        let batch = remaining.min(64);
        let patterns: Vec<Vec<bool>> = (0..batch).map(|_| lfsr.pattern(n)).collect();
        let words = pack_patterns(&patterns, n);
        let outs = sim.eval_outputs_with_faults(&words, &sites);
        for p in 0..batch {
            for (o, &word) in outs.iter().enumerate() {
                response[o] = (word >> p) & 1 == 1;
            }
            misr.absorb(&response);
        }
        remaining -= batch;
    }
    Ok(BistResult {
        signature: misr.signature(),
        patterns: config.patterns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::c17;
    use seceda_sim::fault::stuck_at_universe;

    #[test]
    fn lfsr_16_has_long_period() {
        let mut lfsr = Lfsr::new(1, 16);
        let mut seen = std::collections::HashSet::new();
        let mut steps = 0u32;
        loop {
            lfsr.next_bit();
            if !seen.insert(lfsr.state) {
                break;
            }
            steps += 1;
            assert!(steps <= 70_000, "period check runaway");
        }
        assert!(steps > 60_000, "16-bit LFSR period too short: {steps}");
    }

    #[test]
    fn golden_signature_is_reproducible() {
        let nl = c17();
        let a = run_bist(&nl, &BistConfig::default(), &[]).expect("bist");
        let b = run_bist(&nl, &BistConfig::default(), &[]).expect("bist");
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn faults_change_the_signature() {
        let nl = c17();
        let config = BistConfig::default();
        let golden = run_bist(&nl, &config, &[]).expect("bist");
        let mut detected = 0usize;
        let faults = stuck_at_universe(&nl);
        for &f in &faults {
            let faulty = run_bist(&nl, &config, &[f]).expect("bist");
            if faulty.signature != golden.signature {
                detected += 1;
            }
        }
        // 256 pseudo-random patterns detect (nearly) every c17 fault
        assert!(
            detected as f64 >= 0.95 * faults.len() as f64,
            "BIST detected only {detected}/{}",
            faults.len()
        );
    }

    #[test]
    fn packed_bist_signature_matches_scalar_per_pattern_run() {
        let nl = c17();
        let config = BistConfig {
            patterns: 100, // deliberately not a multiple of 64
            ..BistConfig::default()
        };
        let faults = stuck_at_universe(&nl);
        let sim = FaultSim::new(&nl).expect("sim");
        for fault_list in [&[][..], &faults[..2]] {
            let packed_sig = run_bist(&nl, &config, fault_list).expect("bist").signature;
            let sites: Vec<(Fault, u64)> = fault_list.iter().map(|&f| (f, u64::MAX)).collect();
            let mut lfsr = Lfsr::new(config.seed, 16);
            let mut misr = Misr::new(config.misr_width);
            for _ in 0..config.patterns {
                // one pattern per pass, in bit 0
                let words: Vec<u64> = lfsr
                    .pattern(nl.inputs().len())
                    .into_iter()
                    .map(u64::from)
                    .collect();
                let outs = sim.eval_outputs_with_faults(&words, &sites);
                let response: Vec<bool> = outs.iter().map(|w| w & 1 == 1).collect();
                misr.absorb(&response);
            }
            assert_eq!(packed_sig, misr.signature());
        }
    }

    #[test]
    fn misr_distinguishes_response_order() {
        let mut a = Misr::new(32);
        a.absorb(&[true, false]);
        a.absorb(&[false, true]);
        let mut b = Misr::new(32);
        b.absorb(&[false, true]);
        b.absorb(&[true, false]);
        assert_ne!(a.signature(), b.signature());
    }
}
