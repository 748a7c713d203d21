//! Combinational logic-locking transforms.

use seceda_netlist::{CellKind, GateTags, NetId, Netlist, Word};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// A locked netlist together with its secret.
///
/// The locked netlist's primary inputs are the original inputs followed
/// by the key inputs (`key0, key1, ...`).
#[derive(Debug, Clone, PartialEq)]
pub struct LockedNetlist {
    /// The locked design.
    pub netlist: Netlist,
    /// The correct key (one bool per key input, in key-input order).
    pub correct_key: Vec<bool>,
    /// Number of original (non-key) inputs.
    pub num_original_inputs: usize,
}

impl LockedNetlist {
    /// Number of key bits.
    pub fn key_width(&self) -> usize {
        self.correct_key.len()
    }

    /// Concatenates functional inputs with a key into a full input
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn inputs_with_key(&self, inputs: &[bool], key: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_original_inputs, "input width");
        assert_eq!(key.len(), self.correct_key.len(), "key width");
        let mut v = inputs.to_vec();
        v.extend_from_slice(key);
        v
    }

    /// Evaluates the locked design under a given key.
    pub fn evaluate_with_key(&self, inputs: &[bool], key: &[bool]) -> Vec<bool> {
        self.netlist.evaluate(&self.inputs_with_key(inputs, key))
    }
}

/// Net indices reachable from `start` by following gate fanout.
fn transitive_fanout(nl: &Netlist, start: NetId) -> std::collections::HashSet<usize> {
    let fanout = nl.fanout();
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        for &g in fanout.loads(n) {
            let out = nl.gate(g).output;
            if seen.insert(out.index()) {
                stack.push(out);
            }
        }
    }
    seen
}

fn key_tags() -> GateTags {
    GateTags {
        key_gate: true,
        ..GateTags::default()
    }
}

/// EPIC-style XOR/XNOR locking \[24\]: inserts `key_bits` key gates at
/// pseudo-random internal nets. Each key gate is an XOR (correct key bit
/// 0) or XNOR (correct key bit 1), so the correct key restores the
/// original function and any wrong bit inverts a signal.
///
/// # Panics
///
/// Panics if the netlist has no gates or `key_bits == 0`.
pub fn xor_lock(nl: &Netlist, key_bits: usize, seed: u64) -> LockedNetlist {
    assert!(key_bits > 0, "need at least one key bit");
    assert!(nl.num_gates() > 0, "cannot lock an empty netlist");
    let mut locked = nl.clone();
    let num_original_inputs = locked.inputs().len();
    let mut rng = StdRng::seed_from_u64(seed);
    // candidate nets: gate outputs of the original design
    let candidates: Vec<NetId> = nl.gates().iter().map(|g| g.output).collect();
    let mut correct_key = Vec::with_capacity(key_bits);
    for i in 0..key_bits {
        let key_in = locked.add_input(format!("key{i}"));
        let target = candidates[rng.gen_range(0..candidates.len())];
        let bit: bool = rng.gen();
        let kind = if bit { CellKind::Xnor } else { CellKind::Xor };
        locked.insert_after(target, kind, &[key_in], key_tags());
        correct_key.push(bit);
    }
    LockedNetlist {
        netlist: locked,
        correct_key,
        num_original_inputs,
    }
}

/// MUX locking: each key bit controls a 2:1 multiplexer selecting
/// between the true signal and a decoy signal from elsewhere in the
/// design. The correct key bit routes the true signal.
///
/// # Panics
///
/// Panics if the netlist has fewer than two gates or `key_bits == 0`.
pub fn mux_lock(nl: &Netlist, key_bits: usize, seed: u64) -> LockedNetlist {
    assert!(key_bits > 0, "need at least one key bit");
    assert!(nl.num_gates() >= 2, "need at least two gates for decoys");
    let mut locked = nl.clone();
    let num_original_inputs = locked.inputs().len();
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates: Vec<NetId> = nl.gates().iter().map(|g| g.output).collect();
    let mut correct_key = Vec::with_capacity(key_bits);
    for i in 0..key_bits {
        let key_in = locked.add_input(format!("key{i}"));
        let ti = rng.gen_range(0..candidates.len());
        let target = candidates[ti];
        // the decoy must not lie in the transitive fanout of the target,
        // or the multiplexer would close a combinational cycle
        let downstream = transitive_fanout(&locked, target);
        let safe: Vec<NetId> = candidates
            .iter()
            .copied()
            .filter(|&c| c != target && !downstream.contains(&c.index()))
            .collect();
        if safe.is_empty() {
            // no usable decoy for this target: fall back to an XOR gate
            let bit: bool = rng.gen();
            let kind = if bit { CellKind::Xnor } else { CellKind::Xor };
            locked.insert_after(target, kind, &[key_in], key_tags());
            correct_key.push(bit);
            continue;
        }
        let decoy = safe[rng.gen_range(0..safe.len())];
        let bit: bool = rng.gen();
        // mux inputs are [sel, a, b] -> sel ? b : a
        // bit=false: true signal on the a-leg; bit=true: on the b-leg
        let (a_leg, b_leg) = if bit {
            (decoy, target)
        } else {
            (target, decoy)
        };
        // insert_after keeps `target` as the first gate input, so build
        // the mux manually and rewire loads
        let mux = locked.insert_after(target, CellKind::Mux, &[a_leg, b_leg], key_tags());
        // fix the select line: insert_after made inputs [target, a, b];
        // we need [key, a_leg, b_leg]
        let gid = locked.net(mux).driver.expect("mux driver");
        locked.gate_mut(gid).inputs = [key_in, a_leg, b_leg].into();
        correct_key.push(bit);
    }
    LockedNetlist {
        netlist: locked,
        correct_key,
        num_original_inputs,
    }
}

/// SFLL-HD with h = 0 (a.k.a. TTLock) \[51\]: the design is modified to
/// flip every output for exactly one protected input pattern, and a
/// restore unit (comparator against the key) flips it back when the key
/// equals the protected pattern. SAT attacks need to enumerate
/// essentially all input patterns to find the single protected cube.
///
/// The key width equals the input width; the correct key is the
/// protected pattern.
///
/// # Panics
///
/// Panics if the netlist has no inputs or outputs.
pub fn sfll_hd0(nl: &Netlist, protected_pattern: &[bool]) -> LockedNetlist {
    assert!(!nl.inputs().is_empty(), "design needs inputs");
    assert!(!nl.outputs().is_empty(), "design needs outputs");
    assert_eq!(
        protected_pattern.len(),
        nl.inputs().len(),
        "pattern width must match inputs"
    );
    let mut locked = nl.clone();
    let num_original_inputs = locked.inputs().len();
    let tags = key_tags();
    let original_inputs: Vec<NetId> = locked.inputs().to_vec();

    // strip: flip outputs when x == protected_pattern (hard-wired cube)
    let cube_lits: Vec<NetId> = original_inputs
        .iter()
        .zip(protected_pattern)
        .map(|(&x, &bit)| {
            if bit {
                x
            } else {
                locked.add_gate_tagged(CellKind::Not, &[x], tags)
            }
        })
        .collect();
    let strip = if cube_lits.len() == 1 {
        cube_lits[0]
    } else {
        locked.add_gate_tagged(CellKind::And, &cube_lits, tags)
    };

    // restore: flip outputs when x == key
    let key_inputs: Vec<NetId> = (0..num_original_inputs)
        .map(|i| locked.add_input(format!("key{i}")))
        .collect();
    let x_word = Word::new(original_inputs);
    let k_word = Word::new(key_inputs);
    let restore = x_word.eq(&mut locked, &k_word);
    // tag the comparator gates
    let flip = locked.add_gate_tagged(CellKind::Xor, &[strip, restore], tags);

    // apply flip to every output
    let outputs: Vec<(NetId, String)> = locked.outputs().to_vec();
    locked.clear_outputs();
    for (net, name) in outputs {
        let flipped = locked.add_gate_tagged(CellKind::Xor, &[net, flip], tags);
        locked.mark_output(flipped, name);
    }
    LockedNetlist {
        netlist: locked,
        correct_key: protected_pattern.to_vec(),
        num_original_inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::c17;
    use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

    fn exhaustive_inputs(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |p| (0..n).map(|b| (p >> b) & 1 == 1).collect())
    }

    fn check_correct_key_restores(locked: &LockedNetlist, original: &Netlist) {
        for inputs in exhaustive_inputs(original.inputs().len()) {
            assert_eq!(
                locked.evaluate_with_key(&inputs, &locked.correct_key),
                original.evaluate(&inputs),
                "correct key must restore function for {inputs:?}"
            );
        }
    }

    fn check_wrong_key_corrupts(locked: &LockedNetlist, original: &Netlist, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut corrupted_somewhere = false;
        for _ in 0..20 {
            let wrong: Vec<bool> = (0..locked.key_width()).map(|_| rng.gen()).collect();
            if wrong == locked.correct_key {
                continue;
            }
            for inputs in exhaustive_inputs(original.inputs().len()) {
                if locked.evaluate_with_key(&inputs, &wrong) != original.evaluate(&inputs) {
                    corrupted_somewhere = true;
                    break;
                }
            }
        }
        assert!(corrupted_somewhere, "wrong keys must corrupt something");
    }

    #[test]
    fn xor_lock_roundtrip() {
        let nl = c17();
        let locked = xor_lock(&nl, 6, 42);
        assert_eq!(locked.key_width(), 6);
        check_correct_key_restores(&locked, &nl);
        check_wrong_key_corrupts(&locked, &nl, 1);
    }

    #[test]
    fn xor_lock_single_wrong_bit_corrupts() {
        let nl = c17();
        let locked = xor_lock(&nl, 4, 43);
        // flipping one key bit inverts one internal signal; some input
        // must expose it (the XOR gate output differs everywhere, and
        // c17's nets are all observable for some pattern)
        for bit in 0..4 {
            let mut key = locked.correct_key.clone();
            key[bit] = !key[bit];
            let differs = exhaustive_inputs(5)
                .any(|inputs| locked.evaluate_with_key(&inputs, &key) != nl.evaluate(&inputs));
            assert!(differs, "wrong bit {bit} never observable");
        }
    }

    #[test]
    fn mux_lock_roundtrip() {
        let nl = c17();
        let locked = mux_lock(&nl, 5, 44);
        check_correct_key_restores(&locked, &nl);
        assert_eq!(locked.netlist.validate(), Ok(()));
    }

    #[test]
    fn sfll_flips_exactly_the_protected_cube_without_restore() {
        let nl = c17();
        let pattern = vec![true, false, true, true, false];
        let locked = sfll_hd0(&nl, &pattern);
        check_correct_key_restores(&locked, &nl);
        // with an all-zero (wrong) key, outputs differ exactly on the
        // protected pattern and on the key pattern (here: zero vector)
        let wrong = vec![false; 5];
        let mut diff_count = 0;
        for inputs in exhaustive_inputs(5) {
            if locked.evaluate_with_key(&inputs, &wrong) != nl.evaluate(&inputs) {
                diff_count += 1;
            }
        }
        assert_eq!(
            diff_count, 2,
            "SFLL-HD0 with a wrong key corrupts exactly two cubes"
        );
    }

    #[test]
    fn key_gates_are_tagged() {
        let locked = xor_lock(&c17(), 3, 45);
        let tagged = locked
            .netlist
            .gates()
            .iter()
            .filter(|g| g.tags.key_gate)
            .count();
        assert_eq!(tagged, 3);
    }
}
