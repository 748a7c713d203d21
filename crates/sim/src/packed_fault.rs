//! [`FaultSim`]: the crate's one fault simulator — bit-parallel, with
//! fault dropping and cone restriction, the industrial recipe that
//! makes stuck-at grading, ATPG bootstrap, and MERO-style N-detect
//! tractable on real circuits.
//!
//! The good circuit and every faulty cone run on the crate's compiled
//! evaluation tape and its one gate kernel; grading adds four
//! compounding optimizations on top:
//!
//! * **256 patterns per pass** — the kernel runs over [`Lane256`] words
//!   (four `u64` lanes, autovectorized), so the good circuit and each
//!   faulty cone are walked once per 256-pattern chunk; detection of
//!   all 256 patterns is a single masked XOR of output words.
//! * **Fault batching** — when a chunk holds 64 or fewer patterns
//!   (ATPG's one-pattern incremental grading, tails of a pattern set),
//!   each 64-bit sub-lane of a wide word carries a *different fault*
//!   over the same patterns, so one cone walk grades up to four faults.
//! * **Fault dropping** — a fault leaves the active list the moment any
//!   pattern detects it; later patterns never touch it again.
//! * **Cone restriction** — the faulty circuit re-evaluates only the
//!   fan-out cone of the faulted net, walking a fan-out index
//!   in topological order, and stops early when the fault effect
//!   converges with the good value or every fault in the pass has
//!   reached a primary output.
//!
//! The active fault list fans out across cores with
//! [`seceda_testkit::par`]; every fault is graded independently (fault
//! groups are formed deterministically from the active list), so the
//! result is bit-identical for any worker count.
//!
//! A fault is *detected iff some pattern makes a primary output
//! differ*, and a fault on a net no pass assigns (a DFF output
//! pseudo-input) has no effect — the semantics of
//! [`FaultSim::eval_outputs_with_faults`], whose multi-fault transient
//! passes serve BIST and fault-injection campaigns. The differential
//! suite `crates/sim/tests/tape_differential.rs` holds both entry points
//! to an independent walk of the netlist arena.

use crate::fault::Fault;
use crate::packed::pack_patterns;
use crate::simword::{Lane256, SimWord};
use crate::tape::{force_pair, FanOut, Tape};
use seceda_netlist::{Netlist, NetlistError};
use seceda_testkit::par;
use std::sync::OnceLock;

/// Combinational fault simulator: packed, fault-dropping,
/// cone-restricted grading ([`FaultSim::coverage`], [`FaultSim::grade`])
/// and packed multi-fault injection
/// ([`FaultSim::eval_outputs_with_faults`]).
#[derive(Debug, Clone)]
pub struct FaultSim<'a> {
    nl: &'a Netlist,
    tape: Tape,
    /// The cone walk's fan-out index, built on the first grading call:
    /// fault-injection passes never walk cones and never build it.
    fanout: OnceLock<FanOut>,
    /// Per net: is it marked as a primary output?
    is_output: Vec<bool>,
    /// Per net: does a fault injected here take effect? True for primary
    /// inputs and combinational gate outputs — exactly the nets a tape
    /// pass assigns (and therefore faults).
    fault_applies: Vec<bool>,
}

/// Per-worker scratch: reused across every fault a worker grades, so
/// the per-fault cost is proportional to the fault's cone, not to the
/// netlist size.
struct Scratch<W> {
    /// Faulty packed values; equal to the good values outside the set
    /// of touched nets, restored after every pass.
    vals: Vec<W>,
    /// Net indices whose `vals` entry differs from the good values.
    touched: Vec<u32>,
    /// Pending cone gates as a bitset over topo positions. Fan-out
    /// gates sit strictly later in topo order than their driver, so the
    /// cone walk is a monotone wavefront: push = set bit, pop = scan
    /// forward for the lowest set bit — no heap, no dedup stamps.
    /// All-zero between passes.
    pending: Vec<u64>,
    /// Forced sites of the current pass: (net, keep, tog), the site's
    /// lane-masked affine forcing pair. Needed to re-force a site that
    /// sits inside another site's cone.
    sites: Vec<(u32, W, W)>,
}

impl<W: SimWord> Scratch<W> {
    fn new(good: &[W], num_comb_gates: usize) -> Self {
        Scratch {
            vals: good.to_vec(),
            touched: Vec::new(),
            pending: vec![0; num_comb_gates.div_ceil(64)],
            sites: Vec::new(),
        }
    }
}

impl<'a> FaultSim<'a> {
    /// Builds the simulator for a netlist (combinational logic graded;
    /// DFF outputs are constant-zero pseudo-inputs, as everywhere else).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let tape = Tape::new(nl)?;
        let mut is_output = vec![false; nl.num_nets()];
        for &(net, _) in nl.outputs() {
            is_output[net.index()] = true;
        }
        let mut fault_applies = vec![false; nl.num_nets()];
        for &pi in tape.pis() {
            fault_applies[pi as usize] = true;
        }
        for p in 0..tape.len() {
            fault_applies[tape.out(p)] = true;
        }
        Ok(FaultSim {
            nl,
            tape,
            fanout: OnceLock::new(),
            is_output,
            fault_applies,
        })
    }

    /// The fan-out index, built on first use.
    fn fanout(&self) -> &FanOut {
        self.fanout.get_or_init(|| FanOut::new(self.nl, &self.tape))
    }

    /// Marks every combinational reader of net `ni` pending, returning
    /// the lowest pending-bitset word index it touched (or `usize::MAX`
    /// for no readers).
    #[inline]
    fn push_fanout<W: SimWord>(fanout: &FanOut, sc: &mut Scratch<W>, ni: usize) -> usize {
        let mut min_word = usize::MAX;
        for &lvl in fanout.readers(ni) {
            let lvl = lvl as usize;
            sc.pending[lvl >> 6] |= 1u64 << (lvl & 63);
            min_word = min_word.min(lvl >> 6);
        }
        min_word
    }

    /// Simulates one pass of up to `W::LANES` independent faults over
    /// one packed batch. `sites[j]` pairs a fault with the lane mask
    /// whose bits carry its real patterns: in wide mode that is the
    /// full batch mask (one fault, patterns in every lane), in
    /// fault-group mode lane *j* of the word carries fault *j*'s
    /// patterns and each mask selects one lane.
    ///
    /// Sets `detected[j]` iff any masked pattern detects fault *j*, and
    /// returns the number of (fault × combinational gate) evaluations
    /// the cone restriction and batching skipped.
    ///
    /// `sc.vals` must equal `good` on entry and is restored on exit.
    fn grade_group<W: SimWord>(
        &self,
        sc: &mut Scratch<W>,
        good: &[W],
        sites: &[(Fault, W)],
        detected: &mut [bool],
    ) -> u64 {
        debug_assert_eq!(sites.len(), detected.len());
        debug_assert!(sites.len() <= 32, "excitation bitmask is a u32");
        let budget = (sites.len() * self.tape.len()) as u64;
        sc.sites.clear();
        let mut excited = 0u32;
        let mut remaining = 0usize;
        for (j, &(fault, mask)) in sites.iter().enumerate() {
            let ni = fault.net.index();
            detected[j] = false;
            if !self.fault_applies[ni] {
                // no tape pass assigns (and so faults) this net
                continue;
            }
            // force only the bits carrying this fault's real patterns, so
            // phantom differences in unused bit lanes cannot propagate
            let (keep, tog) = force_pair(fault.kind, mask);
            let forced = (good[ni] & keep) ^ tog;
            if !(forced ^ good[ni]).any() {
                // no masked pattern excites the fault: its lanes stay good
                continue;
            }
            excited |= 1 << j;
            if sc.vals[ni] == good[ni] {
                sc.touched.push(ni as u32);
            }
            // masks of a group are disjoint lanes, so same-net sites compose
            sc.vals[ni] = (sc.vals[ni] & keep) ^ tog;
            sc.sites.push((ni as u32, keep, tog));
            if self.is_output[ni] {
                detected[j] = true;
            } else {
                remaining += 1;
            }
        }
        if sc.sites.is_empty() {
            return budget;
        }
        let mut evaluated = 0u64;
        if remaining > 0 {
            let fanout = self.fanout();
            let nwords = sc.pending.len();
            let mut w = usize::MAX;
            for s in 0..sc.sites.len() {
                let ni = sc.sites[s].0 as usize;
                w = w.min(Self::push_fanout(fanout, sc, ni));
            }
            'cone: while w < nwords {
                let bits = sc.pending[w];
                if bits == 0 {
                    w += 1;
                    continue;
                }
                sc.pending[w] = bits & (bits - 1);
                let pos = (w << 6) | bits.trailing_zeros() as usize;
                evaluated += 1;
                let oi = self.tape.out(pos);
                let mut new = self.tape.gate(pos, &sc.vals);
                // a site sitting inside another fault's cone must stay
                // forced in its own lanes; sound because there the
                // recomputed lane value is exactly the good value
                for &(sn, keep, tog) in &sc.sites {
                    if sn as usize == oi {
                        new = (new & keep) ^ tog;
                    }
                }
                if new == sc.vals[oi] {
                    continue; // fault effects converged at this gate
                }
                if sc.vals[oi] == good[oi] {
                    sc.touched.push(oi as u32);
                }
                sc.vals[oi] = new;
                if self.is_output[oi] {
                    let diff = new ^ good[oi];
                    for (j, &(_, mask)) in sites.iter().enumerate() {
                        if excited & (1 << j) != 0 && !detected[j] && (diff & mask).any() {
                            detected[j] = true;
                            remaining -= 1;
                            if remaining == 0 {
                                // drop: every fault detected; the pushes
                                // ahead of the cursor are stale now
                                sc.pending[w..].fill(0);
                                break 'cone;
                            }
                        }
                    }
                }
                Self::push_fanout(fanout, sc, oi);
            }
        }
        for &t in &sc.touched {
            sc.vals[t as usize] = good[t as usize];
        }
        sc.touched.clear();
        budget - evaluated
    }

    /// Generic grading core: chunks `patterns` by `W::BITS`. Chunks
    /// wider than 64 patterns run in *wide mode* (one fault per pass,
    /// patterns filling every lane); chunks of at most 64 patterns run
    /// in *fault-group mode* (up to `W::LANES` active faults share one
    /// pass, one per 64-bit sub-lane).
    fn grade_chunks<W: SimWord>(
        &self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        detected: &mut [bool],
    ) {
        assert_eq!(faults.len(), detected.len(), "detected/fault mismatch");
        let num_inputs = self.nl.inputs().len();
        let mut dropped = 0u64;
        let mut cone_skipped = 0u64;
        seceda_trace::gauge("sim.lane_width", W::BITS as f64);
        for batch in patterns.chunks(W::BITS) {
            // one histogram sample per packed batch; batch cost shrinks
            // as fault dropping thins the active set
            let _batch_t = seceda_trace::hist_timer("sim.fault_batch_ns");
            let active: Vec<u32> = (0..faults.len() as u32)
                .filter(|&k| !detected[k as usize])
                .collect();
            if active.is_empty() {
                break;
            }
            if batch.len() > 64 {
                // wide mode: patterns fill every lane, one fault per pass
                let words = pack_patterns::<W>(batch, num_inputs);
                let good = self.tape.eval(&words, None, &[]);
                let mask = W::low_mask(batch.len());
                seceda_trace::gauge("sim.par_workers", par::workers_for(active.len()) as f64);
                let results = par::par_map_init(
                    &active,
                    || Scratch::new(&good, self.tape.len()),
                    |sc, _, &k| {
                        let mut det = [false];
                        let skipped =
                            self.grade_group(sc, &good, &[(faults[k as usize], mask)], &mut det);
                        (det[0], skipped)
                    },
                );
                for (&k, &(det, skipped)) in active.iter().zip(&results) {
                    cone_skipped += skipped;
                    if det {
                        detected[k as usize] = true;
                        dropped += 1;
                    }
                }
            } else {
                // fault-group mode: each 64-bit sub-lane carries a
                // different active fault over the same patterns
                let words: Vec<W> = pack_patterns::<u64>(batch, num_inputs)
                    .into_iter()
                    .map(W::broadcast)
                    .collect();
                let good = self.tape.eval(&words, None, &[]);
                let m64 = u64::low_mask(batch.len());
                let groups: Vec<&[u32]> = active.chunks(W::LANES).collect();
                seceda_trace::gauge("sim.par_workers", par::workers_for(groups.len()) as f64);
                let results = par::par_map_init(
                    &groups,
                    || Scratch::new(&good, self.tape.len()),
                    |sc, _, grp| {
                        let sites: Vec<(Fault, W)> = grp
                            .iter()
                            .enumerate()
                            .map(|(j, &k)| (faults[k as usize], W::ZERO.with_lane(j, m64)))
                            .collect();
                        let mut det = vec![false; grp.len()];
                        let skipped = self.grade_group(sc, &good, &sites, &mut det);
                        (det, skipped)
                    },
                );
                for (grp, (det, skipped)) in groups.iter().zip(&results) {
                    cone_skipped += skipped;
                    for (&k, &d) in grp.iter().zip(det) {
                        if d {
                            detected[k as usize] = true;
                            dropped += 1;
                        }
                    }
                }
            }
        }
        seceda_trace::counter("sim.faults_dropped", dropped);
        seceda_trace::counter("sim.cone_gates_skipped", cone_skipped);
    }

    /// Grades `patterns` against `faults`, updating `detected` in
    /// place: faults already marked detected are skipped (dropped), and
    /// each still-active fault is marked as soon as any pattern detects
    /// it. This is the incremental entry point ATPG uses as SAT
    /// patterns arrive.
    ///
    /// The final `detected` vector equals a from-scratch
    /// [`FaultSim::coverage`] of all `patterns` against all `faults`.
    ///
    /// # Panics
    ///
    /// Panics if `detected` and `faults` differ in length or on pattern
    /// width mismatch.
    pub fn grade(&self, patterns: &[Vec<bool>], faults: &[Fault], detected: &mut [bool]) {
        self.grade_chunks::<Lane256>(patterns, faults, detected);
    }

    /// Grades a pattern set against a fault list; returns, per fault,
    /// whether any pattern detects it, plus the overall coverage
    /// fraction.
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatch.
    pub fn coverage(&self, patterns: &[Vec<bool>], faults: &[Fault]) -> (Vec<bool>, f64) {
        self.coverage_with::<Lane256>(patterns, faults)
    }

    fn coverage_with<W: SimWord>(
        &self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> (Vec<bool>, f64) {
        let mut sp = seceda_trace::span("sim.fault_coverage");
        sp.attr("patterns", patterns.len());
        sp.attr("faults", faults.len());
        sp.attr("lane_bits", W::BITS);
        let mut detected = vec![false; faults.len()];
        self.grade_chunks::<W>(patterns, faults, &mut detected);
        let num_detected = detected.iter().filter(|&&d| d).count();
        let frac = if faults.is_empty() {
            1.0
        } else {
            num_detected as f64 / faults.len() as f64
        };
        seceda_trace::counter("sim.patterns_simulated", patterns.len() as u64);
        seceda_trace::counter("sim.faults_detected", num_detected as u64);
        sp.attr("coverage", frac);
        (detected, frac)
    }

    /// Evaluates one packed word of patterns (`W::BITS` lanes) with
    /// every site in `sites` active at once and returns the packed
    /// primary-output words (bit *p* of word *o* is output *o* under the
    /// pattern in lane *p*).
    ///
    /// A site `(fault, mask)` forces its fault in the lanes of `mask`
    /// only; pass `W::ONES` to force it in every lane. A fault takes
    /// effect at the moment its net is assigned: an input fault corrupts
    /// the applied stimulus, a gate-output fault the computed value, and
    /// per net and per lane the last site listed wins. DFF outputs are
    /// zero pseudo-inputs that are never assigned, so a fault there has
    /// no effect. Pass no sites for the good circuit.
    ///
    /// # Panics
    ///
    /// Panics on input width mismatch.
    pub fn eval_outputs_with_faults<W: SimWord>(
        &self,
        inputs: &[W],
        sites: &[(Fault, W)],
    ) -> Vec<W> {
        let values = self.tape.eval(inputs, None, sites);
        self.nl
            .outputs()
            .iter()
            .map(|&(n, _)| values[n.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::stuck_at_universe;
    use crate::oracle::{outputs, reference, reference_coverage};
    use seceda_netlist::{
        alu_slice, c17, comparator, majority, parity_tree, random_circuit, ripple_adder, CellKind,
        Netlist, RandomCircuitConfig,
    };
    use seceda_testkit::prelude::*;

    fn circuit(seed: u64, gates: usize) -> Netlist {
        random_circuit(&RandomCircuitConfig {
            num_inputs: 5,
            num_gates: gates,
            num_outputs: 3,
            with_xor: true,
            seed,
        })
    }

    fn random_patterns(nl: &Netlist, n: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(30))]

        #[test]
        fn lane256_matches_u64_reference(seed in 0u64..5000, gates in 2usize..50) {
            let nl = circuit(seed, gates);
            let sim = FaultSim::new(&nl).expect("sim");
            let faults = stuck_at_universe(&nl);
            // pattern counts straddling every chunking mode: fault-group
            // (<=64), partial wide (65..=255), and full wide (256+)
            for n in [1usize, 63, 64, 65, 200, 256, 300] {
                let patterns = random_patterns(&nl, n, seed ^ (n as u64) << 8);
                prop_assert_eq!(
                    sim.coverage(&patterns, &faults),
                    sim.coverage_with::<u64>(&patterns, &faults),
                    "pattern count {}", n
                );
            }
        }
    }

    #[test]
    fn lane256_matches_u64_on_every_bench_circuit() {
        let circuits: Vec<(&str, Netlist)> = vec![
            ("c17", c17()),
            ("ripple_adder", ripple_adder(8)),
            ("ripple_adder_32", ripple_adder(32)),
            ("comparator", comparator(6)),
            ("parity_tree", parity_tree(8)),
            ("majority", majority()),
            ("alu_slice", alu_slice(4)),
            ("alu_slice_16", alu_slice(16)),
        ];
        for (name, nl) in circuits {
            let sim = FaultSim::new(&nl).expect("sim");
            let faults = stuck_at_universe(&nl);
            let patterns = random_patterns(&nl, 80, 7);
            assert_eq!(
                sim.coverage(&patterns, &faults),
                sim.coverage_with::<u64>(&patterns, &faults),
                "lane256 != u64 reference on {name}"
            );
        }
    }

    #[test]
    fn incremental_grading_equals_batch_grading() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let (batch, _) = sim.coverage(&patterns, &faults);
        let mut incremental = vec![false; faults.len()];
        for p in &patterns {
            sim.grade(std::slice::from_ref(p), &faults, &mut incremental);
        }
        assert_eq!(batch, incremental);
    }

    #[test]
    fn packed_coverage_matches_scalar_on_c17() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let want = reference_coverage(&nl, &patterns, &faults);
        assert_eq!(sim.coverage(&patterns, &faults), want);
        assert_eq!(sim.coverage_with::<u64>(&patterns, &faults), want);
    }

    #[test]
    fn dff_output_faults_have_no_effect_like_scalar() {
        // q feeds an XOR with input a; no pass assigns q, so a stuck-at-1
        // there is (quirkily) invisible — packed and oracle must agree
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let d = nl.add_net();
        let q = nl.add_gate(CellKind::Dff, &[d]);
        let y = nl.add_gate(CellKind::Xor, &[a, q]);
        nl.mark_output(y, "y");
        let sim = FaultSim::new(&nl).expect("sim");
        let fault = Fault::stuck_at(q, true);
        let patterns = vec![vec![false], vec![true]];
        assert_eq!(
            sim.coverage(&patterns, &[fault]),
            reference_coverage(&nl, &patterns, &[fault])
        );
        assert_eq!(sim.coverage(&patterns, &[fault]).0, vec![false]);
    }

    #[test]
    fn partial_batch_mask_hides_unused_lanes() {
        // a single pattern that does NOT detect the fault must stay
        // undetected even though unused lanes would have detected it
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        let sim = FaultSim::new(&nl).expect("sim");
        let f = Fault::stuck_at(a, false);
        let (det, _) = sim.coverage(&[vec![true, false]], &[f]);
        assert_eq!(det, vec![false]);
        let (det, _) = sim.coverage(&[vec![true, true]], &[f]);
        assert_eq!(det, vec![true]);
    }

    #[test]
    fn fault_groups_attribute_detections_per_lane() {
        // a chain where faults have overlapping cones: fault A's site
        // feeds fault B's site, so the group pass must keep B forced in
        // its own lane while A's effect washes through the union cone
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(CellKind::And, &[a, b]);
        let g2 = nl.add_gate(CellKind::Or, &[g1, a]);
        let g3 = nl.add_gate(CellKind::Xor, &[g2, b]);
        nl.mark_output(g3, "y");
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..4u32)
            .map(|p| (0..2).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        // <=64 patterns forces fault-group mode under Lane256
        assert_eq!(
            sim.coverage(&patterns, &faults),
            reference_coverage(&nl, &patterns, &faults)
        );
    }

    #[test]
    fn wide_mode_matches_u64_above_64_patterns() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        // 5-input circuit: replicate the 32 exhaustive patterns to cross
        // the 64-pattern wide-mode threshold (65..=255 exercises the
        // partial Lane256 mask)
        let base: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        for n in [65usize, 120, 255, 256] {
            let patterns: Vec<Vec<bool>> = (0..n).map(|i| base[i % base.len()].clone()).collect();
            assert_eq!(
                sim.coverage(&patterns, &faults),
                sim.coverage_with::<u64>(&patterns, &faults),
                "pattern count {n}"
            );
        }
    }

    #[test]
    fn packed_faulty_outputs_match_scalar_eval() {
        let nl = c17();
        let sim = FaultSim::new(&nl).expect("sim");
        let faults = stuck_at_universe(&nl);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|b| (p >> b) & 1 == 1).collect())
            .collect();
        let words = pack_patterns(&patterns, 5);
        for &f in faults.iter().take(8) {
            let outs = sim.eval_outputs_with_faults(&words, &[(f, u64::MAX)]);
            for (p, pattern) in patterns.iter().enumerate() {
                let scalar_outs = outputs(&nl, &reference(&nl, pattern, &[], &[f]));
                for (o, &w) in outs.iter().enumerate() {
                    assert_eq!((w >> p) & 1 == 1, scalar_outs[o], "fault {f:?} p={p} o={o}");
                }
            }
        }
    }
}
