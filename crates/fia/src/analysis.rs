//! Automatic fault analysis: grade a fault campaign against a
//! (possibly protected) netlist.

use crate::campaign::FaultCampaign;
use seceda_netlist::{Netlist, NetlistError};
use seceda_sim::{Fault, FaultSim, Lane256, SimWord};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Aggregated campaign results: every graded (shot, stimulus) event
/// lands in exactly one of the four counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAnalysis {
    /// The fault did not change any functional output, and the alarm
    /// stayed low.
    pub masked: usize,
    /// The functional outputs changed and the alarm raised.
    pub detected: usize,
    /// The functional outputs changed and no alarm raised — the outcome
    /// an adversary exploits.
    pub silent: usize,
    /// The alarm raised although the functional outputs were unchanged
    /// (overly eager detector; costs availability, not
    /// confidentiality).
    pub false_alarms: usize,
    /// `detected / (detected + silent)`, or 1.0 if no corrupting fault
    /// occurred.
    pub detection_coverage: f64,
}

impl FaultAnalysis {
    /// Total number of graded (shot, stimulus) events.
    pub fn total(&self) -> usize {
        self.masked + self.detected + self.silent + self.false_alarms
    }
}

/// Runs `campaign` against a (possibly protected) netlist whose output
/// `alarm_index`, if any, is its alarm: every shot is simulated under
/// `stimuli_per_shot` random input vectors and classified.
///
/// The stimuli are drawn shot by shot from `seed`. Every (shot,
/// stimulus) pair takes one lane of a [`Lane256`] word — pair *i* =
/// shot · `stimuli_per_shot` + stimulus lands in lane *i* mod 256 of
/// word *i* / 256 — so a shot may straddle two words, and one word
/// carries many shots. Each word runs one fault-free and one faulty
/// packed pass, with each shot's faults forced only in that shot's
/// lanes, and every lane is classified at once.
///
/// For netlists without an alarm (`alarm_index == None`, e.g. TMR), a
/// changed output counts as [`FaultAnalysis::silent`] — use the
/// coverage to measure *correction* instead.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn analyze_faults(
    nl: &Netlist,
    alarm_index: Option<usize>,
    campaign: &FaultCampaign,
    stimuli_per_shot: usize,
    seed: u64,
) -> Result<FaultAnalysis, NetlistError> {
    let sim = FaultSim::new(nl)?;
    let shots = campaign.generate(nl);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut analysis = FaultAnalysis {
        masked: 0,
        detected: 0,
        silent: 0,
        false_alarms: 0,
        detection_coverage: 1.0,
    };
    let count = |w: Lane256| w.count_ones() as usize;
    let pairs = shots.len() * stimuli_per_shot;
    let mut words = vec![Lane256::ZERO; nl.inputs().len()];
    let mut sites: Vec<(Fault, Lane256)> = Vec::new();
    for first in (0..pairs).step_by(Lane256::BITS) {
        let last = pairs.min(first + Lane256::BITS);
        // draw this word's stimuli pair by pair, input by input
        words.fill(Lane256::ZERO);
        for lane in 0..last - first {
            let bit = Lane256::ZERO.with_lane(lane / 64, 1 << (lane % 64));
            for w in &mut words {
                if rng.gen() {
                    *w = *w | bit;
                }
            }
        }
        // every shot with a pair in this word, forced in its own lanes
        sites.clear();
        let (s0, s1) = (first / stimuli_per_shot, (last - 1) / stimuli_per_shot);
        for (s, shot) in (s0..).zip(&shots[s0..=s1]) {
            let lo = (s * stimuli_per_shot).max(first) - first;
            let hi = ((s + 1) * stimuli_per_shot).min(last) - first;
            let below = if lo == 0 {
                Lane256::ZERO
            } else {
                Lane256::low_mask(lo)
            };
            let lanes = Lane256::low_mask(hi) & !below;
            sites.extend(shot.iter().map(|&f| (f, lanes)));
        }
        let good = sim.eval_outputs_with_faults(&words, &[]);
        let bad = sim.eval_outputs_with_faults(&words, &sites);
        let mask = Lane256::low_mask(last - first);
        let mut corrupted = Lane256::ZERO;
        let mut alarm = Lane256::ZERO;
        for (o, (&g, &b)) in good.iter().zip(&bad).enumerate() {
            if Some(o) == alarm_index {
                debug_assert_eq!(g & mask, Lane256::ZERO, "golden run must not alarm");
                alarm = b & mask;
            } else {
                corrupted = corrupted | ((g ^ b) & mask);
            }
        }
        analysis.masked += count(!corrupted & !alarm & mask);
        analysis.false_alarms += count(!corrupted & alarm);
        analysis.detected += count(corrupted & alarm);
        analysis.silent += count(corrupted & !alarm);
    }
    let corrupting = analysis.detected + analysis.silent;
    analysis.detection_coverage = if corrupting == 0 {
        1.0
    } else {
        analysis.detected as f64 / corrupting as f64
    };
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::InjectionModel;
    use crate::codes::{
        duplicate_with_compare, parity_protect, triplicate_with_vote, ProtectedNetlist,
    };
    use seceda_netlist::{
        c17, majority, random_circuit, GateId, NetId, Netlist, RandomCircuitConfig,
    };
    use seceda_sim::{Fault, FaultKind};

    /// Test-local oracle for faulty circuits: walks the netlist arena in
    /// the topological `order` over `CellKind::eval`. A fault takes
    /// effect when its net is assigned (a primary input as it is
    /// applied, a gate output as it is computed), the last fault listed
    /// for a net wins, and DFF outputs read zero, never assigned.
    fn reference_outputs(
        nl: &Netlist,
        order: &[GateId],
        inputs: &[bool],
        faults: &[Fault],
    ) -> Vec<bool> {
        let force = |net: NetId, good: bool| {
            faults
                .iter()
                .rev()
                .find(|f| f.net == net)
                .map_or(good, |f| match f.kind {
                    FaultKind::StuckAt0 => false,
                    FaultKind::StuckAt1 => true,
                    FaultKind::BitFlip => !good,
                })
        };
        let mut values = vec![false; nl.num_nets()];
        for (&pi, &v) in nl.inputs().iter().zip(inputs) {
            values[pi.index()] = force(pi, v);
        }
        for &gid in order {
            let g = nl.gate(gid);
            let ins: Vec<bool> = g.inputs.iter().map(|&i| values[i.index()]).collect();
            values[g.output.index()] = force(g.output, g.kind.eval(&ins));
        }
        nl.outputs()
            .iter()
            .map(|&(n, _)| values[n.index()])
            .collect()
    }

    /// The scalar classification loop `analyze_faults` replaced: two
    /// oracle evaluations and one classification per (shot, stimulus),
    /// drawing stimuli in the same RNG order.
    fn reference_analysis(
        protected: &ProtectedNetlist,
        campaign: &FaultCampaign,
        stimuli_per_shot: usize,
        seed: u64,
    ) -> FaultAnalysis {
        let nl = &protected.netlist;
        let shots = campaign.generate(nl);
        let order = nl.topo_order().expect("acyclic");
        let mut rng = StdRng::seed_from_u64(seed);
        let num_inputs = nl.inputs().len();
        let mut analysis = FaultAnalysis {
            masked: 0,
            detected: 0,
            silent: 0,
            false_alarms: 0,
            detection_coverage: 1.0,
        };
        for shot in &shots {
            for _ in 0..stimuli_per_shot {
                let inputs: Vec<bool> = (0..num_inputs).map(|_| rng.gen()).collect();
                let good = reference_outputs(nl, &order, &inputs, &[]);
                let bad = reference_outputs(nl, &order, &inputs, shot);
                let (good_f, good_alarm, bad_f, bad_alarm) = match protected.alarm_index {
                    Some(ai) => {
                        let split = |v: &[bool]| {
                            let alarm = v[ai];
                            let mut f = v.to_vec();
                            f.remove(ai);
                            (f, alarm)
                        };
                        let (gf, ga) = split(&good);
                        let (bf, ba) = split(&bad);
                        (gf, ga, bf, ba)
                    }
                    None => (good.clone(), false, bad.clone(), false),
                };
                assert!(!good_alarm, "golden run must not alarm");
                let corrupted = good_f != bad_f;
                match (corrupted, bad_alarm) {
                    (false, false) => analysis.masked += 1,
                    (false, true) => analysis.false_alarms += 1,
                    (true, true) => analysis.detected += 1,
                    (true, false) => analysis.silent += 1,
                }
            }
        }
        let corrupting = analysis.detected + analysis.silent;
        analysis.detection_coverage = if corrupting == 0 {
            1.0
        } else {
            analysis.detected as f64 / corrupting as f64
        };
        analysis
    }

    /// Asserts that `analyze_faults` equals the scalar oracle on every
    /// listed (shots, stimuli per shot) shape of `model`'s campaign.
    fn assert_matches_oracle(
        p: &ProtectedNetlist,
        model: &InjectionModel,
        shapes: &[(usize, usize)],
        seed: u64,
        case: &str,
    ) {
        for &(shots, n) in shapes {
            let campaign = FaultCampaign {
                model: model.clone(),
                shots,
                seed: seed ^ 0x51,
            };
            assert_eq!(
                analyze_faults(&p.netlist, p.alarm_index, &campaign, n, seed + 7)
                    .expect("analysis"),
                reference_analysis(p, &campaign, n, seed + 7),
                "{case}, {model:?}, {shots} shots, {n} stimuli per shot"
            );
        }
    }

    #[test]
    fn packed_analysis_equals_scalar_oracle() {
        // 6 shots at stimuli counts below, at and across a u64 and a
        // Lane256 word (a shot straddling two words at 100, one shot
        // longer than a word at 257), then campaigns of 0, 1 and 100
        // shots, whose short shots straddle word boundaries too
        let mut shapes: Vec<(usize, usize)> = [0, 1, 3, 4, 64, 65, 100, 130, 257]
            .into_iter()
            .map(|n| (6, n))
            .collect();
        for shots in [0, 1, 100] {
            shapes.extend([1, 3, 4].map(|n| (shots, n)));
        }
        for seed in 0..2u64 {
            let host = random_circuit(&RandomCircuitConfig {
                num_inputs: 6,
                num_gates: 40,
                num_outputs: 3,
                with_xor: seed == 0,
                seed: 0xF1A + seed,
            });
            let hosts = [
                (
                    "bare",
                    ProtectedNetlist {
                        netlist: host.clone(),
                        alarm_index: None,
                    },
                ),
                ("dwc", duplicate_with_compare(&host)),
                ("parity", parity_protect(&host)),
                ("tmr", triplicate_with_vote(&host)),
            ];
            for (name, p) in &hosts {
                let gate_net = p.netlist.gates()[seed as usize + 3].output;
                let models = [
                    InjectionModel::RandomGate,
                    InjectionModel::Laser { width: 5 },
                    InjectionModel::Random,
                    InjectionModel::ClockGlitch { count: 3 },
                    InjectionModel::Targeted(vec![gate_net, gate_net]),
                ];
                for model in &models {
                    assert_matches_oracle(p, model, &shapes, seed, &format!("seed {seed}, {name}"));
                }
            }
        }
    }

    #[test]
    #[ignore = "1k-gate hosts; run in release with --ignored"]
    fn packed_analysis_equals_scalar_oracle_on_1k_gate_hosts() {
        // the compose evaluator's campaign shape: 100 shots x 4 stimuli
        for seed in 0..6u64 {
            let host = random_circuit(&RandomCircuitConfig {
                num_inputs: 24,
                num_gates: 1_000,
                num_outputs: 12,
                with_xor: true,
                seed: 0x1F1A + seed,
            });
            let hosts = [
                (
                    "bare",
                    ProtectedNetlist {
                        netlist: host.clone(),
                        alarm_index: None,
                    },
                ),
                ("dwc", duplicate_with_compare(&host)),
            ];
            for (name, p) in &hosts {
                let models = [
                    InjectionModel::RandomGate,
                    InjectionModel::Laser { width: 5 },
                    InjectionModel::Random,
                ];
                for model in &models {
                    let case = format!("seed {seed}, {name}");
                    assert_matches_oracle(p, model, &[(100, 4)], seed, &case);
                }
            }
        }
    }

    #[test]
    fn unprotected_circuit_suffers_silent_corruption() {
        let campaign = FaultCampaign {
            model: InjectionModel::Random,
            shots: 50,
            seed: 1,
        };
        let a = analyze_faults(&c17(), None, &campaign, 8, 2).expect("analysis");
        assert!(a.silent > 0, "bare logic must show silent corruption");
        assert!(a.detection_coverage < 1.0);
    }

    #[test]
    fn dwc_reaches_full_detection_on_single_faults() {
        let p = duplicate_with_compare(&majority());
        let campaign = FaultCampaign {
            model: InjectionModel::RandomGate,
            shots: 120,
            seed: 3,
        };
        let a = analyze_faults(&p.netlist, p.alarm_index, &campaign, 8, 4).expect("analysis");
        assert_eq!(
            a.silent, 0,
            "single logic faults cannot silently corrupt a DWC design: {a:?}"
        );
        assert!(a.detected > 0);
        assert_eq!(a.detection_coverage, 1.0);
    }

    #[test]
    fn tmr_masks_single_copy_faults() {
        // Faults inside any of the three copies are fully masked by the
        // voter; voter gates themselves are the (known) single point of
        // failure, so target the copies only.
        let base = majority();
        let copies_gate_count = 3 * base.num_gates();
        let p = triplicate_with_vote(&base);
        for gi in 0..copies_gate_count {
            let victim = p.netlist.gates()[gi].output;
            let campaign = FaultCampaign {
                model: InjectionModel::Targeted(vec![victim]),
                shots: 1,
                seed: 5,
            };
            let a = analyze_faults(&p.netlist, p.alarm_index, &campaign, 8, 6).expect("analysis");
            assert_eq!(a.silent, 0, "copy fault at gate {gi} must be masked");
            assert_eq!(a.detected, 0, "TMR has no alarm");
        }
    }

    #[test]
    fn wide_laser_defeats_dwc_sometimes() {
        // a laser window spanning both copies can corrupt them coherently
        // or corrupt outputs without tripping the specific comparator —
        // at minimum, detection coverage may drop below 1.0
        let p = duplicate_with_compare(&majority());
        let campaign = FaultCampaign {
            model: InjectionModel::Laser { width: 16 },
            shots: 200,
            seed: 7,
        };
        let a = analyze_faults(&p.netlist, p.alarm_index, &campaign, 4, 8).expect("analysis");
        // we only assert the analysis runs and classifies everything
        assert_eq!(a.total(), 200 * 4);
    }
}
