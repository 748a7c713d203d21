//! Formal validation of error-detection properties \[32\].
//!
//! For a protected design with an alarm output, prove by SAT — for every
//! single fault in the universe — that no input can make the functional
//! outputs differ while the alarm stays low. This is the "demonstrate
//! the absence of vulnerabilities" mode the paper's red-team/blue-team
//! discussion contrasts with mere simulation.
//!
//! The proof loop shares ONE good-circuit lowering and one persistent
//! solver across the whole fault universe, through a
//! [`seceda_sat::FaultMiter`]: each fault contributes only its fan-out
//! cone, rebuilt in the structurally-hashed AIG above the good circuit,
//! solved under a fresh selector and then retired. Faults whose cone
//! folds away before every functional output, or that force the alarm
//! high, are proven detected-or-masked without any solver call at all.

use seceda_fia::codes::ProtectedNetlist;
use seceda_netlist::NetlistError;
use seceda_sat::{AigLit, Budget, FaultMiter, FaultVerdict};
use seceda_sim::{fault::stuck_at_universe, Fault, FaultKind};

/// Result of the formal detection proof.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionProof {
    /// Faults proven always-detected-or-masked.
    pub proven: usize,
    /// Faults with a silent-corruption witness: `(fault, inputs)`.
    pub violations: Vec<(Fault, Vec<bool>)>,
    /// Faults whose proof query exhausted its budget before deciding
    /// (always empty under [`Budget::unlimited`]). An undecided fault is
    /// a hole in the proof, so [`DetectionProof::holds`] is `false` while
    /// any remain.
    pub undecided: Vec<Fault>,
    /// Faults analyzed in total.
    pub total: usize,
}

impl DetectionProof {
    /// `true` when the detection property is *proven* for every fault —
    /// no violation witnesses and no budget-starved undecided queries.
    pub fn holds(&self) -> bool {
        self.violations.is_empty() && self.undecided.is_empty()
    }
}

/// Proves (or refutes) single-fault detection for a protected netlist:
/// for each fault over gate-output nets, search for an input where the
/// functional outputs differ but the alarm stays low.
///
/// Only gate-output faults are considered; faults on shared primary
/// inputs are common-mode and outside any detection scheme's contract.
///
/// `budget` caps the conflicts of the whole proof loop (each per-fault
/// query gets whatever the previous queries left), so which faults end
/// undecided is a pure function of the design and the budget. A query
/// whose budget runs out degrades *that fault* to
/// [`DetectionProof::undecided`] — the loop keeps going, so one
/// pathological fault cannot wedge the whole proof, but the final proof
/// honestly reports its holes via [`DetectionProof::holds`].
///
/// Because the budget is metered over the whole loop, *which* faults
/// end undecided depends on fault order, not on how hard each fault is:
/// the first hard fault spends the budget, and every later fault that
/// needs a solve ends undecided, easy or not. On `parity_protect` of a
/// 60-gate random host (8 inputs, 4 outputs, seed 2), budgets 1 to 16
/// leave the same 68 holes as budget 0.
///
/// # Errors
///
/// Propagates encoding errors.
///
/// # Panics
///
/// Panics if the design has no alarm output.
pub fn prove_detection(
    protected: &ProtectedNetlist,
    budget: &Budget,
) -> Result<DetectionProof, NetlistError> {
    let alarm_index = protected
        .alarm_index
        .expect("detection proof needs an alarm output");
    let nl = &protected.netlist;
    let faults: Vec<Fault> = stuck_at_universe(nl)
        .into_iter()
        .filter(|f| nl.net(f.net).driver.is_some())
        .collect();
    let mut miter = FaultMiter::new(nl)?;
    let mut proven = 0usize;
    let mut violations = Vec::new();
    let mut undecided = Vec::new();
    for &fault in &faults {
        let faulty = |good: AigLit| match fault.kind {
            FaultKind::StuckAt0 => AigLit::FALSE,
            FaultKind::StuckAt1 => AigLit::TRUE,
            FaultKind::BitFlip => !good,
        };
        // the remaining budget is whatever earlier queries did not spend
        let solver = miter.solver();
        let sub = budget.minus(solver.num_conflicts);
        // some functional output differs while the faulty design's
        // alarm stays low
        match miter.query(
            fault.net,
            faulty,
            |k| k != alarm_index,
            &[(alarm_index, false)],
            &sub,
        ) {
            FaultVerdict::Unexposable => proven += 1,
            FaultVerdict::Exposed(witness) => violations.push((fault, witness)),
            FaultVerdict::Undecided(_) => undecided.push(fault),
        }
    }
    if !undecided.is_empty() {
        seceda_trace::counter("verif.undecided_faults", undecided.len() as u64);
    }
    Ok(DetectionProof {
        proven,
        violations,
        undecided,
        total: faults.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_fia::codes::{duplicate_with_compare, parity_protect};
    use seceda_netlist::{majority, random_circuit, RandomCircuitConfig};
    use seceda_sim::FaultSim;

    /// A fault's verdict: `None` while undecided, `Some(None)` proven,
    /// `Some(Some(witness))` violated.
    type Verdict = Option<Option<Vec<bool>>>;

    fn verdicts(proof: &DetectionProof, faults: &[Fault]) -> Vec<Verdict> {
        faults
            .iter()
            .map(|f| {
                if proof.undecided.contains(f) {
                    return None;
                }
                let witness = proof.violations.iter().find(|(v, _)| v == f);
                Some(witness.map(|(_, w)| w.clone()))
            })
            .collect()
    }

    /// The outputs under one stimulus with `faults` active: one packed
    /// pass with the stimulus in bit 0.
    fn faulty_outputs(sim: &FaultSim, inputs: &[bool], faults: &[Fault]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        let sites: Vec<(Fault, u64)> = faults.iter().map(|&f| (f, u64::MAX)).collect();
        let outs = sim.eval_outputs_with_faults(&words, &sites);
        outs.iter().map(|w| w & 1 == 1).collect()
    }

    #[test]
    fn dwc_detection_is_provable() {
        let p = duplicate_with_compare(&majority());
        let proof = prove_detection(&p, &Budget::unlimited()).expect("prove");
        assert!(
            proof.holds(),
            "duplication-with-compare must be provably single-fault secure: {:?}",
            proof.violations
        );
        assert_eq!(proof.proven, proof.total);
    }

    #[test]
    fn starved_proof_reports_undecided_holes_instead_of_wedging() {
        let p = duplicate_with_compare(&majority());
        let starved = Budget::unlimited().with_max_conflicts(0);
        let proof = prove_detection(&p, &starved).expect("prove");
        assert!(
            !proof.undecided.is_empty(),
            "a zero-conflict budget must leave queries undecided"
        );
        assert!(!proof.holds(), "undecided faults are holes in the proof");
        assert!(proof.violations.is_empty(), "no false violations");
        // structurally-proven faults need no solver call and still count
        assert_eq!(
            proof.proven + proof.undecided.len(),
            proof.total,
            "every fault is either proven structurally or undecided"
        );
        // the same proof with an unlimited budget has no holes
        let full = prove_detection(&p, &Budget::unlimited()).expect("prove");
        assert!(full.holds());
        assert!(full.undecided.is_empty());
    }

    #[test]
    fn conflict_budget_ladder_meters_the_whole_proof() {
        // the budget caps the whole proof loop, so a larger budget replays
        // a smaller one's queries and decides more: every verdict reached
        // at one rung survives to the next, and the holes only shrink
        let random = random_circuit(&RandomCircuitConfig {
            num_inputs: 8,
            num_gates: 60,
            num_outputs: 4,
            with_xor: true,
            seed: 2,
        });
        let mut partial = 0usize;
        for p in [
            duplicate_with_compare(&majority()),
            parity_protect(&majority()),
            duplicate_with_compare(&random),
            parity_protect(&random),
        ] {
            let faults: Vec<Fault> = stuck_at_universe(&p.netlist)
                .into_iter()
                .filter(|f| p.netlist.net(f.net).driver.is_some())
                .collect();
            let full = prove_detection(&p, &Budget::unlimited()).expect("prove");
            let starved =
                prove_detection(&p, &Budget::unlimited().with_max_conflicts(0)).expect("prove");
            let mut previous = verdicts(&starved, &faults);
            let mut b = 1u64;
            loop {
                let proof =
                    prove_detection(&p, &Budget::unlimited().with_max_conflicts(b)).expect("prove");
                let current = verdicts(&proof, &faults);
                for ((f, was), now) in faults.iter().zip(&previous).zip(&current) {
                    if was.is_some() {
                        assert_eq!(was, now, "budget {b}: the verdict on {f:?} moved");
                    }
                }
                previous = current;
                if proof.undecided.is_empty() {
                    assert_eq!(
                        proof, full,
                        "budget {b}: a closed proof must equal the unlimited one"
                    );
                    break;
                }
                partial += usize::from(proof.undecided.len() < starved.undecided.len());
                assert!(b < 1 << 20, "the ladder must close the proof");
                b *= 2;
            }
        }
        assert!(partial > 0, "some rung must leave a proof half done");
    }

    #[test]
    fn unprotected_design_with_fake_alarm_fails_with_witness() {
        // alarm output is a constant 0 — every corrupting fault violates
        let mut nl = majority();
        let zero = nl.add_gate(seceda_netlist::CellKind::Const0, &[]);
        nl.mark_output(zero, "alarm");
        let fake = ProtectedNetlist {
            netlist: nl.clone(),
            alarm_index: Some(1),
        };
        let proof = prove_detection(&fake, &Budget::unlimited()).expect("prove");
        assert!(!proof.holds());
        // each witness must actually demonstrate silent corruption
        let sim = FaultSim::new(&nl).expect("sim");
        for (fault, inputs) in &proof.violations {
            let good = nl.evaluate(inputs);
            let bad = faulty_outputs(&sim, inputs, &[*fault]);
            assert_ne!(good[0], bad[0], "functional output must differ");
            assert!(!bad[1], "alarm must stay low");
        }
    }

    #[test]
    fn alarm_comparing_one_output_misses_faults_on_the_other() {
        // out0 = (a & b) | c is duplicated and compared; out1 = (a & b) ^ c
        // shares the AND but is not. A fault on the shared AND reaches
        // the alarm (its faulty literal comes from the cone) and still
        // escapes it whenever c = 1 masks the change at out0.
        use seceda_netlist::{CellKind, Netlist};
        let mut nl = Netlist::new("half_dwc");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_gate(CellKind::And, &[a, b]);
        let out0 = nl.add_gate(CellKind::Or, &[t, c]);
        let out1 = nl.add_gate(CellKind::Xor, &[t, c]);
        let t_dup = nl.add_gate(CellKind::And, &[a, b]);
        let out0_dup = nl.add_gate(CellKind::Or, &[t_dup, c]);
        let alarm = nl.add_gate(CellKind::Xor, &[out0, out0_dup]);
        nl.mark_output(out0, "out0");
        nl.mark_output(out1, "out1");
        nl.mark_output(alarm, "alarm");
        let p = ProtectedNetlist {
            netlist: nl.clone(),
            alarm_index: Some(2),
        };
        let proof = prove_detection(&p, &Budget::unlimited()).expect("prove");
        let mut violating: Vec<Fault> = proof.violations.iter().map(|&(f, _)| f).collect();
        violating.sort_by_key(|f| (f.net.index(), f.kind == FaultKind::StuckAt1));
        let expected: Vec<Fault> = [t, out1]
            .iter()
            .flat_map(|&n| [Fault::stuck_at(n, false), Fault::stuck_at(n, true)])
            .collect();
        assert_eq!(
            violating, expected,
            "exactly the faults on out1's cone escape the alarm"
        );
        // every fault on the compared cone (out0, its duplicate, the
        // alarm itself) is proven
        assert_eq!(proof.proven, proof.total - expected.len());
        assert!(proof.undecided.is_empty());
        let sim = FaultSim::new(&nl).expect("sim");
        for (fault, inputs) in &proof.violations {
            let good = nl.evaluate(inputs);
            let bad = faulty_outputs(&sim, inputs, &[*fault]);
            assert!(
                good[..2] != bad[..2],
                "{fault:?}: a functional output must differ"
            );
            assert!(!bad[2], "{fault:?}: alarm must stay low");
        }
    }
}
