//! Coverage proofs and equivalence checking on the AIG against the
//! per-net Tseitin oracle of `seceda-sat`.
//!
//! Fault-cone verdicts for stuck-at-0, stuck-at-1 and bit-flip faults
//! must match the oracle's on bare hosts (behind a constant-0 alarm, so
//! every fault that reaches an output is a violation) and on
//! duplicate-with-compare hosts; every violation witness must replay
//! under `FaultSim`; equivalence verdicts on synthesized pairs, and on
//! pairs with one corrupted gate, must match the oracle's miter. The
//! small sweeps run in the debug suite; the #[ignore]d 1k-gate sweep
//! runs in release from `scripts/verify.sh`.

#[path = "../../sat/tests/oracle/tseitin.rs"]
mod tseitin;

use seceda_fia::codes::{duplicate_with_compare, ProtectedNetlist};
use seceda_netlist::{random_circuit, CellKind, GateId, Netlist, RandomCircuitConfig};
use seceda_sat::{AigLit, Budget, FaultMiter, FaultVerdict, SolveOutcome, Solver};
use seceda_sim::{fault::stuck_at_universe, Fault, FaultKind, FaultSim};
use seceda_synth::{map_to_nand, optimize, SynthesisMode};
use seceda_verif::{check_equivalence, prove_detection, EquivResult};
use tseitin::TseitinFaults;

fn host(seed: u64, inputs: usize, gates: usize, outputs: usize) -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: inputs,
        num_gates: gates,
        num_outputs: outputs,
        with_xor: true,
        seed,
    })
}

/// `nl` behind an alarm output that never fires.
fn bare(nl: &Netlist) -> ProtectedNetlist {
    let mut netlist = nl.clone();
    let zero = netlist.add_gate(CellKind::Const0, &[]);
    netlist.mark_output(zero, "alarm");
    ProtectedNetlist {
        alarm_index: Some(netlist.outputs().len() - 1),
        netlist,
    }
}

/// The outputs under one stimulus with `fault` active.
fn faulty_outputs(sim: &FaultSim, inputs: &[bool], fault: Fault) -> Vec<bool> {
    let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
    let outs = sim.eval_outputs_with_faults(&words, &[(fault, u64::MAX)]);
    outs.iter().map(|w| w & 1 == 1).collect()
}

/// Checks `prove_detection` (stuck-at faults) and direct
/// [`FaultMiter`] queries (bit flips) against the oracle on every
/// `stride`-th fault; returns the number of violations found among them.
fn check_against_oracle(p: &ProtectedNetlist, stride: usize) -> usize {
    let nl = &p.netlist;
    let alarm = p.alarm_index.expect("alarm");
    let functional = |k: usize| k != alarm;
    let require = [(alarm, false)];
    let sim = FaultSim::new(nl).expect("sim");
    let mut oracle = TseitinFaults::new(nl);
    let replay = |f: Fault, inputs: &[bool]| {
        let good = nl.evaluate(inputs);
        let bad = faulty_outputs(&sim, inputs, f);
        assert!(
            (0..good.len()).any(|k| functional(k) && good[k] != bad[k]),
            "{f:?}: a functional output must differ"
        );
        assert!(!bad[alarm], "{f:?}: the alarm must stay low");
    };

    let proof = prove_detection(p, &Budget::unlimited()).expect("prove");
    let faults: Vec<Fault> = stuck_at_universe(nl)
        .into_iter()
        .filter(|f| nl.net(f.net).driver.is_some())
        .collect();
    let sampled: Vec<Fault> = faults.iter().copied().step_by(stride).collect();
    let mut expected = Vec::new();
    for &f in &sampled {
        let stuck = Some(f.kind == FaultKind::StuckAt1);
        if oracle.query(f.net, stuck, functional, &require).is_some() {
            expected.push(f);
        }
    }
    assert!(proof.undecided.is_empty());
    assert_eq!(proof.proven + proof.violations.len(), proof.total);
    let violating: Vec<Fault> = proof
        .violations
        .iter()
        .map(|&(f, _)| f)
        .filter(|f| sampled.contains(f))
        .collect();
    assert_eq!(violating, expected, "stuck-at verdicts diverge");
    for (f, inputs) in &proof.violations {
        replay(*f, inputs);
    }

    let mut miter = FaultMiter::new(nl).expect("lower");
    let mut flips = 0;
    for net in faults.iter().step_by(2 * stride).map(|f| f.net) {
        let got = miter.query(
            net,
            |g: AigLit| !g,
            functional,
            &require,
            &Budget::unlimited(),
        );
        let want = oracle.query(net, None, functional, &require);
        match got {
            FaultVerdict::Exposed(inputs) => {
                assert!(
                    want.is_some(),
                    "flip on {net:?}: AIG exposes, Tseitin does not"
                );
                replay(Fault::flip(net), &inputs);
                flips += 1;
            }
            FaultVerdict::Unexposable => assert!(want.is_none(), "flip on {net:?} diverges"),
            FaultVerdict::Undecided(r) => panic!("unlimited query stopped: {r}"),
        }
    }
    violating.len() + flips
}

fn tseitin_equivalent(a: &Netlist, b: &Netlist) -> bool {
    let mut solver = Solver::new(0);
    let (_, _, diff) = tseitin::miter(a, b, a.inputs().len(), &mut solver).expect("miter");
    solver.solve(&[diff], &Budget::unlimited()) == SolveOutcome::Unsat
}

/// `nl` with its `k`-th invertible gate (AND/NAND, OR/NOR, XOR/XNOR)
/// swapped for its complement.
fn corrupt(nl: &Netlist, k: usize) -> Netlist {
    let mut m = nl.clone();
    let n = m.num_gates();
    for off in 0..n {
        let g = m.gate_mut(GateId::from_index((k + off) % n));
        g.kind = match g.kind {
            CellKind::And => CellKind::Nand,
            CellKind::Nand => CellKind::And,
            CellKind::Or => CellKind::Nor,
            CellKind::Nor => CellKind::Or,
            CellKind::Xor => CellKind::Xnor,
            CellKind::Xnor => CellKind::Xor,
            _ => continue,
        };
        break;
    }
    m
}

/// Equivalence verdicts against the oracle on `nl` paired with its
/// synthesized forms and with corrupted copies of them; returns the
/// (equivalent, different) pair counts.
fn check_equivalence_against_oracle(nl: &Netlist, seed: usize) -> (usize, usize) {
    let optimized = optimize(nl, SynthesisMode::Classical);
    let secure = optimize(nl, SynthesisMode::SecurityAware);
    let mapped = map_to_nand(nl);
    let mut counts = (0, 0);
    for other in [&optimized, &secure, &mapped] {
        for candidate in [other.clone(), corrupt(other, seed)] {
            let verdict = check_equivalence(nl, &candidate).expect("check");
            assert_eq!(
                verdict.is_equivalent(),
                tseitin_equivalent(nl, &candidate),
                "seed {seed}: equivalence verdicts diverge"
            );
            match verdict {
                EquivResult::Equivalent => counts.0 += 1,
                EquivResult::Counterexample(x) => {
                    assert_ne!(nl.evaluate(&x), candidate.evaluate(&x));
                    counts.1 += 1;
                }
            }
        }
    }
    counts
}

#[test]
fn fault_verdicts_match_tseitin_on_small_bare_and_dwc_hosts() {
    let mut violations = 0;
    for seed in 0..24u64 {
        let nl = host(
            seed,
            4 + (seed % 4) as usize,
            10 + (seed * 7 % 40) as usize,
            3,
        );
        violations += check_against_oracle(&bare(&nl), 1);
        let dwc = duplicate_with_compare(&nl);
        assert_eq!(
            check_against_oracle(&dwc, 1),
            0,
            "seed {seed}: DWC must hold"
        );
    }
    assert!(violations > 500, "{violations}");
}

#[test]
fn equivalence_verdicts_match_tseitin_on_synthesized_pairs() {
    let (mut equal, mut differ) = (0, 0);
    for seed in 0..40u64 {
        let nl = host(
            seed,
            5 + (seed % 3) as usize,
            8 + (seed * 5 % 30) as usize,
            3,
        );
        let (e, d) = check_equivalence_against_oracle(&nl, seed as usize);
        equal += e;
        differ += d;
    }
    assert!(
        equal >= 120 && differ > 60,
        "{equal} equal, {differ} differ"
    );
}

#[test]
#[ignore = "1k-gate sweep, run in release by scripts/verify.sh"]
fn fault_and_equivalence_verdicts_match_tseitin_on_1k_gate_hosts() {
    // the oracle is the slow side (DWC proofs are real equivalence
    // proofs for it), so it checks every fifth fault
    for seed in 0..2u64 {
        let nl = host(0xA16 + seed, 24, 1_000, 12);
        assert!(check_against_oracle(&bare(&nl), 5) > 0, "seed {seed}");
        let dwc = duplicate_with_compare(&nl);
        assert_eq!(
            check_against_oracle(&dwc, 5),
            0,
            "seed {seed}: DWC must hold"
        );
        let (_, differ) = check_equivalence_against_oracle(&nl, seed as usize);
        assert!(differ > 0, "seed {seed}");
    }
}
