//! The AIG lowering against the per-net Tseitin oracle: fault-query
//! verdicts of [`FaultMiter`] and equivalence verdicts of [`miter`] must
//! match the oracle's on random designs (sequential ones under register
//! correspondence), and every fault and equivalence witness must be
//! confirmed by direct evaluation.

#[path = "oracle/tseitin.rs"]
mod tseitin;

use seceda_netlist::{random_circuit, CellKind, GateId, NetId, Netlist, RandomCircuitConfig};
use seceda_sat::{
    miter, Aig, AigCnf, AigLit, Budget, FaultMiter, FaultVerdict, SolveOutcome, Solver,
};
use tseitin::TseitinFaults;

/// A random design; some seeds add an undriven net feeding an output,
/// others a DFF whose free state reaches an output.
fn design(seed: u64) -> Netlist {
    let num_inputs = 3 + (seed % 4) as usize;
    let mut nl = random_circuit(&RandomCircuitConfig {
        num_inputs,
        num_gates: 5 + (seed * 7 % 36) as usize,
        num_outputs: 1 + (seed % 4) as usize,
        with_xor: !seed.is_multiple_of(3),
        seed,
    });
    let (i0, i1) = (nl.inputs()[0], nl.inputs()[1]);
    if seed.is_multiple_of(5) {
        let ghost = nl.add_net();
        let y = nl.add_gate(CellKind::And, &[i0, ghost]);
        nl.mark_output(y, "ghost_y");
    }
    if seed % 7 == 3 {
        let o = nl.outputs()[0].0;
        let q = nl.add_gate(CellKind::Dff, &[o]);
        let y = nl.add_gate(CellKind::Xor, &[q, i1]);
        nl.mark_output(y, "seq_y");
    }
    nl
}

/// The outputs of `nl` under `inputs` with `net` stuck at `Some(v)` or
/// flipped for `None`; undriven nets read 0.
fn eval_faulty(nl: &Netlist, inputs: &[bool], net: NetId, stuck: Option<bool>) -> Vec<bool> {
    let mut v = vec![false; nl.num_nets()];
    for (&pi, &b) in nl.inputs().iter().zip(inputs) {
        v[pi.index()] = b;
    }
    let force = |v: &mut Vec<bool>| v[net.index()] = stuck.unwrap_or(!v[net.index()]);
    if nl.net(net).driver.is_none() {
        force(&mut v);
    }
    for gid in nl.topo_order().expect("acyclic") {
        let g = nl.gate(gid);
        let ins: Vec<bool> = g.inputs.iter().map(|&i| v[i.index()]).collect();
        v[g.output.index()] = g.kind.eval(&ins);
        if g.output == net {
            force(&mut v);
        }
    }
    nl.outputs().iter().map(|&(o, _)| v[o.index()]).collect()
}

/// A query shape: the watched outputs and the required faulty values.
type Shape<'a> = (&'a dyn Fn(usize) -> bool, &'a [(usize, bool)]);

fn aig_fault(stuck: Option<bool>) -> impl Fn(AigLit) -> AigLit {
    move |good| stuck.map_or(!good, AigLit::constant)
}

#[test]
fn fault_miter_verdicts_match_tseitin_on_random_designs() {
    let unlimited = Budget::unlimited();
    let (mut queries, mut exposed) = (0usize, 0usize);
    for seed in 0..220u64 {
        let nl = design(seed);
        let n_out = nl.outputs().len();
        let alarm = n_out - 1;
        let combinational = nl.is_combinational();
        let mut fm = FaultMiter::new(&nl).expect("lower");
        let mut oracle = TseitinFaults::new(&nl);
        for k in 0..nl.num_nets() {
            let net = NetId::from_index(k);
            for stuck in [Some(false), Some(true), None] {
                // sensitization (ATPG), then silent corruption past an
                // alarm on the last output (coverage proof)
                let shapes: [Shape; 2] = [(&|_| true, &[]), (&|o| o != alarm, &[(alarm, false)])];
                for (watched, require) in shapes {
                    queries += 1;
                    let got = fm.query(net, aig_fault(stuck), watched, require, &unlimited);
                    let want = oracle.query(net, stuck, watched, require);
                    match (&got, &want) {
                        (FaultVerdict::Exposed(p), Some(_)) => {
                            exposed += 1;
                            if !combinational {
                                continue; // the witness state is not reported
                            }
                            let good = nl.evaluate(p);
                            let bad = eval_faulty(&nl, p, net, stuck);
                            assert!(
                                (0..n_out).any(|o| watched(o) && good[o] != bad[o]),
                                "seed {seed} net {k} {stuck:?}: witness {p:?} shows nothing"
                            );
                            for &(port, value) in require {
                                assert_eq!(bad[port], value, "seed {seed} net {k}");
                            }
                        }
                        (FaultVerdict::Unexposable, None) => {}
                        _ => panic!("seed {seed} net {k} {stuck:?}: AIG {got:?}, Tseitin {want:?}"),
                    }
                }
            }
        }
    }
    assert!(
        queries > 30_000 && exposed > queries / 4,
        "{exposed} of {queries}"
    );
}

/// `check_equivalence`'s decision procedure: the AIG miter, solved
/// unless it folds to false.
fn aig_equivalent(a: &Netlist, b: &Netlist) -> bool {
    let mut solver = Solver::new(0);
    let const_false = solver.new_var().pos();
    solver.add_clause([!const_false]);
    let mut aig = Aig::new();
    let m = miter(a, b, a.inputs().len(), &mut aig, &mut solver).expect("miter");
    if m.diff == AigLit::FALSE {
        return true;
    }
    let diff = AigCnf::new(const_false).lit_of(&aig, m.diff, &mut solver);
    match solver.solve(&[diff], &Budget::unlimited()) {
        SolveOutcome::Sat(model) => {
            // inputs, then the shared state: outputs or next state differ
            let bits: Vec<bool> = m.vars.iter().map(|v| model[v.index()]).collect();
            let (x, state) = bits.split_at(a.inputs().len());
            assert_ne!(
                a.step(x, state).expect("step a"),
                b.step(x, state).expect("step b"),
                "counterexample must differ"
            );
            false
        }
        SolveOutcome::Unsat => true,
        other => panic!("unlimited solve stopped: {other:?}"),
    }
}

fn tseitin_equivalent(a: &Netlist, b: &Netlist) -> bool {
    let mut solver = Solver::new(0);
    let (_, _, diff) = tseitin::miter(a, b, a.inputs().len(), &mut solver).expect("miter");
    solver.solve(&[diff], &Budget::unlimited()) == SolveOutcome::Unsat
}

/// `nl` with the first gate from `pick` on whose kind has an inverted
/// twin (AND/NAND, OR/NOR, XOR/XNOR) swapped for it.
fn mutate(nl: &Netlist, pick: usize) -> Netlist {
    let mut m = nl.clone();
    let n = m.num_gates();
    for off in 0..n {
        let g = m.gate_mut(GateId::from_index((pick + off) % n));
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

#[test]
fn miter_verdicts_match_tseitin_on_random_pairs() {
    let (mut equal, mut differ) = (0, 0);
    for seed in 0..200u64 {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 4 + (seed % 4) as usize,
            num_gates: 10 + (seed * 5 % 40) as usize,
            num_outputs: 1 + (seed % 3) as usize,
            with_xor: seed % 2 == 0,
            seed,
        });
        for other in [nl.clone(), mutate(&nl, seed as usize)] {
            let verdict = aig_equivalent(&nl, &other);
            assert_eq!(verdict, tseitin_equivalent(&nl, &other), "seed {seed}");
            if verdict {
                equal += 1;
            } else {
                differ += 1;
            }
        }
    }
    assert!(
        equal >= 200 && differ > 50,
        "{equal} equal, {differ} differ"
    );
}

#[test]
fn sequential_miter_verdicts_match_tseitin_under_register_correspondence() {
    let (mut equal, mut differ) = (0, 0);
    // the seeds whose design carries a DFF
    for seed in (3..700u64).step_by(7) {
        let nl = design(seed);
        assert_eq!(nl.dffs().len(), 1, "seed {seed}");
        for other in [nl.clone(), mutate(&nl, seed as usize)] {
            let verdict = aig_equivalent(&nl, &other);
            assert_eq!(verdict, tseitin_equivalent(&nl, &other), "seed {seed}");
            if verdict {
                equal += 1;
            } else {
                differ += 1;
            }
        }
    }
    assert!(
        equal >= 100 && differ > 25,
        "{equal} equal, {differ} differ"
    );
}
