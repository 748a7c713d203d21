//! Property-based tests for the SAT solver and the netlist encoder.

use seceda_sat::{encode_netlist, Budget, Cnf, Lit, SolveOutcome, Solver};
use seceda_testkit::prelude::*;

fn random_cnf(num_vars: usize, clause_spec: &[Vec<(usize, bool)>]) -> Cnf {
    let mut cnf = Cnf::new();
    let vars = cnf.new_vars(num_vars);
    for clause in clause_spec {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, sign)| vars[v % num_vars].lit(sign))
            .collect();
        cnf.add_clause(lits);
    }
    cnf
}

fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    (0..(1u32 << n)).any(|m| {
        let model: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
        cnf.is_satisfied_by(&model)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_agrees_with_brute_force(
        num_vars in 2usize..9,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
            0..30
        ),
    ) {
        let cnf = random_cnf(num_vars, &clauses);
        let brute = brute_force_sat(&cnf);
        let result = Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited());
        prop_assert_eq!(result.is_sat(), brute);
        if let SolveOutcome::Sat(model) = result {
            prop_assert!(cnf.is_satisfied_by(&model));
        }
    }

    #[test]
    fn assumptions_behave_like_units(
        num_vars in 2usize..8,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
            1..20
        ),
        assumption_spec in proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
    ) {
        let cnf = random_cnf(num_vars, &clauses);
        let mut with_units = cnf.clone();
        let mut assumptions = Vec::new();
        {
            // reconstruct the vars by index
            for &(v, sign) in &assumption_spec {
                let var = seceda_sat::Var::from_index(v % num_vars);
                assumptions.push(var.lit(sign));
                with_units.add_clause([var.lit(sign)]);
            }
        }
        let via_assumptions = Solver::from_cnf(&cnf)
            .solve(&assumptions, &Budget::unlimited())
            .is_sat();
        let via_units = Solver::from_cnf(&with_units).solve(&[], &Budget::unlimited()).is_sat();
        prop_assert_eq!(via_assumptions, via_units);
    }

    #[test]
    fn solver_is_reusable_across_queries(
        num_vars in 2usize..7,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
            1..15
        ),
    ) {
        let cnf = random_cnf(num_vars, &clauses);
        let expect = Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited()).is_sat();
        let mut solver = Solver::from_cnf(&cnf);
        for _ in 0..3 {
            prop_assert_eq!(solver.solve(&[], &Budget::unlimited()).is_sat(), expect);
        }
    }

    #[test]
    fn reduce_db_never_flips_result(
        num_vars in 2usize..9,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
            0..30
        ),
    ) {
        // an aggressively small pinned clause budget forces constant
        // database reduction; satisfiability must be unaffected
        let cnf = random_cnf(num_vars, &clauses);
        let brute = brute_force_sat(&cnf);
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_reduce_db_limit(16);
        let result = solver.solve(&[], &Budget::unlimited());
        prop_assert_eq!(result.is_sat(), brute);
        if let SolveOutcome::Sat(model) = result {
            prop_assert!(cnf.is_satisfied_by(&model));
        }
        // the solver stays sound for reuse after reductions
        prop_assert_eq!(solver.solve(&[], &Budget::unlimited()).is_sat(), brute);
    }

    #[test]
    fn heap_decide_matches_linear_scan(
        num_vars in 2usize..9,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
            1..30
        ),
    ) {
        // the order heap must pick exactly the variable a linear argmax
        // over VSIDS activities would pick: highest activity, lowest
        // index on ties — both on a fresh solver (all activities equal)
        // and after a solve has bumped and rescaled activities
        let cnf = random_cnf(num_vars, &clauses);
        let mut solver = Solver::from_cnf(&cnf);
        let check = |solver: &mut Solver| {
            let heap_pick = solver.next_decision_var();
            let mut best: Option<seceda_sat::Var> = None;
            for i in 0..solver.num_vars() {
                let v = seceda_sat::Var::from_index(i);
                if solver.var_value(v).is_some() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => solver.var_activity(v) > solver.var_activity(b),
                };
                if better {
                    best = Some(v);
                }
            }
            (heap_pick, best)
        };
        let (h0, l0) = check(&mut solver);
        prop_assert_eq!(h0, l0, "fresh solver");
        solver.solve(&[], &Budget::unlimited());
        let (h1, l1) = check(&mut solver);
        prop_assert_eq!(h1, l1, "after solve");
    }

    #[test]
    fn encoded_circuit_models_respect_simulation(seed in 0u64..3000, gates in 3usize..25) {
        let nl = seceda_netlist::random_circuit(&seceda_netlist::RandomCircuitConfig {
            num_inputs: 4,
            num_gates: gates,
            num_outputs: 2,
            with_xor: true,
            seed,
        });
        let mut cnf = Cnf::new();
        let enc = encode_netlist(&nl, &mut cnf).expect("encode");
        // any unconstrained model of the encoding must be consistent with
        // simulating the circuit on the model's own inputs
        if let SolveOutcome::Sat(model) = Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited()) {
            let inputs: Vec<bool> = enc.input_vars.iter().map(|v| model[v.index()]).collect();
            let expected = nl.evaluate(&inputs);
            let got: Vec<bool> = enc.output_vars.iter().map(|v| model[v.index()]).collect();
            prop_assert_eq!(got, expected);
        } else {
            prop_assert!(false, "circuit encodings are always satisfiable");
        }
    }
}
