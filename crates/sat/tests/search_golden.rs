//! Search-identity golden: pins the solver's exact search, not just its
//! verdicts.
//!
//! Every case records the work counters (`num_conflicts`,
//! `num_decisions`, `num_propagations`, `num_learned`,
//! `num_minimized_lits`, `num_db_reductions`) and the returned model. A
//! change to the solver's data structures that claims to run the same
//! search must leave every value here as it is: one decision taken in a
//! different order, one watch visited out of turn or one literal learned
//! in another position moves them. A change that alters the search on
//! purpose re-records them and says why.

use seceda_lock::{sat_attack, xor_lock};
use seceda_netlist::{random_circuit, RandomCircuitConfig};
use seceda_sat::{Budget, Cnf, CnfBuilder, Lit, SolveOutcome, Solver, Var};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// What one solve did: the six work counters, in the order of the
/// module doc, and the model (one hex digit per four variables, lowest
/// variable in the lowest bit of the first digit) or `None` if
/// unsatisfiable.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Search {
    counters: [u64; 6],
    model: Option<String>,
}

fn search(counters: [u64; 6], model: Option<&str>) -> Search {
    Search {
        counters,
        model: model.map(str::to_owned),
    }
}

fn observe(solver: &Solver, outcome: &SolveOutcome) -> Search {
    let model = match outcome {
        SolveOutcome::Sat(model) => Some(
            model
                .chunks(4)
                .map(|nibble| {
                    let digit = nibble
                        .iter()
                        .enumerate()
                        .fold(0u32, |d, (i, &b)| d | u32::from(b) << i);
                    char::from_digit(digit, 16).expect("a nibble")
                })
                .collect(),
        ),
        SolveOutcome::Unsat => None,
        SolveOutcome::Indeterminate(reason) => panic!("unlimited solve stopped: {reason}"),
    };
    Search {
        counters: [
            solver.num_conflicts,
            solver.num_decisions,
            solver.num_propagations,
            solver.num_learned,
            solver.num_minimized_lits,
            solver.num_db_reductions,
        ],
        model,
    }
}

fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
    let mut cnf = Cnf::new();
    let grid: Vec<Vec<Var>> = (0..pigeons).map(|_| cnf.new_vars(holes)).collect();
    for row in &grid {
        cnf.add_clause(row.iter().map(|v| v.pos()));
    }
    for h in 0..holes {
        for (p, row) in grid.iter().enumerate() {
            for other in &grid[p + 1..] {
                cnf.add_clause([row[h].neg(), other[h].neg()]);
            }
        }
    }
    cnf
}

/// PHP(6,5) under a pinned reduction limit of 16: the only case here
/// that compacts the learned-clause database, many times over.
#[test]
fn pigeonhole_with_forced_reductions_searches_as_recorded() {
    let mut solver = Solver::from_cnf(&pigeonhole(6, 5));
    solver.set_reduce_db_limit(16);
    let outcome = solver.solve(&[], &Budget::unlimited());
    assert_eq!(
        observe(&solver, &outcome),
        search([8931, 18984, 135820, 8930, 6272, 1102], None)
    );
}

/// A random formula over `num_vars` variables, 3.7 clauses per variable,
/// of which one in ten is binary and one in ten has four literals, the
/// rest three: near the satisfiability threshold, so some seeds are
/// satisfiable and some not. Its root units come in two
/// halves: the first before the clauses, so `add_clause` strips root-false
/// literals on the way in, the second after them, so learned-clause
/// reduction strips them later. Either way long clauses shrink to
/// binaries.
fn mixed_formula(seed: u64, num_vars: usize) -> Solver {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut solver = Solver::new(num_vars);
    let lit = |rng: &mut StdRng| Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5));
    let units: Vec<Lit> = (0..4).map(|_| lit(&mut rng)).collect();
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for i in 0..num_vars * 37 / 10 {
        let width = match i % 10 {
            0 => 2,
            9 => 4,
            _ => 3,
        };
        clauses.push((0..width).map(|_| lit(&mut rng)).collect());
    }
    // clauses that contain a unit's complement shrink when it is set
    for (k, &u) in units.iter().enumerate() {
        let a = lit(&mut rng);
        let b = lit(&mut rng);
        clauses.push(vec![!u, a, b]);
        clauses.push(vec![a, !u, b, !units[(k + 1) % units.len()]]);
    }
    let (before, after) = units.split_at(2);
    for &u in before {
        solver.add_clause([u]);
    }
    for c in clauses {
        solver.add_clause(c);
    }
    for &u in after {
        solver.add_clause([u]);
    }
    solver
}

#[test]
fn mixed_binary_ternary_formulas_search_as_recorded() {
    let cases = [(0, 200), (4, 200), (5, 200), (2, 250), (3, 250), (5, 250)];
    let expected = [
        search([53, 123, 2480, 52, 48, 8], None),
        search(
            [133, 461, 8197, 133, 147, 31],
            Some("1ba54686ed4285162916a1c0ee4d253ea09d3656f3c4786276"),
        ),
        search([89, 195, 4493, 88, 85, 17], None),
        search(
            [623, 1777, 48432, 623, 1091, 151],
            Some("c96cedb6c12d7cc2cdd01e58bab9f0243739cc3f542136c5b2720c92e959a60"),
        ),
        search([564, 1321, 35932, 563, 828, 127], None),
        search(
            [159, 576, 11224, 159, 139, 37],
            Some("c3e11057de1626a86e506a172985746239e1ca32eb5052235b4fbaa4dd29a50"),
        ),
    ];
    let got: Vec<Search> = cases
        .iter()
        .map(|&(seed, num_vars)| {
            let mut solver = mixed_formula(seed, num_vars);
            solver.set_reduce_db_limit(8);
            let outcome = solver.solve(&[], &Budget::unlimited());
            observe(&solver, &outcome)
        })
        .collect();
    assert_eq!(got, expected);
}

/// One solver through a sequence of solves under changing assumptions,
/// with clauses and variables added in between: the learned clauses,
/// activities and saved phases of each step steer the next.
#[test]
fn incremental_sequence_searches_as_recorded() {
    let mut solver = mixed_formula(5, 250);
    let mut rng = StdRng::seed_from_u64(71);
    let mut got = Vec::new();
    for step in 0..8 {
        let num_vars = solver.num_vars();
        let assumptions: Vec<Lit> = (0..step % 4)
            .map(|_| Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5)))
            .collect();
        let outcome = solver.solve(&assumptions, &Budget::unlimited());
        got.push(observe(&solver, &outcome));
        // a fresh variable tied to two old ones, and a new ternary clause
        let fresh = CnfBuilder::new_var(&mut solver);
        let a = Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5));
        let b = Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5));
        solver.gate_and(fresh.pos(), a, b);
        let c = Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5));
        solver.add_clause([fresh.neg(), c, !a]);
    }
    let expected = vec![
        search(
            [105, 222, 6619, 105, 175, 0],
            Some("c3e11057de1626a84c406a172985746211f0ca72eb5872631b6fbaa4dd28a10"),
        ),
        search(
            [105, 254, 6860, 105, 175, 0],
            Some("c3e11057de1626a84c406a172985746211e0ca72eb5872631b6fbaa4dd29a14"),
        ),
        search([458, 697, 28180, 458, 831, 0], None),
        search([509, 756, 31340, 509, 904, 0], None),
        search(
            [830, 1193, 52640, 830, 1685, 0],
            Some("43e1005ede0626a84c406a172985746211e0ca72eb5872e31b4dfaa4dd28a340"),
        ),
        search([892, 1264, 56348, 892, 1869, 0], None),
        search([906, 1279, 56951, 906, 1892, 0], None),
        search([948, 1323, 59475, 948, 1980, 0], None),
    ];
    assert_eq!(got, expected);
}

/// The SAT attack on a 100-gate random host under a 16-bit XOR lock:
/// its key and iteration count are properties of the formula, but its
/// per-iteration conflicts are properties of the search.
#[test]
fn sat_attack_transcript_is_as_recorded() {
    let host = random_circuit(&RandomCircuitConfig {
        num_inputs: 10,
        num_gates: 100,
        num_outputs: 5,
        with_xor: true,
        seed: 3,
    });
    let locked = xor_lock(&host, 16, 11);
    let result = sat_attack(&locked, |x: &[bool]| host.evaluate(x))
        .expect("acyclic host")
        .expect("a consistent lock has a key");
    let key: String = result
        .key
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    assert_eq!(
        (key.as_str(), result.iterations, result.conflict_deltas),
        ("1000000000111000", 4, vec![1, 17, 5, 21, 32, 0])
    );
}
