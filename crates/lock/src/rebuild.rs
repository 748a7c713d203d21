//! The original rebuild-per-iteration SAT attack, kept as the
//! differential oracle for [`crate::sat_attack::sat_attack`]: it
//! re-encodes the full attack CNF — a miter of two keyed copies tied on
//! the functional inputs only, plus one constrained copy per key and
//! observation — and builds a fresh solver on every DIP iteration. Its
//! encoder is the per-net Tseitin test oracle of `seceda-sat`
//! (`crates/sat/tests/oracle/tseitin.rs`), so it shares no lowering code
//! with the AIG-encoded attack it checks. Both canonicalize every DIP
//! and the key with the shared [`lex_min_model`], so they must agree on
//! the iteration count and recover the same key, bit for bit.

#[path = "../../sat/tests/oracle/tseitin.rs"]
mod tseitin;

use crate::locking::LockedNetlist;
use crate::sat_attack::{lex_min_model, SatAttackResult};
use seceda_netlist::NetlistError;
use seceda_sat::{Budget, Cnf, CnfBuilder, Lit, SolveOutcome, Solver, Var};
use tseitin::{encode_netlist, miter};

/// Appends one observation `(x_hat, y_hat)` to the attack encoding: a
/// fresh constrained circuit copy per key, with inputs pinned to `x_hat`,
/// outputs pinned to `y_hat`, and key inputs tied to the key variables.
fn encode_observation<B: CnfBuilder>(
    locked: &LockedNetlist,
    sink: &mut B,
    k1: &[Var],
    k2: &[Var],
    x_hat: &[bool],
    y_hat: &[bool],
) -> Result<(), NetlistError> {
    let nl = &locked.netlist;
    let nx = locked.num_original_inputs;
    for key_vars in [k1, k2] {
        let enc = encode_netlist(nl, sink)?;
        for (i, &xv) in x_hat.iter().enumerate() {
            sink.add_clause([enc.input_vars[i].lit(xv)]);
        }
        for (j, kv) in key_vars.iter().enumerate() {
            sink.gate_buf(enc.input_vars[nx + j].pos(), kv.pos());
        }
        for (o, &yv) in enc.output_vars.iter().zip(y_hat) {
            sink.add_clause([o.lit(yv)]);
        }
    }
    Ok(())
}

/// Builds the full attack CNF for a given observation set: a miter
/// of two copies of the locked circuit sharing X but with independent
/// keys, plus every observation. Returns `(cnf, inputs, diff_lit)`,
/// where `inputs` are the first copy's input variables: X, then its key.
fn build_attack_cnf(
    locked: &LockedNetlist,
    observations: &[(Vec<bool>, Vec<bool>)],
) -> Result<(Cnf, Vec<Var>, Lit), NetlistError> {
    let nl = &locked.netlist;
    let nx = locked.num_original_inputs;
    let mut cnf = Cnf::new();
    let (enc1, enc2, diff) = miter(nl, nl, nx, &mut cnf)?;
    let (k1, k2) = (&enc1.input_vars[nx..], &enc2.input_vars[nx..]);
    for (x_hat, y_hat) in observations {
        encode_observation(locked, &mut cnf, k1, k2, x_hat, y_hat)?;
    }
    Ok((cnf, enc1.input_vars, diff))
}

/// The rebuild-per-iteration SAT attack. `clauses` in the result counts
/// the last direct re-encoding.
pub(crate) fn sat_attack_rebuild(
    locked: &LockedNetlist,
    oracle: impl Fn(&[bool]) -> Vec<bool>,
) -> Result<Option<SatAttackResult>, NetlistError> {
    let mut observations: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
    let mut iterations = 0usize;
    let mut conflicts = 0u64;
    let mut conflict_deltas: Vec<u64> = Vec::new();
    let unlimited = Budget::unlimited();
    loop {
        let (cnf, inputs, diff) = build_attack_cnf(locked, &observations)?;
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve(&[diff], &unlimited) {
            SolveOutcome::Sat(model) => {
                iterations += 1;
                let x_hat = lex_min_model(
                    &mut |a| solver.solve(a, &unlimited),
                    &inputs[..locked.num_original_inputs],
                    &[diff],
                    &model,
                )
                .unwrap_or_else(|reason| unreachable!("unlimited lex-min stopped: {reason}"));
                conflicts += solver.num_conflicts;
                conflict_deltas.push(solver.num_conflicts);
                let y_hat = oracle(&x_hat);
                observations.push((x_hat, y_hat));
            }
            SolveOutcome::Unsat => {
                conflicts += solver.num_conflicts;
                conflict_deltas.push(solver.num_conflicts);
                // no DIP left: extract any key satisfying all observations
                let (cnf, inputs, _) = build_attack_cnf(locked, &observations)?;
                let k1 = &inputs[locked.num_original_inputs..];
                let mut solver = Solver::from_cnf(&cnf);
                return Ok(match solver.solve(&[], &unlimited) {
                    SolveOutcome::Sat(model) => {
                        // same lex-min canonicalization as the
                        // incremental attack: both walk identical DIP
                        // transcripts over identical observation sets,
                        // so the canonical keys agree bit-for-bit
                        let key =
                            lex_min_model(&mut |a| solver.solve(a, &unlimited), k1, &[], &model)
                                .unwrap_or_else(|reason| {
                                    unreachable!("unlimited lex-min stopped: {reason}")
                                });
                        conflicts += solver.num_conflicts;
                        conflict_deltas.push(solver.num_conflicts);
                        Some(SatAttackResult {
                            key,
                            iterations,
                            conflicts,
                            conflict_deltas,
                            clauses: cnf.clauses().len(),
                            portfolio_k: 1,
                        })
                    }
                    SolveOutcome::Unsat => None,
                    SolveOutcome::Indeterminate(reason) => {
                        unreachable!("unlimited solve stopped: {reason}")
                    }
                });
            }
            SolveOutcome::Indeterminate(reason) => {
                unreachable!("unlimited solve stopped: {reason}")
            }
        }
        assert!(
            iterations <= 1 << 16,
            "SAT attack runaway: too many iterations"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locking::{mux_lock, sfll_hd0, xor_lock};
    use crate::sat_attack::sat_attack;
    use seceda_netlist::{parse_bench, random_circuit, RandomCircuitConfig};

    /// Differential check: the incremental AIG-encoded attack must
    /// take exactly as many DIP iterations as the direct-encoded
    /// rebuild-per-iteration baseline, recover the *bit-identical* key (both
    /// canonicalize to the lex-min key of the final observation set), and
    /// that key must be functionally correct.
    fn assert_incremental_matches_rebuild(
        locked: &LockedNetlist,
        original: &seceda_netlist::Netlist,
    ) {
        let oracle = |x: &[bool]| original.evaluate(x);
        let inc = sat_attack(locked, oracle)
            .expect("incremental attack runs")
            .expect("incremental attack finds a key");
        let reb = sat_attack_rebuild(locked, oracle)
            .expect("rebuild attack runs")
            .expect("rebuild attack finds a key");
        assert_eq!(
            inc.iterations, reb.iterations,
            "incremental and rebuild attacks must agree on DIP count"
        );
        assert_eq!(
            inc.key, reb.key,
            "both attacks canonicalize to the lex-min key and must agree bit-for-bit"
        );
        let n = locked.num_original_inputs;
        for pattern in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|b| (pattern >> b) & 1 == 1).collect();
            let expect = original.evaluate(&inputs);
            assert_eq!(
                locked.evaluate_with_key(&inputs, &inc.key),
                expect,
                "incremental key wrong on {inputs:?}"
            );
            assert_eq!(
                locked.evaluate_with_key(&inputs, &reb.key),
                expect,
                "rebuild key wrong on {inputs:?}"
            );
        }
    }

    #[test]
    fn incremental_attack_matches_rebuild_on_all_schemes() {
        let nl = seceda_netlist::c17();
        assert_incremental_matches_rebuild(&xor_lock(&nl, 8, 7), &nl);
        assert_incremental_matches_rebuild(&mux_lock(&nl, 4, 9), &nl);
        assert_incremental_matches_rebuild(&sfll_hd0(&nl, &[true, false, true, false, true]), &nl);
    }

    #[test]
    fn incremental_attack_matches_rebuild_on_parsed_c17() {
        // same differential property, but on a netlist that went through the
        // .bench frontend instead of the builtin constructor — pins the AIG
        // lowering against parser-produced gate structures (n-ary fanins,
        // explicit buffers)
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../netlist/tests/data/c17.bench"
        ))
        .expect("c17.bench fixture");
        let nl = parse_bench(&text).expect("c17.bench parses");
        assert_incremental_matches_rebuild(&xor_lock(&nl, 8, 13), &nl);
    }

    #[test]
    fn incremental_attack_matches_rebuild_on_random_hosts() {
        for seed in [1u64, 17, 91] {
            let nl = host(seed, 18);
            assert_incremental_matches_rebuild(&xor_lock(&nl, 6, seed ^ 0xC), &nl);
        }
    }

    #[test]
    fn incremental_attack_matches_rebuild_on_a_300_gate_host() {
        // twelve inputs drive the DIP count up, which is where
        // rebuild-per-iteration pays its quadratic re-encoding bill
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 12,
            num_gates: 300,
            num_outputs: 6,
            with_xor: true,
            seed: 5,
        });
        assert_incremental_matches_rebuild(&xor_lock(&nl, 16, 7), &nl);
    }

    fn host(seed: u64, gates: usize) -> seceda_netlist::Netlist {
        random_circuit(&RandomCircuitConfig {
            num_inputs: 5,
            num_gates: gates,
            num_outputs: 3,
            with_xor: true,
            seed,
        })
    }
}
