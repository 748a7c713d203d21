//! Differential suite: every simulator in `seceda-sim` evaluates gates
//! through one compiled tape and one kernel, so each public entry point
//! is held here to an oracle that shares none of that code —
//! [`Netlist::eval_nets`] / [`Netlist::step`] and, for faulty
//! circuits, [`reference`] (in `tests/oracle/`), a walk of the netlist
//! arena over [`CellKind::eval`], with [`reference_coverage`] grading on
//! top of it.
//!
//! Word types: `bool` ([`CycleSim`], [`EventSim`]), `u64`
//! ([`PackedSim`], [`FaultSim::eval_outputs_with_faults`]) and
//! `Lane256` ([`FaultSim::eval_outputs_with_faults`], and
//! [`FaultSim::coverage`], whose good pass and cone walk run on 256-bit
//! words, compared against oracle detection on every pattern).
//! Lane-masked fault sites are checked lane by lane: the oracle runs
//! each lane with the sites whose mask holds that lane, in listed
//! order. `tests/packed_fault.rs` grades random and bench circuits
//! against the same oracle.
//!
//! The `#[ignore]`d sweeps repeat the comparison on 2k-20k-gate
//! designs in release: `cargo test --release -p seceda-sim --test
//! tape_differential -- --ignored`.

mod oracle;

use oracle::{outputs, reference, reference_coverage};
use seceda_netlist::{c17, random_circuit, CellKind, NetId, Netlist, RandomCircuitConfig};
use seceda_sim::fault::stuck_at_universe;
use seceda_sim::{
    pack_patterns, CycleSim, EventSim, Fault, FaultKind, FaultSim, GlitchReport, Lane256,
    PackedSim, SimWord,
};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// A random sequential design over every cell kind: wide n-ary gates,
/// muxes, constants, gates that read one net twice, one undriven net,
/// and `num_dffs` flip-flops whose outputs feed the logic and whose
/// data inputs are rewired to random gate outputs once the logic exists.
fn seq_circuit(seed: u64, num_inputs: usize, num_gates: usize, num_dffs: usize) -> Netlist {
    use CellKind::*;
    const KINDS: [CellKind; 11] = [Const0, Const1, Buf, Not, And, Nand, Or, Nor, Xor, Xnor, Mux];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new("seq");
    let mut pool: Vec<NetId> = (0..num_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    pool.push(nl.add_net());
    let qs: Vec<NetId> = (0..num_dffs)
        .map(|_| {
            let d = nl.add_net();
            nl.add_gate(Dff, &[d])
        })
        .collect();
    pool.extend(&qs);
    let first_gate_net = pool.len();
    for _ in 0..num_gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let n = match kind.arity() {
            (lo, usize::MAX) => rng.gen_range(lo..=5),
            (lo, _) => lo,
        };
        let mut ins: Vec<NetId> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        if n >= 2 && rng.gen_bool(0.25) {
            ins[n - 1] = ins[0];
        }
        pool.push(nl.add_gate(kind, &ins));
    }
    for &q in &qs {
        let dff = nl.net(q).driver.expect("a DFF drives its output");
        nl.gate_mut(dff).inputs[0] = pool[rng.gen_range(first_gate_net..pool.len())];
    }
    for (k, &net) in pool.iter().rev().take(3).chain(qs.first()).enumerate() {
        nl.mark_output(net, format!("o{k}"));
    }
    nl
}

fn comb_circuit(seed: u64, num_gates: usize) -> Netlist {
    seq_circuit(seed, 6, num_gates, 0)
}

fn random_bits(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

/// Faults on random nets — primary inputs, gate outputs, DFF outputs
/// and the undriven net alike — with a duplicate on one net half the
/// time, so last-fault-wins is exercised.
fn random_faults(rng: &mut StdRng, nl: &Netlist, max: usize) -> Vec<Fault> {
    let kinds = [FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::BitFlip];
    let mut faults: Vec<Fault> = (0..rng.gen_range(0..=max))
        .map(|_| Fault {
            net: NetId::from_index(rng.gen_range(0..nl.num_nets())),
            kind: kinds[rng.gen_range(0..3usize)],
        })
        .collect();
    if !faults.is_empty() && rng.gen_bool(0.5) {
        faults.push(Fault {
            net: faults[0].net,
            kind: kinds[rng.gen_range(0..3usize)],
        });
    }
    faults
}

/// Every fault forced in every lane of a `u64` word.
fn everywhere(faults: &[Fault]) -> Vec<(Fault, u64)> {
    faults.iter().map(|&f| (f, u64::MAX)).collect()
}

/// Bit `p` of every word.
fn lane(words: &[u64], p: usize) -> Vec<bool> {
    words.iter().map(|w| (w >> p) & 1 == 1).collect()
}

/// Bit `p` of a word of any width.
fn bit<W: SimWord>(w: W, p: usize) -> bool {
    (w.lane(p / 64) >> (p % 64)) & 1 == 1
}

/// A uniformly random word of any width.
fn random_word<W: SimWord>(rng: &mut StdRng) -> W {
    (0..W::LANES).fold(W::ZERO, |w, i| w.with_lane(i, rng.gen()))
}

/// Lane-masked sites over [`random_faults`] with random masks, plus a
/// primary-input site, a DFF-output site, and on each of the first two
/// listed nets a second site, whose random mask shares about a quarter
/// of the lanes with the first one's.
fn random_sites<W: SimWord>(rng: &mut StdRng, nl: &Netlist) -> Vec<(Fault, W)> {
    let kinds = [FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::BitFlip];
    let mut faults = random_faults(rng, nl, 4);
    faults.push(Fault {
        net: nl.inputs()[rng.gen_range(0..nl.inputs().len())],
        kind: kinds[rng.gen_range(0..3usize)],
    });
    if let Some(&dff) = nl.dffs().first() {
        faults.push(Fault::flip(nl.gate(dff).output));
    }
    let mut sites: Vec<(Fault, W)> = faults.iter().map(|&f| (f, random_word(rng))).collect();
    for f in faults.iter().take(2) {
        let net = f.net;
        let kind = kinds[rng.gen_range(0..3usize)];
        sites.push((Fault { net, kind }, random_word(rng)));
    }
    sites
}

/// The oracle's fault list for lane `p`: the sites whose mask holds bit
/// `p`, in listed order, so the oracle's last fault per net is the last
/// site per net in that lane.
fn lane_faults<W: SimWord>(sites: &[(Fault, W)], p: usize) -> Vec<Fault> {
    sites
        .iter()
        .filter(|&&(_, mask)| bit(mask, p))
        .map(|&(f, _)| f)
        .collect()
}

/// Lane-masked forcing against the oracle applied lane by lane, over
/// partial and full words of `W`.
fn masked_sites_match_oracle<W: SimWord>(rng_seed: u64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    for seed in 0..50 {
        let nl = seq_circuit(seed, 6, 2 + seed as usize % 50, 2);
        let sim = FaultSim::new(&nl).expect("sim");
        // a partial last word most of the time, a full one sometimes
        let n = if seed % 5 == 0 {
            W::BITS
        } else {
            rng.gen_range(1..W::BITS)
        };
        let patterns: Vec<Vec<bool>> = (0..n).map(|_| random_bits(&mut rng, 6)).collect();
        let words = pack_patterns::<W>(&patterns, 6);
        let sites = random_sites::<W>(&mut rng, &nl);
        let outs = sim.eval_outputs_with_faults(&words, &sites);
        for (p, pattern) in patterns.iter().enumerate() {
            let want = outputs(&nl, &reference(&nl, pattern, &[], &lane_faults(&sites, p)));
            let got: Vec<bool> = outs.iter().map(|&w| bit(w, p)).collect();
            assert_eq!(
                got, want,
                "seed {seed}, {n} patterns, lane {p}, sites {sites:?}"
            );
        }
    }
}

#[test]
fn u64_lane_masked_sites_match_oracle() {
    masked_sites_match_oracle::<u64>(10);
}

#[test]
fn lane256_lane_masked_sites_match_oracle() {
    masked_sites_match_oracle::<Lane256>(11);
}

#[test]
fn last_site_wins_per_lane() {
    // y = buf(a) with a = 1 in every lane; lanes 0..4 see: untouched,
    // flip, stuck-at-0, then stuck-at-0 overridden by a flip
    let mut nl = Netlist::new("buf");
    let a = nl.add_input("a");
    let y = nl.add_gate(CellKind::Buf, &[a]);
    nl.mark_output(y, "y");
    let sim = FaultSim::new(&nl).expect("sim");
    let sites = [
        (Fault::stuck_at(y, false), Lane256([0b1100, 0, 0, 0])),
        (Fault::flip(y), Lane256([0b1010, 0, 0, 0])),
    ];
    let outs = sim.eval_outputs_with_faults(&[Lane256::ONES], &sites);
    assert_eq!(outs, [Lane256([!0b1110, u64::MAX, u64::MAX, u64::MAX])]);
    // a primary-input site reaches the output only in its own lanes,
    // and a DFF-output site never does
    let mut nl = Netlist::new("seq");
    let a = nl.add_input("a");
    let d = nl.add_net();
    let q = nl.add_gate(CellKind::Dff, &[d]);
    let y = nl.add_gate(CellKind::Xor, &[a, q]);
    nl.mark_output(y, "y");
    let sim = FaultSim::new(&nl).expect("sim");
    let sites = [
        (Fault::stuck_at(a, true), Lane256([0, 0, 0b1, 0])),
        (Fault::stuck_at(q, true), Lane256::ONES),
    ];
    let outs = sim.eval_outputs_with_faults(&[Lane256::ZERO], &sites);
    assert_eq!(outs, [Lane256([0, 0, 0b1, 0])]);
}

/// All `2^n` input vectors of an `n`-input design.
fn exhaustive(n: usize) -> Vec<Vec<bool>> {
    (0..1u32 << n)
        .map(|x| (0..n).map(|b| (x >> b) & 1 == 1).collect())
        .collect()
}

#[test]
fn reference_agrees_with_eval_nets() {
    let mut rng = StdRng::seed_from_u64(1);
    for seed in 0..40 {
        let nl = seq_circuit(seed, 5, 40, 3);
        let inputs = random_bits(&mut rng, 5);
        let state = random_bits(&mut rng, 3);
        assert_eq!(
            reference(&nl, &inputs, &state, &[]),
            nl.eval_nets(&inputs, &state).expect("eval"),
            "seed {seed}"
        );
    }
}

/// One pattern per pass (bit 0 of each word, the other lanes zero),
/// the way BIST and the fault-injection tests drive the simulator.
#[test]
fn single_pattern_passes_match_oracle_under_faults() {
    let mut rng = StdRng::seed_from_u64(2);
    for seed in 0..200 {
        let nl = comb_circuit(seed, 2 + (seed as usize % 60));
        let sim = FaultSim::new(&nl).expect("sim");
        let inputs = random_bits(&mut rng, 6);
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        let good = sim.eval_outputs_with_faults(&words, &[]);
        assert_eq!(
            lane(&good, 0),
            outputs(&nl, &nl.eval_nets(&inputs, &[]).expect("eval")),
            "seed {seed}"
        );
        let faults = random_faults(&mut rng, &nl, 3);
        assert_eq!(
            lane(
                &sim.eval_outputs_with_faults(&words, &everywhere(&faults)),
                0
            ),
            outputs(&nl, &reference(&nl, &inputs, &[], &faults)),
            "seed {seed} faults {faults:?}"
        );
    }
}

#[test]
fn dff_output_faults_have_no_effect() {
    let nl = seq_circuit(7, 4, 30, 2);
    let sim = FaultSim::new(&nl).expect("sim");
    let q = nl.gate(nl.dffs()[0]).output;
    let patterns = exhaustive(4);
    let words = pack_patterns(&patterns, 4);
    let good = sim.eval_outputs_with_faults(&words, &[]);
    let q_faults = [Fault::stuck_at(q, true), Fault::flip(q)];
    for &f in &q_faults {
        assert_eq!(sim.eval_outputs_with_faults(&words, &[(f, u64::MAX)]), good);
    }
    for (p, pattern) in patterns.iter().enumerate() {
        let want = nl.eval_nets(pattern, &[false; 2]).expect("eval");
        assert_eq!(lane(&good, p), outputs(&nl, &want));
    }
    assert_eq!(sim.coverage(&patterns, &q_faults).0, [false, false]);
}

#[test]
fn packed_u64_matches_oracle_in_every_bit() {
    let mut rng = StdRng::seed_from_u64(3);
    for seed in 0..60 {
        let nl = seq_circuit(seed, 5, 2 + (seed as usize % 50), 3);
        let sim = PackedSim::new(&nl).expect("sim");
        let n = 1 + seed as usize % 64;
        let patterns: Vec<Vec<bool>> = (0..n).map(|_| random_bits(&mut rng, 5)).collect();
        let states: Vec<Vec<bool>> = (0..n).map(|_| random_bits(&mut rng, 3)).collect();
        let words = pack_patterns(&patterns, 5);
        let state_words = pack_patterns(&states, 3);
        let zero_state = sim.eval(&words);
        let with_state = sim.eval_with_state(&words, &state_words);
        for p in 0..n {
            let bit = |w: &u64| (w >> p) & 1 == 1;
            let zero: Vec<bool> = zero_state.iter().map(bit).collect();
            let held: Vec<bool> = with_state.iter().map(bit).collect();
            assert_eq!(zero, nl.eval_nets(&patterns[p], &[false; 3]).expect("eval"));
            assert_eq!(held, nl.eval_nets(&patterns[p], &states[p]).expect("eval"));
        }
    }
}

#[test]
fn packed_faulty_outputs_match_oracle_in_every_bit() {
    let mut rng = StdRng::seed_from_u64(4);
    for seed in 0..60 {
        let nl = comb_circuit(seed, 2 + (seed as usize % 50));
        let sim = FaultSim::new(&nl).expect("sim");
        let patterns: Vec<Vec<bool>> = (0..64).map(|_| random_bits(&mut rng, 6)).collect();
        let faults = random_faults(&mut rng, &nl, 3);
        let outs = sim.eval_outputs_with_faults(&pack_patterns(&patterns, 6), &everywhere(&faults));
        for (p, pattern) in patterns.iter().enumerate() {
            let want = outputs(&nl, &reference(&nl, pattern, &[], &faults));
            assert_eq!(lane(&outs, p), want, "seed {seed} pattern {p}");
        }
    }
}

#[test]
fn lane256_grading_matches_oracle_across_partial_words() {
    let mut rng = StdRng::seed_from_u64(5);
    for seed in 0..12 {
        let nl = seq_circuit(seed, 5, 10 + 3 * seed as usize, 2);
        let engine = FaultSim::new(&nl).expect("sim");
        let mut faults = stuck_at_universe(&nl);
        faults.extend(nl.dffs().iter().map(|&d| Fault::flip(nl.gate(d).output)));
        // fault-group mode (<= 64), partial and full 256-bit words, and
        // a partial second word
        for n in [1usize, 63, 64, 65, 200, 256, 300] {
            let patterns: Vec<Vec<bool>> = (0..n).map(|_| random_bits(&mut rng, 5)).collect();
            assert_eq!(
                engine.coverage(&patterns, &faults),
                reference_coverage(&nl, &patterns, &faults),
                "seed {seed} patterns {n}"
            );
        }
    }
}

#[test]
fn cycle_sim_matches_netlist_step_over_cycles() {
    let mut rng = StdRng::seed_from_u64(6);
    for seed in 0..40 {
        let nl = seq_circuit(seed, 4, 5 + seed as usize, 4);
        let mut sim = CycleSim::new(&nl).expect("sim");
        let mut state = random_bits(&mut rng, 4);
        sim.set_state(&state);
        for cycle in 0..6 {
            let inputs = random_bits(&mut rng, 4);
            let nets = sim.step_nets(&inputs).expect("step");
            assert_eq!(
                nets,
                nl.eval_nets(&inputs, &state).expect("eval"),
                "seed {seed} cycle {cycle}"
            );
            let (outs, next) = nl.step(&inputs, &state).expect("step");
            assert_eq!(outputs(&nl, &nets), outs);
            assert_eq!(sim.state(), &next[..], "seed {seed} cycle {cycle}");
            state = next;
        }
    }
}

#[test]
fn event_sim_settles_to_eval_nets() {
    let mut rng = StdRng::seed_from_u64(7);
    for seed in 0..60 {
        let nl = comb_circuit(seed, 2 + seed as usize % 40);
        let sim = EventSim::new(&nl).expect("sim");
        let from = random_bits(&mut rng, 6);
        let to = random_bits(&mut rng, 6);
        let mut values = nl.eval_nets(&from, &[]).expect("eval");
        for ev in &sim.transition(&from, &to).events {
            values[ev.net] = ev.value;
        }
        assert_eq!(values, nl.eval_nets(&to, &[]).expect("eval"), "seed {seed}");
    }
}

/// FNV-1a over every event, every toggle count and the settling time.
fn digest(r: &GlitchReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for ev in &r.events {
        eat(ev.time.to_bits());
        eat(ev.net as u64);
        eat(ev.value as u64);
    }
    for &t in &r.toggles {
        eat(t as u64);
    }
    eat(r.settle_time.to_bits());
    h
}

fn bits(x: u32, n: usize) -> Vec<bool> {
    (0..n).map(|b| (x >> b) & 1 == 1).collect()
}

#[test]
fn glitch_report_golden_c17() {
    let nl = c17();
    let sim = EventSim::new(&nl).expect("sim");
    let r = sim.transition(&bits(0b00000, 5), &bits(0b11111, 5));
    let events: Vec<(f64, usize, bool)> =
        r.events.iter().map(|e| (e.time, e.net, e.value)).collect();
    #[rustfmt::skip]
    let want = [
        (0.0, 0, true), (0.0, 1, true), (0.0, 2, true), (0.0, 3, true), (0.0, 4, true),
        (1.0, 7, false), (1.0, 5, false), (1.0, 6, false), (1.0, 8, false),
        (2.0, 9, true), (2.0, 10, true), (2.0, 7, true), (2.0, 8, true),
        (3.0, 10, false),
    ];
    assert_eq!(events, want);
    assert_eq!(r.toggles, [1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 2]);
    assert_eq!(
        (r.glitching_nets, r.glitch_toggles, r.settle_time),
        (3, 3, 3.0)
    );
    // two same-time toggles of net 5: the schedule order decides them
    let r = sim.transition(&bits(0b10110, 5), &bits(0b01011, 5));
    let events: Vec<(f64, usize, bool)> =
        r.events.iter().map(|e| (e.time, e.net, e.value)).collect();
    #[rustfmt::skip]
    let want = [
        (0.0, 0, true), (0.0, 2, false), (0.0, 3, true), (0.0, 4, false),
        (1.0, 5, false), (1.0, 5, true), (1.0, 8, true),
    ];
    assert_eq!(events, want);
    assert_eq!(r.toggles, [1, 0, 1, 1, 1, 2, 0, 0, 1, 0, 0]);
    assert_eq!(
        (r.glitching_nets, r.glitch_toggles, r.settle_time),
        (1, 1, 1.0)
    );
}

#[test]
fn glitch_report_golden_random_100() {
    let nl = random_circuit(&RandomCircuitConfig {
        num_inputs: 8,
        num_gates: 100,
        num_outputs: 4,
        with_xor: true,
        seed: 0x91,
    });
    let mut sim = EventSim::new(&nl).expect("sim");
    let summary = |r: &GlitchReport| {
        (
            r.events.len(),
            r.glitching_nets,
            r.glitch_toggles,
            r.settle_time,
            digest(r),
        )
    };
    let cases = [
        (0x00, 0xFF, (222, 48, 140, 19.5, 0xb0cf_fe4c_0f17_0b4f)),
        (0xB6, 0x49, (256, 59, 171, 19.0, 0x5217_8735_87ff_1f6d)),
        (0x13, 0x37, (44, 6, 8, 19.0, 0xec78_3450_1ed2_a0ae)),
    ];
    for (from, to, want) in cases {
        let r = sim.transition(&bits(from, 8), &bits(to, 8));
        assert_eq!(summary(&r), want, "{from:#x} -> {to:#x}");
    }
    for g in 0..nl.num_gates() {
        sim.set_gate_delay(g, 0.5 + (g % 7) as f64 * 0.25);
    }
    let r = sim.transition(&bits(0xB6, 8), &bits(0x49, 8));
    assert_eq!(summary(&r), (268, 54, 186, 15.0, 0xb731_2e34_4b10_1c7b));
}

#[test]
#[ignore = "10k-20k-gate designs; run in release with --ignored"]
fn large_designs_match_oracle() {
    let mut rng = StdRng::seed_from_u64(8);
    for (k, gates) in [10_000usize, 15_000, 20_000].into_iter().enumerate() {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 32,
            num_gates: gates,
            num_outputs: 16,
            with_xor: true,
            seed: 0x5EED + k as u64,
        });
        let packed = PackedSim::new(&nl).expect("sim");
        let faulty = FaultSim::new(&nl).expect("sim");
        let patterns: Vec<Vec<bool>> = (0..64).map(|_| random_bits(&mut rng, 32)).collect();
        let input_words = pack_patterns(&patterns, 32);
        let words = packed.eval(&input_words);
        let faults: Vec<Vec<Fault>> = (0..8).map(|_| random_faults(&mut rng, &nl, 3)).collect();
        let faulty_words: Vec<Vec<u64>> = faults
            .iter()
            .map(|f| faulty.eval_outputs_with_faults(&input_words, &everywhere(f)))
            .collect();
        for (p, pattern) in patterns.iter().enumerate() {
            let want = nl.eval_nets(pattern, &[]).expect("eval");
            assert_eq!(lane(&words, p), want, "{gates} gates, pattern {p}");
            for (f, outs) in faults.iter().zip(&faulty_words) {
                assert_eq!(
                    lane(outs, p),
                    outputs(&nl, &reference(&nl, pattern, &[], f)),
                    "{gates} gates, pattern {p}, faults {f:?}"
                );
            }
        }
    }
}

#[test]
#[ignore = "2k-gate oracle grading; run in release with --ignored"]
fn coverage_matches_oracle_at_2k_gates() {
    let nl = random_circuit(&RandomCircuitConfig {
        num_inputs: 24,
        num_gates: 2_000,
        num_outputs: 12,
        with_xor: true,
        seed: 0xC0DE,
    });
    let sim = FaultSim::new(&nl).expect("sim");
    let faults = stuck_at_universe(&nl);
    let mut rng = StdRng::seed_from_u64(9);
    // 120 patterns: one partial 256-bit word in wide mode
    let patterns: Vec<Vec<bool>> = (0..120).map(|_| random_bits(&mut rng, 24)).collect();
    assert_eq!(
        sim.coverage(&patterns, &faults),
        reference_coverage(&nl, &patterns, &faults)
    );
}
