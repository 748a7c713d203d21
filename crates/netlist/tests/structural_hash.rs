//! Property suite for the whole-design digest: every splice edit must
//! move it, a `.bench` round-trip must keep it, and unrelated designs
//! must not collide.

use seceda_netlist::{
    c17, parse_design, random_circuit, ripple_adder, write_bench, CellKind, DesignDigest,
    DesignFormat, NetId, Netlist, RandomCircuitConfig,
};
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// Splices `kind(target, extra..)` between `target` and its loads.
fn splice(nl: &mut Netlist, target: NetId, kind: CellKind, extra: &[NetId]) {
    let before = nl.num_gates();
    let y = nl.add_gate(kind, &[&[target], extra].concat());
    nl.redirect(&[(target, y)], before);
}

/// Applies `edits` random splices and checks after each
/// one that the digest moved and never returns to an earlier state.
fn check_splices_move_the_digest(mut nl: Netlist, seed: u64, edits: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = vec![DesignDigest::of(&nl)];
    for step in 0..edits {
        let target = if rng.gen::<bool>() {
            // splice after a random gate output
            let g = rng.gen_range(0..nl.num_gates());
            nl.gates()[g].output
        } else {
            // or after a random primary input
            let k = rng.gen_range(0..nl.inputs().len());
            nl.inputs()[k]
        };
        let kind = match rng.gen_range(0..3u32) {
            0 => CellKind::Not,
            1 => CellKind::Buf,
            _ => CellKind::Xor,
        };
        let extra: Vec<NetId> = if kind == CellKind::Xor {
            vec![nl.add_input(format!("k{step}"))]
        } else {
            Vec::new()
        };
        splice(&mut nl, target, kind, &extra);
        let d = DesignDigest::of(&nl);
        assert!(
            !seen.contains(&d),
            "seed {seed:#x} step {step}: a splice must move the digest"
        );
        seen.push(d);
    }
    nl.validate().expect("edited netlist stays well-formed");
}

#[test]
fn every_splice_moves_the_digest_on_bench_circuits() {
    check_splices_move_the_digest(c17(), 0xC17, 6);
    check_splices_move_the_digest(ripple_adder(8), 0xADD, 6);
}

#[test]
fn every_splice_moves_the_digest_on_random_circuits() {
    for seed in [1u64, 2, 3] {
        let nl = random_circuit(&RandomCircuitConfig {
            num_inputs: 12,
            num_gates: 300,
            num_outputs: 6,
            with_xor: true,
            seed,
        });
        check_splices_move_the_digest(nl, seed, 8);
    }
}

#[test]
fn parsed_and_built_circuits_share_fingerprints() {
    // the .bench round-trip renames internal nets but preserves the
    // layout, so the digest must survive
    let nl = ripple_adder(16);
    let reparsed = parse_design(&write_bench(&nl), DesignFormat::Bench).expect("parse");
    assert_eq!(DesignDigest::of(&nl), DesignDigest::of(&reparsed));
}

#[test]
fn unrelated_designs_do_not_collide() {
    let digests: Vec<_> = [1u64, 2, 3, 4, 5]
        .iter()
        .map(|&seed| {
            DesignDigest::of(&random_circuit(&RandomCircuitConfig {
                seed,
                ..RandomCircuitConfig::default()
            }))
        })
        .collect();
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(digests[i], digests[j], "seeds {i} and {j} collided");
        }
    }
}

#[test]
fn scale_smoke_hashes_100k_gates() {
    let nl = random_circuit(&RandomCircuitConfig {
        num_inputs: 64,
        num_gates: 100_000,
        num_outputs: 32,
        with_xor: true,
        seed: 0xB16,
    });
    let d = DesignDigest::of(&nl);
    // a single splice deep inside the design moves the digest
    let mut edited = nl.clone();
    let target = edited.gates()[50_000].output;
    splice(&mut edited, target, CellKind::Not, &[]);
    assert_ne!(DesignDigest::of(&edited), d);
    assert_eq!(DesignDigest::of(&nl), d);
}
