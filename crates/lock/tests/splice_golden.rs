//! Golden results of every transform that splices gates into existing
//! logic: the whole-design digest and the port names of each result are
//! pinned, so a change to how the splices are wired (batched, reordered,
//! or rewritten) must reproduce every netlist gate for gate.
//!
//! Each seed is chosen for the case its comment names, and the test
//! checks that the case really occurs, so a changed generator cannot
//! silently drop it.

use seceda_dft::insert_scan_chain;
use seceda_lock::{mux_lock, xor_lock};
use seceda_netlist::{
    c17, parse_bench, random_circuit, ripple_adder, CellKind, DesignDigest, Netlist,
    RandomCircuitConfig,
};

/// A host of the benchmark's attack shape: 300 gates, 12 inputs, 6
/// outputs, XOR mix.
fn attack_host(seed: u64) -> Netlist {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 12,
        num_gates: 300,
        num_outputs: 6,
        with_xor: true,
        seed,
    })
}

/// The longest chain of appended gates (index `>= orig`) that read one
/// another through their first input: 2 or more means one target was
/// spliced twice, and the later key gate sits between the target and
/// the earlier one.
fn longest_splice_chain(nl: &Netlist, orig: usize) -> usize {
    nl.gates()[orig..]
        .iter()
        .map(|g| {
            let mut len = 1;
            let mut net = g.inputs[0];
            while let Some(d) = nl.net(net).driver.filter(|d| d.index() >= orig) {
                len += 1;
                net = nl.gate(d).inputs[0];
            }
            len
        })
        .max()
        .unwrap_or(0)
}

/// The port names of a random host with `inputs` inputs and `outputs`
/// outputs after locks with `keys` key bits in all:
/// `in0 .. key0 .. | out0 ..`.
fn random_host_ports(inputs: usize, keys: usize, outputs: usize) -> String {
    let ins = (0..inputs).map(|i| format!("in{i}"));
    let keys = (0..keys).map(|i| format!("key{i}"));
    let outs: Vec<String> = (0..outputs).map(|i| format!("out{i}")).collect();
    let ins: Vec<String> = ins.chain(keys).collect();
    format!("{} | {}", ins.join(" "), outs.join(" "))
}

/// `inputs | outputs`, port names separated by spaces.
fn ports(nl: &Netlist) -> String {
    let ins: Vec<&str> = nl
        .inputs()
        .iter()
        .map(|&n| nl.net_name(n).expect("ports are named"))
        .collect();
    let outs: Vec<&str> = nl.outputs().iter().map(|(_, name)| name.as_str()).collect();
    format!("{} | {}", ins.join(" "), outs.join(" "))
}

#[track_caller]
fn check(case: &str, nl: &Netlist, digest: &str, port_names: &str) {
    assert_eq!(DesignDigest::of(nl).to_string(), digest, "{case}: digest");
    assert_eq!(ports(nl), port_names, "{case}: ports");
    nl.validate().expect("a spliced design stays well-formed");
}

#[test]
fn xor_lock_on_c17_and_an_adder() {
    // seed 1: 8 key bits on c17's 6 gates, one target spliced 4 times
    let host = c17();
    let locked = xor_lock(&host, 8, 1);
    assert_eq!(longest_splice_chain(&locked.netlist, host.num_gates()), 4);
    check(
        "c17",
        &locked.netlist,
        "f0ae46f78dfd2be83fc4ca9e8baa2eb4",
        "G1 G2 G3 G6 G7 key0 key1 key2 key3 key4 key5 key6 key7 | G22 G23",
    );

    // seed 1: 16 key bits on the 8-bit adder, one target spliced 3 times
    let host = ripple_adder(8);
    let locked = xor_lock(&host, 16, 1);
    assert_eq!(longest_splice_chain(&locked.netlist, host.num_gates()), 3);
    check(
        "adder",
        &locked.netlist,
        "b755d67bf5c733591ad2fc1dfc65700c",
        "a[0] a[1] a[2] a[3] a[4] a[5] a[6] a[7] b[0] b[1] b[2] b[3] b[4] b[5] b[6] b[7] \
         key0 key1 key2 key3 key4 key5 key6 key7 key8 key9 key10 key11 key12 key13 key14 key15 \
         | s[0] s[1] s[2] s[3] s[4] s[5] s[6] s[7]",
    );
}

#[test]
fn xor_lock_on_attack_hosts() {
    // 24 key bits, as the widest attack lock; host seed = lock seed.
    // 0: no target repeats; 1, 2: one target spliced twice;
    // 23: three times; 100: four times
    let cases = [
        (0u64, 1usize, "8158d05b865ec46850908fed3086c459"),
        (1, 2, "26a384a6a241f52e13af9c243550bda7"),
        (2, 2, "1bb424033f1dfad4d39d9141f122e8d7"),
        (23, 3, "d2795ca2b7c9bd8e6f68b11b4bdda63f"),
        (100, 4, "f6f0e15cb9d0fff67c29bdb7fc956adb"),
    ];
    for (seed, chain, digest) in cases {
        let host = attack_host(seed);
        let locked = xor_lock(&host, 24, seed);
        assert_eq!(
            longest_splice_chain(&locked.netlist, host.num_gates()),
            chain,
            "seed {seed}"
        );
        check(
            &format!("host {seed}"),
            &locked.netlist,
            digest,
            &random_host_ports(12, 24, 6),
        );
    }
}

#[test]
fn stacked_xor_lock() {
    // the second lock numbers its keys on and may target the first
    // lock's key gates, which are original gates to it
    let first = xor_lock(&attack_host(5), 8, 5);
    let second = xor_lock(&first.netlist, 8, 6);
    check(
        "stacked",
        &second.netlist,
        "84f1a4516f783f65b2f7b92846d7b2d5",
        &random_host_ports(12, 16, 6),
    );
}

#[test]
fn mux_lock_splices_an_earlier_decoy() {
    // seed 12: key bits 2 and 7 each route a decoy that a later mux
    // then targets, so the earlier mux's decoy leg reads a later mux
    let host = attack_host(12);
    let orig = host.num_gates();
    let locked = mux_lock(&host, 16, 12);
    let spliced_decoys: Vec<usize> = locked.netlist.gates()[orig..]
        .iter()
        .enumerate()
        .filter(|(_, g)| g.kind == CellKind::Mux)
        .filter(|&(bit, g)| {
            let decoy_leg = if locked.correct_key[bit] { 1 } else { 2 };
            let driver = locked.netlist.net(g.inputs[decoy_leg]).driver;
            driver.is_some_and(|d| d.index() >= orig)
        })
        .map(|(bit, _)| bit)
        .collect();
    assert_eq!(spliced_decoys, [2, 7]);
    check(
        "mux",
        &locked.netlist,
        "855e0fb788ceaf446fb76c9ad70b211a",
        &random_host_ports(12, 16, 6),
    );
}

#[test]
fn scan_chain_on_s27() {
    let s27 = parse_bench(include_str!("../../netlist/tests/data/s27.bench")).expect("s27");
    check(
        "s27",
        &insert_scan_chain(&s27).netlist,
        "e4f0ddc95247670de413bb1f1a6b0df9",
        "G0 G1 G2 G3 scan_enable scan_in | G17 scan_out",
    );
}

#[test]
fn two_locks_on_a_closure_host() {
    // what the engine's `XorLock(4)` then `XorLock(2)` apply, under the
    // default evaluation seed, to a host of the closure benchmark's
    // shape: 1k gates, 24 inputs, 12 outputs
    let host = random_circuit(&RandomCircuitConfig {
        num_inputs: 24,
        num_gates: 1_000,
        num_outputs: 12,
        with_xor: true,
        seed: 1,
    });
    let seed = 0xC0DE ^ 3;
    let once = xor_lock(&host, 4, seed);
    check(
        "XorLock(4)",
        &once.netlist,
        "4dde7f35a2284148a3277b81c6be5391",
        &random_host_ports(24, 4, 12),
    );
    let twice = xor_lock(&once.netlist, 2, seed);
    check(
        "XorLock(2)",
        &twice.netlist,
        "35cbe2018f4635ff827ab911b37c7509",
        &random_host_ports(24, 6, 12),
    );
}
