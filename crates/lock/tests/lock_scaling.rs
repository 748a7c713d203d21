//! Locking costs one pass over the design, whatever the key width: the
//! key gates are appended and their targets' loads rewired in a single
//! `Netlist::redirect`. Rewiring once per key bit made 256 bits cost
//! over five times as much as 8 bits on this 10^5-gate host. The
//! `#[ignore]`d test holds the ratio under 2× and runs in release.

use seceda_lock::xor_lock;
use seceda_netlist::{random_circuit, RandomCircuitConfig};
use std::time::{Duration, Instant};

#[test]
#[ignore = "10^5-gate host; run in release"]
fn xor_lock_time_does_not_grow_with_key_bits() {
    let host = random_circuit(&RandomCircuitConfig {
        num_inputs: 64,
        num_gates: 100_000,
        num_outputs: 32,
        with_xor: true,
        seed: 0x10C4,
    });
    // median of 3 seeded locks
    let median = |bits: usize| {
        let mut times: Vec<Duration> = (0..3)
            .map(|seed| {
                let start = Instant::now();
                let locked = xor_lock(&host, bits, seed);
                let elapsed = start.elapsed();
                assert_eq!(locked.key_width(), bits);
                elapsed
            })
            .collect();
        times.sort();
        times[1]
    };
    let (narrow, wide) = (median(8), median(256));
    assert!(
        wide <= 2 * narrow,
        "256 key bits took {wide:?}, more than twice the {narrow:?} of 8"
    );
}
