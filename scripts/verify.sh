#!/usr/bin/env sh
# Tier-1 verification: build and test the workspace fully offline.
#
# The workspace has no external dependencies (see DESIGN.md §3), so
# --offline must always succeed — any network fetch is a regression.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# Every public function, and every module, has a user outside its own
# file; the few kept without one are on the allowlist with a reason, and
# an entry that gains a caller or disappears fails the step too.
echo "==> public API: every pub fn and module has a caller (scripts/public_api_allowlist.txt)"
python3 scripts/check_public_api.py

# Test, example and bench targets are linted too, not just the libraries.
echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc warnings fail the gate, so a deleted or private item cannot
# leave a dangling intra-doc link behind.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

# The benchmark harness is its own workspace, built otherwise only by
# the benchmark pipeline: building and testing it here makes a removed
# or renamed public item it uses fail the gate, not a later benchmark run.
echo "==> perfbench build + tests (release)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Traced seed-1 work counters (solves, conflicts, DIPs, cache hits, ...)
# repeat exactly on any host, because perfbench pins one worker. Every
# `count` metric of every workload must equal its committed value in
# scripts/perfbench_counters.json; a change that moves one on purpose
# updates that file and says why in CHANGES.md.
echo "==> perfbench seed-1 work counters vs. scripts/perfbench_counters.json"
for workload in closure_campaign lock_attack signoff_flow; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1 |
        python3 scripts/check_counters.py scripts/perfbench_counters.json "$workload"
done

# The placement oracle re-costs the whole design after every swap, too
# slow for 1,000-2,000-gate designs in a debug build: its large-design
# differential sweep is #[ignore]d and runs here in release.
echo "==> placement vs. full-recompute oracle on large designs (release)"
cargo test -q --release --offline -p seceda-layout -- --ignored

# Both parsers check input membership and duplicate declarations in
# O(1) per name; parsing a .bench with 10^5 inputs and a Verilog module
# with 10^5 wires, under a wall-time bound that a scan of the inputs or
# declarations per name exceeds many times over, is #[ignore]d for the
# debug suite and runs here in release.
echo "==> 10^5-wide .bench and Verilog parse (release)"
cargo test -q --release --offline -p seceda-netlist --test parse_wide -- --ignored

# Locking appends its key gates and rewires their targets' loads in one
# Netlist::redirect pass, so its cost follows the design, not the design
# times the key width: on a 10^5-gate host, 256 key bits must take at
# most twice as long as 8 (medians of 3). #[ignore]d for the debug
# suite; runs here in release.
echo "==> xor_lock time independent of key width on a 10^5-gate host (release)"
cargo test -q --release --offline -p seceda-lock --test lock_scaling -- --ignored

# Every simulator runs on one compiled evaluation tape; its sweep
# against Netlist::eval_nets and the test-local faulty arena walk on
# 10k-20k-gate designs, and fault grading against that walk's oracle
# detection at 2k gates, is #[ignore]d for the debug suite and runs
# here in release. Only this test target is named, so the
# 10^6-gate parse smoke stays behind SECEDA_VERIFY_SCALE below.
echo "==> simulation tape vs. Netlist::eval_nets on large designs (release)"
cargo test -q --release --offline -p seceda-sim --test tape_differential -- --ignored

# Fault-injection campaigns run lane-packed on the same tape; their
# sweep against the scalar classification oracle on 1k-gate hosts is
# #[ignore]d for the debug suite and runs here in release.
echo "==> FIA campaign analysis vs. scalar oracle on 1k-gate hosts (release)"
cargo test -q --release --offline -p seceda-fia --lib -- --ignored

# ATPG, coverage proofs, equivalence and BMC lower through one
# structurally-hashed AIG; the sweep of its fault-cone and equivalence
# verdicts against the per-net Tseitin oracle on 1k-gate bare and
# DWC-protected hosts is #[ignore]d for the debug suite and runs here
# in release.
echo "==> AIG fault cones and equivalence vs. Tseitin oracle on 1k-gate hosts (release)"
cargo test -q --release --offline -p seceda-verif --test lowering_oracle -- --ignored

# Every reported number must be independent of the worker count: the
# attack (with its rebuild-per-iteration differential), composition,
# simulation (packed fault grading and signal probabilities fan out
# with par), ATPG (its incremental grading fans out the same way),
# Trojan (rare-signal selection runs signal probabilities), fault
# injection (its campaigns are serial today; pinned so a later
# fan-out is held to the same rule) and parallel-map suites run again
# with one, two and eight workers, whatever this host's core count (two
# is the core count of the benchmark host).
echo "==> worker-count independence: lock/core/sim/dft/trojan/fia/testkit at 1, 2 and 8 threads"
for threads in 1 2 8; do
    SECEDA_THREADS=$threads cargo test -q --offline -p seceda-lock -p seceda-core \
        -p seceda-sim -p seceda-dft -p seceda-trojan -p seceda-fia -p seceda-testkit
done

# The chaos suite runs once per pinned seed with the harness
# ambient-armed: every injection decision is a pure function of
# (seed, point, salt), so every run is reproducible bit for bit. Each
# seed runs at one worker and at eight, so the environment seed must
# reach every par worker at both counts.
echo "==> chaos suite under two pinned ambient seeds at 1 and 8 threads"
for seed in 0xDEADBEEF 51966; do
    for threads in 1 8; do
        SECEDA_CHAOS=$seed SECEDA_THREADS=$threads \
            cargo test -q --offline -p seceda-core --test chaos
    done
done

echo "==> flow-trace example smoke run (release)"
SECEDA_TRACE=1 cargo run --release --offline --example flow-trace > /dev/null

echo "==> seceda_obs smoke: export + top on the flow-trace session"
cargo run --release --offline -p seceda-trace --bin seceda_obs -- \
    export "${CARGO_TARGET_DIR:-target}/flow_trace.jsonl" \
    -o "${CARGO_TARGET_DIR:-target}/flow_trace_chrome.json"
cargo run --release --offline -p seceda-trace --bin seceda_obs -- \
    top -n 5 "${CARGO_TARGET_DIR:-target}/flow_trace.jsonl" > /dev/null

# The netlist CLI parses a sequential .bench and a structural Verilog
# design, prints their vitals and whole-design digest, and re-exports
# each as .bench into the target dir.
echo "==> seceda_netlist CLI smoke on s27.bench and c17.v"
for design in s27.bench c17.v; do
    cargo run -q --release --offline -p seceda-netlist --bin seceda_netlist -- \
        "crates/netlist/tests/data/$design" \
        --write-bench "${CARGO_TARGET_DIR:-target}/${design%.*}_cli.bench" > /dev/null
done

# The paper's artifacts (Tables I and II, the Fig. 2 series and the
# Sec. IV step-metric sweeps), the engine demo (which also asserts that
# the re-evaluation catches the masking/parity conflict and that
# duplication with comparison composes with masking), the quickstart
# over both flows, and the walkthroughs (the supply-chain scenario,
# fault coverage with the rare-net count, the Fig. 2 private circuit)
# print only measured, deterministic results at any worker count: each
# one's stdout must equal its committed golden, examples/golden/<name>.txt.
# After an intended change of a printed result, regenerate the golden
# with `cargo run -q --release --offline --example <name> >
# examples/golden/<name>.txt` and review the diff.
echo "==> example outputs vs. examples/golden (release)"
for example in tables sweeps quickstart secure_composition supply_chain \
    fault_coverage private_circuit; do
    out="${CARGO_TARGET_DIR:-target}/golden_$example.txt"
    cargo run -q --release --offline --example "$example" > "$out"
    diff -u "examples/golden/$example.txt" "$out"
done

# Opt-in scale test: parse + analyze a 10^6-gate design end to end.
if [ "${SECEDA_VERIFY_SCALE:-0}" != "0" ]; then
    echo "==> frontend scale smoke (10^6 gates, SECEDA_VERIFY_SCALE=1)"
    cargo test -q --release --offline -p seceda-sim \
        --test parse_differential -- --ignored
fi

echo "==> verify OK"
