#!/usr/bin/env sh
# Tier-1 verification: build and test the workspace fully offline.
#
# The workspace has no external dependencies (see DESIGN.md §3), so
# --offline must always succeed — any network fetch is a regression.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --offline -- -D warnings"
cargo clippy --workspace --offline -- -D warnings

# Rustdoc warnings fail the gate, so a deleted or private item cannot
# leave a dangling intra-doc link behind.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

# The placement oracle re-costs the whole design after every swap, too
# slow for 1,000-2,000-gate designs in a debug build: its large-design
# differential sweep is #[ignore]d and runs here in release.
echo "==> placement vs. full-recompute oracle on large designs (release)"
cargo test -q --release --offline -p seceda-layout -- --ignored

# Every simulator runs on one compiled evaluation tape; its sweep
# against Netlist::eval_nets and the test-local faulty arena walk on
# 10k-20k-gate designs, and fault grading against that walk's oracle
# detection at 2k gates, is #[ignore]d for the debug suite and runs
# here in release. Only this test target is named, so the
# 10^6-gate parse smoke stays behind SECEDA_VERIFY_SCALE below.
echo "==> simulation tape vs. Netlist::eval_nets on large designs (release)"
cargo test -q --release --offline -p seceda-sim --test tape_differential -- --ignored

# Every reported number must be independent of the worker count: the
# attack (with its rebuild-per-iteration differential), composition,
# simulation (packed fault grading and signal probabilities fan out
# with par), ATPG (its incremental grading fans out the same way) and
# parallel-map suites run again with one worker and with eight,
# whatever this host's core count.
echo "==> worker-count independence: lock/core/sim/dft/testkit at 1 and 8 threads"
SECEDA_THREADS=1 cargo test -q --offline -p seceda-lock -p seceda-core -p seceda-sim -p seceda-dft -p seceda-testkit
SECEDA_THREADS=8 cargo test -q --offline -p seceda-lock -p seceda-core -p seceda-sim -p seceda-dft -p seceda-testkit

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

# The paper's artifacts: Tables I and II, the Fig. 2 series and the
# Sec. IV step-metric sweeps, regenerated end to end.
echo "==> paper-artifact examples smoke run (release)"
cargo run -q --release --offline --example tables > /dev/null
cargo run -q --release --offline --example sweeps > /dev/null

# Opt-in scale test: parse + analyze a 10^6-gate design end to end.
if [ "${SECEDA_VERIFY_SCALE:-0}" != "0" ]; then
    echo "==> frontend scale smoke (10^6 gates, SECEDA_VERIFY_SCALE=1)"
    cargo test -q --release --offline -p seceda-sim \
        --test parse_differential -- --ignored
fi

echo "==> verify OK"
