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

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo build --benches --offline"
cargo build --benches --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

# Every reported number must be independent of the worker count: the
# attack, composition and parallel-map suites run again with one worker
# and with eight, whatever this host's core count.
echo "==> worker-count independence: lock/core/testkit at 1 and 8 threads"
SECEDA_THREADS=1 cargo test -q --offline -p seceda-lock -p seceda-core -p seceda-testkit
SECEDA_THREADS=8 cargo test -q --offline -p seceda-lock -p seceda-core -p seceda-testkit

# The chaos suite runs once per pinned seed with the harness
# ambient-armed: every injection decision is a pure function of
# (seed, point, salt), so both runs are reproducible bit for bit.
echo "==> chaos suite under two pinned ambient seeds"
SECEDA_CHAOS=0xDEADBEEF cargo test -q --offline -p seceda-core --test chaos
SECEDA_CHAOS=51966 cargo test -q --offline -p seceda-core --test chaos

echo "==> flow-trace example smoke run (release)"
SECEDA_TRACE=1 cargo run --release --offline --example flow-trace > /dev/null

echo "==> seceda_obs smoke: export + top on the flow-trace session"
cargo run --release --offline -p seceda-trace --bin seceda_obs -- \
    export "${CARGO_TARGET_DIR:-target}/flow_trace.jsonl" \
    -o "${CARGO_TARGET_DIR:-target}/flow_trace_chrome.json"
cargo run --release --offline -p seceda-trace --bin seceda_obs -- \
    top -n 5 "${CARGO_TARGET_DIR:-target}/flow_trace.jsonl" > /dev/null

echo "==> fault-sim bench smoke run (quick mode)"
SECEDA_BENCH_QUICK=1 cargo bench --offline --bench fault_sim > /dev/null

echo "==> BENCH_fault_sim.json passes schema validation"
cargo run --release --offline -p seceda-bench --bin check_json -- \
    "${CARGO_TARGET_DIR:-target}/BENCH_fault_sim.json"

echo "==> sat-attack bench smoke run (quick mode)"
SECEDA_BENCH_QUICK=1 cargo bench --offline --bench sat_attack > /dev/null

echo "==> BENCH_sat_attack.json passes schema validation"
cargo run --release --offline -p seceda-bench --bin check_json -- \
    "${CARGO_TARGET_DIR:-target}/BENCH_sat_attack.json"

echo "==> parse bench smoke run (quick mode)"
SECEDA_BENCH_QUICK=1 cargo bench --offline --bench parse > /dev/null

echo "==> BENCH_parse.json passes schema validation"
cargo run --release --offline -p seceda-bench --bin check_json -- \
    "${CARGO_TARGET_DIR:-target}/BENCH_parse.json"

echo "==> compose bench smoke run (quick mode)"
SECEDA_BENCH_QUICK=1 cargo bench --offline --bench compose > /dev/null

echo "==> BENCH_compose.json passes schema validation"
cargo run --release --offline -p seceda-bench --bin check_json -- \
    "${CARGO_TARGET_DIR:-target}/BENCH_compose.json"

# Perf-regression delta table vs the committed BENCH_baseline.json.
# Advisory by default (timings are machine-dependent); set
# SECEDA_BENCH_STRICT=1 on a dedicated perf runner to make it gate.
echo "==> bench_report vs BENCH_baseline.json (warn-only unless SECEDA_BENCH_STRICT=1)"
cargo run --release --offline -p seceda-bench --bin bench_report

# Opt-in scale test: parse + analyze a 10^6-gate design end to end.
if [ "${SECEDA_VERIFY_SCALE:-0}" != "0" ]; then
    echo "==> frontend scale smoke (10^6 gates, SECEDA_VERIFY_SCALE=1)"
    cargo test -q --release --offline -p seceda-sim \
        --test parse_differential -- --ignored
fi

echo "==> verify OK"
