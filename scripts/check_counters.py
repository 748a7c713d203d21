#!/usr/bin/env python3
"""Checks one perfbench run's work counters against the committed values.

Usage:
    perfbench ... --workload <name> --seed 1 --trace 1 | tail -n 1 |
        python3 scripts/check_counters.py scripts/perfbench_counters.json <name>

Reads perfbench's JSON result line from stdin and compares every metric
whose unit is `count` with the committed value for the workload. Exits
nonzero on any difference, naming each metric that moved, was added or
went missing. A change that moves a counter on purpose updates the
committed file and says why in CHANGES.md.
"""

import json
import sys


def main() -> int:
    committed_path, workload = sys.argv[1], sys.argv[2]
    with open(committed_path, encoding="utf-8") as f:
        expected = json.load(f)[workload]
    result = json.loads(sys.stdin.read())
    measured = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] == "count"
    }
    errors = []
    for name in sorted(set(expected) | set(measured)):
        if name not in measured:
            errors.append(f"{name}: committed {expected[name]}, not reported")
        elif name not in expected:
            errors.append(f"{name}: reported {measured[name]:g}, not committed")
        elif measured[name] != expected[name]:
            errors.append(
                f"{name}: committed {expected[name]}, measured {measured[name]:g}"
            )
    for e in errors:
        print(f"{workload}: counter mismatch: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"{workload}: {len(measured)} counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
