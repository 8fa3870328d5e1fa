"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at tiny sizes
and asserts that each run checks out and emits every end-to-end and
per-layer metric with its unit.  Then it plants a wrong expected answer
and asserts that the run reports the failure.
"""

from __future__ import annotations

import json
import sys

import checks
import run


def _printed(lines: list[str]) -> dict[str, str]:
    """Metric name -> unit, from the report's ``metric NAME VALUE UNIT`` lines."""
    return {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    throughputs = {"compute-random": "vertices_per_s", "compute-deep": "vertices_per_s",
                   "enumerate": "classes_per_s", "verify": "instances_per_s"}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            lines, result = run.run(name, seed=7, seconds=1, trace=trace, scale=run.TINY)
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            assert emitted == wanted, (name, trace, set(emitted) ^ set(wanted))
            printed = _printed(lines)
            assert all(printed[m] == unit for m, unit in wanted.items()), (name, trace)
            if not trace:
                assert printed["fail_ratio"] == "ratio", name
                assert throughputs[name] in printed, name
            print(f"ok {name} trace={int(trace)}: {result['attempted']} checked operations")

    # A wrong expected class count must surface as failed operations.
    right = checks.FREE_TREES
    n = run.TINY["enum_n"]
    checks.FREE_TREES = right[:n] + (right[n] + 1,) + right[n + 1:]
    try:
        lines, result = run.run("enumerate", seed=7, seconds=1, trace=False, scale=run.TINY)
    finally:
        checks.FREE_TREES = right
    fail_ratio = float(next(line.split()[2] for line in lines if line.startswith("metric fail_ratio")))
    assert not result["correct"] and result["failed"] > 0 and fail_ratio > 0, lines
    print(f"ok planted wrong answer: fail_ratio {fail_ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
