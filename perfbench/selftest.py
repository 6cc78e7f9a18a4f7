"""Quick self-test of the benchmark harness (takes a few minutes).

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it makes
one short untraced run and two short traced runs of seed 0, then checks that

* each run is correct and prints every metric BENCHMARK.json names, with the
  unit named there;
* the exact counts agree between the two traced runs;
* in every traced repetition, the self times of the spans recorded in the
  workload process add up to its traced wall_s within the trace overhead.

Exits 0 when every check passes and 1 otherwise, naming each failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXACT_COUNTS  # noqa: E402


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, expected: list[dict], label: str) -> list[str]:
    errors = [] if result["correct"] else [f"{label}: not correct ({result['failed']} failed)"]
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{label}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            errors.append(f"{label}: {metric['name']} has unit {got['unit']}, "
                          f"expected {metric['unit']}")
    return errors


def check_self_times(workload: str, overhead: float) -> list[str]:
    record = json.loads(
        (HERE / "out" / f"{workload}-seed0-trace1" / "trace1" / "worker.json").read_text())
    errors = []
    for k, rep in enumerate(record["reps"]):
        summed, wall = sum(rep["main_self_s"].values()), rep["raw_wall_s"]
        allowed = max(overhead, 0.01) * wall
        if abs(summed - wall) > allowed:
            errors.append(f"{workload} traced rep {k}: span self times sum to {summed:.6f} s, "
                          f"traced wall time is {wall:.6f} s (allowed difference {allowed:.6f})")
    return errors


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        errors += check_metrics(bench(workload, 0), spec["end_to_end"], f"{workload} trace 0")
        first, second = bench(workload, 1), bench(workload, 1)
        errors += check_self_times(workload, second["metrics"]["trace.overhead_frac"]["value"])
        for label, result in (("first", first), ("second", second)):
            errors += check_metrics(result, spec["per_layer"], f"{workload} trace 1 ({label})")
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
