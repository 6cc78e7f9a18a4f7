"""Run every workload end to end, then traced, and print all their metrics.

    python3 perfbench/all.py [--seed 0] [--seconds 25]

Run from the repository root. For each workload in BENCHMARK.json this makes
one `run.py --trace 0` run and one `run.py --trace 1` run with the same seed
and prints their output. Exits 1 if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                ok = False
            elif not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
