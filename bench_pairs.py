"""Paired end-to-end benchmark of the working tree against a base commit.

    python3 bench_pairs.py --base HEAD~1 --out pairs.json

Run from the repository root. The base commit is copied with `git archive`
into a temporary directory. For each workload in BENCHMARK.json, each of 10
pairs runs `perfbench/run.py --workload W --seed 0 --seconds T --trace 0`,
T being BENCHMARK.json's run_seconds, once on the base copy and once on the
working tree, and the side that runs first alternates from pair to pair, so
drift of the host's speed falls on both sides alike. The JSON file written
holds both SHAs, per-side medians and quartiles of every end-to-end metric
in BENCHMARK.json with each pair's values, how many pairs the working tree
won (strictly better, in the direction the metric's `better` names), failed
repetitions per side, and the environment record perfbench wrote on each side.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10  # the fewest pairs a gain claim is judged on


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(tree: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """perfbench's result line and environment record for one seed-0 run on tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", repr(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} on {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = json.loads((tree / "perfbench" / "out" / f"{workload}-seed0-trace0"
                      / "env.json").read_text())
    return result, env


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def compare(trees: dict[str, Path], workload: str, envs: dict) -> dict:
    """One workload's pairs: the side run first, failed repetitions, and per metric
    each side's summary and the working tree's wins; envs takes each side's record."""
    runs = {side: [] for side in trees}
    order = []
    for k in range(PAIRS):
        sides = ("base", "work") if k % 2 == 0 else ("work", "base")
        order.append(sides[0])
        for side in sides:
            result, envs[side] = _run(trees[side], workload, SPEC["run_seconds"])
            runs[side].append(result)
            print(f"{workload} pair {k + 1}/{PAIRS} {side}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
    metrics = {}
    for metric in SPEC["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in trees}
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **{side: _summary(v) for side, v in values.items()},
            "work_wins": sum(sign * w < sign * b for b, w in zip(values["base"], values["work"])),
        }
    return {"first": order,
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in trees},
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the commit to compare against")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    base_sha = _git("rev-parse", args.base)
    record = {
        "base": {"rev": args.base, "sha": base_sha},
        "work": {"sha": _git("rev-parse", "HEAD"),
                 "uncommitted": bool(_git("status", "--porcelain", "--", "src", "perfbench"))},
        "seed": 0, "seconds": SPEC["run_seconds"], "pairs": PAIRS,
        "workloads": {},
    }
    envs: dict[str, dict] = {}
    scratch = Path(tempfile.mkdtemp(prefix="bench_base_"))
    try:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(scratch)], input=archive, check=True)
        trees = {"base": scratch, "work": ROOT}
        for workload in (w["name"] for w in SPEC["workloads"]):
            record["workloads"][workload] = compare(trees, workload, envs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["env"] = envs
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, found in record["workloads"].items():
        for name, m in found["metrics"].items():
            print(f"{workload:<14} {name:<12} base {m['base']['median']:.4g} "
                  f"(IQR {m['base']['iqr']:.2g})  work {m['work']['median']:.4g} "
                  f"(IQR {m['work']['iqr']:.2g})  work won {m['work_wins']}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
