"""dispwave benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload soliton_cli --seed 0 --seconds 25 --trace 0

Run from the repository root. `--trace 0` reports the end-to-end metrics
(setup_s, wall_s, cpu_s, peak_rss_mb); `--trace 1` repeats the workload
untraced for half the time and traced for the other half and reports the
per-layer metrics. Every repetition is checked against the workload's
correctness gates. The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Inputs, artifacts of the last repetition, spans, the environment record and
the result are written to perfbench/out/<workload>-seed<n>-trace<t>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run ends within this, with or without a result
_SETUP_CODE = ("import sys, time\n"
               "import dispwave, dispwave.cli\n"
               "sys.stdout.write(repr(time.monotonic()))\n")


class BenchError(RuntimeError):
    """The benchmark could not run the program at all (no result is printed)."""


def _python(args: list[str], env: dict, deadline: float) -> str:
    """Run a Python child in its own process group; return its stdout."""
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[:2]} did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Seconds from launching a fresh interpreter until dispwave.cli is imported.

    The first launch only warms the bytecode and page caches and is not kept.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        launched = time.monotonic()
        imported = float(_python(["-c", _SETUP_CODE], env, deadline))
        samples.append(imported - launched)
    return samples[1:]


def run_worker(workload: str, run_dir: Path, seconds: float, trace: int, env: dict,
               deadline: float) -> dict:
    _python([str(HERE / "worker.py"), "--workload", workload, "--run-dir", str(run_dir),
             "--seconds", repr(seconds), "--trace", str(trace)], env, deadline)
    return json.loads((run_dir / f"trace{trace}" / "worker.json").read_text())


def _mark_mismatches(reps: list[dict], key: str, reference, what: str) -> None:
    for rep in reps:
        if rep.get(key) is not None and rep[key] != reference:
            rep["problems"].append(f"{what} differ from the first repetition")


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


EXACT_COUNTS = ("spectral.transforms", "pde.rhs_transforms", "timestep.rk4_step_transforms",
                "timestep.samples", "timestep.checkpoints", "pde.record_calls",
                "solitary.build_profile_calls", "fileio.files", "fileio.bytes", "blowup.members")


def layer_metrics(layers: dict, wall_s: float, workers: int) -> dict:
    """Per-layer values of one traced repetition (this process plus pool workers)."""
    total, self_time = layers["total"], layers["self"]
    calls, counts, member_s = layers["calls"], layers["counts"], layers["member_s"]
    transforms = calls.get("spectral.fft", 0)
    fft_s = total.get("spectral.fft", 0.0)
    return {
        "spectral.transforms": (transforms, "count"),
        "spectral.fft_s": (fft_s, "s"),
        "spectral.fft_us": (fft_s / transforms * 1e6 if transforms else 0.0, "us"),
        "timestep.simulate_s": (total.get("timestep.simulate", 0.0), "s"),
        "timestep.simulate_self_s": (self_time.get("timestep.simulate", 0.0), "s"),
        "timestep.samples": (counts.get("timestep.samples", 0), "count"),
        "timestep.checkpoints": (counts.get("timestep.checkpoints", 0), "count"),
        "pde.record_calls": (calls.get("pde.record", 0), "count"),
        "pde.record_s": (total.get("pde.record", 0.0), "s"),
        "solitary.build_profile_calls": (calls.get("solitary.build_profile", 0), "count"),
        "solitary.build_profile_s": (total.get("solitary.build_profile", 0.0), "s"),
        "fileio.files": (calls.get("fileio.write", 0), "count"),
        "fileio.bytes": (counts.get("fileio.bytes", 0), "bytes"),
        "fileio.write_s": (total.get("fileio.write", 0.0), "s"),
        "blowup.analysis_s": (total.get("blowup.analysis", 0.0), "s"),
        "blowup.members": (len(member_s), "count"),
        "blowup.member_s_max": (max(member_s, default=0.0), "s"),
        "blowup.member_s_sum": (float(sum(member_s)), "s"),
        "blowup.parallel_efficiency": (sum(member_s) / (workers * wall_s), "ratio"),
        "config.load_s": (total.get("config.load", 0.0), "s"),
        "config.build_initial_s": (total.get("config.build_initial", 0.0), "s"),
    }


def _medians(per_rep: list[dict]) -> dict:
    """Median over repetitions; exact counts must agree and are taken as they are."""
    out = {}
    for name, (first, unit) in per_rep[0].items():
        values = [rep[name][0] for rep in per_rep]
        out[name] = (first if name in EXACT_COUNTS else statistics.median(values), unit)
    return out


def end_to_end(workload: str, run_dir: Path, seconds: float, env: dict, deadline: float):
    setup = measure_setup(env, deadline)
    record = run_worker(workload, run_dir, seconds, 0, env, deadline)
    reps = record["reps"]
    reference = next((r["digest"] for r in reps if r.get("digest")), None)
    _mark_mismatches(reps, "digest", reference, "artifacts")
    timed = [r for r in reps if "wall_s" in r]
    series = {
        "setup_s": (setup, "s"),
        "wall_s": ([r["wall_s"] for r in timed], "s"),
        "cpu_s": ([r["cpu_s"] for r in timed], "s"),
    }
    metrics = {name: (statistics.median(v), unit) for name, (v, unit) in series.items() if v}
    if timed:
        metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in timed), "MB")
    series["raw wall_s"] = ([r["raw_wall_s"] for r in timed], "s")
    series["host scale"] = ([r["host_scale"] for r in timed], "")
    series["unstolen"] = ([r["unstolen"] for r in timed], "")
    notes = [f"{name}: {_quartiles(v)}" for name, (v, _) in series.items()]
    return reps, metrics, notes, record["env"]


def traced(workload: str, run_dir: Path, seconds: float, env: dict, deadline: float):
    plain = run_worker(workload, run_dir, seconds / 2, 0, env, deadline)
    record = run_worker(workload, run_dir, seconds / 2, 1, env, deadline)
    reps = plain["reps"] + record["reps"]
    reference = next((r["digest"] for r in reps if r.get("digest")), None)
    _mark_mismatches(reps, "digest", reference, "artifacts")

    workers = workloads.SWEEP_WORKERS if workload == "sweep_n8192" else 1
    timed = [r for r in record["reps"] if "wall_s" in r]
    per_rep = [layer_metrics(r["layers"], r["raw_wall_s"], workers) for r in timed]
    for rep, values in zip(timed, per_rep):
        rep["counts"] = {name: values[name][0] for name in EXACT_COUNTS if name in values}
    if timed:
        _mark_mismatches(timed, "counts", timed[0]["counts"], "exact counts")
    metrics = _medians(per_rep) if per_rep else {}
    metrics.update((name, tuple(pair)) for name, pair in record["probes"].items())
    plain_wall = [r["wall_s"] for r in plain["reps"] if "wall_s" in r]
    if timed and plain_wall:
        traced_wall = statistics.median(r["wall_s"] for r in timed)
        metrics["trace.overhead_frac"] = (traced_wall / statistics.median(plain_wall) - 1.0,
                                          "ratio")
    notes = [f"traced repetitions: {len(timed)}, untraced: {len(plain_wall)}"]
    if record["missing_spans"]:
        notes.append(f"functions not found for spans: {record['missing_spans']}")
    return reps, metrics, notes, plain["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIN_REPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "dispwave" / "__init__.py").is_file():
        print(f"error: no dispwave sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed)
    (run_dir / "config.json").write_text(json.dumps(inputs, indent=2) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    measure = traced if args.trace else end_to_end
    try:
        reps, metrics, notes, machine = measure(args.workload, run_dir, args.seconds, env,
                                                deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    failed = [r for r in reps if r["problems"]]
    result = {
        "correct": not failed and bool(reps),
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    (run_dir / "env.json").write_text(json.dumps(machine, indent=2) + "\n")
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions, {len(failed)} failed")
    print(f"# numpy {machine['numpy']}, scipy {machine['scipy']}, "
          f"fft {machine['fft_module']['dispwave.spectral']}, nproc {machine['nproc']}, "
          f"{machine['cpu']['model']}, git {machine['git_sha'][:12]}")
    for rep in failed:
        print(f"# failed: {'; '.join(rep['problems'])}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
