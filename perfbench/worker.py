"""Measurement process: repeats one workload in a fresh interpreter.

Started by run.py with `src` on PYTHONPATH. With `--trace 1` the FFT counter
is installed before dispwave is imported and the layer spans right after;
with `--trace 0` dispwave runs untouched. Repetitions continue while the next
one is expected to end nearer `--seconds` than the last one did (and until
the workload's minimum count is reached), then the worker writes everything it measured to
`<run-dir>/trace<0|1>/worker.json`. The run directory holds the workload's
config.json, written by run.py.

    python3 perfbench/worker.py --workload soliton_cli --run-dir DIR --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed  # noqa: F401  (binds numpy's FFT before a traced run wraps it)


def _cpu_record() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"model": model, "caches": caches}


def _fft_module(module) -> str:
    for name in ("rfft", "_rfft"):
        fn = getattr(module, name, None)
        if callable(fn):
            return fn.__module__
    np = getattr(module, "np", None)
    return np.fft.__name__ if np is not None else "unknown"


def environment() -> dict:
    """Versions, FFT backend, CPU and commit of the code being measured."""
    import numpy

    import dispwave.pde
    import dispwave.spectral
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    sha = "unknown (not a git checkout)"
    if Path(".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "fft_module": {"dispwave.spectral": _fft_module(dispwave.spectral),
                       "dispwave.pde": _fft_module(dispwave.pde)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_record(),
        "git_sha": sha,
    }


def _probes(workload: str, inputs: dict, run_dir: Path, tracer, budget_s: float = 1.0) -> dict:
    """(value, unit) of the transforms in, and median time of, one RHS and one RK4 step.

    The calls alternate, so both medians see the same machine conditions.
    """
    import workloads
    from dispwave import pde, timestep

    u0, params = workloads.probe_state(workload, inputs, run_dir)
    calls = {"pde.rhs": (pde.rhs_nonlocal, (u0, params)),
             "timestep.rk4_step": (timestep.rk4_step, (u0, 1e-4, params))}
    out = {}
    for name, (fn, args) in calls.items():
        before = tracer.transforms
        fn(*args)
        out[f"{name}_transforms"] = (tracer.transforms - before, "count")
    times: dict[str, list[float]] = {name: [] for name in calls}
    deadline = time.perf_counter() + budget_s
    while len(times["pde.rhs"]) < 20 or time.perf_counter() < deadline:
        for name, (fn, args) in calls.items():
            start = time.perf_counter()
            fn(*args)
            times[name].append(time.perf_counter() - start)
    for name, samples in times.items():
        out[f"{name}_us"] = (statistics.median(samples) * 1e6, "us")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install_fft_counter()
    import dispwave.cli  # noqa: F401
    if tracer is not None:
        tracing.install_layer_spans(tracer)
    import workloads

    run_dir: Path = args.run_dir
    inputs = json.loads((run_dir / "config.json").read_text())
    out = run_dir / f"trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record: dict = {"reps": [], "missing_spans": tracer.missing if tracer else []}
    if tracer is None:
        record["env"] = environment()

    start = time.perf_counter()
    min_reps = workloads.MIN_REPS[args.workload]
    durations: list[float] = []
    # start another repetition if it is expected to end nearer --seconds than this one
    while len(durations) < min_reps or (
            time.perf_counter() - start + statistics.fmean(durations) / 2 < args.seconds):
        k = len(durations)
        rep_start = time.perf_counter()
        rep_dir = out / f"rep{k}"
        shutil.rmtree(out / f"rep{k - 1}", ignore_errors=True)  # keep only the last
        rep: dict = {}
        if tracer is not None:
            tracer.reset()
            tracer.member_dir = out / f"members{k}"
            tracer.member_dir.mkdir()
        try:
            outcome = workloads.run(args.workload, inputs, run_dir / "config.json", rep_dir,
                                    tracer)
            rep.update(wall_s=outcome.wall_s, cpu_s=outcome.cpu_s,
                       raw_wall_s=outcome.raw_wall_s, host_scale=outcome.host_scale,
                       unstolen=outcome.unstolen,
                       peak_rss_mb=outcome.peak_rss_mb, problems=outcome.problems,
                       digest=outcome.digest)
        except (Exception, SystemExit):  # one failed operation; keep measuring
            rep.update(problems=[traceback.format_exc(limit=-3)], digest=None)
        if tracer is not None:
            rep["main_self_s"] = tracer.snapshot()["self"]
            rep["layers"] = tracing.fold_members(tracer)
            rep["spans"] = tracer.spans
        record["reps"].append(rep)
        durations.append(time.perf_counter() - rep_start)

    if tracer is not None:
        tracer.reset()
        record["probes"] = _probes(args.workload, inputs, run_dir, tracer)
    (out / "worker.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
