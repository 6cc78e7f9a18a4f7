"""The three benchmark workloads: seeded inputs, the timed operation, its gates.

`make_inputs` is plain Python so that `run.py` can build a workload's config
without importing dispwave. Everything else runs inside `worker.py`, after
dispwave has been imported (and, in a traced run, instrumented).

Seed 0 reproduces the README soliton config and the acceptance-7/8 data
exactly. Other seeds jitter the wave speed, the steepness and the bump centre
by at most 1% (centres by at most 0.05) so that every seed keeps its verdict:
the soliton stays admissible and global, the breaking data stay triggered and
break, and the sweep ratios stay decreasing and above 0.98.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed

# Workloads whose artifacts are compared across repetitions need two of them.
MIN_REPS = {"soliton_cli": 2, "breaking_n16k": 1, "sweep_n8192": 2}
SWEEP_WORKERS = 2


def _jitter(rng: random.Random, seed: int, base: float, rel: float) -> float:
    return base if seed == 0 else base * (1.0 + rng.uniform(-rel, rel))


def _shift(rng: random.Random, seed: int, width: float) -> float:
    return 0.0 if seed == 0 else rng.uniform(-width, width)


def make_inputs(workload: str, seed: int) -> dict:
    """The config dict a workload hands to dispwave, derived from the seed only."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "soliton_cli":
        # README soliton config with the horizon lengthened from 5 to 30 and
        # checkpoint dumps on, so artifact writing is a visible share of wall_s
        return {
            "params": {"gamma": 1.0, "omega": 0.5},
            "grid": {"L": 30.0, "N": 1024},
            "solver": {"t_end": 30.0, "sample_interval": 0.05, "decay_tolerance": 1e-8,
                       "checkpoint_interval": 0.5},
            "initial": {"kind": "soliton", "c": _jitter(rng, seed, 2.0, 0.01)},
            "outputs": {"write_checkpoints": True},
            "seed": 0,
        }
    if workload == "breaking_n16k":
        return {  # acceptance 7
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 16384},
            "solver": {"t_end": 2.0, "sample_interval": 0.004, "blowup_m_threshold": 20.0,
                       "dt_min": 1e-10},
            "initial": {"kind": "steep", "amplitude": 1.0,
                        "steepness": _jitter(rng, seed, 3.0, 0.01),
                        "center": _shift(rng, seed, 0.05)},
        }
    if workload == "sweep_n8192":
        return {  # acceptance 8
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 8192},
            "solver": {"t_end": 2.0, "sample_interval": 0.002, "blowup_m_threshold": 12.0,
                       "dt_min": 1e-10},
            "family": {"kind": "steepness", "amplitude": 1.0,
                       "steepnesses": [_jitter(rng, seed, s, 0.01) for s in (3.0, 4.5, 6.0)],
                       "center": _shift(rng, seed, 0.05)},
        }
    raise ValueError(f"unknown workload {workload!r}")


def _usage() -> tuple[float, float]:
    """(user+sys CPU seconds of this process and its reaped children, peak RSS in MB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB


@dataclass
class Outcome:
    """One repetition: its measurements, gate failures and artifact digest.

    wall_s and cpu_s are scaled to nominal host speed, and wall_s is net of
    steal (see hostspeed.py); raw_wall_s is the wall time as measured,
    sampling included.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    host_scale: float = 1.0
    unstolen: float = 1.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digest: str = ""


@contextmanager
def _timed(outcome: Outcome, tracer):
    """Time the region from the first call into dispwave to artifacts on disk."""
    frame = tracer.open("bench.workload") if tracer is not None else None
    speed = HostSpeed()
    cpu0, _ = _usage()
    start = time.perf_counter()
    try:
        with speed:
            yield
    finally:
        wall = time.perf_counter() - start
        cpu1, rss = _usage()
        if frame is not None:
            tracer.close(frame)
        outcome.raw_wall_s = wall
        outcome.host_scale = speed.scale
        outcome.unstolen = speed.unstolen
        outcome.wall_s = (wall - speed.wall) * speed.unstolen * speed.scale
        outcome.cpu_s = (cpu1 - cpu0 - speed.cpu) * speed.scale
        outcome.peak_rss_mb = rss


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _soliton_cli(inputs: dict, config: Path, out: Path, tracer, outcome: Outcome) -> None:
    import dispwave.cli

    with _timed(outcome, tracer):
        code = dispwave.cli.main(["simulate", "--config", str(config), "--out", str(out)])
    if code != 0:
        outcome.problems.append(f"simulate exited {code}")
        return
    summary = json.loads((out / "summary.json").read_text())
    if summary["stop_reason"] != "reached_t_end":
        outcome.problems.append(f"stop_reason {summary['stop_reason']}")
    if not summary["shape_error"] <= 1e-4:
        outcome.problems.append(f"shape_error {summary['shape_error']} > 1e-4")
    drift = [w for w in summary["warnings"] if w.startswith("energy drift")]
    if drift:
        outcome.problems.append(drift[0])


def _breaking_n16k(inputs: dict, _config: Path, out: Path, tracer,
                   outcome: Outcome) -> None:
    from dispwave import blowup, config, fileio, timestep

    with _timed(outcome, tracer):
        rc = config.parse_run_config(inputs, out)
        u0 = config.build_initial_field(rc)
        verdict = blowup.blowup_condition(u0, rc.params)
        bound = blowup.existence_bound(u0, rc.params)
        result = timestep.simulate(u0, rc.params, rc.solver)
        fit = blowup.extrapolate_blowup_time(result.slope_trace)
        fileio.write_json(out / "result.json", {
            "triggered": verdict.triggered, "stop_reason": result.stop_reason,
            "t_stop": result.t_stop, "t_star": fit.t_star, "T_lower": bound.t_lower,
        })
        fileio.write_csv(out / "slope_trace.csv", ("t", "m", "xi", "m_rhs"),
                         [(s.t, s.m, s.xi, s.m_rhs) for s in result.slope_trace])
    if not verdict.triggered:
        outcome.problems.append("breaking criterion not triggered")
    if result.stop_reason != "blowup_slope":
        outcome.problems.append(f"stop_reason {result.stop_reason}")
    for name, value in (("t_star", fit.t_star), ("t_stop", result.t_stop)):
        if not value >= 0.98 * bound.t_lower:
            outcome.problems.append(f"{name} {value} < 0.98 * T_lower {bound.t_lower}")


def _sweep_n8192(inputs: dict, config: Path, out: Path, tracer, outcome: Outcome) -> None:
    import dispwave.cli

    argv = ["sweep", "--config", str(config), "--out", str(out),
            "--workers", str(SWEEP_WORKERS)]
    with _timed(outcome, tracer):
        code = dispwave.cli.main(argv)
    if code != 0:
        outcome.problems.append(f"sweep exited {code}")
        return
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(inputs["family"]["steepnesses"]):
        outcome.problems.append(f"{len(rows)} rows in comparison.csv")
    bad = [r["family_id"] for r in rows if r["censored"] != "false" or r["gamma_case"] == "error"]
    if bad:
        outcome.problems.append(f"censored or error rows {bad}")
        return
    ratios = [float(r["ratio"]) for r in rows]
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        outcome.problems.append(f"ratios not strictly decreasing: {ratios}")
    if not all(r >= 0.98 for r in ratios):
        outcome.problems.append(f"ratio below 0.98: {ratios}")


_OPERATIONS = {
    "soliton_cli": _soliton_cli,
    "breaking_n16k": _breaking_n16k,
    "sweep_n8192": _sweep_n8192,
}


def run(workload: str, inputs: dict, config: Path, out: Path, tracer=None) -> Outcome:
    """One repetition into the new directory `out`; gates are checked untimed.

    `config` is `inputs` written as JSON, which the CLI workloads read.
    """
    out.mkdir(parents=True)
    outcome = Outcome()
    _OPERATIONS[workload](inputs, config, out, tracer, outcome)
    outcome.digest = _digest(out)
    return outcome


def probe_state(workload: str, inputs: dict, run_dir: Path):
    """(initial field, params) of the workload, for the per-call RHS/RK4 probes."""
    from dispwave import config

    if workload == "sweep_n8192":  # the family's first (least steep) member
        fam = inputs["family"]
        inputs = {key: inputs[key] for key in ("params", "grid", "solver")}
        inputs["initial"] = {"kind": "steep", "amplitude": fam["amplitude"],
                             "steepness": fam["steepnesses"][0], "center": fam["center"]}
    rc = config.parse_run_config(inputs, run_dir)
    return config.build_initial_field(rc), rc.params
