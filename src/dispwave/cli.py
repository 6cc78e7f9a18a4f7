"""Command-line front end: simulate, soliton, bound, sweep.

Exit-code policy: wave breaking is science, not failure, so a run that blows
up still exits 0 with the verdict recorded in its artifacts. Nonzero exits
are reserved for configuration problems, inadmissible parameters and I/O
errors. All artifacts are deterministic: the same config produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from .blowup import (
    ARTIFACT_NAMES,
    ExistenceBound,
    assess,
    blowup_condition,
    existence_bound,
    sharpness_experiment,
    write_comparison_csv,
)
from .config import (
    RunConfig,
    build_family,
    build_initial_field,
    config_dict,
    load_run_config,
    load_sweep_config,
)
from .fileio import fmt, json_text, write_csv, write_json
from .initial import field_from_csv
from .pde import PdeParams
from .solitary import (
    SolitonParams,
    build_profile,
    first_integral_residual,
    shape_error,
    write_profile_csv,
)
from .spectral import Field, Grid
from .timestep import SimulationResult, simulate

_GLOBAL_NOTE = "gamma = 0: all solutions are global"


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_checkpoints(result: SimulationResult, directory: Path) -> list[float]:
    directory.mkdir(parents=True, exist_ok=True)
    times = []
    for i, (t, field) in enumerate(result.checkpoints):
        write_csv(directory / f"checkpoint_{i:04d}.csv", ("x", "u"),
                  zip(field.grid.x, field.values))
        times.append(t)
    return times


def _bound_fields(bound: ExistenceBound) -> dict:
    return {ARTIFACT_NAMES.get(name, name): value for name, value in asdict(bound).items()}


def _summary_payload(rc: RunConfig, u0: Field, result: SimulationResult) -> dict:
    report = assess(u0, rc.params, result)
    t_star, spread = astuple(report.breaking) if report.breaking else (None, None)
    payload: dict = {
        "stop_reason": result.stop_reason,
        "t_stop": result.t_stop,
        "energy_initial": result.samples[0].energy,
        "energy_final": result.samples[-1].energy,
        "energy_drift": result.energy_drift,
        "existence_bound": _bound_fields(report.bound),
        "t_star": t_star,
        "t_star_spread": spread,
        "warnings": list(result.warnings),
        "stats": {"steps": result.steps, "rhs_evaluations": result.rhs_evaluations},
        "config": config_dict(rc),
        "breaking": ({"note": _GLOBAL_NOTE} if report.verdict is None
                     else {**asdict(report.verdict), "triggered": report.verdict.triggered}),
    }
    if rc.initial["kind"] == "soliton":
        payload["shape_error"] = shape_error(u0, rc.initial["c"], result.final_state,
                                             result.t_stop)
    return payload


def _cmd_simulate(args) -> int:
    try:
        rc = load_run_config(args.config)
    except ValueError as err:
        return _fail(str(err))
    out = args.out if args.out is not None else rc.outputs.directory
    if out is None:
        return _fail("no output directory: set --out or outputs.directory")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        u0 = build_initial_field(rc)
        result = simulate(u0, rc.params, rc.solver)
    except ValueError as err:
        return _fail(str(err))

    payload = _summary_payload(rc, u0, result)
    if rc.outputs.write_checkpoints and result.checkpoints:
        payload["checkpoint_times"] = _write_checkpoints(result, out_dir / "checkpoints")
    if rc.outputs.write_trace:
        write_csv(out_dir / "trace.csv", ("t", "E", "m", "xi", "max_u", "dt"),
                  [(r.t, r.energy, r.m, r.xi, r.max_u, r.dt) for r in result.samples])
    write_json(out_dir / "summary.json", payload)
    print(f"{result.stop_reason} at t = {fmt(result.t_stop)}; artifacts in {out_dir}")
    return 0


def _cmd_soliton(args) -> int:
    try:
        params = SolitonParams(args.c, PdeParams(gamma=args.gamma, omega=args.omega))
    except ValueError as err:
        return _fail(str(err))
    try:
        grid = Grid(args.L, args.N)
        profile = build_profile(params, grid)
    except ValueError as err:
        return _fail(str(err), code=1)
    write_profile_csv(profile, args.out)
    residual = float(np.max(np.abs(first_integral_residual(profile))))
    print(f"a = {fmt(profile.amplitude)}")
    print(f"kappa = {fmt(profile.decay_rate)}")
    print(f"first_integral_residual_max = {fmt(residual)}")
    print(f"wrote profile to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    try:
        if args.config is not None:
            rc = load_run_config(args.config)
            params = rc.params
            u0 = build_initial_field(rc)
        else:
            if args.gamma is None:
                return _fail("--data requires --gamma (and optionally --omega)")
            params = PdeParams(gamma=args.gamma, omega=args.omega)
            u0 = field_from_csv(None, args.data)
    except (ValueError, OSError) as err:
        return _fail(str(err))
    payload = _bound_fields(existence_bound(u0, params))
    if params.gamma == 0.0:
        payload["note"] = _GLOBAL_NOTE
    else:
        verdict = blowup_condition(u0, params)
        payload.update(breaking_threshold=verdict.threshold, triggered=verdict.triggered)
        if verdict.witness_x0 is not None:
            payload["witness_x0"] = verdict.witness_x0
    text = json_text(payload)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    return 0


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        return _fail(f"--workers must be >= 1, got {args.workers}")
    try:
        sc = load_sweep_config(args.config)
        members = build_family(sc)
    except ValueError as err:
        return _fail(str(err))
    if sc.params.gamma == 0.0:
        return _fail(f"sweep requires gamma != 0 ({_GLOBAL_NOTE})")
    out = args.out if args.out is not None else sc.directory
    if out is None:
        return _fail("no output directory: set --out or outputs.directory")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = sharpness_experiment(members, sc.params, sc.solver, workers=args.workers)
    write_comparison_csv(rows, out_dir / "comparison.csv")
    print(f"wrote {len(rows)} rows to {out_dir / 'comparison.csv'}")
    return 1 if all(row.gamma_case == "error" for row in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispwave",
        description="Numerical laboratory for a family of nonlinearly dispersive wave equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a configured run and write artifacts")
    p_sim.add_argument("--config", required=True, help="run config JSON (or a summary.json)")
    p_sim.add_argument("--out", default=None, help="output directory (overrides config)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sol = sub.add_parser("soliton", help="build a solitary-wave profile CSV")
    p_sol.add_argument("--c", type=float, required=True, help="wave speed")
    p_sol.add_argument("--omega", type=float, required=True)
    p_sol.add_argument("--gamma", type=float, required=True)
    p_sol.add_argument("--L", type=float, required=True, help="box half-width")
    p_sol.add_argument("--N", type=int, required=True, help="grid points")
    p_sol.add_argument("--out", required=True, help="profile CSV path")
    p_sol.set_defaults(func=_cmd_soliton)

    p_bound = sub.add_parser("bound", help="breaking criterion and existence-time bound")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="run config JSON")
    group.add_argument("--data", help="field CSV with columns x,u")
    p_bound.add_argument("--gamma", type=float, default=None)
    p_bound.add_argument("--omega", type=float, default=0.0)
    p_bound.add_argument("--out", default=None, help="also write the JSON here")
    p_bound.set_defaults(func=_cmd_bound)

    p_sweep = sub.add_parser("sweep", help="sharpness comparison over an initial-data family")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", default=None, help="output directory (overrides config)")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
