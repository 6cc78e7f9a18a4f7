"""Command-line front end: simulate, soliton, bound, sweep.

Every command reads its run from `--config` (a run config, a summary.json, or for
`sweep` a sweep config) and writes to `--out`; `bound` prints its JSON to stdout only.
Exit codes: 0 for every finished run, breaking included, since wave breaking is science,
not failure, and its verdict is recorded in the artifacts; 2 for a bad command line, bad
input or an I/O error, mapped once in `main`; 1 only for a sweep whose every member
fails; only -h leaves by SystemExit. Nothing is written and no directory is made before
a command's write step, so an unwritable --out is reported after the run. All artifacts
are deterministic: the same config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .blowup import assess, report_fields, sharpness_experiment, write_comparison_csv
from .config import (
    ConfigError,
    build_initial_field,
    config_dict,
    load_run_config,
    load_sweep_config,
    soliton_profile,
)
from .fileio import fmt, json_text, write_csv, write_field_csvs, write_json
from .solitary import first_integral_residual, shape_error, write_profile_csv
from .timestep import simulate


def _cmd_simulate(args) -> int:
    rc = load_run_config(args.config)
    out_dir = Path(args.out)
    u0 = build_initial_field(rc)
    result = simulate(u0, rc.params, rc.solver)

    payload: dict = {
        **report_fields(assess(u0, rc.params, result)),
        "stop_reason": result.stop_reason,
        "t_stop": result.t_stop,
        "energy_initial": result.samples[0].energy,
        "energy_final": result.samples[-1].energy,
        "energy_drift": result.energy_drift,
        "hamiltonian_drift": result.hamiltonian_drift,
        "boundary_max": result.boundary_max,
        "warnings": result.warnings,
        "stats": {"steps": result.steps, "rhs_evaluations": result.rhs_evaluations,
                  "dt_limiters": result.dt_limiters},
        "config": config_dict(rc, out_dir),
    }
    if rc.initial["kind"] == "soliton":
        payload["shape_error"] = shape_error(u0, rc.initial["c"], result.final_state,
                                             result.t_stop)
    out_dir.mkdir(parents=True, exist_ok=True)
    if result.checkpoints:  # exactly when solver.checkpoint_interval is set
        (out_dir / "checkpoints").mkdir(exist_ok=True)
        write_field_csvs(u0.grid.x,
                         ((out_dir / "checkpoints" / f"checkpoint_{i:04d}.csv", field.values)
                          for i, (_, field) in enumerate(result.checkpoints)))
        payload["checkpoint_times"] = [t for t, _ in result.checkpoints]
    write_csv(out_dir / "trace.csv", ("t", "E", "m", "xi", "max_u", "dt"),
              [(r.t, r.energy, r.m, r.xi, r.max_u, r.dt) for r in result.samples])
    write_json(out_dir / "summary.json", payload)
    print(f"{result.stop_reason} at t = {fmt(result.t_stop)} ({payload['outcome']}); "
          f"artifacts in {out_dir}")
    return 0


def _cmd_soliton(args) -> int:
    rc = load_run_config(args.config)
    if rc.initial["kind"] != "soliton":
        raise ConfigError(f"initial.kind: expected 'soliton', got {rc.initial['kind']!r}")
    profile = soliton_profile(rc)
    write_profile_csv(profile, args.out)
    residual = float(abs(first_integral_residual(profile)).max())
    print(f"a = {fmt(profile.params.amplitude)}")
    print(f"kappa = {fmt(profile.params.decay_rate)}")
    print(f"first_integral_residual_max = {fmt(residual)}")
    print(f"wrote profile to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    rc = load_run_config(args.config)
    print(json_text(report_fields(assess(build_initial_field(rc), rc.params))))
    return 0


def _cmd_sweep(args) -> int:
    rows = sharpness_experiment(load_sweep_config(args.config), workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_comparison_csv(rows, out_dir / "comparison.csv")
    print(f"wrote {len(rows)} rows to {out_dir / 'comparison.csv'}")
    return 1 if all(row.gamma_case == "error" for row in rows) else 0


class _Parser(argparse.ArgumentParser):
    """Takes flags only as written in full (`--c` is no `--config`), and raises a bad
    command line as bad input, for `main` to map to exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dispwave",
        description="Numerical laboratory for a family of nonlinearly dispersive wave equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a configured run and write artifacts")
    p_sim.add_argument("--config", required=True, help="run config JSON (or a summary.json)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sol = sub.add_parser("soliton", help="write a soliton initial's profile CSV")
    p_sol.add_argument("--config", required=True, help="run config JSON (or a summary.json)")
    p_sol.add_argument("--out", required=True, help="profile CSV path")
    p_sol.set_defaults(func=_cmd_soliton)

    p_bound = sub.add_parser("bound", help="breaking criterion and existence-time bound")
    p_bound.add_argument("--config", required=True, help="run config JSON (or a summary.json)")
    p_bound.set_defaults(func=_cmd_bound)

    p_sweep = sub.add_parser("sweep", help="sharpness comparison over a family of runs")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
