"""Run configuration: strict JSON schema with unknown-key rejection.

A config must reproduce a run exactly, so parsing is deliberately rigid:
every key is checked against a whitelist, types are enforced, referenced
files must exist at parse time, and the resolved form (all defaults filled
in) is what gets embedded into summary artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .initial import field_from_csv, gaussian_bump, steep_bump
from .pde import PdeParams
from .solitary import SolitonParams, build_profile
from .spectral import Field, Grid
from .timestep import SolverConfig


class ConfigError(ValueError):
    """A configuration file is malformed; the message names the field."""


def _check_keys(d, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _number(d: dict, key: str, path: str) -> float:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _integer(d: dict, key: str, path: str) -> int:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _boolean(d: dict, key: str, path: str, default: bool) -> bool:
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {v!r}")
    return v


def _parse_params(data: dict) -> PdeParams:
    _check_keys(data, "params", ("gamma", "omega"))
    try:
        return PdeParams(gamma=_number(data, "gamma", "params"),
                         omega=_number(data, "omega", "params"))
    except ValueError as err:
        raise ConfigError(f"params: {err}") from err


def _parse_grid(data: dict) -> Grid:
    _check_keys(data, "grid", ("L", "N"))
    n = _integer(data, "N", "grid")
    if n < 16 or n & (n - 1) != 0:
        raise ConfigError(f"grid.N: must be a power of two >= 16, got {n}")
    try:
        return Grid(half_width=_number(data, "L", "grid"), n_points=n)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err


_SOLVER_OPTIONAL = ("dt_init", "dt_min", "cfl_fraction", "blowup_m_threshold",
                    "energy_drift_tol", "sample_interval", "decay_tolerance",
                    "checkpoint_interval")


def _parse_solver(data: dict) -> SolverConfig:
    _check_keys(data, "solver", ("t_end",), _SOLVER_OPTIONAL)
    kwargs = {"t_end": _number(data, "t_end", "solver")}
    for key in _SOLVER_OPTIONAL:
        if key == "checkpoint_interval":
            if data.get(key) is not None and key in data:
                kwargs[key] = _number(data, key, "solver")
        elif key in data:
            kwargs[key] = _number(data, key, "solver")
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"solver: {err}") from err


_INITIAL_SCHEMAS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "gaussian": (("amplitude", "width"), ("center",)),
    "steep": (("amplitude", "steepness"), ("center",)),
    "soliton": (("c",), ()),
    "scaled_soliton": (("c", "alpha"), ()),
    "file": (("path",), ()),
}


def _parse_initial(init, base_dir: Path, path: str = "initial") -> dict:
    if not isinstance(init, dict) or "kind" not in init:
        raise ConfigError(f"{path}: expected an object with a 'kind' key")
    kind = init["kind"]
    if kind not in _INITIAL_SCHEMAS:
        raise ConfigError(
            f"{path}.kind: unknown kind {kind!r}, expected one of {sorted(_INITIAL_SCHEMAS)}"
        )
    required, optional = _INITIAL_SCHEMAS[kind]
    _check_keys(init, path, ("kind",) + required, optional)
    resolved: dict = {"kind": kind}
    for key in required + optional:
        if key == "path":
            raw = init[key]
            if not isinstance(raw, str):
                raise ConfigError(f"{path}.path: expected a string, got {raw!r}")
            full = (base_dir / raw).resolve()
            if not full.is_file():
                raise ConfigError(f"{path}.path: file not found: {full}")
            resolved[key] = str(full)
        elif key in init:
            resolved[key] = _number(init, key, path)
        elif key == "center":
            resolved[key] = 0.0
    return resolved


def _parse_outputs(data) -> OutputOptions:
    _check_keys(data, "outputs", (), ("directory", "write_trace", "write_checkpoints"))
    directory = data.get("directory")
    if directory is not None and not isinstance(directory, str):
        raise ConfigError(f"outputs.directory: expected a string, got {directory!r}")
    return OutputOptions(
        directory=directory,
        write_trace=_boolean(data, "write_trace", "outputs", True),
        write_checkpoints=_boolean(data, "write_checkpoints", "outputs", False),
    )


@dataclass(frozen=True)
class OutputOptions:
    directory: str | None = None
    write_trace: bool = True
    write_checkpoints: bool = False


@dataclass(frozen=True)
class RunConfig:
    params: PdeParams
    grid: Grid
    solver: SolverConfig
    initial: dict
    outputs: OutputOptions


def parse_run_config(data, base_dir: Path) -> RunConfig:
    if isinstance(data, dict) and "config" in data and "stop_reason" in data:
        # a summary artifact embeds its resolved config; allow re-running from it
        data = data["config"]
    # older configs and summaries carry a "seed"; nothing is random, so it is ignored
    _check_keys(data, "config", ("params", "grid", "solver", "initial"),
                ("outputs", "seed"))
    return RunConfig(
        params=_parse_params(data["params"]),
        grid=_parse_grid(data["grid"]),
        solver=_parse_solver(data["solver"]),
        initial=_parse_initial(data["initial"], base_dir),
        outputs=_parse_outputs(data.get("outputs", {})),
    )


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err


def load_run_config(path) -> RunConfig:
    path = Path(path)
    return parse_run_config(_load_json(path), path.parent)


def config_dict(rc: RunConfig) -> dict:
    """The fully resolved configuration, suitable for exact reproduction."""
    return {
        "params": {"gamma": rc.params.gamma, "omega": rc.params.omega},
        "grid": {"L": rc.grid.half_width, "N": rc.grid.n_points},
        "solver": {
            "t_end": rc.solver.t_end,
            "dt_init": rc.solver.dt_init,
            "dt_min": rc.solver.dt_min,
            "cfl_fraction": rc.solver.cfl_fraction,
            "blowup_m_threshold": rc.solver.blowup_m_threshold,
            "energy_drift_tol": rc.solver.energy_drift_tol,
            "sample_interval": rc.solver.sample_interval,
            "decay_tolerance": rc.solver.decay_tolerance,
            "checkpoint_interval": rc.solver.checkpoint_interval,
        },
        "initial": dict(rc.initial),
        "outputs": {
            "directory": rc.outputs.directory,
            "write_trace": rc.outputs.write_trace,
            "write_checkpoints": rc.outputs.write_checkpoints,
        },
    }


def build_initial_field(rc: RunConfig) -> Field:
    """Materialize the configured initial data on the configured grid."""
    init = rc.initial
    kind = init["kind"]
    if kind == "gaussian":
        return gaussian_bump(rc.grid, init["amplitude"], init["width"], init["center"])
    if kind == "steep":
        return steep_bump(rc.grid, init["amplitude"], init["steepness"], init["center"])
    if kind in ("soliton", "scaled_soliton"):
        profile = build_profile(SolitonParams(init["c"], rc.params), rc.grid,
                                tail_tol=max(rc.solver.decay_tolerance, 1e-10))
        if kind == "soliton":
            return profile.as_field()
        return Field(rc.grid, init["alpha"] * profile.values)
    if kind == "file":
        return field_from_csv(rc.grid, init["path"])
    raise ConfigError(f"initial.kind: unhandled kind {kind!r}")


_FAMILY_SCHEMAS = {
    "steepness": (("amplitude", "steepnesses"), ("center",)),
    "amplitude": (("base", "alphas"), ()),
}


@dataclass(frozen=True)
class SweepConfig:
    params: PdeParams
    grid: Grid
    solver: SolverConfig
    family: dict
    outputs: OutputOptions


def parse_sweep_config(data, base_dir: Path) -> SweepConfig:
    _check_keys(data, "config", ("params", "grid", "solver", "family"),
                ("outputs", "seed"))  # "seed" is ignored, as in parse_run_config
    fam = data["family"]
    if not isinstance(fam, dict) or "kind" not in fam:
        raise ConfigError("family: expected an object with a 'kind' key")
    kind = fam["kind"]
    if kind not in _FAMILY_SCHEMAS:
        raise ConfigError(
            f"family.kind: unknown kind {kind!r}, expected one of {sorted(_FAMILY_SCHEMAS)}"
        )
    required, optional = _FAMILY_SCHEMAS[kind]
    _check_keys(fam, "family", ("kind",) + required, optional)
    resolved: dict = {"kind": kind}
    list_key = "steepnesses" if kind == "steepness" else "alphas"
    values = fam[list_key]
    if (not isinstance(values, list) or not values
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values)):
        raise ConfigError(f"family.{list_key}: expected a non-empty list of numbers")
    resolved[list_key] = [float(v) for v in values]
    if kind == "steepness":
        resolved["amplitude"] = _number(fam, "amplitude", "family")
        resolved["center"] = _number(fam, "center", "family") if "center" in fam else 0.0
    else:
        resolved["base"] = _parse_initial(fam["base"], base_dir, path="family.base")
    return SweepConfig(
        params=_parse_params(data["params"]),
        grid=_parse_grid(data["grid"]),
        solver=_parse_solver(data["solver"]),
        family=resolved,
        outputs=_parse_outputs(data.get("outputs", {})),
    )


def load_sweep_config(path) -> SweepConfig:
    path = Path(path)
    return parse_sweep_config(_load_json(path), path.parent)


def build_family(sc: SweepConfig) -> list[tuple[float, Field]]:
    """Instantiate the family members as (alpha, initial field) pairs."""
    fam = sc.family
    if fam["kind"] == "steepness":
        return [
            (s, steep_bump(sc.grid, fam["amplitude"], s, fam["center"]))
            for s in fam["steepnesses"]
        ]
    base_rc = RunConfig(params=sc.params, grid=sc.grid, solver=sc.solver,
                        initial=fam["base"], outputs=sc.outputs)
    base = build_initial_field(base_rc)
    return [(a, Field(sc.grid, a * base.values)) for a in fam["alphas"]]
