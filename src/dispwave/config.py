"""Run and sweep configuration: strict JSON schemas with unknown-key rejection.

A config must reproduce a run exactly, so parsing is deliberately rigid:
every key is checked against a whitelist, types are enforced, referenced
files must exist at parse time, and the resolved form (all defaults filled
in) is what gets embedded into summary artifacts.

Both config types go through one parser. Each has `params`, `grid` and
`solver`; a run adds `initial` and a sweep adds `family`, objects whose `kind`
key selects their schema from a table. An `amplitude` family's `base` is
initial data under the run's schema. A config holds only what changes a run's
numbers: the output directory is the command's `--out`, a run always writes
its trace and its checkpoints exactly when `solver.checkpoint_interval` is
set. The keys older configs and summaries carry for those are in `_RETIRED`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .initial import field_from_csv, gaussian_bump, steep_bump
from .pde import PdeParams
from .solitary import SolitonParams, build_profile
from .spectral import PINNED_N_MAX, Field, Grid
from .timestep import CFL_FRACTION, ENERGY_DRIFT_TOL, SolverConfig


class ConfigError(ValueError):
    """A configuration file is malformed; the message names the field."""


def _check_keys(d, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    # a retired key passes here, and _parse_sections checks its value
    unknown = sorted(k for k in set(d) - set(required) - set(optional)
                     if f"{path}.{k}" not in _RETIRED)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _number(d: dict, key: str, path: str) -> float:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # JSON's Infinity and NaN; exact for any int
        raise ConfigError(f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _integer(d: dict, key: str, path: str) -> int:
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _parse_params(data: dict) -> PdeParams:
    _check_keys(data, "params", ("gamma", "omega"))
    gamma, omega = _number(data, "gamma", "params"), _number(data, "omega", "params")
    try:
        return PdeParams(gamma=gamma, omega=omega)
    except ValueError as err:
        raise ConfigError(f"params: {err}") from err


def _parse_grid(data: dict) -> Grid:
    _check_keys(data, "grid", ("L", "N"))
    n = _integer(data, "N", "grid")
    if n < 16 or n > PINNED_N_MAX or n & (n - 1) != 0:
        raise ConfigError(f"grid.N: must be a power of two from 16 to {PINNED_N_MAX}, the "
                          f"largest grid the malloc pin keeps fault-free, got {n}")
    half_width = _number(data, "L", "grid")
    try:
        return Grid(half_width=half_width, n_points=n)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err


def _parse_solver(data: dict) -> SolverConfig:
    _check_keys(data, "solver", ("t_end",), tuple(f.name for f in fields(SolverConfig)))
    # null is accepted only where the default is None (checkpoint_interval)
    kwargs = {f.name: _number(data, f.name, "solver") for f in fields(SolverConfig)
              if f.name in data and not (data[f.name] is None and f.default is None)}
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

_FAMILY_SCHEMAS = {
    "steepness": (("steepnesses", "amplitude"), ("center",)),
    "amplitude": (("alphas", "base"), ()),
}


def _parse_kind(spec, base_dir: Path, path: str, schemas: dict) -> dict:
    """Resolve an object whose `kind` key picks its schema, defaults filled in."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{path}: expected an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in schemas:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}, expected one of {sorted(schemas)}")
    required, optional = schemas[kind]
    _check_keys(spec, path, ("kind",) + required, optional)
    resolved: dict = {"kind": kind}
    for key in required + optional:
        where = f"{path}.{key}"
        if key not in spec:
            resolved[key] = 0.0  # "center" is the only optional key
        elif key == "path":
            raw = spec[key]
            if not isinstance(raw, str):
                raise ConfigError(f"{where}: expected a string, got {raw!r}")
            full = (base_dir / raw).resolve()
            if not full.is_file():
                raise ConfigError(f"{where}: file not found: {full}")
            resolved[key] = str(full)
        elif key == "base":
            resolved[key] = _parse_kind(spec[key], base_dir, where, _INITIAL_SCHEMAS)
        elif key in ("steepnesses", "alphas"):
            values = spec[key]
            if (not isinstance(values, list) or not values
                    or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values)):
                raise ConfigError(f"{where}: expected a non-empty list of numbers")
            resolved[key] = [_number({i: v}, i, where) for i, v in enumerate(values)]
        else:
            resolved[key] = _number(spec, key, path)
    return resolved


_ANY, _CHECKPOINTED = object(), object()
_SWITCHES = ("trace.csv is always written and checkpoints exactly when "
             "solver.checkpoint_interval is set (here {})")
# Keys that older configs and summaries carry, each with the one value a run implies
# (_CHECKPOINTED: whether solver.checkpoint_interval is set) and why. Each must hold
# that value, JSON type included, and is then ignored. `seed` and the directory never
# changed a run's numbers, so they take _ANY value.
_RETIRED = {
    "config.seed": (_ANY, ""),
    "outputs.directory": (_ANY, ""),
    "outputs.write_trace": (True, _SWITCHES),
    "outputs.write_checkpoints": (_CHECKPOINTED, _SWITCHES),
    "solver.cfl_fraction": (CFL_FRACTION, f"the CFL fraction is fixed at {CFL_FRACTION:g}"),
    "solver.energy_drift_tol": (ENERGY_DRIFT_TOL, "the energy-drift warning level is "
                                f"fixed at {ENERGY_DRIFT_TOL:g}"),
}


def _parse_sections(data, base_dir: Path, kind_key: str, schemas: dict) -> dict:
    """Fields of a RunConfig (kind_key "initial") or SweepConfig ("family")."""
    _check_keys(data, "config", ("params", "grid", "solver", kind_key), ("outputs",))
    _check_keys(data.get("outputs", {}), "outputs", ())
    sections = {
        "params": _parse_params(data["params"]),
        "grid": _parse_grid(data["grid"]),
        "solver": _parse_solver(data["solver"]),
        kind_key: _parse_kind(data[kind_key], base_dir, kind_key, schemas),
    }
    checkpointed = sections["solver"].checkpoint_interval is not None
    for key, (implied, why) in _RETIRED.items():
        section, name = key.split(".")
        holder = data if section == "config" else data.get(section, {})
        implied = checkpointed if implied is _CHECKPOINTED else implied
        if name not in holder or implied is _ANY:
            continue
        if kind_key == "family" and section == "outputs":
            why = "a sweep writes only comparison.csv"
        elif type(holder[name]) is type(implied) and holder[name] == implied:
            continue
        raise ConfigError(f"{key}: got {json.dumps(holder[name])}, but "
                          f"{why.format('set' if checkpointed else 'unset')}; drop the key")
    return sections


@dataclass(frozen=True)
class RunConfig:
    params: PdeParams
    grid: Grid
    solver: SolverConfig
    initial: dict


@dataclass(frozen=True)
class SweepConfig:
    params: PdeParams
    grid: Grid
    solver: SolverConfig
    family: dict


def parse_run_config(data, base_dir: Path) -> RunConfig:
    if isinstance(data, dict) and "config" in data and "stop_reason" in data:
        # a summary artifact embeds its resolved config; allow re-running from it
        data = data["config"]
    return RunConfig(**_parse_sections(data, base_dir, "initial", _INITIAL_SCHEMAS))


def parse_sweep_config(data, base_dir: Path) -> SweepConfig:
    return SweepConfig(**_parse_sections(data, base_dir, "family", _FAMILY_SCHEMAS))


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
        "solver": asdict(rc.solver),
        "initial": dict(rc.initial),
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
    base = build_initial_field(RunConfig(sc.params, sc.grid, sc.solver, fam["base"]))
    return [(a, Field(sc.grid, a * base.values)) for a in fam["alphas"]]
