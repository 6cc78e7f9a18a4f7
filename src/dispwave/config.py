"""Run and sweep configuration: strict JSON schemas with unknown-key rejection.

A config must reproduce a run exactly, so parsing is deliberately rigid: every key is
checked against a whitelist, types are enforced, referenced files must exist at parse
time, and the resolved form (all defaults filled in) is what summary artifacts embed.

A run config has `params`, `grid`, `solver` and `initial`. One table defines the initial
kinds: per kind, its keys, required and optional (`center`, 0 when absent), and the builder
of its field. A `file` path resolves against the config's directory, and a summary writes
it relative to its own. A sweep config is a run config in which exactly one number
of `params`, `grid`, `solver` or `initial` is a list; each listed value makes one member,
the run config the sweep executor takes. A config holds only what changes a run's numbers:
the output directory is the command's `--out`, a run always writes its trace and its
checkpoints exactly when `solver.checkpoint_interval` is set. The keys older configs and
summaries carry for those are in `_RETIRED`.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .initial import field_from_csv, gaussian_bump, steep_bump
from .pde import PdeParams
from .solitary import SolitonParams, SolitonProfile, build_profile
from .spectral import PINNED_N_MAX, Field, Grid
from .timestep import CFL_FRACTION, ENERGY_DRIFT_TOL, SolverConfig


class ConfigError(ValueError):
    """A configuration file is malformed; the message names the field."""


def _check_keys(d, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    # a retired key passes here, and parse_run_config checks its value
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


# per kind: its required keys, its optional keys (0.0 when absent) and its field's builder
_INITIAL_KINDS = {
    "gaussian": (("amplitude", "width"), ("center",), lambda rc: gaussian_bump(
        rc.grid, rc.initial["amplitude"], rc.initial["width"], rc.initial["center"])),
    "steep": (("amplitude", "steepness"), ("center",), lambda rc: steep_bump(
        rc.grid, rc.initial["amplitude"], rc.initial["steepness"], rc.initial["center"])),
    "soliton": (("c",), (), lambda rc: soliton_profile(rc).as_field()),
    "scaled_soliton": (("c", "alpha"), (), lambda rc: Field(
        rc.grid, rc.initial["alpha"] * soliton_profile(rc).values)),
    "file": (("path",), (), lambda rc: field_from_csv(rc.grid, rc.initial["path"])),
}


def _parse_initial(spec, base_dir: Path) -> dict:
    """Resolve `initial` under the schema its `kind` key picks, defaults filled in."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("initial: expected an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _INITIAL_KINDS:
        raise ConfigError(f"initial.kind: unknown kind {kind!r}, "
                          f"expected one of {sorted(_INITIAL_KINDS)}")
    required, optional, _ = _INITIAL_KINDS[kind]
    _check_keys(spec, "initial", ("kind",) + required, optional)
    resolved: dict = {"kind": kind}
    for key in required + optional:
        if key not in spec:
            resolved[key] = 0.0
        elif key == "path":
            raw = spec[key]
            if not isinstance(raw, str):
                raise ConfigError(f"initial.path: expected a string, got {raw!r}")
            full = (base_dir / raw).resolve()
            if not full.is_file():
                raise ConfigError(f"initial.path: file not found: {full}")
            resolved[key] = str(full)
        else:
            resolved[key] = _number(spec, key, "initial")
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


@dataclass(frozen=True)
class RunConfig:
    params: PdeParams
    grid: Grid
    solver: SolverConfig
    initial: dict


def parse_run_config(data, base_dir: Path) -> RunConfig:
    if isinstance(data, dict) and "config" in data and "stop_reason" in data:
        # a summary artifact embeds its resolved config; allow re-running from it
        data = data["config"]
    _check_keys(data, "config", ("params", "grid", "solver", "initial"), ("outputs",))
    _check_keys(data.get("outputs", {}), "outputs", ())
    rc = RunConfig(_parse_params(data["params"]), _parse_grid(data["grid"]),
                   _parse_solver(data["solver"]), _parse_initial(data["initial"], base_dir))
    checkpointed = rc.solver.checkpoint_interval is not None
    for key, (implied, why) in _RETIRED.items():
        section, name = key.split(".")
        holder = data if section == "config" else data.get(section, {})
        implied = checkpointed if implied is _CHECKPOINTED else implied
        if name not in holder or implied is _ANY or (
                type(holder[name]) is type(implied) and holder[name] == implied):
            continue
        raise ConfigError(f"{key}: got {json.dumps(holder[name])}, but "
                          f"{why.format('set' if checkpointed else 'unset')}; drop the key")
    return rc


def _list_form(data):
    """An older sweep config's `steepness` family as its list form: a `steep` initial with
    its steepness listed. The `amplitude` family, which scaled a base field, is retired."""
    family = data.get("family") if isinstance(data, dict) and "initial" not in data else None
    kind = family.get("kind") if isinstance(family, dict) else None
    if kind == "amplitude":
        raise ConfigError("family: the amplitude family is retired; list the amplitude of a "
                          "steep or gaussian initial, or the alpha of a scaled_soliton, instead")
    if kind != "steepness":
        return data
    rest = {key: value for key, value in data.items() if key != "family"}
    steep = {"steepness" if key == "steepnesses" else key: v for key, v in family.items()}
    return {**rest, "initial": {**steep, "kind": "steep"}}


def parse_sweep_config(data, base_dir: Path) -> list[tuple[float, RunConfig]]:
    """The members of a sweep: a run config in which exactly one number of `params`, `grid`,
    `solver` or `initial` is a list. Each member is that config with one listed value, as
    written, in the list's place, parsed by `parse_run_config` and paired with the value as
    a float (comparison.csv's `alpha`)."""
    data = _list_form(data)
    sections = {name: data[name] for name in ("params", "grid", "solver", "initial")
                if isinstance(data, dict) and isinstance(data.get(name), dict)}
    listed = [f"{name}.{key}" for name, section in sections.items()
              for key, value in section.items() if isinstance(value, list)]
    if not listed:
        parse_run_config(data, base_dir)  # a config malformed elsewhere fails on its own error
    if len(listed) != 1:
        raise ConfigError(f"config: a sweep lists exactly one number, found lists at {listed}")
    name, key = listed[0].split(".", 1)
    raw = sections[name][key]
    if not raw:
        raise ConfigError(f"{listed[0]}: expected a non-empty list of numbers")
    alphas = [_number({i: v}, i, listed[0]) for i, v in enumerate(raw)]
    outputs = data.get("outputs", {})
    for switch in ("write_trace", "write_checkpoints"):
        if isinstance(outputs, dict) and switch in outputs:
            raise ConfigError(f"outputs.{switch}: got {json.dumps(outputs[switch])}, but a "
                              "sweep writes only comparison.csv; drop the key")
    return [(alpha, parse_run_config({**data, name: {**sections[name], key: value}}, base_dir))
            for alpha, value in zip(alphas, raw)]


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


def config_dict(rc: RunConfig, base_dir: Path) -> dict:
    """The fully resolved configuration, suitable for exact reproduction from `base_dir`:
    a `file` kind's path is written relative to it, as `parse_run_config` resolves it, so
    the dict does not depend on where the tree it describes sits."""
    initial = dict(rc.initial)
    if "path" in initial:
        initial["path"] = os.path.relpath(initial["path"], Path(base_dir).resolve())
    return {
        "params": {"gamma": rc.params.gamma, "omega": rc.params.omega},
        "grid": {"L": rc.grid.half_width, "N": rc.grid.n_points},
        "solver": asdict(rc.solver),
        "initial": initial,
    }


def soliton_profile(rc: RunConfig) -> SolitonProfile:
    """The profile of the initial's speed `c`, its tail gated at the run's decay tolerance."""
    return build_profile(SolitonParams(rc.initial["c"], rc.params), rc.grid,
                         tail_tol=max(rc.solver.decay_tolerance, 1e-10))


def build_initial_field(rc: RunConfig) -> Field:
    """Materialize the configured initial data on the configured grid."""
    return _INITIAL_KINDS[rc.initial["kind"]][2](rc)


def load_sweep_config(path) -> list[tuple[float, RunConfig]]:
    path = Path(path)
    return parse_sweep_config(_load_json(path), path.parent)
