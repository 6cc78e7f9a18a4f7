import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispwave import Field, Grid, PdeParams, energy, existence_bound, field_from_csv, gaussian_bump, steep_bump
from dispwave.cli import main
from dispwave.config import (
    _RETIRED,
    ConfigError,
    build_initial_field,
    config_dict,
    load_run_config,
    load_sweep_config,
    parse_run_config,
    parse_sweep_config,
)
from dispwave.fileio import fmt, jsonable, write_csv
from dispwave.solitary import SolitonParams, build_profile, write_profile_csv
from dispwave.timestep import simulate

from conftest import fresh_interpreter_env


def write_config(path, **overrides):
    data = {
        "params": {"gamma": 1.0, "omega": 0.5},
        "grid": {"L": 20.0, "N": 256},
        "solver": {"t_end": 0.5, "sample_interval": 0.1},
        "initial": {"kind": "gaussian", "amplitude": 0.1, "width": 2.0},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


# each key of the retired table at the value a run with this checkpoint_interval implies
RETIRED_AT_IMPLIED = [
    (None, {"outputs.write_trace": True, "outputs.write_checkpoints": False,
            "outputs.directory": None}),
    (None, {"outputs.write_checkpoints": False}),
    (0.25, {"outputs.write_checkpoints": True}),
    (0.25, {"outputs.write_trace": True, "outputs.write_checkpoints": True,
            "outputs.directory": "out"}),
    # seed and the directory never changed a run's numbers: any value has no effect
    (None, {"config.seed": 0, "outputs.directory": 3}),
    (0.25, {"config.seed": "any", "solver.cfl_fraction": 0.3}),
    (None, {"solver.cfl_fraction": 0.3, "solver.energy_drift_tol": 1e-5}),
]
_CHECKPOINTS = ("trace.csv is always written and checkpoints exactly when "
                "solver.checkpoint_interval is set (here {})")

# the README's example config: the soliton at gamma = 1, omega = 0.5
README_SOLITON = {
    "params": {"gamma": 1.0, "omega": 0.5},
    "grid": {"L": 30.0, "N": 1024},
    "solver": {"t_end": 5.0, "sample_interval": 0.05, "decay_tolerance": 1e-8},
    "initial": {"kind": "soliton", "c": 2.0},
}

# checkpoints every 0.5 to t = 12, under an older config's outputs switch
CHECKPOINTED = {
    "params": {"gamma": 1.0, "omega": 0.5}, "grid": {"L": 20.0, "N": 256},
    "solver": {"t_end": 12.0, "sample_interval": 0.05, "checkpoint_interval": 0.5},
    "initial": {"kind": "gaussian", "amplitude": 0.2, "width": 2.0},
    "outputs": {"write_checkpoints": True}}
# a restart of CHECKPOINTED's t = 1.5 checkpoint through the `file` kind to the run's
# t = 12; the checkpoint's edge value, 1.6e-7, is above the default decay_tolerance
RESTART = {
    "params": CHECKPOINTED["params"], "grid": CHECKPOINTED["grid"],
    "solver": {"t_end": 10.5, "sample_interval": 0.05, "decay_tolerance": 1e-6}}


def written_checkpoint(tmp_path):
    """CHECKPOINTED's t = 1.5 checkpoint, as `dispwave simulate` writes it."""
    cfg, out = write_config(tmp_path / "checkpointed.json", **CHECKPOINTED), tmp_path / "ckpt"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "checkpoints" / "checkpoint_0003.csv"


class TestRunConfigParsing:
    def test_minimal_config_fills_defaults(self, tmp_path):
        rc = load_run_config(write_config(tmp_path / "c.json"))
        assert rc.params == PdeParams(1.0, 0.5)
        assert rc.grid == Grid(20.0, 256)
        assert rc.solver.dt_init == 1e-2
        assert rc.initial == {"kind": "gaussian", "amplitude": 0.1, "width": 2.0,
                              "center": 0.0}
        assert set(config_dict(rc, tmp_path)) == {"params", "grid", "solver", "initial"}

    @pytest.mark.parametrize("section,bad", [
        ("params", {"gamma": 1.0, "omega": 0.5, "mystery": 1}),
        ("grid", {"L": 20.0, "N": 256, "spacing": 0.1}),
        ("solver", {"t_end": 1.0, "dt_max": 0.1}),
        ("initial", {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "skew": 2}),
        ("outputs", {"folder": "x"}),
    ])
    def test_unknown_keys_rejected_with_path(self, tmp_path, section, bad):
        path = write_config(tmp_path / "c.json", **{section: bad})
        with pytest.raises(ConfigError, match=section):
            load_run_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path / "c.json", solver={"sample_interval": 0.1})
        with pytest.raises(ConfigError, match="t_end"):
            load_run_config(path)

    def test_non_power_of_two_grid_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", grid={"L": 20.0, "N": 250})
        with pytest.raises(ConfigError, match="power of two"):
            load_run_config(path)

    def test_grid_past_the_malloc_pins_limit_is_exit_2(self, tmp_path, capsys):
        # above N = 65536 the pinned trim threshold faults every FFT call's scratch in
        assert load_run_config(write_config(tmp_path / "c.json", grid={"L": 20.0, "N": 65536}))
        path = write_config(tmp_path / "c.json", grid={"L": 20.0, "N": 131072})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: grid.N: must be a power of two from 16 to 65536, the largest grid "
            "the malloc pin keeps fault-free, got 131072\n")
        assert not out.exists()

    @pytest.mark.parametrize("section,value,message", [
        ("params", {"gamma": "x", "omega": 0.5}, "params.gamma: expected a number, got 'x'"),
        ("grid", {"L": "x", "N": 256}, "grid.L: expected a number, got 'x'"),
        # a value the constructor rejects gets the section prefix once
        ("params", {"gamma": 1.0, "omega": -1.0},
         "params: omega must be finite and >= 0, got -1.0"),
        # JSON's Infinity and NaN, and an integer too large for a float
        ("solver", {"t_end": math.inf}, "solver.t_end: expected a finite number, got inf"),
        ("grid", {"L": math.nan, "N": 256}, "grid.L: expected a finite number, got nan"),
        pytest.param("params", {"gamma": 1.0, "omega": 10**400},
                     f"params.omega: expected a finite number, got {10**400}", id="huge-int"),
    ])
    def test_value_errors_prefixed_once(self, tmp_path, section, value, message):
        path = write_config(tmp_path / "c.json", **{section: value})
        with pytest.raises(ConfigError) as info:
            load_run_config(path)
        assert str(info.value) == message

    def test_unknown_initial_kind(self, tmp_path):
        path = write_config(tmp_path / "c.json", initial={"kind": "square"})
        with pytest.raises(ConfigError, match="unknown kind"):
            load_run_config(path)

    def test_file_initial_must_exist_at_parse_time(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            initial={"kind": "file", "path": "missing.csv"})
        with pytest.raises(ConfigError, match="file not found"):
            load_run_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'single': 1\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_run_config(path)

    def test_summary_reruns_through_embedded_config(self, tmp_path):
        rc = load_run_config(write_config(tmp_path / "c.json"))
        summary_like = {"stop_reason": "reached_t_end", "config": config_dict(rc, tmp_path)}
        rc2 = parse_run_config(summary_like, tmp_path)
        assert config_dict(rc2, tmp_path) == config_dict(rc, tmp_path)

    def test_config_dict_round_trips(self, tmp_path):
        rc = load_run_config(write_config(tmp_path / "c.json"))
        again = parse_run_config(config_dict(rc, tmp_path), tmp_path)
        assert config_dict(again, tmp_path) == config_dict(rc, tmp_path)

    @pytest.mark.parametrize("interval,retired", RETIRED_AT_IMPLIED)
    def test_old_output_switches_accepted_at_the_implied_value(self, tmp_path, interval,
                                                               retired):
        # older configs and summaries carry the retired keys; they parse to the same run
        assert {key for _, keys in RETIRED_AT_IMPLIED for key in keys} == set(_RETIRED)
        solver = {"t_end": 0.5, "checkpoint_interval": interval}
        data = json.loads(write_config(tmp_path / "c.json", solver=solver).read_text())
        for key, value in retired.items():
            section, name = key.split(".")
            (data if section == "config" else data.setdefault(section, {}))[name] = value
        before = json.dumps(data)
        rc = parse_run_config(data, tmp_path)
        assert json.dumps(data) == before  # the caller's dict is left as it was
        assert rc == load_run_config(write_config(tmp_path / "plain.json", solver=solver))
        plain = load_run_config(tmp_path / "plain.json")
        assert config_dict(rc, tmp_path) == config_dict(plain, tmp_path)

    @pytest.mark.parametrize("interval,key,value,why", [
        (None, "outputs.write_checkpoints", True, _CHECKPOINTS.format("unset")),
        (0.25, "outputs.write_checkpoints", False, _CHECKPOINTS.format("set")),
        (None, "outputs.write_trace", False, _CHECKPOINTS.format("unset")),
        (0.25, "outputs.write_trace", "yes", _CHECKPOINTS.format("set")),
        # JSON types are strict: 0 is not false, nor 1 true
        (None, "outputs.write_checkpoints", 0, _CHECKPOINTS.format("unset")),
        (0.25, "outputs.write_trace", 1, _CHECKPOINTS.format("set")),
        (None, "solver.cfl_fraction", 1.5, "the CFL fraction is fixed at 0.3"),
        (None, "solver.cfl_fraction", "0.3", "the CFL fraction is fixed at 0.3"),
        (0.25, "solver.energy_drift_tol", 1e-16,
         "the energy-drift warning level is fixed at 1e-05"),
        (None, "solver.energy_drift_tol", None,
         "the energy-drift warning level is fixed at 1e-05"),
    ])
    def test_old_output_switch_at_another_value_rejected(self, tmp_path, interval, key,
                                                         value, why):
        section, name = key.split(".")
        sections = {"solver": {"t_end": 0.5, "checkpoint_interval": interval}}
        sections.setdefault(section, {})[name] = value
        path = write_config(tmp_path / "c.json", **sections)
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert str(err.value) == f"{key}: got {json.dumps(value)}, but {why}; drop the key"


class TestInitialData:
    def test_gaussian_values(self):
        g = Grid(20.0, 256)
        f = gaussian_bump(g, 0.3, 2.0, center=1.0)
        expected = 0.3 * np.exp(-(((g.x - 1.0) / 2.0) ** 2))
        assert np.array_equal(f.values, expected)

    def test_steep_bump_slope_scaling(self):
        g = Grid(20.0, 2048)
        shallow = steep_bump(g, 1.0, 1.0)
        steep = steep_bump(g, 1.0, 4.0)
        ratio = np.min(np.gradient(steep.values, g.x)) / np.min(np.gradient(shallow.values, g.x))
        assert ratio == pytest.approx(4.0, rel=1e-2)

    def test_csv_round_trip(self, tmp_path):
        g = Grid(20.0, 256)
        f = gaussian_bump(g, 0.2, 1.5)
        path = tmp_path / "field.csv"
        write_csv(path, ("x", "u"), zip(g.x, f.values))
        back = field_from_csv(g, path)
        assert np.array_equal(back.values, f.values)

    def test_csv_grid_mismatch_rejected(self, tmp_path):
        g = Grid(20.0, 256)
        f = gaussian_bump(g, 0.2, 1.5)
        path = tmp_path / "field.csv"
        write_csv(path, ("x", "u"), zip(g.x + 0.5, f.values))
        with pytest.raises(ValueError, match="does not match"):
            field_from_csv(g, path)

    @pytest.mark.parametrize("initial,preset", [
        ({"kind": "gaussian", "amplitude": 0.3, "width": 2.0, "center": 1.5},
         lambda g, p, csv: gaussian_bump(g, 0.3, 2.0, 1.5)),
        ({"kind": "steep", "amplitude": 1.0, "steepness": 3.0, "center": -0.5},
         lambda g, p, csv: steep_bump(g, 1.0, 3.0, -0.5)),
        ({"kind": "soliton", "c": 2.0},
         lambda g, p, csv: build_profile(SolitonParams(2.0, p), g, tail_tol=1e-8).as_field()),
        ({"kind": "scaled_soliton", "c": 2.0, "alpha": 0.5},
         lambda g, p, csv: Field(g, 0.5 * build_profile(SolitonParams(2.0, p), g,
                                                        tail_tol=1e-8).values)),
        ({"kind": "file", "path": "u.csv"}, lambda g, p, csv: field_from_csv(g, csv)),
    ], ids=["gaussian", "steep", "soliton", "scaled_soliton", "file"])
    def test_each_kind_is_its_preset(self, tmp_path, initial, preset):
        # build_initial_field is the kind's preset on the config's numbers, bit for bit, on
        # the README soliton's grid, params and tail gate (decay_tolerance 1e-8)
        g, csv = Grid(30.0, 1024), tmp_path / "u.csv"
        write_csv(csv, ("x", "u"), zip(g.x, steep_bump(g, 1.0, 3.0, 0.25).values))
        rc = parse_run_config({**README_SOLITON, "initial": initial}, tmp_path)
        expected = preset(rc.grid, rc.params, csv)
        assert np.array_equal(build_initial_field(rc).values, expected.values)

    def test_soliton_initial_kinds(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            params={"gamma": 1.0, "omega": 0.5},
            grid={"L": 30.0, "N": 1024},
            solver={"t_end": 1.0, "decay_tolerance": 1e-8},
            initial={"kind": "scaled_soliton", "c": 2.0, "alpha": 0.5},
        )
        rc = load_run_config(path)
        u0 = build_initial_field(rc)
        assert np.max(u0.values) == pytest.approx(0.5, abs=1e-9)


def write_sweep(path, **overrides):
    data = {
        "params": {"gamma": 1.0, "omega": 0.0},
        "grid": {"L": 6.0, "N": 256},
        "solver": {"t_end": 1.0},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


class TestSweepConfig:
    def test_steepness_family_is_its_list_form(self, tmp_path):
        # the older family section parses to the members of a steep initial with its
        # steepness listed
        family = {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0, 4.0],
                  "center": 0.5}
        data = json.loads(write_sweep(tmp_path / "s.json", family=family).read_text())
        before = json.dumps(data)
        members = parse_sweep_config(data, tmp_path)
        assert json.dumps(data) == before  # the caller's dict is left as it was
        listed = {"kind": "steep", "amplitude": 1.0, "steepness": [3.0, 4.0], "center": 0.5}
        assert members == load_sweep_config(write_sweep(tmp_path / "l.json", initial=listed))
        assert [value for value, _ in members] == [3.0, 4.0]
        for s, rc in members:
            assert rc.initial == {"kind": "steep", "amplitude": 1.0, "steepness": s,
                                  "center": 0.5}
            assert np.array_equal(build_initial_field(rc).values,
                                  steep_bump(rc.grid, 1.0, s, 0.5).values)

    def test_listed_amplitude(self, tmp_path):
        path = write_sweep(tmp_path / "s.json", grid={"L": 6.0, "N": 2048}, initial={
            "kind": "steep", "amplitude": [0.5, 1.0, 2.0], "steepness": 3.0})
        members = load_sweep_config(path)
        assert [value for value, _ in members] == [0.5, 1.0, 2.0]
        peaks = [np.max(build_initial_field(rc).values) for _, rc in members]
        assert peaks == pytest.approx([0.5, 1.0, 2.0])

    def test_listed_soliton_alpha_scales_the_profile(self, tmp_path):
        # what the retired amplitude family made of a soliton base, bit for bit
        base = build_initial_field(parse_run_config(README_SOLITON, tmp_path))
        listed = {"kind": "scaled_soliton", "c": 2.0, "alpha": [0.5, 1.5]}
        members = parse_sweep_config({**README_SOLITON, "initial": listed}, tmp_path)
        for alpha, rc in members:
            assert np.array_equal(build_initial_field(rc).values, alpha * base.values)

    def test_empty_family_rejected(self, tmp_path):
        path = write_sweep(tmp_path / "s.json", family={
            "kind": "steepness", "amplitude": 1.0, "steepnesses": []})
        with pytest.raises(ConfigError, match="non-empty"):
            load_sweep_config(path)

    @pytest.mark.parametrize("switch", ["write_trace", "write_checkpoints"])
    def test_output_switches_rejected(self, tmp_path, switch):
        # a sweep writes only comparison.csv, so no value of a run's output switch fits
        initial = {"kind": "steep", "amplitude": 1.0, "steepness": [3.0]}
        path = write_sweep(tmp_path / "s.json", initial=initial,
                           outputs={"directory": "out", switch: True})
        with pytest.raises(ConfigError) as err:
            load_sweep_config(path)
        assert str(err.value) == (f"outputs.{switch}: got true, but a sweep writes only "
                                  "comparison.csv; drop the key")


STEEP_LISTED = {"kind": "steep", "amplitude": 1.0, "steepness": [3.0, 4.0]}


@pytest.mark.parametrize("sections,message", [
    # the retired amplitude family names its list replacements
    ({"family": {"kind": "amplitude", "alphas": [1.0, 2.0],
                 "base": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0}}},
     "family: the amplitude family is retired; list the amplitude of a steep or gaussian "
     "initial, or the alpha of a scaled_soliton, instead"),
    # a family other than the steepness one is no config key
    ({"family": {"amplitude": 1.0, "steepnesses": [3.0]}}, "config: unknown key(s) ['family']"),
    ({"family": {"kind": "width", "amplitude": 1.0}}, "config: unknown key(s) ['family']"),
    ({"family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0], "center": "0"}},
     "initial.center: expected a number, got '0'"),
    ({"family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0, True]}},
     "initial.steepness.1: expected a number, got True"),
    # exactly one number of params, grid, solver or initial is a list, and it has members
    ({"initial": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0}},
     "config: a sweep lists exactly one number, found lists at []"),
    ({"initial": {**STEEP_LISTED, "amplitude": [1.0, 2.0]}},
     "config: a sweep lists exactly one number, found lists at "
     "['initial.amplitude', 'initial.steepness']"),
    ({"params": {"gamma": [1.0, 2.0], "omega": 0.0}, "initial": STEEP_LISTED},
     "config: a sweep lists exactly one number, found lists at "
     "['params.gamma', 'initial.steepness']"),
    ({"initial": {**STEEP_LISTED, "steepness": []}},
     "initial.steepness: expected a non-empty list of numbers"),
    ({"initial": {**STEEP_LISTED, "kind": ["steep"], "steepness": 3.0}},
     "initial.kind.0: expected a number, got 'steep'"),
    ({"initial": {**STEEP_LISTED, "skew": 2}}, "initial: unknown key(s) ['skew']"),
    ({"initial": {**STEEP_LISTED, "steepness": 3.0, "a.b": [1.0]}},
     "initial: unknown key(s) ['a.b']"),
    ({"initial": {**STEEP_LISTED, "kind": "nope"}},
     "initial.kind: unknown kind 'nope', expected one of "
     "['file', 'gaussian', 'scaled_soliton', 'soliton', 'steep']"),
    # a malformed config with no list fails on its own error
    ({"initial": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0}, "grid": 5},
     "grid: expected an object, got int"),
    # a listed value sits in its member as written, which parses like any run config
    ({"grid": {"L": 6.0, "N": [256, 300]}, "initial": {**STEEP_LISTED, "steepness": 3.0}},
     "grid.N: must be a power of two from 16 to 65536, the largest grid the malloc pin "
     "keeps fault-free, got 300"),
    ({"grid": {"L": 6.0, "N": [256.0]}, "initial": {**STEEP_LISTED, "steepness": 3.0}},
     "grid.N: expected an integer, got 256.0"),
    # every member must have gamma != 0
    ({"params": {"gamma": [1.0, 0.0], "omega": 0.0},
      "initial": {**STEEP_LISTED, "steepness": 3.0}},
     "sweep requires gamma != 0 (gamma = 0: all solutions are global)"),
], ids=["amplitude-family", "family-without-kind", "unknown-family", "family-center",
        "family-bool", "no-list", "two-lists", "two-sections", "empty-list", "listed-kind",
        "member-key", "listed-unknown-dotted-key", "member-kind", "no-list-bad-grid",
        "N-not-a-power-of-two", "N-not-an-integer", "gamma-zero-member"])
def test_sweep_config_error_is_exit_2_naming_its_path(tmp_path, capsys, sections, message):
    cfg, out = write_sweep(tmp_path / "s.json", **sections), tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_on_a_list_form_config_names_the_listed_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", initial=STEEP_LISTED)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: initial.steepness: expected a number, got [3.0, 4.0]\n")
    assert not out.exists()


class TestSimulateCommand:
    def test_zero_data_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           initial={"kind": "gaussian", "amplitude": 0.0, "width": 2.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "t,E,m,xi,max_u,dt"
        assert all(row.split(",")[1] == "0" for row in trace[1:])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "reached_t_end"
        assert summary["T_lower"] == "infinite"
        assert summary["t_star"] is None

    def test_smallest_grid_runs(self, tmp_path):
        # N = 16 is the smallest grid a config accepts; its band has 6 modes
        cfg = write_config(tmp_path / "c.json", grid={"L": 20.0, "N": 16})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "reached_t_end"

    def test_deterministic_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("overrides,checkpoints", [
        ({"solver": {"t_end": 0.5, "sample_interval": 0.1, "checkpoint_interval": 0.25},
          "outputs": {"write_checkpoints": True}}, 3),
        (README_SOLITON, 0),
    ], ids=["checkpointed", "readme-soliton"])
    def test_rerun_from_summary_reproduces_trace(self, tmp_path, overrides, checkpoints):
        cfg = write_config(tmp_path / "c.json", **overrides)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(out1 / "summary.json"),
                     "--out", str(out2)]) == 0
        files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert len(files) == 2 + checkpoints  # trace.csv and summary.json
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("restart", [False, True], ids=["gaussian", "checkpoint-restart"])
    def test_file_run_summary_is_the_same_in_every_tree(self, tmp_path, capsys, restart):
        # the data path is written relative to the summary, so two trees of the same
        # layout write the same summary.json, and each reruns from its own; the data are
        # a gaussian's CSV, or a checkpoint that `simulate` wrote, restarted
        if restart:
            config, source = RESTART, written_checkpoint(tmp_path)
        else:
            g = Grid(20.0, 256)
            config, source = {}, tmp_path / "gaussian.csv"
            write_csv(source, ("x", "u"), zip(g.x, gaussian_bump(g, 0.2, 2.0).values))
        trees = [tmp_path / "one", tmp_path / "two" / "deeper"]
        for tree in trees:
            (tree / "data").mkdir(parents=True)
            (tree / "data" / "u.csv").write_bytes(source.read_bytes())
            cfg = write_config(tree / "c.json", **config,
                               initial={"kind": "file", "path": "data/u.csv"})
            assert main(["simulate", "--config", str(cfg), "--out", str(tree / "out")]) == 0
            assert main(["simulate", "--config", str(tree / "out" / "summary.json"),
                         "--out", str(tree / "rerun")]) == 0
            for name in ("trace.csv", "summary.json"):
                assert (tree / "out" / name).read_bytes() == (tree / "rerun" / name).read_bytes()
        first, second = ((tree / "out" / "summary.json").read_bytes() for tree in trees)
        assert first == second
        assert json.loads(first)["config"]["initial"]["path"] == "../data/u.csv"
        # a message names the data file by its absolute path
        data = trees[1] / "data" / "u.csv"
        data.write_text("x,u\n")
        capsys.readouterr()
        argv = ["simulate", "--config", str(trees[1] / "out" / "summary.json"),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {data.resolve()}: expected 256 rows")
        data.unlink()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: initial.path: file not found: {data.resolve()}\n"

    def test_rerun_from_an_older_summary_reproduces_trace(self, tmp_path):
        # a summary written before outputs.directory, cfl_fraction and energy_drift_tol
        # left the resolved config carries them at their only values
        cfg = write_config(tmp_path / "c.json",
                           solver={"t_end": 0.5, "sample_interval": 0.1,
                                   "checkpoint_interval": 0.25})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        summary = json.loads((out1 / "summary.json").read_text())
        summary["config"]["solver"].update(cfl_fraction=0.3, energy_drift_tol=1e-05)
        summary["config"]["outputs"] = {"directory": None}
        older = tmp_path / "older_summary.json"
        older.write_text(json.dumps(summary))
        assert main(["simulate", "--config", str(older), "--out", str(out2)]) == 0
        files = sorted(p.relative_to(out1) for p in out1.rglob("*.csv"))
        assert len(files) == 4
        assert files == sorted(p.relative_to(out2) for p in out2.rglob("*.csv"))
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_soliton_run_reports_shape_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **README_SOLITON)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["shape_error"] <= 1e-4
        assert summary["hamiltonian_drift"] <= 1e-9
        assert summary["outcome"] == "resolved" and summary["tail_max"] <= 1e-7
        # its one boundary warning names a sample's edge |u| to 6 digits, so
        # boundary_max, the largest sample's, is finite and at least that
        named = [float(re.search(r"[|]u[|] = (\S+) at", w).group(1))
                 for w in summary["warnings"] if w.startswith("boundary contamination")]
        largest = summary["boundary_max"]
        assert math.isfinite(largest) and len(named) == 1
        assert float(f"{largest:g}") >= named[0]

    def test_breaking_run_exits_zero_with_verdict(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            params={"gamma": 1.0, "omega": 0.0},
            grid={"L": 6.0, "N": 4096},
            solver={"t_end": 2.0, "sample_interval": 0.004,
                    "blowup_m_threshold": 11.0, "dt_min": 1e-10},
            initial={"kind": "steep", "amplitude": 1.0, "steepness": 3.0},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "blowup_slope"
        assert summary["triggered"] is True
        assert summary["t_star"] >= 0.98 * summary["T_lower"]
        assert 0.0 <= summary["t_star_spread"] <= 1e-2
        stats = summary["stats"]
        assert stats["steps"] == sum(stats["dt_limiters"].values()) > 0
        assert stats["rhs_evaluations"] == 1 + 4 * stats["steps"]

    def test_checkpoints_written_when_enabled(self, tmp_path):
        # checkpoint_interval alone enables them
        cfg = write_config(tmp_path / "c.json",
                           solver={"t_end": 0.4, "sample_interval": 0.1,
                                   "checkpoint_interval": 0.2})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        files = sorted((out / "checkpoints").glob("checkpoint_*.csv"))
        assert len(files) == 3
        header = files[0].read_text().splitlines()[0]
        assert header == "x,u"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checkpoint_times"] == pytest.approx([0.0, 0.2, 0.4])
        # each file is the x,u table of that checkpoint's values on the grid,
        # 17 digits per cell, and reads back to those values bit for bit
        rc = load_run_config(cfg)
        checkpoints = simulate(build_initial_field(rc), rc.params, rc.solver).checkpoints
        assert len(checkpoints) == len(files)
        for path, (_, field) in zip(files, checkpoints):
            expected = "x,u\n" + "".join(f"{fmt(x)},{fmt(u)}\n"
                                         for x, u in zip(field.grid.x, field.values))
            assert path.read_text() == expected
            back = field_from_csv(rc.grid, path)
            assert np.array_equal(back.values, field.values)

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", grid={"L": 20.0, "N": 999})
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_nonfinite_horizon_is_exit_2(self, tmp_path, capsys):
        # breaking data, so that a run to t_end = Infinity would still end
        path = write_config(tmp_path / "c.json",
                            grid={"L": 6.0, "N": 256},
                            solver={"t_end": math.inf, "blowup_m_threshold": 4.0},
                            initial={"kind": "steep", "amplitude": 1.0, "steepness": 3.0})
        assert "Infinity" in path.read_text()
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "solver.t_end: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_out_is_required(self, tmp_path, monkeypatch, capsys, command):
        # a config's outputs.directory names no output either
        monkeypatch.chdir(tmp_path)
        if command == "simulate":
            cfg = write_config(tmp_path / "c.json", outputs={"directory": "from_config"})
        else:
            cfg = TestSweepCommand._gaussian_family(tmp_path / "s.json", [1.0])
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: dispwave {command}: the following arguments are required: --out\n")
        assert [p.name for p in tmp_path.iterdir()] == [cfg.name]

    def test_config_directory_has_no_effect(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", outputs={"directory": "from_config"})
        assert main(["simulate", "--config", str(cfg), "--out", "a"]) == 0
        assert main(["simulate", "--config", str(write_config(tmp_path / "plain.json")),
                     "--out", "b"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "c.json", "plain.json"]
        for name in ("trace.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_checkpoint_switch_without_interval_is_exit_2(self, tmp_path, capsys):
        # the switch asks for checkpoints that the run, with no interval, never records
        cfg = write_config(tmp_path / "c.json", outputs={"write_checkpoints": True})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "solver.checkpoint_interval" in capsys.readouterr().err
        assert not out.exists()


class TestSolitonCommand:
    """`dispwave soliton` exports the profile of a run config's `soliton` initial, built
    as `build_initial_field` builds it."""

    @staticmethod
    def _soliton(tmp_path, **overrides):
        return write_config(tmp_path / "c.json", **{**README_SOLITON, **overrides})

    @pytest.mark.parametrize("overrides", [
        {},  # the README config
        # the gamma < 0, gamma = 0 and gamma > 1 branches (the last at 0.95 of the
        # gamma = 2 speed cap), each on its recommended grid
        {"params": {"gamma": -1.0, "omega": 0.5}, "grid": {"L": 46.0, "N": 1024},
         "initial": {"kind": "soliton", "c": 2.0}},
        {"params": {"gamma": 0.0, "omega": 0.25}, "grid": {"L": 46.0, "N": 2048},
         "initial": {"kind": "soliton", "c": 1.0}},
        {"params": {"gamma": 2.0, "omega": 0.5}, "grid": {"L": 47.0, "N": 8192},
         "initial": {"kind": "soliton", "c": 1.9}},
    ], ids=["readme", "gamma-negative", "gamma-zero", "gamma-2-cap"])
    def test_writes_profile_and_prints_laws(self, tmp_path, capsys, overrides):
        cfg, out = self._soliton(tmp_path, **overrides), tmp_path / "profile.csv"
        assert main(["soliton", "--config", str(cfg), "--out", str(out)]) == 0
        rc = load_run_config(cfg)
        c = rc.initial["c"]
        a = c - 2.0 * rc.params.omega
        printed = capsys.readouterr().out
        assert printed.startswith(f"a = {fmt(a)}\nkappa = {fmt(math.sqrt(a / c))}\n")
        assert printed.endswith(f"wrote profile to {out}\n")
        # the library's profile at build_profile's default tail gate, the config's 1e-8
        expected = tmp_path / "expected.csv"
        write_profile_csv(build_profile(SolitonParams(c, rc.params), rc.grid), expected)
        assert out.read_bytes() == expected.read_bytes()
        phi = np.loadtxt(out, delimiter=",", skiprows=2)[:, 1]
        np.testing.assert_array_equal(phi, build_initial_field(rc).values)

    def test_summary_is_a_config(self, tmp_path, capsys):
        cfg = self._soliton(tmp_path, solver={"t_end": 0.1, "decay_tolerance": 1e-8})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        from_config, from_summary = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["soliton", "--config", str(cfg), "--out", str(from_config)]) == 0
        assert main(["soliton", "--config", str(tmp_path / "run" / "summary.json"),
                     "--out", str(from_summary)]) == 0
        assert from_summary.read_bytes() == from_config.read_bytes()

    @pytest.mark.parametrize("overrides,message", [
        ({"params": {"gamma": 1.0, "omega": 1.0}, "initial": {"kind": "soliton", "c": 1.0}},
         "error: c > 2*omega violated"),
        ({"params": {"gamma": 1.0, "omega": 0.0}},
         "error: c*(gamma - 1) < 2*omega*gamma violated"),
        ({"initial": {"kind": "soliton", "c": -1}},
         "error: speed must be positive and finite, got -1.0\n"),
        # the run's decay gate, 1e-10 by default, where the box was wide enough for 1e-8
        ({"solver": {"t_end": 5.0}}, "error: grid too narrow for the tail to decay below 1e-10"),
        ({"grid": {"L": 30.0, "N": 1000}}, "error: grid.N: must be a power of two"),
        ({"initial": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0}},
         "error: initial.kind: expected 'soliton', got 'steep'\n"),
        ({"initial": {"kind": "scaled_soliton", "c": 2.0, "alpha": 0.5}},
         "error: initial.kind: expected 'soliton', got 'scaled_soliton'\n"),
    ], ids=["inadmissible-speed", "peakon-limit", "negative-speed", "decay-gate", "N-1000",
            "steep", "scaled_soliton"])
    def test_rejection_is_exit_2_and_leaves_no_out(self, tmp_path, capsys, overrides, message):
        cfg, out = self._soliton(tmp_path, **overrides), tmp_path / "p.csv"
        assert main(["soliton", "--config", str(cfg), "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith(message) and printed.err.count("\n") == 1
        assert printed.out == "" and not out.exists()


class TestBoundCommand:
    def test_zero_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           initial={"kind": "gaussian", "amplitude": 0.0, "width": 1.0})
        assert main(["bound", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["E0"] == 0.0
        assert payload["T_lower"] == "infinite"
        assert payload["triggered"] is False

    def test_gamma_zero_reports_global(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", params={"gamma": 0.0, "omega": 0.5})
        assert main(["bound", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T_lower"] == "infinite"
        assert "global" in payload["note"]
        assert "triggered" not in payload

    @pytest.mark.parametrize("source", ["steep", "checkpoint"])
    def test_data_file_route_matches_library(self, tmp_path, capsys, source):
        # a steep bump's CSV, and a checkpoint that `simulate` wrote, restarted
        if source == "steep":
            g = Grid(20.0, 256)
            params, u0 = PdeParams(1.0, 0.0), steep_bump(g, 1.0, 3.0)
            write_csv(tmp_path / "u.csv", ("x", "u"), zip(g.x, u0.values))
            cfg = write_config(tmp_path / "c.json", params={"gamma": 1.0, "omega": 0.0},
                               initial={"kind": "file", "path": "u.csv"})
        else:
            rc = parse_run_config(CHECKPOINTED, tmp_path)
            params = rc.params
            t, u0 = simulate(build_initial_field(rc), params, rc.solver).checkpoints[3]
            assert t == 1.5
            cfg = write_config(tmp_path / "c.json", **RESTART, initial={
                "kind": "file", "path": str(written_checkpoint(tmp_path))})
            capsys.readouterr()
        assert main(["bound", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = existence_bound(u0, params)
        assert payload["E0"] == pytest.approx(expected.e0, rel=1e-14)
        assert payload["m0"] == pytest.approx(expected.m0, rel=1e-14)
        assert payload["T_lower"] == pytest.approx(expected.t_lower, rel=1e-14)
        assert payload["K"] == pytest.approx(expected.bracket, rel=1e-14)
        assert payload["triggered"] is (source == "steep")

    @pytest.mark.parametrize("case", ["nonuniform", "odd_rows", "few_rows", "three_columns",
                                      "non_numeric", "header_only"])
    def test_malformed_data_file_names_it(self, tmp_path, capsys, recwarn, case):
        x = Grid(20.0, 256).x.copy()
        columns = [x, np.zeros_like(x)]
        if case == "nonuniform":
            x[128] += 0.1
        elif case == "odd_rows":
            columns = [c[:255] for c in columns]
        elif case == "few_rows":
            columns = [c[:8] for c in columns]
        elif case == "header_only":
            columns = [c[:0] for c in columns]
        elif case != "non_numeric":
            columns.append(np.zeros_like(x))
        data = tmp_path / f"{case}.csv"
        write_csv(data, ("x", "u", "v")[:len(columns)], zip(*columns))
        if case == "non_numeric":
            data.write_text(data.read_text().replace(",0\n", ",abc\n", 1))
        cfg = write_config(tmp_path / "c.json", initial={"kind": "file", "path": data.name})
        assert main(["bound", "--config", str(cfg)]) == 2
        # one error line that names the file, and numpy's own warnings stay quiet
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data.resolve()}: ") and err.count("\n") == 1
        assert [str(w.message) for w in recwarn] == []

    def test_help_exits_0_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bound", "-h"])
        assert exit_.value.code == 0
        printed = capsys.readouterr()
        assert printed.out.startswith("usage: dispwave bound [-h] --config CONFIG [--out OUT]\n")
        assert printed.err == ""


# acceptance 7's data at N = 2048, stopped at |m| = 11: it breaks, with a finite t_star
BREAKING_CONFIG = {
    "params": {"gamma": 1.0, "omega": 0.0},
    "grid": {"L": 6.0, "N": 2048},
    "solver": {"t_end": 2.0, "sample_interval": 0.004, "blowup_m_threshold": 11.0,
               "dt_min": 1e-10},
}
STEEP_DATA = {"kind": "steep", "amplitude": 1.0, "steepness": 3.0}


class TestOneReportLayout:
    """`dispwave bound`, summary.json and comparison.csv write one report vocabulary."""

    @staticmethod
    def _bound_and_summary(tmp_path, capsys, cfg):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bound", "--config", str(cfg)]) == 0
        bound = json.loads(capsys.readouterr().out)
        summary = json.loads((out / "summary.json").read_text())
        run_only = ("t_star", "t_star_spread", "outcome", "tail_max")
        assert all(bound[key] is None for key in run_only)
        for key, value in bound.items():
            if key not in run_only:
                assert summary[key] == value, key
        return bound, summary

    def test_breaking_data_in_all_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **BREAKING_CONFIG, initial=STEEP_DATA)
        bound, summary = self._bound_and_summary(tmp_path, capsys, cfg)
        assert bound["triggered"] is True and "witness_x0" in bound
        assert summary["t_star"] is not None
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({**BREAKING_CONFIG, "family": {
            "kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0]}}))
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "s")]) == 0
        header, row = (tmp_path / "s" / "comparison.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        for key in ("E0", "m0", "gamma_case", "K", "T_lower", "t_star", "t_star_spread",
                    "outcome", "tail_max"):
            value = summary[key]
            assert cells[key] == (value if isinstance(value, str) else fmt(value)), key

    def test_untriggered_soliton(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **README_SOLITON)
        bound, _ = self._bound_and_summary(tmp_path, capsys, cfg)
        assert bound["triggered"] is False and bound["witness_x0"] is None

    def test_gamma_zero_notes_global(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", params={"gamma": 0.0, "omega": 0.0},
                           grid={"L": 6.0, "N": 2048},
                           solver={"t_end": 0.1, "sample_interval": 0.05},
                           initial=STEEP_DATA)
        bound, _ = self._bound_and_summary(tmp_path, capsys, cfg)
        assert bound["note"] == "gamma = 0: all solutions are global"
        assert "triggered" not in bound


class TestSweepCommand:
    def test_two_member_family(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 1.2, "sample_interval": 0.01,
                       "blowup_m_threshold": 9.0, "dt_min": 1e-10},
            "initial": {"kind": "steep", "amplitude": 1.0, "steepness": [3.0, 4.0]},
        }))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("family_id,alpha,")
        assert [row.split(",")[:2] for row in lines[1:]] == [["0", "3"], ["1", "4"]]
        assert len(lines) == 3
        column = lines[0].split(",").index("ratio")
        ratios = [float(row.split(",")[column]) for row in lines[1:]]
        assert all(r >= 0.98 for r in ratios)

    def test_scaling_family_bound_decreases_with_alpha(self, tmp_path):
        # with the amplitude listed, K grows like alpha^2 and |m0| like alpha, so
        # T_lower ~ 1/alpha; the column is filled even for members censored by a tiny horizon
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 0.05, "sample_interval": 0.01},
            "initial": {"kind": "steep", "amplitude": [1.0, 2.0, 3.0], "steepness": 3.0},
        }))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        t_lower = [float(r.split(",")[6]) for r in rows]
        assert t_lower[0] > t_lower[1] > t_lower[2]
        # every member is triggered, and each is resolved up to the short horizon
        assert [r.split(",")[-2] for r in rows] == ["resolved"] * 3

    @staticmethod
    def _gaussian_family(path, alphas):
        # amplitude 1 reaches 1.4e-4 at the box edge, so alpha >= 10 fails the boundary gate
        path.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 256},
            "solver": {"t_end": 0.05, "sample_interval": 0.01, "decay_tolerance": 1e-3},
            "initial": {"kind": "gaussian", "amplitude": alphas, "width": 2.0},
        }))
        return path

    def test_failing_member_becomes_error_row(self, tmp_path):
        # the member fails in its pool process and is written as the defaulted row
        cfg = self._gaussian_family(tmp_path / "sweep.json", [1.0, 10.0])
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match=r"member 1 \(alpha = 10\) failed"):
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--workers", "2"]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[4] == "low"
        assert rows[1] == "1,10,nan,nan,error,nan,nan,nan,nan,nan,true,error,nan"

    # the CI sweep's run: a steep bump that breaks at |m| = 4 on a coarse grid
    STEEP_RUN = {
        "params": {"gamma": 1.0, "omega": 0.0}, "grid": {"L": 6.0, "N": 256},
        "solver": {"t_end": 1.2, "sample_interval": 0.01, "blowup_m_threshold": 4.0},
        "initial": STEEP_DATA}

    @pytest.mark.parametrize("section,key,values", [
        ("params", "gamma", [1.0, 2.0]),
        ("grid", "N", [256, 512]),
        ("solver", "blowup_m_threshold", [3.0, 4.0, 5.0]),
        ("initial", "amplitude", [1.0, 1.5]),
    ])
    def test_listed_number_in_any_section(self, tmp_path, section, key, values):
        # each member runs its own run config: its row is the row of the one-member
        # sweep of that member, but for family_id
        def sweep(name, listed):
            config = {**self.STEEP_RUN, section: {**self.STEEP_RUN[section], key: listed}}
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            assert main(["sweep", "--config", str(tmp_path / f"{name}.json"),
                         "--out", str(tmp_path / name), "--workers", "2"]) == 0
            return (tmp_path / name / "comparison.csv").read_text().splitlines()[1:]

        rows = sweep("all", values)
        assert [row.split(",")[1] for row in rows] == [fmt(float(v)) for v in values]
        assert all(",error," not in row for row in rows)
        for i, value in enumerate(values):
            alone, = sweep(f"member{i}", [value])
            assert rows[i] == f"{i},{alone.split(',', 1)[1]}"

    def test_member_whose_data_fail_to_build_is_an_error_row(self, tmp_path):
        initial = {"kind": "steep", "amplitude": 1.0, "steepness": [3.0, -1.0]}
        cfg = write_sweep(tmp_path / "sweep.json", initial=initial)
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning) as caught:
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == [
            "member 1 (alpha = -1) failed: steepness must be positive, got -1.0"]
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[4] == "low"
        assert rows[1] == "1,-1,nan,nan,error,nan,nan,nan,nan,nan,true,error,nan"
        cfg = write_sweep(tmp_path / "sweep.json", initial={**initial, "steepness": [-1.0, -2.0]})
        with pytest.warns(RuntimeWarning, match="steepness must be positive"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_every_member_failing_exits_one(self, tmp_path):
        cfg = self._gaussian_family(tmp_path / "sweep.json", [10.0, 20.0])
        with pytest.warns(RuntimeWarning, match="failed"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_empty_family_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 1.0},
            "family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": []},
        }))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_gamma_zero_family_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 0.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 1.0},
            "family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0]},
        }))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section", [
        {"family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0, 10**400]}},
        {"initial": {"kind": "steep", "amplitude": 1.0, "steepness": [3.0, 10**400]}},
    ], ids=["family", "listed"])
    def test_huge_integer_in_family_is_exit_2(self, tmp_path, capsys, section):
        # an integer too large for a float is a number to JSON, and no float to the family
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 64},
            "solver": {"t_end": 0.1},
            **section,
        }))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: initial.steepness.1: expected a finite number, got {10**400}\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_exit_2(self, tmp_path, capsys, workers):
        cfg = self._gaussian_family(tmp_path / "sweep.json", [1.0])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 2
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
        assert not out.exists()


class TestErrorBoundary:
    """`main` maps bad input and I/O errors from any command to exit 2 with one
    `error:` line, and no command makes its output directory before it writes."""

    @pytest.mark.parametrize("overrides,message", [
        ({"solver": 5}, "solver: expected an object"),
        ({"grid": {"L": 20.0, "N": 256.0}}, "grid.N: expected an integer"),
        ({"grid": {"L": -1.0, "N": 256}}, "grid: half_width must be positive"),
        ({"solver": {"t_end": -1.0}}, "solver: t_end must be positive"),
        ({"initial": {"kind": "file", "path": 3}}, "initial.path: expected a string"),
        ({"solver": {"t_end": 0.5, "cfl_fraction": 0.5}}, "solver.cfl_fraction: got 0.5"),
        (None, "cannot read config"),
        # the initial data fail only when built, after the config has parsed
        ({"initial": {"kind": "gaussian", "amplitude": 0.1, "width": 0.0}},
         "width must be positive"),
        ({"initial": {"kind": "steep", "amplitude": 1.0, "steepness": 0.0}},
         "steepness must be positive"),
        ({"initial": {"kind": "soliton", "c": 0.5}}, "c > 2*omega violated"),
        ({"grid": {"L": 5.0, "N": 256}, "initial": {"kind": "soliton", "c": 2.0}},
         "grid too narrow"),
        ({"params": {"gamma": 1.0, "omega": 0.0}, "grid": {"L": 6.0, "N": 256},
          "initial": {"kind": "steep", "amplitude": 1.0, "steepness": 0.1}},
         "initial data must decay below"),
        ({"grid": {"L": 40.0, "N": 1024},
          "initial": {"kind": "gaussian", "amplitude": 1e306, "width": 1.0}},
         "the initial data's band projection overflowed: its grid values are not finite, "
         "at max|u0| = 1e+306\n"),
    ], ids=["solver-not-object", "float-N", "negative-L", "negative-t_end", "file-path-int",
            "retired-cfl_fraction", "missing-config", "width-0", "steepness-0",
            "soliton-inadmissible", "soliton-narrow-box", "decay-gate", "projection-overflow"])
    def test_simulate_rejection_leaves_no_output(self, tmp_path, capsys, overrides, message):
        cfg = tmp_path / "c.json"
        if overrides is not None:
            write_config(cfg, **overrides)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--config", "{cfg}"],
         "dispwave simulate: the following arguments are required: --out"),
        (["bound", "--config", "{cfg}", "--gamma", "1", "--out", "{out}"],
         "dispwave: unrecognized arguments: --gamma 1"),
        (["sweep", "--config", "{cfg}", "--out", "{out}", "--workers", "x"],
         "dispwave sweep: argument --workers: invalid int value: 'x'"),
        ([], "dispwave: the following arguments are required: command"),
        (["run", "--config", "{cfg}", "--out", "{out}"],
         "dispwave: argument command: invalid choice: 'run'"),
        # the model flags soliton took before it read a run config
        (["soliton", "--c", "2", "--omega", "0.5", "--gamma", "1", "--L", "30", "--N", "1024",
          "--out", "{out}"], "dispwave soliton: the following arguments are required: --config"),
        # a flag is taken only as written in full, never as a prefix of another
        (["soliton", "--c", "2", "--out", "{out}"],
         "dispwave soliton: the following arguments are required: --config"),
        (["sweep", "--conf", "{cfg}", "--out", "{out}", "--work", "2"],
         "dispwave sweep: the following arguments are required: --config"),
        (["bound", "--config", "{cfg}", "--o", "{out}"],
         "dispwave: unrecognized arguments: --o {out}"),
    ], ids=["missing-flag", "unknown-flag", "bad-int", "no-command", "unknown-command",
            "soliton-model-flags", "soliton-c", "sweep-conf-work", "bound-o"])
    def test_bad_command_line_is_exit_2(self, tmp_path, capsys, argv, message):
        cfg, out = write_config(tmp_path / "c.json"), tmp_path / "out"
        assert main([a.format(cfg=cfg, out=out) for a in argv]) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith(f"error: {message.format(out=out)}")
        assert printed.err.count("\n") == 1
        assert printed.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "sweep-under-file", "bound",
                                         "soliton"])
    def test_io_error_is_exit_2(self, tmp_path, capsys, command):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        missing = tmp_path / "missing" / "out.json"
        if command == "simulate":
            argv = ["simulate", "--config", str(write_config(tmp_path / "c.json")),
                    "--out", str(a_file)]
        elif command.startswith("sweep"):
            cfg = TestSweepCommand._gaussian_family(tmp_path / "sweep.json", [1.0])
            out = a_file if command == "sweep" else a_file / "out"
            argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        elif command == "bound":
            argv = ["bound", "--config", str(write_config(tmp_path / "c.json")),
                    "--out", str(missing)]
        else:
            cfg = write_config(tmp_path / "c.json", **README_SOLITON)
            argv = ["soliton", "--config", str(cfg), "--out", str(missing)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(a_file) in err or str(missing) in err  # the write's error, not a parser's
        assert a_file.read_text() == "" and not missing.parent.exists()

    @pytest.mark.parametrize("overrides", [{**BREAKING_CONFIG, "initial": STEEP_DATA},
                                           README_SOLITON], ids=["breaking", "readme-soliton"])
    def test_bound_out_is_stdout_plus_newline(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "c.json", **overrides)
        out = tmp_path / "bound.json"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


def _simulate_and_sweep(tmp_path, common):
    """summary.json of steep(1, 3) under the run config `common`, and the cells of the
    comparison.csv row that the one-member steepness family [3] makes under it."""
    run = write_config(tmp_path / "run.json", **common, initial=STEEP_DATA)
    assert main(["simulate", "--config", str(run), "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({**common, "family": {"kind": "steepness", "amplitude": 1.0,
                                                      "steepnesses": [3.0]}}))
    assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "sweep")]) == 0
    header, row = (tmp_path / "sweep" / "comparison.csv").read_text().splitlines()
    return summary, dict(zip(header.split(","), row.split(",")))


def test_unresolved_breaking_run_is_censored_on_both_paths(tmp_path):
    # at N = 128 every sample's band-edge tail exceeds 1e-7, so the run breaks
    # with no sample to estimate t* from: simulate and sweep both censor it
    summary, fields = _simulate_and_sweep(tmp_path, {
        "params": {"gamma": 1.0, "omega": 0.0}, "grid": {"L": 6.0, "N": 128},
        "solver": {"t_end": 1.2, "sample_interval": 0.01, "blowup_m_threshold": 3.0}})
    assert summary["stop_reason"] == "blowup_slope"
    assert summary["t_star"] is None and summary["t_star_spread"] is None
    assert fields["gamma_case"] == "low" and fields["T_lower"] != "nan"
    assert (fields["t_star"], fields["t_star_spread"], fields["ratio"]) == ("nan",) * 3
    assert fields["censored"] == "true"
    assert summary["outcome"] == fields["outcome"] == "broke"
    assert summary["tail_max"] > 1e-7 and fields["tail_max"] == fmt(summary["tail_max"])


@pytest.mark.parametrize("params,half_width,n_points,solver", [
    # acceptance-7 data at N = 1024: the tail passes 1e-7 and m relaxes before |m| = 11
    ({"gamma": 1.0, "omega": 0.0}, 6.0, 1024,
     {"t_end": 2.0, "sample_interval": 0.004, "blowup_m_threshold": 11.0}),
    # the same data at gamma = 2, omega = 0.5: m reaches -20.9, not -30, then relaxes
    ({"gamma": 2.0, "omega": 0.5}, 8.0, 2048, {"t_end": 3.0, "blowup_m_threshold": 30.0}),
], ids=["acceptance-7-N1024", "gamma2-omega0.5"])
def test_triggered_run_ending_unbroken_is_underresolved_on_both_paths(
        tmp_path, params, half_width, n_points, solver):
    # the criterion guarantees breaking, so a clean reached_t_end would contradict
    # it; the grid lost the front instead, and both paths say so
    summary, fields = _simulate_and_sweep(tmp_path, {
        "params": params, "grid": {"L": half_width, "N": n_points},
        "solver": {**solver, "dt_min": 1e-10}})
    assert summary["triggered"] is True and summary["stop_reason"] == "reached_t_end"
    assert summary["outcome"] == fields["outcome"] == "underresolved"
    assert summary["tail_max"] > 1e-7 and fields["tail_max"] == fmt(summary["tail_max"])
    assert fields["censored"] == "true"


# acceptance 9 across processes: each config's runs from two separate interpreters.
# An artifact that depends on per-process state, such as str hashing or memory
# addresses, passes the in-process determinism tests and fails here.
ACROSS_PROCESSES = {
    "soliton": README_SOLITON,
    "checkpointed": CHECKPOINTED,
    # acceptance 7's data at N = 16384, where glibc once faulted pocketfft's scratch in
    "steep_n16384": {
        "params": {"gamma": 1.0, "omega": 0.0}, "grid": {"L": 6.0, "N": 16384},
        "solver": {"t_end": 0.02, "sample_interval": 0.004, "blowup_m_threshold": 20.0,
                   "dt_min": 1e-10},
        "initial": STEEP_DATA},
    # gamma = 2, omega = 0.5: the right-hand side's 3-row multiply at the same N
    "omega_n16384": {
        "params": {"gamma": 2.0, "omega": 0.5}, "grid": {"L": 30.0, "N": 16384},
        "solver": {"t_end": 0.02, "sample_interval": 0.004},
        "initial": {"kind": "gaussian", "amplitude": 0.2, "width": 2.0}},
    # a breaking run, so a finite t_star is compared too
    "breaking": {**BREAKING_CONFIG, "initial": STEEP_DATA},
    # the process pool's path, run by `dispwave sweep --workers 2`
    "sweep": {
        "params": {"gamma": 1.0, "omega": 0.0}, "grid": {"L": 6.0, "N": 256},
        "solver": {"t_end": 1.2, "sample_interval": 0.01, "blowup_m_threshold": 4.0},
        "family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0, 4.0]}},
}

_RUN_ALL = """
import sys
from dispwave.cli import main
for name in sys.argv[2:]:
    command = ["sweep", "--workers", "2"] if name == "sweep" else ["simulate"]
    if main(command + ["--config", name + ".json", "--out", sys.argv[1] + "/" + name]) != 0:
        sys.exit(f"{name} failed")
"""


@pytest.fixture(scope="module")
def two_process_runs(tmp_path_factory):
    """The output directories of ACROSS_PROCESSES from two concurrent interpreters."""
    root = tmp_path_factory.mktemp("processes")
    for name, config in ACROSS_PROCESSES.items():
        (root / f"{name}.json").write_text(json.dumps(config))
    runs = [subprocess.Popen([sys.executable, "-c", _RUN_ALL, tag, *ACROSS_PROCESSES],
                             cwd=root, env=fresh_interpreter_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for tag in ("a", "b")]
    for run in runs:
        _, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
    return root / "a", root / "b"


class TestArtifactsAcrossProcesses:
    def test_every_file_is_byte_identical(self, two_process_runs):
        first, second = two_process_runs
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        # a trace and a summary per run, 25 checkpoints and the sweep's table
        assert len(files) == 2 * (len(ACROSS_PROCESSES) - 1) + 25 + 1
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_checkpoint_times_are_exact_multiples(self, two_process_runs):
        summary = json.loads((two_process_runs[0] / "checkpointed/summary.json").read_text())
        assert summary["checkpoint_times"] == [j * 0.5 for j in range(25)]

    def test_breaking_run_has_a_finite_t_star(self, two_process_runs):
        summary = json.loads((two_process_runs[0] / "breaking/summary.json").read_text())
        assert summary["outcome"] == "broke"
        assert 0.8 <= summary["t_star"] < 0.9


def test_perfbench_inputs_parse(tmp_path, monkeypatch):
    # the benchmark hands these configs to dispwave; the sweep's is the older
    # steepness family and soliton_cli's carries retired keys
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import make_inputs

    for seed in (0, 1):
        for workload in ("soliton_cli", "breaking_n16k"):
            parse_run_config(make_inputs(workload, seed), tmp_path)
        inputs = make_inputs("sweep_n8192", seed)
        family = inputs["family"]
        members = parse_sweep_config(inputs, tmp_path)
        assert [value for value, _ in members] == family["steepnesses"]
        for s, rc in members:
            expected = steep_bump(rc.grid, family["amplitude"], s, family["center"])
            assert np.array_equal(build_initial_field(rc).values, expected.values)


@pytest.mark.scipy
def test_import_loads_numpy_only():
    # scipy is a test-only dependency: the package and its CLI must not import it, also
    # where it is installed and a guarded import would succeed (hence the marker)
    probe = ("import sys, dispwave, dispwave.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=fresh_interpreter_env(), timeout=60, check=True)
    assert done.stdout.strip() == "[]"


class TestNumericFormatting:
    def test_jsonable_writes_nonfinite_floats_as_strings(self):
        # a t_star_spread of nan (one resolved sample) is written as "nan"
        payload = {"t_star_spread": math.nan, "T_lower": [math.inf, -math.inf, 1.5]}
        assert jsonable(payload) == {
            "t_star_spread": "nan", "T_lower": ["infinite", "-infinite", 1.5]}

    def test_fmt_round_trips(self):
        for x in (0.1, 1.0 / 3.0, math.pi, 1e-300, 6.02e23, -0.0):
            assert float(fmt(x)) == x

    def test_write_csv_matches_per_cell_fmt(self, tmp_path):
        # one % over the whole table writes what fmt per cell would
        rows = [
            ("a", 0.1, -0.0, 3, np.float64(1.0 / 3.0), "true", np.int64(-7)),
            ("b,c", math.nan, math.inf, 2**60 + 1, np.float64(-math.inf), "false", True),
            ("", 1e-300, 6.02e23, 0, np.float64(-1e-310), "%s", np.float32(0.1)),
        ]
        header = ("s", "x", "y", "n", "z", "flag", "k")
        path = tmp_path / "t.csv"
        write_csv(path, header, rows, preamble="# note")
        lines = ["# note", ",".join(header)]
        lines += [",".join(c if isinstance(c, str) else fmt(c) for c in row) for row in rows]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_write_csv_without_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("x", "u"), iter(()))
        assert path.read_text() == "x,u\n"

    @pytest.mark.parametrize("rows,error", [
        ([("a", 1.0), (2.0, 1.0)], TypeError),  # number in a str column
        ([(1.0, 1.0), ("a", 1.0)], TypeError),  # str in a number column
        ([(1.0, 2.0), (1.0,), (1.0, 2.0, 3.0)], ValueError),
    ])
    def test_write_csv_rejects_rows_unlike_the_first(self, tmp_path, rows, error):
        with pytest.raises(error):
            write_csv(tmp_path / "t.csv", ("p", "q"), rows)
