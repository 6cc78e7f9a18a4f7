import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dispwave
from dispwave import Field, Grid, PdeParams, energy, existence_bound, field_from_csv, gaussian_bump, steep_bump
from dispwave.cli import main
from dispwave.config import (
    ConfigError,
    build_family,
    build_initial_field,
    config_dict,
    load_run_config,
    load_sweep_config,
    parse_run_config,
)
from dispwave.fileio import fmt, write_csv


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


class TestRunConfigParsing:
    def test_minimal_config_fills_defaults(self, tmp_path):
        rc = load_run_config(write_config(tmp_path / "c.json"))
        assert rc.params == PdeParams(1.0, 0.5)
        assert rc.grid == Grid(20.0, 256)
        assert rc.solver.dt_init == 1e-2
        assert rc.initial == {"kind": "gaussian", "amplitude": 0.1, "width": 2.0,
                              "center": 0.0}
        assert rc.outputs.write_trace and not rc.outputs.write_checkpoints

    def test_legacy_seed_key_accepted_and_dropped(self, tmp_path):
        rc = load_run_config(write_config(tmp_path / "c.json", seed=0))
        assert rc == load_run_config(write_config(tmp_path / "plain.json"))
        assert "seed" not in config_dict(rc)

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
        summary_like = {"stop_reason": "reached_t_end", "config": config_dict(rc)}
        rc2 = parse_run_config(summary_like, tmp_path)
        assert config_dict(rc2) == config_dict(rc)

    def test_config_dict_round_trips(self, tmp_path):
        rc = load_run_config(write_config(tmp_path / "c.json"))
        again = parse_run_config(config_dict(rc), tmp_path)
        assert config_dict(again) == config_dict(rc)


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


class TestSweepConfig:
    def test_steepness_family(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 1.0, "blowup_m_threshold": 9.0},
            "family": {"kind": "steepness", "amplitude": 1.0,
                       "steepnesses": [3.0, 4.0]},
        }))
        sc = load_sweep_config(path)
        members = build_family(sc)
        assert [alpha for alpha, _ in members] == [3.0, 4.0]
        assert all(np.max(u.values) == pytest.approx(1.0) for _, u in members)

    def test_amplitude_family(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 1.0},
            "family": {"kind": "amplitude",
                       "base": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0},
                       "alphas": [0.5, 1.0, 2.0]},
        }))
        members = build_family(load_sweep_config(path))
        peaks = [np.max(u.values) for _, u in members]
        assert peaks == pytest.approx([0.5, 1.0, 2.0])

    def test_empty_family_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 1.0},
            "family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": []},
        }))
        with pytest.raises(ConfigError, match="non-empty"):
            load_sweep_config(path)

    @staticmethod
    def _write_sweep(path, family, **overrides):
        data = {
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 256},
            "solver": {"t_end": 1.0},
            "family": family,
        }
        data.update(overrides)
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("switch", ["write_trace", "write_checkpoints"])
    def test_output_switches_rejected(self, tmp_path, switch):
        # a sweep writes only comparison.csv, so its outputs take only a directory
        family = {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0]}
        path = self._write_sweep(tmp_path / "s.json", family,
                                 outputs={"directory": "out", switch: True})
        with pytest.raises(ConfigError, match=r"^outputs: unknown key\(s\) \['" + switch):
            load_sweep_config(path)

    @pytest.mark.parametrize("family,message", [
        ({"amplitude": 1.0, "steepnesses": [3.0]},
         "family: expected an object with a 'kind' key"),
        ({"kind": "width", "amplitude": 1.0},
         "family.kind: unknown kind 'width', expected one of ['amplitude', 'steepness']"),
        ({"kind": ["steepness"], "amplitude": 1.0, "steepnesses": [3.0]},
         "family.kind: unknown kind ['steepness'], expected one of ['amplitude', 'steepness']"),
        ({"kind": "amplitude", "base": {"kind": "nope"}, "alphas": [1.0]},
         "family.base.kind: unknown kind 'nope', expected one of "
         "['file', 'gaussian', 'scaled_soliton', 'soliton', 'steep']"),
        ({"kind": "amplitude", "alphas": [1.0],
          "base": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0, "skew": 2}},
         "family.base: unknown key(s) ['skew']"),
        ({"kind": "amplitude", "alphas": [1.0, True],
          "base": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0}},
         "family.alphas: expected a non-empty list of numbers"),
        ({"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0], "center": "0"},
         "family.center: expected a number, got '0'"),
    ])
    def test_family_errors_name_their_path(self, tmp_path, family, message):
        path = self._write_sweep(tmp_path / "s.json", family)
        with pytest.raises(ConfigError) as err:
            load_sweep_config(path)
        assert str(err.value) == message

    def test_file_base_resolves_against_config_directory(self, tmp_path, monkeypatch):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        g = Grid(6.0, 256)
        u = gaussian_bump(g, 0.5, 1.0)
        write_csv(config_dir / "u0.csv", ("x", "u"), zip(g.x, u.values))
        path = self._write_sweep(config_dir / "s.json", {
            "kind": "amplitude", "base": {"kind": "file", "path": "u0.csv"},
            "alphas": [0.5, 2.0]})
        monkeypatch.chdir(tmp_path)  # the path must not resolve against the cwd
        sc = load_sweep_config(Path("configs") / "s.json")
        assert sc.family["base"] == {"kind": "file",
                                     "path": str((config_dir / "u0.csv").resolve())}
        members = build_family(sc)
        assert [a for a, _ in members] == [0.5, 2.0]
        assert all(np.array_equal(f.values, a * u.values) for a, f in members)


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
        assert summary["existence_bound"]["T_lower"] == "infinite"
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

    def test_rerun_from_summary_reproduces_trace(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        assert main(["simulate", "--config", str(out1 / "summary.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_soliton_run_reports_shape_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            params={"gamma": 1.0, "omega": 0.5},
            grid={"L": 30.0, "N": 1024},
            solver={"t_end": 2.0, "sample_interval": 0.25, "decay_tolerance": 1e-8},
            initial={"kind": "soliton", "c": 2.0},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["shape_error"] <= 1e-4

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
        assert summary["breaking"]["triggered"] is True
        assert summary["t_star"] >= 0.98 * summary["existence_bound"]["T_lower"]
        assert 0.0 <= summary["t_star_spread"] <= 1e-2
        stats = summary["stats"]
        assert stats["steps"] > 0 and stats["rhs_evaluations"] == 1 + 4 * stats["steps"]

    def test_checkpoints_written_when_enabled(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           solver={"t_end": 0.4, "sample_interval": 0.1,
                                   "checkpoint_interval": 0.2},
                           outputs={"write_checkpoints": True})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        files = sorted((out / "checkpoints").glob("checkpoint_*.csv"))
        assert len(files) == 3
        header = files[0].read_text().splitlines()[0]
        assert header == "x,u"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checkpoint_times"] == pytest.approx([0.0, 0.2, 0.4])

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

    def test_missing_output_dir_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "output directory" in capsys.readouterr().err


class TestSolitonCommand:
    def test_writes_profile_and_prints_laws(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(["soliton", "--c", "2", "--omega", "0.5", "--gamma", "1",
                     "--L", "30", "--N", "1024", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "a = 1" in printed
        assert "kappa = 0.70710678118654757" in printed
        assert out.exists()

    def test_inadmissible_speed_names_inequality(self, tmp_path, capsys):
        code = main(["soliton", "--c", "1", "--omega", "1", "--gamma", "1",
                     "--L", "30", "--N", "512", "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "c > 2*omega violated" in capsys.readouterr().err

    def test_peakon_limit_names_inequality(self, tmp_path, capsys):
        code = main(["soliton", "--c", "2", "--omega", "0", "--gamma", "1",
                     "--L", "30", "--N", "512", "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "c*(gamma - 1) < 2*omega*gamma violated" in capsys.readouterr().err


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

    def test_data_file_route_matches_library(self, tmp_path, capsys):
        g = Grid(20.0, 256)
        u0 = steep_bump(g, 1.0, 3.0)
        data = tmp_path / "u.csv"
        write_csv(data, ("x", "u"), zip(g.x, u0.values))
        assert main(["bound", "--data", str(data), "--gamma", "1", "--omega", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = existence_bound(u0, PdeParams(1.0, 0.0))
        assert payload["E0"] == pytest.approx(expected.e0, rel=1e-14)
        assert payload["m0"] == pytest.approx(expected.m0, rel=1e-14)
        assert payload["T_lower"] == pytest.approx(expected.t_lower, rel=1e-14)
        assert payload["K"] == pytest.approx(expected.bracket, rel=1e-14)
        assert payload["triggered"] is True

    def test_data_requires_gamma(self, tmp_path, capsys):
        g = Grid(20.0, 256)
        data = tmp_path / "u.csv"
        write_csv(data, ("x", "u"), zip(g.x, np.zeros(256)))
        assert main(["bound", "--data", str(data)]) == 2
        assert "--gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["nonuniform", "odd_rows", "few_rows", "three_columns"])
    def test_malformed_data_file_names_it(self, tmp_path, capsys, case):
        x = -20.0 + 0.25 * np.arange(160)
        columns = [x, np.zeros_like(x)]
        if case == "nonuniform":
            x[80] += 0.1
        elif case == "odd_rows":
            columns = [c[:159] for c in columns]
        elif case == "few_rows":
            columns = [c[:8] for c in columns]
        else:
            columns.append(np.zeros_like(x))
        data = tmp_path / f"{case}.csv"
        write_csv(data, ("x", "u", "v")[:len(columns)], zip(*columns))
        assert main(["bound", "--data", str(data), "--gamma", "1"]) == 2
        assert str(data) in capsys.readouterr().err


class TestSweepCommand:
    def test_two_member_family(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 1.2, "sample_interval": 0.01,
                       "blowup_m_threshold": 9.0, "dt_min": 1e-10},
            "family": {"kind": "steepness", "amplitude": 1.0,
                       "steepnesses": [3.0, 4.0]},
        }))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("family_id,alpha,")
        assert len(lines) == 3
        column = lines[0].split(",").index("ratio")
        ratios = [float(row.split(",")[column]) for row in lines[1:]]
        assert all(r >= 0.98 for r in ratios)

    def test_scaling_family_bound_decreases_with_alpha(self, tmp_path):
        # K grows like alpha^2 and |m0| like alpha, so T_lower ~ 1/alpha;
        # the column is filled even for members censored by a tiny horizon
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 2048},
            "solver": {"t_end": 0.05, "sample_interval": 0.01},
            "family": {"kind": "amplitude",
                       "base": {"kind": "steep", "amplitude": 1.0, "steepness": 3.0},
                       "alphas": [1.0, 2.0, 3.0]},
        }))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        t_lower = [float(r.split(",")[6]) for r in rows]
        assert t_lower[0] > t_lower[1] > t_lower[2]

    @staticmethod
    def _gaussian_family(path, alphas):
        # the base reaches 1.4e-4 at the box edge, so alpha >= 10 fails the boundary gate
        path.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 256},
            "solver": {"t_end": 0.05, "sample_interval": 0.01, "decay_tolerance": 1e-3},
            "family": {"kind": "amplitude",
                       "base": {"kind": "gaussian", "amplitude": 1.0, "width": 2.0},
                       "alphas": alphas},
        }))
        return path

    def test_failing_member_becomes_error_row(self, tmp_path):
        cfg = self._gaussian_family(tmp_path / "sweep.json", [1.0, 10.0])
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match=r"member 1 \(alpha = 10\) failed"):
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [r.split(",")[4] for r in rows] == ["low", "error"]

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

    def test_huge_integer_in_family_is_exit_2(self, tmp_path, capsys):
        # an integer too large for a float is a number to JSON, and no float to the family
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "params": {"gamma": 1.0, "omega": 0.0},
            "grid": {"L": 6.0, "N": 64},
            "solver": {"t_end": 0.1},
            "family": {"kind": "steepness", "amplitude": 1.0, "steepnesses": [3.0, 10**400]},
        }))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: family.steepnesses.1: expected a finite number, got {10**400}\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_exit_2(self, tmp_path, capsys, workers):
        cfg = self._gaussian_family(tmp_path / "sweep.json", [1.0])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 2
        assert "error: --workers" in capsys.readouterr().err
        assert not out.exists()


def test_unresolved_breaking_run_is_censored_on_both_paths(tmp_path):
    # at N = 128 every sample's band-edge tail exceeds 1e-7, so the run breaks
    # with no sample to estimate t* from: simulate and sweep both censor it
    common = {"params": {"gamma": 1.0, "omega": 0.0}, "grid": {"L": 6.0, "N": 128},
              "solver": {"t_end": 1.2, "sample_interval": 0.01, "blowup_m_threshold": 3.0}}
    run = write_config(tmp_path / "run.json", **common,
                       initial={"kind": "steep", "amplitude": 1.0, "steepness": 3.0})
    assert main(["simulate", "--config", str(run), "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["stop_reason"] == "blowup_slope"
    assert summary["t_star"] is None and summary["t_star_spread"] is None
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({**common, "family": {"kind": "steepness", "amplitude": 1.0,
                                                      "steepnesses": [3.0]}}))
    assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "sweep")]) == 0
    header, row = (tmp_path / "sweep" / "comparison.csv").read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["gamma_case"] == "low" and fields["T_lower"] != "nan"
    assert (fields["t_star"], fields["t_star_spread"], fields["ratio"]) == ("nan",) * 3
    assert fields["censored"] == "true"


def test_import_loads_numpy_only():
    # scipy is a test-only dependency: the package and its CLI must not import it
    src = Path(dispwave.__file__).parents[1]
    probe = ("import sys, dispwave, dispwave.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


class TestNumericFormatting:
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
