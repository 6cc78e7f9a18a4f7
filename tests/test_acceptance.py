"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the configurations and tolerances are pinned here and nowhere else.
"""

import json
import math

import numpy as np
import pytest

from dispwave import (
    Field,
    Grid,
    PdeParams,
    SolitonParams,
    SolverConfig,
    build_profile,
    differentiate,
    existence_bound,
    existence_time_lower_bound,
    blowup_condition,
    breaking_threshold,
    extrapolate_blowup_time,
    first_integral_residual,
    gamma_utx_field,
    gaussian_bump,
    helmholtz_inverse,
    measure_decay_rate,
    profile_equation_residual,
    recommended_grid,
    rhs_momentum,
    rhs_nonlocal,
    sharpness_experiment,
    simulate,
    steep_bump,
    verify_traveling,
)
from dispwave.cli import main

from conftest import band_limited_field

# worked constants recomputed independently at 50-digit precision
T_LOW_CASE = 0.9272952180016122     # gamma=1, omega=0, E0=1, m0=-2
T_MID_CASE = 0.6229761539912086     # gamma=2, omega=0, E0=1, m0=-3
THRESHOLD_CASE = -1.9566366869570319  # gamma=1, omega=0.5, E0=1

SWEEP_TRIPLES = [
    # (c, gamma, omega): gamma < 0, 0 < gamma < 3/2, and gamma > 1 near cap
    (2.0, -1.0, 0.5),
    (3.0, -1.0, 0.5),
    (1.5, 0.5, 0.5),
    (2.5, 0.5, 0.5),
    (1.0, 0.0, 0.25),
    (2.0, 1.2, 0.5),
    (1.9, 2.0, 0.5),    # 0.95 of the cap 2*omega*gamma/(gamma-1) = 2
    (2.8, 3.0, 1.0),    # 0.93 of its cap 3
    (4.0, 1.0, 0.5),
]


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


def test_acceptance_1_spectral_core_exactness():
    g = Grid(30.0, 1024)
    for j in (1, 3, 17):
        k = np.pi * j / g.half_width
        f = Field(g, np.cos(k * g.x))
        out = helmholtz_inverse(f)
        assert np.max(np.abs(out.values - f.values / (1.0 + k * k))) <= 1e-12
    for seed in range(8):
        f = band_limited_field(g, seed=seed)
        conv = helmholtz_inverse(f)
        back = conv.values - differentiate(conv, 2).values
        assert np.max(np.abs(back - f.values)) <= 1e-10 * np.max(np.abs(f.values))
    report(1, "spectral core exactness")


def test_acceptance_2_formulation_equivalence():
    g = Grid(30.0, 1024)
    pairs = [(0.0, 0.5), (1.0, 0.0), (2.0, 0.3), (3.0, 1.0), (-1.0, 0.7)]
    worst = 0.0
    for gamma, omega in pairs:
        p = PdeParams(gamma, omega)
        for seed in range(20):
            u = band_limited_field(g, seed=seed)
            diff = rhs_nonlocal(u, p).values - rhs_momentum(u, p).values
            worst = max(worst, float(np.max(np.abs(diff))))
    assert worst <= 1e-8
    report(2, "formulation equivalence")


def test_acceptance_3_energy_conservation():
    g = Grid(30.0, 1024)
    u0 = gaussian_bump(g, 0.1, 2.0)
    cfg = SolverConfig(t_end=10.0, sample_interval=0.25)
    res = simulate(u0, PdeParams(1.0, 0.5), cfg)
    assert res.stop_reason == "reached_t_end"
    assert res.energy_drift <= 1e-6
    report(3, "energy conservation")


def test_acceptance_4_solitary_wave_laws():
    for c, gamma, omega in SWEEP_TRIPLES:
        p = SolitonParams(c, PdeParams(gamma, omega))
        profile = build_profile(p, recommended_grid(p), tail_tol=1e-10)
        a = c - 2.0 * omega
        assert abs(np.max(profile.values) - a) <= 1e-8
        assert np.max(np.abs(first_integral_residual(profile))) <= 1e-8
        assert np.max(np.abs(profile_equation_residual(profile))) <= 1e-7
        assert measure_decay_rate(profile) == pytest.approx(math.sqrt(a / c), rel=0.01)
    # propagation fidelity of the canonical member over t = 5
    canonical = build_profile(SolitonParams(2.0, PdeParams(1.0, 0.5)), Grid(30.0, 1024))
    report_travel = verify_traveling(canonical, t_end=5.0)
    assert report_travel.max_l2_error <= 1e-4
    assert report_travel.measured_speed == pytest.approx(2.0, rel=1e-3)
    report(4, "solitary wave laws")


def test_acceptance_5_slope_dynamics():
    # whole-field identity between the assembled slope-rate field and the
    # differentiated right-hand side
    g = Grid(30.0, 1024)
    for gamma, omega in ((1.0, 0.5), (2.0, 0.0), (-1.0, 0.8)):
        p = PdeParams(gamma, omega)
        for seed in range(5):
            u = band_limited_field(g, seed=seed)
            lhs = gamma_utx_field(u, p).values
            rhs = gamma * differentiate(rhs_nonlocal(u, p), 1).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    # trajectory check: centered dm/dt against the Riccati rate within 5%
    # while |m| <= 10 (sub-grid refined minimum, see test_pde helpers)
    from test_pde import _refined_slope_history

    ts, ms, rates = _refined_slope_history()
    checked = 0
    for k in range(1, len(ts) - 1):
        if not 1.0 < abs(ms[k]) <= 10.0:
            continue
        fd = (ms[k + 1] - ms[k - 1]) / (ts[k + 1] - ts[k - 1])
        assert fd == pytest.approx(rates[k], rel=0.05)
        checked += 1
    assert checked >= 40
    report(5, "slope dynamics")


def test_acceptance_6_existence_time_formulas():
    b1 = existence_time_lower_bound(1.0, -2.0, PdeParams(1.0, 0.0))
    assert abs(b1.t_lower - T_LOW_CASE) <= 1e-6
    b2 = existence_time_lower_bound(1.0, -3.0, PdeParams(2.0, 0.0))
    assert abs(b2.t_lower - T_MID_CASE) <= 1e-6
    assert abs(breaking_threshold(1.0, PdeParams(1.0, 0.5)) - THRESHOLD_CASE) <= 1e-6

    # continuity across the gamma-regime boundaries
    for gamma, coeff in ((1.5, 0.5 * (3 - 1.5) * 1.5), (3.0, 0.5 * 3.0 * 3.0)):
        for e0, m0 in ((1.0, -2.0), (2.5, -0.3)):
            k = coeff * e0
            expected = (2.0 / math.sqrt(k)) * (0.5 * math.pi + math.atan(m0 / math.sqrt(k)))
            got = existence_time_lower_bound(e0, m0, PdeParams(gamma, 0.0)).t_lower
            assert abs(got - expected) <= 1e-12

    # arctan-form equivalence for negative initial slope
    rng = np.random.default_rng(1)
    for _ in range(100):
        e0 = float(rng.uniform(0.05, 10.0))
        m0 = float(-rng.uniform(0.01, 30.0))
        p = PdeParams(float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.0, 1.5)))
        b = existence_time_lower_bound(e0, m0, p)
        root = math.sqrt(b.bracket)
        assert abs(b.t_lower - (-2.0 * math.atan(root / m0) / root)) <= 1e-12
    report(6, "existence-time formulas")


def test_acceptance_7_breaking_end_to_end():
    g = Grid(6.0, 16384)
    u0 = steep_bump(g, 1.0, 3.0)
    p = PdeParams(1.0, 0.0)
    verdict = blowup_condition(u0, p)
    assert verdict.triggered  # guaranteed-breaking data

    cfg = SolverConfig(t_end=2.0, sample_interval=0.004,
                       blowup_m_threshold=20.0, dt_min=1e-10)
    res = simulate(u0, p, cfg)
    assert res.stop_reason == "blowup_slope"
    bound = existence_bound(u0, p)
    fit = extrapolate_blowup_time(res.samples)
    assert fit.t_star >= 0.98 * bound.t_lower
    assert res.t_stop >= 0.98 * bound.t_lower

    # the gamma = 0 twin of the same data is global
    g_twin = Grid(6.0, 4096)
    twin = steep_bump(g_twin, 1.0, 3.0)
    cfg_twin = SolverConfig(t_end=50.0, dt_init=0.05, sample_interval=1.0)
    res_twin = simulate(twin, PdeParams(0.0, 0.0), cfg_twin)
    assert res_twin.stop_reason == "reached_t_end"
    m0 = res_twin.samples[0].min_ux
    assert all(r.min_ux >= 3.0 * m0 for r in res_twin.samples)
    report(7, "breaking end-to-end")


def test_acceptance_8_sharpness_trend():
    g = Grid(6.0, 8192)
    p = PdeParams(1.0, 0.0)
    cfg = SolverConfig(t_end=2.0, sample_interval=0.002,
                       blowup_m_threshold=12.0, dt_min=1e-10)
    members = [(s, steep_bump(g, 1.0, s)) for s in (3.0, 4.5, 6.0)]
    rows = sharpness_experiment(members, p, cfg)
    assert all(not r.censored for r in rows)
    ratios = [r.ratio for r in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))  # decreasing toward 1
    assert all(r >= 0.98 for r in ratios)
    report(8, "sharpness trend")


def test_acceptance_9_deterministic_artifacts(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "params": {"gamma": 1.0, "omega": 0.5},
        "grid": {"L": 20.0, "N": 256},
        "solver": {"t_end": 1.0, "sample_interval": 0.2,
                   "checkpoint_interval": 0.5},
        "initial": {"kind": "gaussian", "amplitude": 0.2, "width": 2.0},
        "outputs": {"write_checkpoints": True},
    }))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("trace.csv", "summary.json", "checkpoints/checkpoint_0001.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(9, "deterministic artifacts")
