import concurrent.futures
import math
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import dispwave.blowup
from dispwave import (
    Field,
    Grid,
    PdeParams,
    SolverConfig,
    SweepRow,
    TraceRow,
    assess,
    blowup_condition,
    breaking_threshold,
    energy,
    existence_bound,
    existence_time_lower_bound,
    extrapolate_blowup_time,
    gamma_regime,
    report_fields,
    riccati_bracket,
    sharpness_experiment,
    simulate,
    steep_bump,
    write_comparison_csv,
)

from dispwave.config import parse_sweep_config
from dispwave.pde import slope_argmin

from conftest import band_limited_field

# reference values recomputed independently at 50-digit precision
T_LOW_CASE = 0.9272952180016122    # gamma=1, omega=0, E0=1, m0=-2
T_MID_CASE = 0.6229761539912086    # gamma=2, omega=0, E0=1, m0=-3
THRESHOLD_CASE = -1.9566366869570319  # gamma=1, omega=0.5, E0=1


def unit_energy_bump(grid: Grid, steepness: float = 3.0) -> Field:
    """sech^2 bump rescaled so the discrete energy is exactly one."""
    raw = steep_bump(grid, 1.0, steepness)
    return Field(grid, raw.values / math.sqrt(energy(raw)))


class TestGammaRegime:
    @pytest.mark.parametrize("gamma,case", [
        (0.0, "zero"), (0.5, "low"), (1.49, "low"), (1.5, "mid"), (2.0, "mid"),
        (3.0, "mid"), (3.01, "high_or_neg"), (-0.5, "high_or_neg"),
    ])
    def test_classification(self, gamma, case):
        assert gamma_regime(gamma) == case


class TestRiccatiBracket:
    def test_low_case_coefficients(self):
        case, k = riccati_bracket(1.0, PdeParams(1.0, 0.0))
        assert case == "low" and k == pytest.approx(1.0, abs=1e-15)

    def test_mid_case_coefficients(self):
        case, k = riccati_bracket(1.0, PdeParams(2.0, 0.0))
        assert case == "mid" and k == pytest.approx(2.0, abs=1e-15)

    def test_high_and_negative_share_coefficient(self):
        _, k_neg = riccati_bracket(2.0, PdeParams(-1.0, 0.0))
        assert k_neg == pytest.approx(0.5 * (2 * -1 - 3) * -1 * 2.0, abs=1e-14)
        case, k = riccati_bracket(1.0, PdeParams(4.0, 0.0))
        assert case == "high_or_neg" and k == pytest.approx(10.0, abs=1e-14)

    def test_dispersive_term(self):
        _, k = riccati_bracket(4.0, PdeParams(1.0, 0.5))
        assert k == pytest.approx(4.0 + 4.0 * math.sqrt(2.0) * 0.5 * 2.0, rel=1e-14)

    def test_positive_whenever_active(self):
        for gamma in (-2.0, 0.3, 1.5, 2.9, 3.0, 5.0):
            for e0 in (0.1, 1.0, 10.0):
                _, k = riccati_bracket(e0, PdeParams(gamma, 0.7))
                assert k > 0.0

    def test_coefficients_continuous_at_case_boundaries(self):
        # (3-g)g/2 = g^2/2 at g=3/2; g^2/2 = (2g-3)g/2 at g=3
        assert 0.5 * (3 - 1.5) * 1.5 == pytest.approx(0.5 * 1.5**2, abs=1e-15)
        assert 0.5 * 3.0**2 == pytest.approx(0.5 * (2 * 3.0 - 3) * 3.0, abs=1e-15)


class TestBreakingThreshold:
    def test_camassa_holm_unit_energy(self):
        assert breaking_threshold(1.0, PdeParams(1.0, 0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_with_dispersion(self):
        got = breaking_threshold(1.0, PdeParams(1.0, 0.5))
        assert got == pytest.approx(THRESHOLD_CASE, abs=1e-12)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError, match="global"):
            breaking_threshold(1.0, PdeParams(0.0, 0.5))

    def test_uses_absolute_value_bracket(self):
        # gamma = 4 flips the sign of (gamma-3)*gamma relative to gamma = 1;
        # the criterion bracket takes |.| rather than switching coefficient
        got = breaking_threshold(1.0, PdeParams(4.0, 0.0))
        assert got == pytest.approx(-math.sqrt(2.0), abs=1e-14)


class TestBlowupCondition:
    def test_zero_data_never_triggers(self, grid_small):
        verdict = blowup_condition(Field(grid_small, np.zeros(grid_small.n_points)),
                                   PdeParams(1.0, 0.0))
        assert not verdict.triggered and verdict.witness_x0 is None
        assert verdict.threshold == 0.0

    def test_unit_energy_steep_data_triggers(self):
        g = Grid(20.0, 1024)
        u0 = unit_energy_bump(g)
        p = PdeParams(1.0, 0.0)
        assert energy(u0) == pytest.approx(1.0, rel=1e-13)
        assert existence_bound(u0, p).m0 < -1.2
        verdict = blowup_condition(u0, p)
        assert verdict.threshold == pytest.approx(-1.0, rel=1e-13)
        assert verdict.triggered
        assert verdict.witness_x0 is not None and verdict.witness_x0 > 0.0

    def test_shallow_data_does_not_trigger(self):
        g = Grid(20.0, 1024)
        raw = steep_bump(g, 1.0, 0.5)
        u0 = Field(g, raw.values / math.sqrt(energy(raw)))
        verdict = blowup_condition(u0, PdeParams(1.0, 0.0))
        assert not verdict.triggered

    def test_trigger_implies_slope_below_bracket(self, grid_small):
        # numerical restatement of the criterion on random data
        p = PdeParams(2.0, 0.4)
        for seed in range(6):
            u0 = band_limited_field(grid_small, seed=seed, amplitude=1.5)
            verdict = blowup_condition(u0, p)
            if verdict.triggered:
                assert existence_bound(u0, p).m0 < verdict.threshold


class TestExistenceBound:
    def test_low_case_worked_value(self):
        b = existence_time_lower_bound(1.0, -2.0, PdeParams(1.0, 0.0))
        assert b.gamma_case == "low" and b.bracket == pytest.approx(1.0)
        assert b.t_lower == pytest.approx(T_LOW_CASE, abs=1e-12)

    def test_mid_case_worked_value(self):
        b = existence_time_lower_bound(1.0, -3.0, PdeParams(2.0, 0.0))
        assert b.gamma_case == "mid" and b.bracket == pytest.approx(2.0)
        assert b.t_lower == pytest.approx(T_MID_CASE, abs=1e-12)

    def test_agrees_with_arctan_form_for_negative_slope(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            e0 = float(rng.uniform(0.05, 20.0))
            m0 = float(-rng.uniform(0.01, 50.0))
            p = PdeParams(float(rng.uniform(-4, 4)) or 0.7, float(rng.uniform(0, 2)))
            if p.gamma == 0.0:
                continue
            b = existence_time_lower_bound(e0, m0, p)
            root = math.sqrt(b.bracket)
            paper_form = -2.0 * math.atan(root / m0) / root
            assert b.t_lower == pytest.approx(paper_form, abs=1e-12)

    def test_continuous_across_gamma_case_boundaries(self):
        for gamma, coeff in ((1.5, 0.5 * (3 - 1.5) * 1.5), (3.0, 0.5 * 3.0**2)):
            for e0, m0 in ((1.0, -2.0), (3.0, -0.5), (0.7, 1.0)):
                k = coeff * e0
                expected = (2.0 / math.sqrt(k)) * (0.5 * math.pi + math.atan(m0 / math.sqrt(k)))
                b = existence_time_lower_bound(e0, m0, PdeParams(gamma, 0.0))
                assert b.t_lower == pytest.approx(expected, abs=1e-12)

    def test_infinite_for_gamma_zero_or_zero_energy(self):
        assert existence_time_lower_bound(1.0, -2.0, PdeParams(0.0, 0.5)).t_lower == math.inf
        assert existence_time_lower_bound(0.0, 0.0, PdeParams(1.0, 0.5)).t_lower == math.inf

    def test_monotone_in_initial_slope(self):
        p = PdeParams(1.0, 0.3)
        times = [existence_time_lower_bound(1.0, m0, p).t_lower
                 for m0 in np.linspace(-8.0, 2.0, 21)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_monotone_decreasing_in_bracket(self):
        # sweep E0 upward with everything else fixed: K grows, T shrinks
        p = PdeParams(1.0, 0.3)
        times = [existence_time_lower_bound(e0, -2.0, p).t_lower
                 for e0 in np.linspace(0.2, 10.0, 15)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_positive_even_for_nonnegative_slope(self):
        b = existence_time_lower_bound(1.0, 0.0, PdeParams(1.0, 0.0))
        assert b.t_lower == pytest.approx(math.pi, abs=1e-12)

    def test_field_wrapper_consistency(self):
        g = Grid(20.0, 1024)
        u0 = unit_energy_bump(g)
        p = PdeParams(1.0, 0.2)
        b = existence_bound(u0, p)
        assert b.e0 == pytest.approx(energy(u0), rel=1e-14)
        assert b.m0 == pytest.approx(slope_argmin(u0.derivative, p.gamma)[1], rel=1e-14)


def slope_row(t: float, m: float, m_rhs: float, tail: float = 0.0) -> TraceRow:
    """A trace row carrying only the fields the breaking-time estimate reads."""
    return TraceRow(t=t, energy=0.0, hamiltonian=0.0, m=m, xi=0.0, m_rhs=m_rhs, max_u=0.0,
                    min_ux=0.0, dt=0.0, tail=tail, boundary=0.0)


class TestExtrapolation:
    @staticmethod
    def riccati_trace(m0: float, stop: float, dt: float = 0.002):
        rows = []
        t = 0.0
        while True:
            m = 1.0 / (1.0 / m0 + 0.5 * t)
            rows.append(slope_row(t, m, -0.5 * m * m))
            if m <= stop:
                return rows
            t += dt

    def test_recovers_pure_riccati_time(self):
        trace = self.riccati_trace(-3.0, stop=-40.0)
        estimate = extrapolate_blowup_time(trace)
        assert estimate.t_star == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert estimate.spread <= 1e-12

    @pytest.mark.parametrize("gamma,omega,e0,m0", [
        (1.0, 0.0, 1.0, -2.0), (2.0, 0.5, 3.0, -5.0), (0.5, 0.25, 0.4, -0.3)])
    def test_reproduces_the_existence_bound(self, gamma, omega, e0, m0):
        # with m_rhs = -(m^2 + K)/2 the slope follows the bound's own Riccati
        # equation, m = sqrt(K)*tan(atan(m0/sqrt(K)) - sqrt(K)*t/2), so every
        # sample's frozen-forcing time lands on T_lower
        bound = existence_time_lower_bound(e0, m0, PdeParams(gamma, omega))
        root = math.sqrt(bound.bracket)
        rows = []
        for t in np.linspace(0.0, 0.95 * bound.t_lower, 40):
            m = root * math.tan(math.atan(m0 / root) - 0.5 * root * t)
            rows.append(slope_row(float(t), m, -0.5 * (m * m + bound.bracket)))
        estimate = extrapolate_blowup_time(rows)
        assert abs(estimate.t_star - bound.t_lower) <= 1e-12
        assert estimate.spread <= 1e-12

    @pytest.mark.parametrize("f", [0.5, 2.0, 8.0])
    def test_positive_forcing_matches_exact_riccati(self, f):
        # m' = -(m^2 - b^2)/2 with b = sqrt(2f) solves to m = -b*coth(b*(T - t)/2),
        # which reaches -infinity at T: the artanh branch
        b, breaking = math.sqrt(2.0 * f), 0.7
        rows = []
        for t in np.linspace(0.0, 0.6, 31):
            m = -b / math.tanh(0.5 * b * (breaking - t))
            rows.append(slope_row(float(t), m, -0.5 * m * m + f))
        estimate = extrapolate_blowup_time(rows)
        assert abs(estimate.t_star - breaking) <= 1e-12

    def test_median_of_the_last_resolved_collapsing_samples(self):
        # at f = 0 a sample at t = 0 estimates 2/|m|; the window takes the last
        # five that collapse and are resolved, skipping the other two rows
        times = [1.0, 2.0, 0.9, 1.1, 1.3, 0.8, 1.2]
        rows = [slope_row(0.0, -2.0 / x, -2.0 / (x * x)) for x in times]
        rows.insert(4, slope_row(0.0, -2.0, 1.0))  # relaxing: m' > 0
        rows.append(slope_row(0.0, -40.0, -800.0, tail=2e-7))  # under-resolved
        estimate = extrapolate_blowup_time(rows)
        assert estimate.t_star == pytest.approx(1.1, rel=1e-14)
        assert estimate.spread == pytest.approx(0.5, rel=1e-14)

    def test_single_resolved_sample_has_no_spread(self):
        # one estimate gives t* but no error bar: spread is nan, not 0
        rows = [slope_row(0.0, -2.0, -2.0), slope_row(0.1, -4.0, -8.0, tail=2e-7)]
        estimate = extrapolate_blowup_time(rows)
        assert estimate.t_star == pytest.approx(1.0, rel=1e-14)
        assert math.isnan(estimate.spread)

    def test_forcing_next_to_no_collapse(self):
        # m = -1, m_rhs = -1e-17 leaves f = 0.5 and rate*z = 1 after rounding;
        # exactly, rate*z = sqrt(1 - eps) with eps = 2e-17, so the time is
        # artanh(sqrt(1 - eps))/0.5 = ln(4/eps) + O(eps) = ln(2e17)
        estimate = extrapolate_blowup_time([slope_row(0.0, -1.0, -1e-17)])
        assert estimate.t_star == pytest.approx(math.log(2e17), rel=1e-14)

    def test_rejects_non_breaking_trace(self):
        rows = [slope_row(0.1 * i, 1.0, 0.0) for i in range(5)]
        with pytest.raises(ValueError, match="no collapsing sample is resolved"):
            extrapolate_blowup_time(rows)

    def test_rejects_relaxing_trace(self):
        rows = [slope_row(0.1 * i, -20.0 + i, 10.0) for i in range(8)]
        with pytest.raises(ValueError, match="no collapsing sample is resolved"):
            extrapolate_blowup_time(rows)


@pytest.mark.parametrize("gamma,omega,half_width", [(1.0, 0.0, 6.0), (2.0, 0.5, 8.0)])
def test_breaking_time_agrees_across_grids(gamma, omega, half_width):
    # acceptance-7 data, and the same steep bump at gamma = 2, omega = 0.5:
    # t* at N = 2048 and 4096 agree within the sum of their spreads
    p = PdeParams(gamma, omega)
    threshold = 11.0 if gamma == 1.0 else 15.0
    cfg = SolverConfig(t_end=2.0, sample_interval=0.004,
                       blowup_m_threshold=threshold, dt_min=1e-10)
    estimates = []
    for n in (2048, 4096):
        u0 = steep_bump(Grid(half_width, n), 1.0, 3.0)
        res = simulate(u0, p, cfg)
        assert res.stop_reason == "blowup_slope"
        estimates.append(extrapolate_blowup_time(res.samples))
    coarse, fine = estimates
    assert abs(coarse.t_star - fine.t_star) <= coarse.spread + fine.spread
    assert fine.t_star >= existence_bound(steep_bump(Grid(half_width, 4096), 1.0, 3.0),
                                          p).t_lower


def test_global_solution_losing_resolution_is_not_breaking():
    # steep_bump(1, 0.45) at gamma = 1 has y0 > 0 everywhere (1 - 4 s^2 = 0.19), so it
    # is global; at N = 4096 its tail passes 1e-7 at t = 4.96, and the estimator alone
    # still returns a t* (8.18) before t_end: a verdict that trusts that t* on an
    # underresolved run must not call this run breaking
    u0, p = steep_bump(Grid(30.0, 4096), 1.0, 0.45), PdeParams(1.0, 0.0)
    result = simulate(u0, p, SolverConfig(t_end=10.0, sample_interval=0.01,
                                          blowup_m_threshold=30.0))
    assert result.stop_reason == "reached_t_end"
    assert extrapolate_blowup_time(result.samples).t_star < result.t_stop
    report = assess(u0, p, result)
    assert report.outcome == "underresolved" and report.breaking is None
    assert not report.verdict.triggered
    fields = report_fields(report)
    assert fields["outcome"] == "underresolved" and fields["t_star"] is None


def sweep_members(initial, grid=(6.0, 256), gamma=1.0, **solver):
    """The members `parse_sweep_config` makes of a sweep config with these sections."""
    return parse_sweep_config({"params": {"gamma": gamma, "omega": 0.0},
                               "grid": {"L": grid[0], "N": grid[1]},
                               "solver": solver, "initial": initial}, Path.cwd())


@pytest.fixture(scope="module")
def small_family_rows():
    members = sweep_members({"kind": "steep", "amplitude": [0.35, 1.0], "steepness": 3.0},
                            grid=(6.0, 4096), t_end=1.5, sample_interval=0.004,
                            blowup_m_threshold=11.0, dt_min=1e-10)
    return sharpness_experiment(members)


class TestSharpnessExperiment:
    def test_censoring_and_bound(self, small_family_rows):
        # alpha = 0.35 is triggered but its t_end = 1.5 is below its T_lower (2.07)
        gentle, steep = small_family_rows
        assert gentle.censored and math.isnan(gentle.t_star)
        assert gentle.outcome == "resolved" and gentle.tail_max <= 1e-7
        assert not steep.censored and steep.outcome == "broke"
        assert steep.ratio >= 0.98
        assert steep.t_star >= steep.t_lower * 0.98

    def test_rows_keep_member_order(self, small_family_rows):
        assert [r.family_id for r in small_family_rows] == [0, 1]
        assert [r.alpha for r in small_family_rows] == [0.35, 1.0]

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            sharpness_experiment([])

    def test_gamma_zero_rejected(self):
        # any member at gamma = 0 rejects the sweep before a member runs
        members = sweep_members({"kind": "steep", "amplitude": 1.0, "steepness": 2.0},
                                gamma=[1.0, 0.0], t_end=1.0)
        with pytest.raises(ValueError, match="gamma != 0"):
            sharpness_experiment(members)

    def test_worker_pool_matches_sequential(self):
        # both members break, so every row field is finite and the rows must
        # agree bit for bit across the process boundary
        members = sweep_members({"kind": "steep", "amplitude": [0.9, 1.0], "steepness": 3.0},
                                grid=(6.0, 2048), t_end=1.2, sample_interval=0.01,
                                blowup_m_threshold=9.0, dt_min=1e-10)
        seq = sharpness_experiment(members, workers=1)
        par = sharpness_experiment(members, workers=2)
        assert all(not r.censored for r in seq)
        assert seq == par

    def test_pool_size_capped_at_family_size(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Stands in for the process pool: records its size, runs calls inline."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        # the pool branch imports the executor when it runs
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        members = sweep_members({"kind": "gaussian", "amplitude": [0.1, 0.2, 0.3], "width": 2.0},
                                grid=(20.0, 256), t_end=0.02, sample_interval=0.01)
        for workers, expected in ((8, [3]), (3, [3]), (2, [2]), (1, [])):
            sizes.clear()
            rows = sharpness_experiment(members, workers=workers)
            assert sizes == expected
            assert [r.family_id for r in rows] == [0, 1, 2]
        sizes.clear()
        sharpness_experiment(members[:1], workers=4)
        assert sizes == []

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        members = sweep_members({"kind": "gaussian", "amplitude": [0.1], "width": 2.0},
                                grid=(20.0, 256), t_end=1.0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sharpness_experiment(members, workers=workers)

    def test_failing_member_becomes_error_row(self, tmp_path):
        # amplitude 1 reaches 1.4e-4 at the box edge, so amplitude 10 fails the boundary gate
        members = sweep_members({"kind": "gaussian", "amplitude": [1.0, 10.0, 2.0], "width": 2.0},
                                t_end=0.05, sample_interval=0.01, decay_tolerance=1e-3)
        tables = []
        for workers in (1, 2):
            with pytest.warns(RuntimeWarning, match=r"member 1 \(alpha = 10\) failed"):
                rows = sharpness_experiment(members, workers=workers)
            assert [(r.family_id, r.gamma_case) for r in rows] == [
                (0, "low"), (1, "error"), (2, "low")]
            assert math.isfinite(rows[0].t_lower) and math.isnan(rows[1].t_lower)
            # nan fields break row equality, so the two runs are compared as written tables
            write_comparison_csv(rows, tmp_path / f"workers{workers}.csv")
            tables.append((tmp_path / f"workers{workers}.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_ratio_below_the_bound_warns(self, monkeypatch):
        # a breaking time under 0.98 of the proved bound means a solver bug
        monkeypatch.setattr(dispwave.blowup, "run_member",
                            lambda *job: SweepRow(0, 1.0, ratio=0.5, censored=False))
        members = sweep_members({"kind": "gaussian", "amplitude": [0.1], "width": 2.0},
                                grid=(20.0, 256), t_end=1.0)
        with pytest.warns(RuntimeWarning, match="member 0: observed breaking time ratio "
                                                "0.5000 undercuts the proved bound"):
            rows = sharpness_experiment(members, workers=1)
        assert [(r.ratio, r.censored) for r in rows] == [(0.5, False)]

    def test_error_row_is_the_default_row(self, tmp_path):
        # a member that raised is SweepRow(i, alpha): every field after alpha at its default
        path = tmp_path / "comparison.csv"
        write_comparison_csv([SweepRow(1, 0.5)], path)
        assert path.read_text().splitlines() == [
            "family_id,alpha,E0,m0,gamma_case,K,T_lower,t_star,t_star_spread,ratio,censored,"
            "outcome,tail_max",
            "1,0.5,nan,nan,error,nan,nan,nan,nan,nan,true,error,nan"]

    def test_comparison_csv_layout(self, small_family_rows, tmp_path):
        path = tmp_path / "comparison.csv"
        write_comparison_csv(small_family_rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("family_id,alpha,E0,m0,gamma_case,K,T_lower,t_star,t_star_spread,"
                            "ratio,censored,outcome,tail_max")
        assert len(lines) == 3
        assert lines[1].startswith("0,0.34999999999999998,") and ",true,resolved," in lines[1]
        assert lines[2].startswith("1,1,") and ",false,broke," in lines[2]
        write_comparison_csv(small_family_rows, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
