import math

import numpy as np
import pytest

from dispwave import (
    BoundaryDecayError,
    Field,
    Grid,
    IncomparableRunsError,
    NonFiniteFieldError,
    PdeParams,
    SolverConfig,
    continuous_dependence_probe,
    energy,
    existence_bound,
    gaussian_bump,
    rk4_step,
    simulate,
    steep_bump,
)
from dispwave.pde import SpectralRhs


def zero_field(grid):
    return Field(grid, np.zeros(grid.n_points))


class TestSolverConfig:
    def test_rejects_inverted_dt_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, dt_init=1e-4, dt_min=1e-3)

    def test_rejects_bad_cfl(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, cfl_fraction=1.5)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=0.0)

    def test_rejects_infinite_horizon(self):
        # simulate would step towards it forever
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            SolverConfig(t_end=math.inf)

    @pytest.mark.parametrize("t_end,interval", [(0.1, 1e-16), (0.1, 1e-14), (100.0, 1e-12)])
    @pytest.mark.parametrize("name", ["sample_interval", "checkpoint_interval"])
    def test_rejects_intervals_the_event_clock_cannot_resolve(self, name, t_end, interval):
        # the clock lands within 1e-14*max(1, t_end) of an event and adds the
        # interval to reach the next; at or below that it never gets past t
        with pytest.raises(ValueError, match=name):
            SolverConfig(t_end=t_end, **{name: interval})
        SolverConfig(t_end=t_end, **{name: 1.01 * max(1.0, t_end) * 1e-14})


class TestRk4Step:
    def test_zero_fixed_point(self, grid_small):
        p = PdeParams(1.7, 0.4)
        out = rk4_step(zero_field(grid_small), 0.01, p)
        assert np.all(out.values == 0.0)

    def test_rejects_nonpositive_dt(self, grid_small):
        with pytest.raises(ValueError):
            rk4_step(zero_field(grid_small), 0.0, PdeParams(1.0, 0.0))

    def test_linear_dispersion_phase_speed(self):
        # amplitude 1e-6 sine advances at 2*omega/(1 + k^2) to 1e-6 relative
        g = Grid(20.0, 256)
        k0 = 2.0 * np.pi / g.half_width
        amp = 1e-6
        u0 = Field(g, amp * np.sin(k0 * g.x))
        p = PdeParams(1.0, 0.5)
        cfg = SolverConfig(t_end=1.0, dt_init=2e-3, sample_interval=0.5,
                           decay_tolerance=1.0)
        res = simulate(u0, p, cfg)
        speed = 2.0 * p.omega / (1.0 + k0**2)
        expected = amp * np.sin(k0 * (g.x - speed * 1.0))
        assert np.max(np.abs(res.final_state.values - expected)) / amp <= 1e-6

    def test_fourth_order_convergence(self):
        g = Grid(20.0, 256)
        u = gaussian_bump(g, 0.3, 2.0)
        p = PdeParams(1.0, 0.3)

        def advance(dt, n):
            state = u
            for _ in range(n):
                state = rk4_step(state, dt, p)
            return state.values

        horizon = 0.8
        ref = advance(horizon / 64, 64)
        e_coarse = np.max(np.abs(advance(horizon / 8, 8) - ref))
        e_fine = np.max(np.abs(advance(horizon / 16, 16) - ref))
        assert e_coarse / e_fine == pytest.approx(16.0, rel=0.2)

    def test_transform_budget(self, grid_small, transform_count):
        # one rfft into the band, 4 stages of 4 transforms, one irfft out;
        # each stage makes one 2-row irfft and one 2-row rfft
        u = gaussian_bump(grid_small, 0.2, 2.0)
        before = dict(transform_count)
        rk4_step(u, 1e-3, PdeParams(1.0, 0.5))
        assert transform_count["transforms"] - before["transforms"] == 18
        assert transform_count["calls"] - before["calls"] == 10

    @pytest.mark.parametrize("n", [48, 1024])
    def test_stages_never_leak_above_the_band(self, n):
        # each stage is written in place into the kernel's zero-padded 2-row
        # inverse input; its modes from the band up must stay exactly 0, or
        # the 2-row irfft over all N/2 + 1 modes would read them
        g = Grid(6.0, n)  # 3 divides 48
        rhs = SpectralRhs(g, PdeParams(1.0, 0.5))
        u_hat = np.fft.rfft(steep_bump(g, 1.0, 3.0).values)[:g.band]
        out = np.empty_like(u_hat)
        for _ in range(20):
            rhs(u_hat, rhs.k)
            rhs.step(u_hat, 1e-3, out)
            u_hat, out = out, u_hat
            assert not np.any(rhs._padded[:, g.band:])
            assert np.all(np.isfinite(u_hat))

    def test_step_fft_counts_exact_from_the_first_step(self, transform_count):
        # the k1 stage and the 3 stages of `step`: 8 calls, 16 transforms, every step
        g = Grid(6.0, 64)
        rhs = SpectralRhs(g, PdeParams(1.0, 0.5))
        u_hat = np.fft.rfft(steep_bump(g, 1.0, 3.0).values)[:g.band]
        out = np.empty_like(u_hat)
        counts = []
        for _ in range(20):
            before = dict(transform_count)
            rhs(u_hat, rhs.k)
            rhs.step(u_hat, 1e-3, out)
            u_hat, out = out, u_hat
            counts.append((transform_count["calls"] - before["calls"],
                           transform_count["transforms"] - before["transforms"]))
        assert counts == [(8, 16)] * 20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_stage_is_loud(self, grid_small):
        huge = gaussian_bump(grid_small, 1e200, 1.0)
        with pytest.raises(NonFiniteFieldError):
            rk4_step(huge, 1e-3, PdeParams(1.0, 0.0))


class TestSimulate:
    def test_zero_data_runs_to_horizon(self, grid_small):
        cfg = SolverConfig(t_end=1.0, sample_interval=0.25)
        res = simulate(zero_field(grid_small), PdeParams(1.0, 0.5), cfg)
        assert res.stop_reason == "reached_t_end"
        assert res.t_stop == 1.0
        assert all(r.energy == 0.0 and r.m == 0.0 and r.max_u == 0.0 for r in res.samples)
        ts = [r.t for r in res.samples]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        assert ts[0] == 0.0 and ts[-1] == 1.0

    def test_decay_gate_rejects_nonlocalized_data(self, grid_small):
        u0 = Field(grid_small, np.cos(np.pi * grid_small.x / grid_small.half_width))
        cfg = SolverConfig(t_end=1.0)
        with pytest.raises(BoundaryDecayError):
            simulate(u0, PdeParams(1.0, 0.0), cfg)

    def test_energy_conserved_on_smooth_run(self):
        g = Grid(30.0, 1024)
        u0 = gaussian_bump(g, 0.1, 2.0)
        cfg = SolverConfig(t_end=10.0, sample_interval=0.5)
        res = simulate(u0, PdeParams(1.0, 0.5), cfg)
        assert res.stop_reason == "reached_t_end"
        assert res.energy_drift <= 1e-6

    def test_uniform_boundedness_constant(self):
        # periodic embedding bound: max u^2 <= E(0) * (1/2 + 1/(2 tanh L))
        g = Grid(30.0, 1024)
        u0 = gaussian_bump(g, 0.1, 2.0)
        cfg = SolverConfig(t_end=5.0, sample_interval=0.25)
        res = simulate(u0, PdeParams(1.0, 0.5), cfg)
        e0 = res.samples[0].energy
        bound = e0 * (0.5 + 0.5 / math.tanh(g.half_width))
        assert all(r.max_u**2 <= bound * (1.0 + 1e-10) for r in res.samples)

    def test_boundary_contamination_warning(self):
        g = Grid(30.0, 1024)
        u0 = gaussian_bump(g, 0.1, 2.0)
        cfg = SolverConfig(t_end=10.0, sample_interval=0.5)
        res = simulate(u0, PdeParams(1.0, 0.5), cfg)
        assert any("boundary contamination" in w for w in res.warnings)

    def test_energy_drift_warning_when_over_tolerance(self):
        g = Grid(20.0, 512)
        u0 = gaussian_bump(g, 0.3, 2.0)
        cfg = SolverConfig(t_end=1.0, sample_interval=0.25, energy_drift_tol=1e-16)
        res = simulate(u0, PdeParams(1.0, 0.5), cfg)
        assert any("energy drift" in w for w in res.warnings)

    def test_checkpoints_recorded_at_interval(self, grid_small):
        u0 = gaussian_bump(grid_small, 0.2, 2.0)
        cfg = SolverConfig(t_end=1.0, sample_interval=0.5, checkpoint_interval=0.25)
        res = simulate(u0, PdeParams(0.5, 0.2), cfg)
        times = [t for t, _ in res.checkpoints]
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_dt_underflow_verdict(self, grid_small):
        u0 = gaussian_bump(grid_small, 0.5, 2.0)
        cfg = SolverConfig(t_end=1.0, dt_min=1e-4, cfl_fraction=1e-6,
                           sample_interval=0.5)
        res = simulate(u0, PdeParams(1.0, 0.0), cfg)
        assert res.stop_reason == "dt_underflow"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_becomes_nonfinite_verdict(self, grid_small):
        # amplitude large enough that u^2 overflows, small enough at |x| = L;
        # slope threshold parked out of reach so the NaN path is exercised
        u0 = gaussian_bump(grid_small, 1e160, 1.0)
        cfg = SolverConfig(t_end=1.0, dt_min=1e-300, sample_interval=0.5,
                           decay_tolerance=1e-10, blowup_m_threshold=1e300)
        res = simulate(u0, PdeParams(1.0, 0.0), cfg)
        assert res.stop_reason == "blowup_nonfinite"
        assert np.all(np.isfinite(res.final_state.values))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_keeps_last_finite_state(self, grid_small):
        # u^2 overflows in the first step, so the last finite state is the
        # initial data's band projection and the run never records past t = 0
        u0 = gaussian_bump(grid_small, 1e160, 1.0)
        cfg = SolverConfig(t_end=1.0, dt_min=1e-300, sample_interval=0.5,
                           blowup_m_threshold=1e300)
        res = simulate(u0, PdeParams(1.0, 0.0), cfg)
        assert res.stop_reason == "blowup_nonfinite" and res.t_stop > 0.0
        assert [r.t for r in res.samples] == [0.0]
        assert np.max(np.abs(res.final_state.values - u0.values)) <= 1e-12 * 1e160

    def test_transform_budget(self, grid_small, transform_count):
        # dt_init is far below the CFL and Riccati caps, so a run to
        # t_end = steps * dt_init takes exactly that many steps
        u0 = gaussian_bump(grid_small, 0.1, 2.0)
        p = PdeParams(1.0, 0.5)
        dt = 2.0**-10

        def counts(steps, samples_per_run):
            cfg = SolverConfig(t_end=steps * dt, dt_init=dt,
                               sample_interval=steps * dt / samples_per_run)
            before = dict(transform_count)
            res = simulate(u0, p, cfg)
            assert len(res.samples) == samples_per_run + 1
            assert all(r.dt == dt for r in res.samples)
            return np.array([transform_count[key] - before[key]
                             for key in ("transforms", "calls")])

        # 16 transforms per step, in 8 FFT calls
        assert list(counts(8, 1) - counts(4, 1)) == [16 * 4, 8 * 4]
        # a sample reads the k1 stage's u, u_x and their squares' rfft;
        # only the Riccati rate's bracket transforms (1 irfft)
        per_sample = counts(8, 2) - counts(8, 1)
        assert list(per_sample) == [1, 1]
        assert list(counts(8, 4) - counts(8, 2)) == list(2 * per_sample)

    @pytest.mark.parametrize("gamma, threshold, t_end, stop", [
        (1.0, 1e6, 0.3, "reached_t_end"),
        (1.0, 4.0, 1.2, "blowup_slope"),
        (0.0, 1e6, 0.3, "reached_t_end"),
    ])
    def test_reported_counts_account_for_every_transform(self, gamma, threshold, t_end, stop,
                                                         transform_count):
        g = Grid(6.0, 256)
        cfg = SolverConfig(t_end=t_end, sample_interval=0.01, blowup_m_threshold=threshold)
        before = transform_count["transforms"]
        res = simulate(steep_bump(g, 1.0, 3.0), PdeParams(gamma, 0.0), cfg)
        assert res.stop_reason == stop and res.steps > 0
        # the k1 stage of u0, then the 3 stages of each step and the k1 of its result
        assert res.rhs_evaluations == 1 + 4 * res.steps
        # 4 per evaluation, the projection of u0, and the Riccati bracket of each row
        rows = len(res.samples) if gamma != 0.0 else 0
        assert transform_count["transforms"] - before == 4 * res.rhs_evaluations + 1 + rows


@pytest.fixture(scope="module")
def breaking_run():
    # resolution chosen so the slope minimum is faithful down to the
    # threshold and the argmin sawtooth stays below the per-sample collapse
    g = Grid(6.0, 16384)
    u0 = steep_bump(g, 1.0, 3.0)
    p = PdeParams(1.0, 0.0)
    cfg = SolverConfig(t_end=2.0, sample_interval=0.004,
                       blowup_m_threshold=20.0, dt_min=1e-10)
    return u0, p, simulate(u0, p, cfg)


@pytest.fixture(scope="module")
def probe_setup():
    g = Grid(20.0, 512)
    u0 = gaussian_bump(g, 0.1, 1.5)
    p = PdeParams(1.0, 0.5)
    cfg = SolverConfig(t_end=2.0, sample_interval=0.5)
    return u0, p, cfg


class TestBreakingRuns:
    def test_stop_reason_and_threshold(self, breaking_run):
        _, _, res = breaking_run
        assert res.stop_reason == "blowup_slope"
        assert res.samples[-1].m <= -20.0

    def test_final_slope_samples_strictly_decreasing(self, breaking_run):
        _, _, res = breaking_run
        tail = [r.m for r in res.samples[-10:]]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_stop_time_respects_existence_bound(self, breaking_run):
        u0, p, res = breaking_run
        bound = existence_bound(u0, p)
        assert res.t_stop >= 0.98 * bound.t_lower

    def test_gamma_zero_twin_is_global(self):
        # same initial function as the breaking run, gamma switched off
        g = Grid(6.0, 4096)
        u0 = steep_bump(g, 1.0, 3.0)
        cfg = SolverConfig(t_end=50.0, dt_init=0.05, sample_interval=1.0)
        res = simulate(u0, PdeParams(0.0, 0.0), cfg)
        assert res.stop_reason == "reached_t_end"
        m0 = res.samples[0].min_ux
        assert all(r.min_ux >= 3.0 * m0 for r in res.samples)
        assert all(r.m == 0.0 for r in res.samples)


class TestTimeStepRobustness:
    def test_halving_dt_ceiling_does_not_move_smooth_answer(self):
        g = Grid(20.0, 256)
        u0 = gaussian_bump(g, 0.2, 2.0)
        p = PdeParams(1.0, 0.4)
        finals = []
        for dt in (5e-3, 2.5e-3):
            cfg = SolverConfig(t_end=1.0, dt_init=dt, sample_interval=0.5)
            finals.append(simulate(u0, p, cfg).final_state.values)
        l2 = np.sqrt(g.spacing * np.sum((finals[0] - finals[1]) ** 2))
        assert l2 <= 1e-8


class TestContinuousDependence:
    def test_zero_delta_is_deterministic(self, probe_setup):
        u0, p, cfg = probe_setup
        assert continuous_dependence_probe(u0, 0.0, p, cfg) == 0.0

    def test_distances_shrink_with_delta(self, probe_setup):
        u0, p, cfg = probe_setup
        d = [continuous_dependence_probe(u0, eps, p, cfg)
             for eps in (1e-2, 1e-3, 1e-4)]
        assert d[0] > d[1] > d[2] > 0.0

    def test_linear_scaling_within_factor_three(self, probe_setup):
        u0, p, cfg = probe_setup
        d2 = continuous_dependence_probe(u0, 1e-2, p, cfg)
        d3 = continuous_dependence_probe(u0, 1e-3, p, cfg)
        assert 10.0 / 3.0 <= d2 / d3 <= 30.0

    def test_blowup_is_incomparable(self):
        g = Grid(12.0, 2048)
        u0 = steep_bump(g, 1.0, 4.0)
        p = PdeParams(1.0, 0.0)
        cfg = SolverConfig(t_end=2.0, sample_interval=0.01, blowup_m_threshold=10.0)
        with pytest.raises(IncomparableRunsError):
            continuous_dependence_probe(u0, 1e-3, p, cfg)
