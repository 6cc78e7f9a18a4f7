import dataclasses
import math

import numpy as np
import pytest

from dispwave import (
    BoundaryDecayError,
    Field,
    Grid,
    NonFiniteFieldError,
    PdeParams,
    SolverConfig,
    energy,
    existence_bound,
    gaussian_bump,
    hs_norm,
    rk4_step,
    simulate,
    steep_bump,
)
from dispwave import pde
from dispwave.config import build_initial_field, parse_run_config
from dispwave.pde import SpectralRhs
from dispwave.timestep import CFL_FRACTION, DT_LIMITERS, ENERGY_DRIFT_TOL, _controlled_dt


def zero_field(grid):
    return Field(grid, np.zeros(grid.n_points))


class TestSolverConfig:
    def test_rejects_inverted_dt_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, dt_init=1e-4, dt_min=1e-3)

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
        # an interval at or below the clock's tick 1e-14*max(1, t_end) puts the
        # next event at most two ticks past t, so t_end would be 1e14 steps away
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

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("gamma", [-1.0, 0.5, 2.0, 3.5])
    def test_energy_and_hamiltonian_conserved(self, gamma, omega):
        # H(u) = int(u^3 + gamma*u*u_x^2 + 2*omega*u^2) dx is conserved with E;
        # E holds whatever the omega term's coefficient, H checks it
        g = Grid(30.0, 1024)
        cfg = SolverConfig(t_end=2.0, checkpoint_interval=0.5)
        res = simulate(gaussian_bump(g, 0.2, 2.0), PdeParams(gamma, omega), cfg)
        assert res.stop_reason == "reached_t_end" and len(res.checkpoints) == 5

        def hamiltonian(f):
            u, ux = f.values, f.derivative
            return g.spacing * float(np.sum(u**3 + gamma * u * ux**2 + 2.0 * omega * u**2))
        for invariant in (energy, hamiltonian):
            values = [invariant(f) for _, f in res.checkpoints]
            assert max(abs(v - values[0]) for v in values) <= 1e-6 * abs(values[0])

    @pytest.mark.parametrize("run", [
        {"grid": {"L": 30.0, "N": 1024},  # the README soliton
         "solver": {"t_end": 5.0, "sample_interval": 0.05, "decay_tolerance": 1e-8},
         "initial": {"kind": "soliton", "c": 2.0}},
        {"grid": {"L": 20.0, "N": 256},  # CI's checkpointed Gaussian
         "solver": {"t_end": 12.0, "sample_interval": 0.05, "checkpoint_interval": 0.5},
         "initial": {"kind": "gaussian", "amplitude": 0.2, "width": 2.0}},
    ])
    def test_hamiltonian_drift_guards_the_omega_row(self, run, monkeypatch, tmp_path):
        rc = parse_run_config({"params": {"gamma": 1.0, "omega": 0.5}, **run}, tmp_path)
        u0 = build_initial_field(rc)
        assert simulate(u0, rc.params, rc.solver).hamiltonian_drift <= 1e-9

        # a 10% error in the omega term: E is still conserved, H is not
        multipliers = pde._rhs_multipliers

        def wrong_omega_row(grid, params):
            mults = multipliers(grid, params)
            mults[2] *= 1.1
            return mults
        monkeypatch.setattr(pde, "_rhs_multipliers", wrong_omega_row)
        res = simulate(u0, rc.params, rc.solver)
        assert res.energy_drift <= 1e-9 and res.hamiltonian_drift >= 1e-5

    def test_uniform_boundedness_constant(self):
        # periodic embedding bound: max u^2 <= E(0) * (1/2 + 1/(2 tanh L))
        g = Grid(30.0, 1024)
        u0 = gaussian_bump(g, 0.1, 2.0)
        cfg = SolverConfig(t_end=5.0, sample_interval=0.25)
        res = simulate(u0, PdeParams(1.0, 0.5), cfg)
        e0 = res.samples[0].energy
        bound = e0 * (0.5 + 0.5 / math.tanh(g.half_width))
        assert all(r.max_u**2 <= bound * (1.0 + 1e-10) for r in res.samples)

    @pytest.mark.parametrize("half_width, n, amplitude, decay_tolerance, t_end, warned_at", [
        (30.0, 1024, 0.1, 1e-10, 10.0, None),
        # the error-row sweeps' data: on this short box the edge |u| is over 1e-6*max|u|
        # from t = 0, which is why those runs read underresolved from their first sample
        (6.0, 256, 1.0, 1e-3, 1.0, 0.0),
        (6.0, 256, 2.0, 1e-3, 1.0, 0.0),
    ])
    def test_boundary_contamination_warning(self, half_width, n, amplitude, decay_tolerance,
                                            t_end, warned_at):
        # one warning, built after the run from the first row over the threshold
        g = Grid(half_width, n)
        u0 = gaussian_bump(g, amplitude, 2.0)
        cfg = SolverConfig(t_end=t_end, sample_interval=0.5, decay_tolerance=decay_tolerance)
        res = simulate(u0, PdeParams(1.0, 0.5), cfg)
        over = [r for r in res.samples if r.boundary > 1e-6 * r.max_u]
        assert [w for w in res.warnings if "boundary" in w] == [
            f"boundary contamination at t = {over[0].t:g}: |u| = {over[0].boundary:g} at |x| = L"]
        if warned_at is not None:
            assert over[0].t == warned_at
        assert res.boundary_max == max(r.boundary for r in res.samples) >= over[0].boundary

    def test_boundary_is_the_checkpoints_edge_value(self):
        # rows and checkpoints both read the kernel's u, so with a checkpoint at
        # every sample each row's boundary is its checkpoint's edge value bit for bit
        g = Grid(20.0, 256)
        cfg = SolverConfig(t_end=2.0, sample_interval=0.05, checkpoint_interval=0.05)
        res = simulate(gaussian_bump(g, 0.2, 2.0), PdeParams(1.0, 0.5), cfg)
        assert [r.t for r in res.samples] == [t for t, _ in res.checkpoints]
        for row, (_, f) in zip(res.samples, res.checkpoints):
            assert row.boundary == max(abs(float(f.values[0])), abs(float(f.values[-1])))

    def test_energy_drift_warning_when_over_tolerance(self):
        # acceptance-7 data at N = 1024 lose their front to the grid and reach t_end
        # unbroken, with E drifting past the fixed warning level
        u0 = steep_bump(Grid(6.0, 1024), 1.0, 3.0)
        cfg = SolverConfig(t_end=2.0, sample_interval=0.004, blowup_m_threshold=11.0,
                           dt_min=1e-10)
        res = simulate(u0, PdeParams(1.0, 0.0), cfg)
        assert res.stop_reason == "reached_t_end" and res.energy_drift > ENERGY_DRIFT_TOL
        assert res.warnings[-1] == f"energy drift {res.energy_drift:g} exceeds tolerance 1e-05"
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.stop_reason = "blowup_slope"  # the warnings are derived from the result

    def test_checkpoints_recorded_at_interval(self, grid_small):
        u0 = gaussian_bump(grid_small, 0.2, 2.0)
        cfg = SolverConfig(t_end=1.0, sample_interval=0.5, checkpoint_interval=0.25)
        res = simulate(u0, PdeParams(0.5, 0.2), cfg)
        times = [t for t, _ in res.checkpoints]
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("checkpoint_interval", [0.5, 0.3])
    def test_event_times_are_exact_multiples(self, grid_small, checkpoint_interval):
        # t_end is past 10.5, where a running sum of 0.05 strays more than 1e-14
        # from k*0.05, and some 0.01 ceiling steps end within a tick of an event:
        # each event is landed on at k*interval, with no sliver step after it
        u0 = gaussian_bump(grid_small, 0.2, 2.0)
        cfg = SolverConfig(t_end=12.0, sample_interval=0.05,
                           checkpoint_interval=checkpoint_interval)
        res = simulate(u0, PdeParams(0.5, 0.2), cfg)
        times = [t for t, _ in res.checkpoints]
        count = round(12.0 / checkpoint_interval) + 1
        assert times == [j * checkpoint_interval for j in range(count)]
        assert len(res.samples) == 241
        for k, row in enumerate(res.samples[:-1]):
            # a time both clocks share is the smaller product, here j*0.3 one ulp below k*0.05
            assert row.t == k * 0.05 or (row.t in times and abs(row.t - k * 0.05) <= cfg.tick)
        assert min(r.dt for r in res.samples) >= 1e-9 * cfg.dt_init

    def test_dt_underflow_verdict(self, grid_small):
        # the CFL step 0.3*h/max|u| = 0.094 is below dt_min from the start
        u0 = gaussian_bump(grid_small, 0.5, 2.0)
        cfg = SolverConfig(t_end=1.0, dt_init=1.0, dt_min=0.2, sample_interval=0.5)
        assert CFL_FRACTION * grid_small.spacing / 0.5 < cfg.dt_min
        res = simulate(u0, PdeParams(1.0, 0.0), cfg)
        assert res.stop_reason == "dt_underflow" and res.t_stop == 0.0

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
    def test_overflow_keeps_last_finite_state(self, grid_small, transform_count):
        # u^2 overflows in the first step, so the last finite state is the
        # initial data's band projection and the run never records past t = 0
        u0 = gaussian_bump(grid_small, 1e160, 1.0)
        cfg = SolverConfig(t_end=1.0, dt_min=1e-300, sample_interval=0.5,
                           blowup_m_threshold=1e300)
        before = transform_count["transforms"]
        res = simulate(u0, PdeParams(1.0, 0.0), cfg)
        assert res.stop_reason == "blowup_nonfinite" and res.t_stop > 0.0
        assert [r.t for r in res.samples] == [0.0]
        # the overflowing step made its 4 evaluations too; besides them, u0's projection,
        # the row's Riccati bracket and the last finite state's grid values
        assert res.steps == 1
        assert transform_count["transforms"] - before == 4 * res.rhs_evaluations + 3
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
        # rhs_evaluations is the k1 stage of u0, then the 3 stages of each step and
        # the k1 of its result; 4 transforms per evaluation, the projection of u0,
        # and the Riccati bracket of each row
        rows = len(res.samples) if gamma != 0.0 else 0
        assert transform_count["transforms"] - before == 4 * res.rhs_evaluations + 1 + rows


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

    def test_every_step_is_cfl_limited_or_lands(self, breaking_run):
        # at N = 16384 the CFL bound (about 2.2e-4) sits far below the 0.01
        # ceiling and the Riccati cap 0.5/|m| >= 0.5/20
        _, _, res = breaking_run
        limiters = res.dt_limiters
        assert tuple(limiters) == DT_LIMITERS
        assert sum(limiters.values()) == res.steps
        assert limiters["ceiling"] == limiters["riccati"] == 0
        assert limiters["cfl"] > 0 and limiters["landing"] > 0

    def test_gamma_zero_twin_is_global(self, gamma_zero_twin):
        res = gamma_zero_twin
        assert res.stop_reason == "reached_t_end"
        m0 = res.samples[0].min_ux
        assert all(r.min_ux >= 3.0 * m0 for r in res.samples)
        assert all(r.m == 0.0 for r in res.samples)


def test_dt_limiter_is_the_smallest_bound():
    g, p = Grid(6.0, 256), PdeParams(1.0, 0.0)
    cfg = SolverConfig(t_end=1.0, dt_init=0.01)
    cfl_at = 0.3 * g.spacing  # the CFL bound at max|u| = 1
    assert _controlled_dt(cfg, g, p, 1.0, 0.0) == (0.01, "ceiling")
    assert _controlled_dt(cfg, g, p, 10.0, -1.0) == (cfl_at / 10.0, "cfl")
    assert _controlled_dt(cfg, g, p, 1.0, -100.0) == (0.005, "riccati")
    # a tie goes to the first bound in DT_LIMITERS' order
    tied = SolverConfig(t_end=1.0, dt_init=cfl_at)
    assert _controlled_dt(tied, g, p, 1.0, -0.5 / cfl_at) == (cfl_at, "ceiling")


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


class IncomparableRunsError(RuntimeError):
    """A dependence probe is undefined because one of the runs blew up."""


def continuous_dependence_probe(u0: Field, delta: float, params: PdeParams,
                                config: SolverConfig) -> float:
    """H1 distance at t_end between runs from u0 and u0 + delta * bump.

    The perturbation is a fixed unit Gaussian bump at the origin. Raises
    IncomparableRunsError when either run fails to reach t_end.
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    base = simulate(u0, params, config)
    # delta = 0 is not short-circuited: identical runs must measure exactly 0
    bump = np.exp(-u0.grid.x**2)
    perturbed = simulate(Field(u0.grid, u0.values + delta * bump), params, config)
    for tag, run in (("base", base), ("perturbed", perturbed)):
        if run.stop_reason != "reached_t_end":
            raise IncomparableRunsError(
                f"{tag} run stopped early ({run.stop_reason} at t = {run.t_stop:g}); "
                "distance at t_end is undefined"
            )
    diff = Field(u0.grid, perturbed.final_state.values - base.final_state.values)
    return hs_norm(diff, 1.0)


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
