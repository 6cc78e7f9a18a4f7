import numpy as np
import pytest

from dispwave import (
    Field,
    Grid,
    PdeParams,
    SolitonParams,
    SolverConfig,
    TraceRow,
    build_profile,
    dealias,
    differentiate,
    energy,
    gamma_utx_field,
    hs_norm,
    pde_residual,
    rhs_momentum,
    rhs_nonlocal,
    simulate,
    slope_sample,
    steep_bump,
)

from dispwave.pde import SpectralRhs, riccati_rate, slope_argmin, trace_row

from conftest import band_limited_field, band_mask

PARAM_PAIRS = [(0.0, 0.5), (1.0, 0.0), (2.0, 0.3), (3.0, 1.0), (-1.0, 0.7)]


def zero_field(grid):
    return Field(grid, np.zeros(grid.n_points))


def _refined_minimum_sample(field, p):
    """Sub-grid minimum of gamma*u_x and the Riccati rate evaluated there."""
    from dispwave.pde import _convolution_bracket, _squares

    g = field.grid
    n = g.n_points
    ux = field.derivative
    g_ux = p.gamma * ux
    i = int(np.argmin(g_ux))
    ym, y0, yp = g_ux[(i - 1) % n], g_ux[i], g_ux[(i + 1) % n]
    den = ym - 2.0 * y0 + yp
    d = 0.0 if den == 0.0 else 0.5 * (ym - yp) / den
    m = y0 + 0.5 * (yp - ym) * d + 0.5 * den * d * d

    def interp(arr):
        return (arr[(i - 1) % n] * (d * (d - 1) / 2) + arr[i] * (1 - d * d)
                + arr[(i + 1) % n] * (d * (d + 1) / 2))

    conv = _convolution_bracket(field.spectrum, np.fft.rfft(_squares(field)), g, p)
    uval = interp(field.values)
    rate = (-0.5 * m * m + 0.5 * (3.0 - p.gamma) * p.gamma * uval * uval
            + 2.0 * p.omega * p.gamma * uval - interp(conv))
    return m, rate


def _refined_slope_history():
    """Steepening run recorded as (t, refined m, predicted m') triples."""
    g = Grid(6.0, 8192)
    u0 = Field(g, 1.0 / np.cosh(3.0 * g.x) ** 2)
    p = PdeParams(1.0, 0.0)
    cfg = SolverConfig(t_end=2.0, sample_interval=0.01, blowup_m_threshold=11.0,
                       dt_min=1e-10, checkpoint_interval=0.01)
    res = simulate(u0, p, cfg)
    assert res.stop_reason == "blowup_slope"
    ts, ms, rates = [], [], []
    for t, f in res.checkpoints:
        m, rate = _refined_minimum_sample(f, p)
        ts.append(t)
        ms.append(m)
        rates.append(rate)
    return ts, ms, rates


def _six_transform_rhs(u, p):
    """Reference u_t with every product dealiased on its own, u*u_x included."""
    g = u.grid
    n, keep, ik = g.n_points, band_mask(g), g.derivative_multiplier
    u_hat = np.fft.rfft(u.values)
    ux = np.fft.irfft(u_hat * ik, n=n)
    bracket_hat = 0.5 * (3.0 - p.gamma) * keep * np.fft.rfft(u.values * u.values)
    bracket_hat += 0.5 * p.gamma * keep * np.fft.rfft(ux * ux)
    bracket_hat += 2.0 * p.omega * u_hat
    ut_hat = -p.gamma * keep * np.fft.rfft(u.values * ux)
    ut_hat -= ik * g.helmholtz_multiplier * bracket_hat
    return np.fft.irfft(ut_hat, n=n)


class TestRhsNonlocal:
    @pytest.mark.parametrize("gamma,omega", PARAM_PAIRS)
    def test_folded_product_matches_six_transform_formula(self, grid_medium, gamma, omega):
        # on band-limited data u*u_x = (u^2)_x/2 holds exactly, mode by mode
        p = PdeParams(gamma, omega)
        g = Grid(6.0, 16384)
        steep = steep_bump(g, 1.0, 3.0)
        projected = Field(g, np.fft.irfft(band_mask(g) * steep.spectrum, n=g.n_points))
        fields = [band_limited_field(grid_medium, seed=seed) for seed in range(4)]
        for u in fields + [projected]:
            ref = _six_transform_rhs(u, p)
            got = rhs_nonlocal(u, p).values
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_is_fixed_point(self, grid_small):
        p = PdeParams(1.3, 0.4)
        assert np.all(rhs_nonlocal(zero_field(grid_small), p).values == 0.0)

    def test_against_direct_convolution_oracle(self):
        # gamma = omega = 0 reduces the dynamics to u_t = -d/dx p*(3/2 u^2);
        # re-evaluate that with direct quadrature of the periodic Green's
        # function (kernel split at its kinks), fully independent of the FFT.
        # scipy is a test-only dependency: without it this cross-check skips
        quad = pytest.importorskip("scipy.integrate").quad
        g = Grid(20.0, 512)
        u = Field(g, 1.0 / np.cosh(g.x) ** 4)  # sech(x)^2 squared inside p*
        computed = rhs_nonlocal(Field(g, 1.0 / np.cosh(g.x) ** 2), PdeParams(0.0, 0.0))

        L = g.half_width
        norm = 1.0 / (2.0 * np.sinh(L))

        def kernel_derivative(z):
            z = (z + L) % (2.0 * L) - L
            return -np.sign(z) * np.sinh(L - abs(z)) * norm

        def integrand(y, x):
            return kernel_derivative(x - y) * 1.5 / np.cosh(y) ** 4

        idx = range(0, g.n_points, 4)
        worst = 0.0
        for i in idx:
            x = g.x[i]
            cuts = sorted({-L, L, x, x - L if x > 0 else x + L})
            total = 0.0
            for a, b in zip(cuts[:-1], cuts[1:]):
                if b > a:
                    val, _ = quad(integrand, a, b, args=(x,), epsabs=1e-13,
                                  epsrel=1e-12, limit=200)
                    total += val
            worst = max(worst, abs(-total - computed.values[i]))
        assert worst <= 1e-10

    def test_traveling_wave_ansatz(self):
        p = SolitonParams(2.0, PdeParams(1.0, 0.5))
        g = Grid(30.0, 1024)
        profile = build_profile(p, g)
        u = profile.as_field()
        expected = -p.speed * differentiate(u, 1).values
        got = rhs_nonlocal(u, p.params).values
        assert np.max(np.abs(got - expected)) <= 1e-5

    def test_quadratic_plus_linear_scaling(self, grid_medium):
        u = band_limited_field(grid_medium, seed=5)
        # omega = 0: purely quadratic, rhs(alpha*u) = alpha^2 * rhs(u)
        p0 = PdeParams(1.5, 0.0)
        r1 = rhs_nonlocal(u, p0).values
        r2 = rhs_nonlocal(Field(grid_medium, 2.0 * u.values), p0).values
        assert np.max(np.abs(r2 - 4.0 * r1)) <= 1e-10
        # omega > 0: solve for the quadratic and linear parts from two
        # amplitudes, then predict a third
        p = PdeParams(1.5, 0.8)
        ra = rhs_nonlocal(u, p).values
        rb = rhs_nonlocal(Field(grid_medium, 2.0 * u.values), p).values
        quad_part = (rb - 2.0 * ra) / 2.0
        lin_part = ra - quad_part
        rc = rhs_nonlocal(Field(grid_medium, 3.0 * u.values), p).values
        assert np.max(np.abs(rc - (9.0 * quad_part + 3.0 * lin_part))) <= 1e-9


def _single_row_rhs(u_hat, grid, p):
    """SpectralRhs's arithmetic, in its order, with one FFT call per transform."""
    n, keep, ik = grid.n_points, band_mask(grid), grid.derivative_multiplier
    ikh = ik * grid.helmholtz_multiplier
    mult_uu = -(0.5 * p.gamma * ik + 0.5 * (3.0 - p.gamma) * ikh) * keep
    mult_xx = -(0.5 * p.gamma * ikh) * keep
    mult_u = -2.0 * p.omega * ikh
    u = np.fft.irfft(u_hat, n=n)
    ux = np.fft.irfft(u_hat * ik, n=n)
    ut_hat = np.fft.rfft(u * u) * mult_uu
    ut_hat += np.fft.rfft(ux * ux) * mult_xx
    ut_hat += u_hat * mult_u
    return u, ux, ut_hat


class TestSpectralRhs:
    @pytest.mark.parametrize("gamma,omega", PARAM_PAIRS)
    def test_rhs_nonlocal_bit_identical_to_single_rows(self, gamma, omega):
        # rhs_nonlocal applies the kernel's multipliers to every mode of u, which
        # is not projected: u and u_x come from its full spectrum and C*u_hat
        # acts above the band too
        p = PdeParams(gamma, omega)
        g = Grid(6.0, 1024)
        fields = [steep_bump(g, 1.0, 3.0), Field(g, np.exp(-(g.x / 0.3) ** 2))]
        for u in fields:
            u_hat = np.fft.rfft(u.values)
            assert np.any(u_hat[g.band:])
            ref = np.fft.irfft(_single_row_rhs(u_hat, g, p)[2], n=g.n_points)
            assert np.array_equal(rhs_nonlocal(u, p).values, ref)

    @pytest.mark.parametrize("n", [48, 64, 1024, 16384, 32768])
    @pytest.mark.parametrize("gamma,omega", PARAM_PAIRS)
    def test_paired_transforms_bit_identical_to_single_rows(self, n, gamma, omega):
        # the kernel runs its transforms as 2-row FFT calls; each row must
        # round exactly as a single-row call does, as in Field.spectrum and
        # slope_sample, or trace rows and artifacts would change
        p = PdeParams(gamma, omega)
        g = Grid(6.0, n)  # 3 divides 48
        fields = [band_limited_field(g, seed=seed, modes=min(24, n // 3 - 1))
                  for seed in range(2)]
        fields.append(steep_bump(g, 1.0, 3.0))
        rhs = SpectralRhs(g, p)
        for f in fields:
            u_hat = band_mask(g) * np.fft.rfft(f.values)
            u, ux, ref = _single_row_rhs(u_hat, g, p)
            got = rhs(u_hat, np.empty(g.band, dtype=complex))
            # the kernel returns the band's modes; the full formula is 0 above them
            assert np.array_equal(got, ref[:g.band]) and not np.any(ref[g.band:])
            # step control reads u and u_x after the RHS has been formed,
            # and trace samples them and their squares' transforms
            assert np.array_equal(rhs.u, u) and np.array_equal(rhs.ux, ux)
            assert np.array_equal(rhs.pair, [np.fft.rfft(u * u), np.fft.rfft(ux * ux)])

    def test_physical_reads_only_the_band(self):
        g = Grid(6.0, 1024)
        u_hat = band_mask(g) * np.fft.rfft(steep_bump(g, 1.0, 3.0).values)
        rhs = SpectralRhs(g, PdeParams(1.0, 0.5))
        out = np.empty(g.band, dtype=complex)
        rhs(u_hat, out)
        u, ux = rhs.u.copy(), rhs.ux.copy()
        # unit modes above the band
        rhs(u_hat + ~band_mask(g), out)
        assert np.array_equal(rhs.u, u) and np.array_equal(rhs.ux, ux)
        rhs(u_hat, out)
        assert np.array_equal(rhs.u, u) and np.array_equal(rhs.ux, ux)

    def test_fft_counts_exact_from_the_first_call(self, transform_count):
        # one 2-row irfft and one 2-row rfft per right-hand side, the first included
        g = Grid(6.0, 64)
        u_hat = np.fft.rfft(steep_bump(g, 1.0, 3.0).values)[:g.band]
        rhs = SpectralRhs(g, PdeParams(1.0, 0.5))
        counts = []
        for _ in range(20):
            before = dict(transform_count)
            rhs(u_hat, np.empty(g.band, dtype=complex))
            counts.append((transform_count["calls"] - before["calls"],
                           transform_count["transforms"] - before["transforms"]))
        assert counts == [(2, 4)] * 20


class TestFormulationEquivalence:
    @pytest.mark.parametrize("gamma,omega", PARAM_PAIRS)
    def test_momentum_matches_nonlocal(self, grid_medium, gamma, omega):
        p = PdeParams(gamma, omega)
        for seed in range(4):
            u = band_limited_field(grid_medium, seed=seed)
            a = rhs_nonlocal(u, p).values
            b = rhs_momentum(u, p).values
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_small_gaussian_camassa_holm_limit(self, grid_medium):
        x = grid_medium.x
        u = Field(grid_medium, 1e-2 * np.exp(-(x / 2.0) ** 2))
        p = PdeParams(1.0, 0.0)
        diff = rhs_nonlocal(u, p).values - rhs_momentum(u, p).values
        assert np.max(np.abs(diff)) <= 1e-9

    def test_zero_field(self, grid_small):
        p = PdeParams(2.0, 0.1)
        assert np.all(rhs_momentum(zero_field(grid_small), p).values == 0.0)


class TestPdeResidual:
    def test_zero(self, grid_small):
        z = zero_field(grid_small)
        assert pde_residual(z, z, PdeParams(1.0, 0.5)) == 0.0

    @pytest.mark.parametrize("gamma,omega", [(1.0, 0.5), (2.0, 0.0), (-1.0, 0.3)])
    def test_rhs_closes_the_equation(self, grid_medium, gamma, omega):
        p = PdeParams(gamma, omega)
        u = band_limited_field(grid_medium, seed=8)
        assert pde_residual(u, rhs_nonlocal(u, p), p) <= 1e-7

    def test_traveling_wave_residual(self):
        p = SolitonParams(2.0, PdeParams(1.0, 0.5))
        g = Grid(30.0, 1024)
        u = build_profile(p, g).as_field()
        u_t = Field(g, -p.speed * differentiate(u, 1).values)
        assert pde_residual(u, u_t, p.params) <= 1e-5

    def test_residual_collapses_under_refinement(self):
        # narrow bump under-resolved at N=64; spectral convergence until the
        # roundoff floor (where k_max^2 amplification takes over)
        p = PdeParams(1.0, 0.5)
        res = {}
        for n in (64, 128, 256):
            g = Grid(20.0, n)
            u = Field(g, 0.5 * np.exp(-((2.0 * g.x) ** 2)))
            res[n] = pde_residual(u, rhs_nonlocal(u, p), p)
        assert res[128] < res[64] / 10.0
        assert res[256] < res[128] / 10.0 or res[256] < 1e-7


class TestEnergy:
    def test_zero(self, grid_small):
        assert energy(zero_field(grid_small)) == 0.0

    def test_single_mode_closed_form(self, grid_small):
        L = grid_small.half_width
        u = Field(grid_small, np.sin(np.pi * grid_small.x / L))
        assert energy(u) == pytest.approx(L * (1.0 + (np.pi / L) ** 2), rel=1e-12)

    def test_gaussian_closed_form(self):
        # int(e^{-2x^2}) = sqrt(pi/2), int(4 x^2 e^{-2x^2}) = sqrt(pi/2)
        g = Grid(20.0, 512)
        u = Field(g, np.exp(-g.x**2))
        assert energy(u) == pytest.approx(np.sqrt(2.0 * np.pi), abs=1e-10)

    def test_positive_definite(self, grid_small):
        for seed in range(3):
            u = band_limited_field(grid_small, seed=seed, amplitude=1e-3)
            assert energy(u) > 0.0

    def test_consistent_with_h1_norm(self, grid_small):
        u = band_limited_field(grid_small, seed=9)
        assert energy(u) == pytest.approx(hs_norm(u, 1.0) ** 2, rel=1e-12)


class TestSlopeSample:
    def test_zero_field(self, grid_small):
        s = slope_sample(zero_field(grid_small), PdeParams(1.0, 0.2), t=0.3)
        assert s.m == 0.0 and s.m_rhs == 0.0 and s.t == 0.3 and s.tail == 0.0

    def test_tail_reads_the_top_tenth_of_the_band(self, grid_small):
        # band = 86 at N = 256, so the tail is the largest |u_hat_j| for j >= 78
        # (modes from 86 up are outside the band) over the largest one
        g = grid_small
        k = np.pi / g.half_width
        for j, expected in ((78, 0.5), (85, 0.5), (77, 0.0), (86, 0.0), (100, 0.0)):
            u = Field(g, np.cos(k * g.x) + 0.5 * np.cos(j * k * g.x))
            assert slope_sample(u, PdeParams(1.0, 0.0)).tail == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n", [16, 20, 26])
    def test_tail_keeps_the_last_mode_of_a_band_under_ten(self, n):
        # band = 6, 7 and 9: the top tenth of the band rounds to no mode, so
        # the tail reads the band's last mode alone
        g = Grid(6.0, n)
        k = np.pi / g.half_width
        for j, expected in ((g.band - 1, 0.5), (g.band - 2, 0.0)):
            u = Field(g, np.cos(k * g.x) + 0.5 * np.cos(j * k * g.x))
            assert slope_sample(u, PdeParams(1.0, 0.0)).tail == pytest.approx(expected, abs=1e-13)

    def test_gamma_zero_convention(self, grid_small):
        u = band_limited_field(grid_small, seed=10)
        s = slope_sample(u, PdeParams(0.0, 0.5))
        assert s.m == 0.0 and s.m_rhs == 0.0 and s.xi == grid_small.x[0]

    def test_sine_minimum_location(self):
        g = Grid(8.0 * np.pi, 256)
        u = Field(g, np.sin(g.x))
        s = slope_sample(u, PdeParams(1.0, 0.0))
        assert s.m == pytest.approx(-1.0, abs=1e-12)
        assert np.cos(s.xi) == pytest.approx(-1.0, abs=1e-12)

    def test_discrete_minimality(self, grid_small):
        u = band_limited_field(grid_small, seed=11)
        p = PdeParams(-0.7, 0.1)
        s = slope_sample(u, p)
        assert np.all(p.gamma * u.derivative >= s.m - 1e-15)

    def test_is_the_solvers_trace_row(self, grid_small):
        # the oracle builds its row with the solver's row builder, so the
        # fields no transform enters equal the Field functions exactly, and
        # the solver hands out its one list of rows under both names
        u = band_limited_field(grid_small, seed=12)
        p = PdeParams(1.0, 0.5)
        s = slope_sample(u, p, t=0.25)
        assert isinstance(s, TraceRow) and s.t == 0.25 and s.dt == 0.0
        assert s.energy == energy(u)
        assert s.max_u == np.max(np.abs(u.values))
        assert s.min_ux == np.min(u.derivative)
        assert s.boundary == max(abs(u.values[0]), abs(u.values[-1]))
        res = simulate(u, p, SolverConfig(t_end=0.01, decay_tolerance=1.0))
        assert res.slope_trace is res.samples

    def test_riccati_rate_along_trajectory(self):
        # centered dm/dt must track the predicted rate along a steepening
        # trajectory while |m| <= 10; the discrete argmin straddles grid
        # points, so the minimum is parabolically refined before differencing
        ts, ms, rates = _refined_slope_history()
        checked = 0
        for k in range(1, len(ts) - 1):
            if not 1.0 < abs(ms[k]) <= 10.0:
                continue
            fd = (ms[k + 1] - ms[k - 1]) / (ts[k + 1] - ts[k - 1])
            assert fd == pytest.approx(rates[k], rel=0.05)
            checked += 1
        assert checked >= 40


class TestSolverSamples:
    @pytest.mark.parametrize("gamma,omega", PARAM_PAIRS)
    def test_initial_row_matches_field_oracles(self, grid_medium, gamma, omega):
        # simulate records its rows from the kernel's u and u_x; the Field
        # functions differentiate the same state through its own spectrum,
        # so the rows agree with them to rounding (rtol 1e-12 of each
        # quantity's scale) and exactly where no derivative enters
        rtol = 1e-12
        p = PdeParams(gamma, omega)
        steep = steep_bump(Grid(6.0, 16384), 1.0, 3.0)
        fields = [band_limited_field(grid_medium, seed=seed) for seed in range(4)] + [steep]
        for f in fields:
            g = f.grid
            u0 = Field(g, np.fft.irfft(dealias(f.spectrum, g), n=g.n_points))
            cfg = SolverConfig(t_end=1e-4, sample_interval=1.0, decay_tolerance=1.0)
            row = simulate(u0, p, cfg).samples[0]
            state = Field(g, np.fft.irfft(dealias(u0.spectrum, g), n=g.n_points))
            s = slope_sample(state, p)
            ux_scale = np.max(np.abs(state.derivative))
            assert row.t == 0.0 and row.max_u == np.max(np.abs(state.values))
            assert row.xi == s.xi
            assert abs(row.energy - energy(state)) <= rtol * energy(state)
            assert abs(row.m - s.m) <= rtol * abs(gamma) * ux_scale
            assert abs(row.m_rhs - s.m_rhs) <= rtol * (s.m * s.m + abs(s.m_rhs))
            assert abs(row.min_ux - np.min(state.derivative)) <= rtol * ux_scale
            assert abs(row.tail - s.tail) <= rtol

    @pytest.mark.parametrize("gamma,omega", PARAM_PAIRS)
    def test_every_row_reuses_the_first_stage_exactly(self, grid_medium, gamma, omega,
                                                      monkeypatch):
        # a row takes E from the k1 stage's u and u_x and the Riccati bracket
        # from their squares' transforms; recomputed from the same state's
        # Fields of u and u_x, both agree bit for bit on every row
        states = []
        call = SpectralRhs.__call__

        def record(rhs, u_hat, out):  # a state: `step` transforms its stages itself
            states.append(u_hat.copy())
            return call(rhs, u_hat, out)
        monkeypatch.setattr(SpectralRhs, "__call__", record)
        g, p = grid_medium, PdeParams(gamma, omega)
        dt = 2.0**-8  # under the CFL and Riccati caps, so every step lands on a sample
        cfg = SolverConfig(t_end=12 * dt, dt_init=dt, sample_interval=dt, decay_tolerance=1.0)
        rows = simulate(band_limited_field(g, seed=3), p, cfg).samples
        assert len(rows) == len(states) == 13
        for row, u_hat in zip(rows, states):
            u, ux = (Field(g, np.fft.irfft(spec, n=g.n_points))
                     for spec in (u_hat, u_hat * g.derivative_multiplier[:g.band]))
            squares = [Field(g, f.values * f.values) for f in (u, ux)]
            i = int(np.flatnonzero(g.x == row.xi)[0])
            assert row.energy == float(g.spacing * np.sum(u.values**2 + ux.values**2))
            assert row.m_rhs == riccati_rate(u_hat, [s.spectrum for s in squares], u.values,
                                             i, row.m, g, p)

    @pytest.mark.parametrize("gamma,omega", PARAM_PAIRS)
    def test_trace_row_writes_none_of_the_kernels_arrays(self, grid_medium, gamma, omega):
        # simulate builds each row from the k1 stage's arrays in place; the
        # row must leave them, and the state, as the kernel left them, and
        # what it takes from the squares, the slope argmin and max|u| must
        # equal those values recomputed from u and u_x bit for bit
        g, p = grid_medium, PdeParams(gamma, omega)
        u_hat = np.fft.rfft(steep_bump(g, 1.0, 3.0).values)[:g.band]
        rhs = SpectralRhs(g, p)
        rhs(u_hat, np.empty(g.band, dtype=complex))
        read = (rhs.u, rhs.ux, rhs.squares, rhs.pair, rhs.stage, u_hat)
        before = [a.copy() for a in read]
        u, ux = before[:2]
        # the slope and max|u| as simulate's step control forms them
        slope = slope_argmin(rhs.ux, gamma)
        max_u = max(float(rhs.u.max()), -float(rhs.u.min()))
        row = trace_row(0.0, 0.01, rhs.u, rhs.ux, rhs.squares, rhs.pair, u_hat, slope, max_u,
                        g, p)
        assert all(np.array_equal(a, b) for a, b in zip(read, before))
        i, m = slope_argmin(ux, gamma)
        assert row.energy == float(g.spacing * np.sum(u * u + ux * ux))
        assert (row.m, row.xi) == (m, g.x[i])
        assert row.max_u == np.max(np.abs(u)) and row.min_ux == ux.min()
        assert row.boundary == max(abs(u[0]), abs(u[-1]))


class TestGammaUtxField:
    def test_zero(self, grid_small):
        out = gamma_utx_field(zero_field(grid_small), PdeParams(1.0, 0.5))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("gamma,omega", [(1.0, 0.5), (2.0, 0.0), (-1.0, 0.8)])
    def test_matches_differentiated_rhs(self, grid_medium, gamma, omega):
        p = PdeParams(gamma, omega)
        u = band_limited_field(grid_medium, seed=12)
        lhs = gamma_utx_field(u, p).values
        rhs = gamma * differentiate(rhs_nonlocal(u, p), 1).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_consistent_with_slope_rate_at_argmin(self, grid_medium):
        # at the argmin the whole-field rate differs from the Riccati rate
        # only by the curvature term gamma^2*u*u_xx, which nearly vanishes
        p = PdeParams(1.0, 0.5)
        u = band_limited_field(grid_medium, seed=13)
        s = slope_sample(u, p)
        i = int(np.where(grid_medium.x == s.xi)[0][0])
        uxx = differentiate(u, 2).values[i]
        correction = p.gamma**2 * u.values[i] * uxx
        field_rate = gamma_utx_field(u, p).values[i]
        assert field_rate == pytest.approx(s.m_rhs - correction, abs=1e-8)

    @pytest.mark.parametrize("gamma,omega", [(1.0, 0.5), (2.0, 0.0), (-1.0, 0.8)])
    def test_eight_transforms_and_the_projected_squares_bits(self, transform_count,
                                                              gamma, omega):
        # the squares' one 2-row rfft serves the bracket and their dealiased values;
        # the formula below projects each square with its own numpy.fft round trip
        from dispwave.pde import _convolution_bracket

        grid, p = Grid(6.0, 1024), PdeParams(gamma, omega)
        u = steep_bump(grid, 1.0, 3.0)
        ux = u.derivative  # caches u.spectrum too
        before = transform_count["transforms"]
        got = gamma_utx_field(u, p).values
        assert transform_count["transforms"] - before == 8

        def project(values):
            spectrum = np.fft.rfft(values)
            return np.fft.irfft(np.where(band_mask(grid), spectrum, 0.0), n=grid.n_points)

        squares = np.stack((u.values * u.values, ux * ux))
        uxx = differentiate(u, 2).values
        conv = _convolution_bracket(u.spectrum, np.fft.rfft(squares), grid, p)
        expected = -0.5 * gamma * gamma * project(squares[1])
        expected -= gamma * gamma * project(u.values * uxx)
        expected += 0.5 * (3.0 - gamma) * gamma * project(squares[0])
        expected += 2.0 * omega * gamma * u.values
        expected -= conv
        assert np.array_equal(got, expected)


class TestPdeParams:
    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            PdeParams(1.0, -0.1)

    def test_rejects_nonfinite_gamma(self):
        with pytest.raises(ValueError):
            PdeParams(np.inf, 0.0)
