import math
import warnings

import numpy as np
import pytest

from dispwave import (
    AdmissibilityError,
    Field,
    Grid,
    PdeParams,
    SolitonParams,
    SolitonProfile,
    SolverConfig,
    build_profile,
    check_admissible,
    differentiate,
    first_integral_residual,
    measure_decay_rate,
    profile_equation_residual,
    recommended_grid,
    verify_traveling,
    write_profile_csv,
)
from dispwave.solitary import shape_error

CANONICAL = SolitonParams(2.0, PdeParams(1.0, 0.5))
BRANCHES = [  # (c, gamma, omega)
    (2.0, -1.0, 0.5),   # negative gamma branch
    (1.5, 0.5, 0.5),    # low gamma
    (1.9, 2.0, 0.5),    # 0.95 of the gamma > 1 speed cap
    (1.0, 0.0, 0.25),   # gamma = 0 member of the family
]


@pytest.fixture(scope="module")
def canonical_profile():
    return build_profile(CANONICAL, Grid(30.0, 1024))


def residual_scale(p: SolitonParams) -> float:
    return p.speed * p.amplitude**2


class TestAdmissibility:
    def test_canonical_is_admissible(self):
        ok, msg = check_admissible(CANONICAL)
        assert ok and "admissible" in msg

    def test_too_slow_for_dispersion(self):
        ok, msg = check_admissible(SolitonParams(1.0, PdeParams(1.0, 1.0)))
        assert not ok
        assert "c > 2*omega violated" in msg

    def test_peakon_limit_excluded(self):
        # omega = 0, gamma = 1: the first inequality fails with equality
        for c in (0.5, 1.0, 3.0):
            ok, msg = check_admissible(SolitonParams(c, PdeParams(1.0, 0.0)))
            assert not ok
            assert "c*(gamma - 1) < 2*omega*gamma violated" in msg

    def test_speed_cap_for_gamma_above_one(self):
        gamma, omega = 2.0, 0.5
        cap = 2.0 * omega * gamma / (gamma - 1.0)
        ok_above, _ = check_admissible(SolitonParams(1.01 * cap, PdeParams(gamma, omega)))
        ok_below, _ = check_admissible(SolitonParams(0.99 * cap, PdeParams(gamma, omega)))
        assert not ok_above and ok_below

    def test_profile_request_at_speed_cap_boundary(self):
        gamma, omega = 2.0, 0.5
        cap = 2.0 * omega * gamma / (gamma - 1.0)
        above = SolitonParams(1.01 * cap, PdeParams(gamma, omega))
        with pytest.raises(AdmissibilityError):
            build_profile(above, Grid(46.0, 1024))
        below = SolitonParams(0.99 * cap, PdeParams(gamma, omega))
        profile = build_profile(below, recommended_grid(below), tail_tol=1e-10)
        assert np.max(profile.values) == pytest.approx(below.amplitude, abs=1e-8)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            SolitonParams(0.0, PdeParams(1.0, 0.5))

    def test_build_refuses_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            build_profile(SolitonParams(1.0, PdeParams(1.0, 1.0)), Grid(30.0, 512))


class TestBuildProfile:
    def test_peak_amplitude(self, canonical_profile):
        assert np.max(canonical_profile.values) == pytest.approx(1.0, abs=1e-9)
        i_peak = int(np.argmax(canonical_profile.values))
        assert canonical_profile.grid.x[i_peak] == 0.0

    def test_even_symmetry(self, canonical_profile):
        phi = canonical_profile.values
        assert np.max(np.abs(phi[1:] - phi[1:][::-1])) <= 1e-10

    def test_bounded_and_monotone(self, canonical_profile):
        phi = canonical_profile.values
        n = canonical_profile.grid.n_points
        assert np.all(phi >= 0.0) and np.all(phi <= 1.0 + 1e-12)
        right = phi[n // 2:]
        assert np.all(np.diff(right) <= 0.0)
        # maximum attained only at the peak
        assert np.sum(phi == np.max(phi)) == 1

    def test_first_integral_residual(self, canonical_profile):
        res = np.max(np.abs(first_integral_residual(canonical_profile)))
        assert res <= 1e-8 * residual_scale(CANONICAL)

    def test_profile_equation_residual(self, canonical_profile):
        assert np.max(np.abs(profile_equation_residual(canonical_profile))) <= 1e-7

    def test_decay_rate_from_tail(self, canonical_profile):
        kappa = measure_decay_rate(canonical_profile)
        assert kappa == pytest.approx(math.sqrt(0.5), rel=0.01)

    def test_peak_curvature(self, canonical_profile):
        # a - phi ~ beta x^2 with beta = a^2 / (4 (c - gamma a))
        g = canonical_profile.grid
        i0 = g.n_points // 2
        window = slice(i0 - 4, i0 + 5)
        coeffs = np.polyfit(g.x[window], 1.0 - canonical_profile.values[window], 2)
        beta_expected = 1.0 / (4.0 * (2.0 - 1.0))
        assert coeffs[0] == pytest.approx(beta_expected, rel=0.02)
        # spectral curvature at the peak is the sharper version of the same fit
        phi_xx = differentiate(canonical_profile.as_field(), 2).values[i0]
        assert -0.5 * phi_xx == pytest.approx(beta_expected, rel=1e-4)

    def test_slope_matches_spectral_derivative(self, canonical_profile):
        spectral = differentiate(canonical_profile.as_field(), 1).values
        assert np.max(np.abs(spectral - canonical_profile.slope)) <= 1e-7

    def test_narrow_grid_rejected_with_estimate(self):
        with pytest.raises(ValueError, match="half_width >="):
            build_profile(CANONICAL, Grid(10.0, 512))

    @pytest.mark.parametrize("c,gamma,omega", BRANCHES)
    def test_profile_laws_across_branches(self, c, gamma, omega):
        p = SolitonParams(c, PdeParams(gamma, omega))
        grid = recommended_grid(p)
        profile = build_profile(p, grid, tail_tol=1e-10)
        a = c - 2.0 * omega
        assert np.max(profile.values) == pytest.approx(a, abs=1e-8)
        assert np.max(np.abs(first_integral_residual(profile))) <= 1e-8 * residual_scale(p)
        assert np.max(np.abs(profile_equation_residual(profile))) <= 1e-7
        assert measure_decay_rate(profile) == pytest.approx(math.sqrt(a / c), rel=0.01)
        spectral = differentiate(profile.as_field(), 1).values
        assert np.max(np.abs(spectral - profile.slope)) <= 1e-7

    @pytest.mark.scipy
    @pytest.mark.parametrize("c,gamma,omega", BRANCHES + [(1.995, 2.0, 0.5)])  # + 0.9975 of the cap
    def test_profile_matches_quadrature_reference(self, c, gamma, omega):
        # theta(x) by root-finding on an adaptive quadrature of dx/dtheta, independent
        # of the closed form; phi = a*sech^2(theta). scipy is a test-only dependency:
        # without it this cross-check skips
        integrate = pytest.importorskip("scipy.integrate")
        brentq = pytest.importorskip("scipy.optimize").brentq
        p = SolitonParams(c, PdeParams(gamma, omega))
        grid = recommended_grid(p)
        profile = build_profile(p, grid, tail_tol=1e-10)
        a = p.amplitude

        def dx_dtheta(t):
            return 2.0 * math.sqrt(c - gamma * a / math.cosh(t) ** 2) / math.sqrt(a)

        def x_of(theta):
            # epsabs = 1e-16 lies below quad's roundoff floor, which it reports with a warning
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                return integrate.quad(dx_dtheta, 0.0, theta, epsabs=1e-16, epsrel=1e-14)[0]

        theta_end = math.acosh(1e7)  # phi = 1e-14*a
        x_end = x_of(theta_end)
        n = grid.n_points
        evenly = np.linspace(n // 2 + 1, n - 1, 11).astype(int)  # x > 0
        points = [n // 2 + k for k in (1, 2, 5, 20)] + list(evenly)
        checked = 0
        for i in points:
            x = abs(float(grid.x[i]))
            if x >= x_end:
                continue  # phi_ref < 1e-14*a
            theta = brentq(lambda t: x_of(t) - x, 0.0, theta_end, xtol=1e-15, rtol=8.9e-16)
            assert abs(profile.values[i] - a / math.cosh(theta) ** 2) <= 1e-14 * a, (i, x)
            checked += 1
        assert checked >= 8

    def test_gamma_zero_is_closed_form_sech2(self):
        # at gamma = 0 the wave is a*sech^2(kappa*x/2), the regularized long-wave soliton
        p = SolitonParams(1.0, PdeParams(0.0, 0.25))
        profile = build_profile(p, recommended_grid(p))
        a, kappa = p.amplitude, p.decay_rate
        exact = a / np.cosh(0.5 * kappa * profile.grid.x) ** 2
        assert np.max(np.abs(profile.values - exact)) <= 1e-15 * a


class TestTraveling:
    def test_shape_error_and_speed(self, canonical_profile):
        report = verify_traveling(canonical_profile, t_end=2.0)
        assert report.max_l2_error <= 1e-4
        assert report.measured_speed == pytest.approx(2.0, rel=1e-3)

    def test_shape_error_is_one_transform(self, canonical_profile, transform_count):
        # u0's spectrum cached, the translate is one irfft through solitary's binding
        u0 = canonical_profile.as_field()
        u0.spectrum
        before = transform_count["transforms"]
        assert shape_error(u0, 2.0, u0, 0.0) <= 1e-12  # the Nyquist mode is dropped
        assert transform_count["transforms"] - before == 1

    def test_degenerate_profile_rejected(self, canonical_profile):
        degenerate = SolitonProfile(
            params=canonical_profile.params,
            grid=canonical_profile.grid,
            values=np.zeros(canonical_profile.grid.n_points),
            slope=np.zeros(canonical_profile.grid.n_points),
        )
        with pytest.raises(ValueError, match="nontrivial"):
            verify_traveling(degenerate, t_end=1.0)

    def test_breaking_during_verification_is_loud(self, canonical_profile):
        # an absurd threshold turns the healthy run into a reported failure
        cfg = SolverConfig(t_end=1.0, sample_interval=0.1,
                           checkpoint_interval=0.1, decay_tolerance=1e-8,
                           blowup_m_threshold=1e-6)
        with pytest.raises(RuntimeError, match="stopped early"):
            verify_traveling(canonical_profile, t_end=1.0, config=cfg)


class TestProfileCsv:
    def test_round_trip(self, canonical_profile, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(canonical_profile, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# c=2 omega=0.5 gamma=1 a=1 kappa=0.70710678")
        assert lines[1] == "x,phi,phi_x"
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        assert rows.shape == (1024, 3)
        assert np.array_equal(rows[:, 0], canonical_profile.grid.x)
        assert np.max(np.abs(rows[:, 1] - canonical_profile.values)) == 0.0


class TestRecommendedGrid:
    def test_tail_is_hidden(self):
        p = SolitonParams(1.98, PdeParams(2.0, 0.5))
        grid = recommended_grid(p)
        assert p.amplitude * math.exp(-p.decay_rate * grid.half_width) < 1e-12

    def test_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            recommended_grid(SolitonParams(3.0, PdeParams(2.0, 0.5)))

    def test_refuses_a_grid_above_the_cap(self):
        # 0.999 of the gamma = 2 speed cap needs 65536 points, twice the cap
        with pytest.raises(ValueError, match="N = 65536"):
            recommended_grid(SolitonParams(1.998, PdeParams(2.0, 0.5)))
        assert recommended_grid(SolitonParams(1.995, PdeParams(2.0, 0.5))).n_points == 32768
