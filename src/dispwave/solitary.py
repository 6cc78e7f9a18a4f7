"""Smooth solitary waves: construction by quadrature, validation, propagation.

A traveling wave u(t, x) = phi(x - ct) reduces the model to an ODE with the
first integral

    (phi')^2 (c - gamma*phi) = phi^2 (c - 2*omega - phi),

so the profile descends from its peak amplitude a = c - 2*omega to an
exponential tail with rate kappa = sqrt(a/c). Smooth profiles exist exactly
when

    c*(gamma - 1) < 2*omega*gamma   and   c > 2*omega,

which keeps c - gamma*phi positive along the whole descent. (At omega = 0,
gamma = 1 the first condition fails: that is the peaked limit, out of scope
here.)

The quadrature inverts x(phi) = integral of sqrt((c - gamma*psi)/(a - psi))/psi.
Two substitutions keep it regular: a - phi = sigma^2 removes the square-root
singularity at the peak, and the tail is integrated in log(phi) where the
integrand tends to the constant 1/kappa. Both pieces are accumulated with
composite Gauss-Legendre panels and inverted onto the grid with cubic
Hermite interpolation whose slopes come from the exact ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .fileio import fmt, write_csv
from .pde import PdeParams
from .spectral import Field, Grid, irfft
from .timestep import SimulationResult, SolverConfig, simulate

_TAIL_FLOOR_FRACTION = 1e-14  # below this fraction of the peak the profile is exact zero


class AdmissibilityError(ValueError):
    """Requested wave speed violates the solitary-wave existence conditions."""


@dataclass(frozen=True)
class SolitonParams:
    """Traveling-wave speed c together with the model constants."""

    speed: float
    params: PdeParams

    def __post_init__(self) -> None:
        if not (np.isfinite(self.speed) and self.speed > 0):
            raise ValueError(f"speed must be positive and finite, got {self.speed}")

    @property
    def amplitude(self) -> float:
        """Peak height a = c - 2*omega (positive iff c > 2*omega)."""
        return self.speed - 2.0 * self.params.omega

    @property
    def decay_rate(self) -> float:
        """Tail rate kappa = sqrt(a/c) of the exponential decay."""
        return math.sqrt(self.amplitude / self.speed)


def check_admissible(p: SolitonParams) -> tuple[bool, str]:
    """Evaluate both existence inequalities; the diagnostic names violations."""
    c, gamma, omega = p.speed, p.params.gamma, p.params.omega
    failures = []
    if not c * (gamma - 1.0) < 2.0 * omega * gamma:
        failures.append(
            f"c*(gamma - 1) < 2*omega*gamma violated "
            f"({c * (gamma - 1.0):g} >= {2.0 * omega * gamma:g})"
        )
    if not c > 2.0 * omega:
        failures.append(f"c > 2*omega violated ({c:g} <= {2.0 * omega:g})")
    if failures:
        return False, "; ".join(failures)
    return True, f"admissible (c={c:g}, gamma={gamma:g}, omega={omega:g})"


@dataclass(frozen=True)
class SolitonProfile:
    """Solitary-wave profile sampled on a grid, peak centered at x = 0."""

    params: SolitonParams
    grid: Grid
    values: np.ndarray
    slope: np.ndarray
    decay_rate: float

    def as_field(self) -> Field:
        return Field(self.grid, self.values)

    @cached_property
    def amplitude(self) -> float:
        return self.params.amplitude


def _cumulative_gauss(fun, t0: float, t1: float, n_panels: int,
                      n_nodes: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of fun from t0 along n_panels Gauss-Legendre panels."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(t0, t1, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = fun(mid[:, None] + half[:, None] * nodes[None, :])
    increments = (vals @ weights) * half
    return edges, np.concatenate(([0.0], np.cumsum(increments)))


def build_profile(p: SolitonParams, grid: Grid, tail_tol: float = 1e-8,
                  n_panels: int = 16384) -> SolitonProfile:
    """Construct phi on the grid by quadrature of the first-integral ODE.

    Rejects inadmissible parameters and grids too narrow for the estimated
    tail a*exp(-kappa*L) to drop below tail_tol.
    """
    ok, diagnostic = check_admissible(p)
    if not ok:
        raise AdmissibilityError(diagnostic)
    c, gamma = p.speed, p.params.gamma
    a = p.amplitude
    kappa = p.decay_rate
    L = grid.half_width
    tail_estimate = a * math.exp(-kappa * L)
    if tail_estimate > tail_tol:
        required = math.log(a / tail_tol) / kappa
        raise ValueError(
            f"grid too narrow for the tail to decay below {tail_tol:g}: "
            f"estimated boundary value {tail_estimate:g}; need half_width >= {required:.1f}"
        )

    # peak piece, a - phi = sigma^2: dx/dsigma = 2*sqrt(c - gamma*phi)/phi
    s_mid = math.sqrt(0.5 * a)  # down to phi = a/2

    def dx_dsigma(s):
        phi = a - s * s
        return 2.0 * np.sqrt(c - gamma * phi) / phi

    sigma_knots, x_peak = _cumulative_gauss(dx_dsigma, 0.0, s_mid, n_panels // 2)
    sigma_of_x = CubicHermiteSpline(x_peak, sigma_knots, 1.0 / dx_dsigma(sigma_knots))

    # tail piece in tau = -log(phi): dx/dtau = sqrt((c - gamma*phi)/(a - phi))
    phi_floor = _TAIL_FLOOR_FRACTION * a

    def dx_dtau(tau):
        phi = np.exp(-tau)
        return np.sqrt((c - gamma * phi) / (a - phi))

    tau_knots, x_tail = _cumulative_gauss(
        dx_dtau, -math.log(0.5 * a), -math.log(phi_floor), n_panels)
    x_tail += x_peak[-1]
    tau_of_x = CubicHermiteSpline(x_tail, tau_knots, 1.0 / dx_dtau(tau_knots))

    xs = np.abs(grid.x)
    phi = np.zeros(grid.n_points)
    peak_region = xs <= x_peak[-1]
    sig = sigma_of_x(xs[peak_region])
    phi[peak_region] = a - sig * sig
    tail_region = (~peak_region) & (xs <= x_tail[-1])
    phi[tail_region] = np.exp(-tau_of_x(xs[tail_region]))

    slope = -np.sign(grid.x) * phi * np.sqrt(
        np.maximum(a - phi, 0.0) / (c - gamma * phi))
    return SolitonProfile(params=p, grid=grid, values=phi, slope=slope, decay_rate=kappa)


def first_integral_residual(profile: SolitonProfile) -> np.ndarray:
    """(phi')^2 (c - gamma*phi) - phi^2 (a - phi) with a spectral phi'.

    The derivative is recomputed by FFT rather than taken from the
    quadrature, so this genuinely cross-checks the construction.
    """
    c, gamma = profile.params.speed, profile.params.params.gamma
    a = profile.amplitude
    phi = profile.values
    phi_x = profile.as_field().derivative
    return phi_x**2 * (c - gamma * phi) - phi**2 * (a - phi)


def profile_equation_residual(profile: SolitonProfile) -> np.ndarray:
    """Residual of the once-integrated traveling-wave balance.

    (2*omega - c)*phi + c*phi'' + 3/2*phi^2 - gamma/2*(phi')^2
    - gamma*phi*phi'', with spectral derivatives.
    """
    c = profile.params.speed
    gamma, omega = profile.params.params.gamma, profile.params.params.omega
    f = profile.as_field()
    phi = profile.values
    phi_x = f.derivative
    phi_xx = irfft(-profile.grid.wavenumbers_half**2 * f.spectrum, n=profile.grid.n_points)
    return ((2.0 * omega - c) * phi + c * phi_xx + 1.5 * phi**2
            - 0.5 * gamma * phi_x**2 - gamma * phi * phi_xx)


def measure_decay_rate(profile: SolitonProfile, window: tuple[float, float] = (1e-7, 1e-3)) -> float:
    """Fit the tail rate from the log-slope of phi on x > 0.

    The window selects samples with phi/a between its bounds, where the
    profile is already asymptotic but far above the cutoff floor.
    """
    a = profile.amplitude
    x = profile.grid.x
    phi = profile.values
    sel = (x > 0) & (phi > window[0] * a) & (phi < window[1] * a)
    if np.count_nonzero(sel) < 8:
        raise ValueError("tail window contains too few grid points to fit a decay rate")
    coeffs = np.polyfit(x[sel], np.log(phi[sel]), 1)
    return float(-coeffs[0])


@dataclass(frozen=True)
class TravelReport:
    """Shape and speed fidelity of a simulated solitary wave."""

    times: np.ndarray
    l2_errors: np.ndarray
    linf_errors: np.ndarray
    measured_speed: float
    requested_speed: float

    @property
    def max_l2_error(self) -> float:
        return float(np.max(self.l2_errors))

    @property
    def max_linf_error(self) -> float:
        return float(np.max(self.linf_errors))


def _shifted(u0: Field, shift: float) -> np.ndarray:
    spec = u0.spectrum.copy()
    spec[-1] = 0.0  # the unpaired Nyquist mode has no well-defined shift
    spec *= np.exp(-1j * u0.grid.wavenumbers_half * shift)
    return irfft(spec, n=u0.grid.n_points)


def shape_error(u0: Field, c: float, state: Field, t: float) -> float:
    """Relative L2 distance between a state at time t and u0 translated by c*t."""
    h = u0.grid.spacing
    norm = math.sqrt(h * float(np.sum(u0.values**2)))
    return math.sqrt(h * float(np.sum((state.values - _shifted(u0, c * t)) ** 2))) / norm


def _peak_position(values: np.ndarray, grid: Grid) -> float:
    """Peak location with quadratic sub-grid interpolation."""
    i = int(np.argmax(values))
    n = grid.n_points
    um, u0, up = values[(i - 1) % n], values[i], values[(i + 1) % n]
    denom = um - 2.0 * u0 + up
    offset = 0.0 if denom == 0.0 else 0.5 * (um - up) / denom
    return float(grid.x[i] + offset * grid.spacing)


def track_speed(checkpoints: list[tuple[float, Field]], grid: Grid) -> float:
    """Linear fit of unwrapped peak positions against time."""
    if len(checkpoints) < 3:
        raise ValueError("need at least 3 checkpoints to fit a speed")
    period = 2.0 * grid.half_width
    times = np.array([t for t, _ in checkpoints])
    raw = np.array([_peak_position(f.values, grid) for _, f in checkpoints])
    unwrapped = raw.copy()
    for i in range(1, len(raw)):
        jump = raw[i] - raw[i - 1]
        jump -= period * round(jump / period)
        unwrapped[i] = unwrapped[i - 1] + jump
    return float(np.polyfit(times, unwrapped, 1)[0])


def verify_traveling(profile: SolitonProfile, t_end: float,
                     config: SolverConfig | None = None) -> TravelReport:
    """Simulate from the profile and compare against its exact translation.

    Admissible solitary waves are global, so any stop before t_end is a
    failure and raises.
    """
    if profile.amplitude <= 0 or np.max(profile.values) <= 0:
        raise ValueError("degenerate profile: nontrivial positive peak required")
    grid = profile.grid
    u0 = profile.as_field()
    if config is None:
        edge = max(abs(float(profile.values[0])), abs(float(profile.values[-1])))
        config = SolverConfig(
            t_end=t_end,
            sample_interval=max(t_end / 50.0, 1e-3),
            checkpoint_interval=t_end / 10.0,
            decay_tolerance=max(1e-10, 4.0 * edge),
        )
    result: SimulationResult = simulate(u0, profile.params.params, config)
    if result.stop_reason != "reached_t_end":
        raise RuntimeError(
            f"solitary-wave run stopped early ({result.stop_reason} at t = {result.t_stop:g}); "
            "admissible profiles must propagate globally"
        )
    if len(result.checkpoints) < 3:
        raise ValueError("config must record at least 3 checkpoints for the shape test")

    c = profile.params.speed
    times, l2_errs, linf_errs = [], [], []
    for t, snap in result.checkpoints:
        times.append(t)
        l2_errs.append(shape_error(u0, c, snap, t))
        linf_errs.append(float(np.max(np.abs(snap.values - _shifted(u0, c * t))))
                         / profile.amplitude)
    speed = track_speed(result.checkpoints, grid)
    return TravelReport(
        times=np.array(times),
        l2_errors=np.array(l2_errs),
        linf_errors=np.array(linf_errs),
        measured_speed=speed,
        requested_speed=c,
    )


def recommended_grid(p: SolitonParams, tail_exponent: float = 32.0,
                     max_points: int = 32768) -> Grid:
    """Pick a box that hides the tail and resolves the peak curvature.

    Near the speed cap the peak narrows like sqrt(c - gamma*a) and its
    spectrum widens accordingly, hence the generous points-per-width.
    """
    ok, diagnostic = check_admissible(p)
    if not ok:
        raise AdmissibilityError(diagnostic)
    c, gamma = p.speed, p.params.gamma
    a, kappa = p.amplitude, p.decay_rate
    half_width = float(math.ceil(max(tail_exponent / kappa, 10.0)))
    peak_width = 2.0 * math.sqrt((c - gamma * a) / a)
    # residuals are judged on absolute tolerances, so taller waves (whose
    # equation terms grow with a) get proportionally denser grids
    h_target = min(peak_width / 32.0, 0.125 / kappa) / max(1.0, a)
    n = 1 << max(8, math.ceil(math.log2(2.0 * half_width / h_target)))
    return Grid(half_width, min(n, max_points))


def write_profile_csv(profile: SolitonProfile, path) -> None:
    """Profile export: x, phi, phi_x rows under a parameter header line."""
    p = profile.params
    preamble = (
        f"# c={fmt(p.speed)} omega={fmt(p.params.omega)} gamma={fmt(p.params.gamma)} "
        f"a={fmt(profile.amplitude)} kappa={fmt(profile.decay_rate)}"
    )
    rows = zip(profile.grid.x, profile.values, profile.slope)
    write_csv(path, ("x", "phi", "phi_x"), rows, preamble=preamble)
