"""Smooth solitary waves: construction in closed form, validation, propagation.

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

With phi = a*sech^2(theta) and u = tanh(theta), dx/dtheta = 2*g/sqrt(a),
where g = sqrt(c - gamma*phi) = sqrt(A + b*u^2) with b = gamma*a and
A = c - b > 0, integrates in closed form:

    x(theta) = (2/sqrt(a)) * [sqrt(c)*atanh(sqrt(c)*u/g) - S(u)],

S(u) = sqrt(b)*asinh(u*sqrt(b/A)), or -sqrt(-b)*asin(u*sqrt(-b/A)) for b < 0.
At gamma = 0 it is phi = a*sech^2(kappa*x/2). Newton inverts it on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import fmt, write_csv
from .pde import PdeParams
from .spectral import Field, Grid, differentiate, irfft
from .timestep import SimulationResult, SolverConfig, simulate

_TAIL_FLOOR_FRACTION = 1e-14  # below this fraction of the peak the profile is exact zero
_NEWTON_STEP_TOL = 1e-10  # convergence is quadratic: the error left is far below roundoff
_NEWTON_MAX_STEPS = 100
_DECAY_WINDOW = (1e-7, 1e-3)  # phi/a range of the tail-rate fit
_TAIL_EXPONENT = 32.0  # recommended half-width in units of the tail length 1/kappa
_MAX_POINTS = 32768


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

    def as_field(self) -> Field:
        return Field(self.grid, self.values)


def build_profile(p: SolitonParams, grid: Grid, tail_tol: float = 1e-8) -> SolitonProfile:
    """Construct phi on the grid from the closed form of x(theta), inverted by Newton.

    Rejects inadmissible parameters and grids too narrow for the estimated
    tail a*exp(-kappa*L) to drop below tail_tol.
    """
    ok, diagnostic = check_admissible(p)
    if not ok:
        raise AdmissibilityError(diagnostic)
    c, gamma = p.speed, p.params.gamma
    a, kappa = p.amplitude, p.decay_rate
    tail_estimate = a * math.exp(-kappa * grid.half_width)
    if tail_estimate > tail_tol:
        required = math.log(a / tail_tol) / kappa
        raise ValueError(
            f"grid too narrow for the tail to decay below {tail_tol:g}: "
            f"estimated boundary value {tail_estimate:g}; need half_width >= {required:.1f}"
        )

    b = gamma * a
    A = c - b  # c - gamma*phi at the peak
    sqrt_c = math.sqrt(c)

    def s_term(u):  # S(u), the integral of b/g over u from 0
        if b < 0:
            return -math.sqrt(-b) * np.arcsin(u * math.sqrt(-b / A))
        return math.sqrt(b) * np.arcsinh(u * math.sqrt(b / A))

    def x_and_g(theta):
        u = np.tanh(theta)
        # A + b*u^2 rather than c - b*sech^2: no cancellation near the speed cap
        g = np.sqrt(A + b * u * u)
        # sqrt(c)*atanh(sqrt(c)*u/g), written so that it does not cancel as u -> 1
        atanh_term = sqrt_c * (np.log(g + sqrt_c * u) + np.log(np.cosh(theta)) - 0.5 * math.log(A))
        return 2.0 * (atanh_term - s_term(u)) / math.sqrt(a), g

    theta_end = math.acosh(_TAIL_FLOOR_FRACTION ** -0.5)
    xs = np.abs(grid.x)
    inside = xs <= x_and_g(theta_end)[0]
    target = xs[inside]
    # start on the asymptote x = 2*theta/kappa + x_inf; x is convex in theta for
    # gamma > 0 and concave for gamma < 0, so Newton converges monotonically from it
    x_inf = 2.0 * (0.5 * sqrt_c * math.log(c / A) - s_term(1.0)) / math.sqrt(a)
    theta_in = np.maximum(0.5 * kappa * (target - x_inf), 0.0)
    for _ in range(_NEWTON_MAX_STEPS):
        x, g = x_and_g(theta_in)
        step = (x - target) * math.sqrt(a) / (2.0 * g)
        theta_in -= step
        if np.max(np.abs(step), initial=0.0) <= _NEWTON_STEP_TOL:
            break
    else:
        raise RuntimeError(f"Newton inversion of x(theta) did not converge for {diagnostic}")

    theta = np.full(grid.n_points, np.inf)  # phi is exactly 0 beyond x(theta_end)
    theta[inside] = theta_in
    # a/cosh^2 rather than a*(1 - tanh^2) keeps the tail's relative accuracy
    phi = a / np.cosh(theta) ** 2
    slope = -np.sign(grid.x) * phi * np.tanh(theta) * math.sqrt(a) / np.sqrt(c - gamma * phi)
    return SolitonProfile(params=p, grid=grid, values=phi, slope=slope)


def first_integral_residual(profile: SolitonProfile) -> np.ndarray:
    """(phi')^2 (c - gamma*phi) - phi^2 (a - phi) with a spectral phi'.

    The derivative is recomputed by FFT rather than taken from the closed
    form, so this genuinely cross-checks the construction.
    """
    c, gamma = profile.params.speed, profile.params.params.gamma
    a = profile.params.amplitude
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
    phi_xx = differentiate(f, 2).values
    return ((2.0 * omega - c) * phi + c * phi_xx + 1.5 * phi**2
            - 0.5 * gamma * phi_x**2 - gamma * phi * phi_xx)


def measure_decay_rate(profile: SolitonProfile) -> float:
    """Fit the tail rate from the log-slope of phi on x > 0.

    The fit uses samples with phi/a inside _DECAY_WINDOW, where the profile
    is already asymptotic but far above the cutoff floor.
    """
    a = profile.params.amplitude
    x = profile.grid.x
    phi = profile.values
    lo, hi = _DECAY_WINDOW
    sel = (x > 0) & (phi > lo * a) & (phi < hi * a)
    if np.count_nonzero(sel) < 8:
        raise ValueError("tail window contains too few grid points to fit a decay rate")
    coeffs = np.polyfit(x[sel], np.log(phi[sel]), 1)
    return float(-coeffs[0])


@dataclass(frozen=True)
class TravelReport:
    """Shape and speed fidelity of a simulated solitary wave."""

    times: np.ndarray
    l2_errors: np.ndarray
    measured_speed: float

    @property
    def max_l2_error(self) -> float:
        return float(np.max(self.l2_errors))


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
    if profile.params.amplitude <= 0 or np.max(profile.values) <= 0:
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
    speed = track_speed(result.checkpoints, grid)
    return TravelReport(
        times=np.array([t for t, _ in result.checkpoints]),
        l2_errors=np.array([shape_error(u0, c, snap, t) for t, snap in result.checkpoints]),
        measured_speed=speed,
    )


def recommended_grid(p: SolitonParams) -> Grid:
    """Pick a box that hides the tail and resolves the peak curvature.

    Near the speed cap the peak narrows like sqrt(c - gamma*a) and its
    spectrum widens accordingly, hence the generous points-per-width. A wave
    that would need more than `_MAX_POINTS` points raises ValueError.
    """
    ok, diagnostic = check_admissible(p)
    if not ok:
        raise AdmissibilityError(diagnostic)
    c, gamma = p.speed, p.params.gamma
    a, kappa = p.amplitude, p.decay_rate
    half_width = float(math.ceil(max(_TAIL_EXPONENT / kappa, 10.0)))
    peak_width = 2.0 * math.sqrt((c - gamma * a) / a)
    # residuals are judged on absolute tolerances, so taller waves (whose
    # equation terms grow with a) get proportionally denser grids
    h_target = min(peak_width / 32.0, 0.125 / kappa) / max(1.0, a)
    n = 1 << max(8, math.ceil(math.log2(2.0 * half_width / h_target)))
    if n > _MAX_POINTS:
        raise ValueError(f"resolving this wave's peak needs N = {n} grid points, "
                         f"more than the {_MAX_POINTS} allowed")
    return Grid(half_width, n)


def write_profile_csv(profile: SolitonProfile, path) -> None:
    """Profile export: x, phi, phi_x rows under a parameter header line."""
    p = profile.params
    preamble = (
        f"# c={fmt(p.speed)} omega={fmt(p.params.omega)} gamma={fmt(p.params.gamma)} "
        f"a={fmt(p.amplitude)} kappa={fmt(p.decay_rate)}"
    )
    rows = zip(profile.grid.x, profile.values, profile.slope)
    write_csv(path, ("x", "phi", "phi_x"), rows, preamble=preamble)
