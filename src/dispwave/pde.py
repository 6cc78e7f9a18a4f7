"""The wave equation itself, in its three equivalent guises.

The model is

    u_t - u_txx + 2*omega*u_x + 3*u*u_x = gamma*(2*u_x*u_xx + u*u_xxx)

with omega >= 0 and gamma real. gamma = 1 is the Camassa-Holm equation for
shallow water waves, gamma = 0 the regularized long wave equation; omega = 0
with general gamma models deformation waves in hyperelastic rods.

The solver never integrates the third-derivative form directly. Applying the
inverse Helmholtz operator turns it into a first-order nonlocal conservation
law,

    u_t + gamma*u*u_x
        + d/dx (1 - d2/dx2)^{-1} [ (3-gamma)/2*u^2 + gamma/2*u_x^2 + 2*omega*u ] = 0,

which is what `rhs_nonlocal` evaluates. `rhs_momentum` evaluates the same
dynamics through the momentum variable y = u - u_xx and serves as an
independent cross-check; `pde_residual` measures how well a candidate u_t
satisfies the original third-derivative form.

Wave breaking is governed by the slope minimum m(t) = min_x gamma*u_x(t, x),
which obeys a Riccati-type equation

    m' = -m^2/2 + (3-gamma)*gamma/2*u^2 + 2*omega*gamma*u - conv   (at the argmin)

where conv is the Helmholtz convolution of the same quadratic bracket.
`slope_sample` evaluates both sides, `gamma_utx_field` the whole-field
version (which retains the gamma^2*u*u_xx term that vanishes at the argmin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, Grid, dealias, irfft, rfft


@dataclass(frozen=True)
class PdeParams:
    """The two fixed model constants (gamma, omega), omega >= 0."""

    gamma: float
    omega: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not (np.isfinite(self.omega) and self.omega >= 0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")


@dataclass(frozen=True)
class SlopeSample:
    """Slope minimum m = min_x gamma*u_x and its predicted rate of change.

    xi is the grid point attaining the minimum (smallest index on ties);
    m_rhs is the Riccati right-hand side evaluated at xi.
    """

    t: float
    m: float
    xi: float
    m_rhs: float


def _project(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Dealias a physical-space product (2/3 rule round trip)."""
    return irfft(dealias(rfft(values), grid), n=grid.n_points)


def _rhs_values(values: np.ndarray, grid: Grid, params: PdeParams) -> np.ndarray:
    """u_t of the nonlocal form, raw-array hot path (6 transforms)."""
    gamma, omega = params.gamma, params.omega
    ik = grid.derivative_multiplier
    u_hat = rfft(values)
    ux = irfft(u_hat * ik, n=grid.n_points)

    bracket_hat = 0.5 * (3.0 - gamma) * dealias(rfft(values * values), grid)
    bracket_hat += 0.5 * gamma * dealias(rfft(ux * ux), grid)
    bracket_hat += 2.0 * omega * u_hat

    ut_hat = -gamma * dealias(rfft(values * ux), grid)
    ut_hat -= ik * grid.helmholtz_multiplier * bracket_hat
    return irfft(ut_hat, n=grid.n_points)


def rhs_nonlocal(u: Field, params: PdeParams) -> Field:
    """Time derivative u_t from the nonlocal (convolution) formulation.

    All quadratic products are formed pointwise and dealiased before they
    re-enter spectral operations.
    """
    return Field(u.grid, _rhs_values(u.values, u.grid, params))


def rhs_momentum(u: Field, params: PdeParams) -> Field:
    """Time derivative u_t computed through the momentum variable y = u - u_xx.

    Evaluates y_t = -gamma*y_x*u - 2*gamma*y*u_x - 2*omega*u_x
    - 3*(1-gamma)*u*u_x and returns the Helmholtz inverse of y_t. Agrees
    with `rhs_nonlocal` to spectral accuracy; kept as an independent route
    for consistency checks.
    """
    gamma, omega = params.gamma, params.omega
    grid = u.grid
    ik = grid.derivative_multiplier
    k2 = grid.wavenumbers_half**2

    u_hat = u.spectrum
    y_hat = (1.0 + k2) * u_hat
    uvals = u.values
    ux = irfft(u_hat * ik, n=grid.n_points)
    y = irfft(y_hat, n=grid.n_points)
    yx = irfft(y_hat * ik, n=grid.n_points)

    yt_hat = -gamma * dealias(rfft(yx * uvals), grid)
    yt_hat -= 2.0 * gamma * dealias(rfft(y * ux), grid)
    yt_hat -= 3.0 * (1.0 - gamma) * dealias(rfft(uvals * ux), grid)
    yt_hat -= 2.0 * omega * ik * u_hat
    return Field(grid, irfft(grid.helmholtz_multiplier * yt_hat, n=grid.n_points))


def pde_residual(u: Field, u_t: Field, params: PdeParams) -> float:
    """Max-norm residual of the third-derivative form for a supplied u_t.

    A consistency diagnostic: with u_t = rhs_nonlocal(u) the residual sits
    at the spectral-accuracy floor; with u_t = -c*u_x for a traveling
    profile it measures how well the profile solves the equation.
    """
    gamma, omega = params.gamma, params.omega
    grid = u.grid
    ik = grid.derivative_multiplier
    k2 = grid.wavenumbers_half**2

    u_hat = u.spectrum
    ux = irfft(u_hat * ik, n=grid.n_points)
    uxx = irfft(-k2 * u_hat, n=grid.n_points)
    uxxx = irfft(-k2 * ik * u_hat, n=grid.n_points)
    ut_hat = u_t.spectrum
    utxx = irfft(-k2 * ut_hat, n=grid.n_points)

    residual = u_t.values - utxx + 2.0 * omega * ux
    residual += 3.0 * _project(u.values * ux, grid)
    residual -= gamma * (2.0 * _project(ux * uxx, grid) + _project(u.values * uxxx, grid))
    return float(np.max(np.abs(residual)))


def energy(u: Field) -> float:
    """Conserved energy E(u) = int(u^2 + u_x^2) dx, trapezoidal quadrature.

    On the periodic grid the trapezoid rule is the plain h-weighted sum and
    coincides with hs_norm(u, 1)^2 by Parseval.
    """
    ux = u.derivative
    return float(u.grid.spacing * np.sum(u.values**2 + ux * ux))


def _convolution_bracket(values: np.ndarray, ux: np.ndarray, grid: Grid,
                         params: PdeParams) -> np.ndarray:
    """gamma * helmholtz_inverse((3-g)/2 u^2 + g/2 u_x^2 + 2w u), dealiased."""
    gamma, omega = params.gamma, params.omega
    bracket_hat = 0.5 * (3.0 - gamma) * dealias(rfft(values * values), grid)
    bracket_hat += 0.5 * gamma * dealias(rfft(ux * ux), grid)
    bracket_hat += 2.0 * omega * rfft(values)
    return gamma * irfft(grid.helmholtz_multiplier * bracket_hat, n=grid.n_points)


def slope_sample(u: Field, params: PdeParams, t: float = 0.0) -> SlopeSample:
    """Locate the grid minimum of gamma*u_x and evaluate its Riccati rate.

    With gamma = 0 every solution is global and the slope functional is
    identically zero; by convention the sample reports m = 0 at the first
    grid point.
    """
    grid = u.grid
    if params.gamma == 0.0:
        return SlopeSample(t=t, m=0.0, xi=float(grid.x[0]), m_rhs=0.0)
    gamma, omega = params.gamma, params.omega
    ux = u.derivative
    g_ux = gamma * ux
    i = int(np.argmin(g_ux))  # argmin takes the smallest index on ties
    m = float(g_ux[i])
    conv = _convolution_bracket(u.values, ux, grid, params)
    ui = float(u.values[i])
    m_rhs = (-0.5 * m * m
             + 0.5 * (3.0 - gamma) * gamma * ui * ui
             + 2.0 * omega * gamma * ui
             - float(conv[i]))
    return SlopeSample(t=t, m=m, xi=float(grid.x[i]), m_rhs=m_rhs)


def gamma_utx_field(u: Field, params: PdeParams) -> Field:
    """Whole-field gamma*u_tx, assembled from the differentiated nonlocal form.

    Equals gamma * d/dx(rhs_nonlocal(u)) as an identity; unlike the Riccati
    rate at the argmin it keeps the gamma^2*u*u_xx term, which only drops
    where u_xx vanishes.
    """
    gamma = params.gamma
    grid = u.grid
    omega = params.omega
    u_hat = u.spectrum
    ux = irfft(u_hat * grid.derivative_multiplier, n=grid.n_points)
    uxx = irfft(-grid.wavenumbers_half**2 * u_hat, n=grid.n_points)
    conv = _convolution_bracket(u.values, ux, grid, params)
    out = -0.5 * gamma * gamma * _project(ux * ux, grid)
    out -= gamma * gamma * _project(u.values * uxx, grid)
    out += 0.5 * (3.0 - gamma) * gamma * _project(u.values * u.values, grid)
    out += 2.0 * omega * gamma * u.values
    out -= conv
    return Field(grid, out)


__all__ = [
    "PdeParams",
    "SlopeSample",
    "rhs_nonlocal",
    "rhs_momentum",
    "pde_residual",
    "energy",
    "slope_sample",
    "gamma_utx_field",
]
