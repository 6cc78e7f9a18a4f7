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

which `SpectralRhs` evaluates on the solver's band-limited spectra and
`rhs_nonlocal` on a Field. `rhs_momentum` evaluates the same
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

from .spectral import Field, Grid, dealias, differentiate, irfft, rfft


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


class SpectralRhs:
    """u_t of the nonlocal form as a map on 2/3-band rfft coefficients.

    On a state confined to the retained band the dealiased product u*u_x
    equals (u^2)_x/2 exactly, so -gamma*u*u_x joins the Helmholtz bracket
    in one rfft(u^2):

        u_t_hat = A*rfft(u^2) + B*rfft(u_x^2) + C*u_hat,

    where A, B and C hold the dealias mask, -ik, 1/(1 + k^2) and (gamma,
    omega) and are built once. A call costs 4 transforms and writes only
    into arrays made once: `physical` fills `u` and `ux` from u_hat (2
    transforms), and `finish` forms u_t_hat from them (2 more). For u_hat in the band the
    result lies in the band too, so RK4 stages never leave it.
    """

    def __init__(self, grid: Grid, params: PdeParams) -> None:
        gamma, omega = params.gamma, params.omega
        keep = grid.dealias_keep
        self.grid = grid
        self._ik = grid.derivative_multiplier
        ikh = self._ik * grid.helmholtz_multiplier
        self._mult_uu = -(0.5 * gamma * self._ik + 0.5 * (3.0 - gamma) * ikh) * keep
        self._mult_xx = -(0.5 * gamma * ikh) * keep
        self._mult_u = -2.0 * omega * ikh
        n = grid.n_points
        self.u = np.empty(n)
        self.ux = np.empty(n)
        self._square = np.empty(n)
        self._spec = np.empty(n // 2 + 1, dtype=complex)

    def physical(self, u_hat: np.ndarray) -> None:
        """Fill `u` and `ux` with the grid values of u_hat and its derivative."""
        n = self.grid.n_points
        irfft(u_hat, n=n, out=self.u)
        np.multiply(u_hat, self._ik, out=self._spec)
        irfft(self._spec, n=n, out=self.ux)

    def finish(self, u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write u_t_hat into out; `u` and `ux` must hold u_hat's values."""
        np.multiply(self.u, self.u, out=self._square)
        np.multiply(rfft(self._square, out=self._spec), self._mult_uu, out=out)
        np.multiply(self.ux, self.ux, out=self._square)
        out += np.multiply(rfft(self._square, out=self._spec), self._mult_xx, out=self._spec)
        out += np.multiply(u_hat, self._mult_u, out=self._spec)
        return out

    def __call__(self, u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.physical(u_hat)
        return self.finish(u_hat, out)


def rhs_nonlocal(u: Field, params: PdeParams) -> Field:
    """Time derivative u_t from the nonlocal (convolution) formulation.

    Evaluates `SpectralRhs`, the solver's kernel, on the full spectrum of u
    (6 transforms). On u in the 2/3 band, as every state the solver steps
    is, it equals the formula that dealiases u*u_x as a product of its own.
    u is not projected: for u with content above the band, -gamma*u*u_x
    is taken as the dealiased (u^2)_x/2, and `pde_residual(u, rhs_nonlocal(u))`
    still measures u itself.
    """
    grid = u.grid
    u_hat = rfft(u.values)
    ut_hat = SpectralRhs(grid, params)(u_hat, np.empty_like(u_hat))
    return Field(grid, irfft(ut_hat, n=grid.n_points))


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
    ux = u.derivative
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
    ux = u.derivative
    uxx = differentiate(u, 2).values
    uxxx = differentiate(u, 3).values
    utxx = differentiate(u_t, 2).values

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
    ux = u.derivative
    uxx = differentiate(u, 2).values
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
