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

whose Fourier multipliers `_rhs_multipliers` writes once; `SpectralRhs`
applies them on the solver's band-limited spectra and `rhs_nonlocal` on a
Field. `rhs_momentum` evaluates the same dynamics through the momentum
variable y = u - u_xx and serves as an independent cross-check;
`pde_residual` measures how well a candidate u_t satisfies the original
third-derivative form.

Besides E = int(u^2 + u_x^2) dx the equation conserves H = int(u^3 + gamma*u*u_x^2
+ 2*omega*u^2) dx, at omega = 0 the rod equation's second Hamiltonian. It reads
(1 - d2/dx2) u_t = -1/2 d/dx f with f = dH/du = 3u^2 - gamma*u_x^2 - 2*gamma*u*u_xx
+ 4*omega*u, so dH/dt = int f*u_t dx = -1/2 int f * d/dx (1 - d2/dx2)^{-1} f dx = 0,
that operator being skew-adjoint. E holds whatever the omega term's coefficient;
H checks it.

Wave breaking is governed by the slope minimum m(t) = min_x gamma*u_x(t, x),
which obeys a Riccati-type equation

    m' = -m^2/2 + (3-gamma)*gamma/2*u^2 + 2*omega*gamma*u - conv   (at the argmin)

where conv is the Helmholtz convolution of the same quadratic bracket.
`trace_row`, the one builder of every `TraceRow`, records both sides (m from
`slope_argmin`, which its caller has already run, and `riccati_rate`);
`gamma_utx_field` the whole-field version (which retains the gamma^2*u*u_xx
term that vanishes at the argmin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, Grid, dealias, differentiate, edge_abs, irfft, rfft


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
class TraceRow:
    """One recorded sample: the slope minimum m = min_x gamma*u_x at the grid
    point xi (smallest index on ties), its Riccati rate m_rhs there, E, H, max|u|,
    min u_x, the step dt that reached it, the resolution measure `tail` (the
    largest |u_hat_j| with j >= min(0.9*band, band - 1) over the band's largest)
    and `boundary` = max(|u[0]|, |u[-1]|), the larger |u| at the box edge. `trace_row`
    builds every row; the fields, in order, are `trace.csv`'s columns."""

    t: float
    energy: float
    hamiltonian: float
    m: float
    xi: float
    m_rhs: float
    max_u: float
    min_ux: float
    dt: float
    tail: float
    boundary: float


def _project(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Dealias a physical-space product (2/3 rule round trip)."""
    return irfft(dealias(rfft(values), grid), n=grid.n_points)


def _rhs_multipliers(grid: Grid, params: PdeParams) -> np.ndarray:
    """The rows (A, B[, C]) of u_t_hat = A*F(u^2) + B*F(u_x^2) + C*u_hat on the rfft
    layout, A and B 0 from the 2/3 band up; C is a row only when omega != 0."""
    gamma, omega = params.gamma, params.omega
    ik = grid.derivative_multiplier
    ikh = ik * grid.helmholtz_multiplier
    mults = np.stack((-(0.5 * gamma * ik + 0.5 * (3.0 - gamma) * ikh), -(0.5 * gamma * ikh),
                      -2.0 * omega * ikh))
    mults[:2, grid.band:] = 0.0
    return mults if omega != 0.0 else mults[:2]


class SpectralRhs:
    """u_t of the nonlocal form on the 2/3 band's rfft coefficients, and RK4 on them.

    On a band-limited state the dealiased u*u_x equals (u^2)_x/2 exactly, so

        u_t_hat = A*rfft(u^2) + B*rfft(u_x^2) + C*u_hat

    with the band of `_rhs_multipliers`' rows. States and results hold the
    band's modes only. An evaluation costs 4 transforms in 2 FFT calls,
    pocketfft's 2-row passes, into arrays made once: an irfft of the state in
    `stage` and its derivative (the band of a zero-padded input) into `u` and
    `ux`, and an rfft of their `squares` into `pair`. `pair` and `stage` are
    rows of one complex block, so one multiply of the operand rows
    (F(u^2), F(u_x^2)[, u_hat]) and one sum, in that order, give u_t_hat.
    `u`, `ux`, `squares` and `pair` stay readable until the next evaluation,
    and a trace row reads only those. Each row is bit-identical to a
    single-row transform of it.

    An RK4 step costs 16 transforms in 8 FFT calls: 4 in the caller's k1 stage
    `self(u_hat, k)`, whose arrays step control and trace rows read, and 12 in
    `step`, which writes each later stage straight into `stage`.
    """

    def __init__(self, grid: Grid, params: PdeParams) -> None:
        band, n = grid.band, grid.n_points
        self._mults = _rhs_multipliers(grid, params)[:, :band].copy()
        self._ik = grid.derivative_multiplier[:band]
        # rows (F(u^2), F(u_x^2)), the rfft's output, then (u_hat, ik*u_hat), the
        # irfft's zero-padded input: its modes from `band` up stay 0
        block = np.zeros((4, n // 2 + 1), dtype=complex)
        self.pair, self._padded = block[:2], block[2:]
        self.stage, self._stage_x = self._padded[:, :band]
        self._operands = block[:len(self._mults), :band]  # F(u^2), F(u_x^2)[, u_hat]
        self._terms = np.empty_like(self._mults)
        self._c_term = tuple(self._terms[2:])  # C*u_hat's row, where omega != 0
        self._fields = np.empty((2, n))
        self.u, self.ux = self._fields  # row views, still readable after the evaluation
        self.squares = np.empty_like(self._fields)  # rows (u^2, u_x^2)
        self.k = np.empty(band, dtype=complex)  # the stage slope `step` reads and writes
        self._n = n

    def project(self, values: np.ndarray) -> np.ndarray:
        """The state of grid values: their band's rfft coefficients."""
        return rfft(values)[:self.stage.size]

    def values(self, u_hat: np.ndarray) -> np.ndarray:
        """The grid values of a state, in one transform."""
        return irfft(u_hat, n=self._n)

    def _evaluate(self, out: np.ndarray) -> np.ndarray:
        """Write u_t_hat of the state in `stage` into out."""
        np.multiply(self.stage, self._ik, out=self._stage_x)
        irfft(self._padded, n=self._n, out=self._fields)
        np.square(self._fields, out=self.squares)
        rfft(self.squares, out=self.pair)
        terms = np.multiply(self._operands, self._mults, out=self._terms)
        # np.add of two rows, not np.add.reduce: about 50% faster at band 5462
        np.add(terms[0], terms[1], out=out)
        for term in self._c_term:
            out += term
        return out

    def __call__(self, u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write u_t_hat of u_hat's band (modes above it are not read) into out."""
        self.stage[...] = u_hat[:self.stage.size]
        return self._evaluate(out)

    def step(self, u_hat: np.ndarray, dt: float, out: np.ndarray) -> None:
        """Write u_hat stepped by dt (RK4) into out; `k` must hold `self(u_hat, k)`."""
        k, stage = self.k, self.stage
        np.multiply(k, dt / 6.0, out=out)
        out += u_hat
        for stage_frac, weight in ((0.5, 1.0 / 3.0), (0.5, 1.0 / 3.0), (1.0, 1.0 / 6.0)):
            np.multiply(k, stage_frac * dt, out=stage)
            stage += u_hat
            self._evaluate(k)
            out += np.multiply(k, weight * dt, out=stage)


def rhs_nonlocal(u: Field, params: PdeParams) -> Field:
    """Time derivative u_t from the nonlocal (convolution) formulation.

    Applies `_rhs_multipliers`' rows to the rffts of u^2 and u_x^2, with u and
    u_x from every mode of u, and to u_hat (6 transforms). On u in the 2/3
    band, as every state the solver steps is, it equals `SpectralRhs` and the
    formula that dealiases u*u_x as a product of its own. u is not projected:
    for u with content above the band, -gamma*u*u_x is taken as the dealiased
    (u^2)_x/2, and `pde_residual(u, rhs_nonlocal(u))` still measures u itself.
    That is by design: the residual then falls with the resolution of u.
    Evaluated on u's projection it stalls on coarse grids, and with the
    projection in place of u too it is roundoff at every N.
    """
    grid = u.grid
    u_hat = rfft(u.values)
    fields = irfft(np.stack((u_hat, u_hat * grid.derivative_multiplier)), n=grid.n_points)
    mults = _rhs_multipliers(grid, params)
    operands = np.vstack((rfft(fields * fields), u_hat))[:len(mults)]
    ut_hat = np.add.reduce(operands * mults)  # row by row, in the kernel's order
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
    return _energy_sum(_squares(u), u.grid)


def _energy_sum(squares: np.ndarray, grid: Grid) -> float:
    """E from the rows (u^2, u_x^2) of the grid values."""
    return float(grid.spacing * np.sum(np.add(squares[0], squares[1])))


def slope_argmin(ux: np.ndarray, gamma: float) -> tuple[int, float]:
    """Grid index and value of the minimum of gamma*u_x; (0, 0.0) for gamma = 0.

    Scaling by gamma is monotone in floating point, so this is gamma times the
    extreme of u_x (smallest index on ties), found without forming gamma*u_x.
    """
    if gamma == 0.0:
        return 0, 0.0
    i = int(ux.argmin() if gamma > 0.0 else ux.argmax())
    return i, gamma * float(ux[i])


def _squares(u: Field) -> np.ndarray:
    """The rows (u^2, u_x^2) of a Field, as `SpectralRhs.squares` holds them; their
    2-row rfft is `SpectralRhs.pair`."""
    ux = u.derivative
    return np.stack((u.values * u.values, ux * ux))


def _convolution_bracket(u_hat: np.ndarray, squares_hat, grid: Grid,
                         params: PdeParams) -> np.ndarray:
    """gamma * helmholtz_inverse((3-g)/2 u^2 + g/2 u_x^2 + 2w u), the squares dealiased;
    squares_hat = rows (rfft(u^2), rfft(u_x^2)), u_hat = rfft(u) or its band."""
    gamma, omega = params.gamma, params.omega
    band = grid.band
    spec_uu, spec_xx = squares_hat
    squares_part = 0.5 * (3.0 - gamma) * spec_uu[:band]
    squares_part += 0.5 * gamma * spec_xx[:band]
    bracket_hat = 2.0 * omega * u_hat
    bracket_hat[:band] += squares_part
    bracket_hat *= grid.helmholtz_multiplier[:bracket_hat.size]
    conv = irfft(bracket_hat, n=grid.n_points)
    return np.multiply(conv, gamma, out=conv)


def riccati_rate(u_hat: np.ndarray, squares_hat, u: np.ndarray, i: int, m: float,
                 grid: Grid, params: PdeParams) -> float:
    """The Riccati rate m' at grid point i, where gamma*u_x = m (arguments as for
    `_convolution_bracket`)."""
    gamma, omega = params.gamma, params.omega
    if gamma == 0.0:
        return 0.0
    conv = _convolution_bracket(u_hat, squares_hat, grid, params)
    ui = float(u[i])
    return (-0.5 * m * m
            + 0.5 * (3.0 - gamma) * gamma * ui * ui
            + 2.0 * omega * gamma * ui
            - float(conv[i]))


def trace_row(t: float, dt: float, u: np.ndarray, ux: np.ndarray, squares: np.ndarray,
              squares_hat, u_hat: np.ndarray, slope: tuple[int, float], max_u: float,
              grid: Grid, params: PdeParams) -> TraceRow:
    """The row of the state with grid values u, ux at time t, reached by a step dt.
    squares holds the rows (u^2, u_x^2) and squares_hat their rffts, u_hat is rfft(u)
    or its band, slope = (i, m) is `slope_argmin(ux, gamma)` and max_u = max|u|; none
    is written to. At gamma = 0, by convention, m = m_rhs = 0 at grid point 0."""
    i, m = slope
    moduli = np.abs(u_hat[:grid.band])  # the tail of zero data is 0
    edge = min(-(-9 * grid.band // 10), grid.band - 1)  # a band under 10 modes keeps its last
    tail = float(moduli[edge:].max()) / max(float(moduli.max()), 1e-300)
    # at gamma > 0, i is the argmin of ux
    min_ux = float(ux[i]) if params.gamma > 0.0 else float(ux.min())
    density = squares[0] * (u + 2.0 * params.omega)  # H's u^3 + 2*omega*u^2 + gamma*u*u_x^2
    density += params.gamma * u * squares[1]
    return TraceRow(t=t, dt=dt, energy=_energy_sum(squares, grid), max_u=max_u,
                    hamiltonian=float(grid.spacing * np.sum(density)), m=m, xi=float(grid.x[i]),
                    tail=tail, m_rhs=riccati_rate(u_hat, squares_hat, u, i, m, grid, params),
                    min_ux=min_ux, boundary=edge_abs(u))


def slope_sample(u: Field, params: PdeParams, t: float = 0.0) -> TraceRow:
    """The Field oracle of a trace row: `trace_row` on u's own values, derivative,
    their squares and the squares' rfft, its own slope argmin and max|u|, with dt = 0."""
    ux = u.derivative
    squares = _squares(u)
    max_u = max(float(u.values.max()), -float(u.values.min()))
    return trace_row(t, 0.0, u.values, ux, squares, rfft(squares), u.spectrum,
                     slope_argmin(ux, params.gamma), max_u, u.grid, params)


def gamma_utx_field(u: Field, params: PdeParams) -> Field:
    """Whole-field gamma*u_tx, assembled from the differentiated nonlocal form.

    Equals gamma * d/dx(rhs_nonlocal(u)) as an identity; unlike the Riccati
    rate at the argmin it keeps the gamma^2*u*u_xx term, which only drops
    where u_xx vanishes.
    """
    gamma, omega, grid = params.gamma, params.omega, u.grid
    squares_hat = dealias(rfft(_squares(u)), grid)  # the bracket reads only the band
    uu, xx = irfft(squares_hat, n=grid.n_points)  # the dealiased squares
    conv = _convolution_bracket(u.spectrum, squares_hat, grid, params)
    out = -0.5 * gamma * gamma * xx
    out -= gamma * gamma * _project(u.values * differentiate(u, 2).values, grid)
    out += 0.5 * (3.0 - gamma) * gamma * uu
    out += 2.0 * omega * gamma * u.values
    out -= conv
    return Field(grid, out)
