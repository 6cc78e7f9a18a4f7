"""Periodic spectral kernel: grid, FFT differentiation, Helmholtz inversion.

Everything downstream works on a uniform periodic grid over [-L, L) and
manipulates fields through their real FFT. The two workhorse operators are

    d^n/dx^n  ->  multiply mode k by (ik)^n
    (1 - d^2/dx^2)^{-1}  ->  multiply mode k by 1/(1 + k^2)

The second one is the convolution with the kernel exp(-|x|)/2, realized
exactly on the periodic box as a Fourier multiplier. Quadratic products are
kept alias-free with the standard 2/3 rule.

`rfft` and `irfft`, the one FFT entry point, call numpy.fft's pocketfft gufuncs
(numpy >= 2.0 has them) directly: numpy.fft's results bit for bit, 4-6 us a call sooner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft  # the package's one FFT import point


def rfft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.rfft over the last axis, into out if given (the even gufunc miscounts odd n)."""
    n = values.shape[-1]
    if out is None:
        out = np.empty(values.shape[:-1] + (n // 2 + 1,), dtype=complex)
    transform = _pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even
    return transform(values, 1.0, out=out)


def irfft(spectrum: np.ndarray, n: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """numpy.fft.irfft over the last axis, into out if given: n points from n // 2 + 1 modes."""
    if n is None:
        n = 2 * (spectrum.shape[-1] - 1)
    if out is None:
        out = np.empty(spectrum.shape[:-1] + (n,))
    return _pocketfft.irfft(spectrum, 1.0 / n, out=out)


def edge_abs(values: np.ndarray) -> float:
    """The larger |v| at the box edge |x| = L: max(|v[0]|, |v[-1]|)."""
    return max(abs(float(values[0])), abs(float(values[-1])))


class NonFiniteFieldError(ValueError):
    """A field contains NaN or infinity where a finite value is required."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with its wavenumber set.

    Parameters
    ----------
    half_width : float
        L; the domain is [-L, L) with period 2L.
    n_points : int
        N; must be even and at least 16.
    """

    half_width: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.n_points < 16 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 16, got {self.n_points}")

    @cached_property
    def spacing(self) -> float:
        """Grid spacing h = 2L/N."""
        return 2.0 * self.half_width / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        """Grid points x_i = -L + i*h, strictly increasing."""
        pts = -self.half_width + self.spacing * np.arange(self.n_points)
        pts.flags.writeable = False
        return pts

    @cached_property
    def wavenumbers_half(self) -> np.ndarray:
        """Real-FFT wavenumbers pi*j/L for j = 0..N/2 (Nyquist last)."""
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.spacing)
        k.flags.writeable = False
        return k

    @cached_property
    def band(self) -> int:
        """Number of modes the 2/3 rule keeps: j < N/3, the first ceil(N/3).

        The product of two kept modes then aliases only onto dropped modes,
        also when 3 divides N.
        """
        return -(-self.n_points // 3)

    @cached_property
    def helmholtz_multiplier(self) -> np.ndarray:
        """1/(1 + k^2) on the real-FFT layout."""
        m = 1.0 / (1.0 + self.wavenumbers_half**2)
        m.flags.writeable = False
        return m

    @cached_property
    def derivative_multiplier(self) -> np.ndarray:
        """ik on the real-FFT layout, Nyquist zeroed (odd-order convention)."""
        m = 1j * self.wavenumbers_half
        m[-1] = 0.0
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class Field:
    """A real field sampled on a Grid; immutable, guaranteed finite.

    Construction copies the input values, rejects non-finite entries (a NaN
    mid-simulation is a detected blow-up and must never propagate silently),
    and locks the array. The spectrum is computed lazily and cached.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            i = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteFieldError(
                f"non-finite value {vals[i]} at index {i} (x = {self.grid.x[i]:g})"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Cached real-FFT of the values; round-trips to 1e-12."""
        spec = rfft(self.values)
        spec.flags.writeable = False
        return spec

    @cached_property
    def derivative(self) -> np.ndarray:
        """Cached first spatial derivative values."""
        d = _derivative_values(self.spectrum, self.grid, 1)
        d.flags.writeable = False
        return d


def _derivative_values(spectrum: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    mult = grid.derivative_multiplier ** order
    if order % 2 == 0:
        # the multiplier zeroes the unpaired Nyquist mode, which only odd
        # derivatives must drop to keep real fields real
        mult[-1] = (-grid.wavenumbers_half[-1] ** 2) ** (order // 2)
    return irfft(spectrum * mult, n=grid.n_points)


def differentiate(f: Field, order: int) -> Field:
    """Spectral d^order/dx^order of a field, order in {1, 2, 3}."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    return Field(f.grid, _derivative_values(f.spectrum, f.grid, order))


def helmholtz_inverse(f: Field) -> Field:
    """Apply (1 - d^2/dx^2)^{-1}, i.e. convolve with the kernel exp(-|x|)/2.

    On the periodic box this is the exact Green's-function convolution,
    computed as the multiplier 1/(1 + k^2).
    """
    return Field(f.grid, irfft(f.spectrum * f.grid.helmholtz_multiplier, n=f.grid.n_points))


def dealias(spectrum: np.ndarray, grid: Grid) -> np.ndarray:
    """A copy with every mode from `grid.band` up zeroed (the 2/3 rule). Idempotent.

    Operates on the real-FFT layout (length N/2 + 1) along the last axis, so a
    stack of spectra is cut row by row.
    """
    spec = np.asarray(spectrum)
    if spec.shape[-1:] != (grid.n_points // 2 + 1,):
        raise ValueError(
            f"expected real-FFT spectrum of length {grid.n_points // 2 + 1}, got {spec.shape}"
        )
    spec = spec.astype(np.result_type(spec, 0.0))
    spec[..., grid.band:] = 0.0
    return spec


def hs_norm(f: Field, s: float) -> float:
    """Discrete Sobolev H^s norm, sqrt(sum_k (1+k^2)^s |u_k|^2 w_k).

    Quadrature weights are chosen so s = 0 reproduces the trapezoidal L2
    norm of the periodic grid (Parseval with weight 2L/N^2).
    """
    if s < 0:
        raise ValueError(f"Sobolev exponent must be nonnegative, got {s}")
    grid = f.grid
    spec = f.spectrum
    # rfft layout counts interior modes once; their negatives carry equal energy
    mode_weight = np.full(spec.shape, 2.0)
    mode_weight[0] = 1.0
    mode_weight[-1] = 1.0
    sobolev = (1.0 + grid.wavenumbers_half**2) ** s
    total = np.sum(mode_weight * sobolev * np.abs(spec) ** 2)
    return float(np.sqrt(total * grid.spacing / grid.n_points))
