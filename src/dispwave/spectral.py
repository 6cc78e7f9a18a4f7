"""Periodic spectral kernel: grid, FFT differentiation, Helmholtz inversion.

Everything downstream works on a uniform periodic grid over [-L, L) and
manipulates fields through their real FFT. The two workhorse operators are

    d^n/dx^n  ->  multiply mode k by (ik)^n
    (1 - d^2/dx^2)^{-1}  ->  multiply mode k by 1/(1 + k^2)

The second one is the convolution with the kernel exp(-|x|)/2, realized
exactly on the periodic box as a Fourier multiplier. Quadratic products are
kept alias-free with the standard 2/3 rule.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np
from numpy.fft import irfft, rfft  # the package's one FFT import point

_PLAN_ROUNDS = 15  # odd, so the median is one sample
_plans: dict[tuple[str, int], str] = {}


def plans() -> dict[tuple[str, int], str]:
    """The name of the candidate each `Fastest` key picked last in this process."""
    return dict(_plans)


class Fastest:
    """The fastest of interchangeable zero-argument calls, learnt from using them.

    `call()` runs one of `candidates` (name -> call), calls with the same
    effect: callers offer only call shapes with bit-identical results, so
    which one runs never changes a number. The first calls time them, in
    `_PLAN_ROUNDS` rounds in which each candidate runs twice in a row and
    its second run is timed. So the timing happens in the caller's own loop
    and makes no call of its own, and each shape meets the heap as it leaves
    it when run back to back (numpy scratch that glibc hands back to the OS
    faults in again on every call). Then the smallest median wins, the
    first on ties, and `call` is that candidate. Each instance times for
    itself, so what a run calls does not depend on what ran before it in
    the process; `plans()` lists the latest pick per key.
    """

    def __init__(self, key: tuple[str, int],
                 candidates: Mapping[str, Callable[[], object]]) -> None:
        self._key = key
        self._names = list(candidates)
        self._calls = list(candidates.values())
        self._times = np.empty((_PLAN_ROUNDS, len(self._calls)))
        self._runs = 0
        self.call = self._timed

    def _timed(self) -> None:
        run = self._runs
        self._runs += 1
        row, slot = divmod(run, 2 * len(self._calls))
        call = self._calls[slot // 2]
        if slot % 2 == 0:
            call()
            return
        start = perf_counter()
        call()
        self._times[row, slot // 2] = perf_counter() - start
        if self._runs == 2 * self._times.size:
            # the middle row after sorting is the median (rounds are odd); np.median
            # would import numpy.ma
            best = int(np.argmin(np.sort(self._times, axis=0)[_PLAN_ROUNDS // 2]))
            _plans[self._key] = self._names[best]
            self.call = self._calls[best]


class NonFiniteFieldError(ValueError):
    """A field contains NaN or infinity where a finite value is required."""


def _first_bad_index(values: np.ndarray) -> int:
    return int(np.flatnonzero(~np.isfinite(values))[0])


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
        """Number of modes the 2/3 rule keeps: j < N/3, the first ceil(N/3)."""
        return -(-self.n_points // 3)

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Boolean 2/3-rule mask on the real-FFT layout: keep |j| < N/3.

        The product of two kept modes then aliases only onto dropped modes,
        also when 3 divides N.
        """
        mask = np.arange(self.n_points // 2 + 1) < self.band
        mask.flags.writeable = False
        return mask

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
            i = _first_bad_index(vals)
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
    """Zero all modes above the 2/3-rule cutoff. Idempotent.

    Operates on the real-FFT layout (length N/2 + 1).
    """
    spec = np.asarray(spectrum)
    if spec.shape != (grid.n_points // 2 + 1,):
        raise ValueError(
            f"expected real-FFT spectrum of length {grid.n_points // 2 + 1}, got {spec.shape}"
        )
    return np.where(grid.dealias_keep, spec, 0.0)


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
