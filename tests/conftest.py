import math

import numpy as np
import pytest

from dispwave import Field, Grid


def band_limited_field(grid: Grid, seed: int, amplitude: float = 0.5,
                       modes: int = 24, decay: float = 10.0) -> Field:
    """Random smooth periodic field with spectrum confined far below the
    dealiasing cutoff, so quadratic products are exactly representable."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    j = np.arange(1, modes + 1)
    spec[1:modes + 1] = (rng.normal(size=modes) + 1j * rng.normal(size=modes)) \
        * np.exp(-((j / decay) ** 2))
    vals = np.fft.irfft(spec, n=grid.n_points)
    vals *= amplitude / np.max(np.abs(vals))
    return Field(grid, vals)


@pytest.fixture
def grid_small() -> Grid:
    return Grid(20.0, 256)


@pytest.fixture
def grid_medium() -> Grid:
    return Grid(30.0, 1024)


@pytest.fixture
def transform_count(monkeypatch):
    """Running counts of the rfft/irfft work done through dispwave's bindings.

    "calls" counts FFT calls; "transforms" counts 1-D transforms, so a call
    on a (2, n) array adds 2.
    """
    import dispwave.pde
    import dispwave.spectral

    count = {"transforms": 0, "calls": 0}
    for module in (dispwave.spectral, dispwave.pde):
        for name in ("rfft", "irfft"):
            def counted(a, *args, _transform=getattr(module, name), **kwargs):
                count["transforms"] += math.prod(np.shape(a)[:-1])
                count["calls"] += 1
                return _transform(a, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return count
