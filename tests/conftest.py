import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import dispwave
from dispwave import Field, Grid, PdeParams, SolverConfig, simulate, steep_bump


def fresh_interpreter_env() -> dict[str, str]:
    """os.environ with this dispwave's src first on PYTHONPATH: the environment
    of a new interpreter that imports the dispwave under test."""
    src = str(Path(dispwave.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


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


def band_mask(grid: Grid) -> np.ndarray:
    """The 2/3 rule's keep mask on the real-FFT layout: True for the first grid.band modes."""
    return np.arange(grid.n_points // 2 + 1) < grid.band


@pytest.fixture(scope="session")
def breaking_run():
    """Acceptance 7's run: (u0, params, result) for steep_bump(1, 3) at gamma = 1,
    simulated to |m| = 20; the suite's longest run, so it is simulated once."""
    # resolution chosen so the slope minimum is faithful down to the
    # threshold and the argmin sawtooth stays below the per-sample collapse
    u0 = steep_bump(Grid(6.0, 16384), 1.0, 3.0)
    p = PdeParams(1.0, 0.0)
    cfg = SolverConfig(t_end=2.0, sample_interval=0.004,
                       blowup_m_threshold=20.0, dt_min=1e-10)
    return u0, p, simulate(u0, p, cfg)


@pytest.fixture(scope="session")
def gamma_zero_twin():
    """The result of breaking_run's initial function with gamma switched off, to t = 50."""
    u0 = steep_bump(Grid(6.0, 4096), 1.0, 3.0)
    cfg = SolverConfig(t_end=50.0, dt_init=0.05, sample_interval=1.0)
    return simulate(u0, PdeParams(0.0, 0.0), cfg)


@pytest.fixture
def grid_small() -> Grid:
    return Grid(20.0, 256)


@pytest.fixture
def grid_medium() -> Grid:
    return Grid(30.0, 1024)


@pytest.fixture
def transform_count(monkeypatch):
    """Running counts of the rfft/irfft work done through dispwave's bindings.

    Every loaded dispwave module that binds either name is patched.
    "calls" counts FFT calls; "transforms" counts 1-D transforms, so a call
    on a (2, n) array adds 2.
    """
    modules = [m for key, m in sys.modules.items() if key.startswith("dispwave.")]
    count = {"transforms": 0, "calls": 0}
    for module in modules:
        for name in ("rfft", "irfft"):
            if not hasattr(module, name):
                continue
            def counted(a, *args, _transform=getattr(module, name), **kwargs):
                count["transforms"] += math.prod(np.shape(a)[:-1])
                count["calls"] += 1
                return _transform(a, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return count
