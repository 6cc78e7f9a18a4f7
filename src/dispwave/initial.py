"""Initial-data presets.

The analysis constrains initial data only through two functionals, the
energy E(u0) and the slope minimum min gamma*u0', so the presets are chosen
to make both directly controllable: a Gaussian for smooth low-energy runs
and a sech^2 bump whose steepness knob concentrates the downhill slope.
"""

from __future__ import annotations

import warnings

import numpy as np

from .spectral import Field, Grid


def gaussian_bump(grid: Grid, amplitude: float, width: float, center: float = 0.0) -> Field:
    """amplitude * exp(-((x - center)/width)^2)."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return Field(grid, amplitude * np.exp(-(((grid.x - center) / width) ** 2)))


def steep_bump(grid: Grid, amplitude: float, steepness: float, center: float = 0.0) -> Field:
    """amplitude * sech^2(steepness * (x - center)).

    min u' = -(4/(3*sqrt(3))) * amplitude * steepness, so the breaking
    criterion can be hit at will while the energy grows only linearly in
    the steepness.
    """
    if steepness <= 0:
        raise ValueError(f"steepness must be positive, got {steepness}")
    return Field(grid, amplitude / np.cosh(steepness * (grid.x - center)) ** 2)


def field_from_csv(grid: Grid, path) -> Field:
    """Read a checkpoint-format CSV (columns x, u) on `grid` into a Field.

    The x column must be the grid's uniform points.
    """
    try:
        with warnings.catch_warnings():  # a table with no rows fails the shape check instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:  # a cell that is not a number
        raise ValueError(f"{path}: {err}") from err
    if rows.shape != (grid.n_points, 2):
        raise ValueError(f"{path}: expected {grid.n_points} rows of x,u, got shape {rows.shape}")
    if not np.allclose(rows[:, 0], grid.x, rtol=0.0, atol=1e-9 * grid.spacing):
        raise ValueError(f"{path}: x column does not match the uniform grid with "
                         f"L = {grid.half_width:g}, N = {grid.n_points}")
    return Field(grid, rows[:, 1])
