"""Initial-data presets.

The analysis constrains initial data only through two functionals, the
energy E(u0) and the slope minimum min gamma*u0', so the presets are chosen
to make both directly controllable: a Gaussian for smooth low-energy runs
and a sech^2 bump whose steepness knob concentrates the downhill slope.
"""

from __future__ import annotations

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


def field_from_csv(grid: Grid | None, path) -> Field:
    """Read a checkpoint-format CSV (columns x, u) into a Field.

    With grid=None the grid is inferred from the file: L = -x[0] and N is the
    row count, which the 17-digit artifacts reproduce exactly. Either way the
    x column must be the grid's uniform points.
    """
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_rows = len(rows) if grid is None else grid.n_points
    if rows.shape != (n_rows, 2):
        raise ValueError(f"{path}: expected {n_rows} rows of x,u, got shape {rows.shape}")
    if grid is None:
        try:
            grid = Grid(-float(rows[0, 0]), n_rows)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    if not np.allclose(rows[:, 0], grid.x, rtol=0.0, atol=1e-9 * grid.spacing):
        raise ValueError(f"{path}: x column does not match the uniform grid with "
                         f"L = {grid.half_width:g}, N = {grid.n_points}")
    return Field(grid, rows[:, 1])
