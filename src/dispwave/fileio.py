"""Deterministic text artifacts: 17-significant-digit CSV and JSON helpers.

Identical inputs must produce byte-identical files, so every cell that is not a
`str` goes through `fmt` and nothing time- or locale-dependent is ever written.
The checkpoint `x,u` field CSV is written and read here: `write_field_csvs` is its
fast path, which formats the shared x column once, and `field_from_csv` reads it back.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .spectral import Field, Grid


def fmt(x: float) -> str:
    """Full round-trip decimal text (17 significant digits)."""
    return format(float(x), ".17g")


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence],
              preamble: str | None = None) -> None:
    """Write rows under a header line (and an optional preamble line): a `str` cell
    as is, any other through `fmt`. A row not as long as the header raises ValueError."""
    lines = [] if preamble is None else [preamble]
    lines.append(",".join(header))
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"every row must have the header's {len(header)} cells")
        lines.append(",".join(c if isinstance(c, str) else fmt(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_field_csvs(x: np.ndarray, fields: Iterable[tuple[Path | str, np.ndarray]]) -> None:
    """Write each (path, u) of fields as the `x,u` CSV `write_csv(path, ("x", "u"),
    zip(x, u))` writes. The x column, shared by every file, is formatted once;
    each file then fills in its u column with one `%`."""
    template = "x,u\n" + ("%.17g,%%.17g\n" * len(x)) % tuple(x.tolist())
    for path, u in fields:
        Path(path).write_text(template % tuple(u.tolist()))


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


def jsonable(obj):
    """Recursively convert to JSON-safe values; infinities become 'infinite'."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "infinite" if obj > 0 else "-infinite"
        if math.isnan(obj):
            return "nan"
        return obj
    return obj


def json_text(payload: dict) -> str:
    """The one layout of every JSON artifact: jsonable, indented, keys sorted."""
    return json.dumps(jsonable(payload), indent=2, sort_keys=True)


def write_json(path: Path | str, payload: dict) -> None:
    Path(path).write_text(json_text(payload) + "\n")
