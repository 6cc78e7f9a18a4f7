"""Deterministic text artifacts: 17-significant-digit CSV and JSON helpers.

Identical inputs must produce byte-identical files, so every float goes
through the same fixed formatting and nothing time- or locale-dependent is
ever written.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def fmt(x: float) -> str:
    """Full round-trip decimal text (17 significant digits)."""
    return format(float(x), ".17g")


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence],
              preamble: str | None = None) -> None:
    """Write rows under a header line (and an optional preamble line).

    The first row fixes each column's format: `%s` where its cell is a
    `str`, otherwise `%.17g`, which writes what `fmt` does. The whole table
    is then formatted with one `%`. A row of another length raises
    ValueError; a cell whose type differs from its column's raises TypeError.
    """
    rows = list(rows)
    lines = [] if preamble is None else [preamble]
    lines.append(",".join(header))
    text = "\n".join(lines) + "\n"
    if rows:
        first = rows[0]
        width = len(first)
        if any(len(row) != width for row in rows):
            raise ValueError(f"every row must have the first row's {width} cells")
        cells = tuple(chain.from_iterable(rows))
        for i, cell in enumerate(first):
            # a number in a str column would format as %s; a str in a number
            # column already makes % raise
            if isinstance(cell, str) and not all(isinstance(c, str) for c in cells[i::width]):
                raise TypeError(f"column {i} mixes str and non-str cells")
        row_template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in first)
        text += (row_template + "\n") * len(rows) % cells
    Path(path).write_text(text)


def write_field_csvs(x: np.ndarray, fields: Iterable[tuple[Path | str, np.ndarray]]) -> None:
    """Write each (path, u) of fields as the `x,u` CSV `write_csv(path, ("x", "u"),
    zip(x, u))` writes. The x column, shared by every file, is formatted once;
    each file then fills in its u column with one `%`."""
    template = "x,u\n" + ("%.17g,%%.17g\n" * len(x)) % tuple(x.tolist())
    for path, u in fields:
        Path(path).write_text(template % tuple(u.tolist()))


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
