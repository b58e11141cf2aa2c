"""CSV dataset format: header row carries the grid, data rows carry a label
(or NA) followed by the sampled curve values. Lines starting with '#' are
comments and typically echo the seed/config that produced the file."""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .design import FunctionalDataset


class DataError(ValueError):
    """Malformed input file (bad header, ragged rows, non-finite cells,
    bad grid/labels, or a model file with a missing, malformed or
    inconsistent field)."""


def _parse_float(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {row}, column {col}: cannot parse "
                        f"{cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {col}: {cell!r} is not finite")
    return value


def read_dataset(path) -> FunctionalDataset:
    """Read a dataset file; NA labels are allowed only if every label is NA."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if header[0].strip() != "t":
        raise DataError(f"row 1, column 1: header must start with 't', "
                        f"got {header[0]!r}")
    if len(header) < 3:
        raise DataError("row 1: grid needs at least 2 points")
    grid = np.array([_parse_float(c, 1, i + 2)
                     for i, c in enumerate(header[1:])])
    bad = np.flatnonzero(np.diff(grid) <= 0)
    if bad.size:
        raise DataError(f"row 1, column {bad[0] + 3}: grid not strictly "
                        f"increasing at t={grid[bad[0] + 1]!r}")
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")

    labels: list[float | None] = []
    values = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"row {r}: expected {len(header)} cells, "
                            f"got {len(row)}")
        cell = row[0].strip()
        if cell.upper() == "NA":
            labels.append(None)
        else:
            lab = _parse_float(cell, r, 1)
            if lab not in (0.0, 1.0):
                raise DataError(f"row {r}, column 1: label must be 0, 1 or NA")
            labels.append(lab)
        values.append([_parse_float(c, r, i + 2) for i, c in enumerate(row[1:])])

    n_na = sum(lab is None for lab in labels)
    if n_na == len(labels):
        return FunctionalDataset(grid=grid, values=np.array(values))
    if n_na > 0:
        first = next(r for r, lab in enumerate(labels, start=2) if lab is None)
        raise DataError(f"row {first}, column 1: NA labels are only allowed "
                        "when every label is NA")
    return FunctionalDataset(grid=grid, values=np.array(values),
                             labels=np.array(labels, dtype=np.int64))


def write_dataset(path, data: FunctionalDataset, comment: str | None = None) -> None:
    """Write a dataset file; unlabeled rows get NA labels."""
    lines = []
    if comment:
        lines.extend(f"# {ln}" for ln in comment.splitlines())
    lines.append("t," + ",".join(repr(float(t)) for t in data.grid))
    for i in range(data.n_samples):
        label = "NA" if data.labels is None else str(int(data.labels[i]))
        lines.append(label + "," + ",".join(repr(float(v))
                                            for v in data.values[i]))
    Path(path).write_text("\n".join(lines) + "\n")
