"""CSV dataset format: header row carries the grid, data rows carry a label
(or NA) followed by the sampled curve values. Lines whose first non-blank
character is '#' are comments and typically echo the seed/config that
produced the file."""
from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path

import numpy as np

from .design import FunctionalDataset


class DataError(ValueError):
    """Malformed input file (bad header, ragged rows, non-finite cells,
    bad grid/labels, a file that is not UTF-8, or a model file with a
    missing, malformed or inconsistent field)."""


# A line that csv reads as exactly one row: every cell is either wholly
# quoted, with "" as the escaped quote, or unquoted and not starting with a
# quote (csv and loadtxt both keep a later quote as a literal character).
_CELL = r'(?:"(?:[^"]|"")*"|(?:[^,"][^,]*)?)'
_ONE_ROW_LINE = re.compile(f"{_CELL}(?:,{_CELL})*")
# Characters on which np.loadtxt and float() may disagree: loadtxt strips
# '\x1c'-'\x1f' around a number and float() does not; NUL is kept out too.
_LOADTXT_UNSAFE = "\x00\x1c\x1d\x1e\x1f"


def _parse_float(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {row}, column {col}: cannot parse "
                        f"{cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {col}: {cell!r} is not finite")
    return value


def _parse_header(header: list[str]) -> np.ndarray:
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
                        f"increasing at t={float(grid[bad[0] + 1])!r}")
    return grid


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"data file {path} is not UTF-8 text: byte "
                        f"{exc.start} is {exc.object[exc.start]:#04x}") from None


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith("#")


def _read_cells(path: Path, text: str) -> FunctionalDataset:
    """The per-cell reader: csv rows, one float() per cell, and a DataError
    naming the first faulty row and column."""
    lines = [ln for ln in io.StringIO(text, newline="") if not _is_comment(ln)]
    rows = [r for r in csv.reader(lines) if r]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    grid = _parse_header(header)
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


def _one_row_lines(text: str) -> list[str] | None:
    """The nonempty, non-comment lines of ``text``, or None unless csv
    reads each line as one row and loadtxt reads its cells as float() does."""
    text = text.replace("\r\n", "\n")
    if "\r" in text:  # csv ends a row at a lone '\r' too
        return None
    lines = [ln for ln in text.split("\n") if ln and not _is_comment(ln)]
    if any(c in ln for ln in lines for c in _LOADTXT_UNSAFE):
        return None
    if '"' in text and not all(_ONE_ROW_LINE.fullmatch(ln)
                               for ln in lines if '"' in ln):
        return None
    return lines


def _label_cell(cell: str) -> float:
    """A label cell as the per-cell reader takes it, with NA as NaN."""
    cell = cell.strip()
    if cell.upper() == "NA":
        return math.nan
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not finite")
    return value


def _read_table(grid: np.ndarray, lines: list[str]) -> FunctionalDataset | None:
    """The data lines parsed in one np.loadtxt pass, or None when any line
    is not well formed; the per-cell reader then names the fault."""
    try:
        table = np.loadtxt(lines, dtype=np.float64, delimiter=",",
                           comments=None, quotechar='"',
                           converters={0: _label_cell}, ndmin=2)
    except ValueError:
        return None
    labels, values = table[:, 0], np.ascontiguousarray(table[:, 1:])
    if table.shape != (len(lines), grid.size + 1) \
            or not np.isfinite(values).all():
        return None
    if np.isnan(labels).all():
        return FunctionalDataset(grid=grid, values=values)
    if not np.isin(labels, (0.0, 1.0)).all():
        return None
    return FunctionalDataset(grid=grid, values=values,
                             labels=labels.astype(np.int64))


def read_dataset(path) -> FunctionalDataset:
    """Read a dataset file; NA labels are allowed only if every label is NA.

    The data rows of a well-formed file are parsed in one np.loadtxt pass.
    Any other file goes through the per-cell reader, which gives the same
    values bit for bit and names the first faulty row and column.
    """
    path = Path(path)
    text = _read_text(path)
    lines = _one_row_lines(text)
    if lines is not None and len(lines) > 1:
        grid = _parse_header(next(csv.reader(lines[:1])))
        data = _read_table(grid, lines[1:])
        if data is not None:
            return data
    return _read_cells(path, text)


def read_curve(path) -> tuple[np.ndarray, np.ndarray]:
    """(t, value) columns of a curve file such as ``write_csv`` writes: an
    optional header row starting with 't', then rows whose first two cells
    are finite numbers with t strictly increasing; later cells are ignored."""
    path = Path(path)
    rows = [ln.split(",") for ln in _read_text(path).splitlines()
            if ln.strip() and not _is_comment(ln)]
    start = 1 if rows and rows[0][0].lstrip().startswith("t") else 0
    if len(rows) == start:
        raise DataError(f"{path}: no data rows")
    points = []
    for r, row in enumerate(rows[start:], start=start + 1):
        if len(row) < 2:
            raise DataError(f"{path}: row {r}: expected t and a value, "
                            "got one cell")
        points.append([_parse_float(row[0], r, 1), _parse_float(row[1], r, 2)])
    t, values = np.array(points).T
    bad = np.flatnonzero(np.diff(t) <= 0)
    if bad.size:
        raise DataError(f"{path}: row {bad[0] + start + 2}: t not strictly "
                        f"increasing at t={float(t[bad[0] + 1])!r}")
    return t, values


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write a CSV file: each line of ``comment`` as a '# ' line, then the
    header cells and one line per row. Cells are written with ``str``, so a
    float keeps its shortest round-trip form."""
    lines = [f"# {ln}" for ln in comment.splitlines()] if comment else []
    lines.append(",".join(map(str, header)))
    lines.extend(",".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_dataset(path, data: FunctionalDataset, comment: str | None = None) -> None:
    """Write a dataset file; unlabeled rows get NA labels."""
    labels = (["NA"] * data.n_samples if data.labels is None
              else [int(lab) for lab in data.labels.tolist()])
    write_csv(path, ["t", *data.grid.tolist()],
              ([lab, *row] for lab, row in zip(labels, data.values.tolist())),
              comment)
