"""CSV dataset format: header row carries the grid, data rows carry a label
(or NA) followed by the sampled curve values. Lines whose first non-blank
character is '#' are comments and typically echo the seed/config that
produced the file."""
from __future__ import annotations

import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np

from .design import FunctionalDataset


class DataError(ValueError):
    """Malformed input file (bad header, ragged rows, non-finite cells,
    bad grid/labels, a file that is not UTF-8, or a model file with a
    missing, malformed or inconsistent field)."""


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
    rows = []
    try:
        for row in csv.reader(lines):
            if row:
                rows.append(row)
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise DataError(f"row {len(rows) + 1}: {exc}") from None
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


class _NotOneRow(ValueError):
    """A line that holds a quote, whose cells loadtxt may not read as
    float() does, or with a cell longer than csv reads."""


def _checked_lines(fh):
    """The nonempty, non-comment lines of ``fh`` without their line ends;
    _NotOneRow at the first line that csv and loadtxt may read differently
    from the per-cell reader. ``write_csv`` never quotes, so a line with a
    quote goes to the per-cell reader. ``fh`` is opened with newline=""."""
    limit = csv.field_size_limit()
    for line in fh:
        line = line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")
        if "\r" in line:  # csv ends a row at a lone '\r' too
            raise _NotOneRow
        if not line or _is_comment(line):
            continue
        if '"' in line or any(c in line for c in _LOADTXT_UNSAFE):
            raise _NotOneRow
        # loadtxt has no cell size limit; csv stops at one
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            raise _NotOneRow
        yield line


def _label_cell(cell: str) -> float:
    """A label cell as the per-cell reader takes it, with NA as NaN."""
    cell = cell.strip()
    if cell.upper() == "NA":
        return math.nan
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not finite")
    return value


def _read_table(path: Path) -> FunctionalDataset | None:
    """The file parsed in one pass, its data lines streamed into np.loadtxt,
    or None when it is not UTF-8 or any line is not well formed; the
    per-cell reader then names the fault."""
    n_lines = 0

    def counted(lines):
        nonlocal n_lines
        for n_lines, line in enumerate(lines, start=1):
            yield line

    try:
        with path.open(encoding="utf-8", newline="") as fh:
            lines = _checked_lines(fh)
            grid = _parse_header(next(lines).split(","))
            first = next(lines)  # loadtxt warns on a file without data rows
            table = np.loadtxt(counted(itertools.chain([first], lines)),
                               dtype=np.float64, delimiter=",", comments=None,
                               converters={0: _label_cell}, ndmin=2)
    except (StopIteration, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if table.shape != (n_lines, grid.size + 1):
        return None
    labels = table[:, 0].copy()
    values = np.ascontiguousarray(table[:, 1:])
    del table  # so that only the copy outlives the copying
    if not np.isfinite(values).all():
        return None
    if np.isnan(labels).all():
        return FunctionalDataset(grid=grid, values=values)
    if not np.isin(labels, (0.0, 1.0)).all():
        return None
    return FunctionalDataset(grid=grid, values=values,
                             labels=labels.astype(np.int64))


def read_dataset(path) -> FunctionalDataset:
    """Read a dataset file; NA labels are allowed only if every label is NA.

    The file is read line by line and its data rows are parsed in one
    np.loadtxt pass. Any other file is read again by the per-cell reader,
    which gives the same values bit for bit and names the first faulty row
    and column.
    """
    path = Path(path)
    data = _read_table(path)
    if data is None:
        data = _read_cells(path, _read_text(path))
    return data


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
    header cells and one line per row, each written as it is formatted.
    Cells are written with ``str``, so a float keeps its shortest round-trip
    form."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.writelines(f"# {ln}\n" for ln in comment.splitlines())
        fh.write(",".join(map(str, header)) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_dataset(path, data: FunctionalDataset, comment: str | None = None) -> None:
    """Write a dataset file, one row at a time; unlabeled rows get NA labels."""
    labels = (["NA"] * data.n_samples if data.labels is None
              else [int(lab) for lab in data.labels.tolist()])
    write_csv(path, ["t", *data.grid.tolist()],
              ([lab, *row.tolist()] for lab, row in zip(labels, data.values)),
              comment)
