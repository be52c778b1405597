"""Interval-valued data tables.

The atomic cell is a closed real interval [lower, upper].  A table keeps
its cells in two (rows x variables) endpoint arrays, with at most one
column designated as the response.  This module also provides the
midpoint / half-range transform used by every regression method, classic
to interval table aggregation, and CSV input/output.

CSV layout: two columns per interval variable, suffixed ``_lo`` and
``_hi`` (e.g. ``Y_lo,Y_hi,X1_lo,X1_hi``).  UTF-8, comma separated, one
header line, decimal point ``.``.  The readers parse a well-formed file
in bulk with ``np.loadtxt`` and fall back to the csv module, record by
record, for every other file; only that reader raises errors, so they
name the faulty record.  :func:`write_csv` writes every CSV file: interval
tables in the shortest float text that reads back exactly, cv curves,
coefficient paths and predictions as ``%.17g``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from itertools import islice
from math import isfinite
from typing import Sequence

import numpy as np

from .solvers import NonFiniteEncountered, Standardized, standardize


class TableError(ValueError):
    """Malformed interval data or classic-table input."""


class CsvFormatError(TableError):
    """Structural problem in a CSV file (header, pairing, cell types)."""


class IntervalOrderError(TableError):
    """A cell with lower > upper."""


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name.strip():
        raise TableError(f"variable name must be a non-empty string, got {name!r}")
    if "," in name or "\n" in name:
        raise TableError(f"variable name may not contain commas or newlines: {name!r}")
    return name


def _cell_problem(lo: float, hi: float) -> TableError | None:
    """The error describing why [lo, hi] is not a valid cell, or None."""
    if not (isfinite(lo) and isfinite(hi)):
        return TableError(f"interval endpoints must be finite, got [{lo}, {hi}]")
    if lo > hi:
        return IntervalOrderError(f"interval lower bound exceeds upper: [{lo}, {hi}]")
    if not (isfinite((lo + hi) / 2.0) and isfinite((hi - lo) / 2.0)):
        return TableError(f"interval midpoint or half-range overflows: [{lo}, {hi}]")
    return None


def _first(mask: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first set entry of a 2-D mask in row-major order."""
    return divmod(int(mask.argmax()), mask.shape[1]) if mask.any() else None


def _first_bad_cell(lower: np.ndarray, upper: np.ndarray) -> tuple[int, int, TableError] | None:
    """Row, column and error of the first cell that :func:`_cell_problem` rejects."""
    with np.errstate(all="ignore"):
        ok = np.isfinite((lower + upper) / 2.0) & np.isfinite((upper - lower) / 2.0)
    bad = _first(~(ok & (lower <= upper)))
    return None if bad is None else (*bad, _cell_problem(float(lower[bad]), float(upper[bad])))


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Named interval columns, optionally with one designated response.

    ``variable_names`` keeps the source column order; ``lower`` and
    ``upper`` are read-only n x (number of variables) float64 arrays of
    cell endpoints, each cell ordered with a finite midpoint and half-range.
    A table with ``response_name=None`` is predictor-only (prediction
    input, aggregation output).  Immutable, safe to share, equal only to itself.
    """

    variable_names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    response_name: str | None = None

    def __post_init__(self):
        names = tuple(_check_name(n) for n in self.variable_names)
        if len(set(names)) != len(names):
            raise TableError(f"duplicate variable names in {names}")
        lower = np.array(self.lower, dtype=np.float64, order="C")
        upper = np.array(self.upper, dtype=np.float64, order="C")
        if lower.shape != upper.shape or lower.shape[1:] != (len(names),):
            raise TableError(f"lower and upper need the same shape (rows, {len(names)})")
        if not lower.shape[0]:
            raise TableError("table needs at least one row")
        if not names:
            raise TableError("table needs at least one variable")
        bad = _first_bad_cell(lower, upper)
        if bad is not None:
            i, j, problem = bad
            raise type(problem)(f"variable {names[j]!r}, row {i}: {problem}")
        if self.response_name is not None:
            if self.response_name not in names:
                raise TableError(
                    f"response {self.response_name!r} is not a table variable"
                )
            if len(names) < 2:
                raise TableError("a table with a response needs at least one predictor")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_rows(self) -> int:
        return self.lower.shape[0]

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.variable_names if n != self.response_name)

    def take(self, indices: Sequence[int]) -> "IntervalTable":
        """Row subset in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, lower=self.lower[idx], upper=self.upper[idx])


@dataclass(frozen=True, eq=False)
class CenterRangeView:
    """Midpoint and half-range matrices derived from an interval table.

    ``centers_X[i, j] = (a_ij + b_ij) / 2`` and
    ``halfranges_X[i, j] = (b_ij - a_ij) / 2``; likewise for the response
    vectors.  Reconstructing ``[c - r, c + r]`` recovers the source
    endpoints up to floating rounding of the (c, r) pair.  A view standardizes
    each regression once (:meth:`standardized`); :meth:`take` cuts a fold's rows.
    """

    centers_X: np.ndarray
    centers_y: np.ndarray
    halfranges_X: np.ndarray
    halfranges_y: np.ndarray
    predictor_names: tuple[str, ...] = ()
    _standardized: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.centers_X, self.centers_y, self.halfranges_X, self.halfranges_y):
            arr.flags.writeable = False

    def design(self, component: str) -> tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` of one regression: half-ranges for ``"range"``, else midpoints."""
        if component == "range":
            return self.halfranges_X, self.halfranges_y
        return self.centers_X, self.centers_y

    def standardized(self, component: str) -> Standardized:
        """:meth:`design`'s :func:`~intervalreg.solvers.standardize`, cached on the view
        (a crm support run's half-ranges are a :func:`~intervalreg.solvers.restrict` of
        it).  A response whose sums overflow (a non-finite ``q``) raises
        :class:`~intervalreg.solvers.NonFiniteEncountered` naming the regression, on
        every read, so a design :meth:`take` standardized raises when it is first used."""
        key = component == "range"
        std = self._standardized.get(key)
        if std is None:
            std = self._standardized[key] = standardize(*self.design(component))
        if not np.isfinite(std.q).all():
            part = "half-ranges" if component == "range" else "midpoints"
            raise NonFiniteEncountered(f"sums of the response's {part} overflow; "
                                       "the regression on them cannot be fitted")
        return std

    def take(self, rows: np.ndarray, components: Sequence[str]) -> list["CenterRangeView"]:
        """The views of the row subsets ``rows[i]`` of an ``(m, r)`` index array, each in
        its given order.  Each array is gathered for all m views at once, and the
        :meth:`design` of each of ``components`` is standardized in one stacked
        :func:`~intervalreg.solvers.standardize` call whose element i view i's cache holds."""
        arrays = [a[rows] for a in (self.centers_X, self.centers_y,
                                    self.halfranges_X, self.halfranges_y)]
        views = [CenterRangeView(*(a[i] for a in arrays), self.predictor_names)
                 for i in range(len(rows))]
        for component in components:
            X, y = arrays[2:] if component == "range" else arrays[:2]
            for view, std in zip(views, standardize(X, y)):
                view._standardized[component == "range"] = std
        return views


def to_center_range(table: IntervalTable) -> CenterRangeView:
    """Split a table into midpoint and half-range design matrices."""
    if table.response_name is None:
        raise TableError("center/range view needs a designated response")
    X_lo, X_hi = predictor_bounds(table)
    y_lo, y_hi = response_bounds(table)
    return CenterRangeView(
        (X_lo + X_hi) / 2.0, (y_lo + y_hi) / 2.0,
        (X_hi - X_lo) / 2.0, (y_hi - y_lo) / 2.0,
        predictor_names=table.predictor_names,
    )


def columns(table: IntervalTable, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper endpoint matrices of the named variables, in ``names`` order: C-order
    ``np.take`` copies, so a matrix product with them rounds the same for every caller."""
    idx = [table.variable_names.index(n) for n in names]
    return np.take(table.lower, idx, axis=1), np.take(table.upper, idx, axis=1)


def predictor_bounds(table: IntervalTable) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper endpoint matrices of the predictor columns (n x p)."""
    return columns(table, table.predictor_names)


def response_bounds(table: IntervalTable) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper endpoint vectors of the response column."""
    if table.response_name is None:
        raise TableError("table has no designated response")
    j = table.variable_names.index(table.response_name)
    return table.lower[:, j].copy(), table.upper[:, j].copy()


# ---------------------------------------------------------------------------
# Cell parsing shared by aggregation and the CSV reader
# ---------------------------------------------------------------------------

def _float_or_none(cell) -> float | None:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _parse_grid(records: Sequence[Sequence], width: int, cols: list[int]):
    """Index k of the first record without ``width`` cells, records[:k] as an object
    grid, and ``float()`` of its ``cols``, NaN where that fails (the cast reads None as NaN)."""
    k = next((i for i, rec in enumerate(records) if len(rec) != width), len(records))
    cells = np.array(records[:k], dtype=object).reshape(k, width)
    try:
        return k, cells, cells[:, cols].astype(float)
    except (TypeError, ValueError):
        return k, cells, np.frompyfunc(_float_or_none, 1, 1)(cells[:, cols]).astype(float)


# ---------------------------------------------------------------------------
# Classic-table aggregation
# ---------------------------------------------------------------------------

def _value_columns(columns: list[str], concept: str, value_columns) -> list[str]:
    """The checked value columns of a classic table; all but ``concept`` by default."""
    if concept not in columns:
        raise TableError(f"unknown concept column {concept!r}")
    if value_columns is None:
        value_columns = [c for c in columns if c != concept]
    value_columns = list(value_columns)
    for c in value_columns:
        if c not in columns:
            raise TableError(f"unknown value column {c!r}")
    if not value_columns:
        raise TableError("no value columns to aggregate")
    return value_columns


def _group_bounds(keys, values: np.ndarray, value_columns: list[str]) -> IntervalTable:
    """``[min, max]`` of each value column per distinct key, keys in order of first appearance."""
    groups: dict = {}  # concept value -> output row
    group = [groups.setdefault(key, len(groups)) for key in keys]
    lower = np.full((len(groups), len(value_columns)), np.inf)
    upper = -lower
    np.minimum.at(lower, group, values)
    np.maximum.at(upper, group, values)
    return IntervalTable(tuple(value_columns), lower, upper)


def aggregate_classic(
    columns: Sequence[str],
    rows: Sequence[Sequence],
    concept: str,
    value_columns: Sequence[str] | None = None,
    source: tuple[str, Sequence[int]] | None = None,
) -> IntervalTable:
    """Group a classic (single-valued) table and summarize columns as intervals.

    One output row per distinct value of the ``concept`` column, ordered by
    first appearance; every value column becomes ``[min, max]`` over its
    group.  The result has no designated response.

    Parameters
    ----------
    columns : column names of the classic table.
    rows : cell grid; value-column cells must parse as decimal numbers.
    concept : name of the grouping column (string or numeric values).
    value_columns : columns to aggregate; defaults to all except ``concept``.
    source : ``(path, record numbers)`` from :func:`read_classic_csv`; row
        errors then name the file and record, not the 0-based row index.
    """
    columns = list(columns)
    value_columns = _value_columns(columns, concept, value_columns)
    if not rows:
        raise TableError("classic table is empty")

    path, numbers = source or (None, range(len(rows)))
    at = "" if path is None else f"{path}: "
    value_idx = [columns.index(c) for c in value_columns]
    k, cells, values = _parse_grid(rows, len(columns), value_idx)
    bad = _first(~np.isfinite(values))
    if bad is not None:
        i, c = bad
        cell, where = cells[i, value_idx[c]], f"column {value_columns[c]!r}, row {numbers[i]}"
        if _float_or_none(cell) is None:
            raise TableError(f"{at}non-numeric cell in {where}: {cell!r}")
        raise TableError(f"{at}non-finite cell in {where}")
    if k < len(rows):
        raise TableError(f"{at}row {numbers[k]} has {len(rows[k])} cells, expected {len(columns)}")
    return _group_bounds(cells[:, columns.index(concept)], values, value_columns)


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

def _parse_header(header: Sequence[str]) -> tuple[list[str], list[int], list[int]]:
    """Variable names in file order and the indices of their `_lo`/`_hi` columns."""
    seen: dict[str, list[int | None]] = {}
    for idx, col in enumerate(c.strip() for c in header):
        name, suffix = col[:-3], col[-3:]
        if suffix not in ("_lo", "_hi"):
            raise CsvFormatError(f"column {col!r} has neither `_lo` nor `_hi` suffix")
        if not name:
            raise CsvFormatError(f"column {col!r} has an empty variable name")
        slots = seen.setdefault(name, [None, None])
        if slots[suffix == "_hi"] is not None:
            raise CsvFormatError(f"duplicate column for variable {name!r}")
        slots[suffix == "_hi"] = idx
    for name, slots in seen.items():
        for idx, suffix in zip(slots, ("_lo", "_hi")):
            if idx is None:
                raise CsvFormatError(f"variable {name!r} is missing its `{suffix}` column")
    return list(seen), [s[0] for s in seen.values()], [s[1] for s in seen.values()]


def _read_records(path) -> tuple[list[str], np.ndarray, list[list[str]]]:
    """Header, numbers and cells of a CSV file's non-blank records; records are
    numbered from 1 after the header, counting the skipped blank ones."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: file is empty")
        records = list(reader)
    keep = [any(map(str.strip, rec)) for rec in records]
    return header, np.flatnonzero(keep) + 1, [rec for rec, k in zip(records, keep) if k]


#: Characters that leave a file to the exact reader: csv quoting, record ends
#: other than ``\n``, NUL (which the csv module rejects before Python 3.11), and
#: ``\x1c``-``\x1f``, which numpy strips around a number as whitespace but
#: ``float()`` does not.
_EXACT_ONLY = ('"', "\r", "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _bulk_lines(path) -> list[str]:
    """Header and body lines of a file that the bulk parse may read.

    Raises OSError or ValueError for a file that cannot be read, has no
    body line, holds a character of ``_EXACT_ONLY`` or a line longer than
    the csv module's field limit; the exact reader reads or rejects those.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    if any(ch in text for ch in _EXACT_ONLY):
        raise ValueError("not a plain CSV file")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last record
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        raise ValueError("no body line, or a line over the field limit")
    return lines


def _bulk_values(lines: list[str], usecols=None) -> np.ndarray:
    """float64 cells of the body lines in one ``np.loadtxt`` pass.

    Raises ValueError if a used cell does not parse or loadtxt skips a
    (blank) line.  Without ``usecols``, loadtxt also checks that every line
    has as many cells as the first.
    """
    values = np.loadtxt(
        lines, delimiter=",", comments=None, skiprows=1, usecols=usecols, ndmin=2
    )
    if len(values) != len(lines) - 1:
        raise ValueError("a blank record")
    return values


def _read_interval_bulk(path, response: str | None) -> IntervalTable:
    lines = _bulk_lines(path)
    header = lines[0].split(",")
    order, lo_cols, hi_cols = _parse_header(header)
    values = _bulk_values(lines)
    del lines  # free the text before the table copies the values
    if values.shape[1] != len(header):
        raise ValueError("record width differs from the header")
    return IntervalTable(tuple(order), values[:, lo_cols], values[:, hi_cols], response)


def read_interval_csv(path, response: str | None = None) -> IntervalTable:
    """Read an interval table from a `_lo`/`_hi` paired CSV file.

    ``response`` optionally designates the response variable; prediction
    inputs may leave it unset.  Errors name the first faulty record by its
    number after the header, counting the blank records that are skipped.

    A well-formed file of unquoted, LF-terminated records is parsed in one
    ``np.loadtxt`` pass.  Any other file, and any file with a fault, is read
    record by record through the csv module, which alone raises the errors.
    """
    try:
        return _read_interval_bulk(path, response)
    except (OSError, ValueError):
        pass  # the exact reader reads the file or raises its error
    return _read_interval_exact(path, response)


def _read_interval_exact(path, response: str | None) -> IntervalTable:
    """:func:`read_interval_csv` record by record, through the csv module."""
    header, linenos, records = _read_records(path)
    order, lo_cols, hi_cols = _parse_header(header)
    if not records:
        raise CsvFormatError(f"{path}: no data rows")
    k, cells, values = _parse_grid(records, len(header), lo_cols + hi_cols)
    lower, upper = np.hsplit(values, 2)
    bad = _first_bad_cell(lower, upper)
    if bad is not None:
        i, j, problem = bad
        where = f"variable {order[j]!r}, row {linenos[i]}"
        if None in (_float_or_none(cells[i, lo_cols[j]]), _float_or_none(cells[i, hi_cols[j]])):
            raise CsvFormatError(f"{path}: non-numeric cell for {where}")
        if isinstance(problem, IntervalOrderError):
            lo, hi = float(lower[i, j]), float(upper[i, j])
            raise IntervalOrderError(f"{path}: {where}: lower bound {lo} exceeds upper bound {hi}")
        raise CsvFormatError(f"{path}: {where}: {problem}")
    if k < len(records):
        raise CsvFormatError(
            f"{path}: row {linenos[k]} has {len(records[k])} cells, expected {len(header)}"
        )
    return IntervalTable(tuple(order), lower, upper, response_name=response)


def write_interval_csv(table: IntervalTable, path) -> None:
    """Write a table in the paired `_lo`/`_hi` CSV layout.

    The response designation is not part of the file format; it is chosen
    again when the file is read.  Endpoints round-trip exactly.
    """
    header = [f"{n}_{end}" for n in table.variable_names for end in ("lo", "hi")]
    ends = [e[:, j] for j in range(len(table.variable_names)) for e in (table.lower, table.upper)]
    write_csv(path, header, ends, "%r")


def write_csv(path, header: Sequence[str], columns, float_format: str) -> None:
    """Write ``header`` through ``csv.writer``, which quotes a name as needed, then a line
    per entry of the equal-length ``columns``, LF-ended: one ``%``-format of its numbers,
    integer columns as ``%d`` and float columns as ``float_format``."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%d" if c.dtype.kind in "iu" else float_format for c in columns) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(line % row for row in zip(*(c.tolist() for c in columns)))


def read_classic_csv(path) -> tuple[list[str], list[list[str]], np.ndarray]:
    """Read a classic CSV as (header, raw string rows, their record numbers);
    parsing happens later, in :func:`aggregate_classic`."""
    header, numbers, rows = _read_records(path)
    return [c.strip() for c in header], rows, numbers


def _aggregate_bulk(path, concept: str, value_columns) -> tuple[IntervalTable, int]:
    lines = _bulk_lines(path)
    columns = [c.strip() for c in lines[0].split(",")]
    value_columns = _value_columns(columns, concept, value_columns)
    if any(ln.count(",") != len(columns) - 1 for ln in islice(lines, 1, None)):
        raise ValueError("record width differs from the header")
    values = _bulk_values(lines, [columns.index(c) for c in value_columns])
    c = columns.index(concept)
    keys = [ln.split(",", c + 1)[c] for ln in islice(lines, 1, None)]
    return _group_bounds(keys, values, value_columns), len(keys)


def aggregate_classic_csv(
    path, concept: str, value_columns: Sequence[str] | None = None
) -> tuple[IntervalTable, int]:
    """:func:`aggregate_classic` of a classic CSV file, and its number of records.

    A well-formed file is parsed in bulk: ``np.loadtxt`` reads the value
    columns and the concept keys are split from the lines.  Any other file,
    and any file with a fault, goes through :func:`read_classic_csv`, whose
    errors name the file and record.
    """
    try:
        return _aggregate_bulk(path, concept, value_columns)
    except (OSError, ValueError):
        pass  # the exact reader reads the file or raises its error
    columns, rows, numbers = read_classic_csv(path)
    table = aggregate_classic(columns, rows, concept, value_columns, source=(path, numbers))
    return table, len(rows)
