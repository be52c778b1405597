"""Property tests of the array-backed interval table."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalreg import (
    Interval,
    IntervalTable,
    read_interval_csv,
    to_center_range,
    write_interval_csv,
)

# Endpoints small enough that every midpoint and half-range is finite;
# signed zeros and subnormals are included.
ENDPOINT = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def tables(draw, min_vars=1):
    """A valid table with variables V0..V{v-1}; V0 is the response when v >= 2."""
    n = draw(st.integers(1, 8))
    v = draw(st.integers(min_vars, 5))
    pairs = draw(st.lists(st.tuples(ENDPOINT, ENDPOINT), min_size=n * v, max_size=n * v))
    ends = np.array([sorted(pair) for pair in pairs]).reshape(n, v, 2)
    names = tuple(f"V{j}" for j in range(v))
    return IntervalTable(names, ends[..., 0], ends[..., 1], "V0" if v >= 2 else None)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(tables())
def test_csv_round_trip_is_exact(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_interval_csv(table, path)
        back = read_interval_csv(path, response=table.response_name)
    assert back.variable_names == table.variable_names
    assert same_bits(back.lower, table.lower)
    assert same_bits(back.upper, table.upper)


@settings(max_examples=60, deadline=None)
@given(tables(min_vars=2), st.data())
def test_view_of_row_subset_is_subset_of_view(table, data):
    idx = data.draw(st.lists(st.integers(0, table.n_rows - 1), min_size=1, max_size=10))
    full = to_center_range(table)
    sub = to_center_range(table.take(idx))
    assert same_bits(sub.centers_X, full.centers_X[idx])
    assert same_bits(sub.centers_y, full.centers_y[idx])
    assert same_bits(sub.halfranges_X, full.halfranges_X[idx])
    assert same_bits(sub.halfranges_y, full.halfranges_y[idx])


@settings(max_examples=60, deadline=None)
@given(tables())
def test_from_rows_then_column_returns_the_same_intervals(table):
    rows = [
        [Interval(table.lower[i, j], table.upper[i, j]) for j in range(len(table.variable_names))]
        for i in range(table.n_rows)
    ]
    rebuilt = IntervalTable.from_rows(table.variable_names, rows, table.response_name)
    for j, name in enumerate(table.variable_names):
        got = rebuilt.column(name)
        assert got == tuple(row[j] for row in rows)
        assert list(map(repr, got)) == [repr(row[j]) for row in rows]  # signed zeros too
