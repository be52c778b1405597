"""Property tests of the array-backed interval table and its CSV readers."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalreg import (
    CsvFormatError,
    IntervalOrderError,
    IntervalTable,
    TableError,
    aggregate_classic,
    aggregate_classic_csv,
    read_classic_csv,
    read_interval_csv,
    to_center_range,
    write_interval_csv,
)
from intervalreg import tables as tables_module
from intervalreg.cli import main as cli_main

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


# ---------------------------------------------------------------------------
# The bulk CSV parse against the record-by-record reader
# ---------------------------------------------------------------------------

PAD = st.sampled_from(["", "", " ", "  ", "\t"])
BLANK_RECORD = st.sampled_from(["", "   ", ",", " , ,"])


@st.composite
def csv_text(draw, records):
    """``records`` (lists of cell strings, header first) as the text of one CSV file.

    A plain draw writes bare ``\\n``-ended records, which the bulk parse reads;
    any other draw mixes in the layouts that only the csv module reads:
    quoted cells, blank and whitespace-only records, CRLF line ends.  Cells
    may be padded with blanks and the last record may lack its newline.
    """
    plain = draw(st.booleans())
    lines = []
    for cells in records:
        out = []
        for cell in cells:
            cell = draw(PAD) + cell + draw(PAD)
            if not plain and draw(st.integers(0, 7)) == 0:
                cell = f'"{cell}"'
            out.append(cell)
        lines.append(",".join(out))
    if not plain:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))), draw(BLANK_RECORD))
    eol = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def number_text(draw, value: float) -> str:
    return draw(st.sampled_from([repr(value), "%.17g" % value]))


def write_text(directory, text: str) -> Path:
    path = Path(directory) / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_bulk_and_exact_interval_readers_agree(table, data):
    header = [f"{n}_{end}" for n in table.variable_names for end in ("lo", "hi")]
    rows = [
        [number_text(data.draw, v) for pair in zip(lo, hi) for v in pair]
        for lo, hi in zip(table.lower.tolist(), table.upper.tolist())
    ]
    text = data.draw(csv_text([header, *rows]))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        got = read_interval_csv(path, response=table.response_name)
        want = tables_module._read_interval_exact(path, table.response_name)
    assert got.variable_names == want.variable_names == table.variable_names
    for ends in ("lower", "upper"):
        assert same_bits(getattr(got, ends), getattr(want, ends))
        assert same_bits(getattr(got, ends), getattr(table, ends))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bulk_and_exact_aggregation_agree(data):
    n_values = data.draw(st.integers(1, 3))
    columns = [f"V{j}" for j in range(n_values)]
    columns.insert(data.draw(st.integers(0, n_values)), "k")
    n = data.draw(st.integers(1, 8))
    rows = [
        [data.draw(st.sampled_from(["a", "b", "k1", "a b"])) if c == "k"
         else number_text(data.draw, data.draw(ENDPOINT)) for c in columns]
        for _ in range(n)
    ]
    text = data.draw(csv_text([columns, *rows]))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        got, n_records = aggregate_classic_csv(path, "k")
        header, cells, numbers = read_classic_csv(path)
        want = aggregate_classic(header, cells, "k", source=(path, numbers))
    assert n_records == len(cells) == n
    assert got.variable_names == want.variable_names
    assert same_bits(got.lower, want.lower) and same_bits(got.upper, want.upper)


# (file text, error type, message); PATH stands for the file's path.
MALFORMED_INTERVAL_FILES = {
    "empty": ("", CsvFormatError, "PATH: file is empty"),
    "header only": ("Y_lo,Y_hi,X_lo,X_hi\n", CsvFormatError, "PATH: no data rows"),
    "missing partner": (
        "Y_lo,Y_hi,X1_lo\n1,2,3\n", CsvFormatError, "variable 'X1' is missing its `_hi` column"
    ),
    "unsuffixed": (
        "Y_lo,Y_hi,state\n1,2,3\n", CsvFormatError,
        "column 'state' has neither `_lo` nor `_hi` suffix",
    ),
    "duplicate": ("Y_lo,Y_hi,Y_lo\n1,2,3\n", CsvFormatError, "duplicate column for variable 'Y'"),
    "reversed": (
        "Y_lo,Y_hi,X_lo,X_hi\n68,44,1,2\n", IntervalOrderError,
        "PATH: variable 'Y', row 1: lower bound 68.0 exceeds upper bound 44.0",
    ),
    "non-numeric": (
        "Y_lo,Y_hi,X_lo,X_hi\nlow,2,1,2\n", CsvFormatError,
        "PATH: non-numeric cell for variable 'Y', row 1",
    ),
    "nan": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n1,2,nan,2\n", CsvFormatError,
        "PATH: variable 'X', row 2: interval endpoints must be finite, got [nan, 2.0]",
    ),
    "inf": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n1,2,1,inf\n", CsvFormatError,
        "PATH: variable 'X', row 2: interval endpoints must be finite, got [1.0, inf]",
    ),
    "overflow": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n2,3,4,5\n3,5,1e308,1.7e308\n4,6,7,8\n", CsvFormatError,
        "PATH: variable 'X', row 3: interval midpoint or half-range overflows: [1e+308, 1.7e+308]",
    ),
    "first fault wins": (
        "Y_lo,Y_hi,X_lo,X_hi\n2,1,3,4\n1,2,oops,4\n", IntervalOrderError,
        "PATH: variable 'Y', row 1: lower bound 2.0 exceeds upper bound 1.0",
    ),
    "blank records counted": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n\n,,,\n1,2,4,3\n", IntervalOrderError,
        "PATH: variable 'X', row 4: lower bound 4.0 exceeds upper bound 3.0",
    ),
    "short record": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n1,2,3\n", CsvFormatError,
        "PATH: row 2 has 3 cells, expected 4",
    ),
    "extra cell": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4,5\n2,3,4,5,6\n", CsvFormatError,
        "PATH: row 1 has 5 cells, expected 4",
    ),
    "# record": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n# note\n2,3,4,5\n", CsvFormatError,
        "PATH: row 2 has 1 cells, expected 4",
    ),
    "trailing comma": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4,\n2,3,4,5,\n", CsvFormatError,
        "PATH: row 1 has 5 cells, expected 4",
    ),
    "quoted non-numeric": (
        'Y_lo,Y_hi,X_lo,X_hi\n"1",2,3,4\n"2",3,"x",5\n', CsvFormatError,
        "PATH: non-numeric cell for variable 'X', row 2",
    ),
    # numpy strips \x1c-\x1f around a number as whitespace; float() does not
    "separator control": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n2,3,4\x1c,5\n", CsvFormatError,
        "PATH: non-numeric cell for variable 'X', row 2",
    ),
    "NUL": (
        "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n2,3,4\x00,5\n", CsvFormatError,
        "PATH: non-numeric cell for variable 'X', row 2",
    ),
    "no predictor": (
        "Y_lo,Y_hi\n1,2\n2,3\n", TableError, "a table with a response needs at least one predictor"
    ),
}

MALFORMED_CLASSIC_FILES = {
    "empty": ("", CsvFormatError, "PATH: file is empty"),
    "header only": ("k,v,w\n", TableError, "classic table is empty"),
    "non-numeric": (
        "k,v,w\na,1,2\n\nb,x,3\n", TableError, "PATH: non-numeric cell in column 'v', row 3: 'x'"
    ),
    "short record": ("k,v,w\na,1,2\n\nb,3\n", TableError, "PATH: row 3 has 2 cells, expected 3"),
    "nan": ("k,v,w\na,1,2\nb,nan,3\n", TableError, "PATH: non-finite cell in column 'v', row 2"),
    "# record": ("k,v,w\na,1,2\n# note\n", TableError, "PATH: row 2 has 1 cells, expected 3"),
    "trailing comma": ("k,v,w\na,1,2,\n", TableError, "PATH: row 1 has 4 cells, expected 3"),
    "separator control": (
        "k,v,w\na,1,2\x1f\n", TableError, "PATH: non-numeric cell in column 'w', row 1: '2\\x1f'"
    ),
    "overflow": (
        "k,v,w\na,1.7e308,1\na,-1.7e308,1\n", TableError,
        "variable 'v', row 0: interval midpoint or half-range overflows: [-1.7e+308, 1.7e+308]",
    ),
    "duplicate column": ("k,v,v\na,1,2\n", TableError, "duplicate variable names in ('v', 'v')"),
    "unnamed column": (
        "k,,w\na,1,2\n", TableError, "variable name must be a non-empty string, got ''"
    ),
    "unknown concept": ("q,v,w\na,1,2\n", TableError, "unknown concept column 'k'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INTERVAL_FILES))
def test_malformed_interval_files_keep_their_errors(case, tmp_path, capsys):
    text, kind, message = MALFORMED_INTERVAL_FILES[case]
    path = write_text(tmp_path, text)
    message = message.replace("PATH", str(path))
    for read in (read_interval_csv, tables_module._read_interval_exact):
        with pytest.raises(kind) as raised:
            read(path, "Y")
        assert type(raised.value) is kind and str(raised.value) == message
    for argv in (
        ["fit", "--method", "cm", "--train", str(path), "--response", "Y",
         "--model-out", str(tmp_path / "m")],
        ["path", "--method", "lasso-cm", "--train", str(path), "--response", "Y",
         "--out", str(tmp_path / "p.csv")],
    ):
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(MALFORMED_CLASSIC_FILES))
def test_malformed_classic_files_keep_their_errors(case, tmp_path, capsys):
    text, kind, message = MALFORMED_CLASSIC_FILES[case]
    path = write_text(tmp_path, text)
    message = message.replace("PATH", str(path))
    with pytest.raises(kind) as raised:
        aggregate_classic_csv(path, "k")
    assert type(raised.value) is kind and str(raised.value) == message
    argv = ["aggregate", "--input", str(path), "--concept", "k", "--output", str(tmp_path / "a")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_field_over_the_csv_limit_is_left_to_the_csv_module(tmp_path):
    path = write_text(tmp_path, "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4.000000000000000000001\n")
    limit = csv.field_size_limit(16)
    try:
        for read in (read_interval_csv, tables_module._read_interval_exact):
            with pytest.raises(csv.Error, match="field larger than field limit"):
                read(path, "Y")
    finally:
        csv.field_size_limit(limit)
    assert read_interval_csv(path, "Y").upper.tolist() == [[2.0, 4.0]]


@pytest.mark.parametrize("text", [
    "Y_lo,Y_hi,X_lo,X_hi\n1_0,2_0,3,4\n",         # float() reads underscores
    "Y_lo,Y_hi,X_lo,X_hi\r\n10,20,3,4\r\n",       # CRLF
    'Y_lo,Y_hi,"X_lo",X_hi\n"10",20,3," 4"\n',    # quoted cells
    "Y_lo,Y_hi,X_lo,X_hi\n\n10,20,3,4\n \n",      # blank records
    "Y_lo,Y_hi,X_lo,X_hi\n١٠,20,3,4\n",         # non-ASCII digits
])
def test_files_only_the_exact_reader_reads(text, tmp_path):
    table = read_interval_csv(write_text(tmp_path, text), "Y")
    assert table.lower.tolist() == [[10.0, 3.0]] and table.upper.tolist() == [[20.0, 4.0]]


@pytest.mark.parametrize("text, bounds", [
    ('k,v\n"a",1\na,2\n', (1.0, 2.0)),        # a quoted key groups with its bare form
    ("v,k\r\n1,a\r\n2,a", (1.0, 2.0)),          # CRLF, the last record without one
    ("k,v\na,1\n\n , \na,2\n", (1.0, 2.0)),    # blank records
    ("k,v\na,1_0\na,2\n", (2.0, 10.0)),        # float() reads underscores
])
def test_classic_files_only_the_exact_reader_reads(text, bounds, tmp_path):
    table, n_records = aggregate_classic_csv(write_text(tmp_path, text), "k")
    assert n_records == 2
    assert table.variable_names == ("v",)
    assert (table.lower.tolist(), table.upper.tolist()) == ([[bounds[0]]], [[bounds[1]]])


def test_clean_files_never_reach_the_record_reader(tmp_path, monkeypatch, capsys):
    def refuse(path):
        raise AssertionError(f"{path} went to the record-by-record reader")

    monkeypatch.setattr(tables_module, "_read_records", refuse)
    train = write_text(tmp_path, "Y_lo,Y_hi,X_lo,X_hi\n1,2, 3 ,4\n2.5,3,4,6\n3,5,5,9")
    table = read_interval_csv(train, "Y")
    assert table.lower.tolist() == [[1, 3], [2.5, 4], [3, 5]]
    classic = tmp_path / "classic.csv"
    classic.write_text("v,k\n1.5,a\n-2,b\n4,a\n", encoding="utf-8")
    agg, n_records = aggregate_classic_csv(classic, "k")
    assert n_records == 3
    assert agg.lower.tolist() == [[1.5], [-2]] and agg.upper.tolist() == [[4], [-2]]
    assert cli_main(["fit", "--method", "cm", "--train", str(train), "--response", "Y",
                     "--model-out", str(tmp_path / "m")]) == 0
    assert cli_main(["aggregate", "--input", str(classic), "--concept", "k",
                     "--output", str(tmp_path / "a.csv")]) == 0
    assert "aggregated 3 rows into 2 concept rows" in capsys.readouterr().out
