import re

import numpy as np
import pytest

from intervalreg import (
    CsvFormatError,
    IntervalOrderError,
    IntervalTable,
    TableError,
    aggregate_classic,
    read_classic_csv,
    read_interval_csv,
    to_center_range,
    write_interval_csv,
)
from intervalreg.tables import _read_interval_bulk, predictor_bounds, response_bounds

from conftest import DATA_DIR, assert_same_table, make_cardio_table, random_interval_table


class TestIntervalTable:
    def test_duplicate_names_rejected(self):
        with pytest.raises(TableError):
            IntervalTable(("A", "A"), [[0.0, 0.0]], [[1.0, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(TableError):
            IntervalTable(("A",), np.zeros((0, 1)), np.zeros((0, 1)))

    @pytest.mark.parametrize("name", ["A,B", "A\nB"])
    def test_a_name_with_a_comma_or_newline_is_rejected(self, name):
        with pytest.raises(TableError, match=r"^variable name may not contain commas or "
                                             rf"newlines: {re.escape(repr(name))}$"):
            IntervalTable((name,), [[0.0]], [[1.0]])

    def test_a_table_without_variables_is_rejected(self):
        with pytest.raises(TableError, match="^table needs at least one variable$"):
            IntervalTable((), np.zeros((1, 0)), np.zeros((1, 0)))

    def test_unknown_response_rejected(self):
        with pytest.raises(TableError):
            IntervalTable(("A",), [[0.0]], [[1.0]], response_name="Z")

    def test_response_needs_a_predictor(self):
        with pytest.raises(TableError):
            IntervalTable(("A",), [[0.0]], [[1.0]], response_name="A")

    @pytest.mark.parametrize("lo, hi, error, message", [
        (2.0, 1.0, IntervalOrderError, "exceeds"),
        (np.nan, 1.0, TableError, "must be finite"),
        (0.0, np.inf, TableError, "must be finite"),
    ], ids=["reversed", "nan", "inf"])
    def test_bad_cell_names_variable_and_row(self, lo, hi, error, message):
        # row 2 is bad too: the first bad cell in row-major order is named
        lower = np.array([[0.0, 1.0], [3.0, lo], [0.0, np.nan]])
        upper = np.array([[1.0, 2.0], [3.0, hi], [1.0, 1.0]])
        with pytest.raises(error, match=rf"variable 'B', row 1: .*{message}"):
            IntervalTable(("A", "B"), lower, upper)

    @pytest.mark.parametrize("lo, hi", [(1e308, 1.7e308), (-1e308, 1e308)])
    def test_overflowing_midpoint_or_half_range_names_variable_and_row(self, lo, hi):
        lower = np.array([[0.0, 1.0], [lo, 2.0]])
        upper = np.array([[1.0, 2.0], [hi, 3.0]])
        with pytest.raises(TableError, match=r"variable 'A', row 1: .*overflows"):
            IntervalTable(("A", "B"), lower, upper)

    def test_endpoint_shapes_checked(self):
        with pytest.raises(TableError, match="shape"):
            IntervalTable(("A", "B"), np.zeros((3, 2)), np.zeros((3, 1)))

    def test_endpoints_are_read_only_copies(self):
        lower, upper = np.zeros((2, 2)), np.ones((2, 2))
        table = IntervalTable(("A", "B"), lower, upper)
        lower[0, 0] = -5.0
        assert table.lower[0, 0] == 0.0
        with pytest.raises(ValueError):
            table.upper[0, 0] = 9.0

    def test_predictor_names_keep_order(self, cardio):
        assert cardio.predictor_names == ("Systolic", "Diastolic")

    def test_take_selects_rows(self, cardio):
        sub = cardio.take([2, 0])
        assert sub.n_rows == 2
        assert np.array_equal(sub.lower, cardio.lower[[2, 0]])
        assert np.array_equal(sub.upper, cardio.upper[[2, 0]])


class TestCenterRange:
    def test_design_picks_component(self, cardio):
        view = to_center_range(cardio)
        X, y = view.design("center")
        assert X is view.centers_X and y is view.centers_y
        X, y = view.design("range")
        assert X is view.halfranges_X and y is view.halfranges_y

    def test_cardio_first_row(self, cardio):
        view = to_center_range(cardio)
        assert view.centers_y[0] == 56.0
        assert view.halfranges_y[0] == 12.0
        assert view.centers_X[0, 0] == 95.0
        assert view.halfranges_X[0, 0] == 5.0
        assert view.centers_X[0, 1] == 60.0
        assert view.halfranges_X[0, 1] == 10.0

    def test_a_table_without_a_response_has_no_view_or_response_bounds(self, cardio):
        no_response = IntervalTable(cardio.variable_names, cardio.lower, cardio.upper)
        with pytest.raises(TableError, match="^center/range view needs a designated response$"):
            to_center_range(no_response)
        with pytest.raises(TableError, match="^table has no designated response$"):
            response_bounds(no_response)

    def test_degenerate_table(self):
        values = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        table = IntervalTable(("Y", "X1"), values, values, response_name="Y")
        view = to_center_range(table)
        assert np.array_equal(view.centers_y, [1.0, 2.0, 3.0])
        assert np.array_equal(view.halfranges_y, np.zeros(3))
        assert np.array_equal(view.halfranges_X, np.zeros((3, 1)))

    def test_reconstruction_exact_on_dyadic_endpoints(self):
        rng = np.random.default_rng(7)
        lo = rng.integers(-64, 64, size=(20, 3)) / 8.0
        width = rng.integers(0, 64, size=(20, 3)) / 8.0
        table = IntervalTable(("Y", "X1", "X2"), lo, lo + width, response_name="Y")
        view = to_center_range(table)
        x_lo, x_hi = predictor_bounds(table)
        assert np.array_equal(view.centers_X - view.halfranges_X, x_lo)
        assert np.array_equal(view.centers_X + view.halfranges_X, x_hi)
        y_lo, y_hi = response_bounds(table)
        assert np.array_equal(view.centers_y - view.halfranges_y, y_lo)
        assert np.array_equal(view.centers_y + view.halfranges_y, y_hi)

    def test_reconstruction_within_rounding_on_float_endpoints(self):
        rng = np.random.default_rng(11)
        table = random_interval_table(rng, 30, 4)
        view = to_center_range(table)
        x_lo, x_hi = predictor_bounds(table)
        tol = 4 * np.spacing(np.maximum(np.abs(x_lo), np.abs(x_hi)) + 1)
        assert np.all(np.abs(view.centers_X - view.halfranges_X - x_lo) <= tol)
        assert np.all(np.abs(view.centers_X + view.halfranges_X - x_hi) <= tol)


class TestAggregateClassic:
    def test_singleton_group(self):
        out = aggregate_classic(["g", "v"], [["a", "3.5"]], "g")
        assert out.n_rows == 1
        assert (out.lower[0, 0], out.upper[0, 0]) == (3.5, 3.5)

    def test_min_max_over_group(self):
        rows = [["s", "1"], ["s", "10"], ["s", "3"]]
        out = aggregate_classic(["g", "fold"], rows, "g")
        assert (out.lower[0, 0], out.upper[0, 0]) == (1, 10)

    def test_rows_ordered_by_first_appearance(self):
        rows = [["b", "1"], ["a", "2"], ["b", "3"], ["c", "4"], ["a", "5"]]
        out = aggregate_classic(["g", "v"], rows, "g")
        assert out.n_rows == 3
        assert out.lower[:, 0].tolist() == [1, 2, 4]   # b, a, c
        assert out.upper[:, 0].tolist() == [3, 5, 4]

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            keys = [str(rng.integers(0, 6)) for _ in range(n)]
            vals = rng.uniform(-10, 10, size=(n, 3))
            rows = [[keys[i], *(repr(float(v)) for v in vals[i])] for i in range(n)]
            out = aggregate_classic(["k", "a", "b", "c"], rows, "k")
            seen = []
            for key in keys:
                if key not in seen:
                    seen.append(key)
            assert out.n_rows == len(seen)
            for r, key in enumerate(seen):
                grp = vals[[i for i in range(n) if keys[i] == key]]
                for c in range(3):
                    assert out.lower[r, c] == grp[:, c].min()
                    assert out.upper[r, c] == grp[:, c].max()

    def test_output_intervals_ordered(self):
        rng = np.random.default_rng(5)
        rows = [[str(rng.integers(3)), repr(float(rng.normal()))] for _ in range(40)]
        out = aggregate_classic(["k", "v"], rows, "k")
        assert np.all(out.lower <= out.upper)

    def test_unknown_concept_column(self):
        with pytest.raises(TableError, match="concept"):
            aggregate_classic(["a"], [["1"]], "missing")

    def test_unknown_value_column(self):
        with pytest.raises(TableError, match="value column"):
            aggregate_classic(["k", "a"], [["x", "1"]], "k", ["b"])

    def test_non_numeric_cell_reports_location(self):
        with pytest.raises(TableError, match=r"'v'.*row 1"):
            aggregate_classic(["k", "v"], [["x", "1"], ["x", "oops"]], "k")

    def test_empty_input(self):
        with pytest.raises(TableError, match="empty"):
            aggregate_classic(["k", "v"], [], "k")


class TestIntervalCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,X1_lo,X1_hi\n44,68,90,100\n")
        table = read_interval_csv(path)
        assert table.variable_names == ("Y", "X1")
        assert table.n_rows == 1
        assert table.lower.tolist() == [[44, 90]]
        assert table.upper.tolist() == [[68, 100]]

    def test_reversed_bounds_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi\n68,44\n")
        with pytest.raises(IntervalOrderError, match=r"'Y'.*row 1"):
            read_interval_csv(path)

    def test_missing_partner_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,X1_lo\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="X1.*_hi"):
            read_interval_csv(path)

    def test_unsuffixed_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,state\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="state"):
            read_interval_csv(path)

    def test_a_suffix_without_a_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,_lo,_hi\n1,2,3,4\n")
        with pytest.raises(CsvFormatError, match="^column '_lo' has an empty variable name$"):
            read_interval_csv(path)

    def test_duplicate_variable(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,Y_lo\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            read_interval_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi\nlow,2\n")
        with pytest.raises(CsvFormatError, match="non-numeric"):
            read_interval_csv(path)

    @pytest.mark.parametrize("cell", ["nan,2", "1,inf"])
    def test_non_finite_cell_names_variable_and_row(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n1,2,{cell}\n")
        with pytest.raises(CsvFormatError, match=r"'X', row 2: .*finite"):
            read_interval_csv(path)

    def test_overflowing_cell_names_variable_and_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n1,2,1e308,1.7e308\n")
        with pytest.raises(CsvFormatError, match=r"t.csv: variable 'X', row 2: .*overflows"):
            read_interval_csv(path)

    def test_first_faulty_record_wins(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,X_lo,X_hi\n2,1,3,4\n1,2,oops,4\n")
        with pytest.raises(IntervalOrderError, match=r"'Y', row 1: lower bound 2.0"):
            read_interval_csv(path)

    def test_blank_lines_count_in_record_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n\n,,,\n1,2,4,3\n")
        with pytest.raises(IntervalOrderError, match=r"'X', row 4: lower bound 4.0"):
            read_interval_csv(path)

    def test_a_blank_middle_record_is_skipped_by_the_exact_reader(self, tmp_path):
        blank, plain = tmp_path / "blank.csv", tmp_path / "plain.csv"
        blank.write_text("Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n\n5,6,7,8\n")
        plain.write_text("Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(ValueError, match="^a blank record$"):
            _read_interval_bulk(blank, "Y")
        assert_same_table(read_interval_csv(blank, "Y"), _read_interval_bulk(plain, "Y"))

    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(3)
        for i in range(5):
            table = random_interval_table(rng, int(rng.integers(1, 30)), int(rng.integers(1, 6)))
            path = tmp_path / f"t{i}.csv"
            write_interval_csv(table, path)
            back = read_interval_csv(path, response="Y")
            assert_same_table(back, table)

    def test_written_file_has_lf_ends_and_reads_back_in_bulk(self, tmp_path):
        # a CR in the file would send it to the record-by-record reader
        rng = np.random.default_rng(4)
        table = random_interval_table(rng, 25, 3)
        path = tmp_path / "t.csv"
        write_interval_csv(table, path)
        assert b"\r" not in path.read_bytes()
        assert_same_table(_read_interval_bulk(path, "Y"), table)

    def test_cardio_file_matches_fixture(self):
        table = read_interval_csv(DATA_DIR / "cardio.csv", response="Pulse")
        assert_same_table(table, make_cardio_table())


def test_read_classic_csv(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("state,v\nAK,1.5\nAL,2.5\n\n")
    columns, rows, numbers = read_classic_csv(path)
    assert columns == ["state", "v"]
    assert rows == [["AK", "1.5"], ["AL", "2.5"]]
    assert numbers.tolist() == [1, 2]
