import csv
import functools
import hashlib
import io
import re

import numpy as np
import pytest

from intervalreg import IntervalTable, MethodSpec, cli, models, selection, serialize
from intervalreg.cli import main
from intervalreg.models import FittedModel
from intervalreg.solvers import CoefficientSet
from intervalreg.tables import to_center_range, write_interval_csv

from conftest import DATA_DIR, random_interval_table

CARDIO = DATA_DIR / "cardio.csv"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def cardio_csv(tmp_path):
    target = tmp_path / "cardio.csv"
    target.write_bytes(CARDIO.read_bytes())
    return target


class TestFit:
    def test_fit_writes_model_and_prints_coefficients(self, capsys, tmp_path, cardio_csv):
        model_path = tmp_path / "cm.model"
        code, out, err = run(
            capsys, "fit", "--method", "cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--model-out", str(model_path),
        )
        assert code == 0, err
        assert model_path.exists()
        assert "(intercept)" in out
        assert "Systolic" in out and "Diastolic" in out

    def test_lambda_rejected_for_unpenalized(self, capsys, tmp_path, cardio_csv):
        code, _, err = run(
            capsys, "fit", "--method", "cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--lambda", "1.0",
            "--model-out", str(tmp_path / "m"),
        )
        assert code == 1
        assert "lambda" in err

    def test_penalized_needs_lambda(self, capsys, tmp_path, cardio_csv):
        code, _, err = run(
            capsys, "fit", "--method", "lasso-cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--model-out", str(tmp_path / "m"),
        )
        assert code == 1
        assert "--lambda" in err

    def test_cv_mode_requires_seed(self, capsys, tmp_path, cardio_csv):
        code, _, err = run(
            capsys, "fit", "--method", "lasso-cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--lambda", "cv",
            "--model-out", str(tmp_path / "m"),
        )
        assert code == 1
        assert "--seed" in err

    def test_cv_mode_fits_and_reports_lambda(self, capsys, tmp_path, cardio_csv):
        model_path = tmp_path / "m"
        code, out, err = run(
            capsys, "fit", "--method", "lasso-cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--lambda", "cv", "--seed", "7",
            "--model-out", str(model_path),
        )
        assert code == 0, err
        assert "lambda selected by 10-fold cv (seed 7)" in out
        assert model_path.exists()

    def test_one_se_picks_a_larger_lambda(self, capsys, tmp_path, cardio_csv):
        chosen = {}
        for flag, extra in (("min", []), ("1se", ["--one-se"])):
            code, out, err = run(
                capsys, "fit", "--method", "lasso-cm", "--train", str(cardio_csv),
                "--response", "Pulse", "--lambda", "cv", "--seed", "7",
                "--model-out", str(tmp_path / f"m-{flag}"), *extra,
            )
            assert code == 0, err
            chosen[flag] = float(out.split("):")[1].split()[0])
        assert chosen["1se"] >= chosen["min"]

    def test_separate_range_weight(self, capsys, tmp_path, cardio_csv):
        model_path = tmp_path / "m"
        code, _, err = run(
            capsys, "fit", "--method", "ridge-crm", "--train", str(cardio_csv),
            "--response", "Pulse", "--lambda", "5.5", "--lambda-range", "875.906",
            "--model-out", str(model_path),
        )
        assert code == 0, err
        text = model_path.read_text()
        fields = dict(
            ln.split(": ", 1) for ln in text.splitlines() if ": " in ln
        )
        assert float(fields["lambda_center"]) == 5.5
        assert float(fields["lambda_range"]) == 875.906

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag, name", [("--lambda", "lambda_center"),
                                            ("--lambda-range", "lambda_range")])
    def test_a_non_finite_weight_exits_1(self, capsys, tmp_path, cardio_csv, flag, name, value):
        weights = {"--lambda": "1", "--lambda-range": "1", flag: value}
        code, _, err = run(
            capsys, "fit", "--method", "ridge-crm", "--train", str(cardio_csv),
            "--response", "Pulse", *(a for kv in weights.items() for a in kv),
            "--model-out", str(tmp_path / "m"),
        )
        assert code == 1
        assert err == f"error: {name} must be finite and >= 0, got {value}\n"
        assert not (tmp_path / "m").exists()

    def test_empty_center_support_prints_a_note(self, capsys, tmp_path, cardio_csv):
        code, out, err = run(
            capsys, "fit", "--method", "lasso-crm", "--train", str(cardio_csv),
            "--response", "Pulse", "--lambda", "1e6", "--model-out", str(tmp_path / "m"),
        )
        assert code == 0, err
        assert out.splitlines()[-1] == (
            "note: center model selected no variables; range model is intercept-only"
        )
        assert "empty_support: true" in (tmp_path / "m").read_text()

    def test_inputs_never_mutated(self, capsys, tmp_path, cardio_csv):
        before = hashlib.sha256(cardio_csv.read_bytes()).hexdigest()
        run(
            capsys, "fit", "--method", "ridge-crm", "--train", str(cardio_csv),
            "--response", "Pulse", "--lambda", "2.0",
            "--model-out", str(tmp_path / "m"),
        )
        assert hashlib.sha256(cardio_csv.read_bytes()).hexdigest() == before

    def test_overflowing_cell_exits_1_naming_row_and_variable(self, capsys, tmp_path):
        train = tmp_path / "huge.csv"
        train.write_text(
            "Y_lo,Y_hi,X_lo,X_hi\n1,2,3,4\n2,3,4,5\n3,5,1e308,1.7e308\n4,6,7,8\n"
        )
        code, _, err = run(
            capsys, "fit", "--method", "cm", "--train", str(train),
            "--response", "Y", "--model-out", str(tmp_path / "m"),
        )
        assert code == 1
        assert f"error: {train}: variable 'X', row 3: interval midpoint" in err

    @staticmethod
    def duplicated_column_csv(tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "Y_lo,Y_hi,A_lo,A_hi,B_lo,B_hi\n"
            + "\n".join(f"{i},{i + 1},{i},{i + 2},{i},{i + 2}" for i in range(6))
            + "\n"
        )
        return bad

    def test_singular_design_exits_2(self, capsys, tmp_path):
        bad = self.duplicated_column_csv(tmp_path)
        code, _, err = run(
            capsys, "fit", "--method", "cm", "--train", str(bad),
            "--response", "Y", "--model-out", str(tmp_path / "m"),
        )
        assert code == 2
        assert err == (
            "error: Gram matrix is numerically singular at the midpoints of predictor 'B' "
            "(pivot at most 1e-12 of the largest diagonal entry)\n"
        )

    @pytest.mark.parametrize("method", ["crm", "ridge-crm"])
    def test_equal_half_ranges_name_the_half_range_regression(self, capsys, tmp_path, method):
        # A and B differ in their midpoints but share every half-range
        rng = np.random.default_rng(5)
        mid = rng.normal(size=(8, 3))
        shared = np.abs(rng.normal(size=8)) + 0.1
        half = np.column_stack([rng.uniform(0.1, 1.0, size=8), shared, shared])
        table = IntervalTable(("Y", "A", "B"), mid - half, mid + half, "Y")
        train = tmp_path / "t.csv"
        write_interval_csv(table, train)
        lam = ("--lambda", "0") if method == "ridge-crm" else ()
        code, out, err = run(capsys, "fit", "--method", method, "--train", str(train),
                             "--response", "Y", *lam, "--model-out", str(tmp_path / "m"))
        assert (code, out) == (2, "")
        assert err == (
            "error: Gram matrix is numerically singular at the half-ranges of predictor 'B' "
            "(pivot at most 1e-12 of the largest diagonal entry)\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_predictor_midpoints_whose_sum_overflows_are_fitted(self, capsys, tmp_path):
        # three midpoints at 8e307 and three at -8e307: their sum overflows, each cell is fine
        train = tmp_path / "big.csv"
        mid = np.array([8e307] * 3 + [-8e307] * 3)
        half = 1e306 * (1.0 + 0.1 * np.arange(6))
        y = np.array([1.0, 2.3, 3.6, -0.9, -1.6, -2.3])
        table = IntervalTable(("Y", "X"), np.column_stack([y - 0.5, mid - half]),
                              np.column_stack([y + 0.5 + 0.1 * np.arange(6), mid + half]), "Y")
        write_interval_csv(table, train)
        for method in (("crm",), ("lasso-crm", "--lambda", "0.5")):
            model = tmp_path / f"{method[0]}.model"
            code, _, err = run(capsys, "fit", "--method", *method, "--train", str(train),
                               "--response", "Y", "--model-out", str(model))
            assert (code, err) == (0, "")
            fitted = models.deserialize(model.read_text())
            assert fitted.center_coeffs.betas[0] > 0.0
            assert np.isfinite(fitted.center_coeffs.means).all()
            pred = tmp_path / "pred.csv"
            code, _, err = run(capsys, "predict", "--model", str(model), "--data", str(train),
                               "--out", str(pred))
            assert (code, err) == (0, "")
            bounds = np.array(read_rows(pred)[1:], dtype=float)
            assert np.isfinite(bounds).all()
            # the midpoints predicted track the response's: up, then down
            centers = bounds.mean(axis=1)
            assert centers[:3].min() > centers[3:].max()

    def test_unpenalized_fit_fails_like_ridge_at_weight_0(self, capsys, tmp_path):
        bad = self.duplicated_column_csv(tmp_path)
        results = [
            run(
                capsys, "fit", "--method", method, "--train", str(bad),
                "--response", "Y", "--model-out", str(tmp_path / "m"), *extra,
            )
            for method, extra in (("cm", ()), ("ridge-cm", ("--lambda", "0")))
        ]
        assert results[0][0] == results[1][0] == 2
        assert results[0][2] == results[1][2]


class TestPredictEvaluate:
    def fit_model(self, capsys, tmp_path, cardio_csv, method="cm", *extra):
        model_path = tmp_path / f"{method}.model"
        code, _, err = run(
            capsys, "fit", "--method", method, "--train", str(cardio_csv),
            "--response", "Pulse", "--model-out", str(model_path), *extra,
        )
        assert code == 0, err
        return model_path

    def test_predict_writes_bounds_and_counts_violations(
        self, capsys, tmp_path, cardio_csv
    ):
        model = self.fit_model(capsys, tmp_path, cardio_csv)
        out_path = tmp_path / "pred.csv"
        code, out, err = run(
            capsys, "predict", "--model", str(model), "--data", str(cardio_csv),
            "--out", str(out_path),
        )
        assert code == 0, err
        assert "ordering violations:" in out
        rows = read_rows(out_path)
        assert rows[0] == ["yhat_lo", "yhat_hi"]
        assert len(rows) == 12
        assert float(rows[1][0]) == pytest.approx(59.3, abs=0.1)

    def test_predict_schema_mismatch_names_column(self, capsys, tmp_path, cardio_csv):
        model = self.fit_model(capsys, tmp_path, cardio_csv)
        partial = tmp_path / "partial.csv"
        partial.write_text("Systolic_lo,Systolic_hi\n90,100\n")
        code, _, err = run(
            capsys, "predict", "--model", str(model), "--data", str(partial),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert "Diastolic" in err

    def test_evaluate_matches_published_cm_indexes(self, capsys, tmp_path, cardio_csv):
        model = self.fit_model(capsys, tmp_path, cardio_csv)
        code, out, err = run(
            capsys, "evaluate", "--model", str(model), "--test", str(cardio_csv),
            "--csv",
        )
        assert code == 0, err
        fields = out.strip().split(",")
        assert fields[0] == "cm"
        assert float(fields[1]) == pytest.approx(11.0942, abs=0.01)
        assert float(fields[2]) == pytest.approx(10.41365, abs=0.01)
        assert float(fields[3]) == pytest.approx(0.3029147, abs=0.001)
        assert float(fields[4]) == pytest.approx(0.5346571, abs=0.001)

    def test_evaluate_rejects_a_non_finite_coefficient(self, capsys, tmp_path, cardio_csv):
        model = self.fit_model(capsys, tmp_path, cardio_csv)
        text = model.read_text()
        model.write_text(re.sub(r"^center\.betas: \S+", "center.betas: nan", text, flags=re.M))
        code, out, err = run(
            capsys, "evaluate", "--model", str(model), "--test", str(cardio_csv), "--csv",
        )
        assert (code, out) == (1, "")
        assert err == "error: non-finite number in 'center.betas': 'nan 0.16985117364821131'\n"

    def test_evaluate_text_report(self, capsys, tmp_path, cardio_csv):
        model = self.fit_model(capsys, tmp_path, cardio_csv, "crm")
        code, out, err = run(
            capsys, "evaluate", "--model", str(model), "--test", str(cardio_csv),
        )
        assert code == 0, err
        assert "RMSE_L" in out and "r2_U" in out

    def test_lasso_crm_at_zero_matches_crm(self, capsys, tmp_path, cardio_csv):
        crm = self.fit_model(capsys, tmp_path, cardio_csv, "crm")
        lasso = self.fit_model(
            capsys, tmp_path, cardio_csv, "lasso-crm", "--lambda", "0",
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "predict", "--model", str(crm), "--data", str(cardio_csv),
            "--out", str(out_a))
        run(capsys, "predict", "--model", str(lasso), "--data", str(cardio_csv),
            "--out", str(out_b))
        a = np.array(read_rows(out_a)[1:], dtype=float)
        b = np.array(read_rows(out_b)[1:], dtype=float)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_clamp_swaps_violating_rows(self, capsys, tmp_path):
        # a handcrafted model whose half-range prediction is always negative
        model = FittedModel(
            MethodSpec("crm"),
            ("X",),
            "Y",
            CoefficientSet(0.0, np.zeros(1)),
            CoefficientSet(-1.0, np.zeros(1)),
        )
        model_path = tmp_path / "neg.model"
        model_path.write_text(serialize(model))
        data = tmp_path / "data.csv"
        data.write_text("X_lo,X_hi\n0,1\n2,3\n")
        raw_out = tmp_path / "raw.csv"
        code, out, _ = run(
            capsys, "predict", "--model", str(model_path), "--data", str(data),
            "--out", str(raw_out),
        )
        assert code == 0
        assert "ordering violations: 2" in out
        raw = np.array(read_rows(raw_out)[1:], dtype=float)
        assert np.all(raw[:, 0] > raw[:, 1])
        clamped_out = tmp_path / "clamped.csv"
        code, out, _ = run(
            capsys, "predict", "--model", str(model_path), "--data", str(data),
            "--out", str(clamped_out), "--clamp",
        )
        assert code == 0
        assert "ordering violations: 2" in out  # reported before the repair
        fixed = np.array(read_rows(clamped_out)[1:], dtype=float)
        assert np.all(fixed[:, 0] <= fixed[:, 1])


class TestCvCommand:
    def test_curve_file_and_chosen_lambdas(self, capsys, tmp_path, cardio_csv):
        out_path = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "cv", "--method", "lasso-cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--folds", "5", "--seed", "3",
            "--n-lambdas", "12", "--out", str(out_path),
        )
        assert code == 0, err
        assert "lambda_min:" in out and "lambda_1se:" in out
        rows = read_rows(out_path)
        assert rows[0] == ["lambda", "mean_loss", "std_error", "nonzero"]
        assert len(rows) == 13
        lam_min = float(out.split("lambda_min:")[1].split()[0])
        assert any(float(r[0]) == lam_min for r in rows[1:])

    def test_deterministic_output(self, capsys, tmp_path, cardio_csv):
        paths = []
        for name in ("c1.csv", "c2.csv"):
            out_path = tmp_path / name
            code, _, err = run(
                capsys, "cv", "--method", "ridge-crm", "--train", str(cardio_csv),
                "--response", "Pulse", "--folds", "5", "--seed", "9",
                "--n-lambdas", "8", "--out", str(out_path),
            )
            assert code == 0, err
            paths.append(out_path.read_bytes())
        assert paths[0] == paths[1]

    def test_alpha_sweep_output(self, capsys, tmp_path, cardio_csv):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "cv", "--method", "net-cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--folds", "5", "--seed", "3",
            "--alpha-grid", "0,0.5,1", "--n-lambdas", "6",
            "--out", str(out_path),
        )
        assert code == 0, err
        assert "best alpha:" in out and "best lambda:" in out
        rows = read_rows(out_path)
        assert rows[0][0] == "alpha"
        assert len(rows) == 1 + 3 * 6

    @pytest.mark.parametrize("method, extra, flag", [
        ("ridge-cm", [], "--alpha-grid"),
        ("lasso-crm", [], "--alpha-grid"),
        ("net-cm", ["--alpha", "0.5"], "--alpha"),
    ])
    def test_alpha_grid_rejects_a_method_or_alpha_it_would_ignore(
        self, capsys, tmp_path, cardio_csv, method, extra, flag
    ):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "cv", "--method", method, "--train", str(cardio_csv),
            "--response", "Pulse", "--folds", "5", "--seed", "3",
            "--alpha-grid", "0,0.5,1", "--n-lambdas", "6", *extra,
            "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and flag + " " in err
        assert not out_path.exists()


class TestPathCommand:
    def test_path_file_shape(self, capsys, tmp_path, cardio_csv):
        out_path = tmp_path / "path.csv"
        code, out, err = run(
            capsys, "path", "--method", "lasso-cm", "--train", str(cardio_csv),
            "--response", "Pulse", "--n-lambdas", "15", "--out", str(out_path),
        )
        assert code == 0, err
        rows = read_rows(out_path)
        assert rows[0] == ["lambda", "intercept", "Systolic", "Diastolic"]
        assert len(rows) == 16
        top = [float(v) for v in rows[1][2:]]
        assert max(abs(v) for v in top) <= 1e-10


class TestCsvFiles:
    """Every CSV file the CLI writes is, byte for byte, what ``csv.writer`` writes for
    its header and for its numbers formatted as ``format(x, ".17g")``."""

    @staticmethod
    def csv_writer_text(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(x, ".17g") if isinstance(x, float) else x for x in row]
                         for row in rows)
        return buf.getvalue()

    @pytest.fixture
    def quoted(self, tmp_path):
        """A lasso table whose second predictor's name holds a double quote."""
        rng = np.random.default_rng(12)
        base = random_interval_table(rng, 16, 3)
        table = IntervalTable(("A", 'X"q', "B", "Y"), base.lower, base.upper, "Y")
        path = tmp_path / "quoted.csv"
        write_interval_csv(table, path)
        return table, path

    def written(self, capsys, tmp_path, *argv):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 0, err
        return out.read_bytes().decode("utf-8")

    @pytest.mark.parametrize("component", ["center", "range"])
    def test_path(self, capsys, tmp_path, quoted, component):
        table, train = quoted
        got = self.written(capsys, tmp_path, "path", "--method", "lasso-cm", "--train",
                           str(train), "--response", "Y", "--n-lambdas", "25",
                           "--component", component)
        view = to_center_range(table)
        grid = selection.lambda_grid(view.problem(component), 1.0, 25)
        path = selection.coefficient_path(view, MethodSpec.from_name("lasso-cm", 1.0), grid,
                                          component)
        assert got.startswith('lambda,intercept,A,"X""q",B\n')
        assert got == self.csv_writer_text(
            ["lambda", "intercept", *path.predictor_names],
            ([lam, path.intercepts[i], *path.coefficients[i]]
             for i, lam in enumerate(grid.values)))

    def test_cv_curve(self, capsys, tmp_path, quoted):
        table, train = quoted
        got = self.written(capsys, tmp_path, "cv", "--method", "lasso-crm", "--train",
                           str(train), "--response", "Y", "--folds", "4", "--seed", "2",
                           "--n-lambdas", "20")
        cv = selection.cross_validate(table, MethodSpec.from_name("lasso-crm", 1.0), k=4,
                                      seed=2, n_points=20)
        assert got == self.csv_writer_text(
            ["lambda", "mean_loss", "std_error", "nonzero"],
            zip(cv.grid.values, cv.mean_loss, cv.std_error, cv.nonzero))

    def test_alpha_sweep(self, capsys, tmp_path, quoted):
        table, train = quoted
        got = self.written(capsys, tmp_path, "cv", "--method", "net-crm", "--train",
                           str(train), "--response", "Y", "--folds", "4", "--seed", "2",
                           "--n-lambdas", "9", "--alpha-grid", "0,0.3,1")
        sweep = selection.alpha_sweep(table, "crm", [0.0, 0.3, 1.0], k=4, seed=2, n_points=9)
        assert got == self.csv_writer_text(
            ["alpha", "lambda", "mean_loss", "std_error", "nonzero"],
            ((alpha, *row) for alpha, cv in sweep.per_alpha
             for row in zip(cv.grid.values, cv.mean_loss, cv.std_error, cv.nonzero)))

    @pytest.mark.parametrize("clamp", [(), ("--clamp",)])
    def test_predictions(self, capsys, tmp_path, quoted, clamp):
        table, train = quoted
        model_path = tmp_path / "m"
        code, _, err = run(capsys, "fit", "--method", "crm", "--train", str(train),
                           "--response", "Y", "--model-out", str(model_path))
        assert code == 0, err
        got = self.written(capsys, tmp_path, "predict", "--model", str(model_path),
                           "--data", str(train), *clamp)
        pred = models.predict(models.deserialize(model_path.read_text()), table)
        if clamp:
            pred = models.swap_violations(pred)
        assert got == self.csv_writer_text(["yhat_lo", "yhat_hi"], zip(pred.lower, pred.upper))


@pytest.mark.parametrize("argv", [
    ["cv", "--method", "lasso-cm", "--folds", "5", "--seed", "3", "--n-lambdas", "6"],
    ["cv", "--method", "net-cm", "--folds", "5", "--seed", "3",
     "--alpha-grid", "0.5,1", "--n-lambdas", "6"],
    ["path", "--method", "lasso-cm", "--n-lambdas", "6"],
])
def test_cv_and_path_files_end_lines_with_lf(capsys, tmp_path, cardio_csv, argv):
    out_path = tmp_path / "out.csv"
    code, _, err = run(capsys, *argv, "--train", str(cardio_csv), "--response", "Pulse",
                       "--out", str(out_path))
    assert code == 0, err
    data = out_path.read_bytes()
    assert b"\r" not in data
    assert data.count(b"\n") == len(read_rows(out_path))


class TestNonConvergedWarning:
    """cv, path and fit --lambda cv say so when a fit stopped without converging.

    On a seeded table with six predictors, where some grid fits enter more than
    one coordinate and so stop at ``max_iter=1`` (each of cardio's warm-started
    grid fits enters at most one of its two predictors).
    """

    COMMANDS = {
        "cv": ["cv", "--method", "lasso-cm", "--folds", "5", "--seed", "3",
               "--n-lambdas", "12", "--out", "out.csv"],
        "sweep": ["cv", "--method", "net-cm", "--folds", "5", "--seed", "3",
                  "--alpha-grid", "0.5,1", "--n-lambdas", "6", "--out", "out.csv"],
        "path": ["path", "--method", "lasso-cm", "--n-lambdas", "12", "--out", "out.csv"],
        "fit": ["fit", "--method", "lasso-cm", "--lambda", "cv", "--seed", "7",
                "--model-out", "out.model"],
    }

    @pytest.fixture
    def wide_csv(self, tmp_path):
        """Orthonormal midpoints, X1..X4 in the model, so a cold midpoint lasso
        enters X1, X2 and X3 in its first three steps and needs a fourth.  On
        their half-ranges h1, h2 and h3 = h1 + h2 + u/2 (h1, h2, u orthonormal)
        the response h1 + 0.9*h2 - 0.2*h3 makes a cold range lasso enter h3
        first, drop it when h1 and h2 are in, and enter it again with the
        other sign: four steps on three columns (scaled by 20, so that h3 keeps
        a nonzero slope at weight 1)."""
        rng = np.random.default_rng(0)

        def orthonormal(k):
            Z = rng.normal(size=(12, k))
            return np.linalg.qr(Z - Z.mean(axis=0))[0]

        centers = 3.0 * orthonormal(6)
        center_y = centers @ [4.0, -3.5, 3.0, 1.0, 0.0, 0.0] + rng.normal(scale=0.3, size=12)
        h = orthonormal(6)
        h[:, 2] = h[:, 0] + h[:, 1] + 0.5 * h[:, 2]
        half = np.column_stack([h, h[:, 0] + 0.9 * h[:, 1] - 0.2 * h[:, 2]])
        half = 20.0 * (half - half.min(axis=0))
        mid = np.column_stack([centers, center_y])
        names = tuple(f"X{j + 1}" for j in range(6)) + ("Y",)
        target = tmp_path / "wide.csv"
        write_interval_csv(IntervalTable(names, mid - half, mid + half, response_name="Y"),
                           target)
        return target

    def run_command(self, capsys, tmp_path, wide_csv, command):
        argv = [str(tmp_path / a) if a.startswith("out.") else a
                for a in self.COMMANDS[command]]
        return run(capsys, *argv, "--train", str(wide_csv), "--response", "Y")

    @pytest.mark.parametrize("command", ["cv", "sweep", "path", "fit"])
    def test_one_warning_line_when_a_fit_stops_at_max_iter(
        self, capsys, monkeypatch, tmp_path, wide_csv, command
    ):
        code, out, err = self.run_command(capsys, tmp_path, wide_csv, command)
        assert code == 0 and err == ""
        for name in ("cross_validate", "_cv_run", "coefficient_path"):
            monkeypatch.setattr(
                selection, name, functools.partial(getattr(selection, name), max_iter=1)
            )
        code, capped_out, err = self.run_command(capsys, tmp_path, wide_csv, command)
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(
            r"warning: [1-9]\d* coordinate-descent fit\(s\) stopped without converging, "
            r"at the step limit or at a step that left the iterate unchanged; "
            r"their last iterates were used", lines[0]
        )
        # the same stdout lines, with the capped fits' numbers in them; the padding
        # before a number goes with it, since %g prints 0.67913 narrower than 0.355349
        strip = functools.partial(re.sub, r" *-?\d[\d.e+-]*", " #")
        assert strip(capped_out) == strip(out)
        if command == "fit":  # the coefficient table keeps its right-aligned columns
            def widths(text):
                return [len(line) for line in text.splitlines()
                        if not line.startswith("lambda selected by")]

            assert widths(capped_out) == widths(out)

    def test_fit_warns_about_its_own_fit(self, capsys, monkeypatch, tmp_path, wide_csv):
        argv = ["fit", "--method", "lasso-crm", "--lambda", "1.0", "--train",
                str(wide_csv), "--response", "Y", "--model-out", str(tmp_path / "m")]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        # a cold fit stopped after k steps has at most k nonzeros, and the range
        # fit sees only the midpoint fit's, so it needs a drop to stop as well
        monkeypatch.setattr(models, "fit", functools.partial(models.fit, max_iter=3))
        code, capped_out, err = run(capsys, *argv)
        assert code == 0
        assert err == ("warning: 2 coordinate-descent fit(s) stopped without converging, "
                       "at the step limit or at a step that left the iterate unchanged; "
                       "their last iterates were used\n")
        # a stopped fit prints 0 where the converged one prints a number: every
        # step ends in an exact solve on its nonzero set, so a stopped fit with
        # the converged fit's support and signs would be that fit.  The same
        # lines in the same right-aligned columns, whatever each number's width
        strip = functools.partial(re.sub, r" *-?\d[\d.e+-]*", " #")
        assert strip(capped_out) == strip(out)
        assert [len(line) for line in capped_out.splitlines()] == [
            len(line) for line in out.splitlines()]


class TestAggregateCommand:
    def test_classic_to_interval(self, capsys, tmp_path):
        classic = tmp_path / "classic.csv"
        classic.write_text(
            "state,fold,rate\nAK,1,0.5\nAL,2,0.25\nAK,10,0.75\nAL,3,0.5\n"
        )
        out_path = tmp_path / "agg.csv"
        code, out, err = run(
            capsys, "aggregate", "--input", str(classic), "--concept", "state",
            "--output", str(out_path),
        )
        assert code == 0, err
        assert "2 concept rows" in out
        rows = read_rows(out_path)
        assert rows[0] == ["fold_lo", "fold_hi", "rate_lo", "rate_hi"]
        assert [float(v) for v in rows[1]] == [1.0, 10.0, 0.5, 0.75]
        assert [float(v) for v in rows[2]] == [2.0, 3.0, 0.25, 0.5]

    def test_errors_name_the_file_and_record(self, capsys, tmp_path):
        classic = tmp_path / "classic.csv"
        classic.write_text("k,v,w\na,1,2\n\nb,x,3\n")
        code, _, err = run(
            capsys, "aggregate", "--input", str(classic), "--concept", "k",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err == f"error: {classic}: non-numeric cell in column 'v', row 3: 'x'\n"
        classic.write_text("k,v,w\na,1,2\n\nb,3\n")
        code, _, err = run(
            capsys, "aggregate", "--input", str(classic), "--concept", "k",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err == f"error: {classic}: row 3 has 2 cells, expected 3\n"

    def test_columns_are_written_in_the_given_order(self, capsys, tmp_path):
        classic = tmp_path / "classic.csv"
        classic.write_text("c,a,b\nx,1,10\ny,2,20\nx,3,30\n")
        out_path = tmp_path / "agg.csv"
        code, _, err = run(
            capsys, "aggregate", "--input", str(classic), "--concept", "c",
            "--columns", " b, a ,", "--output", str(out_path),
        )
        assert code == 0, err
        assert read_rows(out_path) == [["b_lo", "b_hi", "a_lo", "a_hi"],
                                       ["10.0", "30.0", "1.0", "3.0"],
                                       ["20.0", "20.0", "2.0", "2.0"]]

    def test_no_value_columns_exits_1(self, capsys, tmp_path):
        classic = tmp_path / "classic.csv"
        classic.write_text("c,a\nx,1\n")
        code, out, err = run(
            capsys, "aggregate", "--input", str(classic), "--concept", "c",
            "--columns", ",", "--output", str(tmp_path / "x.csv"),
        )
        assert (code, out, err) == (1, "", "error: no value columns to aggregate\n")
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_concept_exits_1(self, capsys, tmp_path):
        classic = tmp_path / "classic.csv"
        classic.write_text("state,v\nAK,1\n")
        code, _, err = run(
            capsys, "aggregate", "--input", str(classic), "--concept", "nope",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "nope" in err


@pytest.mark.parametrize("argv, message", [
    (["fit", "--method", "lasso-cm", "--lambda", "abc"],
     "--lambda must be a number or 'cv', got 'abc'"),
    (["cv", "--method", "net-cm", "--alpha-grid", "0.5,x", "--folds", "5", "--seed", "1"],
     "--alpha-grid must be a comma-separated number list, got '0.5,x'"),
    (["cv", "--method", "cm", "--folds", "5", "--seed", "1"],
     "method 'cm' has no penalty weight to cross-validate"),
    (["path", "--method", "crm"], "method 'crm' has no penalty path"),
])
def test_a_bad_flag_value_exits_1_with_its_message(capsys, tmp_path, cardio_csv, argv, message):
    out_flag = "--model-out" if argv[0] == "fit" else "--out"
    code, out, err = run(capsys, *argv, "--train", str(cardio_csv), "--response", "Pulse",
                         out_flag, str(tmp_path / "out"))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


class TestParser:
    """``main`` builds the arguments of the subcommand it is given only; it parses,
    prints and fails as the parser of every subcommand's arguments does."""

    @staticmethod
    def outcome(parse_args, argv, capsys):
        """``(namespace, help exit code or error line; stdout; stderr)`` of a parse."""
        try:
            result = vars(parse_args(argv))
        except SystemExit as done:
            result = done.code
        except cli.CliError as exc:
            result = f"error: {exc}\n"
        return (result, *capsys.readouterr())

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h", "fit"], *([c, "--help"] for c in cli._COMMANDS),
        [], ["frobnicate"], ["cv"], ["fit", "--method", "zz"], ["--bogus", "fit"],
        ["path", "--component", "mid"], ["aggregate", "--input", "a", "--concept", "c"],
        ["cv", "--method", "lasso-cm", "--train", "t", "--response", "Y", "--folds", "x",
         "--seed", "1", "--out", "o"],
        ["cv", "--method", "net-cm", "--train", "t", "--response", "Y", "--folds", "5",
         "--seed", "1", "--alpha-grid", "0,1", "--out", "o"],
        ["fit", "--method", "lasso-crm", "--train", "t", "--response", "Y", "--lambda", "cv",
         "--one-se", "--model-out", "m"],
        ["predict", "--model", "m", "--data", "d", "--out", "o", "--clamp"],
    ])
    def test_main_parses_and_prints_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        want = self.outcome(cli._build_parser().parse_args, argv, capsys)
        seen = []
        monkeypatch.setattr(cli, "_COMMANDS", {
            name: (lambda args: seen.append(vars(args)) or 0, *rest)
            for name, (_, *rest) in cli._COMMANDS.items()
        })
        monkeypatch.setattr("sys.argv", ["intervalreg", *argv])  # as the console script
        try:
            code = main()
        except SystemExit as done:
            code = done.code
        _, out, err = got = (code, *capsys.readouterr())
        if isinstance(want[0], dict):
            assert (code, seen, out, err) == (0, [want[0]], "", "")
        elif isinstance(want[0], str):
            assert (code, out, err) == (1, "", want[0])
        else:
            assert got == want
        if argv[:2] in (["cv", "--help"], ["path", "--help"]):
            assert "--n-lambdas" in out


def test_unknown_command_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "fit", "--method", "cm", "--train", str(tmp_path / "nope.csv"),
        "--response", "Y", "--model-out", str(tmp_path / "m"),
    )
    assert code == 1
