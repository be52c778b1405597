import functools
from unittest import mock

import numpy as np
import pytest

from intervalreg import models, selection, solvers, tables
from intervalreg import (
    CenterRangeView,
    IntervalTable,
    LambdaGrid,
    MethodSpec,
    ZeroVarianceResponse,
    alpha_sweep,
    coefficient_path,
    cross_validate,
    fit,
    fit_grid,
    make_lambda_grid,
    predict,
)
from intervalreg.solvers import (
    NonFiniteEncountered,
    SingularDesign,
    duality_gap,
    fit_elastic_net,
    fit_ridge,
    fit_ridge_path,
    standardize,
)
from intervalreg.tables import response_bounds, to_center_range

from conftest import least_squares, make_cardio_table, random_interval_table


def nonzero(path):
    """Each path point's count of nonzero slopes."""
    return tuple(np.count_nonzero(path.slopes, axis=1).tolist())


class TestLambdaGrid:
    def test_must_be_descending(self):
        with pytest.raises(ValueError):
            LambdaGrid((1.0, 2.0))
        with pytest.raises(ValueError):
            LambdaGrid((2.0, 2.0))

    def test_only_terminal_zero(self):
        with pytest.raises(ValueError):
            LambdaGrid((2.0, 0.0, 1.0))
        grid = LambdaGrid((2.0, 1.0, 0.0))
        assert grid.values[-1] == 0.0

    def test_grid_top_kills_every_slope(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            X = rng.normal(size=(25, 5))
            y = X @ rng.normal(size=5) + rng.normal(size=25)
            grid = make_lambda_grid(X, y, alpha=1.0, n_points=10)
            coeffs = fit_elastic_net(
                standardize(X, y), grid.values[0], 1.0
            )
            assert not coeffs.support().any()
            # KKT: every gradient coordinate sits inside the subdifferential
            Xs = (X - coeffs.means) / coeffs.scales
            yc = y - y.mean()
            grad = 2.0 * np.abs(Xs.T @ (yc - Xs @ (coeffs.betas * coeffs.scales)))
            assert np.all(grad <= grid.values[0] * (1 + 1e-9))

    def test_scaling_y_scales_the_grid(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        a = make_lambda_grid(X, y, 1.0, n_points=7)
        b = make_lambda_grid(X, 10.0 * y, 1.0, n_points=7)
        assert np.allclose(np.asarray(b.values), 10.0 * np.asarray(a.values), rtol=1e-12)

    def test_two_point_grid_is_the_endpoints(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(9, 2))
        y = rng.normal(size=9)
        grid = make_lambda_grid(X, y, 0.5, n_points=2)
        assert len(grid) == 2
        assert grid.values[1] == pytest.approx(1e-4 * grid.values[0], rel=1e-12)
        wide = rng.normal(size=(4, 6))
        grid = make_lambda_grid(wide, rng.normal(size=4), 0.5, n_points=2)
        assert grid.values[1] == pytest.approx(1e-2 * grid.values[0], rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_a_response_whose_sums_overflow_is_rejected_before_the_grid(self):
        # the 4-row table's midpoints, +/-8e307 against 1.5 and -1.5: Xs'yc overflows,
        # so the grid top would be inf; no numpy warning is raised on the way
        X = np.array([[1.5], [-1.5]] * 2)
        y = np.array([8e307, -8e307] * 2)
        with pytest.raises(NonFiniteEncountered, match="^sums of the response overflow"):
            make_lambda_grid(X, y, 1.0)

    def test_zero_variance_response(self):
        X = np.random.default_rng(44).normal(size=(8, 2))
        with pytest.raises(ZeroVarianceResponse):
            make_lambda_grid(X, np.full(8, 3.0), 1.0)


class TestCrossValidate:
    def small_grid(self, table, alpha=1.0, n=12):
        view = to_center_range(table)
        return make_lambda_grid(view.centers_X, view.centers_y, alpha, n)

    def test_leave_one_out_on_cardio(self):
        table = make_cardio_table()
        grid = self.small_grid(table)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        result = cross_validate(table, spec, grid, k=table.n_rows, seed=3)
        assert len(result.mean_loss) == len(grid)
        assert len(result.std_error) == len(grid)
        assert result.folds == table.n_rows

    def test_same_seed_same_result(self):
        table = make_cardio_table()
        grid = self.small_grid(table)
        spec = MethodSpec("crm", "lasso", lambda_center=1.0)
        a = cross_validate(table, spec, grid, k=5, seed=11)
        b = cross_validate(table, spec, grid, k=5, seed=11)
        assert np.array_equal(a.mean_loss, b.mean_loss)
        assert a.lambda_min == b.lambda_min
        assert a.lambda_1se == b.lambda_1se

    def test_rebuilt_table_same_result(self):
        rng = np.random.default_rng(45)
        t1 = random_interval_table(rng, 18, 3)
        t2 = t1.take(range(t1.n_rows))  # fresh object, same rows
        grid = self.small_grid(t1)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        a = cross_validate(t1, spec, grid, k=6, seed=2)
        b = cross_validate(t2, spec, grid, k=6, seed=2)
        assert np.array_equal(a.mean_loss, b.mean_loss)

    def test_one_se_rule_ordering(self):
        rng = np.random.default_rng(46)
        for seed in range(4):
            table = random_interval_table(rng, 24, 4)
            grid = self.small_grid(table)
            spec = MethodSpec("crm", "elastic_net", lambda_center=1.0, alpha=0.8)
            result = cross_validate(table, spec, grid, k=6, seed=seed)
            assert result.lambda_1se >= result.lambda_min
            assert result.lambda_min in grid.values
            assert result.lambda_1se in grid.values

    def test_fold_count_bounds(self):
        table = make_cardio_table()
        grid = self.small_grid(table)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        with pytest.raises(ValueError):
            cross_validate(table, spec, grid, k=1, seed=0)
        with pytest.raises(ValueError):
            cross_validate(table, spec, grid, k=table.n_rows + 1, seed=0)

    def test_unpenalized_method_rejected(self):
        table = make_cardio_table()
        with pytest.raises(ValueError):
            cross_validate(table, MethodSpec("cm"), k=5, seed=0)

    def test_noise_response_prefers_large_lambda(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            table = random_interval_table(rng, 40, 5, signal=False)
            grid = self.small_grid(table, n=16)
            spec = MethodSpec("cm", "lasso", lambda_center=1.0)
            result = cross_validate(table, spec, grid, k=5, seed=seed)
            index = grid.values.index(result.lambda_1se)
            if index < len(grid) / 4:
                hits += 1
        assert hits >= 8

    @pytest.mark.parametrize("name", ["ridge-crm", "lasso-cm", "net-crm"])
    def test_one_standardization_of_the_whole_table(self, monkeypatch, name):
        # the grid's top and the path behind ``nonzero`` share one standardized design
        designs = record_standardizations(monkeypatch)
        table = random_interval_table(np.random.default_rng(52), 30, 4)
        view = to_center_range(table)
        spec = MethodSpec.from_name(name, 1.0, None, 0.5 if name.startswith("net") else None)
        result = cross_validate(table, spec, k=5, seed=3, n_points=20)
        whole = [X for X, _ in designs if len(X) == table.n_rows]
        assert len(whole) == 1 and np.array_equal(whole[0], view.centers_X)
        # folds standardize their own: one center and (crm) one range design each
        assert len(designs) == 1 + 5 * (2 if spec.family == "crm" else 1)
        designs.clear()
        grid = make_lambda_grid(view.centers_X, view.centers_y, spec.effective_alpha, 20)
        path = coefficient_path(view, spec, grid)
        assert len(designs) == 1 and nonzero(path) == result.nonzero

    def test_terminal_zero_on_a_duplicated_column_raises_like_fit_ridge(self):
        base = random_interval_table(np.random.default_rng(50), 20, 3)
        columns = [0, 1, 2, 0, 3]  # X1 repeated as the fourth predictor
        table = IntervalTable(
            ("X1", "X2", "X3", "X4", "Y"),
            base.lower[:, columns], base.upper[:, columns], response_name="Y",
        )
        std = standardize(*to_center_range(table).design("center"))
        with pytest.raises(SingularDesign) as want:
            fit_ridge(std, 0.0)
        assert want.value.pivot_index == 3
        grid = LambdaGrid((10.0, 1.0, 0.1, 0.0))
        with pytest.raises(SingularDesign) as got:
            fit_ridge_path(std, grid.values)
        assert got.value.pivot_index == want.value.pivot_index
        for name in ("ridge-cm", "ridge-crm"):
            with pytest.raises(SingularDesign) as got:
                cross_validate(table, MethodSpec.from_name(name, 1.0), grid, k=4, seed=0)
            assert got.value.pivot_index == want.value.pivot_index
            assert "singular at the midpoints of predictor 'X4' (" in str(got.value)
        # a view built without predictor names numbers the predictor instead
        view = to_center_range(table)
        unnamed = CenterRangeView(view.centers_X, view.centers_y, view.halfranges_X,
                                  view.halfranges_y)
        with pytest.raises(SingularDesign, match="singular at the midpoints of predictor 3 "):
            fit_grid(unnamed, MethodSpec.from_name("ridge-cm", 1.0), grid.values)

    def test_component_losses_run(self):
        table = make_cardio_table()
        grid = self.small_grid(table, n=6)
        spec = MethodSpec("crm", "ridge", lambda_center=1.0)
        for component in ("interval", "center", "range"):
            result = cross_validate(
                table, spec, grid, k=5, seed=1, component=component
            )
            assert np.all(np.isfinite(result.mean_loss))


class TestAlphaSweep:
    def test_single_alpha_matches_plain_cv(self):
        table = make_cardio_table()
        for alpha in (0.0, 1.0):
            sweep = alpha_sweep(table, "cm", [alpha], k=5, seed=9, n_points=8)
            spec = MethodSpec("cm", "elastic_net", alpha=alpha)
            direct = cross_validate(table, spec, k=5, seed=9, n_points=8)
            assert sweep.alpha == alpha
            assert sweep.lam == direct.lambda_min
            assert np.array_equal(sweep.per_alpha[0][1].mean_loss, direct.mean_loss)

    def test_eleven_alpha_grid_returns_member(self):
        table = make_cardio_table()
        alphas = [round(0.1 * i, 1) for i in range(11)]
        sweep = alpha_sweep(table, "crm", alphas, k=5, seed=4, n_points=6)
        assert sweep.alpha in alphas
        chosen_cv = dict(sweep.per_alpha)[sweep.alpha]
        assert sweep.lam in chosen_cv.grid.values

    @pytest.mark.parametrize("table_name", ["cardio", "wide"])
    @pytest.mark.parametrize("family", ["cm", "crm"])
    @pytest.mark.parametrize("component", ["interval", "center", "range"])
    def test_each_alpha_equals_its_own_cv(self, table_name, family, component):
        # the alphas share folds, fold problems and their factorizations, bit for bit
        table = REFERENCE_TABLES[table_name]()
        alphas = [1.0, 0.0, 0.3, 0.7]
        sweep = alpha_sweep(table, family, alphas, k=5, seed=6, n_points=12,
                            component=component)
        assert [a for a, _ in sweep.per_alpha] == alphas
        for alpha, got in sweep.per_alpha:
            spec = MethodSpec(family, "elastic_net", alpha=alpha)
            want = cross_validate(table, spec, k=5, seed=6, n_points=12, component=component)
            assert got.grid == want.grid
            assert got.mean_loss.tobytes() == want.mean_loss.tobytes()
            assert got.std_error.tobytes() == want.std_error.tobytes()
            assert (got.lambda_min, got.lambda_1se) == (want.lambda_min, want.lambda_1se)
            assert got.nonzero == want.nonzero
            assert got.nonconverged == want.nonconverged

    def test_sweep_builds_each_design_once(self, monkeypatch):
        # an 11-alpha, 5-fold cm sweep: the whole table's design and one per fold
        designs = record_standardizations(monkeypatch)
        alphas = [round(0.1 * i, 1) for i in range(11)]
        alpha_sweep(make_cardio_table(), "cm", alphas, k=5, seed=4, n_points=6)
        assert len(designs) == 6

    def test_empty_alpha_list_rejected(self):
        with pytest.raises(ValueError):
            alpha_sweep(make_cardio_table(), "cm", [], k=5, seed=0)


class TestCoefficientPath:
    def test_zero_active_at_grid_top(self):
        table = make_cardio_table()
        view = to_center_range(table)
        grid = make_lambda_grid(view.centers_X, view.centers_y, 1.0, 20)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        path = coefficient_path(table, spec, grid)
        assert nonzero(path)[0] == 0

    def test_bottom_of_path_matches_ols(self):
        table = make_cardio_table()
        view = to_center_range(table)
        grid = make_lambda_grid(view.centers_X, view.centers_y, 1.0, 20)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        path = coefficient_path(table, spec, grid)
        intercept, betas = least_squares(view.centers_X, view.centers_y)
        assert np.max(np.abs(path.slopes[-1] - betas)) <= 1e-3
        assert abs(path.intercepts[-1] - intercept) <= 1e-3 * max(abs(intercept), 1.0)

    def test_warm_start_matches_cold_start(self):
        rng = np.random.default_rng(47)
        table = random_interval_table(rng, 30, 6)
        view = to_center_range(table)
        for alpha in (1.0, 0.5):
            grid = make_lambda_grid(view.centers_X, view.centers_y, alpha, 50)
            spec = MethodSpec(
                "cm",
                "lasso" if alpha == 1.0 else "elastic_net",
                lambda_center=1.0,
                alpha=None if alpha == 1.0 else alpha,
            )
            path = coefficient_path(table, spec, grid)
            std = standardize(view.centers_X, view.centers_y)
            for i, lam in enumerate(grid.values):
                cold = fit_elastic_net(std, lam, alpha)
                assert np.max(np.abs(path.slopes[i] - cold.betas)) <= 1e-6

    def test_range_component_uses_halfrange_design(self):
        table = make_cardio_table()
        view = to_center_range(table)
        grid = make_lambda_grid(view.halfranges_X, view.halfranges_y, 1.0, 10)
        spec = MethodSpec("crm", "lasso", lambda_center=1.0)
        path = coefficient_path(table, spec, grid, component="range")
        assert nonzero(path)[0] == 0
        _, betas = least_squares(view.halfranges_X, view.halfranges_y)
        assert np.max(np.abs(path.slopes[-1] - betas)) <= 1e-2

    @pytest.mark.parametrize(
        "name", ["ridge-cm", "ridge-crm", "lasso-cm", "lasso-crm", "net-cm", "net-crm"]
    )
    def test_path_rows_are_the_grid_rows(self, name):
        # a path is the grid fit of one design: the center path is fit_grid's centers,
        # and where no support restricts the half-ranges (ridge-crm) the range path
        # is its ranges, bit for bit
        table = random_interval_table(np.random.default_rng(53), 20, 5)
        view = to_center_range(table)
        spec = MethodSpec.from_name(name, 1.0, None, 0.5 if name.startswith("net") else None)
        grid = make_lambda_grid(view.centers_X, view.centers_y, spec.effective_alpha, 30)
        fits = fit_grid(view, spec, grid.values)
        pairs = [(coefficient_path(table, spec, grid, "center"), fits.centers)]
        if name == "ridge-crm":
            pairs.append((coefficient_path(table, spec, grid, "range"), fits.ranges))
        for path, want in pairs:
            for field in ("intercepts", "slopes", "converged", "n_sweeps"):
                assert getattr(path, field).tobytes() == getattr(want, field).tobytes()


class TestExactSupport:
    def test_a_predictor_in_large_units_counts_as_selected(self):
        # X1 is measured in units of 1e-12: its standardized lasso slope is about 2,
        # its original-scale slope about 2e-12, which a fixed cutoff of 1e-10 dropped
        rng = np.random.default_rng(60)
        u, h = rng.normal(size=(30, 3)), rng.uniform(0.5, 1.5, size=(30, 3))
        units = np.array([1e12, 1.0, 1.0])
        cy = u @ [2.0, 1.0, -1.0] + 0.1 * rng.normal(size=30)
        hy = h @ [0.5, 0.3, 0.2] + 0.05 * rng.uniform(size=30)
        lower = np.column_stack([(u - h) * units, cy - hy])
        upper = np.column_stack([(u + h) * units, cy + hy])
        table = IntervalTable(("X1", "X2", "X3", "Y"), lower, upper, response_name="Y")
        spec = MethodSpec.from_name("lasso-crm", 1.0)
        model = fit(table, spec)
        center = model.center_coeffs
        assert 0.0 < abs(center.betas[0]) < 1e-10 and abs(center.betas[0] * center.scales[0]) > 1.0
        assert center.support().tolist() == [True, True, True]
        assert np.all(model.range_coeffs.betas != 0.0)  # X1 is in the range mask too
        result = cross_validate(table, spec, k=5, seed=0, n_points=20)
        assert max(result.nonzero) == 3
        path = coefficient_path(table, spec, result.grid)
        assert nonzero(path) == result.nonzero and nonzero(path)[-1] == 3


def record_standardizations(monkeypatch):
    """The ``(X, y)`` of every design a view standardizes, appended as it is."""
    designs = []

    def recording(X, y):
        designs.append((X, y))
        return standardize(X, y)

    monkeypatch.setattr(tables, "standardize", recording)
    return designs


def record_grid_rows(monkeypatch):
    """Every row of the lasso / elastic-net grids ``models`` fits, as ``(standardized
    sums, lambda, alpha, CoefficientSet)``, for cv (folds and path) and paths alike."""
    rows = []
    original = models.fit_elastic_net_path

    def recording(std, lams, alpha, *args, **kwargs):
        grid = original(std, lams, alpha, *args, **kwargs)
        rows.extend((std, lam, alpha, grid[i]) for i, lam in enumerate(lams))
        return grid

    monkeypatch.setattr(models, "fit_elastic_net_path", recording)
    return rows


def capped_steps(max_iter):
    """Stop every coordinate-descent fit ``models`` makes inside the block after
    ``max_iter`` steps."""
    capped = functools.partial(models.fit_elastic_net_path, max_iter=max_iter)
    return mock.patch.object(models, "fit_elastic_net_path", capped)


class TestNonConvergedFits:
    """CV and paths count the coordinate-descent fits that hit ``max_iter``."""

    @pytest.mark.parametrize("name", ["lasso-cm", "net-crm"])
    def test_cv_counts_every_fit_stopped_at_max_iter(self, monkeypatch, name):
        table = random_interval_table(np.random.default_rng(48), 20, 6)
        spec = MethodSpec.from_name(name, 1.0, None, 0.5 if name == "net-crm" else None)
        rows = record_grid_rows(monkeypatch)
        with capped_steps(1):
            result = cross_validate(table, spec, k=5, seed=1, n_points=12)
        flags = [c.converged for *_, c in rows]
        assert result.nonconverged == flags.count(False) > 0
        rows.clear()
        assert cross_validate(table, spec, k=5, seed=1, n_points=12).nonconverged == 0
        assert rows and all(c.converged for *_, c in rows)

    def test_path_counts_every_point_stopped_at_max_iter(self, monkeypatch):
        table = random_interval_table(np.random.default_rng(49), 20, 6)
        view = to_center_range(table)
        grid = make_lambda_grid(view.centers_X, view.centers_y, 1.0, 12)
        rows = record_grid_rows(monkeypatch)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        with capped_steps(1):
            path = coefficient_path(table, spec, grid)
        flags = [c.converged for *_, c in rows]
        assert len(flags) == len(grid)
        assert np.count_nonzero(~path.converged) == flags.count(False) > 0
        assert coefficient_path(table, spec, grid).converged.all()
        ridge = MethodSpec("cm", "ridge", lambda_center=1.0)
        with capped_steps(1):
            assert coefficient_path(table, ridge, grid).converged.all()


class TestCertifiedFits:
    def test_wide_lasso_cv_fits_are_certified_mostly_before_any_cycle(self, monkeypatch):
        """Every fit of a lasso-cm cv on wide tables has a relative duality gap of at
        most 1e-12, and most warm starts are certified without a cycle."""
        records = record_grid_rows(monkeypatch)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        for seed in range(3):
            table = random_interval_table(np.random.default_rng(700 + seed), 10, 15)
            assert cross_validate(table, spec, seed=seed).nonconverged == 0
        worst = 0.0
        for std, lam, alpha, coeffs in records:
            b = coeffs.betas * coeffs.scales
            primal = std.y_ss - 2.0 * std.q @ b + b @ std.gram @ b + lam * np.abs(b).sum()
            gap = duality_gap(std, b, lam, alpha)
            worst = max(worst, gap / primal)
        assert len(records) == 3 * 1100
        assert worst <= 1e-12
        assert sum(c.n_sweeps == 0 for *_, c in records) >= 0.8 * len(records)

    def test_most_grid_rows_never_reach_coordinate_descent(self, monkeypatch):
        """A lasso-cm cv solves most weights of its grids in batched runs: a run that
        ends where one coordinate enters or leaves hands that step on and stays
        batched, so only the other run ends call ``solvers.fit_elastic_net``.  The
        steps the grids report are those calls' steps plus one per entering step
        handed on; an exit is no step."""
        rows = record_grid_rows(monkeypatch)
        calls, attempts = [], []
        original_fit, original_rows = solvers.fit_elastic_net, solvers._sign_fixed_rows

        def recording_fit(*args, **kwargs):
            calls.append(original_fit(*args, **kwargs))
            return calls[-1]

        def recording_rows(std, lams, alpha, tol, start):
            attempts.append((start, original_rows(std, lams, alpha, tol, start)))
            return attempts[-1][1]

        monkeypatch.setattr(solvers, "fit_elastic_net", recording_fit)
        monkeypatch.setattr(solvers, "_sign_fixed_rows", recording_rows)
        spec = MethodSpec("cm", "lasso", lambda_center=1.0)
        table = random_interval_table(np.random.default_rng(700), 10, 15)
        assert cross_validate(table, spec, seed=0).nonconverged == 0
        assert len(rows) == 1100
        # attempts that start from the point the attempt before them handed on: an
        # entering step has a support at least as large as that attempt's start
        handed_on = [np.count_nonzero(handed) >= np.count_nonzero(before)
                     for (before, (_, handed)), (start, _) in zip(attempts, attempts[1:])
                     if start is handed]
        stepped = sum(handed_on)
        sweeps = sum(c.n_sweeps for *_, c in rows)
        assert stepped > 0 and sweeps == sum(c.n_sweeps for c in calls) + stepped
        assert stepped < len(handed_on)  # exits were handed on too
        assert len(calls) <= 0.002 * len(rows) and len(calls) < stepped


class TestViewsBuiltOnce:
    @staticmethod
    def count_views(monkeypatch):
        calls = []
        original = selection.to_center_range

        def counting(table):
            calls.append(table.n_rows)
            return original(table)

        monkeypatch.setattr(selection, "to_center_range", counting)
        return calls

    def test_cv_builds_one_whole_table_view(self, monkeypatch):
        table = random_interval_table(np.random.default_rng(50), 15, 4)
        calls = self.count_views(monkeypatch)
        spec = MethodSpec("crm", "lasso", lambda_center=1.0)
        grid = cross_validate(table, spec, k=5, seed=2, n_points=10).grid
        assert sorted(calls) == [15]
        calls.clear()
        cross_validate(table, spec, grid, k=5, seed=2)
        assert sorted(calls) == [15]

    def test_path_accepts_the_view_it_would_build(self, monkeypatch):
        table = random_interval_table(np.random.default_rng(51), 15, 4)
        view = to_center_range(table)
        grid = make_lambda_grid(view.halfranges_X, view.halfranges_y, 1.0, 10)
        spec = MethodSpec("crm", "lasso", lambda_center=1.0)
        from_table = coefficient_path(table, spec, grid, component="range")
        calls = self.count_views(monkeypatch)
        from_view = coefficient_path(view, spec, grid, component="range")
        assert calls == []
        assert from_view.slopes.tobytes() == from_table.slopes.tobytes()
        assert from_view.intercepts.tobytes() == from_table.intercepts.tobytes()


def reference_cross_validate(table, spec, grid, k, seed, component):
    """The per-(fold, lambda) loop: a warm-started ``fit`` then ``predict`` per weight.

    Kept as a reference for the per-fold grid fit of ``cross_validate``.
    """
    n = table.n_rows
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    losses = np.empty((k, len(grid)))
    for fi, test_idx in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train = table.take(np.flatnonzero(mask))
        test = table.take(test_idx)
        y_lo, y_hi = response_bounds(test)
        warm = None
        for li, lam in enumerate(grid.values):
            warm = fit(
                train,
                MethodSpec(spec.family, spec.penalty, lambda_center=lam, alpha=spec.alpha),
                warm_start=warm,
            )
            pred = predict(warm, test)
            if component == "interval":
                loss = ((y_lo - pred.lower) ** 2 + (y_hi - pred.upper) ** 2) / 2.0
            elif component == "center":
                loss = ((y_lo + y_hi) / 2.0 - (pred.lower + pred.upper) / 2.0) ** 2
            else:
                loss = ((y_hi - y_lo) / 2.0 - (pred.upper - pred.lower) / 2.0) ** 2
            losses[fi, li] = np.mean(loss)
    # nonzero counts: the old per-weight path of the whole table's design
    std = standardize(*to_center_range(table).design(component))
    nonzero, previous = [], None
    for lam in grid.values:
        if spec.penalty == "ridge":
            c = fit_ridge(std, lam)
        else:
            c = previous = fit_elastic_net(
                std, lam, spec.effective_alpha, warm_start=previous
            )
        nonzero.append(int(np.sum(c.betas != 0.0)))
    return losses.mean(axis=0), losses.std(axis=0, ddof=1) / np.sqrt(k), tuple(nonzero)


REFERENCE_TABLES = {
    "cardio": make_cardio_table,
    "tall": lambda: random_interval_table(np.random.default_rng(48), 40, 5),
    "wide": lambda: random_interval_table(np.random.default_rng(49), 12, 9),
}


class TestCrossValidateMatchesPerFitLoop:
    @pytest.mark.parametrize("table_name", sorted(REFERENCE_TABLES))
    @pytest.mark.parametrize(
        "name", ["ridge-cm", "lasso-cm", "net-cm", "ridge-crm", "lasso-crm", "net-crm"]
    )
    def test_curves_and_choices_match(self, name, table_name):
        table = REFERENCE_TABLES[table_name]()
        spec = MethodSpec.from_name(name, 1.0, None, 0.5 if name.startswith("net") else None)
        for component in ("interval", "center", "range"):
            got = cross_validate(table, spec, k=5, seed=13, n_points=15, component=component)
            mean_loss, std_error, nonzero = reference_cross_validate(
                table, spec, got.grid, 5, 13, component
            )
            np.testing.assert_allclose(got.mean_loss, mean_loss, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.std_error, std_error, rtol=1e-12, atol=0)
            i_min = int(np.argmin(mean_loss))
            i_1se = int(np.flatnonzero(mean_loss <= mean_loss[i_min] + std_error[i_min])[0])
            assert got.lambda_min == got.grid.values[i_min]
            assert got.lambda_1se == got.grid.values[i_1se]
            assert got.nonzero == nonzero
