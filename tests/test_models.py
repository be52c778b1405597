import re

import numpy as np
import pytest

from intervalreg import (
    IntervalTable,
    MethodSpec,
    ModelFormatError,
    SchemaMismatch,
    VersionMismatch,
    deserialize,
    fit,
    models,
    predict,
    serialize,
    swap_violations,
    tables,
)
from intervalreg.models import METHOD_NAMES, FittedModel, IntervalPrediction
from intervalreg.selection import cross_validate, make_lambda_grid
from intervalreg.solvers import (
    CoefficientSet,
    NonFiniteEncountered,
    fit_elastic_net,
    fit_ridge,
    restrict,
    standardize,
)
from intervalreg.tables import CenterRangeView, predictor_bounds, read_interval_csv, to_center_range

from conftest import DATA_DIR, least_squares, random_interval_table


class TestMethodSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            MethodSpec("midpoints")

    def test_lambda_without_penalty(self):
        with pytest.raises(ValueError):
            MethodSpec("cm", "none", lambda_center=1.0)

    def test_alpha_only_for_elastic_net(self):
        with pytest.raises(ValueError):
            MethodSpec("cm", "ridge", lambda_center=1.0, alpha=0.5)

    def test_elastic_net_needs_alpha(self):
        with pytest.raises(ValueError):
            MethodSpec("cm", "elastic_net", lambda_center=1.0)

    def test_lambda_range_only_for_crm(self):
        with pytest.raises(ValueError):
            MethodSpec("cm", "ridge", lambda_center=1.0, lambda_range=2.0)

    @pytest.mark.parametrize("penalty, alpha, message", [
        ("l0", None, "penalty must be one of ('none', 'ridge', 'lasso', 'elastic_net'), "
                     "got 'l0'"),
        ("elastic_net", -0.5, "alpha must lie in [0, 1], got -0.5"),
        ("elastic_net", 1.5, "alpha must lie in [0, 1], got 1.5"),
    ])
    def test_a_bad_penalty_or_alpha_is_rejected(self, penalty, alpha, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MethodSpec("cm", penalty, lambda_center=1.0, alpha=alpha)

    def test_an_unpenalized_spec_has_no_alpha(self):
        with pytest.raises(ValueError, match="^no penalty, no alpha$"):
            MethodSpec("crm").effective_alpha

    def test_shared_lambda_default(self):
        spec = MethodSpec("crm", "lasso", lambda_center=3.0)
        assert spec.effective_lambda_range == 3.0
        spec = MethodSpec("crm", "lasso", lambda_center=3.0, lambda_range=0.5)
        assert spec.effective_lambda_range == 0.5

    def test_from_name(self):
        spec = MethodSpec.from_name("net-crm", 2.0, None, 0.4)
        assert (spec.family, spec.penalty, spec.alpha) == ("crm", "elastic_net", 0.4)
        with pytest.raises(ValueError):
            MethodSpec.from_name("pls")
        with pytest.raises(ValueError, match=r"^method 'cm' takes no penalty parameters$"):
            MethodSpec.from_name("cm", 1.0)
        with pytest.raises(ValueError, match=r"^method 'lasso-cm' does not take alpha$"):
            MethodSpec.from_name("lasso-cm", -1.0, None, 0.5)


class TestCenterMethod:
    def test_cardio_fitted_values_spot_check(self, cardio):
        model = fit(cardio, MethodSpec("cm"))
        pred = predict(model, cardio)
        assert pred.lower[0] == pytest.approx(59.3, abs=0.1)
        assert pred.upper[0] == pytest.approx(65.9, abs=0.1)
        assert pred.lower[8] == pytest.approx(69.2, abs=0.1)
        assert pred.upper[8] == pytest.approx(102.3, abs=0.1)

    def test_cardio_row2_lower_endpoint(self, cardio):
        model = fit(cardio, MethodSpec("cm"))
        row2 = np.array([[90.0, 70.0]])  # lower endpoints of the second row
        value = (model.center_coeffs.intercept + row2 @ model.center_coeffs.betas)[0]
        assert value == pytest.approx(62.7, abs=0.1)

    def test_zero_slopes_constant_prediction(self):
        coeffs = CoefficientSet(7.0, np.zeros(3))
        model = FittedModel(MethodSpec("cm"), ("X1", "X2", "X3"), "Y", coeffs)
        X = np.random.default_rng(18).normal(size=(6, 3))
        pred = predict(model, IntervalTable(model.predictor_names, X, X + 1.0))
        assert np.array_equal(pred.lower, np.full(6, 7.0))
        assert np.array_equal(pred.upper, np.full(6, 7.0))

    def test_nonnegative_slopes_imply_ordered_predictions(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            coeffs = CoefficientSet(float(rng.normal()), rng.uniform(0.0, 3.0, p))
            model = FittedModel(
                MethodSpec("cm"),
                tuple(f"X{j + 1}" for j in range(p)),
                "Y",
                coeffs,
            )
            table = random_interval_table(rng, 15, p)
            pred = predict(model, table)
            assert pred.ordering_violations == 0
            assert np.all(pred.lower <= pred.upper)


class TestCenterRangeMethod:
    def test_cardio_fitted_values_spot_check(self, cardio):
        model = fit(cardio, MethodSpec("crm"))
        pred = predict(model, cardio)
        assert pred.lower[0] == pytest.approx(49.8, abs=0.1)
        assert pred.upper[0] == pytest.approx(75.5, abs=0.1)
        assert pred.lower[3] == pytest.approx(65.9, abs=0.1)
        assert pred.upper[3] == pytest.approx(91.2, abs=0.1)

    def test_midpoint_consistency(self, cardio):
        model = fit(cardio, MethodSpec("crm"))
        pred = predict(model, cardio)
        view = to_center_range(cardio)
        centers = model.center_coeffs.intercept + view.centers_X @ model.center_coeffs.betas
        halfranges = model.range_coeffs.intercept + view.halfranges_X @ model.range_coeffs.betas
        assert np.allclose((pred.lower + pred.upper) / 2.0, centers, rtol=1e-12)
        assert np.allclose((pred.upper - pred.lower) / 2.0, halfranges, rtol=1e-12)

    def test_degenerate_table_reduces_to_cm(self):
        rng = np.random.default_rng(32)
        values = rng.uniform(-4, 4, size=(12, 3))
        table = IntervalTable(("Y", "X1", "X2"), values, values, response_name="Y")
        crm = predict(fit(table, MethodSpec("crm")), table)
        cm = predict(fit(table, MethodSpec("cm")), table)
        assert np.array_equal(crm.lower, crm.upper)
        assert np.array_equal(crm.lower, cm.lower)
        assert np.array_equal(crm.upper, cm.upper)

    def test_unpenalized_needs_enough_rows(self):
        rng = np.random.default_rng(33)
        table = random_interval_table(rng, 3, 2)
        with pytest.raises(ValueError, match="rows"):
            fit(table, MethodSpec("crm"))


class TestLeastSquares:
    @pytest.mark.parametrize("family", ["cm", "crm"])
    def test_predictors_far_from_the_origin_match_lstsq(self, family):
        # midpoints near 1e6 with unit spread: the intercept column is nearly
        # parallel to the predictors, so the uncentered Gram is singular to
        # working precision
        rng = np.random.default_rng(37)
        n = 30
        centers_X = 1e6 + rng.normal(size=(n, 2))
        halfranges_X = rng.uniform(0.5, 1.5, size=(n, 2))
        centers_y = centers_X @ [1.5, -2.0] + rng.normal(size=n)
        halfranges_y = halfranges_X @ [0.3, 0.7] + rng.uniform(0.0, 0.5, size=n)
        table = IntervalTable(
            ("X1", "X2", "Y"),
            np.column_stack([centers_X - halfranges_X, centers_y - halfranges_y]),
            np.column_stack([centers_X + halfranges_X, centers_y + halfranges_y]),
            response_name="Y",
        )
        model = fit(table, MethodSpec(family))
        fits = [(model.center_coeffs, centers_X, centers_y)]
        if family == "crm":
            fits.append((model.range_coeffs, halfranges_X, halfranges_y))
        for coeffs, X, y in fits:
            intercept, betas = least_squares(X, y)
            want = np.r_[intercept, betas]
            got = np.r_[coeffs.intercept, coeffs.betas]
            assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want))


class TestShrinkageVariants:
    def test_lambda_zero_collapse(self, cardio):
        for family in ("cm", "crm"):
            base = predict(fit(cardio, MethodSpec(family)), cardio)
            variants = [
                MethodSpec(family, "ridge", lambda_center=0.0),
                MethodSpec(family, "lasso", lambda_center=0.0),
                MethodSpec(family, "elastic_net", lambda_center=0.0, alpha=0.5),
            ]
            for spec in variants:
                pred = predict(fit(cardio, spec), cardio)
                assert np.max(np.abs(pred.lower - base.lower)) <= 1e-6
                assert np.max(np.abs(pred.upper - base.upper)) <= 1e-6

    def test_support_nesting(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(10, 40))
            p = int(rng.integers(2, 8))
            table = random_interval_table(rng, n, p)
            for penalty, alpha in (("lasso", None), ("elastic_net", 0.6)):
                lam = float(rng.uniform(0.5, 30.0))
                spec = MethodSpec("crm", penalty, lambda_center=lam, alpha=alpha)
                model = fit(table, spec)
                center_support = model.center_coeffs.support()
                range_nonzero = model.range_coeffs.betas != 0.0
                assert np.all(center_support | ~range_nonzero)

    def test_empty_support_flag(self):
        rng = np.random.default_rng(35)
        table = random_interval_table(rng, 20, 3)
        spec = MethodSpec("crm", "lasso", lambda_center=1e9)
        model = fit(table, spec)
        assert model.empty_support
        assert np.all(model.center_coeffs.betas == 0.0)
        assert np.all(model.range_coeffs.betas == 0.0)
        view = to_center_range(table)
        assert model.range_coeffs.intercept == pytest.approx(view.halfranges_y.mean())
        pred = predict(model, table)
        mid = model.center_coeffs.intercept + view.centers_X @ model.center_coeffs.betas
        assert np.allclose(pred.lower, mid - view.halfranges_y.mean())

    def test_ridge_crm_uses_all_columns(self):
        rng = np.random.default_rng(36)
        table = random_interval_table(rng, 25, 4)
        model = fit(table, MethodSpec("crm", "ridge", lambda_center=5.0))
        assert np.all(model.range_coeffs.betas != 0.0)

    def test_determinism(self, cardio):
        spec = MethodSpec("crm", "elastic_net", lambda_center=2.0, alpha=0.7)
        assert serialize(fit(cardio, spec)) == serialize(fit(cardio, spec))

    def test_alpha_zero_grid_shares_one_factorization(self, monkeypatch):
        # elastic net at alpha 0 is one exact solve per weight, all from the
        # one eigendecomposition of the design's Gram
        rng = np.random.default_rng(37)
        X = rng.normal(size=(30, 6))
        X[:, 2] = 1.5  # a zero-variance column
        y = X[:, :2] @ [1.0, -2.0] + rng.normal(size=30)
        spec = MethodSpec("cm", "elastic_net", lambda_center=1.0, alpha=0.0)
        view = CenterRangeView(X, y, X, y)
        calls, eigh = [], np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        fits = models.fit_component([view], "center", spec, np.geomspace(1e3, 1e-3, 100))[0]
        assert calls == [(5, 5)]  # the Gram of the five non-constant columns
        assert all(f.converged and f.n_sweeps == 0 for f in fits)
        assert all(f.betas[2] == 0.0 for f in fits)

    def test_crm_cv_standardizes_once_per_view_and_component(self, monkeypatch):
        # every support run's half-range design is a restriction of its fold's one
        # standardization, however many distinct supports the grids meet
        calls, restricted = [], []

        def counted(X, y):  # each design of a stacked call counts once
            calls.extend([X.shape[1:]] * len(X) if X.ndim == 3 else [X.shape])
            return standardize(X, y)

        def recorded(std, cols):
            restricted.append((std, cols.tobytes()))
            return restrict(std, cols)

        monkeypatch.setattr(tables, "standardize", counted)
        monkeypatch.setattr(models, "restrict", recorded)
        rng = np.random.default_rng(38)
        table = random_interval_table(rng, 40, 60)
        spec = MethodSpec.from_name("lasso-crm", 1.0)
        result = cross_validate(table, spec, k=5, seed=1, n_points=30)
        # the whole table's midpoints (grid top and path), and both designs of 5 folds
        assert len(calls) == 1 + 5 * 2
        assert calls.count((40, 60)) == 1 and len(set(calls) - {(40, 60)}) == 1
        # one restriction per run of a nonempty support, each of one fold's half-ranges
        assert len({id(std) for std, _ in restricted}) == 5
        assert len({cols for _, cols in restricted}) > 10 and max(result.nonzero) > 1

    def test_warm_start_reaches_same_solution(self, cardio):
        big = fit(cardio, MethodSpec("cm", "lasso", lambda_center=50.0))
        spec = MethodSpec("cm", "lasso", lambda_center=5.0)
        warm = fit(cardio, spec, warm_start=big)
        cold = fit(cardio, spec)
        assert np.max(np.abs(warm.center_coeffs.betas - cold.center_coeffs.betas)) <= 1e-6


class TestGridArrays:
    @pytest.mark.parametrize(
        "name", ["ridge-cm", "ridge-crm", "lasso-cm", "lasso-crm", "net-cm", "net-crm"]
    )
    def test_grid_columns_match_one_weight_models(self, name):
        # column i of a grid's predictions is the model fitted at weight i; the
        # one-weight fits are chained by warm start as the grid is
        table = read_interval_csv(DATA_DIR / "cardio.csv", response="Pulse")
        alpha = 0.5 if name.startswith("net") else None
        view = to_center_range(table)
        spec = MethodSpec.from_name(name, 1.0, None, alpha)
        top = make_lambda_grid(view.centers_X, view.centers_y, spec.effective_alpha, 2).values[0]
        lams = (2.0 * top, 0.3 * top, 0.05 * top, 1e-3 * top, 1e-5 * top)
        fits = models.fit_grid(view, spec, lams)
        lower, upper = fits.predict_bounds(*predictor_bounds(table))
        model = None
        for i, lam in enumerate(lams):
            model = fit(table, MethodSpec.from_name(name, lam, None, alpha), warm_start=model)
            pred = predict(model, table)
            np.testing.assert_allclose(lower[:, i], pred.lower, rtol=1e-14, atol=0)
            np.testing.assert_allclose(upper[:, i], pred.upper, rtol=1e-14, atol=0)
        if not spec.selects_variables or spec.family == "cm":
            return
        supports = fits.centers.slopes != 0.0
        assert not supports[0].any() and supports[-1].any()
        assert np.all(fits.ranges.slopes[~supports] == 0.0)
        empty = ~supports.any(axis=1)
        assert np.all(fits.ranges.slopes[empty] == 0.0)
        assert np.all(fits.ranges.intercepts[empty] == np.mean(view.halfranges_y))


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["crm", "ridge-crm", "lasso-crm", "net-crm"])
    def test_half_range_fits_match_the_rule_of_fitting_the_kept_columns_only(self, name, seed):
        # X2 is degenerate (half-range 0) and X3 has a constant nonzero width; the
        # grid's center support changes, then empties at its last two weights
        rng = np.random.default_rng(seed)
        base = random_interval_table(rng, 30, 5)
        center = np.round((base.lower + base.upper) / 2.0 * 1024.0) / 1024.0
        half = np.round((base.upper - base.lower) / 2.0 * 1024.0) / 1024.0
        half[:, 1], half[:, 2] = 0.0, 0.625
        table = IntervalTable(base.variable_names, center - half, center + half, "Y")
        view = to_center_range(table)
        spec = MethodSpec.from_name(name, 0.0 if name == "crm" else 1.0, None,
                                    0.5 if name == "net-crm" else None)
        if spec.penalty == "none":
            lams = (0.0,)
        else:
            top = make_lambda_grid(view.centers_X, view.centers_y, spec.effective_alpha, 2).values[0]
            lams = tuple(top * f for f in (0.5, 0.1, 0.01, 1e-4, 2.0, 3.0))
        fits = models.fit_grid(view, spec, lams)
        X, y = view.halfranges_X, view.halfranges_y
        masks = np.broadcast_to(np.ptp(X, axis=0) > 0.0, fits.centers.slopes.shape)
        if spec.selects_variables:
            masks = masks & (fits.centers.slopes != 0.0)
            assert len({m.tobytes() for m in masks[:4]}) > 1 and not masks[4:].any()
        # the rule before constant columns got slope 0 in every solve: fit X[:, mask],
        # slope 0 elsewhere, and the mean of y alone where the mask is empty
        want, warm = [], np.zeros(5)
        for mask, lam in zip(masks, lams):
            intercept, slopes = float(np.mean(y)), np.zeros(5)
            if mask.any():
                std = standardize(X[:, mask], y)
                if spec.selects_variables:
                    start = CoefficientSet(0.0, warm[mask])
                    sub = fit_elastic_net(std, lam, spec.effective_alpha, warm_start=start)
                else:
                    sub = fit_ridge(std, lam)
                intercept, slopes[mask] = sub.intercept, sub.betas
            want.append(intercept + X @ slopes)
            warm = slopes
        got = fits.ranges.intercepts + X @ fits.ranges.slopes.T
        np.testing.assert_allclose(got, np.column_stack(want), rtol=1e-12, atol=0)
        # every row records the view's one half-range standardization, and a row whose
        # center support is empty is intercept-only without a step
        std = view.standardized("range")
        assert fits.ranges.means.tobytes() == std.means.tobytes()
        assert fits.ranges.scales.tobytes() == std.scales.tobytes()
        empty = ~(fits.centers.slopes != 0.0).any(axis=1)
        assert empty.any() == spec.selects_variables
        assert fits.ranges.converged[empty].all() and not fits.ranges.n_sweeps[empty].any()


@pytest.mark.parametrize("name", sorted(METHOD_NAMES))
def test_a_response_whose_sums_overflow_is_not_fitted(name):
    # the midpoints' mean is 0, but their products with the standardized predictor
    # sum past the largest double
    lower = np.array([[8e307, 1.0], [-8e307, -2.0]] * 2)
    table = IntervalTable(("Y", "A"), lower, lower + [0.0, 1.0], response_name="Y")
    spec = MethodSpec.from_name(name, 0.0 if name in ("cm", "crm") else 1.0, None,
                                0.5 if name.startswith("net") else None)
    with pytest.raises(NonFiniteEncountered, match="^sums of the response's midpoints overflow"):
        fit(table, spec)


@pytest.mark.parametrize("name", sorted(METHOD_NAMES))
def test_a_response_whose_sum_overflows_is_fitted(name):
    # five midpoints near 8.5e307 sum past the largest double; their mean and their
    # deviations from it do not
    lower = np.column_stack([[8.0e307, 8.2e307, 8.5e307, 8.8e307, 8.6e307],
                             [1.0, 2.5, 2.75, 5.0, 3.6]])
    table = IntervalTable(("Y", "A"), lower, lower + [0.0, 1.0], response_name="Y")
    spec = MethodSpec.from_name(name, 0.0 if name in ("cm", "crm") else 1.0, None,
                                0.5 if name.startswith("net") else None)
    model = deserialize(serialize(fit(table, spec)))
    pred = predict(model, table)
    assert np.isfinite(pred.lower).all() and np.isfinite(pred.upper).all()
    if spec.penalty == "none":
        unit = fit(IntervalTable(("Y", "A"), lower / [1e307, 1.0], lower / [1e307, 1.0]
                                 + [0.0, 1.0], response_name="Y"), spec)
        assert model.center_coeffs.intercept == pytest.approx(
            unit.center_coeffs.intercept * 1e307, rel=1e-12)
        assert model.center_coeffs.betas[0] == pytest.approx(
            unit.center_coeffs.betas[0] * 1e307, rel=1e-12)


class TestPredictValidation:
    def test_missing_column_named(self, cardio):
        model = fit(cardio, MethodSpec("cm"))
        smaller = IntervalTable(("Systolic",), cardio.lower[:, [1]], cardio.upper[:, [1]])
        with pytest.raises(SchemaMismatch, match="Diastolic"):
            predict(model, smaller)

    def test_unexpected_column_rejected(self, cardio):
        model = fit(cardio, MethodSpec("cm"))
        extra = IntervalTable(
            ("Systolic", "Diastolic", "Weight"),
            np.column_stack([cardio.lower[:, 1:], np.zeros(cardio.n_rows)]),
            np.column_stack([cardio.upper[:, 1:], np.ones(cardio.n_rows)]),
        )
        with pytest.raises(SchemaMismatch, match="Weight"):
            predict(model, extra)

    def test_response_column_is_ignored(self, cardio):
        model = fit(cardio, MethodSpec("cm"))
        pred_with = predict(model, cardio)
        no_response = IntervalTable(
            ("Systolic", "Diastolic"), cardio.lower[:, 1:], cardio.upper[:, 1:]
        )
        pred_without = predict(model, no_response)
        assert np.array_equal(pred_with.lower, pred_without.lower)

    def test_predictor_order_is_model_order(self, cardio):
        model = fit(cardio, MethodSpec("cm"))
        swapped = IntervalTable(
            ("Diastolic", "Systolic"), cardio.lower[:, [2, 1]], cardio.upper[:, [2, 1]]
        )
        pred = predict(model, swapped)
        assert np.array_equal(pred.lower, predict(model, cardio).lower)


class TestResultsChecked:
    ONE = CoefficientSet(0.0, [1.0])

    @pytest.mark.parametrize("family, range_coeffs, message", [
        ("cm", ONE, "cm families carry no range coefficients"),
        ("crm", None, "crm families need range coefficients"),
        ("crm", CoefficientSet(0.0, [1.0, 2.0]),
         "range coefficient count does not match predictors"),
    ], ids=["cm-with-range", "crm-without-range", "range-too-long"])
    def test_range_coefficients_match_the_family(self, family, range_coeffs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FittedModel(MethodSpec(family), ("A",), "Y", self.ONE, range_coeffs)

    @pytest.mark.parametrize("lower, upper", [
        ([1.0, 2.0], [1.0]), ([[1.0]], [[2.0]]),
    ], ids=["lengths", "matrices"])
    def test_prediction_needs_equal_length_vectors(self, lower, upper):
        with pytest.raises(ValueError, match="^lower and upper must be vectors of equal length$"):
            IntervalPrediction(lower, upper)


class TestClamp:
    def test_swap_violations(self):
        pred = IntervalPrediction(np.array([1.0, 5.0, 2.0]), np.array([2.0, 3.0, 2.0]))
        assert pred.ordering_violations == 1
        fixed = swap_violations(pred)
        assert fixed.ordering_violations == 0
        assert np.array_equal(fixed.lower, [1.0, 3.0, 2.0])
        assert np.array_equal(fixed.upper, [2.0, 5.0, 2.0])


class TestSerialization:
    def test_round_trip_identity(self, cardio):
        rng = np.random.default_rng(37)
        specs = [
            MethodSpec("cm"),
            MethodSpec("crm"),
            MethodSpec("cm", "ridge", lambda_center=1.25),
            MethodSpec("crm", "ridge", lambda_center=2.0, lambda_range=0.5),
            MethodSpec("cm", "lasso", lambda_center=0.5),
            MethodSpec("crm", "lasso", lambda_center=0.875906),
            MethodSpec("crm", "lasso", lambda_center=1e6),  # an empty center support
            MethodSpec("cm", "elastic_net", lambda_center=1.5, alpha=0.3),
            MethodSpec("crm", "elastic_net", lambda_center=2.0,
                       lambda_range=1.0, alpha=0.9),
        ]
        assert {spec.name for spec in specs} == set(METHOD_NAMES)
        assert fit(cardio, specs[6]).empty_support
        for spec in specs:
            model = fit(cardio, spec)
            text = serialize(model)
            back = deserialize(text)
            assert serialize(back) == text
            assert back.spec == model.spec
            assert back.center_coeffs.intercept == model.center_coeffs.intercept
            assert np.array_equal(back.center_coeffs.betas, model.center_coeffs.betas)
            if model.range_coeffs is not None:
                assert np.array_equal(back.range_coeffs.betas, model.range_coeffs.betas)
                if model.range_coeffs.scales is not None:
                    assert np.array_equal(
                        back.range_coeffs.scales, model.range_coeffs.scales
                    )
            table = random_interval_table(rng, 5, 2)
            renamed = IntervalTable(
                ("Systolic", "Diastolic"), table.lower[:, :2], table.upper[:, :2]
            )
            assert np.array_equal(
                predict(back, renamed).lower, predict(model, renamed).lower
            )

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            deserialize("intervalreg-model/999\nmethod: cm\n")

    def test_malformed_field(self, cardio):
        text = serialize(fit(cardio, MethodSpec("cm")))
        broken = text.replace("center.intercept: ", "center.intercept: not-a-number ")
        with pytest.raises(ModelFormatError):
            deserialize(broken)

    @pytest.mark.parametrize("key, value", [
        ("center.intercept", "nan"),
        ("center.betas", "0.5 inf"),
        ("center.means", "nan 1"),
        ("range.scales", "1 -inf"),
        ("center.n_sweeps", "1.5"),
        ("range.n_sweeps", "many"),
    ])
    def test_a_bad_number_is_rejected_by_its_key(self, cardio, key, value):
        text = serialize(fit(cardio, MethodSpec("crm")))
        broken = re.sub(rf"^{re.escape(key)}: .*$", f"{key}: {value}", text, flags=re.M)
        assert broken != text
        with pytest.raises(ModelFormatError, match=re.escape(f"{key!r}: {value!r}")):
            deserialize(broken)

    def test_missing_field(self, cardio):
        text = serialize(fit(cardio, MethodSpec("cm")))
        broken = "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("center.betas")
        )
        with pytest.raises(ModelFormatError):
            deserialize(broken)

    @pytest.mark.parametrize("key, value, message", [
        (None, None, "empty model text"),
        ("method", "lasso-crm\nno colon here", "malformed line 'no colon here'"),
        ("center.betas", "0 x", "malformed numeric list for 'center.betas': '0 x'"),
        ("center.converged", "yes", "malformed boolean for 'center.converged': 'yes'"),
        ("response", None, "missing field 'response'"),
        ("method", "lasso-xyz", "unknown method 'lasso-xyz'; choose from cm, crm, "),
        ("predictors", "Systolic", "center coefficient count does not match predictors"),
        ("range.betas", "0 1", "range support is not nested in center support"),
        ("empty_support", "maybe", "malformed boolean for 'empty_support': 'maybe'"),
        ("empty_support", "false", "empty_support: false contradicts the center coefficients"),
        ("center.betas", "-", "malformed numeric list for 'center.betas': '-'"),
        ("center.means", "1 2 3", "'center.means' needs 2 numbers, got 3: '1 2 3'"),
        ("range.scales", "1", "'range.scales' needs 2 numbers, got 1: '1'"),
        ("center.n_sweeps", "-1", "negative number in 'center.n_sweeps': '-1'"),
        ("predictors", "Systolic,Systolic", "predictors: 'Systolic,Systolic' has a repeated name"),
        ("predictors", "Systolic,", "predictors: 'Systolic,' has an empty name"),
        ("predictors", "Systolic,Pulse", "predictors: 'Systolic,Pulse' has the response 'Pulse'"),
        ("response", "", "response: '' is an empty name"),
        ("center.intercept", "21\ncenter.intercept: 99", "repeated field 'center.intercept'"),
        ("range.betas", "0 0\n range.betas : 0 0", "repeated field 'range.betas'"),
    ])
    def test_a_malformed_model_file_is_rejected(self, cardio, key, value, message):
        # at this weight the center model selects no variable (empty support)
        text = serialize(fit(cardio, MethodSpec("crm", "lasso", lambda_center=1e6)))
        if key is None:
            broken = ""
        else:
            line = "" if value is None else f"{key}: {value}\n"
            broken = re.sub(rf"^{re.escape(key)}: .*\n", lambda _: line, text, flags=re.M)
            assert broken != text
        with pytest.raises(ModelFormatError, match="^" + re.escape(message)):
            deserialize(broken)

    def test_an_unknown_key_is_ignored(self, cardio):
        # a later file under the same format tag may carry an optional key
        text = serialize(fit(cardio, MethodSpec("crm", "lasso", lambda_center=1.0)))
        extended = text.replace("center.n_sweeps:", "center.gap: 1e-12\ncenter.n_sweeps:")
        assert extended != text
        assert serialize(deserialize(extended + "trace: fit.jsonl\n")) == text

    @pytest.mark.parametrize("n_sweeps", ["0", "123456789012345678901", "1" + "0" * 400],
                             ids=["0", "21 digits", "401 digits"])
    def test_hand_built_minimal_model(self, n_sweeps):
        text = "\n".join([
            "intervalreg-model/1",
            "method: cm",
            "alpha: -",
            "lambda_center: 0",
            "lambda_range: -",
            "response: Y",
            "predictors: X",
            "empty_support: false",
            "center.intercept: 1",
            "center.betas: 2",
            "center.means: -",
            "center.scales: -",
            "center.converged: true",
            f"center.n_sweeps: {n_sweeps}",
        ])
        model = deserialize(text)
        assert model.center_coeffs.n_sweeps == int(n_sweeps)
        assert serialize(model) == text + "\n"  # a count stays an integer
        table = IntervalTable(("X",), [[3.0]], [[5.0]])
        pred = predict(model, table)
        assert pred.lower[0] == 1 + 2 * 3.0
        assert pred.upper[0] == 1 + 2 * 5.0
