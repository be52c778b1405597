"""Property tests of fitting, serialization, prediction repair and CV."""

import functools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalreg import (
    IntervalPrediction,
    IntervalTable,
    MethodSpec,
    cross_validate,
    deserialize,
    fit,
    fit_grid,
    make_lambda_grid,
    predict,
    serialize,
    swap_violations,
    to_center_range,
)
from intervalreg import models, solvers
from intervalreg.models import METHOD_NAMES
from intervalreg.tables import response_bounds

from conftest import random_interval_table

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def fitting_problems(draw):
    """A random table with signal and a spec of any method that can fit it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 4))
    table = random_interval_table(rng, draw(st.integers(p + 3, 25)), p)
    name = draw(st.sampled_from(sorted(METHOD_NAMES)))
    if METHOD_NAMES[name][1] == "none":
        return table, MethodSpec.from_name(name)
    lam = draw(st.floats(0.01, 20.0))
    alpha = draw(st.floats(0.1, 0.9)) if name.startswith("net") else None
    return table, MethodSpec.from_name(name, lam, None, alpha)


def coefficients(model):
    parts = [model.center_coeffs]
    if model.range_coeffs is not None:
        parts.append(model.range_coeffs)
    return np.concatenate([[c.intercept, *c.betas] for c in parts])


def close(a, b):
    return np.allclose(a, b, rtol=1e-6, atol=1e-8)


def tight_fits():
    """Coordinate descent at tolerance 1e-10 in every fit made inside the block."""
    tight = functools.partial(solvers.fit_elastic_net_path, tol=1e-10)
    return mock.patch.object(models, "fit_elastic_net_path", tight)


@SETTINGS
@given(fitting_problems(), st.data())
def test_fit_is_invariant_to_row_order(problem, data):
    table, spec = problem
    perm = data.draw(st.permutations(range(table.n_rows)))
    with tight_fits():
        a = fit(table, spec)
        b = fit(table.take(perm), spec)
    assert close(coefficients(a), coefficients(b))


@SETTINGS
@given(fitting_problems(), st.floats(-100.0, 100.0))
def test_shifting_the_response_moves_only_the_center_intercept(problem, shift):
    table, spec = problem
    y = table.variable_names.index(table.response_name)
    offset = np.zeros(len(table.variable_names))
    offset[y] = shift
    shifted = IntervalTable(
        table.variable_names, table.lower + offset, table.upper + offset, table.response_name
    )
    with tight_fits():
        a = fit(table, spec)
        b = fit(shifted, spec)
    moved = coefficients(a)
    moved[0] += shift
    assert close(coefficients(b), moved)


@SETTINGS
@given(fitting_problems())
def test_serialize_then_deserialize_is_the_identity(problem):
    model = fit(*problem)
    text = serialize(model)
    back = deserialize(text)
    assert serialize(back) == text
    assert back.spec == model.spec
    assert back.predictor_names == model.predictor_names
    assert back.response_name == model.response_name
    assert back.empty_support == model.empty_support
    assert coefficients(back).tobytes() == coefficients(model).tobytes()


@st.composite
def degenerate_problems(draw):
    """A table of single-point cells and a pair of (crm, cm) specs with one penalty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 4))
    table = random_interval_table(rng, draw(st.integers(p + 3, 25)), p)
    points = (table.lower + table.upper) / 2.0
    table = IntervalTable(table.variable_names, points, points, table.response_name)
    name = draw(st.sampled_from(sorted(n for n in METHOD_NAMES if n.endswith("crm"))))
    if METHOD_NAMES[name][1] == "none":
        return table, MethodSpec.from_name(name), MethodSpec.from_name("cm")
    lam = draw(st.floats(0.01, 20.0))
    alpha = draw(st.floats(0.1, 0.9)) if name.startswith("net") else None
    cm_name = name[: -len("crm")] + "cm"
    return (
        table,
        MethodSpec.from_name(name, lam, None, alpha),
        MethodSpec.from_name(cm_name, lam, None, alpha),
    )


@SETTINGS
@given(degenerate_problems())
def test_on_degenerate_intervals_crm_predicts_what_cm_predicts(problem):
    table, crm, cm = problem
    got = predict(fit(table, crm), table)
    want = predict(fit(table, cm), table)
    assert np.array_equal(got.lower, got.upper)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.upper, want.upper)


@st.composite
def selecting_problems(draw):
    """A table (possibly wider than tall) and a lasso-crm or net-crm spec."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 8))
    table = random_interval_table(rng, draw(st.integers(4, 20)), p)
    name = draw(st.sampled_from(["lasso-crm", "net-crm"]))
    alpha = draw(st.floats(0.1, 0.9)) if name == "net-crm" else None
    return table, MethodSpec.from_name(name, draw(st.floats(0.01, 50.0)), None, alpha)


def assert_nested(center, rng):
    assert not np.any(rng.betas[~center.support()] != 0.0)


@SETTINGS
@given(selecting_problems())
def test_range_support_is_nested_in_center_support(problem):
    table, spec = problem
    model = fit(table, spec)
    assert_nested(model.center_coeffs, model.range_coeffs)
    view = to_center_range(table)
    grid = make_lambda_grid(view.centers_X, view.centers_y, spec.effective_alpha, 12)
    fits = fit_grid(view, spec, grid.values)
    assert len(fits.centers) == len(fits.ranges) == len(grid)
    for center, rng in zip(fits.centers, fits.ranges):
        assert_nested(center, rng)


FINITE = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20))
def test_swap_violations_is_idempotent(pairs):
    lower, upper = np.array(pairs).T
    once = swap_violations(IntervalPrediction(lower, upper))
    twice = swap_violations(once)
    assert once.ordering_violations == twice.ordering_violations == 0
    assert twice.lower.tobytes() == once.lower.tobytes()
    assert twice.upper.tobytes() == once.upper.tobytes()


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ridge-crm", "lasso-cm", "net-crm"]),
    st.integers(0, 2**16),
)
def test_cross_validation_is_deterministic_given_its_seed(table_seed, name, seed):
    table = random_interval_table(np.random.default_rng(table_seed), 15, 3)
    spec = MethodSpec.from_name(name, 1.0, None, 0.5 if name.startswith("net") else None)
    a, b = (cross_validate(table, spec, k=3, seed=seed, n_points=8) for _ in range(2))
    assert a.grid.values == b.grid.values
    assert a.mean_loss.tobytes() == b.mean_loss.tobytes()
    assert a.std_error.tobytes() == b.std_error.tobytes()
    assert (a.lambda_min, a.lambda_1se, a.nonzero) == (b.lambda_min, b.lambda_1se, b.nonzero)


@st.composite
def constant_column_problems(draw):
    """``(base, table, jc, jr)``: a random table, and a copy of it whose predictor
    ``jc`` has a constant midpoint and predictor ``jr`` a constant half-range (0
    or not); ``jc`` and ``jr`` may be the same predictor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(2, 4))
    base = random_interval_table(rng, draw(st.integers(p + 3, 25)), p)
    jc, jr = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    # multiples of 2**-10 below 8 in magnitude, so endpoints, midpoints and half-ranges are exact
    center = np.round((base.lower + base.upper) / 2.0 * 1024.0) / 1024.0
    half = np.round((base.upper - base.lower) / 2.0 * 1024.0) / 1024.0
    center[:, jc] = draw(st.integers(-20, 20)) / 4.0
    half[:, jr] = draw(st.sampled_from([0.0, 0.75]))
    table = IntervalTable(base.variable_names, center - half, center + half, base.response_name)
    view = to_center_range(table)
    assert np.ptp(view.centers_X[:, jc]) == np.ptp(view.halfranges_X[:, jr]) == 0.0
    return base, table, jc, jr


@settings(max_examples=15, deadline=None)
@given(constant_column_problems())
def test_a_constant_column_has_slope_0_in_every_fit(problem):
    """Every method, through ``fit`` and ``fit_grid``, at every weight down to 0 and
    from cold and warm starts (a model of the table before its columns were made
    constant), gives a constant midpoint or half-range column slope exactly 0."""
    base, table, jc, jr = problem
    view = to_center_range(table)
    for name, (_, penalty) in METHOD_NAMES.items():
        alpha = 0.5 if name.startswith("net") else None
        lams = (0.0,) if penalty == "none" else (20.0, 1.0, 0.05, 0.0)
        spec = MethodSpec.from_name(name, lams[0], None, alpha)
        fits = []
        for start in (None, fit(base, spec)):
            grid = fit_grid(view, spec, lams, warm_start=start)
            for i in range(len(lams)):
                fits.append((grid.centers[i], None if grid.ranges is None else grid.ranges[i]))
            model = start
            for lam in lams:
                model = fit(table, MethodSpec.from_name(name, lam, None, alpha), warm_start=model)
                fits.append((model.center_coeffs, model.range_coeffs))
        for center, rng in fits:
            assert center.betas[jc] == 0.0
            assert rng is None or rng.betas[jr] == 0.0


@st.composite
def reflection_problems(draw):
    """``(table, spec, k)``: a random table, wider than tall for a penalized method,
    a spec of any of the eight methods, and a predictor index ``k``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(sorted(METHOD_NAMES)))
    p = draw(st.integers(1, 8))
    penalized = METHOD_NAMES[name][1] != "none"
    table = random_interval_table(rng, draw(st.integers(4 if penalized else p + 3, 20)), p)
    if not penalized:
        return table, MethodSpec.from_name(name), draw(st.integers(0, p - 1))
    alpha = draw(st.floats(0.1, 0.9)) if name.startswith("net") else None
    spec = MethodSpec.from_name(name, draw(st.floats(0.01, 20.0)), None, alpha)
    return table, spec, draw(st.integers(0, p - 1))


def reflected(table, j):
    """``table`` with variable ``j``'s intervals reflected, ``[lo, hi] -> [-hi, -lo]``:
    its midpoints negated and its half-ranges kept, both exactly."""
    lower, upper = table.lower.copy(), table.upper.copy()
    lower[:, j], upper[:, j] = -table.upper[:, j], -table.lower[:, j]
    return IntervalTable(table.variable_names, lower, upper, table.response_name)


def assert_same_selection(table, flipped, spec):
    """``cv`` of a penalized ``spec`` picks the same weights and supports on both
    tables.  A cm fit predicts each endpoint from the same endpoint of the
    predictors, which a reflection swaps, so its interval loss changes; its midpoint
    loss (``component="center"``) does not, and is the one compared."""
    if spec.penalty == "none":
        return
    component = "center" if spec.family == "cm" else "interval"
    a, b = (cross_validate(t, spec, k=4, seed=3, n_points=12, component=component)
            for t in (table, flipped))
    assert (a.lambda_min, a.lambda_1se, a.nonzero) == (b.lambda_min, b.lambda_1se, b.nonzero)


@SETTINGS
@given(reflection_problems())
def test_reflecting_a_predictor_negates_only_its_center_slope(problem):
    """Exactly, through ``fit`` and ``cv``: the reflected predictor's midpoints are
    negated, so its standardized column is, and every fit is the same up to that
    slope's sign; its half-ranges, and so every range fit, are unchanged."""
    table, spec, k = problem
    flipped = reflected(table, k)  # predictors X1..Xp come first
    a, b = fit(table, spec), fit(flipped, spec)
    sign = np.ones(a.center_coeffs.p)
    sign[k] = -1.0
    assert b.center_coeffs.intercept == a.center_coeffs.intercept
    assert np.array_equal(b.center_coeffs.betas, sign * a.center_coeffs.betas)
    if a.range_coeffs is not None:
        assert b.range_coeffs.intercept == a.range_coeffs.intercept
        assert b.range_coeffs.betas.tobytes() == a.range_coeffs.betas.tobytes()
    assert_same_selection(table, flipped, spec)


@SETTINGS
@given(reflection_problems())
def test_reflecting_the_response_negates_the_center_fit_only(problem):
    """Exactly, through ``fit`` and ``cv``: the center intercept and slopes are
    negated, and the range fit and the selected weights and supports are unchanged."""
    table, spec, _ = problem
    flipped = reflected(table, table.variable_names.index(table.response_name))
    a, b = fit(table, spec), fit(flipped, spec)
    assert b.center_coeffs.intercept == -a.center_coeffs.intercept
    assert np.array_equal(b.center_coeffs.betas, -a.center_coeffs.betas)
    if a.range_coeffs is not None:
        assert b.range_coeffs.intercept == a.range_coeffs.intercept
        assert b.range_coeffs.betas.tobytes() == a.range_coeffs.betas.tobytes()
    assert_same_selection(table, flipped, spec)


@st.composite
def split_problems(draw):
    """``(table, spec, k, seed)``: a random table of up to 8 predictors, a penalized
    spec, and a fold count that need not divide its rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(["ridge-cm", "ridge-crm", "lasso-cm", "lasso-crm",
                                 "net-cm", "net-crm"]))
    table = random_interval_table(rng, draw(st.integers(4, 25)), draw(st.integers(1, 8)))
    alpha = draw(st.floats(0.1, 0.9)) if name.startswith("net") else None
    k = draw(st.integers(2, min(table.n_rows, 10)))
    return table, MethodSpec.from_name(name, 1.0, None, alpha), k, draw(st.integers(0, 99))


@SETTINGS
@given(split_problems())
def test_the_interval_loss_is_the_center_loss_plus_the_range_loss(problem):
    """Per weight, on one grid: a row's endpoint errors are ``e_c -/+ e_r``, and
    ``((e_c - e_r)^2 + (e_c + e_r)^2) / 2 = e_c^2 + e_r^2``.  The three curves score
    the same predictions, and each error is formed from them and the response in a
    few roundings of at most eps times the row's largest magnitude, itself at most
    the response's largest ``Y`` plus the error.  Squared and averaged, that moves a
    curve by a few eps times ``L + Y * sqrt(L)`` for the interval loss ``L``; the
    bound allows 64 eps of it."""
    table, spec, k, seed = problem
    view = to_center_range(table)
    grid = make_lambda_grid(view.centers_X, view.centers_y, spec.effective_alpha, 12)
    interval, center, half = (cross_validate(table, spec, grid, k=k, seed=seed, component=c)
                              for c in ("interval", "center", "range"))
    top = float(np.max(np.abs(response_bounds(table))))
    bound = 64 * np.spacing(1.0) * (interval.mean_loss + top * np.sqrt(interval.mean_loss))
    assert np.all(np.abs(interval.mean_loss - (center.mean_loss + half.mean_loss)) <= bound)
