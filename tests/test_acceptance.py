"""Acceptance suite: one test (or test group) per release criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the same tolerances, so the pytest verdict and the
printed lines agree.
"""

import time

import numpy as np
import pytest

from intervalreg import (
    IntervalTable,
    MethodSpec,
    aggregate_classic,
    coefficient_path,
    evaluate,
    fit,
    make_lambda_grid,
    predict,
)
from intervalreg.solvers import (
    fit_elastic_net,
    fit_ridge,
    standardize,
)
from intervalreg.tables import response_bounds, to_center_range

from conftest import make_cardio_table, random_interval_table
from test_metrics import naive_indexes
from test_solvers import kkt_violations, ridge_oracle

RUNTIMES: dict[str, float] = {}


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def cardio_indexes(spec: MethodSpec):
    table = make_cardio_table()
    model = fit(table, spec)
    report = evaluate(response_bounds(table), predict(model, table))
    return report.rmse_l, report.rmse_u, report.r2_l, report.r2_u


# ---------------------------------------------------------------------------
# Criteria 1-2: unpenalized golden indexes on the cardiological data
# ---------------------------------------------------------------------------

def test_criterion1_cm_golden_indexes():
    start = time.perf_counter()
    got = cardio_indexes(MethodSpec("cm"))
    elapsed = time.perf_counter() - start
    expected = (11.0942, 10.41365, 0.3029147, 0.5346571)
    tolerances = (0.01, 0.01, 0.001, 0.001)
    ok = all(abs(g - e) <= t for g, e, t in zip(got, expected, tolerances))
    ok = ok and elapsed < 1.0
    check(
        "criterion 1",
        ok,
        f"cm resubstitution ({got[0]:.5f}, {got[1]:.5f}, {got[2]:.6f}, "
        f"{got[3]:.6f}) in {elapsed * 1e3:.0f} ms",
    )


def test_criterion2_crm_golden_indexes():
    start = time.perf_counter()
    got = cardio_indexes(MethodSpec("crm"))
    elapsed = time.perf_counter() - start
    expected = (9.809645, 8.94141, 0.4153546, 0.6334484)
    tolerances = (0.01, 0.01, 0.001, 0.001)
    ok = all(abs(g - e) <= t for g, e, t in zip(got, expected, tolerances))
    ok = ok and elapsed < 1.0
    check(
        "criterion 2",
        ok,
        f"crm resubstitution ({got[0]:.5f}, {got[1]:.5f}, {got[2]:.6f}, "
        f"{got[3]:.6f}) in {elapsed * 1e3:.0f} ms",
    )


# ---------------------------------------------------------------------------
# Criterion 3: all 11 published fitted intervals, 0.1 per endpoint
# ---------------------------------------------------------------------------

CM_FITTED = [
    (59.3, 65.9), (62.7, 79.2), (82.5, 97.4), (70.9, 86.2), (59.3, 65.9),
    (77.5, 92.5), (64.7, 79.5), (76.8, 89.1), (69.2, 102.3), (81.8, 99.1),
    (70.6, 87.5),
]
# row 6's upper bound is printed with a dropped leading digit in the source
# table (8.1); the value consistent with the published indexes is 98.1
CRM_FITTED = [
    (49.8, 75.5), (60.3, 81.6), (81.0, 98.8), (65.9, 91.2), (49.7, 75.5),
    (71.9, 98.1), (63.2, 81.0), (72.6, 93.3), (74.6, 96.9), (79.9, 100.9),
    (68.0, 90.0),
]


def test_criterion3_fitted_value_table():
    table = make_cardio_table()
    worst = 0.0
    for spec, published in ((MethodSpec("cm"), CM_FITTED), (MethodSpec("crm"), CRM_FITTED)):
        pred = predict(fit(table, spec), table)
        for i, (lo, hi) in enumerate(published):
            worst = max(worst, abs(pred.lower[i] - lo), abs(pred.upper[i] - hi))
    check(
        "criterion 3",
        worst <= 0.1,
        f"22 fitted intervals, worst endpoint deviation {worst:.3f} (limit 0.1)",
    )


# ---------------------------------------------------------------------------
# Criterion 4 (soft): published shrinkage rows under documented weight
# conversions.  The published lasso weights sit on the 1/(2n)-loss scale
# (times 2n here); the ridge weights are direct.  Three of the four rows
# reproduce; the RidgeCRM row is only consistent with SEPARATE center and
# range weights (see the companion forensic test), so the shared-weight
# run is an expected, documented failure.
# ---------------------------------------------------------------------------

N_CARDIO = 11
SHRINKAGE_ROWS = {
    "LassoCM": (
        MethodSpec("cm", "lasso", lambda_center=2 * N_CARDIO * 0.0435635),
        (11.10846, 10.42044, 0.3025499, 0.534831),
    ),
    "RidgeCM": (
        MethodSpec("cm", "ridge", lambda_center=0.8752922),
        (11.22309, 10.52742, 0.3028591, 0.534684),
    ),
    "LassoCRM": (
        MethodSpec("crm", "lasso", lambda_center=2 * N_CARDIO * 0.875906),
        (9.448862, 9.6991, 0.4324345, 0.5583867),
    ),
}
RIDGE_CRM_TARGET = (9.584226, 10.4129, 0.441123, 0.5583117)


def max_relative_error(got, expected):
    return max(abs(g - e) / abs(e) for g, e in zip(got, expected))


@pytest.mark.parametrize("row", sorted(SHRINKAGE_ROWS))
def test_criterion4_soft_shrinkage_rows(row):
    spec, expected = SHRINKAGE_ROWS[row]
    rel = max_relative_error(cardio_indexes(spec), expected)
    check("criterion 4", rel <= 0.10, f"{row} reproduced, max relative error {rel * 100:.2f}%")


@pytest.mark.xfail(
    strict=True,
    reason="published RidgeCRM weight 875.906 only reproduces the row when "
    "applied to the range model with a separate (unreported) center weight; "
    "no shared-weight scaling of it comes close",
)
def test_criterion4_ridge_crm_shared_weight():
    spec = MethodSpec("crm", "ridge", lambda_center=875.906)
    rel = max_relative_error(cardio_indexes(spec), RIDGE_CRM_TARGET)
    print(
        f"[criterion 4] RidgeCRM shared weight 875.906: max relative error "
        f"{rel * 100:.1f}% (documented failure, see the forensic test)"
    )
    assert rel <= 0.10


def test_criterion4_ridge_crm_forensic_analysis():
    """Executable failure analysis for the RidgeCRM row.

    The shared-weight reading misses by a wide margin at every plausible
    scaling of 875.906, while 875.906 on the half-range fit combined with
    a small center weight reproduces all four indexes to well under 2%.
    """
    shared_errors = {}
    for scale, label in ((1.0, "direct"), (0.5, "half"), (N_CARDIO, "n x"),
                         (2 * N_CARDIO, "2n x")):
        spec = MethodSpec("crm", "ridge", lambda_center=875.906 * scale)
        shared_errors[label] = max_relative_error(cardio_indexes(spec), RIDGE_CRM_TARGET)
    assert all(err > 0.10 for err in shared_errors.values())

    split = MethodSpec("crm", "ridge", lambda_center=5.5, lambda_range=875.906)
    rel = max_relative_error(cardio_indexes(split), RIDGE_CRM_TARGET)
    check(
        "criterion 4",
        rel <= 0.02,
        "RidgeCRM analysis: shared-weight readings miss by "
        + ", ".join(f"{label} {err * 100:.0f}%" for label, err in shared_errors.items())
        + f"; center 5.5 + range 875.906 lands at {rel * 100:.2f}%",
    )


# ---------------------------------------------------------------------------
# Criterion 5: randomized substitute suites for the non-reproducible tables
# ---------------------------------------------------------------------------

def timed(key):
    def decorator(func):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            RUNTIMES[key] = time.perf_counter() - start
            return result

        return wrapper

    return decorator


@timed("5a")
def test_criterion5a_lambda_zero_collapse():
    rng = np.random.default_rng(501)
    shrunk = {
        "cm": [
            MethodSpec("cm", "ridge", lambda_center=0.0),
            MethodSpec("cm", "lasso", lambda_center=0.0),
            MethodSpec("cm", "elastic_net", lambda_center=0.0, alpha=0.5),
        ],
        "crm": [
            MethodSpec("crm", "ridge", lambda_center=0.0),
            MethodSpec("crm", "lasso", lambda_center=0.0),
            MethodSpec("crm", "elastic_net", lambda_center=0.0, alpha=0.5),
        ],
    }
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 11))
        n = int(rng.integers(p + 3, 51))
        table = random_interval_table(rng, n, p)
        for family, specs in shrunk.items():
            parent = predict(fit(table, MethodSpec(family)), table)
            for spec in specs:
                pred = predict(fit(table, spec), table)
                worst = max(
                    worst,
                    float(np.max(np.abs(pred.lower - parent.lower))),
                    float(np.max(np.abs(pred.upper - parent.upper))),
                )
    check(
        "criterion 5a",
        worst <= 1e-6,
        f"20 tables x 6 methods at zero weight, worst prediction gap {worst:.2e}",
    )


@timed("5b")
def test_criterion5b_kkt_suite():
    rng = np.random.default_rng(502)
    tol = 1e-7
    worst_ratio = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 45))
        p = int(rng.integers(1, 10))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        alpha = float(rng.choice([0.1, 0.5, 0.9, 1.0]))
        lam = float(rng.uniform(0.01, 1.5)) * max(
            2.0 * np.max(np.abs(X.T @ (y - y.mean()))), 1.0
        )
        std = standardize(X, y)
        coeffs = fit_elastic_net(std, lam, alpha, tol=tol)
        viol, scale = kkt_violations(X, y, coeffs, lam, alpha)
        worst_ratio = max(worst_ratio, float(np.max(viol / (10.0 * tol * scale))))
    check(
        "criterion 5b",
        worst_ratio <= 1.0,
        f"50 stationarity checks, worst violation at {worst_ratio:.3f} of budget",
    )


@timed("5c")
def test_criterion5c_ridge_oracle_suite():
    rng = np.random.default_rng(503)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 30))
        p = int(rng.integers(1, min(n, 12)))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.01, 50.0))
        coeffs = fit_ridge(standardize(X, y), lam)
        intercept, slopes = ridge_oracle(X, y, lam)
        worst = max(
            worst,
            abs(coeffs.intercept - intercept),
            float(np.max(np.abs(coeffs.betas - slopes))),
        )
    check(
        "criterion 5c",
        worst <= 1e-9,
        f"20 closed-form ridge fits vs. dense solve, worst gap {worst:.2e}",
    )


@timed("5d")
def test_criterion5d_support_nesting_suite():
    rng = np.random.default_rng(504)
    exceptions = 0
    for _ in range(20):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(p + 4, 45))
        table = random_interval_table(rng, n, p)
        view = to_center_range(table)
        top = make_lambda_grid(view.centers_X, view.centers_y, 1.0, 2).values[0]
        for penalty, alpha in (("lasso", None), ("elastic_net", 0.7)):
            lam = float(rng.uniform(0.001, 0.8)) * top
            model = fit(
                table, MethodSpec("crm", penalty, lambda_center=lam, alpha=alpha)
            )
            dropped = ~model.center_coeffs.support()
            exceptions += int(np.any(model.range_coeffs.betas[dropped] != 0.0))
    check(
        "criterion 5d",
        exceptions == 0,
        f"40 selective crm fits, {exceptions} nesting exceptions",
    )


@timed("5e")
def test_criterion5e_path_consistency():
    rng = np.random.default_rng(505)
    worst = 0.0
    for alpha, penalty in ((1.0, "lasso"), (0.6, "elastic_net")):
        table = random_interval_table(rng, 35, 7)
        view = to_center_range(table)
        grid = make_lambda_grid(view.centers_X, view.centers_y, alpha, 50)
        spec = MethodSpec(
            "cm", penalty, lambda_center=1.0,
            alpha=None if penalty == "lasso" else alpha,
        )
        path = coefficient_path(table, spec, grid)
        std = standardize(view.centers_X, view.centers_y)
        for i, lam in enumerate(grid.values):
            cold = fit_elastic_net(std, lam, alpha)
            worst = max(worst, float(np.max(np.abs(path.slopes[i] - cold.betas))))
    check(
        "criterion 5e",
        worst <= 1e-6,
        f"warm vs. cold starts over two 50-point paths, worst gap {worst:.2e}",
    )


@timed("5f")
def test_criterion5f_degenerate_interval_reduction():
    rng = np.random.default_rng(506)
    for _ in range(5):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(p + 3, 25))
        values = rng.uniform(-8.0, 8.0, size=(n, p + 1))
        names = tuple(f"X{j + 1}" for j in range(p)) + ("Y",)
        table = IntervalTable(names, values, values, response_name="Y")
        crm = predict(fit(table, MethodSpec("crm")), table)
        cm = predict(fit(table, MethodSpec("cm")), table)
        assert np.array_equal(crm.lower, cm.lower)
        assert np.array_equal(crm.upper, cm.upper)
        assert np.array_equal(crm.lower, crm.upper)
    check("criterion 5f", True, "degenerate tables: crm equals cm exactly on 5 tables")


def test_criterion5_total_runtime():
    total = sum(RUNTIMES.values())
    check(
        "criterion 5",
        total < 60.0 and len(RUNTIMES) == 6,
        f"substitute suites ran in {total:.1f} s (limit 60 s)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: classic-table aggregation at the published scale
# ---------------------------------------------------------------------------

def test_criterion6_aggregation():
    rng = np.random.default_rng(601)
    n_rows, n_concepts, n_cols = 1994, 46, 5
    concepts = [f"state{rng.integers(0, n_concepts):02d}" for _ in range(n_rows)]
    while len(set(concepts)) < n_concepts:  # ensure all 46 appear
        concepts = [f"state{rng.integers(0, n_concepts):02d}" for _ in range(n_rows)]
    values = rng.uniform(0.0, 1.0, size=(n_rows, n_cols))
    columns = ["state"] + [f"v{j}" for j in range(n_cols)]
    rows = [
        [concepts[i], *(repr(float(v)) for v in values[i])] for i in range(n_rows)
    ]
    out = aggregate_classic(columns, rows, "state")
    ok = out.n_rows == n_concepts

    # brute-force oracle on the same table plus smaller random ones
    worst = 0.0
    for table_rows, table_vals, table_keys in [(rows, values, concepts)] + [
        _random_classic(rng) for _ in range(5)
    ]:
        agg = aggregate_classic(
            ["k"] + [f"v{j}" for j in range(np.shape(table_vals)[1])],
            [[table_keys[i], *(repr(float(v)) for v in table_vals[i])]
             for i in range(len(table_keys))],
            "k",
        )
        order = list(dict.fromkeys(table_keys))
        for r, key in enumerate(order):
            grp = table_vals[[i for i, k in enumerate(table_keys) if k == key]]
            for c in range(grp.shape[1]):
                worst = max(
                    worst,
                    abs(agg.lower[r, c] - grp[:, c].min()),
                    abs(agg.upper[r, c] - grp[:, c].max()),
                )
    check(
        "criterion 6",
        ok and worst == 0.0,
        f"1994 rows -> {out.n_rows} concept rows; min/max oracle gap {worst}",
    )


def _random_classic(rng):
    n = int(rng.integers(5, 80))
    cols = int(rng.integers(1, 4))
    keys = [str(rng.integers(0, 7)) for _ in range(n)]
    vals = rng.normal(size=(n, cols))
    return None, vals, keys


# ---------------------------------------------------------------------------
# Criterion 7: the evaluation indexes against a naive reference
# ---------------------------------------------------------------------------

def test_criterion7_metrics_oracle():
    from intervalreg.models import IntervalPrediction

    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 80))
        y_lo = rng.normal(size=n) * rng.uniform(0.5, 20)
        y_hi = y_lo + rng.uniform(0.1, 3.0, size=n)
        p_lo = y_lo + rng.normal(scale=0.8, size=n)
        p_hi = y_hi + rng.normal(scale=0.8, size=n)
        report = evaluate((y_lo, y_hi), IntervalPrediction(p_lo, p_hi))
        ref = naive_indexes(y_lo.tolist(), y_hi.tolist(), p_lo.tolist(), p_hi.tolist())
        got = (report.rmse_l, report.rmse_u, report.r2_l, report.r2_u)
        worst = max(worst, max(abs(g - r) for g, r in zip(got, ref)))
    check(
        "criterion 7",
        worst <= 1e-12,
        f"20 random evaluations vs. naive reference, worst gap {worst:.2e}",
    )
