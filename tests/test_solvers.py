import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intervalreg import IntervalTable, MethodSpec, fit, predict, solvers
from intervalreg.models import METHOD_NAMES
from intervalreg.solvers import (
    PIVOT_RTOL,
    CoefficientSet,
    NonFiniteEncountered,
    SingularDesign,
    Standardized,
    _standardize,
    coordinate_descent,
    duality_gap,
    exclude,
    fit_elastic_net,
    fit_elastic_net_path,
    fit_ridge,
    fit_ridge_path,
    solve_spd,
    standardize,
)
from intervalreg.selection import make_lambda_grid

from conftest import DATA_DIR, least_squares, make_cardio_table, random_interval_table


def column_moments(X):
    """Column means and population standard deviations (1 where that is 0)."""
    means = X.mean(axis=0)
    scales = np.sqrt(((X - means) ** 2).mean(axis=0))
    return means, np.where(scales == 0, 1.0, scales)


def standardized(X, y):
    """Independent reconstruction of the internal standardized problem."""
    means, scales = column_moments(X)
    return (X - means) / scales, y - y.mean()


def ridge_oracle(X, y, lam):
    """``(intercept, slopes)`` of ridge at ``lam``: one dense solve of the
    intercept-augmented system on the standardized columns, with the penalty on
    every slot except the intercept, mapped back to the original scale."""
    means, scales = column_moments(X)
    Xt = np.column_stack([np.ones(len(y)), (X - means) / scales])
    pen = lam * np.eye(Xt.shape[1])
    pen[0, 0] = 0.0
    solution = np.linalg.solve(Xt.T @ Xt + pen, Xt.T @ y)
    slopes = solution[1:] / scales
    return solution[0] - slopes @ means, slopes


def lambda_max(X, y, alpha):
    """Independent grid top: the all-zero lasso weight over ``max(alpha, 0.001)``."""
    Xs, yc = standardized(X, y)
    return 2.0 * float(np.max(np.abs(Xs.T @ yc))) / max(alpha, 0.001)


def linear(coeffs, X):
    """``b0 + X @ betas``, the prediction rule of one coefficient set."""
    return coeffs.intercept + X @ coeffs.betas


def sums_as_standardized(gram, q, y_ss):
    """Sums formed outside the library as the :class:`Standardized` the solvers take,
    with an empty factor cache; the solvers read no means, scales, response mean or
    row count (None here)."""
    p = len(q)
    return Standardized(np.zeros(p), np.ones(p), 0.0, gram, q, y_ss, np.diag(gram).copy(), {},
                        None)


def covariance_sums(Xs, yc):
    """The sums of a standardized design, formed here, as coordinate_descent takes them."""
    return sums_as_standardized(Xs.T @ Xs, Xs.T @ yc, float(yc @ yc))


def reference_singular_pivot(gram):
    """Index of the first pivot an unblocked Cholesky loop rejects, or None."""
    k = gram.shape[0]
    threshold = PIVOT_RTOL * np.max(np.diag(gram))
    L = np.zeros_like(gram)
    for j in range(k):
        pivot = gram[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > threshold:
            return j
        L[j, j] = np.sqrt(pivot)
        L[j + 1 :, j] = (gram[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return None


def reference_coordinate_descent(Xs, yc, lam, alpha, tol, max_iter, beta0=None):
    """Coordinate descent as it was before the Gram moved into the standardized design.

    It forms ``Xs'Xs``, ``Xs'yc`` and ``yc'yc`` itself, indexes numpy
    scalars per coordinate and slices the restricted Gram with ``np.ix_``.
    """
    p = Xs.shape[1]
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    gram = Xs.T @ Xs
    q = Xs.T @ yc
    y_ss = float(yc @ yc)
    denom = np.diag(gram) + lam * (1.0 - alpha)
    thresh = lam * alpha / 2.0
    grad = q - gram @ beta
    gram_diag = np.diag(gram).copy()

    def objective():
        rss = y_ss - 2.0 * float(beta @ q) + float(beta @ (gram @ beta))
        return rss + lam * (
            alpha * float(np.abs(beta).sum()) + (1.0 - alpha) * float(beta @ beta)
        )

    def sweep(indices):
        nonlocal grad
        max_delta = 0.0
        for j in indices:
            if denom[j] <= 0.0:
                continue
            bj = beta[j]
            rho = grad[j] + gram_diag[j] * bj
            if thresh > 0.0:
                mag = abs(rho) - thresh
                bnew = math.copysign(mag, rho) / denom[j] if mag > 0.0 else 0.0
            else:
                bnew = rho / denom[j]
            if bnew != bj:
                grad -= gram[j] * (bnew - bj)
                beta[j] = bnew
                delta = abs(bnew - bj)
                if delta > max_delta:
                    max_delta = delta
        return max_delta

    def try_restricted_solve(active):
        nonlocal grad
        signs = np.sign(beta[active])
        sub = gram[np.ix_(active, active)] + lam * (1.0 - alpha) * np.eye(len(active))
        try:
            solution = solve_spd(sub, q[active] - thresh * signs)
        except SingularDesign:
            return False
        if np.any(solution * signs < 0.0):
            return False
        before = objective()
        saved = beta[active].copy()
        beta[active] = solution
        if objective() > before:
            beta[active] = saved
            return False
        grad = q - gram @ beta
        return True

    converged = False
    sweeps = 0
    while sweeps < max_iter:
        sweeps += 1
        if sweep(range(p)) <= tol:
            converged = True
            break
        active = np.flatnonzero(beta)
        if len(active):
            try_restricted_solve(active)
        while sweeps < max_iter and 0 < len(active) < p:
            sweeps += 1
            if sweep(active) <= tol:
                break
            new_active = np.flatnonzero(beta)
            if len(new_active) < len(active):
                active = new_active
                if len(active):
                    try_restricted_solve(active)
    return beta, converged, sweeps


def kkt_violations(X, y, coeffs, lam, alpha):
    """Stationarity residuals of the penalized objective, plus their scale.

    Recomputed from scratch out of the returned coefficients; independent
    of the iterative path that produced them.
    """
    Xs = (X - coeffs.means) / coeffs.scales
    yc = y - y.mean()
    beta = coeffs.betas * coeffs.scales
    r = yc - Xs @ beta
    grad = 2.0 * (Xs.T @ r)
    row_scale = 2.0 * (np.abs(Xs.T @ Xs).sum(axis=1) + lam * (1 - alpha))
    viol = np.empty(len(beta))
    for j in range(len(beta)):
        if beta[j] != 0.0:
            viol[j] = abs(abs(grad[j] - 2 * lam * (1 - alpha) * beta[j]) - lam * alpha)
        else:
            viol[j] = max(0.0, abs(grad[j]) - lam * alpha)
    return viol, row_scale


@st.composite
def l1_designs(draw):
    """``(X, y, alpha)``: a seeded design that may hold a constant and a duplicated
    column, with an L1 fraction in (0, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(3, 15)), draw(st.integers(2, 12))
    X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    if draw(st.booleans()):
        X[:, rng.integers(p)] = rng.normal()
    if draw(st.booleans()):
        X[:, rng.integers(p)] = X[:, rng.integers(p)]
    y = X[:, : min(p, 3)] @ rng.uniform(-2.0, 2.0, size=min(p, 3)) + rng.normal(size=n)
    return X, y, draw(st.floats(0.0, 1.0, exclude_min=True))


def exact_coordinate_updates(gram, q, gram_diag, beta, lam, alpha):
    """Every coordinate's exact update from ``beta``: ``S(rho_j, lam*alpha/2) /
    (g_jj + ridge)``, 0 where the denominator is 0."""
    ridge, thresh = lam * (1.0 - alpha), lam * alpha / 2.0
    rho = q - gram @ beta + gram_diag * beta
    denominator = gram_diag + ridge
    shrunk = np.sign(rho) * np.maximum(np.abs(rho) - thresh, 0.0)
    safe = np.where(denominator > 0.0, denominator, 1.0)
    return np.where(denominator > 0.0, shrunk / safe, 0.0)


def penalized_objective(X, y, beta, lam, alpha):
    """The elastic-net objective of standardized slopes ``beta``, from the raw design."""
    Xs, yc = standardized(X, y)
    return np.sum((yc - Xs @ beta) ** 2) + lam * (
        alpha * np.abs(beta).sum() + (1.0 - alpha) * beta @ beta
    )


@st.composite
def masked_designs(draw):
    """``(X, y, mask)``: a seeded design with mixed column scales, perhaps a constant
    column, and a boolean mask over its columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(3, 120)), draw(st.integers(2, 300))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    if draw(st.booleans()):
        X[:, rng.integers(p)] = rng.normal()
    return X, rng.normal(size=n) * 10.0, rng.random(p) < draw(st.floats(0.0, 1.0))


class TestStandardize:
    @pytest.mark.parametrize("X, y, message", [
        (np.ones(3), np.ones(3), r"^X must be a 2-d matrix, got shape \(3,\)$"),
        (np.ones((3, 2)), np.ones((3, 1)), r"^y must be a vector, got shape \(3, 1\)$"),
        (np.ones((0, 2)), np.ones(0), r"^need n >= 1 and p >= 1, got X shape \(0, 2\)$"),
        (np.ones((3, 0)), np.ones(3), r"^need n >= 1 and p >= 1, got X shape \(3, 0\)$"),
        (np.ones((3, 2)), np.ones(4), "^X has 3 rows but y has 4$"),
        (np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]), "^X and y must be finite$"),
        (np.ones((2, 1)), np.array([1.0, np.inf]), "^X and y must be finite$"),
    ])
    def test_rejects_malformed_input(self, X, y, message):
        with pytest.raises(ValueError, match=message):
            standardize(X, y)

    def test_forms_the_sums_of_the_standardized_design(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(9, 4)) * [1.0, 3.0, 0.1, 0.0]  # last column constant
        y = rng.normal(size=9)
        std = standardize(X, y)
        Xs, means, scales = _standardize(X)
        yc = y - y.mean()
        for got, want in [
            (std.means, means), (std.scales, scales),
            (std.gram, Xs.T @ Xs), (std.q, Xs.T @ yc),
            (std.gram_diag, np.diag(Xs.T @ Xs)),
        ]:
            assert got.tobytes() == want.tobytes()
        assert std.y_mean == y.mean()
        assert std.y_ss == float(yc @ yc)
        assert std.n == 9 and std.factors == {}
        assert np.all(std.gram[3] == 0.0) and std.q[3] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(masked_designs())
    def test_exclude_is_the_standardization_of_the_zeroed_design(self, design):
        # bit for bit, zero signs included, and sharing the unmasked design's factors
        X, y, mask = design
        std = standardize(X, y)
        got, want = exclude(std, mask), standardize(np.where(mask, X, 0.0), y)
        assert got.factors is std.factors
        for name, a, b in zip(Standardized._fields, got, want):
            if name == "factors":
                continue
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable, name
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("seed", range(5))
    def test_constant_columns_are_zero_variance_whatever_their_mean_rounds_to(self, seed):
        # ten rows of 0.1 have a column mean of 0.09999999999999999, not 0.1
        rng = np.random.default_rng(seed)
        X = np.column_stack([rng.normal(size=10), np.full(10, 0.1), np.full(10, 0.5)])
        y = rng.normal(size=10) * 10 + 100
        std = standardize(X, y)
        assert np.all(std.gram[1:] == 0.0) and np.all(std.q[1:] == 0.0)
        assert std.scales[1:].tolist() == [1.0, 1.0]
        assert std.means[1:].tolist() == [0.1, 0.5]
        assert std.gram_diag[1:].tolist() == [0.0, 0.0]
        for coeffs in (fit_ridge(std, 1.0), fit_elastic_net(std, 1.0, 0.5)):
            assert coeffs.betas[1:].tolist() == [0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_a_column_whose_sum_overflows_gets_a_finite_mean(self):
        # three rows at 8e307 and three at -8e307: X.mean overflows; the column is
        # divided by its largest magnitude first, and the other columns keep their bits
        rng = np.random.default_rng(26)
        X = np.column_stack([np.repeat([8e307, -8e307], 3), rng.normal(size=6),
                             np.repeat([1.7e308, 1.6e308], 3)])
        y = rng.normal(size=6)
        std = standardize(X, y)
        assert std.means.tolist() == [0.0, X[:, 1].mean(), 1.65e308]
        assert std.scales[1] == X[:, 1].std()
        assert np.allclose(std.scales[[0, 2]], [8e307, 5e306], rtol=1e-15, atol=0.0)
        assert np.allclose(std.gram_diag, 6.0, rtol=1e-15, atol=0.0)
        fit = fit_ridge(standardize(X[:, :2], y), 0.0)
        assert np.isfinite(fit.betas).all() and np.isfinite(fit.intercept)

    def test_standardized_arrays_are_read_only(self):
        rng = np.random.default_rng(24)
        std = standardize(rng.normal(size=(6, 3)), rng.normal(size=6))
        for value in std:
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
                with pytest.raises(ValueError):
                    value[0] = 1.0

    def test_repeated_fits_on_one_problem_are_identical(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(8, 12))
        y = X[:, :3] @ [1.0, -2.0, 0.5] + rng.normal(size=8)
        std = standardize(X, y)
        lams = (5.0, 1.0, 0.0)
        first = [fit_elastic_net(std, lam, 0.7) for lam in lams]
        ridge = fit_ridge_path(std, lams[:2])
        factors = std.factors
        factored = dict(factors)
        again = [fit_elastic_net(std, lam, 0.7) for lam in lams]
        # the refits meet the same active sets and reuse their factorizations
        assert factored and factors.keys() == factored.keys()
        assert all(factors[k] is v for k, v in factored.items())
        fresh = [fit_elastic_net(standardize(X, y), lam, 0.7) for lam in lams]
        for a, b, c in zip(first, again, fresh):
            assert a.betas.tobytes() == b.betas.tobytes() == c.betas.tobytes()
            assert a.intercept == b.intercept == c.intercept
            assert a.n_sweeps == b.n_sweeps == c.n_sweeps
        ridge_again = fit_ridge_path(std, lams[:2])
        ridge_fresh = fit_ridge_path(standardize(X, y), lams[:2])
        for a, b, c in zip(ridge, ridge_again, ridge_fresh):
            assert a.betas.tobytes() == b.betas.tobytes() == c.betas.tobytes()
            assert a.intercept == b.intercept == c.intercept

    def test_elastic_net_rejects_bad_penalty(self):
        std = standardize(np.eye(3), np.ones(3))
        for lam in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^lambda must be finite and >= 0, got {lam}$"):
                fit_elastic_net(std, lam, 0.5)
        for alpha in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match=rf"^alpha must lie in \[0, 1\], got {alpha}$"):
                fit_elastic_net(std, 1.0, alpha)


class TestOls:
    """Least squares is ridge at weight 0 (:func:`fit_ridge` with ``lam=0``)."""

    def test_constant_response(self):
        std = standardize(np.array([[1.0], [2.0], [5.0]]), np.full(3, 7.0))
        coeffs = fit_ridge(std, 0.0)
        assert coeffs.intercept == pytest.approx(7.0, abs=1e-10)
        assert abs(coeffs.betas[0]) < 1e-12

    def test_matches_independent_dense_solve(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            X = rng.normal(size=(6, 3))
            y = rng.normal(size=6)
            coeffs = fit_ridge(standardize(X, y), 0.0)
            Xt = np.column_stack([np.ones(6), X])
            oracle = np.linalg.solve(Xt.T @ Xt, Xt.T @ y)
            assert abs(coeffs.intercept - oracle[0]) <= 1e-10
            assert np.max(np.abs(coeffs.betas - oracle[1:])) <= 1e-10

    def test_normal_equations_postcondition(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        coeffs = fit_ridge(standardize(X, y), 0.0)
        Xt = np.column_stack([np.ones(15), X])
        beta = np.concatenate([[coeffs.intercept], coeffs.betas])
        lhs = Xt.T @ Xt @ beta - Xt.T @ y
        assert np.max(np.abs(lhs)) <= 1e-8 * np.max(np.abs(Xt.T @ y))

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        coeffs = fit_ridge(standardize(X, y), 0.0)
        r = y - linear(coeffs, X)
        Xt = np.column_stack([np.ones(12), X])
        assert np.max(np.abs(Xt.T @ r)) <= 1e-8 * max(np.max(np.abs(Xt.T @ y)), 1.0)

    def test_singular_design_reports_pivot(self):
        X = np.column_stack([np.arange(5.0), np.arange(5.0)])  # duplicated column
        with pytest.raises(SingularDesign) as err:
            fit_ridge(standardize(X, np.ones(5)), 0.0)
        assert err.value.pivot_index == 1  # second copy; the intercept is no column

    def test_a_constant_column_gets_slope_0_and_counts_in_pivot_numbers(self):
        rng = np.random.default_rng(33)
        a, b, y = rng.normal(size=(3, 9))
        constant = np.full(9, 2.5)
        coeffs = fit_ridge(standardize(np.column_stack([constant, a, b]), y), 0.0)
        intercept, betas = least_squares(np.column_stack([a, b]), y)
        assert coeffs.betas[0] == 0.0
        np.testing.assert_allclose(coeffs.betas[1:], betas, rtol=1e-10, atol=0)
        assert coeffs.intercept == pytest.approx(intercept, rel=1e-10)
        with pytest.raises(SingularDesign) as err:
            fit_ridge(standardize(np.column_stack([constant, a, a]), y), 0.0)
        assert err.value.pivot_index == 2  # the second copy of a, counting the constant column

    def test_column_rescaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        D = np.array([4.0, 0.25, 10.0])
        a = fit_ridge(standardize(X, y), 0.0)
        b = fit_ridge(standardize(X * D, y), 0.0)
        X_new = rng.normal(size=(6, 3))
        assert np.allclose(
            linear(a, X_new), linear(b, X_new * D),
            rtol=1e-9, atol=1e-9,
        )


class TestSolveSpd:
    def test_matches_numpy_on_spd_matrices(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 5, 9):
            A = rng.normal(size=(k + 3, k))
            gram = A.T @ A + 0.1 * np.eye(k)
            rhs = rng.normal(size=k)
            assert np.allclose(solve_spd(gram, rhs), np.linalg.solve(gram, rhs),
                               rtol=1e-10, atol=1e-12)

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularDesign):
            solve_spd(np.zeros((2, 2)), np.zeros(2))

    def test_pivot_index_matches_an_unblocked_cholesky_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            k = int(rng.integers(1, 9))
            A = rng.normal(size=(int(rng.integers(1, 12)), k)) * rng.uniform(0.1, 10.0, size=k)
            for j in np.flatnonzero(rng.random(k) < 0.3):  # exact linear dependencies
                A[:, j] = A[:, :j] @ rng.integers(-2, 3, size=j) if j else 0.0
            gram = A.T @ A
            want = reference_singular_pivot(gram)
            if want is None:
                x = solve_spd(gram, np.ones(k))
                assert np.allclose(gram @ x, np.ones(k), rtol=1e-6, atol=1e-6)
                continue
            with pytest.raises(SingularDesign) as err:
                solve_spd(gram, np.ones(k))
            assert err.value.pivot_index == want

    def test_repeated_column_fails_at_its_second_copy(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.normal(size=(3, 7))
        A = np.column_stack([a, b, a, c])
        with pytest.raises(SingularDesign) as err:
            solve_spd(A.T @ A, np.ones(4))
        assert err.value.pivot_index == 2

    def test_negative_pivot_reports_index_and_value(self):
        with pytest.raises(SingularDesign) as err:
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        assert err.value.pivot_index == 1
        assert err.value.pivot == pytest.approx(-3.0, rel=1e-12)

    def test_tiny_positive_pivot_is_below_the_relative_threshold(self):
        with pytest.raises(SingularDesign) as err:
            solve_spd(np.diag([1.0, 1e-13, 2.0]), np.ones(3))
        assert err.value.pivot_index == 1
        assert err.value.pivot == pytest.approx(1e-13, rel=1e-12)


class TestRidge:
    def test_lambda_zero_equals_ols(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        intercept, betas = least_squares(X, y)
        ridge = fit_ridge(standardize(X, y), 0.0)
        assert abs(ridge.intercept - intercept) <= 1e-8
        assert np.max(np.abs(ridge.betas - betas)) <= 1e-8

    def test_infinite_shrinkage_limit(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(9, 3))
        y = rng.normal(size=9) + 3.0
        coeffs = fit_ridge(standardize(X, y), 1e12)
        assert np.max(np.abs(coeffs.betas)) < 1e-6
        assert coeffs.intercept == pytest.approx(y.mean(), abs=1e-4)

    def test_matches_augmented_closed_form_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            X = rng.normal(size=(8, 4))
            y = rng.normal(size=8)
            lam = 2.5
            coeffs = fit_ridge(standardize(X, y), lam)
            intercept, slopes = ridge_oracle(X, y, lam)
            assert abs(coeffs.intercept - intercept) <= 1e-9
            assert np.max(np.abs(coeffs.betas - slopes)) <= 1e-9

    def test_standardization_makes_fit_scale_invariant(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(14, 3))
        y = rng.normal(size=14)
        D = np.array([2.0, 0.5, 30.0])
        a = fit_ridge(standardize(X, y), 3.0)
        b = fit_ridge(standardize(X * D, y), 3.0)
        X_new = rng.normal(size=(5, 3))
        assert np.allclose(
            linear(a, X_new), linear(b, X_new * D),
            rtol=1e-10, atol=1e-10,
        )

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_every_method_fit_is_unit_invariant(self, name):
        # every method fits on standardized predictors, so the units of one
        # predictor change its slopes and nothing else: not the center support,
        # and not a prediction beyond rounding
        rng = np.random.default_rng(7)
        tables = [make_cardio_table(), random_interval_table(rng, 30, 6),
                  random_interval_table(rng, 12, 15)]
        for table in tables:
            n, p = table.n_rows, len(table.predictor_names)
            units = np.ones(len(table.variable_names))
            j = table.variable_names.index(table.predictor_names[0])
            if name in ("cm", "crm"):
                lams = (0.0,) if n > p + 1 else ()  # unpenalized needs n > p + 1
            else:
                lams = (5.0, 0.5, 0.01)
            for factor in (1e-6, 1e6, 1e-170, 1e160):
                units[j] = factor
                scaled = IntervalTable(table.variable_names, table.lower * units,
                                       table.upper * units, table.response_name)
                for lam in lams:
                    spec = MethodSpec.from_name(name, lam, None,
                                                0.5 if name.startswith("net") else None)
                    a, b = fit(table, spec), fit(scaled, spec)
                    assert (b.center_coeffs.support().tolist()
                            == a.center_coeffs.support().tolist()), (lam, factor)
                    want, got = predict(a, table), predict(b, scaled)
                    bound = 1e-10 * max(np.max(np.abs(want.lower)),
                                        np.max(np.abs(want.upper)))
                    assert np.max(np.abs(got.lower - want.lower)) <= bound, (lam, factor)
                    assert np.max(np.abs(got.upper - want.upper)) <= bound, (lam, factor)

    def test_path_matches_one_weight_fits(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(30, 6)) * rng.uniform(0.1, 10.0, size=6)
        y = X @ rng.normal(size=6) + rng.normal(size=30)
        std = standardize(X, y)
        lams = np.append(np.geomspace(1e3, 1e-3, 24), 0.0)
        path = fit_ridge_path(std, lams)
        assert len(path) == len(lams)
        for lam, coeffs in zip(lams, path):
            one = fit_ridge(std, lam)
            np.testing.assert_allclose(coeffs.betas, one.betas, rtol=1e-13, atol=0)
            assert coeffs.intercept == pytest.approx(one.intercept, rel=1e-13, abs=0)
            if lam > 0.0:  # a positive weight is the elastic net at alpha 0
                net = fit_elastic_net(std, lam, 0.0)
                assert coeffs.betas.tobytes() == net.betas.tobytes()
                assert coeffs.intercept == net.intercept

    def test_positive_weight_below_the_eigenvalue_rule_returns_the_minimum_norm_fit(self):
        # a duplicated column at a weight of 1e-14 of the largest standardized
        # Gram diagonal: the shifted null eigenvalue counts as 0, so that
        # direction gets coefficient 0 instead of raising SingularDesign
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a, b = rng.normal(size=(2, 12)) * [[3.0], [0.5]]
            X = np.column_stack([a, a, b])
            y = X @ np.array([1.0, 1.0, -2.0]) + rng.normal(size=12)
            Xs, yc = standardized(X, y)
            gram = Xs.T @ Xs
            lam = 1e-14 * float(np.max(np.diag(gram)))
            std = standardize(X, y)
            coeffs = fit_ridge(std, lam)
            assert coeffs.betas[0] == pytest.approx(coeffs.betas[1], rel=1e-12, abs=0)
            scales = np.sqrt(((X - X.mean(axis=0)) ** 2).mean(axis=0))
            bs = coeffs.betas * scales
            residual = (gram + lam * np.eye(3)) @ bs - Xs.T @ yc
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(Xs.T @ yc))
            assert coeffs.intercept == pytest.approx(
                y.mean() - coeffs.betas @ X.mean(axis=0), rel=1e-12, abs=1e-12
            )
            with pytest.raises(SingularDesign) as err:
                fit_ridge(std, 0.0)
            assert err.value.pivot_index == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_grid_rows_straddling_the_eigenvalue_rule(self, seed):
        # a duplicated and a constant column, and weights from far above to far
        # below PIVOT_RTOL of the largest Gram diagonal: the lowest rows count
        # the duplicate's null direction as 0 (minimum norm), the others solve it
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(8, 30)), int(rng.integers(2, 7))
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        X = np.column_stack([X, X[:, 0], np.full(n, rng.normal())])
        y = X[:, :p] @ rng.normal(size=p) + rng.normal(size=n) + 3.0
        std = standardize(X, y)
        gram = std.gram
        top = float(np.max(np.diag(gram)))
        lams = top * np.geomspace(1e2, 1e-16, 37)
        grid = fit_ridge_path(std, lams)
        w = np.linalg.eigh(gram[:-1, :-1])[0]  # the constant column is left out
        null = [bool(np.any(w + lam <= PIVOT_RTOL * (top + lam))) for lam in lams]
        assert any(null) and not all(null)
        for i, lam in enumerate(lams):
            row = grid[i]
            net = fit_elastic_net(std, lam, 0.0)
            assert row.betas.tobytes() == net.betas.tobytes()
            assert row.intercept == net.intercept
            assert row.betas[-1] == 0.0
            if null[i]:  # minimum norm: the copies share their slope
                assert row.betas[0] == pytest.approx(row.betas[p], rel=1e-9, abs=0)
            if null[i] or np.min(w + lam) < 1e-5 * (top + lam):
                # a solve at condition c rounds to about 2.2e-16 * c: above 1e5 that
                # exceeds the 1e-10 bound (the copies' slopes, equal in exact
                # arithmetic, came out 3.7e-10 apart at condition 3.2e5)
                continue
            # the oracle leaves out the constant column, whose slope is 0 above
            intercept, slopes = ridge_oracle(X[:, :-1], y, lam)
            oracle = np.concatenate([[intercept], slopes])
            got = np.concatenate([[row.intercept], row.betas[:-1]])
            np.testing.assert_allclose(got, oracle, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(oracle)))

    def test_path_rejects_a_bad_weight(self):
        std = standardize(np.eye(3), np.ones(3))
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="lambda must be finite"):
                fit_ridge_path(std, (1.0, bad))


class TestElasticNet:
    def test_zero_penalty_equals_ols(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        intercept, betas = least_squares(X, y)
        net = fit_elastic_net(standardize(X, y), 0.0, 1.0)
        assert abs(net.intercept - intercept) <= 1e-6
        assert np.max(np.abs(net.betas - betas)) <= 1e-6

    def test_alpha_zero_matches_ridge_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            n = int(rng.integers(5, 21))
            p = int(rng.integers(1, min(n - 1, 12) + 1))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            lam = float(rng.uniform(0.1, 20.0))
            net = fit_elastic_net(standardize(X, y), lam, 0.0)
            intercept, slopes = ridge_oracle(X, y, lam)
            assert abs(net.intercept - intercept) <= 1e-6
            assert np.max(np.abs(net.betas - slopes)) <= 1e-6

    def test_all_zero_at_lambda_max(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            X = rng.normal(size=(20, 6))
            y = X @ rng.normal(size=6) + rng.normal(size=20)
            Xs, yc = standardized(X, y)
            lam_max = 2.0 * np.max(np.abs(Xs.T @ yc))  # independent of the library
            assert lam_max == pytest.approx(make_lambda_grid(X, y, 1.0).values[0], rel=1e-12)
            # exactly at lam_max a last-ulp tie may leave rounding-level
            # coefficients; anything above is exactly zero
            at_max = fit_elastic_net(standardize(X, y), lam_max, 1.0)
            assert not at_max.support().any()
            assert np.max(np.abs(at_max.betas)) <= 1e-12
            viol, _ = kkt_violations(X, y, at_max, lam_max, 1.0)
            assert np.max(viol) <= 1e-9 * lam_max
            above = fit_elastic_net(standardize(X, y), 1.7 * lam_max, 1.0)
            assert np.all(above.betas == 0.0)
            viol, _ = kkt_violations(X, y, above, 1.7 * lam_max, 1.0)
            assert np.max(viol) == 0.0

    def test_kkt_stationarity_on_random_problems(self):
        rng = np.random.default_rng(11)
        tol = 1e-7
        for _ in range(50):
            n = int(rng.integers(5, 40))
            p = int(rng.integers(1, 10))
            X = rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            lam = float(rng.uniform(0.0, 2.0) * max(lambda_max(X, y, max(alpha, 0.5)), 1.0))
            std = standardize(X, y)
            coeffs = fit_elastic_net(std, lam, alpha, tol=tol)
            assert coeffs.converged
            viol, scale = kkt_violations(X, y, coeffs, lam, alpha)
            assert np.all(viol <= 10.0 * tol * scale)
            beta = coeffs.betas * coeffs.scales
            gap = duality_gap(std, beta, lam, alpha)
            assert abs(gap) <= 1e-10 * penalized_objective(X, y, beta, lam, alpha)

    def test_duality_gap_bounds_the_distance_to_the_optimum(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            n, p = int(rng.integers(5, 30)), int(rng.integers(1, 12))
            X = rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            alpha = float(rng.choice([0.0, 0.4, 1.0]))
            lam = float(rng.uniform(0.1, 1.0) * lambda_max(X, y, max(alpha, 0.5)))
            std = standardize(X, y)
            best = fit_elastic_net(std, lam, alpha, tol=1e-10)
            optimum = penalized_objective(X, y, best.betas * best.scales, lam, alpha)
            for beta in (np.zeros(p), rng.normal(size=p), best.betas * best.scales * 1.1):
                gap = duality_gap(std, beta, lam, alpha)
                excess = penalized_objective(X, y, beta, lam, alpha) - optimum
                assert gap >= excess - 1e-9 * optimum

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            X = rng.normal(size=(25, 6))
            y = rng.normal(size=25)
            Xs, yc = standardized(X, y)
            sums = covariance_sums(Xs, yc)
            lam = float(rng.uniform(0.0, 30.0))
            alpha = float(rng.uniform(0.0, 1.0))
            _, _, n_sweeps = coordinate_descent(sums, lam, alpha, 1e-9, 5000)

            def objective(beta):
                return np.sum((yc - Xs @ beta) ** 2) + lam * (
                    alpha * np.abs(beta).sum() + (1.0 - alpha) * beta @ beta
                )

            # from the cold start's zeros; the iterate after k sweeps is the one
            # returned with max_iter=k (a fit certified before any cycle has none)
            history = [objective(np.zeros(6))]
            for k in range(1, n_sweeps + 1):
                beta, _, _ = coordinate_descent(sums, lam, alpha, 1e-9, k)
                history.append(objective(beta))
            diffs = np.diff(np.asarray(history))
            assert np.all(diffs <= 1e-9 * max(abs(history[0]), 1.0))

    def test_never_worse_than_the_pre_change_loop(self):
        """The factored solve and null-space steps change last bits, never optimality.

        Against the loop before them, at the full sweep limit: every case the
        reference converges on converges too; no result has a higher
        objective (beyond 1e-12 relative); and coefficients that differ by
        more than 1e-8 come only with a strictly lower objective, or with an
        equal one (within 1e-12 relative) where they differ only in
        zero-variance columns, which the fit sets to 0 and the loop may not.
        A run cut at 1, 2 or 5 sweeps stops at a different point of a
        different path (a restricted solve can turn on the sign of a
        coefficient at rounding level), so there only its descent from the
        start is checked.
        """
        rng = np.random.default_rng(26)
        cases = 0
        for shape in [(8, 14), (10, 15), (30, 6), (12, 4)]:  # p > n and n > p
            for alpha in (0.0, 0.3, 1.0):
                for max_iter in (1, 2, 5, 2000):
                    n, p = shape
                    X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
                    X[:, rng.integers(p)] = rng.normal()  # a zero-variance column
                    y = X[:, :3] @ rng.uniform(-2.0, 2.0, size=3) + rng.normal(size=n)
                    Xs, yc = standardized(X, y)
                    sums = covariance_sums(Xs, yc)
                    lam_max = 2.0 * np.max(np.abs(Xs.T @ yc)) / max(alpha, 1e-3)
                    warm = None
                    for frac in (1.1, 0.5, 0.1, 0.01, 1e-3, 0.0):
                        lam = frac * lam_max

                        def objective(beta):
                            return np.sum((yc - Xs @ beta) ** 2) + lam * (
                                alpha * np.abs(beta).sum() + (1.0 - alpha) * beta @ beta
                            )

                        for beta0 in (None, warm, rng.normal(size=p)):
                            want = reference_coordinate_descent(
                                Xs, yc, lam, alpha, 1e-7, max_iter, beta0=beta0
                            )
                            got = coordinate_descent(sums, lam, alpha, 1e-7, max_iter, beta0)
                            got_obj, want_obj = objective(got[0]), objective(want[0])
                            start = objective(np.zeros(p) if beta0 is None else beta0)
                            assert got_obj <= start * (1.0 + 1e-12)
                            if max_iter == 2000:
                                assert got[1] or not want[1]
                                assert got_obj <= want_obj * (1.0 + 1e-12)
                                moved = np.abs(got[0] - want[0]) > 1e-8
                                if moved.any():  # a tie only along columns the loss does not see
                                    tie = (not moved[Xs.any(axis=0)].any()
                                           and abs(got_obj - want_obj) <= 1e-12 * want_obj)
                                    assert got_obj < want_obj or tie
                            cases += 1
                        warm = want[0]
        assert cases == 4 * 3 * 4 * 6 * 3

    @settings(max_examples=100, deadline=None)
    @given(l1_designs(), st.integers(0, 2**32 - 1))
    def test_every_fit_is_certified_down_a_grid(self, design, seed):
        """Fits warm-started from the previous weight and from a random point are
        certified: no exact coordinate step moves a coefficient beyond ``tol``, the
        KKT residuals stay within the bench oracle's ``tol * sum_k |G_jk|`` (plus
        the ridge term), and the objective is a cold fit's at ``tol=1e-12``, up to
        what those residuals allow along directions only the ridge term curves."""
        X, y, alpha = design
        rng = np.random.default_rng(seed)
        std = standardize(X, y)
        tol = 1e-7
        lam_max = 2.0 * float(np.max(np.abs(std.q))) / max(alpha, 1e-3)
        assume(lam_max > 0.0)  # not every column constant
        allowed = tol * np.abs(std.gram).sum(axis=1) + 1e-9 * np.max(np.abs(std.q))
        warm = None
        for lam in np.geomspace(lam_max, 1e-3 * lam_max, 8):
            ridge, thresh = lam * (1.0 - alpha), lam * alpha / 2.0

            def objective(beta):
                return std.y_ss - 2.0 * std.q @ beta + beta @ std.gram @ beta + lam * (
                    alpha * np.abs(beta).sum() + (1.0 - alpha) * beta @ beta
                )

            best = objective(coordinate_descent(std, lam, alpha, 1e-12, 100_000)[0])
            fits = [coordinate_descent(std, lam, alpha, tol, 100_000, beta0)
                    for beta0 in (warm, rng.normal(size=X.shape[1]))]
            for beta, converged, _ in fits:
                assert converged
                update = exact_coordinate_updates(std.gram, std.q, std.gram_diag, beta, lam, alpha)
                assert np.all(np.abs(update - beta) <= tol)
                g = std.q - std.gram @ beta - ridge * beta
                viol = np.where(beta != 0.0, np.abs(g - thresh * np.sign(beta)),
                                np.maximum(np.abs(g) - thresh, 0.0))
                assert np.all(viol <= allowed + tol * ridge)
                # P is 2*ridge-strongly convex, so P(b) - min P <= |viol|^2 / ridge: a
                # small ridge leaves room along a duplicated column's split
                flat = float(viol @ viol) / ridge if ridge > 0.0 else 0.0
                assert objective(beta) <= best + 1e-12 * abs(best) + flat
            warm = fits[0][0]

    def test_warm_start_clears_a_zero_variance_column(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(20, 3))
        X[:, 2] = 3.0
        y = 2.0 * X[:, 0] + rng.normal(size=20)
        std = standardize(X, y)
        cold = fit_elastic_net(std, 5.0, 1.0)
        assert cold.betas[0] != 0.0 and cold.betas[2] == 0.0
        # far from the solution, and at it but for the constant column
        for start in ([1.0, 0.0, 0.7], [cold.betas[0], 0.0, 0.7]):
            warm = fit_elastic_net(
                std, 5.0, 1.0, warm_start=CoefficientSet(0.0, np.array(start))
            )
            assert warm.converged and warm.betas[2] == 0.0
            assert np.allclose(warm.betas, cold.betas, rtol=0.0, atol=1e-9)
            assert warm.intercept == pytest.approx(cold.intercept, abs=1e-9)

    def test_singular_active_set_does_not_stall(self):
        # a lasso fit whose 9-column active set has a rank-8 sub-Gram; without
        # null-space steps coordinate descent crept along the null vector
        data = json.loads((DATA_DIR / "lasso_stall.json").read_text())
        gram, q, y_ss = np.array(data["gram"]), np.array(data["q"]), data["y_ss"]
        lam, alpha = data["lam"], data["alpha"]
        beta, converged, sweeps = coordinate_descent(
            sums_as_standardized(gram, q, y_ss), lam, alpha, 1e-7, 100_000, np.array(data["beta0"])
        )
        assert converged and sweeps <= 200

        def objective(b):
            return y_ss - 2.0 * q @ b + b @ gram @ b + lam * np.abs(b).sum()

        stalled = objective(np.array(data["beta_96791"]))
        assert objective(beta) == pytest.approx(stalled, rel=1e-12, abs=0.0)

    def test_a_ridge_term_below_the_eigenvalue_rule_steps_like_the_lasso(self):
        # one ulp below alpha 1 the ridge term is about 1e-16 of lam, so an active
        # set of this 3 x 12 design with more than 3 columns counts as singular;
        # with no null-space step there, four of these fits stopped at 100,000 sweeps
        rng = np.random.default_rng(52680)
        X = rng.normal(size=(3, 12)) * rng.uniform(0.1, 10.0, size=12)
        y = X[:, :3] @ rng.uniform(-2.0, 2.0, size=3) + rng.normal(size=3)
        std = standardize(X, y)
        alpha = 1.0 - 2.0**-53
        lam_max = 2.0 * float(np.max(np.abs(std.q))) / alpha
        start = np.random.default_rng(0).normal(size=12)
        for lam in np.geomspace(lam_max, 1e-3 * lam_max, 8):
            beta, converged, sweeps = coordinate_descent(std, lam, alpha, 1e-7, 1000, start)
            assert converged and sweeps <= 20
            update = exact_coordinate_updates(std.gram, std.q, std.gram_diag, beta, lam, alpha)
            assert np.all(np.abs(update - beta) <= 1e-7)

    def test_paths_with_a_duplicated_column_do_not_stall(self):
        # two equal columns make every active set holding both singular; these
        # seeds took 4,043, 2,131 and 8,153 sweeps at their worst weight without
        # null-space steps, and the last two 2,066 and 4,348 with the steps
        # taken only between full cycles, not while a singular set is stable
        for seed in (407, 582, 5833):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 12))
            p = int(rng.integers(n, 2 * n + 3))
            X = rng.normal(size=(n, p))
            X[:, rng.integers(p)] = X[:, rng.integers(p)]
            y = X[:, :3] @ rng.normal(size=3) + 0.3 * rng.normal(size=n)
            std = standardize(X, y)
            lam_max = 2.0 * np.max(np.abs(std.q))
            fit = None
            for lam in np.geomspace(lam_max, 1e-3 * lam_max, 30):
                fit = fit_elastic_net(std, lam, 1.0, warm_start=fit)
                assert fit.converged and fit.n_sweeps <= 50

    def test_paths_with_near_duplicate_columns_do_not_stall(self):
        # a copy of column 0 and a second copy 1e-6 off it; cycling stopped 9, 21
        # and 14 rows of these paths at 2,000 sweeps, with KKT residuals near 3e-6
        for seed in (0, 26, 33):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(22, 44))
            X[:, 1] = X[:, 0]
            X[:, -1] = X[:, 0] + 1e-6 * rng.normal(size=22)
            y = X[:, :3] @ rng.normal(size=3) + 0.3 * rng.normal(size=22)
            lams = make_lambda_grid(X, y, 1.0, 50).values
            path = fit_elastic_net_path(standardize(X, y), lams, 1.0, max_iter=2000)
            assert path.converged.all() and path.n_sweeps.max() <= 10
            # the bench oracle's bound: what a move of tol leaves in the gradient
            Xs, yc = standardized(X, y)
            allowed = 1e-7 * np.abs(Xs.T @ Xs).sum(axis=1) + 1e-9 * lams[0]
            for lam, slopes in zip(lams, path.slopes):
                b = slopes * path.scales
                g = Xs.T @ (yc - Xs @ b)
                viol = np.where(b != 0.0, np.abs(g - lam / 2.0 * np.sign(b)),
                                np.maximum(np.abs(g) - lam / 2.0, 0.0))
                assert np.all(viol <= allowed)

    def test_a_step_that_leaves_the_iterate_unchanged_ends_the_fit(self):
        # a copy of column 0 1e-5 off it: from row 9 on, the step gives the copy
        # its exact update, just over tol, and the restricted solve sets it back
        # to 0; the same iterate would take that step again until max_iter
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 12)) * rng.uniform(0.1, 10.0, size=12)
        X[:, -1] = X[:, 0] + 1e-5 * rng.normal(size=60)
        y = X[:, :3] @ rng.uniform(-2.0, 2.0, size=3) + rng.normal(size=60)
        lams = make_lambda_grid(X, y, 1.0, 40).values
        std = standardize(X, y)
        path = fit_elastic_net_path(std, lams, 1.0)  # max_iter 100,000
        assert not path.converged[9] and path.n_sweeps.max() <= 10
        for lam, slopes in zip(lams, path.slopes):
            b = slopes * path.scales
            primal = std.y_ss - 2.0 * std.q @ b + b @ std.gram @ b + lam * np.abs(b).sum()
            assert duality_gap(std, b, lam, 1.0) <= 1e-5 * primal

    def test_penalty_value_non_increasing_in_lambda(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=30)
        for alpha in (1.0, 0.5):
            lam_max = lambda_max(X, y, alpha)
            grid = np.geomspace(lam_max, 1e-3 * lam_max, 10)
            values = []
            l1_norms = []
            for lam in grid:
                c = fit_elastic_net(standardize(X, y), lam, alpha, tol=1e-10)
                beta = c.betas * c.scales
                l1 = np.abs(beta).sum()
                values.append(alpha * l1 + (1 - alpha) * (beta @ beta))
                l1_norms.append(l1)
            # descending grid: the penalty value and the L1 norm grow as lambda falls
            slack = 1e-8 * max(values[-1], 1.0)
            assert all(a <= b + slack for a, b in zip(values, values[1:]))
            assert all(a <= b + slack for a, b in zip(l1_norms, l1_norms[1:]))

    def test_max_iter_flag(self):
        rng = np.random.default_rng(14)
        base = rng.normal(size=(40, 1))
        # a cold fit enters one coordinate per step, and this one needs three
        X = np.column_stack([base, base + 1e-4 * rng.normal(size=(40, 1)),
                             rng.normal(size=(40, 2))])
        y = X @ np.array([1.0, -1.0, 2.0, -0.5]) + rng.normal(size=40)
        std = standardize(X, y)
        assert fit_elastic_net(std, 1.0, 1.0).n_sweeps > 1
        coeffs = fit_elastic_net(std, 1.0, 1.0, max_iter=1)
        assert not coeffs.converged
        assert np.all(np.isfinite(coeffs.betas))

    def test_unpenalized_wide_design_interpolates_within_three_sweeps(self):
        # at lambda 0 with p > n the sub-Gram of the nonzero set is singular;
        # its range step fits y exactly
        rng = np.random.default_rng(29)
        for _ in range(20):
            X = rng.normal(size=(10, 15))
            y = rng.normal(size=10)
            coeffs = fit_elastic_net(standardize(X, y), 0.0, 1.0)
            assert coeffs.converged and coeffs.n_sweeps <= 3
            assert np.sum((y - linear(coeffs, X)) ** 2) < 1e-20

    def test_unpenalized_near_collinear_design_converges_within_three_sweeps(self):
        # two columns 1e-4 apart: cycling alone crawls along their difference
        rng = np.random.default_rng(30)
        for _ in range(20):
            base = rng.normal(size=(30, 1))
            X = np.column_stack([base, base + 1e-4 * rng.normal(size=(30, 1)),
                                 rng.normal(size=(30, 2))])
            y = X @ rng.normal(size=4) + rng.normal(size=30)
            coeffs = fit_elastic_net(standardize(X, y), 0.0, 1.0)
            assert coeffs.converged and coeffs.n_sweeps <= 3

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0])
    def test_without_an_l1_term_one_exact_solve_replaces_the_cycles(self, alpha):
        # two columns 1e-6 apart: at the sweep limit of 100,000, cycling left
        # some of these fits unconverged after seconds
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(30, 1))
            X = np.column_stack([base, base + 1e-6 * rng.normal(size=(30, 1)),
                                 rng.normal(size=(30, 2))])
            y = X @ rng.normal(size=4) + rng.normal(size=30)
            std = standardize(X, y)
            coeffs = fit_elastic_net(std, 0.0, alpha)
            assert coeffs.converged and coeffs.n_sweeps == 0
            beta = coeffs.betas * coeffs.scales
            w, V = np.linalg.eigh(std.gram)
            kept = V[:, w > PIVOT_RTOL * np.max(std.gram_diag)]
            scale = np.abs(std.gram) @ np.abs(beta) + np.abs(std.q)
            assert np.all(np.abs(kept.T @ (std.q - std.gram @ beta)) <= 1e-13 * np.max(scale))

    def test_without_an_l1_term_a_warm_start_changes_no_bit(self):
        # p > n: every interpolating fit is optimal; the minimum-norm one is returned
        rng = np.random.default_rng(31)
        for _ in range(10):
            std = standardize(rng.normal(size=(10, 15)), rng.normal(size=10))
            cold = fit_elastic_net(std, 0.0, 1.0)
            warm = fit_elastic_net(
                std, 0.0, 1.0, warm_start=CoefficientSet(0.0, rng.normal(size=15))
            )
            assert warm.betas.tobytes() == cold.betas.tobytes()
            assert warm.intercept == cold.intercept

    def test_a_constant_column_gets_0_from_a_cold_or_warm_start(self):
        # its coefficient does not enter the squared loss; every fit sets it to 0
        rng = np.random.default_rng(32)
        y = rng.normal(size=6)
        for X in (np.full((6, 2), 3.0), np.column_stack([rng.normal(size=6), np.full(6, 3.0)])):
            std = standardize(X, y)
            start = CoefficientSet(0.0, np.array([1.0, -2.0]))
            for lam, alpha in ((0.0, 1.0), (0.0, 0.0), (2.0, 0.0), (2.0, 0.5), (2.0, 1.0)):
                cold = fit_elastic_net(std, lam, alpha)
                warm = fit_elastic_net(std, lam, alpha, warm_start=start)
                assert cold.betas[1] == warm.betas[1] == 0.0
                assert np.allclose(linear(warm, X), linear(cold, X), rtol=0.0, atol=1e-12)

    def test_warm_start_shape_mismatch(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        warm = CoefficientSet(0.0, np.zeros(2))
        with pytest.raises(ValueError):
            fit_elastic_net(standardize(X, y), 1.0, 1.0, warm_start=warm)

    def test_determinism(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        a = fit_elastic_net(standardize(X, y), 2.0, 0.7)
        b = fit_elastic_net(standardize(X, y), 2.0, 0.7)
        assert a.intercept == b.intercept
        assert np.array_equal(a.betas, b.betas)


class TestElasticNetPath:
    @staticmethod
    def chain(problem, lams, alpha, warm=None, **kwargs):
        """One warm-started ``fit_elastic_net`` per weight, down the grid."""
        fits = []
        for lam in lams:
            warm = fit_elastic_net(problem, lam, alpha, warm_start=warm, **kwargs)
            fits.append(warm)
        return fits

    @staticmethod
    def assert_rows_equal(path, fits):
        assert len(path) == len(fits)
        assert path.intercepts.tobytes() == np.array([c.intercept for c in fits]).tobytes()
        assert path.slopes.tobytes() == np.array([c.betas for c in fits]).tobytes()
        assert path.converged.tolist() == [c.converged for c in fits]
        assert path.n_sweeps.tolist() == [c.n_sweeps for c in fits]

    @settings(max_examples=150, deadline=None)
    @given(l1_designs(), st.booleans(), st.sampled_from(["cold", "random", "previous"]),
           st.integers(0, 2**32 - 1))
    def test_equals_the_chain_of_one_weight_fits(self, design, below_one, start, seed):
        """Every row, batched or not, is the warm-started one-weight fit bit for bit:
        down a grid that ends at 0, from a cold, a random and a previous fit's start,
        with alpha one ulp below 1 (the tiny ridge term that makes sets singular)."""
        X, y, alpha = design
        if below_one:
            alpha = float(np.nextafter(1.0, 0.0))
        rng = np.random.default_rng(seed)
        std = standardize(X, y)
        lam_max = 2.0 * float(np.max(np.abs(std.q))) / max(alpha, 1e-3)
        assume(lam_max > 0.0)
        lams = [*np.geomspace(lam_max, 1e-3 * lam_max, 12), 0.0]
        warm = None
        if start == "random":
            warm = CoefficientSet(0.0, rng.normal(size=X.shape[1]))
        elif start == "previous":
            warm = fit_elastic_net(standardize(X, y), 2.0 * lam_max, alpha)
        fits = self.chain(standardize(X, y), lams, alpha, warm)
        path = fit_elastic_net_path(standardize(X, y), lams, alpha, warm_start=warm)
        self.assert_rows_equal(path, fits)

    def test_stopped_fits_match_the_chain(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(12, 9)) * rng.uniform(0.1, 10.0, size=9)
        y = X[:, :3] @ rng.normal(size=3) + rng.normal(size=12)
        std = standardize(X, y)
        lams = make_lambda_grid(X, y, 0.5, 30).values
        for max_iter in (1, 100_000):
            path = fit_elastic_net_path(std, lams, 0.5, max_iter=max_iter)
            fits = self.chain(standardize(X, y), lams, 0.5, max_iter=max_iter)
            self.assert_rows_equal(path, fits)
            assert path.converged.all() == (max_iter > 1)

    @pytest.mark.parametrize("seed", [4, 6, 9, 14])
    def test_near_duplicate_paths_with_stopped_rows_match_the_chain(self, seed):
        # a copy of column 0 1e-5 off it: rows whose step leaves the iterate
        # unchanged, or stop at max_iter, between runs that end on one entering step
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 12)) * rng.uniform(0.1, 10.0, size=12)
        X[:, -1] = X[:, 0] + 1e-5 * rng.normal(size=60)
        y = X[:, :3] @ rng.uniform(-2.0, 2.0, size=3) + rng.normal(size=60)
        lams = make_lambda_grid(X, y, 1.0, 40).values
        for max_iter in (1, 2, 3, solvers.DEFAULT_MAX_ITER):
            path = fit_elastic_net_path(standardize(X, y), lams, 1.0, max_iter=max_iter)
            self.assert_rows_equal(path, self.chain(standardize(X, y), lams, 1.0,
                                                    max_iter=max_iter))
            assert not path.converged.all()

    @staticmethod
    def wide_design(seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 15))
        y = X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10)
        return X, y, make_lambda_grid(X, y, 1.0, 100).values

    @staticmethod
    def record_attempts(monkeypatch):
        """``(start, weights given, (rows kept, point handed on))`` of every batched
        attempt; a handed point is an exit if its support is smaller than ``start``'s."""
        attempts = []
        original = solvers._sign_fixed_rows

        def recording(std, lams, alpha, tol, start):
            attempts.append((start, lams, original(std, lams, alpha, tol, start)))
            return attempts[-1][2]

        monkeypatch.setattr(solvers, "_sign_fixed_rows", recording)
        return attempts

    @staticmethod
    def count_fits(monkeypatch):
        """The weight of every ``solvers.fit_elastic_net`` call."""
        weights = []

        def counted(std, lam, *args, **kwargs):
            weights.append(lam)
            return fit_elastic_net(std, lam, *args, **kwargs)

        monkeypatch.setattr(solvers, "fit_elastic_net", counted)
        return weights

    def test_a_run_end_that_steps_twice_stays_batched(self, monkeypatch):
        # the attempt from the entering step keeps no row at one weight, whose fit
        # takes a second step: that step is handed on too, and the attempt from it
        # keeps the weight's row
        X, y, lams = self.wide_design(7)
        fits = self.chain(standardize(X, y), lams, 1.0)
        attempts = self.record_attempts(monkeypatch)
        path = fit_elastic_net_path(standardize(X, y), lams, 1.0)
        self.assert_rows_equal(path, fits)
        assert 2 in path.n_sweeps
        assert any(
            second is first_step and len(kept) == 0 and third is second_step and len(rows) > 0
            and np.count_nonzero(second_step) > np.count_nonzero(first_step)
            for (_, _, (_, first_step)), (second, _, (kept, second_step)), (third, _, (rows, _))
            in zip(attempts, attempts[1:], attempts[2:]))

    def test_run_ends_entering_one_coordinate_stay_batched(self, monkeypatch):
        X, y, lams = self.wide_design(0)
        calls = self.count_fits(monkeypatch)
        path = fit_elastic_net_path(standardize(X, y), lams, 1.0)
        assert path.converged.all()
        assert len(calls) == 0 < np.count_nonzero(path.n_sweeps == 1)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_run_ends_where_a_coefficient_leaves_stay_batched(self, monkeypatch, seed):
        # columns that share one strong factor: along the path coefficients leave the
        # support as well as enter it, and the attempt from an exit keeps rows
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 15)) + 2.0 * rng.normal(size=(10, 1))
        y = X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10)
        lams = make_lambda_grid(X, y, 1.0, 100).values
        attempts = self.record_attempts(monkeypatch)
        calls = self.count_fits(monkeypatch)
        for max_iter in (1, 2, 3, solvers.DEFAULT_MAX_ITER):
            attempts.clear()
            calls.clear()
            path = fit_elastic_net_path(standardize(X, y), lams, 1.0, max_iter=max_iter)
            self.assert_rows_equal(path, self.chain(standardize(X, y), lams, 1.0,
                                                    max_iter=max_iter))
            assert any(start is point and len(rows) > 0  # an exit point
                       and np.count_nonzero(point) < np.count_nonzero(before)
                       for (before, _, (_, point)), (start, _, (rows, _))
                       in zip(attempts, attempts[1:]))
        assert calls == []

    def test_an_enter_then_exit_cycle_at_one_weight_ends_in_the_one_weight_fit(
            self, monkeypatch):
        # a response in the 1e9s: rounding moves a coordinate's update by more than tol
        # where the solve that follows sets it back, so at one weight coordinate
        # descent enters, leaves and enters again up to its step limit
        rng = np.random.default_rng(33)
        X = rng.normal(size=(10, 15)) + 2.0 * rng.normal(size=(10, 1))
        y = 1e9 * (X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10))
        lams = make_lambda_grid(X, y, 1.0, 40).values
        fits = self.chain(standardize(X, y), lams, 1.0, max_iter=50)
        attempts = self.record_attempts(monkeypatch)
        calls = self.count_fits(monkeypatch)
        path = fit_elastic_net_path(standardize(X, y), lams, 1.0, max_iter=50)
        self.assert_rows_equal(path, fits)
        hand_offs = {}  # weight index: the kind of every point handed on at it
        for start, given, (rows, handed) in attempts:
            if handed is not None:
                kind = "exit" if np.count_nonzero(handed) < np.count_nonzero(start) else "enter"
                hand_offs.setdefault(lams.index(given[0]) + len(rows), []).append(kind)
        cycles = [i for i, kinds in hand_offs.items() if "enter exit enter" in " ".join(kinds)]
        assert cycles
        for i in cycles:  # two steps are handed on and the third is refused
            assert hand_offs[i].count("enter") == 3 and len(hand_offs[i]) <= 5
            assert calls.count(lams[i]) == 1 and not path.converged[i]

    def test_a_long_run_spans_growing_windows(self, monkeypatch):
        # three strong predictors: once all have entered, the support holds to the
        # grid's end, so batched attempts keep their whole window and double it
        rng = np.random.default_rng(41)
        X = rng.normal(size=(30, 3))
        y = X @ [3.0, -2.0, 1.0] + 0.1 * rng.normal(size=30)
        lams = make_lambda_grid(X, y, 1.0, 200).values
        fits = self.chain(standardize(X, y), lams, 1.0)
        supports = [tuple(f.support()) for f in fits]
        assert supports[-40:] == [(True, True, True)] * 40
        attempts = self.record_attempts(monkeypatch)
        path = fit_elastic_net_path(standardize(X, y), lams, 1.0)
        self.assert_rows_equal(path, fits)
        # the last run: windows of 16, 32 and 64 weights, each kept whole, then the
        # rest of the grid
        window = solvers.RUN_WINDOW
        sizes = [(len(given), len(kept)) for _, given, (kept, _) in attempts]
        assert sizes[-4:-1] == [
            (window, window), (2 * window, 2 * window), (4 * window, 4 * window)]
        assert sizes[-1][0] == sizes[-1][1] < 8 * window

    def test_a_step_on_the_last_weight_of_a_window_is_taken_batched(self, monkeypatch):
        # the first window's last weight is the first where a coordinate enters, and
        # the next window's last weight the first where a second one does
        X, y, fine = self.wide_design(3)
        fine = np.geomspace(fine[0], fine[0] * 1e-3, 2000)
        sizes = [np.count_nonzero(f.betas) for f in self.chain(standardize(X, y), fine, 1.0)]
        first, second = sizes.index(1), sizes.index(2)
        window = solvers.RUN_WINDOW
        lams = np.concatenate([np.geomspace(2.0 * fine[0], 1.01 * fine[0], window - 1),
                               np.geomspace(fine[first], fine[second - 1], window - 1),
                               fine[second:second + 30]])
        fits = self.chain(standardize(X, y), lams, 1.0)
        attempts = self.record_attempts(monkeypatch)
        path = fit_elastic_net_path(standardize(X, y), lams, 1.0)
        self.assert_rows_equal(path, fits)
        assert [(len(given), len(kept), handed is not None)
                for _, given, (kept, handed) in attempts[:2]] \
            == [(window, window - 1, True), (window, window - 1, True)]
        assert path.n_sweeps[[window - 1, 2 * window - 2]].tolist() == [1, 1]

    def test_a_grid_without_an_l1_term_is_one_product(self, monkeypatch):
        # net-cm --alpha 0, down to weight 0 and on a design with more columns
        # than rows: every row is its weight's one minimum-norm solve
        rng = np.random.default_rng(33)
        for n, p in ((20, 6), (8, 12)):
            X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
            y = X[:, :3] @ rng.normal(size=3) + rng.normal(size=n)
            lams = [*make_lambda_grid(X, y, 0.0, 20).values, 0.0]
            fits = self.chain(standardize(X, y), lams, 0.0)
            calls = []

            def counted(*args, **kwargs):
                calls.append(args)
                return fit_elastic_net(*args, **kwargs)

            monkeypatch.setattr(solvers, "fit_elastic_net", counted)
            path = fit_elastic_net_path(standardize(X, y), lams, 0.0)
            monkeypatch.undo()
            self.assert_rows_equal(path, fits)
            assert calls == []

    def test_checks_every_argument_before_any_fit(self, monkeypatch):
        std = standardize(np.eye(3), np.ones(3))

        def no_fit(*args):
            raise AssertionError("a fit ran")

        # every fit forms exact updates or factors an active set
        monkeypatch.setattr(solvers, "_exact_updates", no_fit)
        monkeypatch.setattr(solvers, "_factor", no_fit)
        bad = [
            (((1.0, 0.5, float("nan")), 1.0, {}), "^lambda must be finite and >= 0, got nan$"),
            (((1.0, -1.0), 1.0, {}), "^lambda must be finite and >= 0, got -1.0$"),
            (((1.0,), 1.5, {}), r"^alpha must lie in \[0, 1\], got 1.5$"),
            (((1.0,), 0.5, {"tol": 0.0}), "^tol must be positive, got 0.0$"),
            (((1.0,), 0.5, {"max_iter": 0}), "^max_iter must be >= 1, got 0$"),
            (((1.0,), 0.5, {"warm_start": CoefficientSet(0.0, np.zeros(2))}),
             "^warm start has 2 coefficients, problem has 3$"),
        ]
        for (lams, alpha, kwargs), message in bad:
            with pytest.raises(ValueError, match=message):
                fit_elastic_net_path(std, lams, alpha, **kwargs)
            with pytest.raises(ValueError, match=message):  # the one-weight fit's message
                fit_elastic_net(std, lams[-1], alpha, **kwargs)

    def test_a_non_finite_row_raises_like_the_one_weight_fits(self):
        # a response near the largest float overflows Xs'yc, so every batched row is
        # non-finite: from zeros and on a warm start's active set
        X = np.random.default_rng(32).normal(size=(4, 3))
        y = np.array([1e308, -1e308, 1e308, -1e308])
        with np.errstate(all="ignore"):
            std = standardize(X, y)
            assert not np.isfinite(std.q).all()
            for warm in (None, CoefficientSet(0.0, np.ones(3))):
                with pytest.raises(NonFiniteEncountered):
                    self.chain(std, (2.0, 1.0), 1.0, warm, max_iter=5)
                with pytest.raises(NonFiniteEncountered):
                    fit_elastic_net_path(std, (2.0, 1.0), 1.0, max_iter=5, warm_start=warm)


class TestLambdaZeroCollapse:
    def test_all_estimators_agree_without_penalty(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(8, 30))
            p = int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            intercept, betas = least_squares(X, y)
            ridge = fit_ridge(standardize(X, y), 0.0)
            net = fit_elastic_net(standardize(X, y), 0.0, 0.3)
            for other in (ridge, net):
                assert abs(other.intercept - intercept) <= 1e-6
                assert np.max(np.abs(other.betas - betas)) <= 1e-6

