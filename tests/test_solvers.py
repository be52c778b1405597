import json
import math
import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intervalreg import IntervalTable, MethodSpec, fit, predict, solvers
from intervalreg.models import METHOD_NAMES
from intervalreg.solvers import (
    PIVOT_RTOL,
    CoefficientGrid,
    CoefficientSet,
    NonFiniteEncountered,
    SingularDesign,
    Standardized,
    _standardize,
    coordinate_descent,
    duality_gap,
    fit_elastic_net,
    fit_elastic_net_path,
    fit_ridge,
    fit_ridge_path,
    restrict,
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
    """Sums formed outside the library as the :class:`Standardized` the solvers take;
    the solvers read no means, scales, response mean or row count (None here)."""
    p = len(q)
    return Standardized(np.zeros(p), np.ones(p), 0.0, gram, q, y_ss, np.diag(gram).copy(), None)


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


@st.composite
def lasso_stacks(draw):
    """``(designs, lams, warms, max_iter)``: a stack of 1 to 12 lasso designs of one width,
    each a function that builds it afresh (an empty factor cache), the grid they share
    (perhaps ending at 0, and perhaps rising at one or two weights in a row, so that it
    descends only within each stretch, and a design fitted by coordinate descent at the
    first of two rises has an empty span at the second, as a warm-started design has at
    the first weight), one warm start per design (None, random slopes or a fit at a larger
    weight) and a step limit of 1 to 3 or the default (100 near 1e9).  The designs are
    seeded, have 2 to 20 columns, may hold a constant column or a copy of a column, may
    all be a ``restrict`` of one random subset of their columns (as a crm support run's
    half-ranges are), and may all have their responses scaled by about 1e9, where rows
    fail the exact-update test by rounding and the designs start again at different rows;
    or they are the ``tests/data/lasso_stall.json`` fold, whose columns are near
    duplicates, with a copy of one of its columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 12))
    designs, scale = [], 1.0
    if draw(st.booleans()):
        data = json.loads((DATA_DIR / "lasso_stall.json").read_text())
        gram, q = np.array(data["gram"]), np.array(data["q"])
        for j in rng.integers(len(q), size=m):
            copied = np.append(np.arange(len(q)), j)
            designs.append(lambda copied=copied: sums_as_standardized(
                gram[np.ix_(copied, copied)], q[copied], data["y_ss"]))
    else:
        p, scale = draw(st.integers(2, 20)), draw(st.sampled_from([1.0, 1e9]))
        cols = (np.sort(rng.choice(p, int(rng.integers(1, p + 1)), replace=False))
                if rng.random() < 0.3 else None)
        for _ in range(m):
            n = int(rng.integers(3, 16))
            X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
            if rng.random() < 0.3:
                X[:, rng.integers(p)] = rng.normal()
            if rng.random() < 0.3:
                X[:, rng.integers(p)] = X[:, rng.integers(p)]
            y = X[:, : min(p, 3)] @ rng.uniform(-2.0, 2.0, size=min(p, 3)) + rng.normal(size=n)
            y *= scale * rng.uniform(0.5, 2.0)
            designs.append(lambda X=X, y=y: standardize(X, y) if cols is None
                           else restrict(standardize(X, y), cols))
    lam_max = max(2.0 * float(np.max(np.abs(make().q))) for make in designs)
    assume(lam_max > 0.0)
    lams = [*np.geomspace(lam_max, lam_max * 10.0 ** -rng.uniform(1.0, 4.0),
                          draw(st.integers(2, 30)))]
    rise = draw(st.integers(1, len(lams) - 1))
    for r in range(rise, min(rise + draw(st.integers(0, 2)), len(lams))):
        lams[r] = lams[r - 1] * rng.uniform(1.1, 4.0)  # a weight above the one before it
    if draw(st.booleans()):
        lams.append(0.0)
    warms = []
    for make in designs:
        start = draw(st.sampled_from(["cold", "random", "previous"]))
        p = len(make().q)
        warms.append(None if start == "cold" else CoefficientSet(0.0, rng.normal(size=p))
                     if start == "random" else
                     fit_elastic_net(make(), lam_max * rng.uniform(0.05, 2.0), 1.0))
    # near 1e9, coordinate descent can cycle at a weight until its step limit
    limits = [1, 2, 3, 100 if scale > 1.0 else solvers.DEFAULT_MAX_ITER]
    return designs, lams, warms, draw(st.sampled_from(limits))


#: ``(X, y, alpha)`` of two nearly collinear 3 x 2 lasso designs on which the exact gap of
#: a homotopy row exceeded 1e-12 of ``y_ss`` by the row's own rounding
NEARLY_COLLINEAR = [
    (np.array([[-2.13559188, 4.88661686], [-5.64099313, 4.53228005], [-2.16369577, 4.89034061]]),
     np.array([5.52091243, 4.77851498, 3.90548361]), 1.0),
    (np.array([[-2.1355827, 4.88661172], [-5.64100207, 4.53227929], [-2.16368846, 4.89035415]]),
     np.array([5.52139924, 4.77815326, 3.90483317]), 1.0),
]

#: ``(X, y, alpha)`` of a 3 x 3 net design whose L1 term is below ``tol`` along its
#: grid: a sign-fixed solve that flips a sign there still passes the exact-update test
#: and lies about 1e-8 from the chain's rows
TINY_L1 = (np.array([[2.50084636, -10.15406374, 2.18068978],
                     [-0.69571819, -1.79844765, -1.12449612],
                     [-2.47519606, -0.92150423, -4.5127159]]),
           np.array([-2.53558681, -1.01920264, -4.16483507]), 1e-8)

#: ``(X, y, alpha)`` of a 3 x 7 net design at an L1 fraction near 0, whose grid shrinks
#: one coefficient below ``tol``: from a cold start its first weight's exact-update point
#: moves that coordinate by 5e-8, and a restart that entered it would keep a row about
#: 3e-8 from the chain's, which leaves it at 0
TINY_ALPHA = (np.array([[3.46236625, -2.07989683, -3.67267739, -0.36989559, -8.04157661,
                         2.56060429, -4.70594923],
                        [-1.74233753, -1.3731713, 1.37620158, 0.35241213, 2.58638227,
                         10.3971344, -11.55051561],
                        [-5.06630979, -7.6211407, -1.04303796, 0.41695598, -4.147278,
                         2.92349372, 6.78085601]]),
              np.array([-3.91931191, -0.10131016, -1.66732117]), 2.632853492340481e-155)


def exact_coordinate_updates(gram, q, gram_diag, beta, lam, alpha):
    """Every coordinate's exact update from ``beta``: ``S(rho_j, lam*alpha/2) /
    (g_jj + ridge)``, 0 where the denominator is 0."""
    ridge, thresh = lam * (1.0 - alpha), lam * alpha / 2.0
    rho = q - gram @ beta + gram_diag * beta
    denominator = gram_diag + ridge
    shrunk = np.sign(rho) * np.maximum(np.abs(rho) - thresh, 0.0)
    safe = np.where(denominator > 0.0, denominator, 1.0)
    return np.where(denominator > 0.0, shrunk / safe, 0.0)


def exact_duality_gap(std, beta, lam, alpha):
    """:func:`solvers.duality_gap`'s formula evaluated in exact rational arithmetic
    from the design's float sums ``std.gram``, ``std.q``, ``std.y_ss`` and the float
    ``beta``, so the gaps of two iterates compare without their own rounding."""
    b = [Fraction(v) for v in np.asarray(beta, dtype=float).tolist()]
    lam, alpha = Fraction(lam), Fraction(alpha)
    ridge, thresh = lam * (1 - alpha), lam * alpha / 2
    gram_b = [sum(map(operator.mul, map(Fraction, row), b)) for row in std.gram.tolist()]
    grad = [Fraction(qj) - gb for qj, gb in zip(std.q.tolist(), gram_b)]
    penalty = lam * (alpha * sum(map(abs, b)) + (1 - alpha) * sum(v * v for v in b))
    if ridge > 0:
        c, conjugate = 1, sum(max(abs(g) - thresh, 0) ** 2 for g in grad) / ridge
    else:
        top = max(map(abs, grad), default=Fraction(0))
        c, conjugate = (1 if top <= thresh else thresh / top), 0
    q_b = sum(map(operator.mul, map(Fraction, std.q.tolist()), b))
    rss = Fraction(std.y_ss) - 2 * q_b + sum(map(operator.mul, b, gram_b))
    return penalty + conjugate - 2 * c * sum(map(operator.mul, b, grad)) + (1 - c) ** 2 * rss


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


@st.composite
def design_stacks(draw):
    """``(X, y)``: a stack of 1 to 6 seeded designs of one shape, each column plain,
    constant, near 1e307 (its sum overflows) or near 1e-170 (its squares underflow),
    and perhaps a response near 1e307."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, p = draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(1, 5))
    X = rng.normal(size=(m, n, p)) * 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    kinds = draw(st.lists(st.sampled_from(["plain", "constant", "huge", "tiny"]),
                          min_size=p, max_size=p))
    for j, kind in enumerate(kinds):
        if kind == "constant":
            X[:, :, j] = rng.normal(size=(m, 1))
        elif kind == "huge":
            X[:, :, j] = rng.uniform(0.5, 1.0, size=(m, n)) * 8e307
        elif kind == "tiny":
            X[:, :, j] = rng.normal(size=(m, n)) * 1e-170
    y = rng.uniform(-1.0, 1.0, size=(m, n)) * (8e307 if draw(st.booleans()) else 10.0)
    return X, y


class TestStandardize:
    @pytest.mark.parametrize("X, y, message", [
        (np.ones(3), np.ones(3), r"^X must be a 2-d matrix, got shape \(3,\)$"),
        (np.ones((3, 2)), np.ones((3, 1)), r"^y must be a vector, got shape \(3, 1\)$"),
        (np.ones((0, 2)), np.ones(0), r"^need n >= 1 and p >= 1, got X shape \(0, 2\)$"),
        (np.ones((3, 0)), np.ones(3), r"^need n >= 1 and p >= 1, got X shape \(3, 0\)$"),
        (np.ones((3, 2)), np.ones(4), "^X has 3 rows but y has 4$"),
        (np.ones((2, 3, 2)), np.ones(3), r"^y must be a stack of vectors, got shape \(3,\)$"),
        (np.ones((2, 3, 2)), np.ones((2, 4)), "^X has 3 rows but y has 4$"),
        (np.ones((2, 3, 2)), np.ones((3, 3)), "^X stacks 2 designs but y stacks 3$"),
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
        assert std.n == 9
        # the sums and nothing else: no fit adds to a design
        assert Standardized._fields == ("means", "scales", "y_mean", "gram", "q", "y_ss",
                                        "gram_diag", "n")
        assert np.all(std.gram[3] == 0.0) and std.q[3] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(design_stacks())
    def test_a_stack_is_its_designs_standardized_one_at_a_time(self, stack):
        # bit for bit
        X, y = stack
        stds = standardize(X, y)
        assert len(stds) == len(X)
        for i, got in enumerate(stds):
            want = standardize(X[i], y[i])
            assert got.gram.tobytes() == got.gram.T.tobytes()  # symmetric, bit for bit
            for name, a, b in zip(Standardized._fields, got, want):
                if isinstance(a, np.ndarray):
                    assert not a.flags.writeable, name
                assert type(a) is type(b), name
                a, b = np.asarray(a), np.asarray(b)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(masked_designs())
    def test_restrict_gathers_the_kept_columns_sums(self, design):
        # bit for bit from the design's sums, read-only
        X, y, mask = design
        std = standardize(X, y)
        cols = np.flatnonzero(mask)
        got = restrict(std, cols)
        gathered = {"means": std.means[cols], "scales": std.scales[cols],
                    "gram": std.gram[cols][:, cols], "q": std.q[cols],
                    "gram_diag": std.gram_diag[cols]}
        for name, a, b in zip(Standardized._fields, got, std):
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable, name
            a, b = np.asarray(a), np.asarray(gathered.get(name, b))
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
        again = [fit_elastic_net(std, lam, 0.7) for lam in lams]
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

    def test_the_exact_gap_is_the_float_gap_without_its_rounding(self):
        # the test-side rational evaluation of the same formula, at the optimum
        # and away from it, without and with a ridge term
        rng = np.random.default_rng(28)
        for _ in range(20):
            n, p = int(rng.integers(3, 20)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            alpha = float(rng.choice([0.0, 0.4, 1.0]))
            lam = float(rng.uniform(0.1, 1.0) * lambda_max(X, y, max(alpha, 0.5)))
            std = standardize(X, y)
            best = fit_elastic_net(std, lam, alpha).betas * std.scales
            for beta in (np.zeros(p), rng.normal(size=p), best):
                gap = duality_gap(std, beta, lam, alpha)
                primal = penalized_objective(X, y, beta, lam, alpha)
                assert abs(float(exact_duality_gap(std, beta, lam, alpha)) - gap) <= 1e-12 * primal

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

    def test_a_cycling_fit_factors_each_active_set_once(self, monkeypatch):
        # a response in the 1e9s: at every step rounding enters a coordinate that the
        # solve that follows drops again, so the fit revisits its few active sets up to
        # its step limit; each set's sub-Gram goes to eigh once in the call
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 8))
        std = standardize(X, 1e9 * (X @ rng.normal(size=8) + rng.normal(size=30)))
        factored, eigh = [], np.linalg.eigh

        def recording(sub):
            factored.append((sub.shape, sub.tobytes()))
            return eigh(sub)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        _, converged, steps = coordinate_descent(std, 0.2 * np.max(np.abs(std.q)), 1.0, 1e-7, 20)
        assert not converged and steps == 20
        assert len(set(factored)) == len(factored) < steps

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
    #: alpha one ulp below 1: an elastic net with the lasso's supports whose grids,
    #: unlike the lasso's homotopy, take the batched sign-fixed runs and their restarts
    BELOW_ONE = float(np.nextafter(1.0, 0.0))

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

    @staticmethod
    def fit_path(std, lams, alpha=1.0, **kwargs):
        """``(grid, fallbacks)``: ``fit_elastic_net_path`` at ``alpha`` and the weights at
        which it called ``solvers.fit_elastic_net``, the rows found by coordinate descent."""
        fallbacks = []

        def recording(std, lam, *args, **kwargs):
            fallbacks.append(lam)
            return fit_elastic_net(std, lam, *args, **kwargs)

        with mock.patch.object(solvers, "fit_elastic_net", recording):
            return fit_elastic_net_path(std, lams, alpha, **kwargs), fallbacks

    @staticmethod
    def gap_and_bound(std, lam, b, chain_b, alpha=1.0):
        """``(gap, bound)``: the exact duality gap (:func:`exact_duality_gap`) of a row
        ``b`` (standardized) at ``lam`` and ``alpha``, and the bound
        :meth:`assert_rows_certified` derives for it, given the chain's fit ``chain_b`` at
        that weight."""
        ridge, t = lam * (1.0 - alpha), lam * alpha / 2.0
        active = np.flatnonzero(b)
        rounding = 0.0
        if len(active) and alpha < 1.0:
            sub = std.gram[np.ix_(active, active)] + ridge * np.eye(len(active))
            size = np.abs(sub) @ np.abs(b[active]) + np.abs(std.q[active]) + t
            off = np.delete(std.gram[:, active], active, axis=0)
            spread = 1.0 + np.linalg.norm(off @ np.linalg.inv(sub), 2) if len(off) else 1.0
            residual = spread * math.sqrt(len(active)) * 4.0 * np.finfo(float).eps * size.max()
            rounding = 2.0 * float(residual) ** 2 / ridge
        elif len(active):
            sub = std.gram[np.ix_(active, active)]
            b0, u = np.linalg.solve(sub, np.array([std.q[active], np.sign(b[active])]).T).T
            size = np.abs(sub) @ (np.abs(b0) + t * np.abs(u)) + np.abs(std.q[active]) + t
            rounding = 4.0 * np.finfo(float).eps * float(np.abs(b).sum()) * float(size.max())
        chain_gap = exact_duality_gap(std, chain_b, lam, alpha)
        bound = max(Fraction(1e-12 * std.y_ss), 2 * chain_gap) + Fraction(rounding)
        return exact_duality_gap(std, b, lam, alpha), bound

    @classmethod
    def assert_rows_certified(cls, std, lams, path, fits, fallbacks, tol=1e-7, alpha=1.0):
        """The contract of a grid at ``alpha`` against the chain ``fits``.

        Rows stop where the chain's fits stop.  They lie within 1e-10 of its rows,
        relative to the grid's largest coefficient, and have the chain's supports, except
        that below alpha 1 a coefficient within rounding of 0 (16 eps of the grid's
        largest standardized coefficient) may be 0 in one of them; where two standardized
        columns are equal or opposite, the split between them is free, and that holds for
        the fitted values ``Xs'Xs b`` instead.  A converged row at a positive weight passes
        the exact-update test at ``tol`` (:func:`solvers._exact_updates`, with the ridge
        term in its denominator).  A row at weight 0 is the chain's minimum-norm fit bit
        for bit.

        A converged row of the homotopy or of a batched net run (not at a weight in
        ``fallbacks``) has an exact duality gap (:meth:`gap_and_bound`) of at most 1e-12
        of ``y_ss``, the objective at zero and so at least the row's, or twice the gap of
        the chain's fit where that is larger (a homotopy segment from a coordinate-descent
        row keeps that row's support), plus the row's own rounding.

        Below alpha 1, with ``mu = lam*(1-alpha)`` and ``t = lam*alpha/2``, the gap of a
        row whose correlations keep its signs is ``|v|^2 / mu`` exactly: on the row's
        support ``A`` (signs ``s``) ``v`` is the residual ``r`` of its sign-fixed system
        ``(G_AA + mu I) b_A = q_A - t s``, and off it the amount by which each ``|g_j|``
        exceeds ``t``.  The exact solution has ``r = 0``; the float row's ``|r|`` is at
        most ``4 eps sqrt(|A|) max_j (|G_AA + mu I| |b_A| + |q_A| + t)_j``, and it moves
        the correlations off ``A`` by at most ``|G_offA (G_AA + mu I)^-1|`` times that.
        So ``v`` is within ``rho``, that bound times ``1 + |G_offA (G_AA + mu I)^-1|``, of
        the exact solution's, and the gap is at most twice the exact solution's, taken as
        the chain's, plus ``2 rho^2 / mu``, the rounding term.

        At alpha 1 the rounding term is derived as follows.  Let ``A`` be the
        row's support, ``s`` its signs and ``t = lam/2``.  Where no correlation ``|g_j|``
        of ``g = q - G b`` exceeds ``t``, the gap is ``2t|b|_1 - 2b'g = -2 b_A'r`` exactly,
        with ``r = q_A - t s - G_AA b_A`` the row's residual on its own active set, 0 for
        the exact solution.  The homotopy forms the row as ``b0 - t*u`` from float solves
        of ``G_AA b0 = q_A`` and ``G_AA u = s``, so ``r`` carries their rounding: each
        ``|r_j|`` is a few eps times ``(|G_AA| (|b0| + t|u|) + |q_A| + t)_j``, and
        ``|gap| <= 2 |b|_1 max_j |r_j|``, about ``2 |Xs'Xs d| |b|_1`` for the row's rounding
        ``d``.  The bound adds ``4 eps |b|_1 max_j (|G_AA| (|b0| + t|u|) + |q_A| + t)_j``,
        with ``b0`` and ``u`` solved again here (their sizes are all it reads); a
        correlation above ``t`` by rounding adds a term of the same size.  On nearly
        collinear 3-row designs ``|b|_1`` can reach a hundred times ``|y|``, so this term
        is what exceeds 1e-12 of ``y_ss`` there, and a row moved by 1e-9 of itself still
        fails (:meth:`test_the_gap_bound_rejects_a_row_moved_by_1e_9`)."""
        chain = np.array([c.betas for c in fits])
        assert len(path) == len(fits)
        assert path.converged.tolist() == [c.converged for c in fits]
        norms = np.sqrt(np.outer(std.gram_diag, std.gram_diag))
        parallel = (np.abs(std.gram) >= (1.0 - 1e-9) * norms) & (norms > 0.0)
        if np.count_nonzero(parallel) > np.count_nonzero(std.gram_diag):  # off the diagonal
            path_fit, chain_fit = (path.slopes * path.scales) @ std.gram, (chain * path.scales) @ std.gram
            assert np.all(np.abs(path_fit - chain_fit) <= 1e-10 * np.max(np.abs(chain_fit)))
        else:
            assert np.all(np.abs(path.slopes - chain) <= 1e-10 * np.max(np.abs(chain), initial=0.0))
            differ = (path.slopes != 0.0) != (chain != 0.0)
            zero = 0.0 if alpha == 1.0 else 16 * np.finfo(float).eps * np.max(
                np.abs(chain * path.scales), initial=0.0)
            assert np.all(np.abs((path.slopes - chain) * path.scales)[differ] <= zero)

        for lam, slopes, converged, fit in zip(lams, path.slopes, path.converged, fits):
            if lam == 0.0:
                assert slopes.tobytes() == fit.betas.tobytes()
            elif converged:
                b = slopes * path.scales
                update = solvers._exact_updates(std.q - std.gram @ b, b, std.gram_diag,
                                                std.gram_diag + lam * (1.0 - alpha),
                                                lam * alpha / 2.0)
                assert np.all(np.abs(update - b) <= tol)
                if lam not in fallbacks:
                    gap, bound = cls.gap_and_bound(std, lam, b, fit.betas * fit.scales, alpha)
                    assert gap <= bound

    @settings(max_examples=150, deadline=None)
    @given(l1_designs(), st.booleans(), st.sampled_from(["cold", "random", "previous"]),
           st.integers(0, 2**32 - 1))
    @example(TINY_L1, False, "cold", 0)
    @example(TINY_ALPHA, False, "cold", 0)
    def test_equals_the_chain_of_one_weight_fits(self, design, below_one, start, seed):
        """Every row, found by coordinate descent or not, meets the contract of
        :meth:`assert_rows_certified` against the warm-started one-weight fits: down a
        grid that ends at 0, from a cold, a random and a previous fit's start, with alpha
        one ulp below 1 (the tiny ridge term that makes sets singular).  At alpha 1 the
        rows follow the lasso homotopy, below it the batched sign-fixed runs."""
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
        path, fallbacks = self.fit_path(standardize(X, y), lams, alpha, warm_start=warm)
        self.assert_rows_certified(standardize(X, y), lams, path, fits, fallbacks, alpha=alpha)

    def test_a_sign_flip_under_a_tiny_l1_term_is_not_kept(self, monkeypatch):
        # at alpha 1e-8 the L1 term is below tol along the grid, so a batched row whose
        # solve flips a sign of its start passes the exact-update test: no kept row
        # flips one, and the grid is certified against the chain
        X, y, alpha = TINY_L1
        std = standardize(X, y)
        lam_max = 2.0 * float(np.max(np.abs(std.q))) / max(alpha, 1e-3)
        lams = [*np.geomspace(lam_max, 1e-3 * lam_max, 12), 0.0]
        attempts = self.record_attempts(monkeypatch)
        self.assert_net_certified(X, y, lams, alpha)
        assert attempts
        for start, _, (rows, _) in attempts:
            assert (rows * np.sign(start) >= 0.0).all()

    def test_a_restart_enters_no_coordinate_moved_by_tol_or_less(self, monkeypatch):
        # the cold first weight of a grid near alpha 0 fails, and its exact-update point
        # leaves at 0 the one coordinate it would move by less than tol, as coordinate
        # descent does: the restart keeps the chain's support and rows
        X, y, alpha = TINY_ALPHA
        std = standardize(X, y)
        lam_max = 2.0 * float(np.max(np.abs(std.q))) / max(alpha, 1e-3)
        lams = [*np.geomspace(lam_max, 1e-3 * lam_max, 12), 0.0]
        attempts = self.record_attempts(monkeypatch)
        path, fallbacks = self.assert_net_certified(X, y, lams, alpha)
        assert fallbacks == [] and path.slopes[0, 1] == 0.0
        (_, _, (rows, point)), (start, _, _) = attempts[:2]
        assert len(rows) == 0 and start is point and np.count_nonzero(point) == 6

    @settings(max_examples=150, deadline=None)
    @given(l1_designs(), st.sampled_from(["cold", "random", "previous"]),
           st.integers(0, 2**32 - 1))
    @example(NEARLY_COLLINEAR[0], "cold", 0)
    @example(NEARLY_COLLINEAR[1], "cold", 0)
    def test_lasso_rows_are_certified_against_the_chain(self, design, start, seed):
        """At alpha 1, down a grid that ends at 0 and from a cold, a random and a
        previous fit's start, the homotopy's rows and its fallbacks meet the lasso
        contract of :meth:`assert_rows_certified`."""
        X, y, _ = design
        rng = np.random.default_rng(seed)
        std = standardize(X, y)
        lam_max = 2.0 * float(np.max(np.abs(std.q)))
        assume(lam_max > 0.0)
        lams = [*np.geomspace(lam_max, 1e-3 * lam_max, 12), 0.0]
        warm = None
        if start == "random":
            warm = CoefficientSet(0.0, rng.normal(size=X.shape[1]))
        elif start == "previous":
            warm = fit_elastic_net(standardize(X, y), 2.0 * lam_max, 1.0)
        fits = self.chain(standardize(X, y), lams, 1.0, warm)
        path, fallbacks = self.fit_path(std, lams, warm_start=warm)
        self.assert_rows_certified(std, lams, path, fits, fallbacks)
        assert path.slopes[-1].tobytes() == fit_elastic_net(std, 0.0, 1.0).betas.tobytes()

    @pytest.mark.parametrize("design", NEARLY_COLLINEAR)
    def test_the_gap_bound_rejects_a_row_moved_by_1e_9(self, design):
        # nearly collinear 3 x 2 designs whose rows' exact gaps exceed 1e-12 of y_ss by
        # their own rounding: every homotopy row that fits at least a hundredth of y_ss is
        # within the bound, and the same row moved by 1e-9 of itself is not
        X, y, _ = design
        std = standardize(X, y)
        lam_max = 2.0 * float(np.max(np.abs(std.q)))
        lams = [*np.geomspace(lam_max, 1e-3 * lam_max, 12), 0.0]
        fits = self.chain(standardize(X, y), lams, 1.0)
        path, fallbacks = self.fit_path(std, lams)
        checked = 0
        for lam, slopes, fit in zip(lams, path.slopes, fits):
            b = slopes * path.scales
            if lam == 0.0 or lam in fallbacks or b @ std.gram @ b < 1e-2 * std.y_ss:
                continue
            gap, bound = self.gap_and_bound(std, lam, b, fit.betas * fit.scales)
            assert gap <= bound
            moved, bound = self.gap_and_bound(std, lam, b * (1.0 + 1e-9), fit.betas * fit.scales)
            assert moved > bound
            checked += 1
        assert checked >= 5

    def test_a_lasso_grid_ending_at_zero_ends_in_the_minimum_norm_fit(self):
        # more columns than rows: at weight 0 every interpolating fit is optimal, and
        # the row is the one-weight fit's minimum-norm solve, whatever came before it
        X, y, lams = self.wide_design(5)
        std = standardize(X, y)
        lams = [*lams, 0.0, 0.0]
        path, fallbacks = self.fit_path(std, lams)
        zero = fit_elastic_net(std, 0.0, 1.0)
        assert path.slopes[-1].tobytes() == path.slopes[-2].tobytes() == zero.betas.tobytes()
        assert path.converged.all() and path.n_sweeps[-2:].tolist() == [0, 0]
        assert fallbacks == []

    def test_a_singular_active_set_falls_back_to_coordinate_descent(self, monkeypatch):
        # the lasso_stall fold (rank 8 of 15) with a copy of one of its columns: from
        # the stall's warm start, and cold, the homotopy meets active sets holding both
        # copies, which are singular; the weight that needs one is fitted by
        # coordinate descent from the row before, and the homotopy starts again there
        data = json.loads((DATA_DIR / "lasso_stall.json").read_text())
        gram, q = np.array(data["gram"]), np.array(data["q"])
        singular = []  # whether each active set the homotopy factored was singular
        homotopy, eigh, inside = solvers._homotopy, np.linalg.eigh, []

        def recording_homotopy(*args):
            inside.append(True)
            try:
                return homotopy(*args)
            finally:
                inside.pop()

        def recording_eigh(subs):  # a lone design's sub-Gram, or a group's stacked
            w, V = eigh(subs)
            if inside:
                top = subs.diagonal(0, -2, -1).max(axis=-1, initial=0.0)
                singular.extend(np.atleast_1d(w[..., 0] <= PIVOT_RTOL * top).tolist())
            return w, V

        monkeypatch.setattr(solvers, "_homotopy", recording_homotopy)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        met = 0
        for j in range(len(q)):
            copied = np.append(np.arange(len(q)), j)
            std = sums_as_standardized(gram[np.ix_(copied, copied)], q[copied], data["y_ss"])
            for warm, top in ((None, 2.0 * np.max(np.abs(q))),
                              (CoefficientSet(0.0, np.append(data["beta0"], 0.0)), data["lam"])):
                lams = np.geomspace(top, data["lam"] / 4.0, 40)
                singular.clear()
                path, fallbacks = self.fit_path(std, lams, warm_start=warm)
                if any(singular):  # the weight after it is a coordinate-descent fit
                    met += 1
                    assert len(fallbacks) > (warm is not None)
                self.assert_rows_certified(std, lams, path, self.chain(std, lams, 1.0, warm),
                                           fallbacks)
                assert path.converged.all()
        assert met > 0

    @pytest.mark.parametrize("n", [10, 9])
    @pytest.mark.parametrize("warm", [False, True])
    def test_homotopy_rows_are_their_segments_solve_bit_for_bit(self, n, warm, monkeypatch):
        # a seeded n x 15 design, cold and from a one-weight fit: every segment factors
        # the sub-Gram of its nonempty active set once, and consecutive sets differ by
        # the one column that entered or left; and a row nonzero on all of its segment's
        # set A is b0 - t*u, bit for bit, with b0 and u the _shifted_solve of (q_A, s_A)
        # on the set's _factor
        rng = np.random.default_rng(41 + n)
        X = rng.normal(size=(n, 15)) + rng.normal(size=(n, 1))
        y = X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=n)
        std = standardize(X, y)
        ts = np.geomspace(np.max(np.abs(std.q)), 1e-4, 200)
        start, top = np.zeros(15), np.inf
        if warm:  # as _lasso_rows hands on a coordinate-descent row
            start, top, ts = fit_elastic_net(std, 2.0 * ts[20], 1.0).betas, ts[20], ts[21:]
        factored, sub_gram = [], solvers._sub_gram

        def recording(std, active):  # once per segment of a lone design
            factored.append(active.tolist())
            return sub_gram(std, active)

        monkeypatch.setattr(solvers, "_sub_gram", recording)
        (rows,), _, (end,) = solvers._homotopy([std], [start], [top], [(0, len(ts))], ts,
                                               100_000)
        monkeypatch.undo()
        rows = rows[:end]
        assert factored[0] == (np.flatnonzero(start).tolist() if warm else factored[0][:1])
        assert all(len(set(a) ^ set(b)) == 1 for a, b in zip(factored, factored[1:]))
        assert len(rows) == len(ts) and any(len(b) < len(a) for a, b in zip(factored, factored[1:]))
        for t, row in zip(ts, rows):
            A = np.flatnonzero(row)
            if len(A):
                assert A.tolist() in factored
                w, V, _, null = solvers._factor(std, A, 0.0)
                b0, u = solvers._shifted_solve(V, w, null, np.array((std.q[A], np.sign(row[A]))),
                                               0.0)
                assert row[A].tobytes() == (b0 - t * u).tobytes()

    def test_the_homotopy_rows_need_no_fallback_cold_stacked_or_alone(self):
        # a cold lasso grid, a lockstep stack of four fold designs and a stack of one:
        # every row is a converged homotopy row, and none is all zero.  A warm-started
        # grid's first row is a coordinate-descent fit, and the homotopy takes the rest
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 15)) + rng.normal(size=(12, 1))
        y = X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=12)
        lams = make_lambda_grid(X, y, 1.0, 40).values
        folds = np.array([np.setdiff1d(np.arange(12), np.arange(i, 12, 4)) for i in range(4)])
        for stds in ([standardize(X, y)], standardize(X[folds], y[folds]), standardize(X, y)):
            grids, fallbacks = self.fit_path(stds, lams)
            assert fallbacks == []
            grids = grids if isinstance(grids, list) else [grids]
            assert all(grid.converged.all() and grid.slopes.any() for grid in grids)
        grid, fallbacks = self.fit_path(standardize(X, y), lams[20:], warm_start=grids[0][19])
        assert fallbacks == [lams[20]] and grids[0][19].support().any()
        assert grid.converged.all()

    def test_max_iter_caps_the_entering_events_between_rows(self):
        # columns that share one strong factor, so that coefficients enter and leave,
        # on a coarse grid and at its last weight alone: a row whose homotopy needs
        # more than max_iter entering events since the row before (or, for the first
        # row, from zero) is the one-weight fit capped at max_iter, which stops where
        # the chain does
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 15)) + 2.0 * rng.normal(size=(10, 1))
        y = X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10)
        coarse = make_lambda_grid(X, y, 1.0, 8).values
        for lams in (coarse, coarse[-1:]):
            uncapped, _ = self.fit_path(standardize(X, y), lams)
            assert uncapped.n_sweeps.max() >= 3 and uncapped.converged.all()
            for max_iter in (1, 2, 3):
                std = standardize(X, y)
                path, fallbacks = self.fit_path(std, lams, max_iter=max_iter)
                fits = self.chain(std, lams, 1.0, max_iter=max_iter)
                over = [lam for lam, steps in zip(lams, uncapped.n_sweeps) if steps > max_iter]
                assert set(over) <= set(fallbacks) and path.n_sweeps.max() <= max_iter
                # the entering events a row needs are not coordinate descent's steps: a
                # row may pass the test where the chain stops, never the other way round
                ok = np.array([c.converged for c in fits])
                assert not (ok & ~path.converged).any()
                if ok.any():
                    kept = CoefficientGrid(path.intercepts[ok], path.slopes[ok],
                                           path.converged[ok], path.n_sweeps[ok], path.means,
                                           path.scales)
                    self.assert_rows_certified(std, np.asarray(lams)[ok], kept,
                                               [c for c in fits if c.converged], fallbacks)
                for i in np.flatnonzero(~ok & path.converged):
                    b = path.slopes[i] * path.scales
                    update = solvers._exact_updates(std.q - std.gram @ b, b, std.gram_diag,
                                                    std.gram_diag, lams[i] / 2.0)
                    assert np.all(np.abs(update - b) <= 1e-7)
            if len(lams) == 1:  # from zero, more entering events than 3 and a stopped fit
                assert uncapped.n_sweeps[0] > 3 and not path.converged[0]

    def test_stopped_fits_match_the_chain(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(12, 9)) * rng.uniform(0.1, 10.0, size=9)
        y = X[:, :3] @ rng.normal(size=3) + rng.normal(size=12)
        std = standardize(X, y)
        lams = make_lambda_grid(X, y, 0.5, 30).values
        for max_iter in (1, 100_000):
            path, fallbacks = self.fit_path(std, lams, 0.5, max_iter=max_iter)
            fits = self.chain(standardize(X, y), lams, 0.5, max_iter=max_iter)
            self.assert_rows_certified(std, lams, path, fits, fallbacks, alpha=0.5)
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
            path, fallbacks = self.fit_path(standardize(X, y), lams, max_iter=max_iter)
            self.assert_rows_certified(standardize(X, y), lams, path, self.chain(
                standardize(X, y), lams, 1.0, max_iter=max_iter), fallbacks)
            assert not path.converged.all()

    @staticmethod
    def wide_design(seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 15))
        y = X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10)
        return X, y, make_lambda_grid(X, y, 1.0, 100).values

    @staticmethod
    def record_attempts(monkeypatch):
        """``(start, weights given, (rows kept, exact-update point))`` of every batched
        attempt."""
        attempts = []
        original = solvers._sign_fixed_rows

        def recording(std, lams, alpha, tol, start):
            attempts.append((start, lams, original(std, lams, alpha, tol, start)))
            return attempts[-1][2]

        monkeypatch.setattr(solvers, "_sign_fixed_rows", recording)
        return attempts

    @staticmethod
    def three_predictors():
        """Three strong predictors of 30 rows and a lasso grid of 200 weights."""
        rng = np.random.default_rng(41)
        X = rng.normal(size=(30, 3))
        y = X @ [3.0, -2.0, 1.0] + 0.1 * rng.normal(size=30)
        return X, y, make_lambda_grid(X, y, 1.0, 200).values

    def assert_net_certified(self, X, y, lams, alpha, **kwargs):
        """``(grid, fallbacks)`` of :meth:`fit_path` at ``alpha < 1``, certified against the
        chain of one-weight fits."""
        std = standardize(X, y)
        path, fallbacks = self.fit_path(std, lams, alpha, **kwargs)
        fits = self.chain(standardize(X, y), lams, alpha, **kwargs)
        self.assert_rows_certified(std, lams, path, fits, fallbacks, alpha=alpha)
        return path, fallbacks

    @pytest.mark.parametrize("design", ["wide", "shared factor"])
    def test_exits_and_entries_restart_without_coordinate_descent(self, monkeypatch, design):
        # at alpha 0.9, on a wide design and on columns that share one strong factor
        # (coefficients leave the support as well as enter it): every weight whose row
        # fails restarts from its exact-update point and keeps its row, from points with
        # fewer and with more nonzeros than the run before, so no weight calls coordinate
        # descent, whatever the step limit on the shared factor
        limits = [solvers.DEFAULT_MAX_ITER]
        if design == "wide":
            X, y, lams = self.wide_design(0)
        else:
            rng = np.random.default_rng(0)
            X = rng.normal(size=(10, 15)) + 2.0 * rng.normal(size=(10, 1))
            y = X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10)
            lams = make_lambda_grid(X, y, 1.0, 100).values
            limits = [1, 2, 3, *limits]
        attempts = self.record_attempts(monkeypatch)
        for max_iter in limits:
            attempts.clear()
            path, fallbacks = self.assert_net_certified(X, y, lams, 0.9, max_iter=max_iter)
            assert fallbacks == [] and path.converged.all() and path.n_sweeps.max() >= 1
            kinds = {np.sign(np.count_nonzero(start) - np.count_nonzero(before))
                     for (before, _, (_, point)), (start, _, (rows, _))
                     in zip(attempts, attempts[1:]) if start is point and len(rows)}
            assert kinds >= {-1, 1}

    def test_a_restart_enters_every_coordinate_its_point_moves(self, monkeypatch):
        # the exact-update point enters every coordinate whose correlation exceeds the
        # L1 term: at one weight of this grid it enters two, and the restart keeps that
        # weight's row, which counts both as steps
        X, y, lams = self.wide_design(7)
        path, fallbacks = self.assert_net_certified(X, y, lams, self.BELOW_ONE)
        assert fallbacks == [] and 2 in path.n_sweeps
        i = path.n_sweeps.tolist().index(2)
        assert np.count_nonzero((path.slopes[i] != 0.0) & (path.slopes[i - 1] == 0.0)) == 2

    def test_a_restart_entering_more_than_max_iter_coordinates_calls_coordinate_descent(self):
        # a grid's second weight far below its first, where the exact-update point enters
        # all three predictors: from a step limit of 3 the weight restarts from it and
        # counts three steps; below that it is the one-weight fit from the row before,
        # which stops at the limit
        X, y, lams = self.three_predictors()
        lams = [lams[0], lams[40]]
        std = standardize(X, y)
        for max_iter in (1, 2, 3, solvers.DEFAULT_MAX_ITER):
            path, fallbacks = self.fit_path(std, lams, self.BELOW_ONE, max_iter=max_iter)
            if max_iter < 3:
                fit = fit_elastic_net(std, lams[1], self.BELOW_ONE, max_iter=max_iter,
                                      warm_start=path[0])
                assert fallbacks == [lams[1]] and not path.converged[1]
                assert path.slopes[1].tobytes() == fit.betas.tobytes()
                assert path.n_sweeps[1] == max_iter
            else:
                assert fallbacks == [] and path.converged.all()
                assert path.n_sweeps.tolist() == [0, 3]

    def test_run_ends_entering_one_coordinate_stay_batched(self):
        X, y, lams = self.wide_design(0)
        path, calls = self.fit_path(standardize(X, y), lams)
        assert path.converged.all()
        assert len(calls) == 0 < np.count_nonzero(path.n_sweeps == 1)

    def test_an_enter_then_exit_cycle_at_one_weight_ends_in_the_one_weight_fit(self):
        # a response in the 1e9s: rounding moves a coordinate's update by more than tol
        # where the solve that follows sets it back, so at one weight coordinate
        # descent enters, leaves and enters again up to its step limit; no homotopy row
        # passes the test there, and the weight's row is its one-weight fit
        rng = np.random.default_rng(33)
        X = rng.normal(size=(10, 15)) + 2.0 * rng.normal(size=(10, 1))
        y = 1e9 * (X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10))
        lams = make_lambda_grid(X, y, 1.0, 40).values
        fits = self.chain(standardize(X, y), lams, 1.0, max_iter=50)
        std = standardize(X, y)
        path, fallbacks = self.fit_path(std, lams, max_iter=50)
        # slopes read back through the original scale round by more than tol here, so
        # the updates are tested at tol relative to the response's scale
        self.assert_rows_certified(std, lams, path, fits, fallbacks,
                                   1e-7 * math.sqrt(std.y_ss / std.n))
        stopped = [lam for lam, fit in zip(lams, fits) if not fit.converged]
        assert len(stopped) > 1 and all(fallbacks.count(lam) == 1 for lam in stopped)

    def test_a_net_enter_then_exit_cycle_ends_in_the_one_weight_fit(self):
        # the same design at alpha one ulp below 1: no restart keeps a row where the
        # one-weight fit cycles, and each such weight's row is that fit, called once
        rng = np.random.default_rng(33)
        X = rng.normal(size=(10, 15)) + 2.0 * rng.normal(size=(10, 1))
        y = 1e9 * (X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=10))
        lams = make_lambda_grid(X, y, 1.0, 40).values
        fits = self.chain(standardize(X, y), lams, self.BELOW_ONE, max_iter=50)
        std = standardize(X, y)
        path, fallbacks = self.fit_path(std, lams, self.BELOW_ONE, max_iter=50)
        self.assert_rows_certified(std, lams, path, fits, fallbacks,
                                   1e-7 * math.sqrt(std.y_ss / std.n), self.BELOW_ONE)
        stopped = [lam for lam, fit in zip(lams, fits) if not fit.converged]
        assert len(stopped) > 1 and all(fallbacks.count(lam) == 1 for lam in stopped)

    def test_a_long_run_spans_windows(self, monkeypatch):
        # once all three predictors have entered, the support holds to the grid's end:
        # each attempt keeps its whole window of RUN_WINDOW weights and the next starts
        # from its last row, and the last keeps the rest of the grid
        X, y, lams = self.three_predictors()
        attempts = self.record_attempts(monkeypatch)
        path, fallbacks = self.assert_net_certified(X, y, lams, self.BELOW_ONE)
        assert fallbacks == [] and path.slopes[-40:].all()
        window = solvers.RUN_WINDOW
        tail = attempts[-3:]
        sizes = [(len(given), len(kept)) for _, given, (kept, _) in tail[:2]]
        assert sizes == [(window, window)] * 2
        assert len(tail[2][1]) == len(tail[2][2][0]) <= window
        for (_, _, (kept, _)), (start, _, _) in zip(tail, tail[1:]):
            assert start.tobytes() == kept[-1].tobytes()

    def test_a_failing_weight_at_the_end_of_a_window_restarts(self, monkeypatch):
        # the first window's last weight is the first where a coordinate enters, and
        # the next window's last weight the first where a second one does: each attempt
        # keeps all but its last weight, which the next attempt restarts from its point
        X, y, fine = self.wide_design(3)
        fine = np.geomspace(fine[0], fine[0] * 1e-3, 2000)
        sizes = [np.count_nonzero(f.betas) for f in self.chain(standardize(X, y), fine, self.BELOW_ONE)]
        first, second = sizes.index(1), sizes.index(2)
        window = solvers.RUN_WINDOW
        lams = np.concatenate([np.geomspace(2.0 * fine[0], 1.01 * fine[0], window - 1),
                               np.geomspace(fine[first], fine[second - 1], window - 1),
                               fine[second:second + 30]])
        attempts = self.record_attempts(monkeypatch)
        path, fallbacks = self.assert_net_certified(X, y, lams, self.BELOW_ONE)
        assert fallbacks == []
        assert [(len(given), len(kept), point is not None)
                for _, given, (kept, point) in attempts[:2]] \
            == [(window, window - 1, True), (window, window - 1, True)]
        assert all(start is point
                   for (_, _, (_, point)), (start, _, _) in zip(attempts, attempts[1:3]))
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

    @settings(max_examples=100, deadline=None)
    @given(lasso_stacks())
    def test_a_stack_is_its_designs_fitted_one_at_a_time(self, stack):
        """The lasso grids of a stack of designs, whose homotopies run in lockstep, are
        each design's grid as a stack of one, bit for bit: rows, ``converged`` and
        ``n_sweeps``."""
        designs, lams, warms, max_iter = stack
        grids = fit_elastic_net_path([make() for make in designs], lams, 1.0,
                                     max_iter=max_iter, warm_start=warms)
        assert len(grids) == len(designs)
        for make, warm, grid in zip(designs, warms, grids):
            alone = fit_elastic_net_path(make(), lams, 1.0, max_iter=max_iter, warm_start=warm)
            self.assert_rows_equal(grid, [alone[i] for i in range(len(alone))])

    def test_a_stack_needs_one_width_and_a_warm_start_per_design(self):
        stack = [standardize(np.eye(3), np.arange(3.0)), standardize(np.eye(4), np.arange(4.0))]
        with pytest.raises(ValueError,
                           match="^a stack's designs need one width, got 3 and 4 columns$"):
            fit_elastic_net_path(stack, (1.0,), 1.0)
        with pytest.raises(ValueError, match="^2 designs but 1 warm starts$"):
            fit_elastic_net_path(stack[:1] * 2, (1.0,), 1.0, warm_start=[None])
        for alpha in (0.5, 1.0):  # [] is a list of no warm starts, not "no warm starts"
            with pytest.raises(ValueError, match="^2 designs but 0 warm starts$"):
                fit_elastic_net_path(stack[:1] * 2, (1.0,), alpha, warm_start=[])

    def test_an_empty_stack_is_an_empty_list_at_every_alpha_after_the_checks(self):
        # as standardize's empty stack is []
        assert standardize(np.zeros((0, 4, 2)), np.zeros((0, 4))) == []
        for alpha in (0.0, 0.5, 1.0):
            assert fit_elastic_net_path([], (2.0, 1.0, 0.0), alpha) == []
            assert fit_elastic_net_path([], (), alpha, warm_start=[]) == []
            for args, kwargs, message in [
                (((1.0, -1.0), alpha), {}, "^lambda must be finite and >= 0, got -1.0$"),
                (((1.0,), 1.5), {}, r"^alpha must lie in \[0, 1\], got 1.5$"),
                (((1.0,), alpha), {"tol": 0.0}, "^tol must be positive, got 0.0$"),
                (((1.0,), alpha), {"max_iter": 0}, "^max_iter must be >= 1, got 0$"),
            ]:
                with pytest.raises(ValueError, match=message):
                    fit_elastic_net_path([], *args, **kwargs)

    def test_an_empty_grid_is_an_empty_grid_at_every_alpha(self):
        std = standardize(np.random.default_rng(3).normal(size=(6, 2)), np.arange(6.0))
        for alpha in (0.5, 1.0):
            for grids in ([fit_elastic_net_path(std, [], alpha)],
                          fit_elastic_net_path([std, std], [], alpha)):
                assert [g.slopes.shape for g in grids] == [(0, 2)] * len(grids)

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

