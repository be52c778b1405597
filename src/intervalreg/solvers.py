"""Estimators for classic (single-valued) regression problems.

Two fitting routines over a dense design matrix without intercept
column:

* ``fit_ridge``       closed form ``(X'X + lambda*I) b = X'y``, for one
  weight or (``fit_ridge_path``) a whole grid of weights in one solve;
  ``lambda=0`` is least squares, and a positive weight is the elastic
  net at ``alpha=0``,
* ``fit_elastic_net`` exact solves on the active set, entering one
  coordinate at a time by its soft-thresholded update until no update moves;
  ``alpha=1`` is the lasso, ``alpha=0`` is ridge.  ``fit_elastic_net_path``
  fits a whole grid, warm-started down it, and solves every run of weights
  that keeps its warm start's signs, or has no L1 term, in one product; a run
  that ends where one coordinate enters or leaves hands that step on.

The penalized objective is used exactly as written, with no ``1/n`` or
``1/(2n)`` factor:

    sum_i (y_i - b0 - sum_j x_ij b_j)^2
        + lambda * (alpha * sum_j |b_j| + (1 - alpha) * sum_j b_j^2)

The intercept is never penalized.  Every fit centers the predictors and
scales them to unit standard deviation (divisor n), as glmnet does, then
reports coefficients back on the original scale; the penalty weight
therefore refers to standardized coefficients, and a predictor's units
change only its slope.  There is no switch to turn this off.  A lambda in
the common convention that divides the squared loss by 2n corresponds to
``2 * n * lambda`` here for the L1 term and ``n * lambda`` for the L2
term.

Every fit takes a design as one :class:`Standardized`: :func:`standardize`
centers and scales it and forms the Gram matrix ``Xs'Xs``, ``Xs'yc`` and
``yc'yc`` once, and every ridge weight and every coordinate-descent fit of
that design reads its sums and factorizations from it, so a penalty grid
forms one Gram matrix per design, not one per weight.  :func:`exclude`
restricts a design to a subset of its columns by setting the others to 0
in a copy that shares its factorizations, as glmnet's ``exclude`` argument
does (Friedman, Hastie & Tibshirani, JSS 2010).

A constant column has slope exactly 0 in every fit.  Least squares
(``fit_ridge`` at weight 0) is solved on the other columns by LAPACK's
Cholesky factorization; a rank-deficient Gram matrix is reported with its
first failing pivot.  Every other fit uses one eigendecomposition per active
set and design, which also yields the null vectors coordinate descent
steps along on singular sets.  Without an L1 term the fit is the solve
``V diag(1/(w + lambda)) V' Xs'yc`` from the Gram's ``V diag(w) V'``
(*ESL* 2nd ed., eq. 3.47), every ridge weight of a grid in one product.
With an L1 term and fixed signs ``s`` on an active set the fit is the same
solve of ``Xs'yc - lambda*alpha/2 * s`` there (Osborne, Presnell & Turlach,
IMA J. Numer. Anal. 2000), so the weights of a grid on which a warm start's
support and signs hold are one product too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: relative pivot threshold for declaring a Gram matrix singular.
PIVOT_RTOL = 1e-12

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 100_000

#: weights in a batched attempt of :func:`fit_elastic_net_path`; the window
#: doubles while attempts keep all of it, and is reset after any other end.
RUN_WINDOW = 16


class SolverError(Exception):
    """Numerical failure inside a fitting routine."""


class SingularDesign(SolverError):
    """Rank-deficient Gram matrix; ``pivot_index`` is the failing column.

    From a fit, the index counts the constant columns the solve leaves out.
    The message names the column as ``where`` says (default ``pivot
    <pivot_index>``) and states the broken rule rather than ``pivot``, whose
    value is rounding noise that differs between LAPACK builds.
    """

    def __init__(self, pivot_index: int, pivot: float, where: str | None = None):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(
            f"Gram matrix is numerically singular at {where or f'pivot {pivot_index}'} "
            f"(pivot at most {PIVOT_RTOL:g} of the largest diagonal entry)"
        )


class NonFiniteEncountered(SolverError):
    """Coordinate descent produced a non-finite value."""


class Standardized(NamedTuple):
    """A design of ``n`` rows on its standardized scale, the one input of every fit,
    :func:`duality_gap` and the solves they share, formed by :func:`standardize`.

    With ``Xs = (X - means) / scales`` and ``yc = y - y_mean``: ``gram =
    Xs'Xs``, ``q = Xs'yc``, ``y_ss = yc'yc`` and ``gram_diag = diag(gram)``,
    all read-only.  ``factors`` caches the eigendecompositions of the sub-Grams
    the solvers meet, keyed by active set (:func:`_factor`), for every fit of
    this design and of its :func:`exclude` copies.
    """

    means: np.ndarray
    scales: np.ndarray
    y_mean: float
    gram: np.ndarray
    q: np.ndarray
    y_ss: float
    gram_diag: np.ndarray
    factors: dict
    n: int


def standardize(X: np.ndarray, y: np.ndarray) -> Standardized:
    """The :class:`Standardized` sums of the regression of ``y`` (n) on ``X`` (n x p,
    no intercept column), with an empty ``factors`` cache."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d matrix, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be a vector, got shape {y.shape}")
    n, p = X.shape
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got X shape {X.shape}")
    if y.shape[0] != n:
        raise ValueError(f"X has {n} rows but y has {y.shape[0]}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    Xs, means, scales = _standardize(np.ascontiguousarray(X))  # a product's bits follow layout
    y_mean = safe_mean(y)
    gram = Xs.T @ Xs
    # a y whose sums overflow gives a non-finite q, which CenterRangeView.standardized rejects
    with np.errstate(over="ignore", invalid="ignore"):
        yc = y - y_mean
        q, y_ss = Xs.T @ yc, float(yc @ yc)
    return _read_only(Standardized(means, scales, y_mean, gram, q, y_ss,
                                   np.diag(gram).copy(), {}, n))


def exclude(std: Standardized, mask: np.ndarray) -> Standardized:
    """``std`` with the columns outside boolean ``mask`` set to 0 (slope 0, mean 0,
    scale 1), bit for bit the :func:`standardize` of that zeroed design.  It shares
    ``std.factors``: an active set inside ``mask`` has the same sub-Gram in both."""
    return _read_only(std._replace(
        means=np.where(mask, std.means, 0.0), scales=np.where(mask, std.scales, 1.0),
        gram=np.where(mask[:, None] & mask, std.gram, 0.0), q=np.where(mask, std.q, 0.0),
        gram_diag=np.where(mask, std.gram_diag, 0.0)))


def _read_only(std: Standardized) -> Standardized:
    for value in std:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return std


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Fitted coefficients on the original predictor scale.

    ``means``/``scales`` record the internal standardization of the fit
    (``None`` in model files that predate them and in grids whose rows differ
    in it); the standardized-scale slope j is ``betas[j] * scales[j]``.
    ``converged`` is False only when coordinate descent hit its step
    limit or took a step that left its iterate unchanged, in which case the
    last iterate is still returned.
    """

    intercept: float
    betas: np.ndarray
    means: np.ndarray | None = None
    scales: np.ndarray | None = None
    converged: bool = True
    n_sweeps: int = 0

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float).copy()
        b.flags.writeable = False
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "intercept", float(self.intercept))
        for name in ("means", "scales"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float).copy()
                v.flags.writeable = False
                object.__setattr__(self, name, v)

    @property
    def p(self) -> int:
        return self.betas.shape[0]

    def support(self) -> np.ndarray:
        """Boolean mask of selected predictors: the exactly nonzero slopes."""
        return self.betas != 0.0


@dataclass(frozen=True, eq=False)
class CoefficientGrid:
    """Fits at k penalty weights as arrays, row i at weight i: ``intercepts``,
    ``converged`` and ``n_sweeps`` ``(k,)``, original-scale ``slopes`` ``(k, p)``,
    and the ``means``/``scales`` ``(p,)`` all rows share (None if they share none:
    half-range runs of :func:`exclude` copies with different masks).  Indexing a row builds its
    :class:`CoefficientSet`."""

    intercepts: np.ndarray
    slopes: np.ndarray
    converged: np.ndarray
    n_sweeps: np.ndarray
    means: np.ndarray | None = None
    scales: np.ndarray | None = None

    @classmethod
    def stack(cls, sets: Sequence[CoefficientSet]) -> "CoefficientGrid":
        """The grid whose row i is ``sets[i]``, sets of one standardization."""
        rows = [(c.intercept, c.betas, c.converged, c.n_sweeps) for c in sets]
        return cls(*map(np.array, zip(*rows)), sets[0].means, sets[0].scales)

    def __len__(self) -> int:
        return len(self.intercepts)

    def __getitem__(self, i: int) -> CoefficientSet:
        return CoefficientSet(self.intercepts[i], self.slopes[i], self.means, self.scales,
                              bool(self.converged[i]), int(self.n_sweeps[i]))


# ---------------------------------------------------------------------------
# Dense symmetric solve
# ---------------------------------------------------------------------------

def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` for a symmetric positive definite matrix.

    LAPACK Cholesky factorization; the first pivot (``diag(L)**2``) not above
    ``PIVOT_RTOL`` times the largest diagonal entry raises :class:`SingularDesign`.
    """
    g = np.asarray(gram, dtype=float)
    threshold = PIVOT_RTOL * float(np.max(np.diag(g))) if len(g) else 0.0
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise _failed_pivot(g, threshold) from None
    bad = np.flatnonzero(~(np.diag(L) ** 2 > threshold))
    if bad.size:
        raise SingularDesign(int(bad[0]), float(L[bad[0], bad[0]] ** 2))
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def _failed_pivot(g: np.ndarray, threshold: float) -> SingularDesign:
    """The pivot LAPACK stopped at without naming it: pivot m ends the leading
    (m+1)-block, so factor growing blocks until one fails or ends too small."""
    L = g[:0, :0]
    for m in range(len(g)):  # the last block is ``g`` itself, which fails
        try:
            L = np.linalg.cholesky(g[: m + 1, : m + 1])
        except np.linalg.LinAlgError:  # pivot m is the Schur complement
            w = np.linalg.solve(L, g[:m, m]) if m else g[:0, m]
            return SingularDesign(m, float(g[m, m] - w @ w))
        if not L[m, m] ** 2 > threshold:
            return SingularDesign(m, float(L[m, m] ** 2))


def safe_mean(v: np.ndarray) -> np.ndarray:
    """``v.mean(axis=0)`` of a finite ``v`` (a scalar for a vector).  Where a sum
    overflows, the values are divided by their largest magnitude before averaging."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = v.mean(axis=0)
        if not np.isfinite(mean).all():
            peak = np.abs(v).max(axis=0)
            mean = np.where(np.isfinite(mean), mean, peak * (v / peak).mean(axis=0))[()]
    return mean


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center columns and divide them by their population standard deviation.

    A constant column (``max == min``) is centered on its value, so it reads
    exactly 0 and keeps scale 1 even where its mean rounds off the constant.
    A column whose sum overflows is divided by its largest magnitude before
    averaging, and one whose mean square overflows or falls below the smallest
    normal double before squaring.
    """
    means = np.where(X.max(axis=0) == X.min(axis=0), X[0], safe_mean(X))
    Xc = X - means
    with np.errstate(over="ignore"):
        mean_sq = (Xc**2).mean(axis=0)
    scales = np.sqrt(mean_sq)
    redo = ~(np.isfinite(mean_sq) & (mean_sq >= np.finfo(float).tiny))
    if redo.any():
        peak = np.abs(Xc[:, redo]).max(axis=0)
        peak[peak == 0.0] = 1.0  # a constant column keeps scale 0 here, 1 below
        scales[redo] = peak * np.sqrt(((Xc[:, redo] / peak) ** 2).mean(axis=0))
    scales = np.where(scales == 0.0, 1.0, scales)
    return Xc / scales, means, scales


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def fit_ridge(std: Standardized, lam: float) -> CoefficientSet:
    """:func:`fit_ridge_path` at the one weight ``lam`` (0 is least squares)."""
    return fit_ridge_path(std, (lam,))[0]


def fit_ridge_path(std: Standardized, lams: Sequence[float]) -> CoefficientGrid:
    """Closed-form ridge at every penalty weight in ``lams``, row i at ``lams[i]``.

    Solves ``(Xs'Xs + lam*I) b = Xs'(y - mean(y))`` on centered,
    unit-variance predictors, which is exactly the minimizer of
    the augmented problem with the intercept left out of the penalty.
    A constant column has slope 0 at every weight.  Weight 0 is least
    squares by :func:`solve_spd` on the other columns, which raises
    :class:`SingularDesign` on a rank-deficient design.  All positive
    weights are one vectorized :func:`_minimum_norm` solve from the design's
    cached eigendecomposition, each row equal to :func:`fit_elastic_net` at
    ``alpha=0`` bit for bit; the back-transform runs once.
    """
    _check_weights(lams)
    lams = np.asarray(lams, dtype=float)
    beta = np.zeros((len(lams), len(std.q)))
    positive = lams > 0.0
    if positive.any():
        beta[positive] = _minimum_norm(std, lams[positive])
    if not positive.all():
        active = np.flatnonzero(std.gram_diag)
        try:
            beta[np.ix_(~positive, active)] = solve_spd(std.gram[active][:, active], std.q[active])
        except SingularDesign as exc:  # the pivot's number among all columns
            raise SingularDesign(int(active[exc.pivot_index]), exc.pivot) from None
    slopes = beta / std.scales
    return CoefficientGrid(_intercepts(std, slopes), slopes, np.ones(len(lams), dtype=bool),
                           np.zeros(len(lams), dtype=int), std.means, std.scales)


def _check_weights(lams: Sequence[float]) -> None:
    values = np.asarray(lams, dtype=float)
    ok = np.isfinite(values) & (values >= 0.0)
    if not ok.all():
        raise ValueError(f"lambda must be finite and >= 0, got {lams[int(np.argmin(ok))]}")


def _intercepts(std: Standardized, slopes: np.ndarray) -> np.ndarray:
    """Each row's intercept by its own dot product, as :func:`fit_elastic_net` forms one."""
    return std.y_mean - (slopes[:, None, :] @ std.means)[:, 0]


def _factor(
    std: Standardized, active: np.ndarray, ridge: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """``(sub, w, V, top, null)``: the sub-Gram of ``active``, ``sub = V diag(w) V'``
    with ``w`` ascending (factored once per active set into ``std.factors``), its
    largest diagonal entry, and which eigenvalues of ``sub + ridge*I`` count
    as 0 (at most ``PIVOT_RTOL`` of ``top + ridge``), per row of a ``(k, 1)`` ``ridge``."""
    key = active.tobytes()
    found = std.factors.get(key)
    if found is None:
        sub = std.gram[active][:, active]
        top = float(np.max(np.diag(sub), initial=0.0))  # 0 when every column is constant
        found = std.factors[key] = (sub, *np.linalg.eigh(sub), top)
    sub, w, V, top = found
    return sub, w, V, top, w + ridge <= PIVOT_RTOL * (top + ridge)


def _minimum_norm(std: Standardized, ridges: np.ndarray) -> np.ndarray:
    """Minimum-norm minimizers of ``b'(gram + ridge*I)b - 2q'b``, a row per weight in
    ``ridges``: ``V diag(1/(w + ridge)) V'q`` over the non-constant columns, 0 in the
    others and along directions :func:`_factor` counts as 0.  Rows do not depend on k."""
    active = np.flatnonzero(std.gram_diag)
    _, w, V, _, null = _factor(std, active, ridges[:, None])
    beta = np.zeros((len(ridges), len(std.q)))
    beta[:, active] = _shifted_solve(V, w, null, std.q[active], ridges[:, None])
    return beta


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M @ x`` for each row of ``x``: one matrix-vector product per row."""
    return (M @ x[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _shifted_solve(V: np.ndarray, w: np.ndarray, null: np.ndarray, rhs: np.ndarray,
                   ridge: float | np.ndarray) -> np.ndarray:
    """``V diag(1/(w + ridge)) V' rhs``, 0 along the directions ``null`` marks: the
    minimizer of ``b'(V diag(w) V' + ridge*I)b - 2 rhs'b``.  A ``(k, 1)`` ``ridge`` and
    ``(k, a)`` ``rhs`` (or one ``(a,)`` rhs) give a row per weight, each its own
    products, so a row does not depend on k or on the other rows."""
    return _matvec(V, _matvec(V.T, rhs) / np.where(null, np.inf, w + ridge))


def _step_change(sub: np.ndarray, grad: np.ndarray, b: np.ndarray, values: np.ndarray,
                 thresh: float | np.ndarray, ridge: float | np.ndarray) -> np.ndarray:
    """The objective's change when an active set with sub-Gram ``sub`` moves from ``b``
    (gradient ``grad`` there) to ``values`` that keep its signs or are 0, per row.

    The L1 term changes by ``signs'step``; the change is formed from the step
    itself, since the rounding of two whole objective values can exceed a short
    step's decrease."""
    step = values - b
    return (_dot(step, _matvec(sub, step)) - 2.0 * _dot(step, grad)
            + 2.0 * thresh * _dot(np.sign(b), step) + ridge * _dot(step, b + values))


def _exact_updates(grad: np.ndarray, beta: np.ndarray, gram_diag: np.ndarray,
                   denominator: np.ndarray, thresh: float | np.ndarray) -> np.ndarray:
    """Every coordinate's exact update from ``beta`` (gradient ``grad``), per row:
    ``S(grad_j + g_jj b_j, thresh) / denominator_j`` with ``denominator = gram_diag +
    ridge``, 0 where that is 0 (a constant, unridged column)."""
    rho = grad + gram_diag * beta
    return np.divide(np.sign(rho) * np.maximum(np.abs(rho) - thresh, 0.0), denominator,
                     out=np.zeros(rho.shape), where=denominator > 0.0)


def _first_zero(b: np.ndarray, direction: np.ndarray) -> np.ndarray | None:
    """``b`` moved along ``direction`` until its first coefficient reaches 0, which is
    set to exactly 0; None if none moves toward 0."""
    toward = np.flatnonzero(b * direction < 0.0)
    if not toward.size:
        return None
    t = -b[toward] / direction[toward]
    first = int(np.argmin(t))
    moved = b + t[first] * direction
    moved[toward[first]] = 0.0
    return moved


def coordinate_descent(
    std: Standardized,
    lam: float,
    alpha: float,
    tol: float,
    max_iter: int,
    beta0: np.ndarray | None = None,
) -> tuple[np.ndarray, bool, int]:
    """Greedy coordinate steps and exact active-set solves for the centered,
    slope-only problem.

    Minimizes ``sum((yc - Xs b)^2) + lam*(alpha*sum|b| + (1-alpha)*sum b^2)``.
    The exact update of coordinate j, the minimizer over ``b_j`` alone, is

        b_j <- S(sum_i x_ij r_i^(j), lam*alpha/2) / (sum_i x_ij^2 + lam*(1-alpha))

    where ``r^(j)`` is the partial residual excluding j and
    ``S(z, g) = sign(z) * max(|z| - g, 0)``.  The design is ``std``, whose
    sums and factorizations every fit of it shares (:class:`Standardized`).

    The start's nonzero set (on a warm start, the previous weight's
    support) is first solved exactly as below.  Then one loop repeats: form
    every coordinate's exact update at once (:func:`_exact_updates`); if none
    moves a coefficient by more than ``tol`` the fit is converged (glmnet's
    "solve the active set, then check all", Friedman, Hastie & Tibshirani,
    JSS 2010; the check is the KKT check of the strong rules, Tibshirani et
    al., JRSS-B 2012, and :func:`fit_elastic_net_path` makes it with the same
    helper for a whole run of weights at once); otherwise the coordinate
    whose update moves furthest takes it (the Gauss-Southwell rule, Nutini
    et al., ICML 2015) and the nonzero set is solved exactly again.  That
    test is the one stopping rule; after ``max_iter`` steps the last iterate
    is returned unconverged, and so is one that a step left bit for bit
    where it was, since it would take that same step every time after (a
    near-duplicate column can enter by just over ``tol`` and be set back to
    0 by the solve).  A constant column (``gram_diag[j] == 0``) gets
    exactly 0.  Without an L1 term (``lam*alpha == 0``) no step runs:
    ``beta`` is the one-weight :func:`_minimum_norm` solve, whatever
    ``beta0``, and ``(beta, True, 0)`` is returned.

    With its signs fixed, the problem restricted to the nonzero set is a
    plain quadratic.  Each active set's sub-Gram is factored once, by
    ``eigh``, into ``std.factors`` (:func:`_factor`), so every weight of a
    grid shares it; the ridge term only shifts its eigenvalues.  A set is
    singular when its smallest shifted eigenvalue is at most ``PIVOT_RTOL``
    of its largest shifted diagonal entry.  Every solve below is committed only if it does
    not raise the objective, beyond what the curvature counted as 0 allows
    for a step in a null space.

    * On a nonsingular set the exact solution is committed when it keeps
      the signs.  A solution that flips signs is a descent direction
      instead: the sign-fixed objective falls along the segment to it and
      equals the objective up to the first sign change (the active-set
      step of Osborne, Presnell & Turlach, IMA J. Numer. Anal. 2000).
    * On a singular set the squared loss is flat along the null vector
      ``v``, so the objective changes along it only through the penalty,
      with slope ``2*(lam*alpha/2 * sign(b)'v + ridge * b'v)``, and the
      descending sign of ``v`` is the direction.  The set is singular only
      where the ridge term is below ``PIVOT_RTOL`` of the sub-Gram, so its
      curvature along ``v`` counts as 0 as well.

    Along a descent direction the iterate moves until its first
    coefficient reaches 0, that coefficient is set to exactly 0, and the
    solve is retried on the smaller set.  A lasso solution with at most
    rank(Xs) nonzeros exists (Tibshirani, "The lasso problem and
    uniqueness", EJS 2013), and these steps reach one.

    Returns ``(beta, converged, n_sweeps)``, where ``n_sweeps`` counts the
    greedy steps (0 when the first solve passes the test).  Neither a step
    nor a committed solve raises the objective; its change is evaluated
    only to accept or reject a restricted solve.
    """
    gram, q, gram_diag = std.gram, std.q, std.gram_diag
    ridge = lam * (1.0 - alpha)
    thresh = lam * alpha / 2.0
    if thresh == 0.0:  # a plain quadratic: its minimum-norm minimizer, in one solve
        return _minimum_norm(std, np.array([ridge]))[0], True, 0
    beta = np.zeros(len(q)) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    grad = q - gram @ beta  # grad[j] = sum_i x_ij r_i at the current beta

    def commit(active: np.ndarray, sub: np.ndarray, values: np.ndarray,
               curvature: float = 0.0) -> bool:
        """Set ``beta[active] = values`` unless that raises the objective
        (:func:`_step_change`; ``values`` keep the signs of ``beta[active]`` or
        are 0).  A step in a null space, along which the singularity rule
        counts curvature up to ``curvature`` as 0, may rise by what that
        curvature allows: ``|Xs step|^2 <= curvature*|step|^2`` in the
        quadratic term and ``2*|Xs step|*|r|`` in the linear one.
        """
        nonlocal grad
        b = beta[active]
        change = float(_step_change(sub, grad[active], b, values, thresh, ridge))
        if change > 0.0:
            step = values - b
            bound = curvature * float(step @ step)
            rss = std.y_ss - float(beta @ q) - float(beta @ grad)
            if change > bound + 2.0 * math.sqrt(bound * max(rss, 0.0)):
                return False
        beta[active] = values
        grad = q - gram @ beta
        return True

    def restricted_solve(active: np.ndarray) -> None:
        """Solve the sign-fixed problem on ``active`` exactly; commit if valid.

        A solution that flips signs, or a singular lasso set, gives a descent
        direction instead: the iterate steps along it to the first zero and
        the solve is retried on the smaller set.
        """
        while len(active):
            sub, w, V, top, null = _factor(std, active, ridge)
            b = beta[active]
            signs = np.sign(b)
            if not null.any():
                solution = _shifted_solve(V, w, null, q[active] - thresh * signs, ridge)
                if not np.any(solution * signs < 0.0):
                    commit(active, sub, solution)
                    return
                moved, curvature = _first_zero(b, solution - b), 0.0
            else:
                v = V[:, 0]  # the objective's slope along v, halved
                moved = _first_zero(b, -v if thresh * (signs @ v) + ridge * (b @ v) > 0.0 else v)
                curvature = PIVOT_RTOL * (top + ridge)
            if moved is None or not commit(active, sub, moved, curvature):
                return
            active = np.flatnonzero(beta)

    denominator = gram_diag + ridge
    restricted_solve(np.flatnonzero(beta))  # a warm start's support is most often the new one
    steps = 0
    while True:
        update = _exact_updates(grad, beta, gram_diag, denominator, thresh)
        move = np.abs(update - beta)
        j = int(np.argmax(move))  # the first NaN, if any
        converged = bool(move[j] <= tol)
        if converged or steps == max_iter:
            return beta, converged, steps
        steps += 1
        if not math.isfinite(move[j]):
            raise NonFiniteEncountered(f"coordinate descent diverged at sweep {steps}")
        before = beta.copy()
        beta[j] = update[j]
        grad = q - gram @ beta
        restricted_solve(np.flatnonzero(beta))
        if np.array_equal(beta, before):  # the same iterate would take this step again
            return beta, False, steps


def duality_gap(std: Standardized, beta: np.ndarray, lam: float, alpha: float) -> float:
    """Duality gap of ``beta`` in :func:`coordinate_descent`'s problem on ``std``.

    The primal is ``P(b) = |yc - Xs b|^2 + lam*(alpha*|b|_1 + (1-alpha)*|b|^2)``,
    read from ``std.gram = Xs'Xs``, ``std.q = Xs'yc`` and ``std.y_ss = yc'yc``.
    With ``t = lam*alpha/2`` and ``mu = lam*(1-alpha)`` its Fenchel dual is

        D(theta) = y_ss - |yc - theta|^2 - sum_j (|Xs_j'theta| - t)_+^2 / mu,

    which for ``mu = 0`` is the constraint ``max_j |Xs_j'theta| <= t``
    instead of the sum.  The dual point is the residual ``r = yc - Xs b``,
    rescaled to be feasible: ``theta = c*r`` with ``c = 1`` when ``mu > 0``
    and ``c = min(1, t / max_j |Xs_j'r|)`` otherwise (Ndiaye et al., "Gap
    Safe screening rules for sparsity enforcing penalties", JMLR 2017).
    ``P(b) - D(theta) >= P(b) - min P >= 0`` up to rounding, and it is 0 at
    the minimizer; divide by ``P(b)`` for a relative gap.  Without any
    penalty (``lam = 0``) only ``Xs'r = 0`` is feasible, so the gap is then
    the residual sum of squares unless ``Xs'r`` is exactly 0.
    """
    b = np.asarray(beta, dtype=float)
    ridge = lam * (1.0 - alpha)
    thresh = lam * alpha / 2.0
    gram_b = std.gram @ b
    grad = std.q - gram_b  # Xs'r
    penalty = lam * (alpha * float(np.abs(b).sum()) + (1.0 - alpha) * float(b @ b))
    if ridge > 0.0:
        c = 1.0
        conjugate = float(np.sum(np.maximum(np.abs(grad) - thresh, 0.0) ** 2)) / ridge
    else:
        top = float(np.max(np.abs(grad), initial=0.0))
        c = 1.0 if top <= thresh else thresh / top
        conjugate = 0.0
    # P - D expanded so that y_ss cancels exactly where c = 1
    rss = std.y_ss - 2.0 * float(std.q @ b) + float(b @ gram_b)
    return penalty + conjugate - 2.0 * c * float(b @ grad) + (1.0 - c) ** 2 * rss


def fit_elastic_net(
    std: Standardized,
    lam: float,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: CoefficientSet | None = None,
) -> CoefficientSet:
    """Elastic-net fit by :func:`coordinate_descent`.

    ``lam >= 0`` is the shrinkage strength and ``alpha`` in [0, 1] the L1
    fraction: ``alpha=1`` gives the lasso, ``alpha=0`` the ridge penalty
    (:func:`fit_ridge` at a positive weight is this fit).  ``warm_start``
    seeds the slopes from a previous fit of the same design (used along
    regularization paths).  A fit is converged when no exact coordinate
    update moves a coefficient by more than ``tol``; ``n_sweeps`` counts the
    greedy steps it took to get there (0 when the solve on the start's
    nonzero set already passes).  Hitting ``max_iter`` steps, or a step
    that leaves the iterate unchanged, is not an error: the last iterate is
    returned with ``converged=False``.  Without
    an L1 term it is one exact, minimum-norm solve with ``n_sweeps == 0``.
    """
    _check_l1_fit(std, (lam,), alpha, tol, max_iter, warm_start)
    beta0 = None
    if warm_start is not None:
        beta0 = warm_start.betas * std.scales  # back to the standardized scale
    beta_std, converged, sweeps = coordinate_descent(std, lam, alpha, tol, max_iter, beta0)
    if not np.isfinite(beta_std).all():
        raise NonFiniteEncountered("coordinate descent produced non-finite coefficients")
    betas = beta_std / std.scales
    return CoefficientSet(std.y_mean - betas @ std.means, betas, std.means, std.scales,
                          converged, sweeps)


def _check_l1_fit(std: Standardized, lams: Sequence[float], alpha: float, tol: float,
                  max_iter: int, warm_start: CoefficientSet | None) -> None:
    _check_weights(lams)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if warm_start is not None and warm_start.p != len(std.q):
        raise ValueError(f"warm start has {warm_start.p} coefficients, problem has {len(std.q)}")


def fit_elastic_net_path(
    std: Standardized,
    lams: Sequence[float],
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: CoefficientSet | None = None,
) -> CoefficientGrid:
    """:func:`fit_elastic_net` at every weight in ``lams``, row i at ``lams[i]``, each
    warm-started from the fit before it (the first from ``warm_start``).

    Equal bit for bit to that chain of calls, but solved in runs of weights,
    each run in one batched product whose rows pass :func:`coordinate_descent`'s
    test, ``converged``: a run on which the warm start's support and signs hold
    (:func:`_sign_fixed_rows`), or a run without an L1 term, whose every row is
    its one :func:`_minimum_norm` solve.  Where an L1 run ends, its attempt may
    hand back the point coordinate descent reaches next at the weight that ends
    it, and the next attempt starts at that weight from that point: an exit,
    where the weight's solve flips a sign and the iterate stops at its first
    zero, or an entering step, where the weight fails only the update test.  A
    weight takes at most two entering steps this way, and never more than
    ``max_iter``; its row counts them in ``n_sweeps``, and exits are no steps.
    Every other end is one :func:`fit_elastic_net` call from the fit before the
    weight, and the next run starts from its fit.  Coordinate descent's step
    limit and unchanged-iterate stop act there, so a weight that cycles between
    entering and leaving ends in that call too.  An L1 attempt is given
    the next ``RUN_WINDOW`` weights, not the whole remainder, since most runs are
    short and every row it forms past the run's end is discarded; an attempt
    that keeps all of its window is followed by one from its last row with twice
    the window, and any other end resets it.  Rows do not depend on the window
    (:func:`_sign_fixed_rows` forms each on its own).  Every argument is checked,
    with :func:`fit_elastic_net`'s messages, before any fit.  A batched row is
    finite; a non-finite one ends its run, and its weight's fit raises
    :class:`NonFiniteEncountered`.
    """
    _check_l1_fit(std, lams, alpha, tol, max_iter, warm_start)
    lams = np.asarray(lams, dtype=float)
    k, p = len(lams), len(std.q)
    slopes = np.zeros((k, p))
    converged, n_sweeps = np.ones(k, dtype=bool), np.zeros(k, dtype=int)
    start = np.zeros(p) if warm_start is None else warm_start.betas * std.scales
    i, steps, window, handed = 0, 0, RUN_WINDOW, None  # steps: entering ones at weight i
    while i < k:
        whole = False
        if handed is not None or lams[i] * alpha / 2.0 > 0.0:
            rows, handed = _sign_fixed_rows(std, lams[i:i + window], alpha, tol, start)
            whole = len(rows) == window
            window = 2 * window if whole else RUN_WINDOW
        else:  # no L1 term: the warm start does not matter, and each row is one solve
            run = lams[i:i + _leading(lams[i:] * alpha / 2.0 == 0.0)]
            rows = _minimum_norm(std, run * (1.0 - alpha))
            rows = rows[:_leading(np.isfinite(rows).all(axis=1))]
        stop = i + len(rows)
        if stop > i:
            slopes[i:stop] = rows / std.scales
            n_sweeps[i], steps = steps, 0
        if handed is not None and np.count_nonzero(handed) >= np.count_nonzero(start):
            steps += 1  # an entering step; an exit leaves a smaller support and is no step
            if steps > min(2, max_iter):
                handed = None
        if handed is None and stop < k and not whole:  # the weight that ends the run
            warm = CoefficientSet(0.0, slopes[stop - 1]) if stop else warm_start
            fit = fit_elastic_net(std, float(lams[stop]), alpha, tol, max_iter, warm)
            slopes[stop], converged[stop], n_sweeps[stop] = fit.betas, fit.converged, fit.n_sweeps
            stop, steps = stop + 1, 0
        i, start = stop, handed if handed is not None else slopes[stop - 1] * std.scales
    return CoefficientGrid(_intercepts(std, slopes), slopes, converged, n_sweeps,
                           std.means, std.scales)


def _sign_fixed_rows(std: Standardized, lams: np.ndarray, alpha: float, tol: float,
                     start: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The standardized fits at the leading weights of ``lams`` that
    :func:`coordinate_descent` certifies before any step on the support and
    signs of ``start``, the first weight's warm start; each later weight starts
    from the fit before it, through the original scale as :func:`fit_elastic_net`
    hands it on.  Rows are bit for bit those fits, formed as one row each.
    Returns ``(rows, handed)``.

    On the active set ``A`` of ``start`` with signs ``s``, every weight's
    solution is the sign-fixed solve of ``q_A - thresh*s`` (:func:`_shifted_solve`).
    A weight is kept while it has an L1 term, ``A`` is nonsingular at its
    ridge term, its solution and its warm start keep the signs ``s`` strictly
    (so the next weight starts on ``A`` too), the step from its warm start
    does not raise the objective (:func:`_step_change`) and no exact
    coordinate update from its solution moves it by more than ``tol``
    (:func:`_exact_updates`).

    ``handed`` is None unless, at the first weight not kept, :func:`coordinate_descent`
    next reaches a point that is one of two active-set steps (Osborne, Presnell &
    Turlach, IMA J. Numer. Anal. 2000), on the standardized scale.  An exit, with a
    smaller support than ``A``: the weight has an L1 term and its warm start the
    signs ``s`` on a nonsingular ``A``, but its finite solution flips one, so the
    solve steps toward it until its first coefficient reaches 0
    (:func:`_first_zero`), if that does not raise the objective.  An
    entering step, with a support at least as large: only the update test fails,
    every update is finite, and the coordinate whose update moves furthest takes it.
    """
    thresh = lams * alpha / 2.0
    ridge = lams * (1.0 - alpha)
    keep = thresh > 0.0
    betas = np.empty((len(lams), len(start)))
    betas[:] = start
    active = start.nonzero()[0]
    n = len(lams)
    if len(active):
        signs = np.sign(start[active])
        sub, w, V, _, null = _factor(std, active, ridge[:, None])
        solution = _shifted_solve(V, w, null, std.q[active] - thresh[:, None] * signs,
                                  ridge[:, None])
        keep &= ~null.any(axis=1)
        n = _leading(keep & (solution * signs > 0.0).all(axis=1))
        betas[:n, active] = solution[:n]
        starts = np.empty((min(n + 1, len(lams)), len(start)))  # row n's too, for an exit
        starts[0] = start
        starts[1:] = betas[:len(starts) - 1] / std.scales * std.scales
        b = starts[:, active]
        keep[:len(starts)] &= (b * signs > 0.0).all(axis=1)
        change = _step_change(sub, (std.q - _matvec(std.gram, starts[:n]))[:, active], b[:n],
                              betas[:n, active], thresh[:n], ridge[:n])
        keep[:n] &= ~(change > 0.0)
    betas = betas[:n]
    update = _exact_updates(std.q - _matvec(std.gram, betas), betas, std.gram_diag,
                            std.gram_diag + ridge[:n, None], thresh[:n, None])
    move = np.abs(update - betas)
    m = _leading(keep[:n] & (move <= tol).all(axis=1))
    if (m == n < len(lams) and keep[n] and np.isfinite(solution[n]).all()
            and (solution[n] * signs < 0.0).any()):  # coordinate descent's first solve step
        moved = _first_zero(b[n], solution[n] - b[n])
        grad = std.q - std.gram @ starts[n]
        if _step_change(sub, grad[active], b[n], moved, thresh[n], ridge[n]) <= 0.0:
            starts[n, active] = moved
            return betas, starts[n]
    if m == n or not (keep[m] and np.isfinite(move[m]).all()):
        return betas[:m], None
    handed = betas[m].copy()
    j = int(np.argmax(move[m]))
    handed[j] = update[m, j]
    return betas[:m], handed if np.count_nonzero(handed) >= len(active) else None


def _leading(mask: np.ndarray) -> int:
    """The number of leading True entries of ``mask``."""
    return len(mask) if mask.all() else int(np.argmin(mask))
