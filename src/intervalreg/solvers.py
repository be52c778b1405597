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
  fits a whole grid.  A lasso grid follows the homotopy between the lasso's
  breakpoints, one solve per segment, and runs coordinate descent only at a
  weight whose row fails the exact-update test.  An elastic-net grid solves
  each run of weights on its start's support and signs, or without an L1 term,
  in one product and keeps the rows that keep their signs and pass that test;
  a failing weight is started again once from its exact-update point before
  coordinate descent runs there.

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
``yc'yc`` once, and every fit of that design reads its sums from it, so a
penalty grid forms one Gram matrix per design, not one per weight.  A design is a
read-only value that no fit changes: each fit factors the active sets it meets, and
only coordinate descent keeps them, for the one call whose enter/exit cycles revisit
them.  A stack of designs of one shape (cross-validation's folds of one size) is
standardized in one call, each design bit for bit as it would be alone.  :func:`restrict`
gathers the sums of a subset of a design's columns from the design's, so a
fit that leaves the other columns out, as glmnet's ``exclude`` argument does
(Friedman, Hastie & Tibshirani, JSS 2010), standardizes nothing again.

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
support and signs hold are one product too.  For the lasso that solve is
linear in ``lambda``, and the homotopy finds the weights where the support
changes instead of trying them.  The lasso grids of a stack of designs of
one width (cross-validation's folds) follow their homotopies in lockstep:
at each step one gather from the stacked Grams and one stacked ``eigh`` per
shared active-set size factor the stack's sets, and each design's rows
are bit for bit those of the design alone, which is the stack of one.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: relative pivot threshold for declaring a Gram matrix singular.
PIVOT_RTOL = 1e-12

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 100_000

#: the most weights in one batched attempt of :func:`_net_rows`: most runs are short, and
#: every row an attempt forms past its run's end is discarded.
RUN_WINDOW = 16

#: the rows of a stack's ``(m, 2, p)`` right-hand sides, as a fancy index column.
PAIR = np.arange(2)[:, None]

#: the signs an inactive lasso coefficient enters with when its correlation reaches
#: ``+t`` or ``-t`` on :func:`_homotopy`'s segment, as a column over its two rows.
ENTER_SIGNS = np.array([[1.0], [-1.0]])


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
    Xs'Xs`` (exactly symmetric), ``q = Xs'yc``, ``y_ss = yc'yc`` and ``gram_diag =
    diag(gram)``, all read-only: a value that no fit changes or adds to.
    """

    means: np.ndarray
    scales: np.ndarray
    y_mean: float
    gram: np.ndarray
    q: np.ndarray
    y_ss: float
    gram_diag: np.ndarray
    n: int


def standardize(X: np.ndarray, y: np.ndarray) -> Standardized | list[Standardized]:
    """The :class:`Standardized` sums of the regression of ``y`` (n) on ``X`` (n x p,
    no intercept column).

    A stack of m designs, ``X`` of shape ``(m, n, p)`` and ``y`` of ``(m, n)``, gives
    the list of their m :class:`Standardized`, element i bit for bit
    ``standardize(X[i], y[i])``: every step is one call on the stack.  A single
    design is the stack of one.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim not in (2, 3):
        raise ValueError(f"X must be a 2-d matrix, got shape {X.shape}")
    if y.ndim != X.ndim - 1:
        kind = "a stack of vectors" if X.ndim == 3 else "a vector"
        raise ValueError(f"y must be {kind}, got shape {y.shape}")
    n, p = X.shape[-2:]
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got X shape {X.shape}")
    if y.shape[-1] != n:
        raise ValueError(f"X has {n} rows but y has {y.shape[-1]}")
    if y.shape[:-1] != X.shape[:-2]:
        raise ValueError(f"X stacks {X.shape[0]} designs but y stacks {y.shape[0]}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    stack = X.ndim == 3
    X, y = (X, y) if stack else (X[None], y[None])
    Xs, means, scales = _standardize(np.ascontiguousarray(X))  # a product's bits follow layout
    y_mean = safe_mean(y, axis=-1)
    Xt = Xs.transpose(0, 2, 1)
    # symmetric by construction, so that a column of the Gram is read as its row
    gram = Xt @ Xs
    gram = np.where(np.tri(p, k=-1, dtype=bool), gram.transpose(0, 2, 1), gram)
    # a y whose sums overflow gives a non-finite q, which CenterRangeView.standardized rejects
    with np.errstate(over="ignore", invalid="ignore"):
        yc = y - y_mean[:, None]
        q, y_ss = (Xt @ yc[..., None])[..., 0], (yc[:, None, :] @ yc[..., None])[:, 0, 0]
    diag = np.diagonal(gram, axis1=1, axis2=2).copy()
    stds = [_read_only(Standardized(*fields, n)) for fields in
            zip(means, scales, y_mean, gram, q, y_ss.tolist(), diag)]
    return stds if stack else stds[0]


def restrict(std: Standardized, cols: np.ndarray) -> Standardized:
    """The design of ``std``'s columns ``cols`` (an index array) alone: its sums gathered
    from ``std``'s, read-only."""
    gathered = {name: getattr(std, name)[cols] for name in ("means", "scales", "q", "gram_diag")}
    return _read_only(std._replace(gram=std.gram[cols[:, None], cols], **gathered))


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
    and the ``means``/``scales`` ``(p,)`` all rows share (None in a stack of folds'
    grids, whose rows share none).  Indexing a row builds its :class:`CoefficientSet`."""

    intercepts: np.ndarray
    slopes: np.ndarray
    converged: np.ndarray
    n_sweeps: np.ndarray
    means: np.ndarray | None = None
    scales: np.ndarray | None = None

    @classmethod
    def of(cls, std: Standardized, slopes: np.ndarray, converged: np.ndarray,
           n_sweeps: np.ndarray) -> "CoefficientGrid":
        """The grid of original-scale ``slopes`` fitted on ``std``, with ``std``'s
        ``means``/``scales``: each row's intercept is its own dot product, as
        :func:`fit_elastic_net` forms one."""
        intercepts = std.y_mean - (slopes[:, None, :] @ std.means)[:, 0]
        return cls(intercepts, slopes, converged, n_sweeps, std.means, std.scales)

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


def safe_mean(v: np.ndarray, axis: int = 0) -> np.ndarray:
    """``v.mean(axis)`` of a finite ``v`` (a scalar for a vector).  Where a sum
    overflows, the values are divided by their largest magnitude before averaging."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = v.mean(axis=axis)
        if not np.isfinite(mean).all():
            peak = np.abs(v).max(axis=axis, keepdims=True)
            rescaled = np.squeeze(peak * (v / peak).mean(axis=axis, keepdims=True), axis)
            mean = np.where(np.isfinite(mean), mean, rescaled)[()]
    return mean


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center columns and divide them by their population standard deviation, of one
    n x p design or of each design of an ``(m, n, p)`` stack.

    A constant column (``max == min``) is centered on its value, so it reads
    exactly 0 and keeps scale 1 even where its mean rounds off the constant.
    A column whose sum overflows is divided by its largest magnitude before
    averaging, and one whose mean square overflows or falls below the smallest
    normal double before squaring.
    """
    means = np.where(X.max(axis=-2) == X.min(axis=-2), X[..., 0, :], safe_mean(X, axis=-2))
    Xc = X - means[..., None, :]
    with np.errstate(over="ignore"):
        mean_sq = (Xc**2).mean(axis=-2)
    scales = np.sqrt(mean_sq)
    redo = ~(np.isfinite(mean_sq) & (mean_sq >= np.finfo(float).tiny))
    for d in map(tuple, np.argwhere(redo.any(axis=-1))):  # the designs that need it
        cols = redo[d]
        peak = np.abs(Xc[d][:, cols]).max(axis=0)
        peak[peak == 0.0] = 1.0  # a constant column keeps scale 0 here, 1 below
        scales[d + (cols,)] = peak * np.sqrt(((Xc[d][:, cols] / peak) ** 2).mean(axis=0))
    scales = np.where(scales == 0.0, 1.0, scales)
    return Xc / scales[..., None, :], means, scales


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
    weights are one vectorized :func:`_minimum_norm` solve from one
    eigendecomposition of the design's Gram matrix, each row equal to
    :func:`fit_elastic_net` at ``alpha=0`` bit for bit; the back-transform runs once.
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
    return CoefficientGrid.of(std, beta / std.scales, np.ones(len(lams), dtype=bool),
                              np.zeros(len(lams), dtype=int))


def _check_weights(lams: Sequence[float]) -> None:
    values = np.asarray(lams, dtype=float)
    ok = np.isfinite(values) & (values >= 0.0)
    if not ok.all():
        raise ValueError(f"lambda must be finite and >= 0, got {lams[int(np.argmin(ok))]}")


def _sub_gram(std: Standardized, active: np.ndarray) -> np.ndarray:
    """``gram[active][:, active]`` in the memory order a product's bits follow, one gather."""
    return std.gram[active[:, None], active].T


def _factor(
    std: Standardized, active: np.ndarray, ridge: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """``(w, V, top, null)``: the sub-Gram of ``active`` is ``V diag(w) V'`` with ``w``
    ascending, by one ``eigh``, ``top`` is its largest diagonal entry, and ``null`` marks
    which eigenvalues of the sub-Gram plus ``ridge*I`` count as 0 (at most ``PIVOT_RTOL``
    of ``top + ridge``), per row of a ``(k, 1)`` ``ridge``.  Nothing is kept."""
    sub = _sub_gram(std, active)
    w, V = np.linalg.eigh(sub)
    top = float(sub.diagonal().max(initial=0.0))
    return w, V, top, w + ridge <= PIVOT_RTOL * (top + ridge)


def _minimum_norm(std: Standardized, ridges: np.ndarray) -> np.ndarray:
    """Minimum-norm minimizers of ``b'(gram + ridge*I)b - 2q'b``, a row per weight in
    ``ridges``: ``V diag(1/(w + ridge)) V'q`` over the non-constant columns, 0 in the
    others and along directions :func:`_factor` counts as 0.  Rows do not depend on k."""
    active = np.flatnonzero(std.gram_diag)
    w, V, _, null = _factor(std, active, ridges[:, None])
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
    """The objective's change when the coefficients on a set with sub-Gram ``sub`` move from
    ``b`` (gradient ``grad`` there) to ``values`` that keep their signs or are 0, per row.

    The L1 term changes by ``signs'step``; the change is formed from the step itself, since
    the rounding of two whole objective values can exceed a short step's decrease.  Terms
    that overflow give an infinite or NaN change, and a NaN change counts as no rise (a
    response near 1e155 squares past the largest double)."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    sums every fit of it shares (:class:`Standardized`).

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
    plain quadratic.  Each active set's sub-Gram is factored once per call,
    by ``eigh`` (:func:`_factor`), and kept until the call returns, since a
    step that enters a coordinate and a solve that drops it again revisit
    sets; the ridge term only shifts its eigenvalues.  A set is
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
    factors = {}  # this call's active sets, by their index bytes

    def commit(active: np.ndarray, values: np.ndarray, curvature: float = 0.0) -> bool:
        """Set ``beta[active] = values`` unless that raises the objective
        (:func:`_step_change`; ``values`` keep the signs of ``beta[active]`` or
        are 0).  A step in a null space, along which the singularity rule
        counts curvature up to ``curvature`` as 0, may rise by what that
        curvature allows: ``|Xs step|^2 <= curvature*|step|^2`` in the
        quadratic term and ``2*|Xs step|*|r|`` in the linear one.
        """
        nonlocal grad
        sub, b = _sub_gram(std, active), beta[active]
        change = float(_step_change(sub, grad[active], b, values, thresh, ridge))
        if change > 0.0:
            step = values - b
            bound = curvature * float(step @ step)
            with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN rejects nothing
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
            key = active.tobytes()
            if key not in factors:
                factors[key] = _factor(std, active, ridge)
            w, V, top, null = factors[key]
            b = beta[active]
            signs = np.sign(b)
            if not null.any():
                solution = _shifted_solve(V, w, null, q[active] - thresh * signs, ridge)
                if not np.any(solution * signs < 0.0):
                    commit(active, solution)
                    return
                moved, curvature = _first_zero(b, solution - b), 0.0
            else:
                v = V[:, 0]  # the objective's slope along v, halved
                moved = _first_zero(b, -v if thresh * (signs @ v) + ridge * (b @ v) > 0.0 else v)
                curvature = PIVOT_RTOL * (top + ridge)
            if moved is None or not commit(active, moved, curvature):
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
    _check_l1_fit([std], (lam,), alpha, tol, max_iter, [warm_start])
    beta0 = None
    if warm_start is not None:
        beta0 = warm_start.betas * std.scales  # back to the standardized scale
    beta_std, converged, sweeps = coordinate_descent(std, lam, alpha, tol, max_iter, beta0)
    if not np.isfinite(beta_std).all():
        raise NonFiniteEncountered("coordinate descent produced non-finite coefficients")
    betas = beta_std / std.scales
    return CoefficientSet(std.y_mean - betas @ std.means, betas, std.means, std.scales,
                          converged, sweeps)


def _check_l1_fit(stds: list[Standardized], lams: Sequence[float], alpha: float, tol: float,
                  max_iter: int, warm_starts: list[CoefficientSet | None]) -> None:
    _check_weights(lams)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for std, warm in zip(stds, warm_starts):
        if len(std.q) != len(stds[0].q):
            raise ValueError(f"a stack's designs need one width, got {len(stds[0].q)} "
                             f"and {len(std.q)} columns")
        if warm is not None and warm.p != len(std.q):
            raise ValueError(f"warm start has {warm.p} coefficients, problem has {len(std.q)}")


def fit_elastic_net_path(
    std: Standardized | Sequence[Standardized],
    lams: Sequence[float],
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: CoefficientSet | None | Sequence[CoefficientSet | None] = None,
) -> CoefficientGrid | list[CoefficientGrid]:
    """:func:`fit_elastic_net` at every weight in ``lams``, row i at ``lams[i]``, each
    warm-started from the fit before it (the first from ``warm_start``).

    At ``alpha=1`` most rows are homotopy rows (:func:`_lasso_rows`): the exact
    lasso solutions on the active sets and signs the breakpoints give, one
    :func:`_shifted_solve` per segment between breakpoints, kept where they pass
    :func:`coordinate_descent`'s test.  They are ``converged``, count their entering
    breakpoints since the row before in ``n_sweeps`` (an exit is no step), and equal
    the chain of one-weight fits to rounding, not bit for bit.  Coordinate descent
    fits the rest, by one :func:`fit_elastic_net` call from the row before: the
    first row of a warm-started grid, a weight above the one before it, and a row
    that fails the test, meets a singular active set or needs more than
    ``max_iter`` entering breakpoints since the row before.  A weight of 0 is the
    one-weight fit's :func:`_minimum_norm` solve.

    At ``alpha < 1`` most rows are batched sign-fixed solves (:func:`_net_rows`), kept
    where they keep their signs and pass the same test.  They are ``converged`` and equal the chain to
    rounding too.  A weight whose row fails starts again from its exact-update point,
    and its row counts the coordinates that point entered in ``n_sweeps`` (an exit is
    no step).  Coordinate descent fits a weight whose point enters more than
    ``max_iter`` coordinates or whose restart keeps no row.

    A stack of designs of one width (cross-validation's folds), with a sequence of
    one warm start (or None) per design, or None for none, gives the list of their
    grids, grid i bit for bit the path of design i alone: the stack's lasso
    homotopies run in lockstep.  A single design is the stack of one, and an empty
    stack gives an empty list.

    Every argument is checked, with :func:`fit_elastic_net`'s messages, before any
    fit.  A batched or homotopy row is finite; a non-finite one fails its test,
    and its weight's fit raises :class:`NonFiniteEncountered`.
    """
    stack = not isinstance(std, Standardized)
    stds = list(std) if stack else [std]
    warms = [warm_start] * len(stds) if warm_start is None or not stack else list(warm_start)
    if len(warms) != len(stds):
        raise ValueError(f"{len(stds)} designs but {len(warms)} warm starts")
    _check_l1_fit(stds, lams, alpha, tol, max_iter, warms)
    lams = np.asarray(lams, dtype=float)
    if alpha == 1.0:
        found = _lasso_rows(stds, lams, tol, max_iter, warms)
    else:
        found = [_net_rows(one, lams, alpha, tol, max_iter, warm)
                 for one, warm in zip(stds, warms)]
    grids = [CoefficientGrid.of(one, *rows) for one, rows in zip(stds, found)]
    return grids if stack else grids[0]


def _net_rows(std: Standardized, lams: np.ndarray, alpha: float, tol: float, max_iter: int,
              warm_start: CoefficientSet | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The original-scale ``(slopes, converged, n_sweeps)`` of
    :func:`fit_elastic_net_path` at ``alpha < 1``, solved in runs of weights.

    A run of weights with an L1 term is one batched sign-fixed solve on its start's
    support and signs over at most ``RUN_WINDOW`` weights (:func:`_sign_fixed_rows`),
    kept while its rows keep their signs and pass :func:`coordinate_descent`'s test; a
    run without one is a :func:`_minimum_norm` solve per weight, in one product,
    whatever its start.  Kept
    rows are ``converged``, and the next run starts from the last of them.  A weight
    whose row fails is restarted once, from its exact-update point, if that point is
    finite and enters at most ``max_iter`` coordinates; a row the restart keeps counts
    them in ``n_sweeps`` (an exit is no step, as for homotopy rows).  Any other failing
    weight, and a restart that keeps no row, is one :func:`fit_elastic_net` call from
    the row before, whose step limit and unchanged-iterate stop act there, and the next
    run starts from its fit.  Rows equal the chain of one-weight fits to rounding, not
    bit for bit.
    """
    k, p = len(lams), len(std.q)
    slopes = np.zeros((k, p))
    converged, n_sweeps = np.ones(k, dtype=bool), np.zeros(k, dtype=int)
    start = np.zeros(p) if warm_start is None else warm_start.betas * std.scales
    i, entered = 0, None  # entered: the coordinates weight i's restart entered
    while i < k:
        l1 = lams[i:] * alpha / 2.0 > 0.0
        if l1[0]:
            given = lams[i:i + min(_leading(l1), RUN_WINDOW)]
            rows, point = _sign_fixed_rows(std, given, alpha, tol, start)
        else:  # no L1 term: the start does not matter, and each row is one solve
            given = lams[i:i + _leading(~l1)]
            rows, point = _minimum_norm(std, given * (1.0 - alpha)), None
            rows = rows[:_leading(np.isfinite(rows).all(axis=1))]
        stop = i + len(rows)
        slopes[i:stop] = rows / std.scales
        if len(rows):
            n_sweeps[i], start, entered = entered or 0, rows[-1], None
        if stop == i + len(given):
            i = stop
            continue
        if entered is None and point is not None:  # weight stop fails: restart it once
            entered = np.count_nonzero(point[start == 0.0])
            if entered <= max_iter:
                i, start = stop, point
                continue
        warm = CoefficientSet(0.0, slopes[stop - 1]) if stop else warm_start
        fit = fit_elastic_net(std, float(lams[stop]), alpha, tol, max_iter, warm)
        slopes[stop], converged[stop], n_sweeps[stop] = fit.betas, fit.converged, fit.n_sweeps
        i, start, entered = stop + 1, fit.betas * std.scales, None
    return slopes, converged, n_sweeps


def _lasso_rows(stds: list[Standardized], lams: np.ndarray, tol: float, max_iter: int,
                warm_starts: list[CoefficientSet | None]) -> list[tuple]:
    """Per design of a stack, the original-scale ``(slopes, converged, n_sweeps)`` of
    :func:`fit_elastic_net_path` at ``alpha = 1``: :func:`_homotopy` rows, tested for all
    of a descending stretch of positive weights at once, and a :func:`fit_elastic_net`
    call wherever one is missing or fails, after which the homotopy starts again from
    that fit.  Each round runs every design's next stretch in one :func:`_homotopy`
    call.  Weights of 0 are one :func:`_minimum_norm` solve, as the one-weight fit makes
    them."""
    k = len(lams)
    found = [(np.zeros((k, len(std.q))), np.ones(k, dtype=bool), np.zeros(k, dtype=int))
             for std in stds]
    ts = lams / 2.0
    # a stretch from row i ends at the first later row that is 0 or above the one before
    breaks = [*(np.flatnonzero(~((ts[1:] > 0.0) & (ts[1:] <= ts[:-1]))) + 1).tolist(), k]
    # top: the weight a design's homotopy starts below; a warm start's first row, below
    # none, is fitted by coordinate descent
    at = [0] * len(stds)
    starts = [np.zeros(len(std.q)) for std in stds]
    tops = [np.inf if warm is None else -np.inf for warm in warm_starts]
    live = list(range(len(stds))) if k else []
    while live:
        spans = [(at[d], breaks[bisect.bisect_right(breaks, at[d])]
                  if 0.0 < ts[at[d]] <= tops[d] else at[d]) for d in live]
        rows, steps, ends = _homotopy([stds[d] for d in live], [starts[d] for d in live],
                                      [tops[d] for d in live], spans, ts, max_iter)
        lo, still = min(i for i, _ in spans), []  # rows[:, r - lo] is row r
        for r, (d, (i, _), end) in enumerate(zip(live, spans, ends)):
            std, (slopes, converged, n_sweeps) = stds[d], found[d]
            # one product for the stretch's rows: a row's bits, and so where a verdict
            # decided by rounding falls, depend on how the rows are grouped
            stretch, counts = rows[r, i - lo:end - lo], steps[r, i - lo:]
            update = _exact_updates(std.q - stretch @ std.gram, stretch, std.gram_diag,
                                    std.gram_diag, ts[i:end, None])
            n = _leading((np.abs(update - stretch) <= tol).all(axis=1))
            slopes[i:i + n], n_sweeps[i:i + n] = stretch[:n] / std.scales, counts[:n]
            i += n
            if i == k:
                continue
            if ts[i] == 0.0:  # the rows of weight 0 that follow, whatever the start
                zeros = _leading(ts[i:] == 0.0)
                slopes[i:i + zeros] = _minimum_norm(std, np.zeros(1)) / std.scales
                at[d], starts[d], tops[d] = i + zeros, slopes[i], 0.0
            else:
                warm = CoefficientSet(0.0, slopes[i - 1]) if i else warm_starts[d]
                fit = fit_elastic_net(std, float(lams[i]), 1.0, tol, max_iter, warm)
                slopes[i], converged[i], n_sweeps[i] = fit.betas, fit.converged, fit.n_sweeps
                at[d], starts[d], tops[d] = i + 1, fit.betas, ts[i]
            if at[d] < k:
                still.append(d)
        live = still
    return found


def _homotopy(stds: list[Standardized], starts: list[np.ndarray], tops: list[float],
              spans: list[tuple[int, int]], ts: np.ndarray, max_iter: int
              ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``(rows, steps, at)`` of a stack of designs of one width: for design ``d`` and ``r``
    in its span ``[first, at[d])``, ``rows[d, r - lo]`` (``lo``: the least ``first``) is
    the standardized lasso solution at ``ts[r]`` (``ts = lam/2``, positive, descending
    within the span from its ``top``) on the homotopy from the support and signs of its
    ``start``, the fit at ``top`` (zeros and ``top = inf`` for a cold start), and ``steps[d,
    r - lo]`` the row's entering events since the row before (Osborne, Presnell & Turlach,
    IMA J. Numer. Anal. 2000; LARS with drops, Efron et al., Ann. Statist. 2004).

    On an active set ``A`` with signs ``s`` the solution is ``b_A(t) = b0 - t*u``
    with ``G_AA b0 = q_A`` and ``G_AA u = s``, one :func:`_shifted_solve` of both (its
    products, written out), and every correlation ``c(t) = q - G_:A b_A(t)`` is
    linear in ``t``.  The segment ends at the largest ``t`` below its top where an
    active coefficient reaches 0 (it leaves) or an inactive ``|c_j(t)|`` reaches
    ``t`` (j enters with the sign of ``c_j``).  The event just taken, which rounding
    can put again just below the new top, is no candidate on the next segment: a
    column that entered does not leave at once, nor does one that left re-enter with
    its old sign.  Columns with ``gram_diag == 0`` never enter: a constant column
    standardizes to exact zeros, so its Gram row and ``q`` entry are 0, its two times
    are +/-0, and a time at or below 0 is never taken.  Rows stop before a singular
    ``A`` (as :func:`_factor` counts it at no ridge) and before a row that needs more
    than ``max_iter`` entering events; the rows are solutions only if ``start`` was, so
    callers test them.

    Each segment's set is factored once, by ``eigh``, and dropped: the next set differs
    by a column.  The designs run in lockstep.  Each iteration groups them by active-set
    size; a group's sets are one gather from the stacked Grams and one stacked ``eigh``,
    and its solves and breakpoint times are stacked products, each one matrix-vector
    product per design in a lone design's memory order, so every design's rows are bit
    for bit those of its stack of one.  A group of one factors its :func:`_sub_gram` and
    forms the same products on its own arrays (1.46x as long stacked, for a lone cv fold
    design).  The times' masking and argmax run once for the stack; each design then
    bisects its span for the rows its event leaves behind, its segment's ``b0`` and
    ``u`` are copied to them, and ``b0 - t*u`` is formed at the end.
    """
    m, p = len(stds), len(stds[0].q)
    design = np.arange(m)
    grams = np.stack([std.gram for std in stds]) if m > 1 else None
    # q over the signs (0 off the active set): a group's right-hand sides are one gather
    sums = np.array([(std.q, np.sign(start)) for std, start in zip(stds, starts)])
    signs = sums[:, 1]
    # row d: design d's event times on its segment, then a time no event reads, which
    # stands for the event just taken of a design that took none
    padded = np.zeros((m, 2 * p + 1))
    flat = padded[:, :-1]
    times = flat.reshape(m, 2, p)
    limit = np.array(tops, dtype=float)[:, None]  # row d: the top of design d's segment
    solved = np.zeros((m, 2, p))  # row d: b0 and u of design d's segment, 0 off its active set
    lo, hi = min(first for first, _ in spans), max(end for _, end in spans)
    segments = np.zeros((m, hi - lo, 2, p))  # per row r of a design, at r - lo: its solved
    steps = np.zeros((m, hi - lo), dtype=int)
    below = (-ts).tolist()  # ascending within a span: the rows at or above a time bisect it
    at = [first for first, _ in spans]
    sizes = [np.count_nonzero(start) for start in starts]
    entered = [0] * m
    repeat = np.array([2 * p] * m)  # the event just taken, recomputed on the new segment
    live = [d for d, (first, end) in enumerate(spans) if first < end]
    with np.errstate(divide="ignore", invalid="ignore"):
        while live:
            groups = {}
            for d in live:
                groups.setdefault(sizes[d], []).append(d)
            for a, ds in groups.items():
                if not a:
                    times[ds] = sums[ds, :1] / ENTER_SIGNS  # where c_j(t) = q_j reaches +t, -t
                    continue
                # _shifted_solve's products (nothing is null, and w + 0.0 is w); then G_:A b0
                # and G_:A u, each gram[:, A] read as the rows gram[A] in its memory order,
                # and where c_j(t) = c0_j + t*d_j reaches +t, -t and where an active b_j
                # reaches 0.  A singular set ends its design's rows.
                if len(ds) == 1:
                    d, = ds
                    active = signs[d].nonzero()[0]
                    sub = _sub_gram(stds[d], active)
                    w, V = np.linalg.eigh(sub)
                    if w[0] <= PIVOT_RTOL * sub.diagonal().max(initial=0.0):  # w ascends
                        live.remove(d)
                        continue
                    b0u = _matvec(V, _matvec(V.T, sums[d].take(active, 1)) / w)
                    solved[d][:, active] = b0u
                    cols = stds[d].gram.take(active, 0).T
                    times[d] = (sums[d, 0] - cols @ b0u[0]) / (ENTER_SIGNS - cols @ b0u[1])
                    times[d, 0].put(active, b0u[0] / b0u[1])
                    times[d, 1].put(active, 0.0)
                    continue
                idx, active = np.array(ds), signs[ds].nonzero()[1].reshape(len(ds), a)
                # each sub-Gram in _sub_gram's memory order, so that eigh's bits are a lone
                # design's
                subs = grams[idx[:, None, None], active[:, :, None], active[:, None, :]]
                w, V = np.linalg.eigh(subs.transpose(0, 2, 1))
                keep = ~(w[:, 0] <= PIVOT_RTOL * subs.diagonal(0, 1, 2).max(axis=1, initial=0.0))
                if not keep.all():
                    gone, idx, active = set(idx[~keep].tolist()), idx[keep], active[keep]
                    live, w, V = [d for d in live if d not in gone], w[keep], V[keep]
                pairs = idx[:, None, None], PAIR, active[:, None, :]
                b0u = _matvec(V[:, None], _matvec(V.transpose(0, 2, 1)[:, None], sums[pairs])
                              / w[:, None])
                solved[pairs] = b0u
                c = _matvec(grams[idx[:, None], active].transpose(0, 2, 1)[:, None], b0u)
                times[idx] = (sums[idx, :1] - c[:, :1]) / (ENTER_SIGNS - c[:, 1:])
                times[idx[:, None], 0, active] = b0u[:, 0] / b0u[:, 1]
                times[idx[:, None], 1, active] = 0.0
            padded[design, repeat] = 0.0
            # a time at or below 0 is never taken: where none is positive, the largest is at
            # most 0, and the segment runs to the end of the span
            flat[~(flat < limit)] = 0.0
            events = flat.argmax(axis=1).tolist()
            still = []
            for d in live:
                event, i, (_, end) = events[d], at[d], spans[d]
                top = flat.item(d, event)
                n = bisect.bisect_right(below, -top, i, end) - i
                if n:
                    segments[d, i - lo:i - lo + n] = solved[d]
                    steps[d, i - lo], entered[d] = entered[d], 0
                    at[d] = i = i + n
                    if i == end:
                        continue
                kind, j = divmod(event, p)
                if signs[d, j]:  # j leaves; it re-enters with its sign only past the next event
                    repeat[d], signs[d, j], solved[d, :, j] = j + p * (signs[d, j] < 0.0), 0.0, 0.0
                else:  # j enters; it leaves only past the next event
                    entered[d] += 1
                    if entered[d] > max_iter:
                        continue
                    repeat[d], signs[d, j] = j, ENTER_SIGNS[kind, 0]
                sizes[d] += 1 if signs[d, j] else -1
                limit[d, 0] = top
                still.append(d)
            live = still
    return segments[:, :, 0] - ts[lo:hi, None] * segments[:, :, 1], steps, at


def _sign_fixed_rows(std: Standardized, lams: np.ndarray, alpha: float, tol: float,
                     start: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``(rows, point)``: the standardized fits at the leading weights of ``lams``, each
    with an L1 term, on the support ``A`` and signs ``s`` of ``start``, and the
    exact-update point of the first weight not kept (None if every weight is kept or
    that point is not finite).

    Every weight's row is the sign-fixed solve of ``q_A - thresh*s`` at its ridge term
    (:func:`_shifted_solve`, one product for all weights), 0 off ``A``.  A row is kept
    while ``A`` is nonsingular at its ridge term, the solve flips no sign of ``s`` and
    no exact coordinate update from it moves a coefficient by more than ``tol``
    (:func:`_exact_updates`).  The sign test is needed where the L1 term is below
    ``tol``: a flipped coefficient then moves the row by about ``thresh``, which the
    update test lets through.  A failing row's exact-update point is every exact
    coordinate update from it that moves a coefficient by more than ``tol``, taken at
    once, the rest of the row kept: it enters those coordinates whose correlations
    exceed the L1 term, and drops or flips a coefficient whose sign the solve flipped.
    Like :func:`coordinate_descent`, which takes no step of ``tol`` or less, it enters
    no coordinate whose exact value is too small to fail the test.
    """
    thresh, ridge = lams[:, None] * alpha / 2.0, lams[:, None] * (1.0 - alpha)
    active = start.nonzero()[0]
    w, V, _, null = _factor(std, active, ridge)
    rows = np.zeros((len(lams), len(start)))
    rows[:, active] = _shifted_solve(V, w, null, std.q[active] - thresh * np.sign(start[active]),
                                     ridge)
    update = _exact_updates(std.q - _matvec(std.gram, rows), rows, std.gram_diag,
                            std.gram_diag + ridge, thresh)
    flipped = (rows[:, active] * np.sign(start[active]) < 0.0).any(axis=1)
    n = _leading(~null.any(axis=1) & ~flipped & (np.abs(update - rows) <= tol).all(axis=1))
    point = None
    if n < len(lams):
        point = np.where(np.abs(update[n] - rows[n]) > tol, update[n], rows[n])
        point = point if np.isfinite(point).all() else None
    return rows[:n], point


def _leading(mask: np.ndarray) -> int:
    """The number of leading True entries of ``mask``."""
    return len(mask) if mask.all() else int(np.argmin(mask))
