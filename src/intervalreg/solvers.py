"""Estimators for classic (single-valued) regression problems.

Two fitting routines over a dense design matrix without intercept
column:

* ``fit_ridge``       closed form ``(X'X + lambda*I) b = X'y``, for one
  weight or (``fit_ridge_path``) a whole grid of weights in one solve;
  ``lambda=0`` is least squares, and a positive weight is the elastic
  net at ``alpha=0``,
* ``fit_elastic_net`` cyclic coordinate descent with soft-thresholding;
  ``alpha=1`` is the lasso, ``alpha=0`` is ridge.

The penalized objective is used exactly as written, with no ``1/n`` or
``1/(2n)`` factor:

    sum_i (y_i - b0 - sum_j x_ij b_j)^2
        + lambda * (alpha * sum_j |b_j| + (1 - alpha) * sum_j b_j^2)

The intercept is never penalized.  Every fit centers the predictors and,
by default, scales them to unit standard deviation (divisor n), then
reports coefficients back on the original scale; the penalty weight
therefore refers to standardized coefficients.  A lambda in the common
convention that divides the squared loss by 2n corresponds to
``2 * n * lambda`` here for the L1 term and ``n * lambda`` for the L2
term.

A :class:`DesignProblem` standardizes its design and forms the Gram
matrix ``Xs'Xs``, ``Xs'yc`` and ``yc'yc`` once per ``standardize``
setting (:meth:`DesignProblem.standardized`); every ridge weight and
every coordinate-descent fit of that design reuses them, so a penalty
grid forms one Gram matrix per design, not one per weight.

Least squares (``fit_ridge`` at weight 0) is solved by LAPACK's Cholesky
factorization; a rank-deficient Gram matrix is reported with its first
failing pivot.  Every other fit uses one eigendecomposition per active
set and design, which also yields the null vectors coordinate descent
steps along on singular sets.  Without an L1 term the fit is the solve
``V diag(1/(w + lambda)) V' Xs'yc`` from the Gram's ``V diag(w) V'``
(*ESL* 2nd ed., eq. 3.47), every ridge weight of a grid in one product.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: a coefficient whose back-transformed magnitude is below this is
#: treated as not selected (coordinate descent produces exact zeros,
#: so this is a safety margin only).
SUPPORT_TOL = 1e-10

#: relative pivot threshold for declaring a Gram matrix singular.
PIVOT_RTOL = 1e-12

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 100_000


class SolverError(Exception):
    """Numerical failure inside a fitting routine."""


class SingularDesign(SolverError):
    """Rank-deficient Gram matrix; ``pivot_index`` is the failing column.

    The message states the broken rule rather than ``pivot``, whose value
    is rounding noise that differs between LAPACK builds.
    """

    def __init__(self, pivot_index: int, pivot: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(
            f"Gram matrix is numerically singular at pivot {pivot_index} "
            f"(pivot at most {PIVOT_RTOL:g} of the largest diagonal entry)"
        )


class NonFiniteEncountered(SolverError):
    """Coordinate descent produced a non-finite value."""


class Standardized(NamedTuple):
    """The sums every fit reads from a design on its standardized scale.

    With ``Xs = (X - means) / scales`` and ``yc = y - y_mean``: ``gram =
    Xs'Xs``, ``q = Xs'yc``, ``y_ss = yc'yc`` and ``gram_diag = diag(gram)``;
    the arrays are read-only.  ``factors`` caches the factorizations of the
    sub-Grams that coordinate descent meets, keyed by active set, for every
    fit of this design (:func:`coordinate_descent`).
    """

    means: np.ndarray
    scales: np.ndarray
    y_mean: float
    gram: np.ndarray
    q: np.ndarray
    y_ss: float
    gram_diag: np.ndarray
    factors: dict


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """An unweighted regression problem: X (n x p, no intercept column), y (n)."""

    X: np.ndarray
    y: np.ndarray
    _standardized: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
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
        X = X.copy()
        y = y.copy()
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def standardized(self, scale: bool = True) -> Standardized:
        """The Gram and sums of the centered (and, when ``scale``,
        unit-variance) design.

        Computed on first use for each ``scale`` and cached, so every fit
        of this problem shares one standardization, one ``Xs'Xs`` and the
        factorizations of its active sets (``factors``).
        """
        cached = self._standardized.get(scale)
        if cached is None:
            Xs, means, scales = _standardize(self.X, scale)
            y_mean = self.y.mean()
            yc = self.y - y_mean
            gram = Xs.T @ Xs
            cached = Standardized(
                means, scales, y_mean, gram, Xs.T @ yc, float(yc @ yc),
                np.diag(gram).copy(), {},
            )
            for value in cached:
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            self._standardized[scale] = cached
        return cached


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Fitted coefficients on the original predictor scale.

    ``means``/``scales`` record the internal standardization of the fit
    (``None`` for an intercept-only set and in model files that predate
    them); the standardized-scale slope j is ``betas[j] * scales[j]``.
    ``converged`` is False only when coordinate descent hit its sweep
    limit, in which case the best iterate is still returned.
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

    def support(self, tol: float = SUPPORT_TOL) -> np.ndarray:
        """Boolean mask of selected predictors (|beta| above ``tol``)."""
        return np.abs(self.betas) > tol


@dataclass(frozen=True, eq=False)
class CoefficientGrid:
    """Fits at k penalty weights as arrays, row i at weight i: ``intercepts``,
    ``converged`` and ``n_sweeps`` ``(k,)``, original-scale ``slopes`` ``(k, p)``,
    and the ``means``/``scales`` ``(p,)`` all rows share (None if they share none:
    intercept-only fits, half-range runs on different columns).  Indexing a row
    builds its :class:`CoefficientSet`."""

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


def _standardize(X: np.ndarray, scale: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center columns; divide by population standard deviation when ``scale``.

    A constant column (``max == min``) is centered on its value, so it reads
    exactly 0 and keeps scale 1 even where its mean rounds off the constant.
    """
    means = np.where(X.max(axis=0) == X.min(axis=0), X[0], X.mean(axis=0))
    Xc = X - means
    if scale:
        scales = np.sqrt((Xc**2).mean(axis=0))
        scales = np.where(scales == 0.0, 1.0, scales)
    else:
        scales = np.ones(X.shape[1])
    return Xc / scales, means, scales


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def fit_ridge(problem: DesignProblem, lam: float, standardize: bool = True) -> CoefficientSet:
    """:func:`fit_ridge_path` at the one weight ``lam`` (0 is least squares)."""
    return fit_ridge_path(problem, (lam,), standardize)[0]


def fit_ridge_path(
    problem: DesignProblem, lams: Sequence[float], standardize: bool = True
) -> CoefficientGrid:
    """Closed-form ridge at every penalty weight in ``lams``, row i at ``lams[i]``.

    Solves ``(Xs'Xs + lam*I) b = Xs'(y - mean(y))`` on centered (and, by
    default, unit-variance) predictors, which is exactly the minimizer of
    the augmented problem with the intercept left out of the penalty.
    Weight 0 is least squares by :func:`solve_spd`, which raises
    :class:`SingularDesign` on a rank-deficient design.  All positive
    weights are one vectorized :func:`_minimum_norm` solve from the design's
    cached eigendecomposition, each row equal to :func:`fit_elastic_net` at
    ``alpha=0`` bit for bit; the back-transform runs once.
    """
    for lam in lams:
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    lams = np.asarray(lams, dtype=float)
    std = problem.standardized(standardize)
    beta = np.empty((len(lams), problem.p))
    positive = lams > 0.0
    if positive.any():
        beta[positive] = _minimum_norm(std.gram, std.q, std.gram_diag, std.factors, lams[positive])
    if not positive.all():
        beta[~positive] = solve_spd(std.gram, std.q)
    slopes = beta / std.scales  # intercepts: each row's own dot product, as in fit_elastic_net
    return CoefficientGrid(std.y_mean - (slopes[:, None, :] @ std.means)[:, 0], slopes,
                           np.ones(len(lams), dtype=bool), np.zeros(len(lams), dtype=int),
                           std.means, std.scales)


def _factor(
    gram: np.ndarray, factors: dict, active: np.ndarray, ridge: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """``(sub, w, V, top, null)``: the sub-Gram of ``active``, ``sub = V diag(w) V'``
    with ``w`` ascending (factored once per active set into ``factors``), its
    largest diagonal entry, and which eigenvalues of ``sub + ridge*I`` count
    as 0 (at most ``PIVOT_RTOL`` of ``top + ridge``), per row of a ``(k, 1)`` ``ridge``."""
    key = active.tobytes()
    found = factors.get(key)
    if found is None:
        sub = gram[active][:, active]
        top = float(np.max(np.diag(sub), initial=0.0))  # 0 when every column is constant
        found = factors[key] = (sub, *np.linalg.eigh(sub), top)
    sub, w, V, top = found
    return sub, w, V, top, w + ridge <= PIVOT_RTOL * (top + ridge)


def _minimum_norm(gram: np.ndarray, q: np.ndarray, gram_diag: np.ndarray, factors: dict,
                  ridges: np.ndarray) -> np.ndarray:
    """Minimum-norm minimizers of ``b'(gram + ridge*I)b - 2q'b``, a row per weight in
    ``ridges``: ``V diag(1/(w + ridge)) V'q`` over the non-constant columns, 0 in the
    others and along directions :func:`_factor` counts as 0.  Rows do not depend on k."""
    active = np.flatnonzero(gram_diag)
    _, w, V, _, null = _factor(gram, factors, active, ridges[:, None])
    c = (V.T @ q[active]) / np.where(null, np.inf, w + ridges[:, None])
    beta = np.zeros((len(ridges), len(q)))
    beta[:, active] = (V @ c[:, :, None])[:, :, 0]
    return beta


def coordinate_descent(
    gram: np.ndarray,
    q: np.ndarray,
    y_ss: float,
    gram_diag: np.ndarray,
    lam: float,
    alpha: float,
    tol: float,
    max_iter: int,
    beta0: np.ndarray | None = None,
    factors: dict | None = None,
) -> tuple[np.ndarray, bool, int]:
    """Cyclic coordinate descent for the centered, slope-only problem.

    Minimizes ``sum((yc - Xs b)^2) + lam*(alpha*sum|b| + (1-alpha)*sum b^2)``
    with the update

        b_j <- S(sum_i x_ij r_i^(j), lam*alpha/2) / (sum_i x_ij^2 + lam*(1-alpha))

    where ``r^(j)`` is the partial residual excluding j and
    ``S(z, g) = sign(z) * max(|z| - g, 0)``.  The design enters only
    through ``gram = Xs'Xs``, ``q = Xs'yc``, ``y_ss = yc'yc`` and
    ``gram_diag = diag(gram)``, which the caller forms once per design
    (:meth:`DesignProblem.standardized`) and shares across a penalty grid.
    Gradients are maintained through ``gram``, so an untouched coordinate
    costs O(1).

    Before any cycle, the start's nonzero set (on a warm start, the
    previous weight's support) is solved exactly as below, and every
    coordinate's exact update is formed at once from the result.  If none
    moves a coefficient by more than ``tol``, the fit is certified without
    a cycle and ``(beta, True, 0)`` is returned (glmnet's "solve the active
    set, then check all", Friedman, Hastie & Tibshirani, JSS 2010; the
    check is the KKT check of the strong rules, Tibshirani et al., JRSS-B
    2012).  Otherwise each iteration is one full cycle over every
    coordinate followed by one exact solve restricted to the nonzero set,
    and convergence is a full cycle whose largest coefficient change is at
    most ``tol``.  A constant column (``gram_diag[j] == 0``) gets exactly
    0.  Without an L1 term (``lam*alpha == 0``) no cycle runs: ``beta`` is
    the one-weight :func:`_minimum_norm` solve (a constant column keeps
    ``beta0`` if unpenalized), and ``(beta, True, 0)`` is returned.

    With its signs fixed, the problem restricted to the nonzero set is a
    plain quadratic, which cuts the slow tail of ill-conditioned problems
    to a handful of cycles.  Each active set's sub-Gram is factored once,
    by ``eigh``, into ``factors`` (a dict keyed by the active indices;
    :func:`fit_elastic_net` passes the design's
    :attr:`Standardized.factors`, so every weight of a grid shares it); the
    ridge term only shifts its eigenvalues.  A set is singular when its
    smallest shifted eigenvalue is at most ``PIVOT_RTOL`` of its largest
    shifted diagonal entry.  Every step below is committed only if it does
    not raise the objective, beyond what the curvature counted as 0 allows
    for a step in a null space.

    * On a nonsingular set the exact solution is committed when it keeps
      the signs.  A solution that flips signs is a descent direction
      instead: the sign-fixed objective falls along the segment to it and
      equals the objective up to the first sign change (the active-set
      step of Osborne, Presnell & Turlach, IMA J. Numer. Anal. 2000).
    * On a singular lasso set the quadratic part is flat along the null
      vector ``v``, so the objective changes along it only through the L1
      term, with slope ``lam*alpha * sign(b)'v``, and the descending sign
      of ``v`` is the direction.
    * A singular set with a ridge term is left as it is.

    Along a descent direction the iterate moves until its first
    coefficient reaches 0, that coefficient is set to exactly 0, and the
    solve is retried on the smaller set.  A solve follows every cycle, so a
    singular set is stepped again after each and a fit cannot creep along
    a null direction.  A lasso solution with at most rank(Xs) nonzeros
    exists (Tibshirani, "The lasso problem and uniqueness", EJS 2013), and
    these steps reach one.  Convergence is still certified only by the
    pre-cycle test or a full cycle within ``tol``.

    Returns ``(beta, converged, n_sweeps)``, where ``n_sweeps`` counts full
    cycles (0 when the pre-cycle test certifies the fit).  Cycles never
    raise the objective; its change is evaluated only to accept or reject
    a restricted solve or step.
    """
    p = q.shape[0]
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    ridge = lam * (1.0 - alpha)
    thresh = lam * alpha / 2.0
    factors = {} if factors is None else factors
    if thresh == 0.0:  # a plain quadratic: its minimum-norm minimizer, in one solve
        solved = _minimum_norm(gram, q, gram_diag, factors, np.array([ridge]))[0]
        # an unpenalized constant column fits at any value and keeps its start
        return np.where(gram_diag + ridge > 0.0, solved, beta), True, 0
    grad = q - gram @ beta  # grad[j] = sum_i x_ij r_i at the current beta

    def sweep() -> float:
        nonlocal grad
        max_delta = 0.0
        for j in range(p):
            bj = beta.item(j)
            # a zero-variance column has rho = 0, so the L1 term sets b_j = 0
            rho = grad.item(j) + diag[j] * bj  # partial residual correlation
            mag = abs(rho) - thresh
            bnew = math.copysign(mag, rho) / denom[j] if mag > 0.0 else 0.0
            if bnew != bj:
                grad -= rows[j] * (bnew - bj)
                beta[j] = bnew
                delta = abs(bnew - bj)
                if delta > max_delta:
                    max_delta = delta
        return max_delta

    def commit(active: np.ndarray, sub: np.ndarray, values: np.ndarray,
               curvature: float = 0.0) -> bool:
        """Set ``beta[active] = values`` unless that raises the objective.

        ``values`` keep the signs of ``beta[active]`` or are 0, so the L1
        term changes by ``signs'step``; the change is formed from the step
        itself, since the rounding of two whole objective values can exceed
        a short step's decrease.  A step in a null space, along which the
        singularity rule counts curvature up to ``curvature`` as 0, may rise
        by what that curvature allows: ``|Xs step|^2 <= curvature*|step|^2``
        in the quadratic term and ``2*|Xs step|*|r|`` in the linear one.
        """
        nonlocal grad
        b = beta[active]
        step = values - b
        change = (
            float(step @ (sub @ step)) - 2.0 * float(step @ grad[active])
            + 2.0 * thresh * float(np.sign(b) @ step) + ridge * float(step @ (b + values))
        )
        if change > 0.0:
            bound = curvature * float(step @ step)
            rss = y_ss - float(beta @ q) - float(beta @ grad)
            if change > bound + 2.0 * math.sqrt(bound * max(rss, 0.0)):
                return False
        beta[active] = values
        grad = q - gram @ beta
        return True

    def first_zero(b: np.ndarray, direction: np.ndarray) -> np.ndarray | None:
        """``b`` moved along ``direction`` until its first coefficient reaches 0,
        which is set to exactly 0; None if none moves toward 0."""
        toward = np.flatnonzero(b * direction < 0.0)
        if not toward.size:
            return None
        t = -b[toward] / direction[toward]
        first = int(np.argmin(t))
        moved = b + t[first] * direction
        moved[toward[first]] = 0.0
        return moved

    def restricted_solve(active: np.ndarray) -> None:
        """Solve the sign-fixed problem on ``active`` exactly; commit if valid.

        A solution that flips signs, or a singular lasso set, gives a descent
        direction instead: the iterate steps along it to the first zero and
        the solve is retried on the smaller set.
        """
        while len(active):
            sub, w, V, top, null = _factor(gram, factors, active, ridge)
            b = beta[active]
            signs = np.sign(b)
            if not null.any():
                solution = V @ ((V.T @ (q[active] - thresh * signs)) / (w + ridge))
                if not np.any(solution * signs < 0.0):
                    commit(active, sub, solution)
                    return
                moved, curvature = first_zero(b, solution - b), 0.0
            elif ridge == 0.0:
                v = V[:, 0]  # the objective's slope along v is lam*alpha*signs'v
                moved = first_zero(b, -v if signs @ v > 0.0 else v)
                curvature = PIVOT_RTOL * top
            else:
                return
            if moved is None or not commit(active, sub, moved, curvature):
                return
            active = np.flatnonzero(beta)

    # a warm start's support is most often the new weight's too: solve on it, and
    # return it if no exact coordinate step from it moves a coefficient beyond tol
    restricted_solve(np.flatnonzero(beta))
    rho = grad + gram_diag * beta
    denominator = gram_diag + ridge
    # every exact coordinate update at once; a constant, unridged column gets 0
    update = np.divide(np.sign(rho) * np.maximum(np.abs(rho) - thresh, 0.0), denominator,
                       out=np.zeros(p), where=denominator > 0.0)
    if np.all(np.abs(update - beta) <= tol):
        return beta, True, 0
    # the per-coordinate loop reads plain floats and row views, not numpy scalars
    denom = denominator.tolist()
    diag = gram_diag.tolist()
    rows = list(gram)
    converged = False
    sweeps = 0
    while sweeps < max_iter:
        sweeps += 1
        max_delta = sweep()
        if not math.isfinite(max_delta):
            raise NonFiniteEncountered(f"coordinate descent diverged at sweep {sweeps}")
        if max_delta <= tol:
            converged = True
            break
        restricted_solve(np.flatnonzero(beta))
    return beta, converged, sweeps


def duality_gap(
    gram: np.ndarray,
    q: np.ndarray,
    y_ss: float,
    beta: np.ndarray,
    lam: float,
    alpha: float,
) -> float:
    """Duality gap of ``beta`` in :func:`coordinate_descent`'s problem.

    The primal is ``P(b) = |yc - Xs b|^2 + lam*(alpha*|b|_1 + (1-alpha)*|b|^2)``,
    read from ``gram = Xs'Xs``, ``q = Xs'yc`` and ``y_ss = yc'yc``.  With
    ``t = lam*alpha/2`` and ``mu = lam*(1-alpha)`` its Fenchel dual is

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
    gram_b = gram @ b
    grad = q - gram_b  # Xs'r
    penalty = lam * (alpha * float(np.abs(b).sum()) + (1.0 - alpha) * float(b @ b))
    if ridge > 0.0:
        c = 1.0
        conjugate = float(np.sum(np.maximum(np.abs(grad) - thresh, 0.0) ** 2)) / ridge
    else:
        top = float(np.max(np.abs(grad), initial=0.0))
        c = 1.0 if top <= thresh else thresh / top
        conjugate = 0.0
    # P - D expanded so that y_ss cancels exactly where c = 1
    rss = y_ss - 2.0 * float(q @ b) + float(b @ gram_b)
    return penalty + conjugate - 2.0 * c * float(b @ grad) + (1.0 - c) ** 2 * rss


def fit_elastic_net(
    problem: DesignProblem,
    lam: float,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    standardize: bool = True,
    warm_start: CoefficientSet | None = None,
) -> CoefficientSet:
    """Elastic-net fit by cyclic coordinate descent.

    ``lam >= 0`` is the shrinkage strength and ``alpha`` in [0, 1] the L1
    fraction: ``alpha=1`` gives the lasso, ``alpha=0`` the ridge penalty
    (:func:`fit_ridge` at a positive weight is this fit).  ``warm_start``
    seeds the slopes from a previous fit of the same design (used along
    regularization paths).  A fit is certified either before any cycle,
    when no exact coordinate update from the solve on the start's nonzero
    set moves a coefficient by more than ``tol`` (``n_sweeps == 0``), or by
    a full cycle that moves none by more than ``tol``
    (:func:`coordinate_descent`).  Hitting ``max_iter`` is not an error: the
    best iterate is returned with ``converged=False``.  Without an L1 term
    it is one exact, minimum-norm solve with ``n_sweeps == 0``.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    std = problem.standardized(standardize)
    beta0 = None
    if warm_start is not None:
        if warm_start.p != problem.p:
            raise ValueError(
                f"warm start has {warm_start.p} coefficients, problem has {problem.p}"
            )
        beta0 = warm_start.betas * std.scales  # back to the standardized scale
    beta_std, converged, sweeps = coordinate_descent(
        std.gram, std.q, std.y_ss, std.gram_diag, lam, alpha,
        tol, max_iter, beta0=beta0, factors=std.factors,
    )
    if not np.isfinite(beta_std).all():
        raise NonFiniteEncountered("coordinate descent produced non-finite coefficients")
    betas = beta_std / std.scales
    return CoefficientSet(std.y_mean - betas @ std.means, betas, std.means, std.scales,
                          converged, sweeps)
