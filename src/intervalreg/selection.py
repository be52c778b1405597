"""Penalty-weight selection: grids, k-fold cross-validation, coefficient paths.

Cross-validation shuffles row indices with a seeded PCG64 generator
(``numpy.random.default_rng``), so a fixed seed makes the whole
procedure reproducible.  Each fold fits the whole lambda grid once from
its training rows (:func:`~intervalreg.models.fit_grid`, one array row
per lambda) and scores every lambda on its held-out rows with one matrix
product per endpoint.  The held-out loss is the mean of squared lower
and upper endpoint errors, ``(RMSE_L^2 + RMSE_U^2) / 2``; for
center-and-range methods one shared lambda drives both the midpoint and
the half-range fit (independent range selection is available through
``component="range"``).  Coefficient paths fit one design along the grid
with the same routine as the folds (:func:`~intervalreg.models.fit_design`),
reusing the design :func:`make_lambda_grid` read the grid's top from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from .models import GridFit, MethodSpec, fit_design, fit_grid
from .solvers import DEFAULT_MAX_ITER, DEFAULT_TOL, DesignProblem
from .tables import (
    CenterRangeView,
    IntervalTable,
    predictor_bounds,
    response_bounds,
    to_center_range,
)

COMPONENTS = ("interval", "center", "range")


class ZeroVarianceResponse(ValueError):
    """The response carries no signal, so the grid top would be zero."""


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly descending penalty weights (an optional trailing zero is legal), and
    the ``problem`` :func:`make_lambda_grid` read them from, for a path to reuse."""

    values: tuple[float, ...]
    problem: DesignProblem | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("grid needs at least one value")
        for v in vals:
            if not (isfinite(v) and v >= 0.0):
                raise ValueError(f"grid values must be finite and >= 0, got {v}")
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise ValueError("grid must be strictly descending")
        if any(v == 0.0 for v in vals[:-1]):
            raise ValueError("only the terminal grid value may be zero")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def make_lambda_grid(X: np.ndarray, y: np.ndarray, alpha: float, n_points: int = 100) -> LambdaGrid:
    """Log-spaced grid from the all-zero-solution lambda down to a small multiple.

    The top value is ``2 * max_j |sum_i xs_ij (y_i - mean(y))| / max(alpha, 0.001)``
    on standardized predictors, the smallest weight with an all-zero lasso
    solution when ``alpha=1``.  The bottom is ``eps`` times the top,
    ``eps = 1e-4`` when n > p, else ``1e-2``.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")
    problem = DesignProblem(X, y)
    lam_max = 2.0 * float(np.max(np.abs(problem.standardized().q))) / max(alpha, 0.001)
    if lam_max <= 0.0:
        raise ZeroVarianceResponse(
            "response has no variation around its mean (lambda_max = 0)"
        )
    eps = 1e-4 if problem.n > problem.p else 1e-2
    values = np.geomspace(lam_max, eps * lam_max, n_points)
    return LambdaGrid(tuple(values), problem)


@dataclass(frozen=True, eq=False)
class CvResult:
    """Per-lambda cross-validation curve and the two chosen weights.

    ``nonconverged`` counts the fits that stopped without converging:
    the fold fits behind the curve plus the path points behind ``nonzero``.
    """

    grid: LambdaGrid
    mean_loss: np.ndarray
    std_error: np.ndarray
    lambda_min: float
    lambda_1se: float
    seed: int
    folds: int
    nonzero: tuple[int, ...]
    nonconverged: int = 0

    def __post_init__(self):
        if len(self.mean_loss) != len(self.grid) or len(self.std_error) != len(self.grid):
            raise ValueError("loss vectors must match the grid length")
        if self.lambda_1se < self.lambda_min:
            raise ValueError("lambda_1se must be >= lambda_min")


def _fold_losses(fits: GridFit, test: IntervalTable, component: str) -> np.ndarray:
    """Held-out loss of every grid weight on one fold's test rows."""
    lower, upper = fits.predict_bounds(*predictor_bounds(test))
    y_lo, y_hi = (v[:, None] for v in response_bounds(test))
    if component == "interval":
        loss = ((y_lo - lower) ** 2 + (y_hi - upper) ** 2) / 2.0
    elif component == "center":
        loss = ((y_lo + y_hi) / 2.0 - (lower + upper) / 2.0) ** 2
    else:
        loss = ((y_hi - y_lo) / 2.0 - (upper - lower) / 2.0) ** 2
    return loss.mean(axis=0)


def cross_validate(
    table: IntervalTable,
    spec: MethodSpec,
    grid: LambdaGrid | None = None,
    k: int | None = None,
    seed: int = 0,
    n_points: int = 100,
    component: str = "interval",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CvResult:
    """k-fold cross-validation of the penalty weight for one method.

    Rows are shuffled by a generator seeded with ``seed`` and split into k
    near-equal folds.  Each fold builds its training view once and fits
    the whole grid from it with :func:`~intervalreg.models.fit_grid`
    (ridge: every lambda in one solve; lasso / elastic net: warm-started
    down the grid), then scores every lambda on its held-out rows with one
    matrix product per endpoint.  Only the family, penalty and alpha of ``spec``
    are used; one shared lambda drives the midpoint and half-range fits.
    ``k=None`` means 10 folds, reduced to n on small tables.
    ``lambda_min`` minimizes the mean loss and ``lambda_1se`` is the
    largest lambda within one standard error of that minimum.
    ``component`` switches the held-out loss between the full interval
    (default), midpoints only, or half-ranges only.
    """
    if spec.penalty == "none":
        raise ValueError("cross-validation needs a penalized method")
    if component not in COMPONENTS:
        raise ValueError(f"component must be one of {COMPONENTS}, got {component!r}")
    n = table.n_rows
    if k is None:
        k = 10 if n >= 10 else n
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n folds, got k={k}, n={n}")
    view = to_center_range(table)
    if grid is None:
        X, y = view.design(component)
        grid = make_lambda_grid(X, y, spec.effective_alpha, n_points)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)

    losses = np.empty((k, len(grid)))
    nonconverged = 0
    for fi, test_idx in enumerate(folds):
        if len(test_idx) == 0:
            raise ValueError(f"fold {fi} has zero test rows")
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train = to_center_range(table.take(np.flatnonzero(mask)))
        fits = fit_grid(train, spec, grid.values, tol=tol, max_iter=max_iter)
        nonconverged += fits.nonconverged
        losses[fi] = _fold_losses(fits, table.take(test_idx), component)

    mean_loss = losses.mean(axis=0)
    std_error = losses.std(axis=0, ddof=1) / sqrt(k)
    i_min = int(np.argmin(mean_loss))  # ties resolve to the largest lambda
    lambda_min = grid.values[i_min]
    cutoff = mean_loss[i_min] + std_error[i_min]
    i_1se = int(np.flatnonzero(mean_loss <= cutoff)[0])
    lambda_1se = grid.values[i_1se]

    path_component = "range" if component == "range" else "center"
    path = coefficient_path(
        view, spec, grid, component=path_component, tol=tol, max_iter=max_iter
    )
    return CvResult(
        grid, mean_loss, std_error, lambda_min, lambda_1se,
        seed=seed, folds=k, nonzero=path.nonzero,
        nonconverged=nonconverged + path.nonconverged,
    )


@dataclass(frozen=True)
class AlphaSweepResult:
    """Winner of an alpha sweep plus the per-alpha curves."""

    alpha: float
    lam: float
    loss: float
    per_alpha: tuple[tuple[float, "CvResult"], ...]


def alpha_sweep(
    table: IntervalTable,
    family: str,
    alphas,
    k: int | None = None,
    seed: int = 0,
    n_points: int = 100,
    component: str = "interval",
) -> AlphaSweepResult:
    """Cross-validate an elastic net per alpha; return the best (alpha, lambda).

    Ties in mean loss break toward larger alpha, then larger lambda.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alpha sweep needs at least one alpha")
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {a}")
    results = []
    best = None
    for a in alphas:
        spec = MethodSpec(family, "elastic_net", alpha=a)
        cv = cross_validate(
            table, spec, k=k, seed=seed, n_points=n_points, component=component
        )
        i_min = int(np.argmin(cv.mean_loss))
        cand = (float(cv.mean_loss[i_min]), a, cv.lambda_min)
        results.append((a, cv))
        if (
            best is None
            or cand[0] < best[0]
            or (cand[0] == best[0] and (cand[1], cand[2]) > (best[1], best[2]))
        ):
            best = cand
    return AlphaSweepResult(best[1], best[2], best[0], tuple(results))


@dataclass(frozen=True, eq=False)
class CoefficientPath:
    """Per-lambda coefficients of one design, on the original predictor scale.

    ``nonzero`` counts each point's nonzero coefficients, and ``nonconverged``
    the points whose fit stopped without converging.
    """

    grid: LambdaGrid
    intercepts: np.ndarray          # (len(grid),)
    coefficients: np.ndarray        # (len(grid), p)
    predictor_names: tuple[str, ...]
    nonconverged: int = 0

    @property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(np.count_nonzero(self.coefficients, axis=1).tolist())


def coefficient_path(
    table: IntervalTable | CenterRangeView,
    spec: MethodSpec,
    grid: LambdaGrid,
    component: str = "center",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CoefficientPath:
    """Coefficients along a descending grid, warm-started between points.

    ``component`` picks the design: midpoints (default) or half-ranges.
    The design is fitted by :func:`~intervalreg.models.fit_design`, whose
    arrays are the path's: each lasso / elastic-net fit starts from the
    previous (larger-lambda) solution, and all ridge points are one solve.
    A ``grid`` from :func:`make_lambda_grid` on this design lends its
    problem.  Support restriction does not apply here, the path is the
    plain per-design solution.  ``table`` may be given as its center/range
    view (:func:`~intervalreg.tables.to_center_range`) by a caller that
    already built it.
    """
    if spec.penalty == "none":
        raise ValueError("coefficient paths need a penalized method")
    if component not in ("center", "range"):
        raise ValueError(f"component must be 'center' or 'range', got {component!r}")
    view = table if isinstance(table, CenterRangeView) else to_center_range(table)
    X, y = view.design(component)
    problem = grid.problem
    if problem is None or not (np.array_equal(problem.X, X) and np.array_equal(problem.y, y)):
        problem = DesignProblem(X, y)
    fits = fit_design(problem, spec, grid.values, tol=tol, max_iter=max_iter)
    return CoefficientPath(
        grid, fits.intercepts, fits.slopes, view.predictor_names,
        nonconverged=int(np.count_nonzero(~fits.converged)),
    )
