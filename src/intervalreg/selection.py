"""Penalty-weight selection: grids, k-fold cross-validation, coefficient paths.

Cross-validation shuffles row indices with a seeded PCG64 generator
(``numpy.random.default_rng``), so a fixed seed makes the whole
procedure reproducible.  A CV run builds the table's center/range view
once and cuts the folds of one size from it as a stack: one row gather
per array and one stacked :func:`~intervalreg.solvers.standardize` per
design give each fold a training view whose standardized designs every
method of the run (each alpha of :func:`alpha_sweep`) shares.
:data:`STACK_CELLS` caps a stack's training cells, so a large table goes
one fold at a time.  Each stack fits each method's whole lambda grid once on
all its folds (:func:`~intervalreg.models.fit_grids`), and scores every lambda
of its folds on their held-out rows in one pass, one matrix product per
endpoint.  The held-out loss is the mean of squared lower
and upper endpoint errors, ``(RMSE_L^2 + RMSE_U^2) / 2``; for
center-and-range methods one shared lambda drives both the midpoint and
the half-range fit (independent range selection is available through
``component="range"``).  A coefficient path is the
:class:`~intervalreg.solvers.CoefficientGrid` of one design along the grid, fitted
by the folds' routine (:func:`~intervalreg.models.fit_component`) on the view's
standardized design that the grid's top was read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import isfinite, sqrt

import numpy as np

from .models import GridFit, MethodSpec, fit_component, fit_grids
from .solvers import (
    CoefficientGrid,
    NonFiniteEncountered,
    SolverError,
    Standardized,
    standardize,
)
from .tables import (
    CenterRangeView,
    IntervalTable,
    predictor_bounds,
    response_bounds,
    to_center_range,
)

COMPONENTS = ("interval", "center", "range")

#: training cells (rows x predictors) of the folds one stack of :func:`cross_validate`
#: gathers and standardizes at once; a fold larger than this is a stack of its own.
STACK_CELLS = 1 << 16


class ZeroVarianceResponse(ValueError):
    """The response carries no signal, so the grid top would be zero."""


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly descending penalty weights (an optional trailing zero is legal)."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("grid needs at least one value")
        for v in vals:
            if not (isfinite(v) and v >= 0.0):
                raise ValueError(f"grid values must be finite and >= 0, got {v}")
        if any(a <= b for a, b in zip(vals, vals[1:])):  # so only the last may be 0
            raise ValueError("grid must be strictly descending")
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
    return lambda_grid(standardize(X, y), alpha, n_points)


def lambda_grid(std: Standardized, alpha: float, n_points: int = 100) -> LambdaGrid:
    """:func:`make_lambda_grid` of a design already standardized.  A response whose
    sums overflow (a non-finite ``std.q``) raises
    :class:`~intervalreg.solvers.NonFiniteEncountered`."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")
    if not np.isfinite(std.q).all():  # as CenterRangeView.standardized rejects it
        raise NonFiniteEncountered("sums of the response overflow; "
                                   "the regression on them cannot be fitted")
    lam_max = 2.0 * float(np.max(np.abs(std.q))) / max(alpha, 0.001)
    if lam_max <= 0.0:
        raise ZeroVarianceResponse("response has no variation around its mean (lambda_max = 0)")
    eps = 1e-4 if std.n > len(std.q) else 1e-2
    return LambdaGrid(tuple(np.geomspace(lam_max, eps * lam_max, n_points)))


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


def _fold_losses(fits: GridFit, test: list[np.ndarray], component: str,
                 scale: float) -> np.ndarray:
    """Held-out loss of every grid weight on test rows ``[X_lo, X_hi, y_lo, y_hi]``, in
    units of ``scale**2``: each error is divided by ``scale`` before it is squared.
    A :meth:`~intervalreg.models.GridFit.stack` of folds scores a stack of their test
    rows, ``(folds, m, p)`` and ``(folds, m)``, as one ``(folds, k)`` array."""
    lower, upper = fits.predict_bounds(test[0], test[1])
    y_lo, y_hi = test[2][..., None], test[3][..., None]
    if component == "interval":
        loss = (((y_lo - lower) / scale) ** 2 + ((y_hi - upper) / scale) ** 2) / 2.0
    elif component == "center":
        loss = (((y_lo + y_hi) / 2.0 - (lower + upper) / 2.0) / scale) ** 2
    else:
        loss = (((y_hi - y_lo) / 2.0 - (upper - lower) / 2.0) / scale) ** 2
    return loss.mean(axis=-2)


def _loss_scale(y_lo: np.ndarray, y_hi: np.ndarray) -> float:
    """The largest power of two at most the response's largest magnitude, and at least
    the smallest normal double (1/2 for an all-zero response).  Dividing by it and
    multiplying back is exact where nothing overflows or underflows, so losses scored
    in its units pick the weights that losses in the response's units pick, and errors
    near 1e155 square without overflow."""
    peak = max(float(np.max(np.abs(y_lo))), float(np.max(np.abs(y_hi))))
    return float(np.ldexp(1.0, max(int(np.frexp(peak)[1]) - 1, -1022)))


def _cv_run(table: IntervalTable, specs: list[MethodSpec], grid: LambdaGrid | None,
            k: int | None, seed: int, n_points: int, component: str) -> list[CvResult]:
    """One :class:`CvResult` per spec from one set of folds: each fold's view and the
    designs it standardizes serve every spec.  Folds of one size go as stacks of at
    most :data:`STACK_CELLS` training cells, in fold order: one row gather, one
    standardization per design and one scoring pass per spec serve a stack, which is
    released when its folds end.  A cm spec's whole-table path fits with the first
    stack, as one more design of it.  A failing fit raises what fitting fold by fold,
    each fold's specs in turn and the paths last, raises first."""
    if component not in COMPONENTS:
        raise ValueError(f"component must be one of {COMPONENTS}, got {component!r}")
    n = table.n_rows
    k = min(n, 10) if k is None else k
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n folds, got k={k}, n={n}")
    view = to_center_range(table)
    bounds = (*predictor_bounds(table), *response_bounds(table))
    grids = [lambda_grid(view.standardized(component), s.effective_alpha, n_points)
             if grid is None else grid for s in specs]
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    scale = _loss_scale(*bounds[2:])
    losses = np.empty((len(specs), k, len(grids[0])))
    nonconverged = [0] * len(specs)
    designs = ("center", "range") if any(s.family == "crm" for s in specs) else ("center",)
    # a cm spec's path (for nonzero) is the center grid of the whole table's view, which
    # joins the first stack's folds; other paths are fitted alone at the end
    paths = [None] * len(specs)
    fi = 0
    for size, group in groupby(folds, len):  # array_split's larger folds come first
        group = np.array(list(group))
        per_stack = max(1, STACK_CELLS // ((n - size) * view.centers_X.shape[1]))
        for test_idx in np.array_split(group, range(per_stack, len(group), per_stack)):
            m = len(test_idx)
            train = np.ones((m, n), dtype=bool)
            train[np.arange(m)[:, None], test_idx] = False
            views = view.take(np.nonzero(train)[1].reshape(m, n - size), designs)
            try:
                fits = []
                for si, (spec, g) in enumerate(zip(specs, grids)):
                    joined = not fi and spec.family == "cm" and component != "range"
                    fits.append(fit_grids([*views, view] if joined else views, spec, g.values))
                    if joined:
                        paths[si] = fits[-1].pop().centers
            except SolverError:
                # the error a fold-by-fold run raises first: the first failing fold's, each
                # fold's specs in turn, or, where every fold fits, the whole-table path's,
                # from coefficient_path below after the loss check
                paths = [None] * len(specs)
                fits = [list(spec_fits) for spec_fits in zip(*(
                    [fit_grids([fold], spec, g.values)[0] for spec, g in zip(specs, grids)]
                    for fold in views))]
            del views  # free the stack's rows and designs before the next one is gathered
            test = [b[test_idx] for b in bounds]
            for si, spec_fits in enumerate(fits):
                nonconverged[si] += sum(f.nonconverged for f in spec_fits)
                losses[si, fi:fi + m] = _fold_losses(GridFit.stack(spec_fits), test,
                                                     component, scale)
            fi += m

    results = []
    for spec, g, fold_losses, stopped, path in zip(specs, grids, losses, nonconverged, paths):
        mean_loss = fold_losses.mean(axis=0)
        std_error = fold_losses.std(axis=0, ddof=1) / sqrt(k)
        i_min = int(np.argmin(mean_loss))  # ties resolve to the largest lambda
        i_1se = int(np.flatnonzero(mean_loss <= mean_loss[i_min] + std_error[i_min])[0])
        with np.errstate(over="ignore"):
            mean_loss, std_error = mean_loss * scale * scale, std_error * scale * scale
        if not (np.isfinite(mean_loss).all() and np.isfinite(std_error).all()):
            raise NonFiniteEncountered(
                f"held-out losses of response {table.response_name!r} overflow: its "
                "errors are too large to square")
        if path is None:
            path = coefficient_path(view, spec, g, "range" if component == "range" else "center")
        results.append(CvResult(
            g, mean_loss, std_error, g.values[i_min], g.values[i_1se], seed=seed, folds=k,
            nonzero=tuple(np.count_nonzero(path.slopes, axis=1).tolist()),
            nonconverged=stopped + int(np.count_nonzero(~path.converged)),
        ))
    return results


def cross_validate(
    table: IntervalTable,
    spec: MethodSpec,
    grid: LambdaGrid | None = None,
    k: int | None = None,
    seed: int = 0,
    n_points: int = 100,
    component: str = "interval",
) -> CvResult:
    """k-fold cross-validation of the penalty weight for one method.

    Rows are shuffled by a generator seeded with ``seed`` and split into k
    near-equal folds.  Each fold's training view is a row subset of the
    table's, and fits the whole grid with :func:`~intervalreg.models.fit_grids`
    (ridge: every lambda in one solve; lasso / elastic net: warm-started
    down the grid); the folds of one size are gathered, standardized and
    scored on their held-out rows as one stack, one matrix product per
    endpoint.  Only the family, penalty and alpha of ``spec``
    are used; one shared lambda drives the midpoint and half-range fits.
    ``k=None`` means 10 folds, reduced to n on small tables.
    ``lambda_min`` minimizes the mean loss and ``lambda_1se`` is the
    largest lambda within one standard error of that minimum.
    ``component`` switches the held-out loss between the full interval
    (default), midpoints only, or half-ranges only.
    """
    if spec.penalty == "none":
        raise ValueError("cross-validation needs a penalized method")
    return _cv_run(table, [spec], grid, k, seed, n_points, component)[0]


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

    All alphas share one CV run: the same folds and, on each fold, the same
    designs and standardizations, which no fit changes; each alpha's
    :class:`CvResult` equals :func:`cross_validate` at that alpha.  Ties in mean
    loss break toward larger alpha, then larger lambda.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alpha sweep needs at least one alpha")
    specs = [MethodSpec(family, "elastic_net", alpha=a) for a in alphas]  # checks each alpha
    results = _cv_run(table, specs, None, k, seed, n_points, component)
    best = None
    for a, cv in zip(alphas, results):
        cand = (float(np.min(cv.mean_loss)), a, cv.lambda_min)
        if best is None or cand[0] < best[0] or (cand[0] == best[0] and cand[1:] > best[1:]):
            best = cand
    return AlphaSweepResult(best[1], best[2], best[0], tuple(zip(alphas, results)))


def coefficient_path(
    table: IntervalTable | CenterRangeView,
    spec: MethodSpec,
    grid: LambdaGrid,
    component: str = "center",
) -> CoefficientGrid:
    """Coefficients along a descending grid, warm-started between points: row i
    of the returned grid is the fit at ``grid.values[i]``.

    ``component`` picks the design: midpoints (default) or half-ranges.
    The view's standardized design (:meth:`~intervalreg.tables.CenterRangeView.standardized`)
    is fitted by :func:`~intervalreg.models.fit_component`, whose grid is the
    path: each lasso / elastic-net fit starts from the previous
    (larger-lambda) solution, and all ridge points are one solve.  Support
    restriction does not apply here, the path is the plain per-design
    solution.  ``table`` may be given as its center/range view
    (:func:`~intervalreg.tables.to_center_range`) by a caller that already
    built it, and then shares that view's standardization.
    """
    if spec.penalty == "none":
        raise ValueError("coefficient paths need a penalized method")
    if component not in ("center", "range"):
        raise ValueError(f"component must be 'center' or 'range', got {component!r}")
    view = table if isinstance(table, CenterRangeView) else to_center_range(table)
    return fit_component([view], component, spec, grid.values)[0]
