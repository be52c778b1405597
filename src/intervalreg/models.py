"""Interval regression methods with a uniform fit/predict interface.

Eight methods over an interval table: the center method (one regression
on interval midpoints, endpoint predictions from the same coefficients)
and the center-and-range method (a second regression on half-ranges,
endpoint predictions center -/+ range), each either unpenalized or with
a ridge, lasso, or elastic-net fit.

Each regression is one design, which :func:`fit_component` fits with one
solver at every weight of a grid: ridge (at weight 0 when unpenalized) or
elastic net (lasso and net).  A constant predictor (say, one of constant
half-range width) gets slope exactly 0.  Under lasso and elastic net, the
half-range regression is fitted on the predictors the midpoint regression kept
alone, so the range model's support is always nested in the center model's.

Endpoint ordering of predictions is not guaranteed; rows with a
predicted lower bound above the upper bound are counted, never silently
repaired (see :func:`swap_violations` for the opt-in fix).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .solvers import (
    CoefficientGrid,
    CoefficientSet,
    SingularDesign,
    fit_elastic_net_path,
    fit_ridge_path,
    restrict,
)
from .tables import CenterRangeView, IntervalTable, columns, to_center_range

FAMILIES = ("cm", "crm")
PENALTIES = ("none", "ridge", "lasso", "elastic_net")

#: cli-style method names -> (family, penalty)
METHOD_NAMES = {
    "cm": ("cm", "none"),
    "crm": ("crm", "none"),
    "ridge-cm": ("cm", "ridge"),
    "lasso-cm": ("cm", "lasso"),
    "net-cm": ("cm", "elastic_net"),
    "ridge-crm": ("crm", "ridge"),
    "lasso-crm": ("crm", "lasso"),
    "net-crm": ("crm", "elastic_net"),
}


class SchemaMismatch(ValueError):
    """Prediction input does not match the fitted model's variables."""


class ModelFormatError(ValueError):
    """Malformed serialized model text."""


class VersionMismatch(ModelFormatError):
    """Serialized model carries an unknown format version."""


@dataclass(frozen=True)
class MethodSpec:
    """Which method to fit.

    ``family`` is ``cm`` or ``crm``; ``penalty`` one of ``none``,
    ``ridge``, ``lasso``, ``elastic_net``.  ``alpha`` is required exactly
    for the elastic net; penalty weights are required exactly when a
    penalty is present.  ``lambda_range`` (crm only) defaults to
    ``lambda_center``, the shared single-weight convention.
    """

    family: str
    penalty: str = "none"
    lambda_center: float = 0.0
    lambda_range: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}, got {self.penalty!r}")
        if self.penalty == "none":
            if self.lambda_center != 0.0 or self.lambda_range is not None or self.alpha is not None:
                raise ValueError(f"method {self.name!r} takes no penalty parameters")
            return
        if self.penalty != "elastic_net" and self.alpha is not None:
            raise ValueError(f"method {self.name!r} does not take alpha")
        if not (isfinite(self.lambda_center) and self.lambda_center >= 0.0):
            raise ValueError(f"lambda_center must be finite and >= 0, got {self.lambda_center}")
        if self.lambda_range is not None:
            if self.family != "crm":
                raise ValueError("lambda_range only applies to crm families")
            if not (isfinite(self.lambda_range) and self.lambda_range >= 0.0):
                raise ValueError(f"lambda_range must be finite and >= 0, got {self.lambda_range}")
        if self.penalty == "elastic_net":
            if self.alpha is None:
                raise ValueError("elastic net needs alpha")
            if not (0.0 <= self.alpha <= 1.0):
                raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @classmethod
    def from_name(
        cls,
        name: str,
        lambda_center: float = 0.0,
        lambda_range: float | None = None,
        alpha: float | None = None,
    ) -> "MethodSpec":
        """Build a spec from a cli-style method name like ``lasso-crm``."""
        try:
            family, penalty = METHOD_NAMES[name]
        except KeyError:
            raise ValueError(
                f"unknown method {name!r}; choose from {', '.join(METHOD_NAMES)}"
            ) from None
        return cls(family, penalty, lambda_center, lambda_range, alpha)

    @property
    def name(self) -> str:
        return next(name for name, kind in METHOD_NAMES.items()
                    if kind == (self.family, self.penalty))

    @property
    def effective_alpha(self) -> float:
        """L1 fraction handed to the coordinate-descent solver."""
        if self.penalty == "none":
            raise ValueError("no penalty, no alpha")
        return float({"ridge": 0.0, "lasso": 1.0}.get(self.penalty, self.alpha))

    @property
    def effective_lambda_range(self) -> float:
        return self.lambda_center if self.lambda_range is None else self.lambda_range

    @property
    def selects_variables(self) -> bool:
        """True when the penalty can zero out coefficients (lasso / net)."""
        return self.penalty in ("lasso", "elastic_net")


@dataclass(frozen=True, eq=False)
class FittedModel:
    """The result of :func:`fit`: coefficients plus the spec that made them."""

    spec: MethodSpec
    predictor_names: tuple[str, ...]
    response_name: str
    center_coeffs: CoefficientSet
    range_coeffs: CoefficientSet | None = None

    def __post_init__(self):
        names = tuple(self.predictor_names)
        object.__setattr__(self, "predictor_names", names)
        if not self.response_name.strip():
            raise ValueError(f"response: {self.response_name!r} is an empty name")
        fault = ("an empty name" if not all(name.strip() for name in names) else
                 "a repeated name" if len(set(names)) < len(names) else
                 f"the response {self.response_name!r}" if self.response_name in names else None)
        if fault:
            raise ValueError(f"predictors: {','.join(names)!r} has {fault}")
        p = len(names)
        if self.center_coeffs.p != p:
            raise ValueError("center coefficient count does not match predictors")
        if self.spec.family == "cm":
            if self.range_coeffs is not None:
                raise ValueError("cm families carry no range coefficients")
            return
        if self.range_coeffs is None:
            raise ValueError("crm families need range coefficients")
        if self.range_coeffs.p != p:
            raise ValueError("range coefficient count does not match predictors")
        if self.spec.selects_variables:
            # support nesting: the range model may not use a predictor the
            # center model dropped
            dropped = ~self.center_coeffs.support()
            if np.any(self.range_coeffs.betas[dropped] != 0.0):
                raise ValueError("range support is not nested in center support")

    @property
    def empty_support(self) -> bool:
        """True for a crm lasso or elastic-net model whose center model selected no
        predictor, so that its range model is intercept-only."""
        return (self.spec.family == "crm" and self.spec.selects_variables
                and not self.center_coeffs.support().any())


@dataclass(frozen=True, eq=False)
class IntervalPrediction:
    """Predicted response intervals; ordering violations counted, not fixed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be vectors of equal length")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @property
    def ordering_violations(self) -> int:
        """Rows whose predicted lower bound exceeds the upper."""
        return int(np.sum(self.lower > self.upper))


def swap_violations(prediction: IntervalPrediction) -> IntervalPrediction:
    """Swap endpoints on rows with lower > upper (opt-in repair, off by default)."""
    lo = np.minimum(prediction.lower, prediction.upper)
    hi = np.maximum(prediction.lower, prediction.upper)
    return IntervalPrediction(lo, hi)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def fit_component(
    views: Sequence[CenterRangeView],
    component: str,
    spec: MethodSpec,
    lams: Sequence[float],
    warm: CoefficientSet | None = None,
) -> list[CoefficientGrid]:
    """Fit each view's standardized ``component`` design at each weight of a
    descending grid.

    Row i is the fit at ``lams[i]``.  Ridge fits all weights in one solve
    (:func:`~intervalreg.solvers.fit_ridge_path`); an unpenalized spec is
    ridge at weight 0.  Lasso and elastic net are one
    :func:`~intervalreg.solvers.fit_elastic_net_path` call, warm-started down
    the grid from ``warm`` (a fit of this design): the lasso follows its
    homotopy between breakpoints, the elastic net solves batched runs of
    weights on one support and signs and starts a failing weight again from
    its exact-update point, and coordinate descent runs only at the weights
    whose rows neither certifies.  The views are of one table's
    predictors (one view, or a stack of cross-validation folds), and the list of
    their grids holds each bit for bit as its view's alone: the lasso's homotopies
    run in lockstep.

    A singular design is raised as :class:`~intervalreg.solvers.SingularDesign`
    with the same ``pivot_index``, its message naming the predictor and the
    regression: the midpoints or the half-ranges.
    """
    stds = [view.standardized(component) for view in views]
    try:
        if spec.penalty in ("none", "ridge"):
            weights = np.zeros(len(lams)) if spec.penalty == "none" else lams
            grids = [fit_ridge_path(std, weights) for std in stds]
        else:
            grids = fit_elastic_net_path(stds, lams, spec.effective_alpha,
                                         warm_start=[warm] * len(stds))
    except SingularDesign as exc:
        part = "half-ranges" if component == "range" else "midpoints"
        names = views[0].predictor_names  # a view built without names numbers them
        name = names[exc.pivot_index] if names else exc.pivot_index
        raise SingularDesign(exc.pivot_index, exc.pivot,
                             f"the {part} of predictor {name!r}") from None
    return grids


@dataclass(frozen=True, eq=False)
class GridFit:
    """One method's coefficients at every weight of a penalty grid, as arrays.

    ``centers`` holds the midpoint fits and ``ranges`` the half-range fits
    (``None`` for cm families); row i of each is the fit at grid weight i.
    """

    centers: CoefficientGrid
    ranges: CoefficientGrid | None = None

    @property
    def nonconverged(self) -> int:
        """Fits that stopped without converging (``converged=False``)."""
        grids = (g for g in (self.centers, self.ranges) if g is not None)
        return sum(int(np.count_nonzero(~g.converged)) for g in grids)

    @classmethod
    def stack(cls, fits: Sequence["GridFit"]) -> "GridFit":
        """The fits of one method on the grids of m folds as one, every array with a
        leading fold axis."""
        grids = ([f.centers for f in fits], [f.ranges for f in fits])
        return cls(*(None if g[0] is None else CoefficientGrid(*map(np.stack, zip(
            *((c.intercepts, c.slopes, c.converged, c.n_sweeps) for c in g)))) for g in grids))

    def predict_bounds(
        self, X_lo: np.ndarray, X_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predicted (lower, upper) endpoints, ``(m, k)`` for k grid weights.

        cm predicts each endpoint from the same endpoint of the predictors;
        crm predicts the midpoint and half-range from theirs and returns
        center -/+ range.  One matrix product per endpoint (cm) or per
        design (crm) covers the whole grid; :func:`predict` is the one-weight
        case.  A :meth:`stack` of folds predicts ``(folds, m, p)`` predictor
        stacks, each fold's rows from its own fit, as ``(folds, m, k)``.
        """
        c = self.centers
        c_top, c_slopes = c.intercepts[..., None, :], c.slopes.swapaxes(-1, -2)
        if self.ranges is None:
            return c_top + X_lo @ c_slopes, c_top + X_hi @ c_slopes
        r = self.ranges
        y_center = c_top + ((X_lo + X_hi) / 2.0) @ c_slopes
        y_range = r.intercepts[..., None, :] + ((X_hi - X_lo) / 2.0) @ r.slopes.swapaxes(-1, -2)
        return y_center - y_range, y_center + y_range


def fit_grid(
    view: CenterRangeView,
    spec: MethodSpec,
    lambdas: Sequence[float],
    range_lambdas: Sequence[float] | None = None,
    warm_start: FittedModel | None = None,
) -> GridFit:
    """Fit a method at every weight of a descending penalty grid: :func:`fit_grids`
    of the one view."""
    return fit_grids([view], spec, lambdas, range_lambdas, warm_start)[0]


def fit_grids(
    views: Sequence[CenterRangeView],
    spec: MethodSpec,
    lambdas: Sequence[float],
    range_lambdas: Sequence[float] | None = None,
    warm_start: FittedModel | None = None,
) -> list[GridFit]:
    """Fit a method at every weight of a descending penalty grid, on each of the
    views of one table's predictors (one view, or a stack of cross-validation folds).

    The midpoint regression is fitted at each of ``lambdas``; for crm the
    half-range regression at each of ``range_lambdas`` (default: the same
    weights), under lasso / elastic net on the columns of the center support at
    that weight alone, with slope 0 elsewhere (:func:`_support_runs`).  Only the
    spec's family, penalty and alpha are used.  Each design is one
    :func:`fit_component` call on all the views, except a crm lasso / elastic net's
    half-ranges, which are fitted view by view, so every grid fitted on the same view
    shares one standardization per design.  Lasso / elastic-net fits start from
    ``warm_start`` (a model fit on the same predictors).
    """
    if range_lambdas is None:
        range_lambdas = lambdas
    warm_center = warm_range = None
    if warm_start is not None and warm_start.predictor_names == views[0].predictor_names:
        warm_center, warm_range = warm_start.center_coeffs, warm_start.range_coeffs
    centers = fit_component(views, "center", spec, lambdas, warm_center)
    if spec.family == "cm":
        fits = [GridFit(c) for c in centers]
    elif not spec.selects_variables:
        ranges = fit_component(views, "range", spec, range_lambdas, warm_range)
        fits = [GridFit(c, r) for c, r in zip(centers, ranges)]
    else:
        fits = [GridFit(c, _support_runs(view, c, spec, range_lambdas, warm_range))
                for view, c in zip(views, centers)]
    return fits


def _support_runs(view: CenterRangeView, centers: CoefficientGrid, spec: MethodSpec,
                  lams: Sequence[float], warm: CoefficientSet | None) -> CoefficientGrid:
    """The half-range grid of a crm lasso / elastic net: per run of weights with equal
    center supports, one :func:`~intervalreg.solvers.fit_elastic_net_path` call (a stack
    of one) on the view's half-range design restricted to the support's columns
    (:func:`~intervalreg.solvers.restrict`), warm-started from the row before; a run on
    an empty support is intercept-only, ``converged``, with no step.  The slopes are
    scattered back to p columns, and the grid records the view's ``means``/``scales``."""
    std = view.standardized("range")
    masks = centers.slopes != 0.0
    slopes, k = np.zeros(masks.shape), len(masks)
    converged, n_sweeps = np.ones(k, dtype=bool), np.zeros(k, dtype=int)
    bounds = [0, *(np.flatnonzero((masks[1:] != masks[:-1]).any(axis=1)) + 1), k]
    for start, stop in zip(bounds, bounds[1:]):  # one design per run of equal supports
        cols = np.flatnonzero(masks[start])
        before = slopes[start - 1] if start else None if warm is None else warm.betas
        if len(cols):  # the rows of an empty support keep slope 0
            grid = fit_elastic_net_path(
                [restrict(std, cols)], lams[start:stop], spec.effective_alpha,
                warm_start=[None if before is None else CoefficientSet(0.0, before[cols])])[0]
            slopes[start:stop, cols] = grid.slopes
            converged[start:stop], n_sweeps[start:stop] = grid.converged, grid.n_sweeps
    return CoefficientGrid.of(std, slopes, converged, n_sweeps)  # intercepts over all p columns


def fit(
    table: IntervalTable,
    spec: MethodSpec,
    warm_start: FittedModel | None = None,
) -> FittedModel:
    """Fit an interval regression method on a table with a designated response.

    Every design is fitted on centered, unit-variance predictors and its
    coefficients reported on the original scale, so rescaling a predictor
    rescales its slope and leaves the support and predictions unchanged up
    to rounding.  ``warm_start`` seeds coordinate descent from another model
    fit on the same table (same family), which speeds fits along a
    descending penalty grid.  This is :func:`fit_grid` at the one point
    ``(lambda_center, lambda_range)``.
    """
    view = to_center_range(table)
    n, p = view.centers_X.shape
    if spec.penalty == "none" and n <= p + 1:
        raise ValueError(
            f"unpenalized fit needs more rows than free parameters: n={n}, p+1={p + 1}"
        )
    fits = fit_grid(view, spec, (spec.lambda_center,), (spec.effective_lambda_range,),
                    warm_start)
    ranges = None if fits.ranges is None else fits.ranges[0]
    return FittedModel(spec, view.predictor_names, table.response_name, fits.centers[0], ranges)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _align(table: IntervalTable, model: FittedModel) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper endpoint matrices of the model's predictors, in model order."""
    available = set(table.variable_names)
    for name in model.predictor_names:
        if name not in available:
            raise SchemaMismatch(f"input is missing predictor column {name!r}")
    extras = available - set(model.predictor_names) - {model.response_name}
    if extras:
        raise SchemaMismatch(
            f"input has unexpected columns: {', '.join(sorted(extras))}"
        )
    return columns(table, model.predictor_names)


def predict(model: FittedModel, table: IntervalTable) -> IntervalPrediction:
    """Predict response intervals for every row of ``table``.

    The table must carry the model's predictor columns (a response column
    matching the model is allowed and ignored).  No endpoint clamping is
    performed.
    """
    grids = (None if c is None else CoefficientGrid.stack([c])
             for c in (model.center_coeffs, model.range_coeffs))
    lower, upper = GridFit(*grids).predict_bounds(*_align(table, model))
    return IntervalPrediction(lower[:, 0], upper[:, 0])


# ---------------------------------------------------------------------------
# Serialization: versioned line-oriented key/value text
# ---------------------------------------------------------------------------

FORMAT_TAG = "intervalreg-model/1"

#: The model file's fields in file order, each with the kind of its text: the
#: header, then one coefficient set under ``center.`` and, for the crm
#: families, one under ``range.``.  A kind ending in ``?`` reads ``-`` as None.
_HEADER_FIELDS = {"method": "name", "alpha": "number?", "lambda_center": "number",
                  "lambda_range": "number?", "response": "name", "predictors": "name",
                  "empty_support": "bool"}
_COEFF_FIELDS = {"intercept": "number", "betas": "numbers", "means": "numbers?",
                 "scales": "numbers?", "converged": "bool", "n_sweeps": "count"}


def _text(value, kind: str) -> str:
    if value is None:
        return "-"
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("name", "count"):
        return str(value)
    return " ".join(format(float(x), ".17g") for x in np.atleast_1d(value))


def serialize(model: FittedModel) -> str:
    """Render a fitted model as versioned text, one ``key: value`` line per field of
    the field table (numbers with 17 significant digits, so the round trip is exact)."""
    spec = model.spec
    header = (spec.name, spec.alpha, spec.lambda_center, spec.lambda_range,
              model.response_name, ",".join(model.predictor_names), model.empty_support)
    lines = [FORMAT_TAG] + [f"{key}: {_text(value, kind)}"
                            for (key, kind), value in zip(_HEADER_FIELDS.items(), header)]
    for prefix, coeffs in (("center", model.center_coeffs), ("range", model.range_coeffs)):
        if coeffs is not None:
            lines += [f"{prefix}.{name}: {_text(getattr(coeffs, name), kind)}"
                      for name, kind in _COEFF_FIELDS.items()]
    return "\n".join(lines) + "\n"


def _parse_vec(text: str, key: str, size: int | None = None) -> np.ndarray | None:
    """Finite numbers; with a ``size``, ``-`` (None) is allowed and a list needs ``size``."""
    if text == "-" and size is not None:
        return None
    try:
        values = np.array([float(tok) for tok in text.split()])
    except ValueError:
        raise ModelFormatError(f"malformed numeric list for {key!r}: {text!r}") from None
    if not np.isfinite(values).all():
        raise ModelFormatError(f"non-finite number in {key!r}: {text!r}")
    if size is not None and len(values) != size:
        raise ModelFormatError(f"{key!r} needs {size} numbers, got {len(values)}: {text!r}")
    return values


def _parse_number(text: str, key: str, kind: type = float) -> float:
    try:
        value = kind(text)
    except ValueError:
        raise ModelFormatError(f"malformed number for {key!r}: {text!r}") from None
    if kind is float and not isfinite(value):  # a count is finite even past the largest float
        raise ModelFormatError(f"non-finite number in {key!r}: {text!r}")
    if kind is int and value < 0:
        raise ModelFormatError(f"negative number in {key!r}: {text!r}")
    return value


def _parse_bool(text: str, key: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ModelFormatError(f"malformed boolean for {key!r}: {text!r}")


def deserialize(text: str) -> FittedModel:
    """Parse text produced by :func:`serialize`; the round trip is the identity.

    Each field of the table is read once and checked by its kind; a missing or repeated
    field is a :class:`ModelFormatError` that names it.  Unknown keys are ignored, so
    that a reader accepts a later optional key under the same format tag.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ModelFormatError("empty model text")
    if lines[0].strip() != FORMAT_TAG:
        raise VersionMismatch(
            f"unknown model format {lines[0].strip()!r}, expected {FORMAT_TAG!r}"
        )
    kv: dict[str, str] = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition(":")
        if not sep:
            raise ModelFormatError(f"malformed line {ln!r}")
        if (key := key.strip()) in kv:
            raise ModelFormatError(f"repeated field {key!r}")
        kv[key] = value.strip()

    def field(key: str, kind: str, size: int = 0):
        """The value of ``key``; a ``numbers?`` list needs ``size`` numbers."""
        if key not in kv:
            raise ModelFormatError(f"missing field {key!r}")
        text = kv[key]
        if kind == "name":
            return text
        if kind == "bool":
            return _parse_bool(text, key)
        if kind.startswith("numbers"):
            return _parse_vec(text, key, size if kind == "numbers?" else None)
        if text == "-" and kind == "number?":
            return None
        return _parse_number(text, key, int if kind == "count" else float)

    def coefficients(prefix: str) -> CoefficientSet:
        values: dict = {}  # means and scales follow betas, which sets their size
        for name, kind in _COEFF_FIELDS.items():
            values[name] = field(f"{prefix}.{name}", kind, len(values.get("betas", ())))
        return CoefficientSet(**values)

    method, alpha, lam_c, lam_r, response, predictors, empty_support = (
        field(key, kind) for key, kind in _HEADER_FIELDS.items())
    try:
        spec = MethodSpec.from_name(method, lam_c, lam_r, alpha)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    center = coefficients("center")
    rng = coefficients("range") if "range.intercept" in kv else None
    try:
        model = FittedModel(spec, predictors.split(","), response, center, rng)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    if model.empty_support != empty_support:
        raise ModelFormatError(f"empty_support: {kv['empty_support']} contradicts the "
                               "center coefficients")
    return model
