"""Interval regression methods with a uniform fit/predict interface.

Eight methods over an interval table: the center method (one regression
on interval midpoints, endpoint predictions from the same coefficients)
and the center-and-range method (a second regression on half-ranges,
endpoint predictions center -/+ range), each either unpenalized or with
a ridge, lasso, or elastic-net fit.

For the penalized center-and-range variants with variable selection
(lasso, elastic net), the half-range regression is restricted to the
predictors selected by the midpoint regression: excluded columns get a
half-range coefficient of exactly zero, so the selected support of the
range model is always nested in the center model's.

Endpoint ordering of predictions is not guaranteed; rows with a
predicted lower bound above the upper bound are counted, never silently
repaired (see :func:`swap_violations` for the opt-in fix).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .solvers import (
    CoefficientSet,
    DesignProblem,
    PenaltySpec,
    fit_elastic_net,
    fit_ols,
    fit_ridge,
    predict_linear,
)
from .tables import IntervalTable, to_center_range

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
            raise ValueError(f"lambda_center must be >= 0, got {self.lambda_center}")
        if self.lambda_range is not None:
            if self.family != "crm":
                raise ValueError("lambda_range only applies to crm families")
            if not (isfinite(self.lambda_range) and self.lambda_range >= 0.0):
                raise ValueError(f"lambda_range must be >= 0, got {self.lambda_range}")
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
        for name, (family, penalty) in METHOD_NAMES.items():
            if (family, penalty) == (self.family, self.penalty):
                return name
        raise AssertionError("unreachable")

    @property
    def effective_alpha(self) -> float:
        """L1 fraction handed to the coordinate-descent solver."""
        if self.penalty == "ridge":
            return 0.0
        if self.penalty == "lasso":
            return 1.0
        if self.penalty == "elastic_net":
            return float(self.alpha)  # type: ignore[arg-type]
        raise ValueError("no penalty, no alpha")

    @property
    def effective_lambda_range(self) -> float:
        if self.lambda_range is not None:
            return self.lambda_range
        return self.lambda_center

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
    empty_support: bool = False

    def __post_init__(self):
        object.__setattr__(self, "predictor_names", tuple(self.predictor_names))
        p = len(self.predictor_names)
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


@dataclass(frozen=True, eq=False)
class IntervalPrediction:
    """Predicted response intervals; ordering violations counted, not fixed."""

    lower: np.ndarray
    upper: np.ndarray
    ordering_violations: int

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).copy()
        hi = np.asarray(self.upper, dtype=float).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be vectors of equal length")
        if int(np.sum(lo > hi)) != self.ordering_violations:
            raise ValueError("ordering_violations inconsistent with the vectors")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_bounds(cls, lower: np.ndarray, upper: np.ndarray) -> "IntervalPrediction":
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return cls(lower, upper, int(np.sum(lower > upper)))

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def swap_violations(prediction: IntervalPrediction) -> IntervalPrediction:
    """Swap endpoints on rows with lower > upper (opt-in repair, off by default)."""
    lo = np.minimum(prediction.lower, prediction.upper)
    hi = np.maximum(prediction.lower, prediction.upper)
    return IntervalPrediction.from_bounds(lo, hi)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _fit_design(
    X: np.ndarray,
    y: np.ndarray,
    spec: MethodSpec,
    lam: float,
    tol: float,
    max_iter: int,
    standardize: bool,
    column_mask: np.ndarray | None = None,
    warm: CoefficientSet | None = None,
) -> CoefficientSet:
    """Fit one design with the spec's solver, optionally on a column subset.

    Columns outside ``column_mask`` get a coefficient of exactly 0.0.
    ``warm`` seeds coordinate descent from a previous fit of the same
    design (closed-form solvers ignore it).
    """
    p = X.shape[1]
    if column_mask is None:
        column_mask = np.ones(p, dtype=bool)
    if not column_mask.any():
        return CoefficientSet(float(np.mean(y)), np.zeros(p))
    Xsub = X[:, column_mask]
    problem = DesignProblem(Xsub, y)
    if spec.penalty == "none":
        sub = fit_ols(problem)
    elif spec.penalty == "ridge":
        sub = fit_ridge(problem, lam, standardize=standardize)
    else:
        warm_sub = None
        if warm is not None and warm.p == p:
            warm_sub = CoefficientSet(warm.intercept, warm.betas[column_mask])
        sub = fit_elastic_net(
            problem,
            PenaltySpec(lam, spec.effective_alpha),
            tol=tol,
            max_iter=max_iter,
            standardize=standardize,
            warm_start=warm_sub,
        )
    if column_mask.all():
        return sub
    betas = np.zeros(p)
    betas[column_mask] = sub.betas
    means = scales = None
    if sub.means is not None:
        means = np.zeros(p)
        means[column_mask] = sub.means
        scales = np.ones(p)
        scales[column_mask] = sub.scales
    return CoefficientSet(
        sub.intercept, betas, means=means, scales=scales,
        converged=sub.converged, n_sweeps=sub.n_sweeps,
    )


def fit(
    table: IntervalTable,
    spec: MethodSpec,
    tol: float = 1e-7,
    max_iter: int = 100_000,
    standardize: bool = True,
    warm_start: FittedModel | None = None,
) -> FittedModel:
    """Fit an interval regression method on a table with a designated response.

    ``standardize`` controls the internal predictor standardization of
    penalized fits; it has no effect on unpenalized ones.  ``warm_start``
    seeds coordinate descent from another model fit on the same table
    (same family), which speeds fits along a descending penalty grid.
    """
    view = to_center_range(table)
    n, p = view.centers_X.shape
    if spec.penalty == "none" and n <= p + 1:
        raise ValueError(
            f"unpenalized fit needs more rows than free parameters: n={n}, p+1={p + 1}"
        )
    warm_center = warm_range = None
    if warm_start is not None and warm_start.predictor_names == view.predictor_names:
        warm_center = warm_start.center_coeffs
        warm_range = warm_start.range_coeffs
    center = _fit_design(
        view.centers_X, view.centers_y, spec, spec.lambda_center,
        tol, max_iter, standardize, warm=warm_center,
    )
    if spec.family == "cm":
        return FittedModel(
            spec, view.predictor_names, table.response_name, center
        )

    # half-range regression; constant columns carry no range signal and
    # would make the unpenalized Gram singular (degenerate intervals)
    informative = np.ptp(view.halfranges_X, axis=0) > 0.0
    empty_support = False
    if spec.selects_variables:
        mask = center.support() & informative
        empty_support = not center.support().any()
    else:
        mask = informative
    rng = _fit_design(
        view.halfranges_X, view.halfranges_y, spec, spec.effective_lambda_range,
        tol, max_iter, standardize, column_mask=mask, warm=warm_range,
    )
    return FittedModel(
        spec, view.predictor_names, table.response_name, center, rng,
        empty_support=empty_support,
    )


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
    idx = [table.variable_names.index(n) for n in model.predictor_names]
    return np.take(table.lower, idx, axis=1), np.take(table.upper, idx, axis=1)


def predict(model: FittedModel, table: IntervalTable) -> IntervalPrediction:
    """Predict response intervals for every row of ``table``.

    The table must carry the model's predictor columns (a response column
    matching the model is allowed and ignored).  No endpoint clamping is
    performed.
    """
    X_lo, X_hi = _align(table, model)
    if model.spec.family == "cm":
        lower = predict_linear(model.center_coeffs, X_lo)
        upper = predict_linear(model.center_coeffs, X_hi)
        return IntervalPrediction.from_bounds(lower, upper)
    centers = (X_lo + X_hi) / 2.0
    halfranges = (X_hi - X_lo) / 2.0
    y_center = predict_linear(model.center_coeffs, centers)
    y_range = predict_linear(model.range_coeffs, halfranges)
    return IntervalPrediction.from_bounds(y_center - y_range, y_center + y_range)


def predict_components(
    model: FittedModel, table: IntervalTable
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted (midpoint, half-range) pairs, for component-wise scoring."""
    pred = predict(model, table)
    return (pred.lower + pred.upper) / 2.0, (pred.upper - pred.lower) / 2.0


# ---------------------------------------------------------------------------
# Serialization: versioned line-oriented key/value text
# ---------------------------------------------------------------------------

FORMAT_TAG = "intervalreg-model/1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray | None) -> str:
    if v is None:
        return "-"
    return " ".join(_fmt(x) for x in v)


def _coeff_lines(prefix: str, c: CoefficientSet) -> list[str]:
    return [
        f"{prefix}.intercept: {_fmt(c.intercept)}",
        f"{prefix}.betas: {_fmt_vec(c.betas)}",
        f"{prefix}.means: {_fmt_vec(c.means)}",
        f"{prefix}.scales: {_fmt_vec(c.scales)}",
        f"{prefix}.converged: {'true' if c.converged else 'false'}",
        f"{prefix}.n_sweeps: {c.n_sweeps}",
    ]


def serialize(model: FittedModel) -> str:
    """Render a fitted model as versioned key/value text (17 significant digits)."""
    spec = model.spec
    lines = [
        FORMAT_TAG,
        f"method: {spec.name}",
        f"alpha: {_fmt(spec.alpha) if spec.alpha is not None else '-'}",
        f"lambda_center: {_fmt(spec.lambda_center)}",
        f"lambda_range: {_fmt(spec.lambda_range) if spec.lambda_range is not None else '-'}",
        f"response: {model.response_name}",
        f"predictors: {','.join(model.predictor_names)}",
        f"empty_support: {'true' if model.empty_support else 'false'}",
    ]
    lines += _coeff_lines("center", model.center_coeffs)
    if model.range_coeffs is not None:
        lines += _coeff_lines("range", model.range_coeffs)
    return "\n".join(lines) + "\n"


def _parse_vec(text: str, key: str) -> np.ndarray | None:
    if text == "-":
        return None
    try:
        return np.array([float(tok) for tok in text.split()])
    except ValueError:
        raise ModelFormatError(f"malformed numeric list for {key!r}: {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ModelFormatError(f"malformed number for {key!r}: {text!r}") from None


def _parse_bool(text: str, key: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ModelFormatError(f"malformed boolean for {key!r}: {text!r}")


def _parse_coeffs(kv: dict[str, str], prefix: str) -> CoefficientSet:
    try:
        return CoefficientSet(
            intercept=_parse_float(kv[f"{prefix}.intercept"], f"{prefix}.intercept"),
            betas=_parse_vec(kv[f"{prefix}.betas"], f"{prefix}.betas"),
            means=_parse_vec(kv[f"{prefix}.means"], f"{prefix}.means"),
            scales=_parse_vec(kv[f"{prefix}.scales"], f"{prefix}.scales"),
            converged=_parse_bool(kv[f"{prefix}.converged"], f"{prefix}.converged"),
            n_sweeps=int(kv[f"{prefix}.n_sweeps"]),
        )
    except KeyError as exc:
        raise ModelFormatError(f"missing field {exc.args[0]!r}") from None


def deserialize(text: str) -> FittedModel:
    """Parse text produced by :func:`serialize`; the round trip is the identity."""
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
        kv[key.strip()] = value.strip()
    try:
        method = kv["method"]
        alpha = None if kv["alpha"] == "-" else _parse_float(kv["alpha"], "alpha")
        lam_c = _parse_float(kv["lambda_center"], "lambda_center")
        lam_r = (
            None if kv["lambda_range"] == "-"
            else _parse_float(kv["lambda_range"], "lambda_range")
        )
        response = kv["response"]
        predictors = tuple(kv["predictors"].split(","))
        empty_support = _parse_bool(kv["empty_support"], "empty_support")
    except KeyError as exc:
        raise ModelFormatError(f"missing field {exc.args[0]!r}") from None
    try:
        spec = MethodSpec.from_name(method, lam_c, lam_r, alpha)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    center = _parse_coeffs(kv, "center")
    rng = _parse_coeffs(kv, "range") if "range.intercept" in kv else None
    try:
        return FittedModel(spec, predictors, response, center, rng, empty_support)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
