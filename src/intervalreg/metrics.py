"""Evaluation of interval predictions.

Four indexes: root-mean-square error of the lower and upper response
endpoints (divisor n), and the squared Pearson correlation of observed
vs. predicted endpoints on each side.  Covariance and standard deviation
use the population (divisor n) form; any consistent divisor cancels in
the correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .models import IntervalPrediction
from .solvers import safe_mean


class ZeroVariance(ValueError):
    """A correlation is undefined because one endpoint series is constant."""


@dataclass(frozen=True)
class EvalReport:
    rmse_l: float
    rmse_u: float
    r2_l: float
    r2_u: float
    n: int
    ordering_violations: int


#: the smallest normal double; a mean square below it has lost digits.
_TINY = np.finfo(float).tiny


def _rms(v: np.ndarray) -> float:
    """``sqrt(mean(v**2))``.  Where that mean square overflows or falls below the
    smallest normal double, ``v`` is divided by its largest magnitude before squaring."""
    with np.errstate(over="ignore", under="ignore"):
        mean_sq = np.mean(v**2)
    if not (np.isfinite(mean_sq) and mean_sq >= _TINY) and (peak := np.max(np.abs(v))) > 0.0:
        return float(peak * np.sqrt(np.mean((v / peak) ** 2)))
    return float(np.sqrt(mean_sq))


def _r_squared(observed: np.ndarray, predicted: np.ndarray, side: str) -> float:
    d_obs, d_pred = observed - safe_mean(observed), predicted - safe_mean(predicted)
    s_obs, s_pred = _rms(d_obs), _rms(d_pred)
    if s_obs == 0.0:
        raise ZeroVariance(f"observed {side} endpoints are constant, r^2 undefined")
    if s_pred == 0.0:
        raise ZeroVariance(f"predicted {side} endpoints are constant, r^2 undefined")
    scale = s_obs * s_pred
    if not (isfinite(scale) and scale >= _TINY):  # each series on its own scale first
        d_obs, d_pred, scale = d_obs / s_obs, d_pred / s_pred, 1.0
    r = float(np.mean(d_obs * d_pred)) / scale
    return min(r * r, 1.0)


def evaluate(observed: tuple[np.ndarray, np.ndarray], predicted: IntervalPrediction) -> EvalReport:
    """Score predictions against observed intervals.

    ``observed`` is the pair of lower and upper endpoint vectors of the
    response, as :func:`~intervalreg.tables.response_bounds` returns it.
    Needs at least two rows (the correlations are meaningless on one);
    raises :class:`ZeroVariance` instead of returning a silent NaN when
    an endpoint series is constant.
    """
    y_lo, y_hi = (np.asarray(ends, dtype=float) for ends in observed)
    n = len(y_lo)
    if n != predicted.n:
        raise ValueError(f"{n} observed intervals but {predicted.n} predictions")
    if n < 2:
        raise ValueError("evaluation needs at least two rows")
    return EvalReport(
        rmse_l=_rms(y_lo - predicted.lower),
        rmse_u=_rms(y_hi - predicted.upper),
        r2_l=_r_squared(y_lo, predicted.lower, "lower"),
        r2_u=_r_squared(y_hi, predicted.upper, "upper"),
        n=n,
        ordering_violations=predicted.ordering_violations,
    )


def format_report(report: EvalReport) -> str:
    """Aligned text table of the four indexes plus the violation count."""
    rows = [
        ("RMSE_L", f"{report.rmse_l:.7g}"),
        ("RMSE_U", f"{report.rmse_u:.7g}"),
        ("r2_L", f"{report.r2_l:.7g}"),
        ("r2_U", f"{report.r2_u:.7g}"),
        ("rows", str(report.n)),
        ("ordering violations", str(report.ordering_violations)),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def report_csv_row(method: str, report: EvalReport) -> str:
    """One CSV record: method, the four indexes, violation count."""
    return "%s,%.17g,%.17g,%.17g,%.17g,%d" % (
        method, report.rmse_l, report.rmse_u, report.r2_l, report.r2_u, report.ordering_violations)
