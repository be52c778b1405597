"""Evaluation of interval predictions.

Four indexes: root-mean-square error of the lower and upper response
endpoints (divisor n), and the squared Pearson correlation of observed
vs. predicted endpoints on each side.  Covariance and standard deviation
use the population (divisor n) form; any consistent divisor cancels in
the correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import IntervalPrediction


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


def _rmse(observed: np.ndarray, predicted: np.ndarray) -> float:
    return float(np.sqrt(np.mean((observed - predicted) ** 2)))


def _r_squared(observed: np.ndarray, predicted: np.ndarray, side: str) -> float:
    s_obs = float(np.std(observed))
    s_pred = float(np.std(predicted))
    if s_obs == 0.0:
        raise ZeroVariance(f"observed {side} endpoints are constant, r^2 undefined")
    if s_pred == 0.0:
        raise ZeroVariance(f"predicted {side} endpoints are constant, r^2 undefined")
    cov = float(np.mean((observed - observed.mean()) * (predicted - predicted.mean())))
    r = cov / (s_obs * s_pred)
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
        rmse_l=_rmse(y_lo, predicted.lower),
        rmse_u=_rmse(y_hi, predicted.upper),
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
    return ",".join(
        [
            method,
            f"{report.rmse_l:.17g}",
            f"{report.rmse_u:.17g}",
            f"{report.r2_l:.17g}",
            f"{report.r2_u:.17g}",
            str(report.ordering_violations),
        ]
    )
