import math

import numpy as np
import pytest

from intervalreg import ZeroVariance, evaluate, format_report, report_csv_row
from intervalreg.models import IntervalPrediction


def naive_indexes(y_lo, y_hi, p_lo, p_hi):
    """Two-pass pure-Python recomputation of the four indexes."""
    n = len(y_lo)

    def rmse(a, b):
        return math.sqrt(sum((x - z) ** 2 for x, z in zip(a, b)) / n)

    def r2(a, b):
        ma, mb = sum(a) / n, sum(b) / n
        cov = sum((x - ma) * (z - mb) for x, z in zip(a, b)) / n
        sa = math.sqrt(sum((x - ma) ** 2 for x in a) / n)
        sb = math.sqrt(sum((z - mb) ** 2 for z in b) / n)
        return (cov / (sa * sb)) ** 2

    return rmse(y_lo, p_lo), rmse(y_hi, p_hi), r2(y_lo, p_lo), r2(y_hi, p_hi)


def bounds(lo, hi):
    """Observed endpoints as ``evaluate`` takes them."""
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def test_perfect_fit():
    lo = np.array([1.0, 2.0, 3.0])
    hi = np.array([2.0, 4.0, 6.0])
    report = evaluate(bounds(lo, hi), IntervalPrediction(lo, hi))
    assert report.rmse_l == 0.0
    assert report.rmse_u == 0.0
    assert report.r2_l == 1.0
    assert report.r2_u == 1.0
    assert report.ordering_violations == 0


def test_hand_computed_three_rows():
    observed = bounds([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    pred = IntervalPrediction(
        np.array([0.0, 2.0, 4.0]), np.array([1.0, 4.0, 7.0])
    )
    report = evaluate(observed, pred)
    assert report.rmse_l == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)
    assert report.rmse_u == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)
    # both predicted sides are affine in the observed ones
    assert report.r2_l == pytest.approx(1.0, abs=1e-12)
    assert report.r2_u == pytest.approx(1.0, abs=1e-12)


def test_matches_naive_reference_on_random_data():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        y_lo = rng.normal(size=n)
        y_hi = y_lo + rng.uniform(0.1, 2.0, size=n)
        p_lo = y_lo + rng.normal(scale=0.5, size=n)
        p_hi = y_hi + rng.normal(scale=0.5, size=n)
        try:
            report = evaluate(
                bounds(y_lo, y_hi), IntervalPrediction(p_lo, p_hi)
            )
        except ZeroVariance:
            continue  # possible only for n == 2 with a degenerate draw
        ref = naive_indexes(y_lo.tolist(), y_hi.tolist(), p_lo.tolist(), p_hi.tolist())
        assert report.rmse_l == pytest.approx(ref[0], abs=1e-12)
        assert report.rmse_u == pytest.approx(ref[1], abs=1e-12)
        assert report.r2_l == pytest.approx(ref[2], abs=1e-12)
        assert report.r2_u == pytest.approx(ref[3], abs=1e-12)


def test_r2_affine_invariance():
    rng = np.random.default_rng(52)
    y_lo = rng.normal(size=25)
    y_hi = y_lo + rng.uniform(0.5, 1.5, size=25)
    p_lo = rng.normal(size=25)
    p_hi = p_lo + rng.uniform(0.5, 1.5, size=25)
    base = evaluate(bounds(y_lo, y_hi), IntervalPrediction(p_lo, p_hi))
    for a, b in ((2.0, 1.0), (-3.0, 0.5), (0.1, -7.0)):
        mapped = evaluate(
            bounds(y_lo, y_hi),
            IntervalPrediction(a * p_lo + b, a * p_hi + b),
        )
        assert mapped.r2_l == pytest.approx(base.r2_l, rel=1e-9)
        assert mapped.r2_u == pytest.approx(base.r2_u, rel=1e-9)


def test_rmse_shift_recomputation():
    rng = np.random.default_rng(53)
    y_lo = rng.normal(size=15)
    y_hi = y_lo + 1.0
    p_lo = y_lo + rng.normal(size=15)
    p_hi = y_hi + rng.normal(size=15)
    delta = 0.75
    shifted = evaluate(
        bounds(y_lo, y_hi),
        IntervalPrediction(p_lo + delta, p_hi + delta),
    )
    expected = math.sqrt(np.mean((y_lo - p_lo - delta) ** 2))
    assert shifted.rmse_l == pytest.approx(expected, rel=1e-12)
    assert shifted.rmse_l >= 0.0


@pytest.mark.parametrize("scale", [1e300, 1e307, 1e-170])
def test_large_and_tiny_endpoints_score_like_unit_ones(scale):
    # squares of 1e300 overflow, sums of 1e307 overflow too, and squares of 1e-170
    # underflow
    rng = np.random.default_rng(54)
    y_lo = 3.0 + rng.normal(size=40)
    y_hi = y_lo + rng.uniform(0.1, 2.0, size=40)
    p_lo = y_lo + rng.normal(scale=0.5, size=40)
    p_hi = y_hi + rng.normal(scale=0.5, size=40)
    base = evaluate(bounds(y_lo, y_hi), IntervalPrediction(p_lo, p_hi))
    with np.errstate(all="raise"):
        got = evaluate(bounds(y_lo * scale, y_hi * scale),
                       IntervalPrediction(p_lo * scale, p_hi * scale))
    assert got.r2_l == pytest.approx(base.r2_l, rel=1e-12)
    assert got.r2_u == pytest.approx(base.r2_u, rel=1e-12)
    assert got.rmse_l == pytest.approx(base.rmse_l * scale, rel=1e-12)
    assert got.rmse_u == pytest.approx(base.rmse_u * scale, rel=1e-12)


def test_zero_variance_is_an_error_not_nan():
    y = bounds([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    constant = IntervalPrediction(np.full(3, 5.0), np.full(3, 6.0))
    with pytest.raises(ZeroVariance, match="predicted lower endpoints are constant"):
        evaluate(y, constant)
    flat = bounds([1.0, 1.0, 1.0], [2.0, 3.0, 4.0])
    varying = IntervalPrediction(
        np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0])
    )
    with pytest.raises(ZeroVariance, match="observed lower endpoints are constant"):
        evaluate(flat, varying)


def test_length_mismatch_and_minimum_rows():
    y = bounds([1.0, 2.0], [2.0, 3.0])
    pred = IntervalPrediction(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError, match="2 observed intervals but 1 predictions"):
        evaluate(y, pred)
    with pytest.raises(ValueError, match="at least two rows"):
        evaluate((y[0][:1], y[1][:1]), pred)


def test_report_rendering():
    y = bounds([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    pred = IntervalPrediction(
        np.array([1.1, 1.9, 3.2]), np.array([2.1, 3.8, 6.1])
    )
    report = evaluate(y, pred)
    text = format_report(report)
    assert "RMSE_L" in text and "ordering violations" in text
    row = report_csv_row("cm", report)
    fields = row.split(",")
    assert fields[0] == "cm"
    assert len(fields) == 6
    assert float(fields[1]) == report.rmse_l
