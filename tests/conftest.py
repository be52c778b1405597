from pathlib import Path

import numpy as np
import pytest

from intervalreg import IntervalTable

DATA_DIR = Path(__file__).parent / "data"

# Pulse rate vs. systolic and diastolic blood pressure for eleven
# patients; the classic symbolic-data regression example.
CARDIO_ROWS = [
    # (pulse, systolic, diastolic)
    ((44, 68), (90, 100), (50, 70)),
    ((60, 72), (90, 130), (70, 90)),
    ((56, 90), (140, 180), (90, 100)),
    ((70, 112), (110, 142), (80, 108)),
    ((54, 72), (90, 100), (50, 70)),
    ((70, 100), (130, 160), (80, 110)),
    ((63, 75), (60, 100), (140, 150)),
    ((72, 100), (130, 160), (76, 90)),
    ((76, 98), (110, 190), (70, 110)),
    ((86, 96), (138, 180), (90, 110)),
    ((86, 100), (110, 150), (78, 100)),
]


def make_cardio_table() -> IntervalTable:
    ends = np.array(CARDIO_ROWS, dtype=float)  # (row, variable, lower/upper)
    return IntervalTable(
        ("Pulse", "Systolic", "Diastolic"), ends[..., 0], ends[..., 1], response_name="Pulse"
    )


def least_squares(X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """``(intercept, slopes)`` of the intercept-augmented fit by ``np.linalg.lstsq``."""
    coef = np.linalg.lstsq(np.column_stack([np.ones(len(y)), X]), y, rcond=None)[0]
    return coef[0], coef[1:]


def assert_same_table(got: IntervalTable, want: IntervalTable) -> None:
    """Names, response and every endpoint equal exactly."""
    assert got.variable_names == want.variable_names
    assert got.response_name == want.response_name
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.upper, want.upper)


@pytest.fixture
def cardio() -> IntervalTable:
    return make_cardio_table()


def random_interval_table(
    rng: np.random.Generator,
    n: int,
    p: int,
    signal: bool = True,
) -> IntervalTable:
    """A valid random interval table with predictors X1..Xp and response Y.

    With ``signal``, the response midpoints and half-ranges are noisy
    linear functions of the predictors' midpoints and half-ranges, so
    fits behave like real regressions.
    """
    centers_X = rng.uniform(-5.0, 5.0, size=(n, p))
    halfranges_X = rng.uniform(0.0, 2.0, size=(n, p))
    if signal:
        w = rng.uniform(-2.0, 2.0, size=p)
        v = rng.uniform(0.0, 0.5, size=p)
        centers_y = centers_X @ w + rng.normal(scale=0.5, size=n)
        halfranges_y = halfranges_X @ v + rng.uniform(0.0, 0.5, size=n)
    else:
        centers_y = rng.normal(size=n)
        halfranges_y = rng.uniform(0.0, 1.0, size=n)
    names = tuple(f"X{j + 1}" for j in range(p)) + ("Y",)
    centers = np.column_stack([centers_X, centers_y])
    halfranges = np.column_stack([halfranges_X, halfranges_y])
    return IntervalTable(
        names, centers - halfranges, centers + halfranges, response_name="Y"
    )
