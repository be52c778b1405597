"""Linear regression for interval-valued data.

Center and center-and-range methods over tables whose cells are closed
intervals, with optional ridge, lasso, or elastic-net shrinkage of the
underlying regressions, plus cross-validation, coefficient paths,
evaluation indexes, and classic-table aggregation.
"""

from .metrics import EvalReport, ZeroVariance, evaluate, format_report, report_csv_row
from .models import (
    FittedModel,
    GridFit,
    IntervalPrediction,
    MethodSpec,
    ModelFormatError,
    SchemaMismatch,
    VersionMismatch,
    deserialize,
    fit,
    fit_grid,
    predict,
    serialize,
    swap_violations,
)
from .selection import (
    AlphaSweepResult,
    CvResult,
    LambdaGrid,
    ZeroVarianceResponse,
    alpha_sweep,
    coefficient_path,
    cross_validate,
    make_lambda_grid,
)
from .solvers import (
    CoefficientGrid,
    CoefficientSet,
    NonFiniteEncountered,
    SingularDesign,
    SolverError,
    Standardized,
    fit_elastic_net,
    fit_elastic_net_path,
    fit_ridge,
    fit_ridge_path,
    standardize,
)
from .tables import (
    CenterRangeView,
    CsvFormatError,
    IntervalOrderError,
    IntervalTable,
    TableError,
    aggregate_classic,
    aggregate_classic_csv,
    read_classic_csv,
    read_interval_csv,
    response_bounds,
    to_center_range,
    write_interval_csv,
)

__version__ = "0.1.0"
