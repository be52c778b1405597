"""Command-line front-end.

Subcommands: ``fit``, ``predict``, ``evaluate``, ``cv``, ``path``,
``aggregate``.  Exit codes: 0 on success, 1 on a validation problem
(flags, file formats, schema), 2 on a numerical failure (singular
design, divergence, undefined correlation).  Diagnostics go to stderr;
results go to stdout or to the requested output file.  Every command is
deterministic given its flags; cross-validation therefore requires an
explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import metrics, models, selection, tables
from .solvers import SolverError


class CliError(ValueError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes honest
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="intervalreg",
        description="Linear regression for interval-valued data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    methods = sorted(models.METHOD_NAMES)

    p_fit = sub.add_parser("fit", help="fit a method and write a model file")
    p_fit.add_argument("--method", required=True, choices=methods)
    p_fit.add_argument("--train", required=True, help="training interval CSV")
    p_fit.add_argument("--response", required=True, help="response variable name")
    p_fit.add_argument("--lambda", dest="lam", default=None,
                       help="penalty weight, or 'cv' to cross-validate")
    p_fit.add_argument("--lambda-range", dest="lam_range", type=float, default=None,
                       help="separate penalty weight for the half-range fit (crm)")
    p_fit.add_argument("--alpha", type=float, default=None,
                       help="elastic-net mixing weight in [0, 1]")
    p_fit.add_argument("--folds", type=int, default=None, help="cv fold count")
    p_fit.add_argument("--seed", type=int, default=None, help="cv shuffle seed")
    p_fit.add_argument("--one-se", action="store_true",
                       help="pick lambda_1se instead of lambda_min in cv mode")
    p_fit.add_argument("--model-out", required=True, help="model file to write")

    p_pred = sub.add_parser("predict", help="predict intervals for a data file")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True, help="output CSV (yhat_lo,yhat_hi)")
    p_pred.add_argument("--clamp", action="store_true",
                        help="swap endpoints on ordering violations")

    p_eval = sub.add_parser("evaluate", help="score a model on a test file")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--csv", action="store_true", help="print one CSV row")

    p_cv = sub.add_parser("cv", help="cross-validate the penalty weight")
    p_cv.add_argument("--method", required=True, choices=methods)
    p_cv.add_argument("--train", required=True)
    p_cv.add_argument("--response", required=True)
    p_cv.add_argument("--folds", type=int, required=True)
    p_cv.add_argument("--seed", type=int, required=True)
    p_cv.add_argument("--alpha", type=float, default=None)
    p_cv.add_argument("--alpha-grid", default=None,
                      help="comma-separated alphas; sweeps instead of a single cv")
    p_cv.add_argument("--n-lambdas", type=int, default=100)
    p_cv.add_argument("--out", required=True, help="cv curve CSV")

    p_path = sub.add_parser("path", help="export a coefficient path")
    p_path.add_argument("--method", required=True, choices=methods)
    p_path.add_argument("--train", required=True)
    p_path.add_argument("--response", required=True)
    p_path.add_argument("--alpha", type=float, default=None)
    p_path.add_argument("--n-lambdas", type=int, default=100)
    p_path.add_argument("--component", choices=("center", "range"), default="center")
    p_path.add_argument("--out", required=True, help="lambda x coefficient CSV")

    p_agg = sub.add_parser("aggregate", help="classic table to interval table")
    p_agg.add_argument("--input", required=True, help="classic CSV")
    p_agg.add_argument("--concept", required=True, help="grouping column")
    p_agg.add_argument("--columns", default=None,
                       help="comma-separated value columns (default: all others)")
    p_agg.add_argument("--output", required=True, help="interval CSV to write")

    return parser


def _print_coefficients(model: models.FittedModel) -> None:
    names = ["(intercept)", *model.predictor_names]
    center = [model.center_coeffs.intercept, *model.center_coeffs.betas]
    columns = [("center", center)]
    if model.range_coeffs is not None:
        columns.append(
            ("range", [model.range_coeffs.intercept, *model.range_coeffs.betas])
        )
    width = max(len(n) for n in names)
    header = " ".join(f"{label:>14}" for label, _ in columns)
    print(f"{'':<{width}} {header}")
    for i, name in enumerate(names):
        vals = " ".join(f"{col[i]:>14.6g}" for _, col in columns)
        print(f"{name:<{width}} {vals}")
    if model.empty_support:
        print("note: center model selected no variables; "
              "range model is intercept-only")


def _warn_nonconverged(count: int) -> None:
    if count:
        print(f"warning: {count} coordinate-descent fit(s) stopped without converging, "
              "at the step limit or at a step that left the iterate unchanged; "
              "their last iterates were used", file=sys.stderr)


def _cmd_fit(args) -> int:
    table = tables.read_interval_csv(args.train, response=args.response)
    penalty = models.METHOD_NAMES[args.method][1]
    use_cv = isinstance(args.lam, str) and args.lam.strip().lower() == "cv"
    if penalty != "none" and args.lam is None:
        raise CliError(f"method {args.method!r} needs --lambda (a number or 'cv')")
    if penalty == "none" and args.lam is not None:
        raise CliError(f"method {args.method!r} takes no --lambda")
    lam_value = 0.0
    if args.lam is not None and not use_cv:
        try:
            lam_value = float(args.lam)
        except ValueError:
            raise CliError(f"--lambda must be a number or 'cv', got {args.lam!r}")

    if use_cv:
        spec = models.MethodSpec.from_name(
            args.method, 1.0, None, args.alpha
        )
        if args.seed is None:
            raise CliError("--lambda cv requires an explicit --seed")
        result = selection.cross_validate(table, spec, k=args.folds, seed=args.seed)
        _warn_nonconverged(result.nonconverged)
        chosen = result.lambda_1se if args.one_se else result.lambda_min
        print(f"lambda selected by {result.folds}-fold cv (seed {args.seed}): "
              f"{chosen:.17g}")
        spec = models.MethodSpec.from_name(args.method, chosen, args.lam_range, args.alpha)
    else:
        spec = models.MethodSpec.from_name(args.method, lam_value, args.lam_range, args.alpha)

    model = models.fit(table, spec)
    _warn_nonconverged(sum(not c.converged for c in (model.center_coeffs, model.range_coeffs)
                           if c is not None))
    with open(args.model_out, "w", encoding="utf-8") as fh:
        fh.write(models.serialize(model))
    print(f"method: {spec.name}")
    _print_coefficients(model)
    return 0


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV with LF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_model(path: str) -> models.FittedModel:
    with open(path, encoding="utf-8") as fh:
        return models.deserialize(fh.read())


def _cmd_predict(args) -> int:
    model = _load_model(args.model)
    table = tables.read_interval_csv(args.data)
    pred = models.predict(model, table)
    print(f"ordering violations: {pred.ordering_violations}")
    out = models.swap_violations(pred) if args.clamp else pred
    _write_csv(args.out, ["yhat_lo", "yhat_hi"], (
        [format(lo, ".17g"), format(hi, ".17g")] for lo, hi in zip(out.lower, out.upper)
    ))
    return 0


def _cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    table = tables.read_interval_csv(args.test, response=model.response_name)
    pred = models.predict(model, table)
    report = metrics.evaluate(tables.response_bounds(table), pred)
    if args.csv:
        print(metrics.report_csv_row(model.spec.name, report))
    else:
        print(f"method: {model.spec.name}")
        print(metrics.format_report(report))
    return 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated number list, got {text!r}")


def _cmd_cv(args) -> int:
    family, penalty = models.METHOD_NAMES[args.method]
    if penalty == "none":
        raise CliError(f"method {args.method!r} has no penalty weight to cross-validate")
    if args.alpha_grid is not None and penalty != "elastic_net":
        raise CliError(f"--alpha-grid needs a net-* method, got {args.method!r}")
    if args.alpha_grid is not None and args.alpha is not None:
        raise CliError("--alpha cannot be combined with --alpha-grid")
    table = tables.read_interval_csv(args.train, response=args.response)
    if args.alpha_grid is not None:
        alphas = _parse_float_list(args.alpha_grid, "--alpha-grid")
        sweep = selection.alpha_sweep(
            table, family, alphas, k=args.folds, seed=args.seed,
            n_points=args.n_lambdas,
        )
        _write_csv(args.out, ["alpha", "lambda", "mean_loss", "std_error", "nonzero"], (
            [format(alpha, ".17g"), format(lam, ".17g"),
             format(loss, ".17g"), format(se, ".17g"), nz]
            for alpha, cv in sweep.per_alpha
            for lam, loss, se, nz in zip(
                cv.grid.values, cv.mean_loss, cv.std_error, cv.nonzero
            )
        ))
        _warn_nonconverged(sum(cv.nonconverged for _, cv in sweep.per_alpha))
        print(f"best alpha: {sweep.alpha:.17g}")
        print(f"best lambda: {sweep.lam:.17g}")
        return 0

    spec = models.MethodSpec.from_name(args.method, 1.0, None, args.alpha)
    result = selection.cross_validate(
        table, spec, k=args.folds, seed=args.seed, n_points=args.n_lambdas
    )
    _write_csv(args.out, ["lambda", "mean_loss", "std_error", "nonzero"], (
        [format(lam, ".17g"), format(loss, ".17g"), format(se, ".17g"), nz]
        for lam, loss, se, nz in zip(
            result.grid.values, result.mean_loss, result.std_error, result.nonzero
        )
    ))
    _warn_nonconverged(result.nonconverged)
    print(f"lambda_min: {result.lambda_min:.17g}")
    print(f"lambda_1se: {result.lambda_1se:.17g}")
    return 0


def _cmd_path(args) -> int:
    if models.METHOD_NAMES[args.method][1] == "none":
        raise CliError(f"method {args.method!r} has no penalty path")
    table = tables.read_interval_csv(args.train, response=args.response)
    spec = models.MethodSpec.from_name(args.method, 1.0, None, args.alpha)
    view = tables.to_center_range(table)
    grid = selection.lambda_grid(view.problem(args.component), spec.effective_alpha, args.n_lambdas)
    path = selection.coefficient_path(view, spec, grid, component=args.component)
    _warn_nonconverged(path.nonconverged)
    _write_csv(args.out, ["lambda", "intercept", *path.predictor_names], (
        [format(lam, ".17g"), format(path.intercepts[i], ".17g"),
         *(format(b, ".17g") for b in path.coefficients[i])]
        for i, lam in enumerate(grid.values)
    ))
    print(f"wrote {len(grid)} path points for {len(path.predictor_names)} predictors")
    return 0


def _cmd_aggregate(args) -> int:
    value_columns = None
    if args.columns is not None:
        value_columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    result, n_records = tables.aggregate_classic_csv(args.input, args.concept, value_columns)
    tables.write_interval_csv(result, args.output)
    print(f"aggregated {n_records} rows into {result.n_rows} concept rows")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "cv": _cmd_cv,
    "path": _cmd_path,
    "aggregate": _cmd_aggregate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (metrics.ZeroVariance, selection.ZeroVarianceResponse, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, tables.TableError, models.ModelFormatError,
            models.SchemaMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
