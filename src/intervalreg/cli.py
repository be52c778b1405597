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

import numpy as np

from . import metrics, models, selection, tables
from .solvers import SolverError


class CliError(ValueError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes honest
        raise CliError(message)


def _fit_arguments(p: _Parser) -> None:
    p.add_argument("--method", required=True, choices=sorted(models.METHOD_NAMES))
    p.add_argument("--train", required=True, help="training interval CSV")
    p.add_argument("--response", required=True, help="response variable name")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="penalty weight, or 'cv' to cross-validate")
    p.add_argument("--lambda-range", dest="lam_range", type=float, default=None,
                   help="separate penalty weight for the half-range fit (crm)")
    p.add_argument("--alpha", type=float, default=None,
                   help="elastic-net mixing weight in [0, 1]")
    p.add_argument("--folds", type=int, default=None, help="cv fold count")
    p.add_argument("--seed", type=int, default=None, help="cv shuffle seed")
    p.add_argument("--one-se", action="store_true",
                   help="pick lambda_1se instead of lambda_min in cv mode")
    p.add_argument("--model-out", required=True, help="model file to write")


def _predict_arguments(p: _Parser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV (yhat_lo,yhat_hi)")
    p.add_argument("--clamp", action="store_true",
                   help="swap endpoints on ordering violations")


def _evaluate_arguments(p: _Parser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--csv", action="store_true", help="print one CSV row")


def _cv_arguments(p: _Parser) -> None:
    p.add_argument("--method", required=True, choices=sorted(models.METHOD_NAMES))
    p.add_argument("--train", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--folds", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-grid", default=None,
                   help="comma-separated alphas; sweeps instead of a single cv")
    p.add_argument("--n-lambdas", type=int, default=100)
    p.add_argument("--out", required=True, help="cv curve CSV")


def _path_arguments(p: _Parser) -> None:
    p.add_argument("--method", required=True, choices=sorted(models.METHOD_NAMES))
    p.add_argument("--train", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n-lambdas", type=int, default=100)
    p.add_argument("--component", choices=("center", "range"), default="center")
    p.add_argument("--out", required=True, help="lambda x coefficient CSV")


def _aggregate_arguments(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="classic CSV")
    p.add_argument("--concept", required=True, help="grouping column")
    p.add_argument("--columns", default=None,
                   help="comma-separated value columns (default: all others)")
    p.add_argument("--output", required=True, help="interval CSV to write")


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, with the arguments of ``command`` only (all
    of them when ``command`` is None): argparse reads no other subcommand's
    arguments, so one command's parse need not build them."""
    parser = _Parser(
        prog="intervalreg",
        description="Linear regression for interval-valued data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or name == command:
            add_arguments(p)
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


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write ``header`` and then a row per entry of the equal-length ``columns`` to
    ``path`` as CSV with LF line ends.  The header goes through ``csv.writer``, which
    quotes a name as needed; each row is one ``%``-format of its numbers, floats as
    ``%.17g`` and integers as decimals, which ``csv.writer`` never quotes."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(line % row for row in zip(*(c.tolist() for c in columns)))


def _load_model(path: str) -> models.FittedModel:
    with open(path, encoding="utf-8") as fh:
        return models.deserialize(fh.read())


def _cmd_predict(args) -> int:
    model = _load_model(args.model)
    table = tables.read_interval_csv(args.data)
    pred = models.predict(model, table)
    print(f"ordering violations: {pred.ordering_violations}")
    out = models.swap_violations(pred) if args.clamp else pred
    _write_csv(args.out, ["yhat_lo", "yhat_hi"], (out.lower, out.upper))
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


def _curve(cv: selection.CvResult) -> tuple:
    """The columns of a cv curve file: lambda, mean_loss, std_error and nonzero."""
    return cv.grid.values, cv.mean_loss, cv.std_error, cv.nonzero


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
        per_alpha = [(np.full(len(cv.grid), alpha), *_curve(cv)) for alpha, cv in sweep.per_alpha]
        _write_csv(args.out, ["alpha", "lambda", "mean_loss", "std_error", "nonzero"],
                   [np.concatenate(column) for column in zip(*per_alpha)])
        _warn_nonconverged(sum(cv.nonconverged for _, cv in sweep.per_alpha))
        print(f"best alpha: {sweep.alpha:.17g}")
        print(f"best lambda: {sweep.lam:.17g}")
        return 0

    spec = models.MethodSpec.from_name(args.method, 1.0, None, args.alpha)
    result = selection.cross_validate(
        table, spec, k=args.folds, seed=args.seed, n_points=args.n_lambdas
    )
    _write_csv(args.out, ["lambda", "mean_loss", "std_error", "nonzero"], _curve(result))
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
    _write_csv(args.out, ["lambda", "intercept", *path.predictor_names],
               [grid.values, path.intercepts, *path.coefficients.T])
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


#: subcommand -> (handler, help line, the function that adds its arguments)
_COMMANDS = {
    "fit": (_cmd_fit, "fit a method and write a model file", _fit_arguments),
    "predict": (_cmd_predict, "predict intervals for a data file", _predict_arguments),
    "evaluate": (_cmd_evaluate, "score a model on a test file", _evaluate_arguments),
    "cv": (_cmd_cv, "cross-validate the penalty weight", _cv_arguments),
    "path": (_cmd_path, "export a coefficient path", _path_arguments),
    "aggregate": (_cmd_aggregate, "classic table to interval table", _aggregate_arguments),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option that takes a value, so its first
    # positional argument, the subcommand, is the first word not led by "-"
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (metrics.ZeroVariance, selection.ZeroVarianceResponse, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, tables.TableError, models.ModelFormatError,
            models.SchemaMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
