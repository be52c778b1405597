"""Workloads: seeded input files, the CLI commands of one pass, numpy oracles.

The oracles import nothing from intervalreg: each one recomputes a
command's output from the input files with numpy, so a wrong answer
fails the operation that produced it.

Sizes are smaller than the tables the project's notes measured (46 x 102,
500 x 20, 20000 x 50), because one run of the benchmark has to repeat
each workload's command sequence several times inside a few tens of
seconds; see ``SIZES``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

#: tolerance of the CLI's coordinate descent: a converged fit ends with a
#: full sweep whose largest standardized coefficient change is at most this.
CD_TOL = 1e-7
CV_FOLDS, CV_SEED, N_LAMBDAS = 10, 7, 100

#: Per-workload sizes used for every reported number.  A run makes its
#: inputs once from the seed, and every pass runs the whole input set.
#: cv-wide: ``tables`` wide (p = 1.5 n) lasso tables, so that the solver's
#:   data-dependent cost is taken over many tables.  A rare table makes
#:   coordinate descent stall for tens of seconds; so that a traced and an
#:   untraced pass together stay short, ``--trace 1`` runs only the first
#:   ``traced_tables`` of them.
#: cv-tall: one tall ridge table.
#: pipeline-big: one interval table and one classic table.
SIZES = {
    "cv-wide": {"n": 10, "p": 15, "tables": 30, "traced_tables": 6},
    "cv-tall": {"n": 200, "p": 20},
    "pipeline-big": {
        "n": 4000, "p": 50, "classic_rows": 40000, "classic_values": 10, "concepts": 1000,
    },
}


class OracleError(AssertionError):
    """A command's output disagrees with the numpy oracle."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its output (given its stdout)."""

    argv: list[str]
    check: Callable[[str], None]


@dataclass(frozen=True)
class Workload:
    """``sequences(inputs, outdir)`` lists the command sequences of one pass."""

    name: str
    make_inputs: Callable[[np.random.Generator, Path, dict], dict]
    sequences: Callable[[dict, Path], list[list[Op]]]


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def random_interval_table(rng, n, p):
    """Predictors X1..Xp and response Y; Y is a noisy linear function of them.

    The same model as the project's test fixture: centers U(-5, 5),
    half-ranges U(0, 2), center weights U(-2, 2), range weights U(0, 0.5).
    Returns (names, lo, hi) with one column per variable.
    """
    cx = rng.uniform(-5.0, 5.0, size=(n, p))
    rx = rng.uniform(0.0, 2.0, size=(n, p))
    cy = cx @ rng.uniform(-2.0, 2.0, size=p) + rng.normal(scale=0.5, size=n)
    ry = rx @ rng.uniform(0.0, 0.5, size=p) + rng.uniform(0.0, 0.5, size=n)
    c = np.column_stack([cx, cy])
    r = np.column_stack([rx, ry])
    return [f"X{j + 1}" for j in range(p)] + ["Y"], c - r, c + r


def write_interval(path, names, lo, hi):
    grid = np.empty((lo.shape[0], 2 * lo.shape[1]))
    grid[:, 0::2] = lo
    grid[:, 1::2] = hi
    header = ",".join(f"{n}_{s}" for n in names for s in ("lo", "hi"))
    np.savetxt(path, grid, fmt="%.17g", delimiter=",", header=header, comments="")


def read_interval(path):
    """(names, lo, hi) of a `_lo`/`_hi` interleaved interval CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    names = [h[:-3] for h in header[0::2]]
    if header != [f"{n}_{s}" for n in names for s in ("lo", "hi")]:
        raise OracleError(f"{path}: unexpected header {header[:4]}...")
    grid = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return names, grid[:, 0::2], grid[:, 1::2]


def _design(path):
    """Center and half-range matrices of the predictors, vectors of Y, and bounds."""
    names, lo, hi = read_interval(path)
    y = names.index("Y")
    pred = [j for j in range(len(names)) if j != y]
    c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
    return {
        "cx": c[:, pred], "rx": r[:, pred], "cy": c[:, y], "ry": r[:, y],
        "ylo": lo[:, y], "yhi": hi[:, y], "p": len(pred),
    }


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _standardize(X):
    means = X.mean(axis=0)
    Xc = X - means
    scales = np.sqrt((Xc**2).mean(axis=0))
    scales = np.where(scales == 0.0, 1.0, scales)
    return Xc / scales, means, scales


def _lambda_grid(X, y, alpha, n_points=N_LAMBDAS):
    Xs, _, _ = _standardize(X)
    top = 2.0 * np.max(np.abs(Xs.T @ (y - y.mean()))) / max(alpha, 0.001)
    eps = 1e-4 if X.shape[0] > X.shape[1] else 1e-2
    return np.geomspace(top, eps * top, n_points)


def _ridge(X, y, lam):
    """Dense-solve ridge with an unpenalized intercept on standardized columns."""
    Xs, means, scales = _standardize(X)
    ym = y.mean()
    b = np.linalg.solve(Xs.T @ Xs + lam * np.eye(X.shape[1]), Xs.T @ (y - ym))
    betas = b / scales
    return ym - betas @ means, betas


def _close(name, got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise OracleError(f"{name}: shape {got.shape}, oracle {want.shape}")
    atol = rtol * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        worst = int(np.argmax(np.abs(got - want)))
        raise OracleError(
            f"{name}: {got.flat[worst]!r} vs oracle {want.flat[worst]!r} at {worst}"
        )


def _printed(stdout, key):
    m = re.search(rf"^{re.escape(key)}: (\S+)$", stdout, re.MULTILINE)
    if m is None:
        raise OracleError(f"no '{key}:' line in output")
    return float(m.group(1))


def check_cv_curve(train, curve, alpha, stdout):
    """100 finite rows on the oracle grid; printed lambda_min is the curve's argmin."""
    d = _design(train)
    rows = np.loadtxt(curve, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (N_LAMBDAS, 4) or not np.isfinite(rows).all():
        raise OracleError(f"{curve}: expected {N_LAMBDAS} finite rows, got {rows.shape}")
    _close("cv grid", rows[:, 0], _lambda_grid(d["cx"], d["cy"], alpha), 1e-10)
    if _printed(stdout, "lambda_min") != rows[int(np.argmin(rows[:, 1])), 0]:
        raise OracleError("printed lambda_min is not the curve's minimum")
    if not ((rows[:, 3] >= 0) & (rows[:, 3] <= d["p"])).all():
        raise OracleError("nonzero counts out of range")
    return d, rows


def check_ridge_crm_cv(train, curve, stdout):
    """Recompute the whole ridge-crm cv curve with dense solves (shared lambda)."""
    d, rows = check_cv_curve(train, curve, 0.0, stdout)
    n = d["cx"].shape[0]
    folds = np.array_split(np.random.default_rng(CV_SEED).permutation(n), CV_FOLDS)
    losses = np.empty((CV_FOLDS, N_LAMBDAS))
    for fi, test in enumerate(folds):
        keep = np.ones(n, dtype=bool)
        keep[test] = False
        tr = np.flatnonzero(keep)
        informative = np.ptp(d["rx"][tr], axis=0) > 0.0
        for li, lam in enumerate(rows[:, 0]):
            b0c, bc = _ridge(d["cx"][tr], d["cy"][tr], lam)
            br = np.zeros(d["p"])
            b0r, br[informative] = _ridge(d["rx"][tr][:, informative], d["ry"][tr], lam)
            c = b0c + d["cx"][test] @ bc
            r = b0r + d["rx"][test] @ br
            losses[fi, li] = np.mean(
                ((d["ylo"][test] - (c - r)) ** 2 + (d["yhi"][test] - (c + r)) ** 2) / 2.0
            )
    _close("cv mean_loss", rows[:, 1], losses.mean(axis=0), 1e-8)
    _close("cv std_error", rows[:, 2], losses.std(axis=0, ddof=1) / np.sqrt(CV_FOLDS), 1e-6)


def check_lasso_path(train, path_csv, stdout):
    """Every path point satisfies the lasso KKT conditions at the solver tolerance.

    With ``g = Xs'(yc - Xs b)`` on standardized predictors, a point is
    optimal when ``g_j = lam/2 * sign(b_j)`` for ``b_j != 0`` and
    ``|g_j| <= lam/2`` otherwise.  A fit that stopped after a full sweep
    moving no coefficient by more than ``CD_TOL`` is off by at most
    ``CD_TOL * sum_k |G_jk|`` (G the Gram matrix) in coordinate j.
    """
    d = _design(train)
    X, y = d["cx"], d["cy"]
    rows = np.loadtxt(path_csv, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (N_LAMBDAS, 2 + d["p"]) or not np.isfinite(rows).all():
        raise OracleError(f"{path_csv}: expected {N_LAMBDAS} finite rows, got {rows.shape}")
    grid = _lambda_grid(X, y, 1.0)
    _close("path grid", rows[:, 0], grid, 1e-10)
    Xs, means, scales = _standardize(X)
    yc = y - y.mean()
    allowed = CD_TOL * np.abs(Xs.T @ Xs).sum(axis=1) + 1e-9 * grid[0]
    for i, (lam, b0, *betas) in enumerate(rows):
        betas = np.asarray(betas)
        b = betas * scales
        g = Xs.T @ (yc - Xs @ b)
        viol = np.where(b != 0.0, np.abs(g - lam / 2.0 * np.sign(b)),
                        np.maximum(np.abs(g) - lam / 2.0, 0.0))
        if np.any(viol > allowed):
            j = int(np.argmax(viol - allowed))
            raise OracleError(
                f"path point {i} (lambda {lam:.6g}) violates KKT at X{j + 1}: "
                f"{viol[j]:.3e} > {allowed[j]:.3e}"
            )
        _close(f"path intercept {i}", b0, y.mean() - betas @ means, 1e-9)


def _read_model(path):
    kv = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            key, _, value = line.partition(":")
            kv[key.strip()] = value.strip()

    def coeffs(prefix):
        return float(kv[f"{prefix}.intercept"]), np.array(kv[f"{prefix}.betas"].split(), float)

    return coeffs("center"), coeffs("range")


def check_crm_fit(train, model, stdout):
    """Center and range coefficients match least squares by np.linalg.lstsq."""
    d = _design(train)
    center, half_range = _read_model(model)
    for (b0, betas), X, y, part in (
        (center, d["cx"], d["cy"], "center"),
        (half_range, d["rx"], d["ry"], "range"),
    ):
        want = np.linalg.lstsq(np.column_stack([np.ones(len(y)), X]), y, rcond=None)[0]
        _close(f"crm {part} coefficients", np.r_[b0, betas], want, 1e-7)


def _crm_predict(data, model):
    d = _design(data)
    (b0c, bc), (b0r, br) = _read_model(model)
    c = b0c + d["cx"] @ bc
    r = b0r + d["rx"] @ br
    return d, c - r, c + r


def check_predict(data, model, pred_csv, stdout):
    _, lower, upper = _crm_predict(data, model)
    got = np.loadtxt(pred_csv, delimiter=",", skiprows=1, ndmin=2)
    _close("predicted lower", got[:, 0], lower, 1e-9)
    _close("predicted upper", got[:, 1], upper, 1e-9)
    if _printed(stdout, "ordering violations") != np.sum(lower > upper):
        raise OracleError("printed ordering violations disagree")


def check_evaluate(test, model, stdout):
    d, lower, upper = _crm_predict(test, model)

    def r2(obs, pred):
        cov = np.mean((obs - obs.mean()) * (pred - pred.mean()))
        return min((cov / (obs.std() * pred.std())) ** 2, 1.0)

    fields = stdout.strip().splitlines()[-1].split(",")
    want = [
        np.sqrt(np.mean((d["ylo"] - lower) ** 2)), np.sqrt(np.mean((d["yhi"] - upper) ** 2)),
        r2(d["ylo"], lower), r2(d["yhi"], upper),
    ]
    _close("evaluate indexes", [float(f) for f in fields[1:5]], want, 1e-9)
    if int(fields[5]) != int(np.sum(lower > upper)):
        raise OracleError("evaluate ordering violations disagree")


def check_aggregate(classic, out, stdout):
    """Group min/max per concept, in first-appearance order, exactly."""
    with open(classic, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = fh.read().splitlines()
    keys = np.array([ln.split(",", 1)[0] for ln in lines])
    values = np.loadtxt(lines, delimiter=",", usecols=range(1, len(header)), ndmin=2)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    lo = np.full((len(first), values.shape[1]), np.inf)
    hi = np.full_like(lo, -np.inf)
    np.minimum.at(lo, inverse, values)
    np.maximum.at(hi, inverse, values)
    order = np.argsort(first)
    names, got_lo, got_hi = read_interval(out)
    if names != header[1:]:
        raise OracleError(f"aggregate columns {names[:3]}..., expected {header[1:4]}...")
    if not (np.array_equal(got_lo, lo[order]) and np.array_equal(got_hi, hi[order])):
        raise OracleError("aggregate bounds differ from the group min/max")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _cv_argv(method, train, curve):
    return ["cv", "--method", method, "--train", str(train), "--response", "Y",
            "--folds", str(CV_FOLDS), "--seed", str(CV_SEED),
            "--n-lambdas", str(N_LAMBDAS), "--out", str(curve)]


def _wide_inputs(rng, d, s):
    paths = []
    for t in range(s["tables"]):
        paths.append(d / f"wide{t}.csv")
        write_interval(paths[-1], *random_interval_table(rng, s["n"], s["p"]))
    return {"tables": paths}


def _wide_sequences(inputs, out):
    sequences = []
    for t, train in enumerate(inputs["tables"]):
        curve, path_csv = out / f"curve{t}.csv", out / f"path{t}.csv"
        sequences.append([
            Op(_cv_argv("lasso-cm", train, curve),
               partial(check_cv_curve, train, curve, 1.0)),
            Op(["path", "--method", "lasso-cm", "--train", str(train),
                "--response", "Y", "--out", str(path_csv)],
               partial(check_lasso_path, train, path_csv)),
        ])
    return sequences


def _tall_inputs(rng, d, s):
    train = d / "tall.csv"
    write_interval(train, *random_interval_table(rng, s["n"], s["p"]))
    return {"train": train}


def _tall_sequences(inputs, out):
    curve = out / "curve.csv"
    return [[Op(_cv_argv("ridge-crm", inputs["train"], curve),
                partial(check_ridge_crm_cv, inputs["train"], curve))]]


def _pipeline_inputs(rng, d, s):
    big, classic = d / "big.csv", d / "classic.csv"
    write_interval(big, *random_interval_table(rng, s["n"], s["p"]))
    keys = rng.integers(0, s["concepts"], size=s["classic_rows"])
    values = rng.normal(scale=10.0, size=(s["classic_rows"], s["classic_values"]))
    header = ",".join(["concept"] + [f"V{j + 1}" for j in range(s["classic_values"])])
    body = "\n".join(
        f"k{k}," + ",".join(map(repr, row)) for k, row in zip(keys.tolist(), values.tolist())
    )
    classic.write_text(header + "\n" + body + "\n", encoding="utf-8")
    return {"big": big, "classic": classic}


def _pipeline_sequences(inputs, out):
    big, classic = inputs["big"], inputs["classic"]
    model, pred, agg = out / "crm.model", out / "pred.csv", out / "agg.csv"
    return [[
        Op(["fit", "--method", "crm", "--train", str(big), "--response", "Y",
            "--model-out", str(model)], partial(check_crm_fit, big, model)),
        Op(["predict", "--model", str(model), "--data", str(big), "--out", str(pred)],
           partial(check_predict, big, model, pred)),
        Op(["evaluate", "--model", str(model), "--test", str(big), "--csv"],
           partial(check_evaluate, big, model)),
        Op(["aggregate", "--input", str(classic), "--concept", "concept",
            "--output", str(agg)], partial(check_aggregate, classic, agg)),
    ]]


WORKLOADS = {
    w.name: w for w in (
        Workload("cv-wide", _wide_inputs, _wide_sequences),
        Workload("cv-tall", _tall_inputs, _tall_sequences),
        Workload("pipeline-big", _pipeline_inputs, _pipeline_sequences),
    )
}
