"""Span tracing of the intervalreg layers, installed from outside the package.

``install`` wraps every public function and public method of the layer
modules, and rebinds each wrapped function in every module that imported
it by name (``models`` and ``selection`` both bind ``fit_elastic_net``,
for example).  A span records its name, parent span, start, end and the
time covered by its child spans; spans stay in memory until ``write``.
``per_layer`` turns the spans of one pass into the benchmark's per-layer
metrics.  A metric whose function no longer exists reads as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from time import perf_counter

PACKAGE = "intervalreg"
LAYERS = ("cli", "tables", "models", "selection", "solvers", "metrics")


def _path_size(args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Extra facts recorded per call: (args, kwargs, result) -> value.
_PROBES = {
    "cli.main": lambda a, k, r: (k.get("argv", a[0] if a else None) or ["?"])[0],
    "tables.read_interval_csv": lambda a, k, r: _path_size(a, k),
    "tables.read_classic_csv": lambda a, k, r: _path_size(a, k),
    "tables.write_interval_csv": lambda a, k, r: _path_size(a[1:], k),
    "solvers.fit_elastic_net": lambda a, k, r: (
        int(getattr(r, "n_sweeps", 0)), bool(getattr(r, "converged", True))
    ),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # (id, parent id or -1, name, start, end, child seconds, info)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def wrap(self, name, fn):
        probe = _PROBES.get(name)
        spans, stack, child_s = self.spans, self._stack, self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child_s.append(0.0)
            stack.append(span_id)
            info = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = "raised " + type(exc).__name__
                raise
            else:
                if probe is not None:
                    info = probe(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent >= 0:
                    child_s[parent] += t1 - t0
                spans[span_id] = (span_id, parent, name, t0, t1, child_s[span_id], info)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tchild_s\tinfo\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and methods."""
    pkg = importlib.import_module(PACKAGE)
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{meth}", fn))
    for mod in (pkg, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


# ---------------------------------------------------------------------------
# Per-layer metrics from one pass's spans
# ---------------------------------------------------------------------------

class _Spans:
    def __init__(self, spans):
        self.by_name: dict[str, list[tuple]] = {}
        for s in spans:
            self.by_name.setdefault(s[2], []).append(s)
        self.all = spans

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def busy_s(self, name):
        """Time inside ``name``, counting a call nested in another call once."""
        total = 0.0
        for s in self.by_name.get(name, ()):
            p = s[1]
            while p >= 0 and self.all[p][2] != name:
                p = self.all[p][1]
            if p < 0:
                total += s[4] - s[3]
        return total

    def self_s(self, name):
        return sum(s[4] - s[3] - s[5] for s in self.by_name.get(name, ()))

    def max_s(self, name):
        return max((s[4] - s[3] for s in self.by_name.get(name, ())), default=0.0)

    def infos(self, name):
        return [s[6] for s in self.by_name.get(name, ())]

    def raised(self, name, exc_name):
        return sum(1 for i in self.infos(name) if i == "raised " + exc_name)

    def command_s(self, command):
        return sum(
            s[4] - s[3] for s in self.by_name.get("cli.main", ()) if s[6] == command
        )


def _sweeps(sp):
    return [i[0] for i in sp.infos("solvers.fit_elastic_net") if isinstance(i, tuple)]


def _bytes(sp, name):
    return sum(i for i in sp.infos(name) if isinstance(i, int))


#: (metric name, unit, value from spans); the order is the report order.
PER_LAYER = [
    ("cli.self_s", "s", lambda sp: sp.self_s("cli.main")),
    *[
        (f"cli.{cmd}.s", "s", lambda sp, cmd=cmd: sp.command_s(cmd))
        for cmd in ("cv", "path", "fit", "predict", "evaluate", "aggregate")
    ],
    ("tables.to_center_range.calls", "count", lambda sp: sp.calls("tables.to_center_range")),
    ("tables.to_center_range.s", "s", lambda sp: sp.busy_s("tables.to_center_range")),
    ("tables.take.s", "s", lambda sp: sp.busy_s("tables.take")),
    ("tables.read_interval_csv.s", "s", lambda sp: sp.busy_s("tables.read_interval_csv")),
    ("tables.predictor_bounds.s", "s", lambda sp: sp.busy_s("tables.predictor_bounds")),
    ("tables.response_bounds.s", "s", lambda sp: sp.busy_s("tables.response_bounds")),
    ("tables.bytes_read", "bytes", lambda sp: (
        _bytes(sp, "tables.read_interval_csv") + _bytes(sp, "tables.read_classic_csv"))),
    ("tables.read_classic_csv.s", "s", lambda sp: sp.busy_s("tables.read_classic_csv")),
    ("tables.aggregate_classic.s", "s", lambda sp: sp.busy_s("tables.aggregate_classic")),
    ("tables.write_interval_csv.s", "s", lambda sp: sp.busy_s("tables.write_interval_csv")),
    ("tables.bytes_written", "bytes", lambda sp: _bytes(sp, "tables.write_interval_csv")),
    ("solvers.fit_elastic_net.calls", "count", lambda sp: sp.calls("solvers.fit_elastic_net")),
    ("solvers.fit_elastic_net.s", "s", lambda sp: sp.busy_s("solvers.fit_elastic_net")),
    ("solvers.sweeps", "count", lambda sp: sum(_sweeps(sp))),
    ("solvers.sweeps_max", "count", lambda sp: max(_sweeps(sp), default=0)),
    ("solvers.nonconverged", "count", lambda sp: sum(
        1 for i in sp.infos("solvers.fit_elastic_net") if isinstance(i, tuple) and not i[1])),
    ("solvers.solve_spd.calls", "count", lambda sp: sp.calls("solvers.solve_spd")),
    ("solvers.solve_spd.s", "s", lambda sp: sp.busy_s("solvers.solve_spd")),
    ("solvers.solve_spd.singular", "count", lambda sp: sp.raised("solvers.solve_spd", "SingularDesign")),
    ("solvers.fit_ridge.calls", "count", lambda sp: sp.calls("solvers.fit_ridge")),
    ("solvers.fit_ridge.s", "s", lambda sp: sp.busy_s("solvers.fit_ridge")),
    ("solvers.fit_ols.s", "s", lambda sp: sp.busy_s("solvers.fit_ols")),
    ("models.fit.calls", "count", lambda sp: sp.calls("models.fit")),
    ("models.fit.self_s", "s", lambda sp: sp.self_s("models.fit")),
    ("models.fit.max_s", "s", lambda sp: sp.max_s("models.fit")),
    ("models.predict.s", "s", lambda sp: sp.busy_s("models.predict")),
    ("models.predict.self_s", "s", lambda sp: sp.self_s("models.predict")),
    ("models.serialize.s", "s", lambda sp: sp.busy_s("models.serialize")),
    ("models.deserialize.s", "s", lambda sp: sp.busy_s("models.deserialize")),
    ("metrics.evaluate.s", "s", lambda sp: sp.busy_s("metrics.evaluate")),
    ("selection.cross_validate.self_s", "s", lambda sp: sp.self_s("selection.cross_validate")),
    ("selection.coefficient_path.s", "s", lambda sp: sp.busy_s("selection.coefficient_path")),
    ("selection.make_lambda_grid.s", "s", lambda sp: sp.busy_s("selection.make_lambda_grid")),
    ("trace.spans", "count", lambda sp: len(sp.all)),
]


def per_layer(spans) -> dict[str, float]:
    sp = _Spans(spans)
    return {name: value(sp) for name, _, value in PER_LAYER}
