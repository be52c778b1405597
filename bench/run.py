"""Benchmark of the intervalreg command line: seeded workloads, oracles, metrics.

Run from the repository root:

    python3 bench/run.py --workload cv-tall --seed 1 --seconds 20 --trace 0

A run makes the workload's input files once from ``--seed``
(``bench/workloads.py``).  Each pass runs the workload's command
sequences on all of them in a fresh child process (``bench/child.py``)
that imports the package from ``src/`` with BLAS pinned to one thread,
and checks every output against a numpy oracle.  Passes repeat while
the next one is expected to end within ``--seconds``, at least
``MIN_PASSES`` times, so every run measures the same inputs however
fast the code is; each time below is a median over the run's samples.
An operation is one CLI invocation plus its output check; it fails on
a nonzero exit or a failed check.

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref``: one command sequence (cv-wide: cv and path on one
  table; cv-tall: cv; pipeline-big: fit, predict, evaluate, aggregate),
  the sum of its command times, in units of a fixed reference
  computation timed in the same process just before and after the
  sequence (``child.reference_s``).  On a shared 2-vCPU KVM guest (Intel
  Xeon, 300 MB L3) the same code ran up to twice as fast from one
  minute to the next: raw seconds spread by 0.1 to 0.25 of their
  median over ten runs, the ratio by 0.05 to 0.12.  Raw seconds per
  command and per sequence (``wall_s``) are printed and stored with
  the result;
* ``setup_s``: importing ``intervalreg.cli`` in a fresh process, the
  fastest of ``SETUP_PROBES`` import-only processes, half of them before
  the passes and half after, and the pass processes.  The import is
  fixed work that the host can only slow down; on the host above the
  median import time of ten runs moved by 28% between two sets of runs
  of the same code, the fastest by at most 5%;
* ``peak_rss_mb``: peak resident memory of the pass process.

``--trace 1`` alternates untraced and traced passes on the same inputs,
fails any traced operation whose output differs from the untraced one,
and reports the per-layer metrics of ``bench/tracing.py`` and
``trace.overhead_pct`` (median over pairs of traced / untraced pass
time, each in reference units, minus one).
Per-layer times are medians over traced passes; counts and bytes come
from the first traced pass, and repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it repeat every metric with its unit, the per-command times and the
environment, which also go with the spans of the first traced pass to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 16     # import-only processes per untraced run, besides one per pass
MIN_PASSES = 1        # untraced passes, or untraced/traced pairs with --trace 1
DEADLINE_S = 140.0    # start no pass after this; a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def environment(seed: int) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "seed": seed,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown"
            )
    except OSError:
        env["cpu_model"] = "unknown"
    try:
        env["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        env["l3"] = "unknown"
    return env


class Runner:
    """Starts pass processes for one run; every process is waited for."""

    def __init__(self, src: Path, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
        self.count = 0

    def child(self, sequences, trace=False, spans=None) -> dict:
        self.count += 1
        spec = self.workdir / f"child{self.count}.json"
        result = self.workdir / f"child{self.count}.result.json"
        spec.write_text(json.dumps({
            "sequences": sequences, "trace": trace,
            "spans": str(spans) if spans else None, "result": str(result),
        }))
        timeout = max(5.0, 170.0 - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec)],
                env=self.env, timeout=timeout, capture_output=True, text=True,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            raise ChildFailed(f"pass process exceeded {timeout:.0f} s") from None
        if proc.returncode != 0 or not result.exists():
            raise ChildFailed(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result.read_text())


def _fingerprint(outdir: Path, commands) -> dict:
    prints = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(outdir.iterdir())}
    prints["stdout"] = [c["stdout"] for c in commands]
    return prints


def run_pass(runner, workload, inputs, outdir: Path, trace: bool, spans=None) -> dict:
    """Run one pass; return its timings, memory, failures and output fingerprint."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    sequences = workload.sequences(inputs, outdir)
    ops = [op for seq in sequences for op in seq]
    try:
        res = runner.child([[op.argv for op in seq] for seq in sequences],
                           trace=trace, spans=spans)
    except ChildFailed as exc:
        return {"ops": len(ops), "failures": [str(exc)] * len(ops), "crashed": True}
    failures = []
    for op, cmd in zip(ops, res["commands"]):
        if cmd["exit"] != 0:
            failures.append(f"{op.argv[0]}: exit {cmd['exit']}: {cmd['stderr'].strip()[-500:]}")
            continue
        try:
            op.check(cmd["stdout"])
        except Exception as exc:  # any oracle error fails this operation only
            failures.append(f"{op.argv[0]}: {type(exc).__name__}: {exc}")
    timed, refs = iter(res["commands"]), res["reference_s"]
    samples = []  # one per command sequence: ({command: seconds}, reference seconds)
    for k, seq in enumerate(sequences):
        sample: dict[str, float] = {}
        for cmd in (next(timed) for _ in seq):
            sample[cmd["argv"][0]] = sample.get(cmd["argv"][0], 0.0) + cmd["s"]
        samples.append((sample, (refs[k] + refs[k + 1]) / 2.0))
    return {
        "ops": len(ops),
        "failures": failures,
        "crashed": False,
        "wall_s": sum(c["s"] for c in res["commands"]),
        "samples": samples,
        "reference_s": refs,
        "setup_s": res["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "per_layer": res.get("per_layer"),
        "fingerprint": _fingerprint(outdir, res["commands"]),
    }


def run_workload(name, seed, seconds, trace, root: Path, sizes=None) -> dict:
    """One benchmark run; returns the result object and a report for humans."""
    src = root / "src"
    if not (src / "intervalreg" / "cli.py").is_file():
        raise FileNotFoundError(f"no intervalreg sources under {src}")
    workload = WORKLOADS[name]
    sizes = sizes or SIZES[name]
    if trace and "traced_tables" in sizes:
        sizes = dict(sizes, tables=sizes["traced_tables"])
    started = time.perf_counter()
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = root / "bench" / ".work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(src, workdir, started)
        # import-only probes, half before the passes and half after, so that
        # they sample the host over the whole run
        probes = SETUP_PROBES // 2 if not trace else 0
        setup = [runner.child([])["setup_s"] for _ in range(probes)]
        plain, traced, failures, attempted = [], [], [], 0
        indir = workdir / "in"
        indir.mkdir()
        inputs = workload.make_inputs(np.random.default_rng(seed), indir, sizes)
        measure_start = time.perf_counter()
        for i in itertools.count():
            # with --trace 1, odd pairs run the traced pass first, so that
            # running second does not bias the overhead either way
            kinds = [False, True][:: -1 if i % 2 else 1] if trace else [False]
            done = {}
            for kind in kinds:
                spans = out_dir / f"spans-{name}-seed{seed}.tsv" if kind and not traced else None
                done[kind] = run_pass(runner, workload, inputs, workdir / f"out{int(kind)}",
                                      trace=kind, spans=spans)
                attempted += done[kind]["ops"]
                failures += done[kind]["failures"]
            p, t = done[False], done.get(True)
            crashed = any(d["crashed"] for d in done.values())
            if not crashed:
                plain.append(p)
                if t is not None:
                    if t["fingerprint"] != p["fingerprint"] and not t["failures"]:
                        failures += ["traced outputs differ from untraced outputs"] * t["ops"]
                    traced.append((p, t))
            now = time.perf_counter()
            if crashed or now - started > DEADLINE_S:
                break
            # start no pass that would end after --seconds, once MIN_PASSES are done
            per_pass = (now - measure_start) / (i + 1)
            if i + 1 >= MIN_PASSES and now + per_pass - measure_start > seconds:
                break
        setup += [runner.child([])["setup_s"] for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [sample for p in plain for sample, _ in p["samples"]]
    report = {"workload": name, "sizes": sizes, "env": environment(seed),
              "passes": len(plain), "traced_passes": len(traced),
              "sequence_wall_s": [sum(x.values()) for x in samples],
              "sequence_wall_ref": [sum(x.values()) / ref
                                    for p in plain for x, ref in p["samples"]],
              "reference_s": [p["reference_s"] for p in plain],
              "traced_pass_wall_s": [t["wall_s"] for _, t in traced],
              "setup_samples_s": setup + [p["setup_s"] for p in plain],
              "failures": failures[:20], "attempted": attempted, "failed": len(failures)}
    metrics = {}
    if samples:
        report["raw_s"] = {
            f"{cmd}_s": statistics.median(x.get(cmd, 0.0) for x in samples)
            for cmd in samples[0]
        }
        report["raw_s"]["wall_s"] = statistics.median(report["sequence_wall_s"])
    if not trace and samples:
        values = {
            "wall_ref": statistics.median(report["sequence_wall_ref"]),
            "setup_s": min(report["setup_samples_s"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    elif trace and traced:
        layers = [t["per_layer"] for _, t in traced]
        for m, unit, _ in tracing.PER_LAYER:
            value = (statistics.median(layer[m] for layer in layers) if unit == "s"
                     else layers[0][m])
            metrics[m] = {"value": value, "unit": unit}
        overhead = statistics.median(
            (t["wall_s"] / statistics.fmean(t["reference_s"]))
            / (p["wall_s"] / statistics.fmean(p["reference_s"])) for p, t in traced
        )
        metrics["trace.overhead_pct"] = {"value": 100.0 * (overhead - 1.0), "unit": "%"}
    result = {
        "correct": not failures and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": metrics,
    }
    report["metrics"] = metrics
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of an intervalreg checkout", file=sys.stderr)
        return 2
    report, result = out["report"], out["result"]
    print(f"workload {report['workload']} sizes {json.dumps(report['sizes'])}")
    print(f"env {json.dumps(report['env'])}")
    print(f"passes {report['passes']} traced {report['traced_passes']}")
    for cmd, value in report.get("raw_s", {}).items():
        print(f"raw {cmd} = {value:.6g} s")
    for m, v in result["metrics"].items():
        print(f"metric {m} = {v['value']:.6g} {v['unit']}")
    print(f"failed_ops_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for failure in report["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
