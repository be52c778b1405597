"""One benchmark pass in a fresh process: import the program, run CLI commands.

Usage: ``python child.py SPEC.json``.  The spec holds ``sequences`` (lists
of argv lists for ``intervalreg.cli.main``), ``trace`` (install span
tracing), ``spans`` (file for the span table, or null) and ``result``
(the JSON file this process writes: import time, per-command exit code,
seconds and captured output, the reference times before the first
sequence and after each one, peak resident memory, and per-layer metrics
when traced).  An empty sequence list measures the import alone.
"""

import contextlib
import csv
import io
import json
import resource
import sys
import time
import traceback


def reference_s() -> float:
    """Time a fixed computation that does not use the program.

    It mixes what the program's commands spend their time on (reading
    CSV text into many small objects, per-element Python loops over
    arrays, small matrix products), so that its time follows the speed
    the host gives this process from one moment to the next.
    """
    import numpy as np  # after the timed import of the program, which loads numpy

    lines = [
        ",".join(map(repr, row))
        for row in np.random.default_rng(0).uniform(-5.0, 5.0, size=(100, 20)).tolist()
    ]
    start = time.perf_counter()
    for _ in range(50):
        cells = [tuple((float(c), float(c) + 1.0) for c in rec) for rec in csv.reader(lines)]
        m = np.array([[lo for lo, _ in row] for row in cells])
        acc = 0.0
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                acc += (m[i, j] + m[i, j]) / 2.0
        gram = m.T @ m
        for k in range(100):
            gram[k % 20, k % 20] += acc * 1e-12
            gram @ m[k]
    return time.perf_counter() - start


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import intervalreg.cli as cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import tracing  # this file's directory is first on sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)

    references = [reference_s()] if spec["sequences"] else []
    commands = []
    for sequence in spec["sequences"]:
        for argv in sequence:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            except Exception:  # a crash is a failed operation, not a harness error
                code = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
            commands.append({
                "argv": argv, "exit": code, "s": elapsed,
                "stdout": out.getvalue(), "stderr": err.getvalue(),
            })
        references.append(reference_s())

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": setup_s,
        "commands": commands,
        "reference_s": references,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"] = tracing.per_layer(tracer.spans)
        if spec.get("spans"):
            tracer.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
