"""Smoke test of the benchmark harness at reduced sizes.

The reduced sizes below appear only in this test; reported numbers use
``workloads.SIZES``.  Run from the repository root with
``python -m pytest -q bench``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SIZES = {
    "cv-wide": {"n": 10, "p": 20, "tables": 1},
    "cv-tall": {"n": 30, "p": 5},
    "pipeline-big": {
        "n": 60, "p": 4, "classic_rows": 300, "classic_values": 3, "concepts": 20,
    },
}


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_exist():
    assert {w["name"] for w in declared()["workloads"]} == set(workloads.WORKLOADS)
    assert set(SMOKE_SIZES) == set(workloads.SIZES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_and_oracles_pass(name, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    out = run.run_workload(name, 3, 0, trace, ROOT, sizes=SMOKE_SIZES[name])
    result = out["result"]
    assert result["correct"], out["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = declared()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if not trace)


def _cli(*argv):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from intervalreg.cli import main
    finally:
        sys.path.remove(str(ROOT / "src"))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


def test_oracles_reject_corrupted_outputs(tmp_path):
    rng = np.random.default_rng(0)
    inputs = workloads._pipeline_inputs(rng, tmp_path, SMOKE_SIZES["pipeline-big"])
    agg = tmp_path / "agg.csv"
    stdout = _cli("aggregate", "--input", inputs["classic"], "--concept", "concept",
                  "--output", agg)
    workloads.check_aggregate(inputs["classic"], agg, stdout)
    lines = agg.read_text().splitlines()
    lines[1] = "0," + lines[1].split(",", 1)[1]
    agg.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.OracleError):
        workloads.check_aggregate(inputs["classic"], agg, stdout)

    wide = tmp_path / "wide.csv"
    workloads.write_interval(wide, *workloads.random_interval_table(rng, 10, 20))
    path_csv = tmp_path / "path.csv"
    stdout = _cli("path", "--method", "lasso-cm", "--train", wide, "--response", "Y",
                  "--out", path_csv)
    workloads.check_lasso_path(wide, path_csv, stdout)
    rows = np.loadtxt(path_csv, delimiter=",", skiprows=1)
    rows[50, 2:] *= 1.01
    np.savetxt(path_csv, rows, fmt="%.17g", delimiter=",", comments="",
               header=path_csv.read_text().splitlines()[0])
    with pytest.raises(workloads.OracleError):
        workloads.check_lasso_path(wide, path_csv, stdout)
