"""Smoke test of the benchmark: every workload at a tiny length.

    python3 -m pytest perfbench/test_smoke.py -q      # about two minutes

Runs the benchmark command from the checkout root on the default seed (whose
ops have recorded outcomes), untraced once and traced twice per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import workloads   # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = workloads.DEFAULT_SEED


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def record_of(workload: str, trace: int) -> dict:
    path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    """One untraced and two traced runs of a workload, same seed."""
    w = request.param
    untraced = result_of(bench(w, 0))
    traced = [result_of(bench(w, 1)) for _ in range(2)]
    return w, untraced, traced, record_of(w, 1)


def test_benchmark_file_names_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


def test_end_to_end_metrics_and_no_failures(runs):
    _, untraced, _, _ = runs
    got = {name: m["unit"] for name, m in untraced["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert untraced["correct"] and untraced["failed"] == 0   # fail_frac = 0
    assert untraced["attempted"] >= 1


def test_per_layer_metrics_repeat_and_span_tree(runs):
    w, _, (first, second), record = runs
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == units("per_layer")
    assert first["correct"] and second["correct"]
    calls = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                       if k.endswith(".calls")}
    assert calls(first) == calls(second)
    tree = record["span_tree"]
    assert tree["spans"] > 0
    assert tree["min_self_ns"] >= 0
    assert tree["max_self_over_wall"] <= 1.0


def test_workloads_separate_the_layers(runs):
    w, _, (traced, _), _ = runs
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_calls = lambda layer: sum(v for k, v in m.items()
                                    if k.startswith(layer + ".")
                                    and k.endswith(".calls"))
    if w == "soliton-descent":
        assert layer_calls("dispersion") == 0
        self_times = {k: v for k, v in m.items() if k.endswith(".self_s")}
        assert max(self_times, key=self_times.get) == "dirac.eigen_solve.self_s"
    elif w == "cavity-closed-form":
        assert layer_calls("dirac") == 0
        assert layer_calls("descent") == 0
    elif w == "gamma-sweep":
        assert layer_calls("dirac") > 0 and layer_calls("dispersion") > 0
    else:
        assert layer_calls("verify") > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("soliton-descent", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _table(tmp_path, text) -> Path:
    path = tmp_path / "op.csv"
    path.write_text(text)
    return path


def test_checks_reject_unconverged_soliton(tmp_path):
    argv = workloads.README_SOLITON
    head = ("g,m,N,k_list,energy,lambdas,el_residual,eigen_residual,"
            "iterations,converged\n")
    good = _table(tmp_path, head + "10.0,1.0,1,1,0.77,0.55,7e-07,1e-14,97,true\n")
    assert checks.check(argv, 0, good, None)[0]
    bad = _table(tmp_path, head + "10.0,1.0,1,1,0.77,0.55,2e-06,1e-14,4000,false\n")
    assert not checks.check(argv, 2, bad, None)[0]


def test_checks_reject_a_mit_lambda_that_is_not_a_root(tmp_path):
    table = _table(tmp_path, "R,m,k,lambda\n1.0,1.0,1,3.0\n")
    ok, reason, _ = checks.check(["mit", "--m", "1", "--R", "1"], 0, table,
                                 None)
    assert not ok and "quantization" in reason


def test_checks_compare_recorded_values_at_1e_10(tmp_path):
    table = _table(tmp_path, "R,m,k,lambda\n1.0,1.0,1,3.0\n")
    got = checks.outcome(["mit", "--m", "1", "--R", "1"], 0, table)
    record = {"exit": 0, "values": [3.0], "collapse": False}
    assert checks._compare(got, record) is None
    assert checks._compare(got, dict(record, values=[3.0 * (1 + 2e-10)]))
    assert checks._compare(got, dict(record, exit=2))


def test_checks_accept_a_collapse_only_where_recorded(tmp_path):
    argv = ["bag", "--g", "0.7", "--a", "0.008", "--b", "0.0002", "--N", "3"]
    table = _table(tmp_path, "N,g,m,a,b,k,R_opt,lambda,energy,"
                   "curvature_residual,flagged\n3,0.7,1.0,0.008,0.0002,1,"
                   "0.01,1.0,3.00001,1.59,true\n")
    assert not checks.check(argv, 2, table, None)[0]
    recorded = checks.outcome(argv, 2, table)
    assert checks.check(argv, 2, table, recorded)[0]
