"""One workload process: import bagforge, warm up, run the ops, report.

Started by run.py, never by hand.  Protocol on stdout: `READY <t>` once
the import and the warm-up op are done (t on the monotonic clock, which
run.py shares, so it can time set-up from before the process started), then
with --probe the process exits; otherwise one `RESULT <json>` line follows.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for op outputs, inside the checkout and git-ignored
TMP_PARENT = ROOT / ".bench_tmp"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected_seed0.json"


def import_cli():
    sys.path.insert(0, str(SRC))
    import bagforge.cli
    return bagforge.cli


def run_op(cli, argv: list, out: Path):
    """One in-process CLI call writing under `out`: (exit code, error)."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return cli.main(argv + ["--out", str(out)]), None
        except Exception as exc:    # an op that raises is a failed op
            return None, f"{type(exc).__name__}: {exc}"


def _blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS (numpy's and scipy's)."""
    import ctypes
    import glob
    out = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules[pkg]
        libs = glob.glob(os.path.join(os.path.dirname(mod.__file__), os.pardir,
                                      f"{pkg}.libs", "*openblas*"))
        for lib in libs:
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                try:
                    out[pkg] = getattr(ctypes.CDLL(lib), symbol)()
                except (OSError, AttributeError):
                    continue
    return out


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads()}


def _judge(runs: list, expected: dict) -> dict:
    """Check every op; runs are dicts with argv, out, code, error."""
    failures, collapses, compared = [], 0, 0
    for run in runs:
        key = " ".join(run["argv"])
        if run["error"]:
            ok, reason, collapse = False, run["error"], False
        else:
            ok, reason, collapse = checks.check(
                run["argv"], run["code"], run["out"].with_suffix(".csv"),
                expected.get(key))
        compared += key in expected
        collapses += collapse
        run["ok"], run["reason"] = ok, reason
        if not ok:
            failures.append(f"{key}: {reason}")
    return {"failures": failures, "collapses": collapses,
            "compared": compared}


def timed_run(cli, workload, seed, seconds, tmp: Path, expected) -> dict:
    """Closed loop, one client: the next op starts when the last returns;
    whole cycles of ops until `seconds` have passed."""
    runs = []
    t_start = time.perf_counter()
    for cycle in workloads.cycles(workload, seed):
        if time.perf_counter() - t_start >= seconds:
            break
        for argv in cycle:
            out = tmp / f"op{len(runs)}"
            t0 = time.perf_counter()
            code, error = run_op(cli, argv, out)
            runs.append({"argv": argv, "out": out, "code": code,
                         "error": error, "op_s": time.perf_counter() - t0})
    wall = time.perf_counter() - t_start
    verdict = _judge(runs, expected)
    return {"op_s": [r["op_s"] for r in runs], "wall_s": wall,
            "ok": [r["ok"] for r in runs], **verdict,
            "ops": [[" ".join(r["argv"]), r["op_s"], r["reason"]]
                    for r in runs]}


def traced_run(cli, workload, seed, seconds, tmp: Path, expected,
               spans_file: Path) -> dict:
    """Each op of a fixed prefix runs untraced and traced, in alternating
    order; the traced call must reproduce the untraced outcome exactly."""
    tracer = spans.Tracer()
    runs = {False: [], True: []}
    walls = {}
    for i, argv in enumerate(workloads.traced_ops(workload, seed, seconds)):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            out = tmp / f"op{i}{'t' if traced else 'u'}"
            if traced:
                tracer.op_id = i
                tracer.install()
            t0 = time.perf_counter_ns()
            try:
                code, error = run_op(cli, argv, out)
            finally:
                t1 = time.perf_counter_ns()
                if traced:
                    tracer.uninstall()
            if traced:
                walls[i] = t1 - t0
            runs[traced].append({"argv": argv, "out": out, "code": code,
                                 "error": error, "op_s": (t1 - t0) * 1e-9})
    verdict = _judge(runs[False] + runs[True], expected)
    outcome = lambda r: checks.outcome(r["argv"], r["code"],
                                       r["out"].with_suffix(".csv"))
    for plain, traced in zip(runs[False], runs[True]):
        if plain["ok"] and traced["ok"] and outcome(plain) != outcome(traced):
            verdict["failures"].append(
                f"{' '.join(plain['argv'])}: traced outcome differs")
    tracer.write(spans_file)
    return {"untraced_op_s": [r["op_s"] for r in runs[False]],
            "traced_op_s": [r["op_s"] for r in runs[True]],
            "layers": tracer.metrics(), "span_tree": tracer.span_tree(walls),
            "ok": [r["ok"] for r in runs[False] + runs[True]], **verdict}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-file", type=Path)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    cli = import_cli()
    expected = json.loads(EXPECTED_FILE.read_text())["outcomes"]
    TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        tmp = Path(tmp)
        warmup = workloads.WORKLOADS[args.workload]["warmup"]
        code, error = run_op(cli, warmup, tmp / "warmup")
        verdict = _judge([{"argv": warmup, "out": tmp / "warmup",
                           "code": code, "error": error}], expected)
        if verdict["failures"]:
            sys.exit(f"warm-up op failed: {verdict['failures'][0]}")
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.probe:
            return
        if args.trace:
            result = traced_run(cli, args.workload, args.seed, args.seconds,
                                tmp, expected, args.spans_file)
        else:
            result = timed_run(cli, args.workload, args.seed, args.seconds,
                               tmp, expected)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
