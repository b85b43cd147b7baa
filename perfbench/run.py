"""bagforge benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload soliton-descent --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout (it imports bagforge from `src/`).
Each op is one in-process call of `bagforge.cli.main(argv)` writing into a
temporary directory; one client runs the ops back to back (closed loop,
default --jobs).  The ops are generated from --seed (see workloads.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
a fixed prefix of the op stream twice per op, untraced and traced, and
reports the per-layer metrics: calls, self time and per-call medians of the
public functions of every layer, the derived ratios with their bases, and the
tracing overhead.  Every op's output is checked (checks.py); any failure
makes the result `"correct": false` and the exit code 1.

Human-readable lines go to stdout first; the last stdout line is the JSON
result.  A fuller record (environment, every op, the failures) is written to
.bench_out/, and with --trace 1 the spans as gzipped JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
#: extra set-up measurements besides the measured workload process itself
SETUP_PROBES = 2
#: the whole run must end within this many seconds
BUDGET_S = 170.0
#: a tail percentile needs at least this many samples above it
TAIL_ABOVE = 10


def tail(samples: list):
    """(value, percentile) of the highest percentile with TAIL_ABOVE samples
    above it; the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_ABOVE:
        return xs[-1], 100.0
    return xs[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def spawn(args, deadline: float, extra=()) -> tuple:
    """Run one workload process; (set-up seconds, RESULT payload or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("benchmark: workload process ran out of time")
    if proc.returncode != 0:
        sys.exit(f"benchmark: workload process exited {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - t0
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None:
        sys.exit("benchmark: workload process reported no set-up time")
    return ready, result


def environment(args, versions: dict) -> dict:
    import workloads
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bagforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    spec = workloads.WORKLOADS[args.workload]
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            **versions, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "seed": args.seed, "seconds": args.seconds,
            "workload": args.workload, "why": spec["why"],
            "inputs": spec["inputs"]}


def end_to_end(setups: list, res: dict) -> tuple:
    ops = res["op_s"]
    value, pct = tail(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.tail": (value, "s"),
        "ops_per_s": (sum(res["ok"]) / res["wall_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "op_s.tail": f"p{pct:.1f} of {len(ops)} ops, "
                     f"{min(TAIL_ABOVE, len(ops) - 1)} above",
        "ops_per_s": f"{sum(res['ok'])} ops in {res['wall_s']:.2f} s",
    }
    return metrics, notes


def per_layer(res: dict) -> tuple:
    import spans
    units = spans.metric_units()
    layers = res["layers"]
    traced = statistics.median(res["traced_op_s"])
    plain = statistics.median(res["untraced_op_s"])
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    metrics.update({
        "trace.ops": (len(res["traced_op_s"]), "count"),
        "trace.op_s.p50": (traced, "s"),
        "trace.untraced_op_s.p50": (plain, "s"),
        "trace.overhead": (traced / plain - 1.0, "ratio"),
    })
    notes = {name: f"base {base} = {layers[base]}"
             for name, _, base in spans.DERIVED if base}
    tree = res["span_tree"]
    notes["trace.ops"] = (f"{tree['spans']} spans; least self time "
                          f"{tree['min_self_ns']} ns; self times cover at "
                          f"most {tree['max_self_over_wall']:.4f} of an op")
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "bagforge" / "cli.py").is_file():
        sys.exit(f"benchmark: no bagforge sources under {ROOT / 'src'}")
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args, deadline, ["--probe"])[0])
    spans_file = ["--spans-file", f"{stem}.spans.jsonl.gz"] if args.trace else []
    ready, res = spawn(args, deadline, spans_file)
    setups.append(ready)
    if args.trace:
        metrics, notes = per_layer(res)
    else:
        metrics, notes = end_to_end(setups, res)
    attempted, failed = len(res["ok"]), len(res["failures"])
    env = environment(args, res.pop("versions"))

    print(f"bagforge benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for key in ("why", "inputs"):
        print(f"  {key}: {env[key]}")
    print(f"  env: commit {env['git_commit']}, source {env['source_sha256'][:12]}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}, "
          f"blas threads {env['blas_threads']}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:.6g} {unit}{note}")
    print(f"  {'fail_frac':<48} {failed / attempted:.6g} fraction  "
          f"({failed} of {attempted} ops failed)")
    print(f"  flagged collapses: {res['collapses']} of {attempted} ops "
          f"(accepted only where recorded); {res['compared']} ops compared "
          f"with the seed-{workloads.DEFAULT_SEED} record at "
          f"{checks.RECORDED_RTOL:g}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")

    Path(f"{stem}.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "notes": notes,
         "attempted": attempted, "failed": failed, **res}, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
