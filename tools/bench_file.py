"""Write BENCH_<tag>.json: the end-to-end benchmark summary of a checkout.

    python3 tools/bench_file.py 14 --seed 0

For each workload that BENCHMARK.json gates, runs the benchmark command
(`perfbench/run.py`) with `--trace 0`, the benchmark's run length and the
given seed, from the root of the checkout holding this script.  The file
keeps, per workload, the last stdout line (the JSON result: correctness,
failed ops and the end-to-end metrics) and the environment record that
run.py leaves in .bench_out/, and a `tree` record: `head`, the commit the
checkout is at, and `dirty`, whether `src/` or `tests/` differ from it (a
file from an uncommitted tree measures code that `head` does not hold).
Two such files made with the same seed on the same machine compare a change
with its parent.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tree() -> dict:
    """The checkout's commit and whether its code differs from that commit."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "tests"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag", help="file name tag, BENCH_<tag>.json")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"bench_file: {workload} printed nothing "
                     f"(exit {proc.returncode}): {proc.stderr.strip()}")
        record = ROOT / ".bench_out" / f"{workload}-seed{args.seed}-trace0.json"
        runs[workload] = {
            "result": json.loads(lines[-1]),
            "environment": json.loads(record.read_text())["environment"]}
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                               "tree": tree(), "workloads": runs},
                              indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
