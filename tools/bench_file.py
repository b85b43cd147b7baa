"""Write BENCH_<tag>.json: the checkout against a parent commit, in pairs.

    python3 tools/bench_file.py 30 --parent HEAD~1 [--seed 0]

Compares the checkout holding this script (the "tree") with REV, whose
committed files are exported (`git archive`) to .bench_tmp/parent-<sha> and
removed at the end.  Each workload that BENCHMARK.json gates runs the
benchmark command (`perfbench/run.py`) with `--trace 0`, the benchmark's
run length and the given seed, PAIRS times on each side; the two runs of a
pair follow each other, and the side that goes first alternates from pair
to pair, so slow drifts of the host's load fall on both sides alike.

Per workload and side, the file keeps every end-to-end metric's samples,
median and quartiles, and the environment record that run.py leaves in
.bench_out/; per metric, the `judge` of the paired samples.  The `tree`
record holds `head`, the commit the checkout is at, and `dirty`, whether
what the runs execute (`src/`, `tests/`, `perfbench/`, BENCHMARK.json)
differs from it: an uncommitted tree measures code `head` does not hold.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: share of the pairs that must go one way for a "faster" or "slower" verdict
AGREE = 0.9
#: pairs of runs per workload: with 3, HEAD against itself read "slower" on
#: two metrics, far inside their BENCHMARK.json bounds
PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def tree() -> dict:
    """The checkout's commit and whether what the runs execute differs
    from that commit."""
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "tests",
                              "perfbench", "BENCHMARK.json"))}


def judge(parent, tree, better: str, bound: float) -> dict:
    """Judge paired samples of one metric, pair i being (parent[i],
    tree[i]), with its `better` ("lower" or "higher") and relative `bound`
    from BENCHMARK.json.

    * `verdict`: "faster" when the tree's median is better than the
      parent's by more than the parent's quartile spread (q3 - q1) and the
      tree is better in at least AGREE of the pairs; "slower" likewise the
      other way; "within spread" otherwise.  `agree` counts the pairs that
      go the way the medians go (none when the medians are equal).
    * `past_bound`: the tree's median is worse than the parent's by more
      than `bound`.
    * `unresolved`: the parent's quartile spread is wider than `bound` of
      its median, so its runs cannot tell a change within the bound from
      none, unless every tree run is better than every parent run.
    * `ratio`: quartiles of the ratios tree[i] / parent[i], which scatter
      less than either side's samples: a pair shares the host's load.
    """
    if len(parent) != len(tree) or len(parent) < 2:
        raise ValueError("need at least two pairs of samples")
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    t_med = statistics.median(tree)
    sign = -1.0 if better == "lower" else 1.0       # > 0: the tree is better
    gains = [sign * (t - p) for p, t in zip(parent, tree)]
    shift = sign * (t_med - med)
    agree = (sum(g > 0 for g in gains) if shift > 0 else
             sum(g < 0 for g in gains) if shift < 0 else 0)
    word = "within spread"
    if abs(shift) > q3 - q1 and agree >= math.ceil(AGREE * len(gains)):
        word = "faster" if shift > 0 else "slower"
    if better == "lower":
        past_bound = t_med > med * (1.0 + bound)
        every_run_better = max(tree) < min(parent)
    else:
        past_bound = t_med < med * (1.0 - bound)
        every_run_better = min(tree) > max(parent)
    r1, r2, r3 = statistics.quantiles([t / p for p, t in zip(parent, tree)],
                                      n=4, method="inclusive")
    return {"verdict": word, "agree": agree, "pairs": len(gains),
            "past_bound": past_bound,
            "unresolved": q3 - q1 > bound * abs(med) and not every_run_better,
            "ratio": {"median": r2, "q1": r1, "q3": r3}}


def summary(samples) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "samples": list(samples)}


def run_workload(root: Path, spec: dict, workload: str, seed: int) -> dict:
    """One benchmark run in the checkout at `root`: its JSON result and
    the environment record it wrote."""
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"bench_file: {workload} in {root} printed nothing "
                 f"(exit {proc.returncode}): {proc.stderr.strip()}")
    record = root / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return {"result": json.loads(lines[-1]),
            "environment": json.loads(record.read_text())["environment"]}


def export(rev: str) -> Path:
    """REV's committed files under .bench_tmp/parent-<sha>, fresh."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = ROOT / ".bench_tmp" / f"parent-{sha[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"bench_file: git archive {sha} failed")
    return dest


def compare(spec: dict, parent_root: Path, seed: int) -> dict:
    metrics = spec["end_to_end"]
    roots = {"parent": parent_root, "tree": ROOT}
    runs = {w["name"]: {"parent": [], "tree": []} for w in spec["workloads"]}
    for i in range(PAIRS):
        order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
        for workload, sides in runs.items():
            for side in order:
                sides[side].append(
                    run_workload(roots[side], spec, workload, seed))
            print(f"pair {i + 1}/{PAIRS} {workload}", flush=True)
    out = {}
    for workload, sides in runs.items():
        values = {side: {m["name"]: [r["result"]["metrics"][m["name"]]["value"]
                                     for r in side_runs] for m in metrics}
                  for side, side_runs in sides.items()}
        out[workload] = {
            **{side: {"correct": all(r["result"]["correct"]
                                     for r in side_runs),
                      "source_sha256":
                          side_runs[-1]["environment"]["source_sha256"],
                      "metrics": {name: summary(v) for name, v in
                                  values[side].items()}}
               for side, side_runs in sides.items()},
            "verdicts": {m["name"]: judge(values["parent"][m["name"]],
                                          values["tree"][m["name"]],
                                          m["better"], m["bound"])
                         for m in metrics},
            "environment": sides["tree"][-1]["environment"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag", help="file name tag, BENCH_<tag>.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parent", metavar="REV", required=True,
                    help="compare with this commit, in alternating pairs")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    head = {"seed": args.seed, "seconds": spec["run_seconds"], "tree": tree()}
    parent_root = export(args.parent)
    try:
        body = {"parent": {"rev": args.parent,
                           "commit": git("rev-parse", args.parent)},
                "pairs": PAIRS,
                "workloads": compare(spec, parent_root, args.seed)}
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    for workload, res in body["workloads"].items():
        for name, v in res["verdicts"].items():
            p, t = (res[side]["metrics"][name] for side in ("parent", "tree"))
            r = v["ratio"]
            print(f"{workload:<16} {name:<12} "
                  f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                  f"{t['median']:.4g} [{t['q1']:.4g}, {t['q3']:.4g}]  "
                  f"{v['verdict']}"
                  f"{', unresolved' if v['unresolved'] else ''}"
                  f"{', past bound' if v['past_bound'] else ''} "
                  f"({v['agree']} of {v['pairs']}), "
                  f"tree/parent {r['median']:.3f} "
                  f"[{r['q1']:.3f}, {r['q3']:.3f}]")
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({**head, **body}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
