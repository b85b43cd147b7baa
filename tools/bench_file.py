"""Write BENCH_<tag>.json: the end-to-end benchmark summary of a checkout.

    python3 tools/bench_file.py 14 --seed 0
    python3 tools/bench_file.py 19 --seed 1 --parent HEAD~1 --pairs 10

For each workload that BENCHMARK.json gates, runs the benchmark command
(`perfbench/run.py`) with `--trace 0`, the benchmark's run length and the
given seed, from the root of the checkout holding this script.  The file
keeps, per workload, the last stdout line (the JSON result: correctness,
failed ops and the end-to-end metrics) and the environment record that
run.py leaves in .bench_out/, and a `tree` record: `head`, the commit the
checkout is at, and `dirty`, whether `src/` or `tests/` differ from it (a
file from an uncommitted tree measures code that `head` does not hold).

With `--parent REV` the file compares the checkout (the "tree") with REV.
REV's committed files are exported (`git archive`) to .bench_tmp/parent-<sha>
and removed at the end.  Each workload then runs `--pairs` times (at least
ten) on each side; the two runs of a pair follow each other, and the side
that goes first alternates from pair to pair, so slow drifts of the host's
load fall on both sides alike.  Per workload and side, the file keeps every
end-to-end metric's samples, median and quartiles, and, per metric, the
`verdict` of the paired samples with the count of pairs that agree, whether
the tree's median is worse than the parent's by more than the metric's
`bound` in BENCHMARK.json (`past_bound`), whether the parent's own spread
is too wide for that bound to tell (`unresolved`), and the median and
quartiles of the pairs' tree/parent ratios (`ratio`), which the summary
lines print too.
Single-run files made with the same seed on the same machine can be
compared too, but a single run does not show the host's noise.
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
#: fewest pairs `--parent` accepts: with 3, HEAD against itself read
#: "slower" on two metrics, far inside their BENCHMARK.json bounds
MIN_PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def tree() -> dict:
    """The checkout's commit and whether its code differs from that commit."""
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "tests"))}


def verdict(parent, tree, better: str) -> dict:
    """Verdict on paired samples of one metric, pair i being (parent[i],
    tree[i]); `better` is "lower" or "higher", as in BENCHMARK.json.

    "faster" when the tree's median is better than the parent's by more
    than the parent's quartile spread (q3 - q1) and the tree is better in
    at least AGREE of the pairs; "slower" likewise the other way; "within
    spread" otherwise.  `agree` counts the pairs that go the way the
    medians go (none when the medians are equal)."""
    if len(parent) != len(tree) or len(parent) < 2:
        raise ValueError("need at least two pairs of samples")
    sign = -1.0 if better == "lower" else 1.0       # > 0: the tree is better
    gains = [sign * (t - p) for p, t in zip(parent, tree)]
    shift = sign * (statistics.median(tree) - statistics.median(parent))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    agree = (sum(g > 0 for g in gains) if shift > 0 else
             sum(g < 0 for g in gains) if shift < 0 else 0)
    word = "within spread"
    if abs(shift) > q3 - q1 and agree >= math.ceil(AGREE * len(gains)):
        word = "faster" if shift > 0 else "slower"
    return {"verdict": word, "agree": agree, "pairs": len(gains)}


def past_bound(parent, tree, better: str, bound: float) -> bool:
    """Whether the tree's median is worse than the parent's by more than
    the relative `bound`, in the direction `better` ("lower" or "higher")
    names, as BENCHMARK.json gives both for each end-to-end metric."""
    p, t = statistics.median(parent), statistics.median(tree)
    if better == "lower":
        return t > p * (1.0 + bound)
    return t < p * (1.0 - bound)


def unresolved(parent, tree, better: str, bound: float) -> bool:
    """Whether the parent's quartile spread (q3 - q1) is wider than the
    relative `bound` of its median, so that its runs cannot tell a change
    within the bound from none, unless every run of the tree is better
    than every run of the parent, in the direction `better` names."""
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if q3 - q1 <= bound * abs(med):
        return False
    if better == "lower":
        return not max(tree) < min(parent)
    return not min(tree) > max(parent)


def pair_ratios(parent, tree) -> dict:
    """Median and quartiles of the ratios tree[i] / parent[i] of the pairs.
    The two runs of a pair share the host's load of the moment, so these
    ratios scatter less than either side's samples, and show a change the
    verdict's quartile rule may read as "within spread"."""
    ratios = [t / p for p, t in zip(parent, tree)]
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


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


def compare(spec: dict, parent_root: Path, seed: int, pairs: int) -> dict:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    roots = {"parent": parent_root, "tree": ROOT}
    runs = {w["name"]: {"parent": [], "tree": []} for w in spec["workloads"]}
    for i in range(pairs):
        order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
        for workload, sides in runs.items():
            for side in order:
                sides[side].append(
                    run_workload(roots[side], spec, workload, seed))
            print(f"pair {i + 1}/{pairs} {workload}", flush=True)
    out = {}
    for workload, sides in runs.items():
        values = {side: {name: [r["result"]["metrics"][name]["value"]
                                for r in side_runs] for name in better}
                  for side, side_runs in sides.items()}
        out[workload] = {
            **{side: {"correct": all(r["result"]["correct"]
                                     for r in side_runs),
                      "source_sha256":
                          side_runs[-1]["environment"]["source_sha256"],
                      "metrics": {name: summary(v) for name, v in
                                  values[side].items()}}
               for side, side_runs in sides.items()},
            "verdicts": {name: {**verdict(values["parent"][name],
                                          values["tree"][name], better[name]),
                                "past_bound": past_bound(
                                    values["parent"][name],
                                    values["tree"][name], better[name],
                                    bound[name]),
                                "unresolved": unresolved(
                                    values["parent"][name],
                                    values["tree"][name], better[name],
                                    bound[name]),
                                "ratio": pair_ratios(values["parent"][name],
                                                     values["tree"][name])}
                         for name in better},
            "environment": sides["tree"][-1]["environment"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag", help="file name tag, BENCH_<tag>.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parent", metavar="REV",
                    help="compare with this commit, in alternating pairs")
    ap.add_argument("--pairs", type=int, default=10, metavar="K",
                    help="pairs of runs per workload with --parent "
                         f"(default and minimum {MIN_PAIRS})")
    args = ap.parse_args()
    if args.parent is not None and args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    head = {"seed": args.seed, "seconds": spec["run_seconds"], "tree": tree()}
    if args.parent is None:
        body = {"workloads": {
            w["name"]: run_workload(ROOT, spec, w["name"], args.seed)
            for w in spec["workloads"]}}
    else:
        parent_root = export(args.parent)
        try:
            body = {"parent": {"rev": args.parent,
                               "commit": git("rev-parse", args.parent)},
                    "pairs": args.pairs,
                    "workloads": compare(spec, parent_root, args.seed,
                                         args.pairs)}
        finally:
            shutil.rmtree(parent_root, ignore_errors=True)
        for workload, res in body["workloads"].items():
            for name, v in res["verdicts"].items():
                p, t = (res[side]["metrics"][name] for side in
                        ("parent", "tree"))
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
