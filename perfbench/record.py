"""Maintain the benchmark's recorded data from the program as it stands.

    python3 perfbench/record.py          # rewrite expected_seed0.json
    python3 perfbench/record.py --scan [SUBCOMMAND...]
                                         # list finite inputs whose op fails

The first mode runs the first ops of every workload's default-seed stream
once and stores each op's exit code, compared values and collapse flag; the
benchmark then holds later runs of those inputs to them at 1e-10 relative.
Rewrite it only at a commit whose results are the new reference.  The second
mode runs every input of the finite input sets (soliton and gamma-sweep
lattices, verify seeds) once and prints those whose op fails, for the
exclusion lists in workloads.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads
from worker import EXPECTED_FILE, TMP_PARENT, import_cli, run_op
#: ops recorded per workload: two to three times what a 30 s run does on a
#: 2-core Xeon
RECORDED_OPS = {"soliton-descent": 150, "cavity-closed-form": 150,
                "gamma-sweep": 70, "verify-battery": 120}


def _outcome(cli, argv, tmp: Path) -> dict:
    out = tmp / "op"
    code, error = run_op(cli, argv, out)
    if error:
        raise SystemExit(f"{' '.join(argv)} raised {error}")
    return checks.outcome(argv, code, out.with_suffix(".csv"))


def record(cli, tmp: Path):
    table = {}
    for name, count in RECORDED_OPS.items():
        t0 = time.perf_counter()
        stream = workloads.op_stream(name, workloads.DEFAULT_SEED)
        warmup = workloads.WORKLOADS[name]["warmup"]
        for argv in itertools.chain([warmup], itertools.islice(stream, count)):
            key = " ".join(argv)
            if key not in table:
                table[key] = _outcome(cli, argv, tmp)
        print(f"{name}: {count} ops in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    # one outcome per line, so a re-record diffs by input
    lines = [f"{json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
             for key in sorted(table)]
    EXPECTED_FILE.write_text(
        f'{{"seed": {workloads.DEFAULT_SEED}, "ops_per_workload": '
        f'{json.dumps(RECORDED_OPS)},\n"outcomes": {{\n'
        + ",\n".join(lines) + "\n}}\n")


def scan(cli, tmp: Path, subcommands):
    for argv in workloads.finite_inputs():
        if subcommands and argv[0] not in subcommands:
            continue
        t0 = time.perf_counter()
        out = tmp / "op"
        code, error = run_op(cli, argv, out)
        ok, reason, _ = (False, error, False) if error else checks.check(
            argv, code, out.with_suffix(".csv"), None)
        if not ok:
            print(f"FAIL {' '.join(argv)}: {reason} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    print("scan done", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scan", nargs="*", metavar="SUBCOMMAND",
                    help="scan the finite input sets (optionally only these "
                         "subcommands) instead of recording")
    args = ap.parse_args()
    cli = import_cli()
    TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        if args.scan is None:
            record(cli, Path(tmp))
        else:
            scan(cli, Path(tmp), args.scan)


if __name__ == "__main__":
    main()
