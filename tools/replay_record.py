"""Replay the benchmark's record, perfbench/expected_seed0.json, and run
the rest of its verify pool.

    PYTHONPATH=src python -X dev -W error tools/replay_record.py

Runs every recorded op, then every `verify --seed s` of the benchmark's pool
that the record does not hold (plain `verify` is seed 0), through
`bagforge.cli.main` in this interpreter, and judges each with the benchmark's
`checks.check` (recorded values at 1e-10 relative, then each solver's
certificate).  Prints how many of each kind pass; exits 1 naming each failure.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from bagforge import cli

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")

#: recorded op (its CLI argv, space-joined) -> its recorded outcome
OUTCOMES = json.loads((_BENCH / "expected_seed0.json").read_text())["outcomes"]

_HELD = {0 if op == "verify" else int(op.split()[2]) for op in OUTCOMES
         if op.startswith("verify")}
#: the verify ops of the benchmark's pool that the record does not hold
POOL = [f"verify --seed {s}" for s in workloads.VERIFY_SEEDS
        if s not in workloads.VERIFY_FAILING and s not in _HELD]


def replay(op: str, out: Path):
    """(ok, reason) of `op` run with output stem `out`, judged against its
    recorded outcome if the record holds one."""
    argv = op.split()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    ok, reason, _ = checks.check(argv, code, out.with_suffix(".csv"),
                                 OUTCOMES.get(op))
    return ok, reason


def main() -> int:
    counts, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for what, ops in (("recorded ops reproduce the record", OUTCOMES),
                          ("pool ops pass the battery", POOL)):
            verdicts = [(op, *replay(op, Path(tmp) / f"op{len(counts)}-{i}"))
                        for i, op in enumerate(ops)]
            bad = [f"{op}: {reason}" for op, ok, reason in verdicts if not ok]
            counts.append(f"{len(ops) - len(bad)} of {len(ops)} {what}")
            failed += bad
    print(*counts, *failed, sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
