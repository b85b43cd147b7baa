"""Replay the benchmark's record, perfbench/expected_seed0.json.

    PYTHONPATH=src python -X dev -W error tools/replay_record.py

Runs every recorded op through `bagforge.cli.main` in this interpreter and
judges it with the benchmark's own `checks.check` (recorded values at 1e-10
relative, then each solver's certificate), reading both perfbench files as
they are.  Prints `N of M recorded ops reproduce the record` and exits 1
listing every op that departs from it.
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
_spec = importlib.util.spec_from_file_location("perfbench_checks",
                                               _BENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

#: recorded op (its CLI argv, space-joined) -> its recorded outcome
OUTCOMES = json.loads((_BENCH / "expected_seed0.json").read_text())["outcomes"]


def replay(op: str, out: Path):
    """(ok, reason) of recorded `op` run with output stem `out`."""
    argv = op.split()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    ok, reason, _ = checks.check(argv, code, out.with_suffix(".csv"),
                                 OUTCOMES[op])
    return ok, reason


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        verdicts = [(op, *replay(op, Path(tmp) / f"op{i}"))
                    for i, op in enumerate(OUTCOMES)]
    failed = [f"{op}: {reason}" for op, ok, reason in verdicts if not ok]
    print(f"{len(verdicts) - len(failed)} of {len(verdicts)} recorded ops "
          "reproduce the record", *failed, sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
