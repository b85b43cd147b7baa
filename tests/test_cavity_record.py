"""The cavity ops of the benchmark's record still reproduce it.

`perfbench/expected_seed0.json` holds the outcome of every recorded op, and
the benchmark holds later runs to it at 1e-10 relative.  The cavity ops
amplify any change in a cavity root: `mit-limit` reports the optimal radius
R_mit, which a finite difference of the cavity eigenvalue places, and
`bag` the optimal radius that a bisection of the wall balance places.
These tests replay every recorded `bag`, `mit` and `mit-limit` op through
the CLI and judge it with the benchmark's own `checks.check`; both files
are loaded from perfbench/ as they are.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bagforge.cli import main

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_checks",
                                               _BENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

_OUTCOMES = json.loads((_BENCH / "expected_seed0.json").read_text())["outcomes"]
_CAVITY_OPS = sorted(op for op in _OUTCOMES
                     if op.split()[0] in ("bag", "mit", "mit-limit"))


def test_record_holds_cavity_ops():
    kinds = {op.split()[0] for op in _CAVITY_OPS}
    assert kinds == {"bag", "mit", "mit-limit"}


@pytest.mark.parametrize("op", _CAVITY_OPS)
def test_recorded_cavity_op_reproduces(tmp_path, op):
    argv = op.split()
    out = tmp_path / "op"
    code = main(argv + ["--out", str(out)])
    ok, reason, _ = checks.check(argv, code, out.with_suffix(".csv"),
                                 _OUTCOMES[op])
    assert ok, reason
