"""Recorded descent ops of the benchmark still reproduce it.

`perfbench/expected_seed0.json` holds the outcome of every recorded op at
1e-10 relative, and a soliton's λ is first order in the field, which the
descent fixes only to its gradient tolerance: the record pins the descent
*path*.  Any change to the values an energy evaluation sees (a trial's
eigenvalues, the accepted step, the metric) moves it.  These tests replay
the README `soliton` inputs recorded for the three grid and ladder classes,
the README `gamma-sweep` and two lattice points away from the README
coupling through the CLI and judge each with the benchmark's own
`checks.check`; both files are loaded from perfbench/ as they are.
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

_SOLITON = "soliton --g {g} --kappa 0.05 --b 0.01 --n {n} --r-max 20"
_EXCITED = " --N 3 --k 1,1,2"
_DESCENT_OPS = (
    # README soliton on both grids and with the excited ladder
    _SOLITON.format(g=10, n=800),
    _SOLITON.format(g=10, n=1600),
    _SOLITON.format(g=10, n=800) + _EXCITED,
    # README gamma-sweep
    "gamma-sweep --m 8 --g 6.8 --kappa 1 --b 0.02 --eps 0.4,0.2,0.1,0.05 "
    "--r-max 3 --n 640",
    # lattice points away from the README coupling, ground and excited
    _SOLITON.format(g=25, n=800),
    _SOLITON.format(g=15.5, n=800) + _EXCITED,
)


def test_descent_ops_are_recorded():
    assert all(op in _OUTCOMES for op in _DESCENT_OPS)


@pytest.mark.parametrize("op", _DESCENT_OPS)
def test_recorded_descent_op_reproduces(tmp_path, op):
    argv = op.split()
    out = tmp_path / "op"
    code = main(argv + ["--out", str(out)])
    ok, reason, _ = checks.check(argv, code, out.with_suffix(".csv"),
                                 _OUTCOMES[op])
    assert ok, reason
