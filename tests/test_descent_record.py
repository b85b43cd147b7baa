"""Recorded descent ops of the benchmark still reproduce it.

A soliton's λ is first order in the field, which the descent fixes only to
its gradient tolerance, so the record (1e-10 relative) pins the descent
*path*: any change to the values an energy evaluation sees moves it.  These
tests replay, through tools/replay_record.py, the README `soliton` inputs
of the three grid and ladder classes, the README `gamma-sweep` and two
lattice points away from the README coupling.
"""

import pytest
import replay_record

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
    assert all(op in replay_record.OUTCOMES for op in _DESCENT_OPS)


@pytest.mark.parametrize("op", _DESCENT_OPS)
def test_recorded_descent_op_reproduces(tmp_path, op):
    ok, reason = replay_record.replay(op, tmp_path / "op")
    assert ok, reason
