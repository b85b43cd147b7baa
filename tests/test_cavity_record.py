"""The cavity ops of the benchmark's record still reproduce it.

They amplify any change in a cavity root: `mit-limit` reports R_mit, which
a finite difference of the cavity eigenvalue places, and `bag` the radius
a bisection of the wall balance places.  These tests replay every recorded
`bag`, `mit` and `mit-limit` op through tools/replay_record.py.
"""

import pytest
import replay_record

_CAVITY_OPS = sorted(op for op in replay_record.OUTCOMES
                     if op.split()[0] in ("bag", "mit", "mit-limit"))


def test_record_holds_cavity_ops():
    kinds = {op.split()[0] for op in _CAVITY_OPS}
    assert kinds == {"bag", "mit", "mit-limit"}


@pytest.mark.parametrize("op", _CAVITY_OPS)
def test_recorded_cavity_op_reproduces(tmp_path, op):
    ok, reason = replay_record.replay(op, tmp_path / "op")
    assert ok, reason
