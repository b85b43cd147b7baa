"""The verdict rule of tools/bench_file.py on synthetic paired samples."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
_spec = importlib.util.spec_from_file_location("bench_file", _TOOL)
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)
verdict = bench_file.verdict

# a parent's op times: median 0.30, quartile spread 0.02
PARENT = [0.29, 0.31, 0.30, 0.28, 0.32, 0.30, 0.29, 0.31, 0.30, 0.30]


def test_clear_gain_reads_faster_and_loss_slower():
    tree = [p - 0.06 for p in PARENT]
    assert verdict(PARENT, tree, "lower") == {
        "verdict": "faster", "agree": 10, "pairs": 10}
    assert verdict(tree, PARENT, "lower")["verdict"] == "slower"
    # a "higher is better" metric reads the other way
    assert verdict(PARENT, tree, "higher")["verdict"] == "slower"


def test_same_samples_read_within_spread():
    assert verdict(PARENT, list(PARENT), "lower") == {
        "verdict": "within spread", "agree": 0, "pairs": 10}


def test_shift_inside_the_parent_spread_reads_within_spread():
    tree = [p - 0.01 for p in PARENT]        # every pair, but by < q3 - q1
    assert verdict(PARENT, tree, "lower") == {
        "verdict": "within spread", "agree": 10, "pairs": 10}


def test_too_few_agreeing_pairs_read_within_spread():
    # a large median shift, but only 8 of 10 pairs go its way
    tree = [p - 0.06 for p in PARENT]
    tree[0] = tree[1] = 0.40
    out = verdict(PARENT, tree, "lower")
    assert out == {"verdict": "within spread", "agree": 8, "pairs": 10}
    tree[1] = PARENT[1] - 0.06
    assert verdict(PARENT, tree, "lower")["verdict"] == "faster"


def test_needs_paired_samples():
    with pytest.raises(ValueError):
        verdict([0.3], [0.2], "lower")
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:-1], "lower")
