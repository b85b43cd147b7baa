"""The verdict rule, the bound test, the unresolved test and the
within-pair ratios of tools/bench_file.py on synthetic paired samples, and
its smallest count of pairs."""

import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
_spec = importlib.util.spec_from_file_location("bench_file", _TOOL)
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)
verdict = bench_file.verdict
pair_ratios = bench_file.pair_ratios
past_bound = bench_file.past_bound
unresolved = bench_file.unresolved

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


def test_ratios_show_a_gain_the_noisy_parent_hides():
    # shaped like a noisy gamma-sweep comparison: the parent's quartile
    # spread is 23% of its median, and the tree wins all 10 pairs by 2-34%
    # for a -21.7% median shift, which the quartile rule reads as within
    # spread; every quartile of the pairs' ratios sits below 1
    parent = [0.223, 0.235, 0.245, 0.255, 0.275, 0.285, 0.300, 0.316, 0.335,
              0.343]
    tree = [0.2185, 0.1645, 0.2082, 0.1913, 0.22, 0.1881, 0.246, 0.2465,
            0.3015, 0.271]
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert (q3 - q1) / med == pytest.approx(0.23, abs=5e-3)
    assert verdict(parent, tree, "lower") == {
        "verdict": "within spread", "agree": 10, "pairs": 10}
    r = pair_ratios(parent, tree)
    assert r["q1"] < r["median"] < r["q3"] < 1.0
    assert r["median"] == pytest.approx(0.795, abs=1e-3)


def test_ratios_of_same_samples_are_one():
    assert pair_ratios(PARENT, list(PARENT)) == {
        "median": 1.0, "q1": 1.0, "q3": 1.0}


def test_slower_is_past_the_bound_only_beyond_it():
    # a lower-is-better metric 10% worse in every pair reads "slower" but
    # stays inside a 0.25 bound; 30% worse crosses it
    worse = [p * 1.1 for p in PARENT]
    assert verdict(PARENT, worse, "lower")["verdict"] == "slower"
    assert not past_bound(PARENT, worse, "lower", 0.25)
    assert past_bound(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)
    # a gain is never past the bound
    assert not past_bound(PARENT, [p * 0.5 for p in PARENT], "lower", 0.25)


def test_higher_is_better_metric_past_the_bound_when_lower():
    fewer = [p * 0.7 for p in PARENT]
    assert past_bound(PARENT, fewer, "higher", 0.25)
    assert not past_bound(PARENT, [p * 0.9 for p in PARENT], "higher", 0.25)
    assert not past_bound(PARENT, [p * 1.3 for p in PARENT], "higher", 0.25)


def test_spread_wider_than_the_bound_reads_unresolved():
    # the parent's quartile spread, 0.02, is 6.7% of its median: wider than
    # a 0.05 bound, so an unchanged tree cannot be told from one 5% worse
    same = list(PARENT)
    assert verdict(PARENT, same, "lower")["verdict"] == "within spread"
    assert unresolved(PARENT, same, "lower", 0.05)
    assert unresolved(PARENT, same, "higher", 0.05)
    # within a 0.25 bound the same spread resolves
    assert not unresolved(PARENT, same, "lower", 0.25)


def test_tree_better_in_every_run_is_resolved_despite_the_spread():
    # every tree run is below every parent run (0.26 < 0.28)
    lower = [p - 0.06 for p in PARENT]
    assert not unresolved(PARENT, lower, "lower", 0.05)
    assert not unresolved(lower, PARENT, "higher", 0.05)
    # one tree run that overlaps the parent's runs leaves it unresolved
    lower[0] = 0.29
    assert unresolved(PARENT, lower, "lower", 0.05)


def test_parent_comparison_needs_ten_pairs(monkeypatch, capsys):
    # three pairs are refused as a usage error before anything is exported
    # or run
    calls = []
    for name in ("tree", "export", "run_workload", "compare"):
        monkeypatch.setattr(bench_file, name,
                            lambda *a, name=name: calls.append(name))
    monkeypatch.setattr(sys, "argv", ["bench_file.py", "x", "--parent",
                                      "HEAD", "--pairs", "3"])
    with pytest.raises(SystemExit) as stop:
        bench_file.main()
    assert stop.value.code == 2 and not calls
    assert "--pairs must be at least 10" in capsys.readouterr().err
