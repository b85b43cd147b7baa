"""tools/bench_file.py: its `judge` of synthetic paired samples (verdict,
bound test, unresolved test and within-pair ratios), its record of the
tree, and the BENCH file its `main` writes."""

import json
import statistics
import sys

import bench_file
import pytest

judge = bench_file.judge

# a parent's op times: median 0.30, quartile spread 0.02
PARENT = [0.29, 0.31, 0.30, 0.28, 0.32, 0.30, 0.29, 0.31, 0.30, 0.30]


def verdict(parent, tree, better="lower"):
    out = judge(parent, tree, better, 0.25)
    return out["verdict"], out["agree"], out["pairs"]


def test_clear_gain_reads_faster_and_loss_slower():
    tree = [p - 0.06 for p in PARENT]
    assert verdict(PARENT, tree) == ("faster", 10, 10)
    assert verdict(tree, PARENT)[0] == "slower"
    # a "higher is better" metric reads the other way
    assert verdict(PARENT, tree, "higher")[0] == "slower"


def test_same_samples_read_within_spread():
    assert verdict(PARENT, list(PARENT)) == ("within spread", 0, 10)


def test_shift_inside_the_parent_spread_reads_within_spread():
    tree = [p - 0.01 for p in PARENT]        # every pair, but by < q3 - q1
    assert verdict(PARENT, tree) == ("within spread", 10, 10)


def test_too_few_agreeing_pairs_read_within_spread():
    # a large median shift, but only 8 of 10 pairs go its way
    tree = [p - 0.06 for p in PARENT]
    tree[0] = tree[1] = 0.40
    assert verdict(PARENT, tree) == ("within spread", 8, 10)
    tree[1] = PARENT[1] - 0.06
    assert verdict(PARENT, tree)[0] == "faster"


def test_needs_paired_samples():
    with pytest.raises(ValueError):
        judge([0.3], [0.2], "lower", 0.25)
    with pytest.raises(ValueError):
        judge(PARENT, PARENT[:-1], "lower", 0.25)


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
    assert verdict(parent, tree) == ("within spread", 10, 10)
    r = judge(parent, tree, "lower", 0.25)["ratio"]
    assert r["q1"] < r["median"] < r["q3"] < 1.0
    assert r["median"] == pytest.approx(0.795, abs=1e-3)


def test_ratios_of_same_samples_are_one():
    assert judge(PARENT, list(PARENT), "lower", 0.25)["ratio"] == {
        "median": 1.0, "q1": 1.0, "q3": 1.0}


def past_bound(tree, better, bound=0.25):
    return judge(PARENT, tree, better, bound)["past_bound"]


def test_slower_is_past_the_bound_only_beyond_it():
    # a lower-is-better metric 10% worse in every pair reads "slower" but
    # stays inside a 0.25 bound; 30% worse crosses it
    worse = [p * 1.1 for p in PARENT]
    assert verdict(PARENT, worse)[0] == "slower"
    assert not past_bound(worse, "lower")
    assert past_bound([p * 1.3 for p in PARENT], "lower")
    # a gain is never past the bound
    assert not past_bound([p * 0.5 for p in PARENT], "lower")


def test_higher_is_better_metric_past_the_bound_when_lower():
    assert past_bound([p * 0.7 for p in PARENT], "higher")
    assert not past_bound([p * 0.9 for p in PARENT], "higher")
    assert not past_bound([p * 1.3 for p in PARENT], "higher")


def unresolved(parent, tree, better, bound=0.05):
    return judge(parent, tree, better, bound)["unresolved"]


def test_spread_wider_than_the_bound_reads_unresolved():
    # the parent's quartile spread, 0.02, is 6.7% of its median: wider than
    # a 0.05 bound, so an unchanged tree cannot be told from one 5% worse
    same = list(PARENT)
    assert verdict(PARENT, same)[0] == "within spread"
    assert unresolved(PARENT, same, "lower")
    assert unresolved(PARENT, same, "higher")
    # within a 0.25 bound the same spread resolves
    assert not unresolved(PARENT, same, "lower", 0.25)


def test_tree_better_in_every_run_is_resolved_despite_the_spread():
    # every tree run is below every parent run (0.26 < 0.28)
    lower = [p - 0.06 for p in PARENT]
    assert not unresolved(PARENT, lower, "lower")
    assert not unresolved(lower, PARENT, "higher")
    # one tree run that overlaps the parent's runs leaves it unresolved
    lower[0] = 0.29
    assert unresolved(PARENT, lower, "lower")


def test_dirty_covers_what_the_runs_execute(monkeypatch):
    calls = []
    monkeypatch.setattr(bench_file, "git", lambda *args: calls.append(args)
                        or ("abc" if args[0] == "rev-parse" else " M x"))
    assert bench_file.tree() == {"head": "abc", "dirty": True}
    assert calls[-1] == ("status", "--porcelain", "--", "src", "tests",
                         "perfbench", "BENCHMARK.json")


def test_bench_file_needs_a_parent(monkeypatch, capsys):
    # a usage error, before anything is exported or run
    calls = []
    for name in ("tree", "export", "run_workload", "compare"):
        monkeypatch.setattr(bench_file, name,
                            lambda *a, name=name: calls.append(name))
    monkeypatch.setattr(sys, "argv", ["bench_file.py", "x"])
    with pytest.raises(SystemExit) as stop:
        bench_file.main()
    assert stop.value.code == 2 and not calls
    assert "--parent" in capsys.readouterr().err


def _keys(node):
    """The key structure of a JSON document; lists and leaves read None."""
    return ({k: _keys(v) for k, v in node.items()}
            if isinstance(node, dict) else None)


def test_main_writes_the_keys_of_a_paired_bench_file(monkeypatch, tmp_path):
    # export and run_workload stubbed to synthetic results: every level of
    # main's file (top, workload, side, metric, verdict and its ratio) has
    # the keys of BENCH_29.json
    reference = json.loads((bench_file.ROOT / "BENCH_29.json").read_text())
    spec = json.loads((bench_file.ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    parent_root, runs = tmp_path / "parent", []

    def run_workload(root, spec, workload, seed):
        runs.append(root)
        return {"result": {"correct": True, "metrics": {
                    m["name"]: {"value": 1.0 + 0.01 * len(runs)}
                    for m in spec["end_to_end"]}},
                "environment": reference["workloads"][workload]["environment"]}

    monkeypatch.setattr(bench_file, "ROOT", tmp_path)
    monkeypatch.setattr(bench_file, "git", lambda *args: "")
    monkeypatch.setattr(bench_file, "export",
                        lambda rev: parent_root.mkdir() or parent_root)
    monkeypatch.setattr(bench_file, "run_workload", run_workload)
    monkeypatch.setattr(sys, "argv", ["bench_file.py", "t", "--parent", "p"])
    assert bench_file.main() == 0
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert _keys(written) == _keys(reference)
    assert len(runs) == 2 * 10 * len(spec["workloads"]) == 2 * runs.count(
        parent_root)
    assert not parent_root.exists()
