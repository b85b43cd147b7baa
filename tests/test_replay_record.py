"""The gate of tools/replay_record.py: its failing branches, which a record
and a pool that pass never take, a record that covers every subcommand,
and a pool that is the benchmark's verify seeds the record does not hold."""

import replay_record

from bagforge import cli


def test_record_holds_every_subcommand():
    kinds = {op.split()[0] for op in replay_record.OUTCOMES}
    assert kinds == set(cli._SUBCOMMANDS)


def test_departing_op_fails_the_replay_by_name(monkeypatch, capsys):
    kept, moved = sorted(op for op in replay_record.OUTCOMES
                         if op.startswith("mit "))[:2]
    outcome = replay_record.OUTCOMES[moved]
    scaled = {**outcome, "values": [v * (1 + 1e-6) for v in outcome["values"]]}
    monkeypatch.setattr(replay_record, "OUTCOMES",
                        {kept: replay_record.OUTCOMES[kept], moved: scaled})
    monkeypatch.setattr(replay_record, "POOL", [])
    assert replay_record.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["1 of 2 recorded ops reproduce the record",
                       "0 of 0 pool ops pass the battery"]
    assert out[2:] == [f"{moved}: value {outcome['values'][0]!r} != "
                       f"recorded {scaled['values'][0]!r}"]


def test_pool_is_every_drawable_seed_the_record_does_not_hold():
    workloads = replay_record.workloads
    drawable = set(workloads.VERIFY_SEEDS) - set(workloads.VERIFY_FAILING)
    ops = {"verify"} | {f"verify --seed {s}" for s in drawable if s}
    assert sorted(ops - replay_record.OUTCOMES.keys()) == sorted(
        replay_record.POOL) and len(replay_record.POOL) == 135


def test_failing_pool_seed_fails_the_gate_by_name(monkeypatch, capsys):
    # a battery whose Hellmann-Feynman check fails at one seed only
    passing, failing = replay_record.POOL[:2]
    bad_seed = int(failing.split()[2])
    monkeypatch.setattr(cli, "run_battery", lambda seed=0: [
        ("susy", True, "gap 1.0"),
        ("hellmann-feynman", seed != bad_seed, "mismatch 2.0e-04")])
    monkeypatch.setattr(replay_record, "OUTCOMES", {})
    monkeypatch.setattr(replay_record, "POOL", [passing, failing])
    assert replay_record.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 of 0 recorded ops reproduce the record",
                   "1 of 2 pool ops pass the battery",
                   f"{failing}: exit 2 on an unrecorded input"]
