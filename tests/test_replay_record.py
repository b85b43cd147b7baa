"""The gate of tools/replay_record.py: its failing branch, which a record
that reproduces never takes, and a record that covers every subcommand."""

import importlib.util
from pathlib import Path

from bagforge import cli

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_record.py"
_spec = importlib.util.spec_from_file_location("replay_record", _TOOL)
replay_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_record)


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
    assert replay_record.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 of 2 recorded ops reproduce the record"
    assert out[1:] == [f"{moved}: value {outcome['values'][0]!r} != "
                       f"recorded {scaled['values'][0]!r}"]
