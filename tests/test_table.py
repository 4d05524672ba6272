import json

from selfdual import table
from selfdual.cli import main
from selfdual.table import (
    EXPECTED_UNSUPPORTED,
    TABLE_ROWS,
    TableOutcome,
    field_label,
    run_table_pair,
)


def test_manifest_shape():
    lengths = [length for length, _ in TABLE_ROWS]
    assert lengths == sorted(lengths)
    assert lengths[0] == 4 and lengths[-1] == 156
    assert len(TABLE_ROWS) == 15
    pairs = sum(len(fields) for _, fields in TABLE_ROWS)
    assert pairs == 22
    assert set(EXPECTED_UNSUPPORTED) == {(30, 59, 1), (156, 5, 4)}


def test_field_label():
    assert field_label(7, 1) == "7"
    assert field_label(3, 16) == "3^16"


def test_confirmed_pair():
    out = run_table_pair(4, 7, 1)
    assert out.verdict == "CONFIRMED"
    assert out.matches_expected
    assert out.detail["distance"] == {"exact": 3}
    obj = out.to_json()
    assert obj["q"] == "7" and obj["verdict"] == "CONFIRMED"
    assert obj["matches_expected"] is True


def test_unsupported_pairs():
    out = run_table_pair(30, 59, 1)
    assert out.verdict == "UNSUPPORTED" and out.reason == "NoGamma"
    assert out.matches_expected
    out = run_table_pair(156, 5, 4)
    assert out.verdict == "UNSUPPORTED" and out.reason == "NotCoprime"
    assert out.matches_expected


def test_mismatch_detection():
    # a CONFIRMED outcome for a pair expected UNSUPPORTED must not match
    out = run_table_pair(4, 2, 2)
    assert out.matches_expected
    forged = type(out)(30, 59, 1, "CONFIRMED", None, 0.0, None)
    assert not forged.matches_expected


def _table_lines(monkeypatch, capsys, outcomes):
    monkeypatch.setattr(table, "run_table", lambda: outcomes)
    rc = main(["table"])
    return rc, [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]


def test_table_command_summarizes_fixed_outcomes(monkeypatch, capsys):
    matching = [
        TableOutcome(4, 7, 1, "CONFIRMED", None, 0.1, {"n": 4, "k": 2}),
        TableOutcome(16, 31, 1, "CONFIRMED", None, 0.2, None),
        TableOutcome(30, 59, 1, "UNSUPPORTED", "NoGamma", 0.0, None),
    ]
    rc, lines = _table_lines(monkeypatch, capsys, matching)
    assert rc == 0
    assert [line["q"] for line in lines[:-1]] == ["7", "31", "59"]
    assert lines[-1] == {"pairs": 3, "confirmed": 2, "unsupported": 1,
                         "guarded": 0, "all_match_expected": True}
    # a guarded pair where a code is expected is a mismatch
    guarded = TableOutcome(18, 3, 16, "GUARDED", "GuardExceeded", 0.0, None)
    rc, lines = _table_lines(monkeypatch, capsys, matching + [guarded])
    assert rc == 1
    assert lines[-2]["matches_expected"] is False
    assert lines[-1] == {"pairs": 4, "confirmed": 2, "unsupported": 1,
                         "guarded": 1, "all_match_expected": False}
