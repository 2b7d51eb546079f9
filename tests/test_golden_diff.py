"""The result-file comparison tool on small hand-written files."""

import json
import math

import pytest

from golden_diff import diff_files, main


def _write(path, payload):
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def _by_name(moves):
    return {m.name: m for m in moves}


def test_json_moves_are_counted_per_field(tmp_path):
    old = _write(tmp_path / "old.json", {
        "config": {"levels": 6, "mode": "two_level"},
        "data": {"entries": [{"qceff": 2.0e5, "freq_hz": 1.0e9},
                             {"qceff": 4.0e5, "freq_hz": 0.0}]}})
    new = _write(tmp_path / "new.json", {
        "config": {"levels": 2, "mode": "two_level"},
        "data": {"entries": [{"qceff": 2.0e5 * (1 + 3e-14), "freq_hz": 1.0e9},
                             {"qceff": 4.0e5 * (1 - 1e-12), "freq_hz": 1e-3}]}})
    moves = _by_name(diff_files(old, new))
    assert (moves["config.levels"].moved, moves["config.levels"].max_abs) == (1, 4.0)
    assert moves["config.levels"].max_rel == pytest.approx(4 / 6)
    assert moves["config.mode"].moved == 0
    qceff = moves["data.entries[].qceff"]
    assert (qceff.compared, qceff.moved) == (2, 2)
    assert qceff.max_rel == pytest.approx(1e-12, rel=1e-3)
    assert qceff.max_abs == pytest.approx(4e-7, rel=1e-3)
    # a move away from zero has no finite relative size
    freq = moves["data.entries[].freq_hz"]
    assert (freq.moved, freq.max_rel, freq.max_abs) == (1, math.inf, 1e-3)
    assert all(not m.notes for m in moves.values())


def test_type_length_and_presence_changes_are_reported(tmp_path):
    old = _write(tmp_path / "old.json", {"a": 1.0, "b": [1.0, 2.0], "c": "x", "d": 0})
    new = _write(tmp_path / "new.json", {"a": "1.0", "b": [1.0, 2.5, 3.0], "c": "y", "e": 0})
    moves = _by_name(diff_files(old, new))
    assert moves["a"].notes == ["type number -> string"] and moves["a"].moved == 1
    assert moves["b"].notes == ["length 2 -> 3"]
    assert (moves["b[]"].compared, moves["b[]"].moved) == (2, 1)
    assert moves["c"].moved == 1
    assert moves["d"].notes == ["absent in new"]
    assert moves["e"].notes == ["absent in old"]


def test_csv_columns_are_fields(tmp_path):
    old = _write(tmp_path / "old.csv", "mode,t1_s\ntwo_level,1e-4\nsignal,2e-4\n")
    new = _write(tmp_path / "new.csv", "mode,t1_s\ntwo_level,1.5e-4\nsignal,2e-4\nx,1\n")
    moves = _by_name(diff_files(old, new))
    assert moves["t1_s"].notes == ["length 2 -> 3"]
    assert (moves["t1_s[]"].moved, moves["t1_s[]"].max_rel) == (1, pytest.approx(0.5))
    assert moves["mode[]"].moved == 0


def test_report_lists_what_moved_and_counts_the_rest(tmp_path, capsys):
    same = _write(tmp_path / "same.json", {"a": "x", "x": [1.0, math.pi]})
    other = _write(tmp_path / "other.json", {"a": "x", "x": [1.0, 3.0]})
    assert main([same, same]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["  (2 other fields identical)"]
    assert main([same, other]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{same} -> {other}"
    assert [line.split()[:3] for line in lines[2:-1]] == [["x[]", "2", "1"]]
    assert lines[-1] == "  (1 other fields identical)"
    assert main([same]) == 2
