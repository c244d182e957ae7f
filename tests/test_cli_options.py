"""CLI options that tests/test_cli.py does not exercise, checked against the library."""

import json

import pytest

from peadyn import cycle_sort_key, enumerate_cycles, enumerate_fixed_points, format_word, word_sort_key
from peadyn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixed_points_length_limit(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "4", "--length-limit", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    expected = [format_word(w) for w in sorted(enumerate_fixed_points(4, 8), key=word_sort_key)]
    assert len(expected) == 6
    assert payload == {"base": 4, "bound": 8, "fixed_points": expected}


def test_cycles_length_limit(capsys):
    # 3 of base 7's 4 cycles have no word longer than 12
    code, out, _ = run(capsys, "cycles", "-k", "7", "--length-limit", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["length_limit"] == 12
    expected = [
        {"period": rec.period, "words": [format_word(w) for w in rec.words]}
        for rec in sorted(enumerate_cycles(7, 12), key=cycle_sort_key)
    ]
    assert len(expected) == 3
    assert payload["cycles"] == expected


def test_cycles_max_steps_exit_code(capsys):
    # no walk of the count map is longer than 7 steps, so cycles takes no step guard
    with pytest.raises(SystemExit) as exc:
        main(["cycles", "-k", "3", "--max-steps", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --max-steps 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-table", "--margin", "4"],
    ["verify-table", "--budget", "1"],
    ["fixed-points", "-k", "2", "--margin", "1"],
    ["cycles", "-k", "3", "--margin", "1"],
])
def test_removed_options_rejected(capsys, argv):
    # --length-limit is the one way to search above the cap, and verify-table lists at most 19 words
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_output_file_json(capsys, tmp_path):
    target = tmp_path / "orbit.json"
    code, out, _ = run(capsys, "orbit", "-k", "2", "-w", "10", "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {
        "start": "10",
        "transient": 8,
        "period": 1,
        "cycle": ["1001110"],
    }


def test_output_file_not_written_on_error(capsys, tmp_path):
    target = tmp_path / "orbit.json"
    code, out, _ = run(capsys, "orbit", "-k", "2", "-w", "10", "--max-steps", "3", "--output", str(target))
    assert code == 3
    assert out == ""
    assert not target.exists()
