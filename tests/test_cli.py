import json
import os
import subprocess
import sys
import time

import pytest

from peadyn import cli
from peadyn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_step_default_json_when_not_a_tty(capsys):
    code, out, err = run(capsys, "step", "--base", "10", "--word", "123")
    assert code == 0
    assert json.loads(out) == ["131211"]


def test_step_multiple(capsys):
    code, out, _ = run(capsys, "step", "-k", "10", "-w", "123", "-n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["131211", "131241", "14131231"]


def test_step_table_format(capsys):
    code, out, _ = run(capsys, "step", "-k", "2", "-w", "10", "-n", "2", "--format", "table")
    assert code == 0
    assert out == "1110\n11110\n"


def test_step_csv_format(capsys):
    code, out, _ = run(capsys, "step", "-k", "2", "-w", "10", "-n", "2", "--format", "csv")
    assert code == 0
    assert out == "step,word\n1,1110\n2,11110\n"


def test_step_invalid_word(capsys):
    code, out, err = run(capsys, "step", "-k", "2", "-w", "102")
    assert code == 2
    assert out == ""
    assert "position 2" in err


def test_step_invalid_base(capsys):
    code, _, err = run(capsys, "step", "-k", "1", "-w", "0")
    assert code == 2
    assert "base" in err


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "-k", "10", "-w", "123", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "start": "123",
        "transient": 6,
        "period": 1,
        "cycle": ["14233221"],
    }


def test_orbit_csv(capsys):
    code, out, _ = run(capsys, "orbit", "-k", "2", "-w", "10", "--format", "csv")
    assert code == 0
    assert out == "start,transient,period,cycle\n10,8,1,1001110\n"


def test_orbit_table(capsys):
    code, out, _ = run(capsys, "orbit", "-k", "2", "-w", "10", "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "start      10",
        "transient  8",
        "period     1",
        "cycle      1001110",
    ]


def test_orbit_max_steps_exit_code(capsys):
    code, _, err = run(capsys, "orbit", "-k", "2", "-w", "10", "--max-steps", "3")
    assert code == 3
    assert "3 steps" in err


def test_fixed_points_table_format(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "2", "--format", "table")
    assert code == 0
    assert out == "111\n1001110\n"


def test_fixed_points_json(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["base"] == 3
    assert payload["bound"] == 9
    assert payload["fixed_points"] == [
        "22",
        "11110",
        "12111",
        "101100",
        "1022120",
        "2211110",
        "22101100",
    ]


def test_fixed_points_base6_csv_has_19_rows(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "6", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "base,word,length"
    assert len(lines) == 1 + 19
    assert "6,15141211110,11" in lines


@pytest.mark.parametrize("base", range(2, 13))
def test_fixed_points_count_equals_list_length(capsys, base):
    _, out, _ = run(capsys, "fixed-points", "-k", str(base), "--format", "json")
    listed = json.loads(out)
    code, out, _ = run(capsys, "fixed-points", "-k", str(base), "--count", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"base": base, "bound": listed["bound"], "count": len(listed["fixed_points"])}


def test_fixed_points_base2_far_past_the_cap(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "2", "--length-limit", "3008", "--count", "--format", "csv")
    assert code == 0
    assert out == "base,bound,count\n2,3008,2\n"


def test_fixed_points_base36_counts_but_exceeds_budget(capsys):
    code, out, err = run(capsys, "fixed-points", "-k", "36")
    assert code == 4
    assert out == ""
    assert "needs 4294967926 words" in err
    code, out, _ = run(capsys, "fixed-points", "-k", "36", "--count", "--format", "csv")
    assert code == 0
    assert out == "base,bound,count\n36,75,4294967926\n"
    code, out, _ = run(capsys, "fixed-points", "-k", "36", "--count", "--format", "table")
    assert out == "base 36: 4294967926 fixed points of length <= 75\n"


def test_fixed_points_count_takes_no_budget(capsys):
    # --count lists no word, so a budget could change nothing: the pair is refused
    for base, budget in (("36", "1"), ("6", str(cli.DEFAULT_BUDGET))):
        code, out, err = run(capsys, "fixed-points", "-k", base, "--count", "--budget", budget)
        assert code == 2
        assert out == ""
        assert err == "error: --count lists no word, so it takes no --budget\n"
    code, out, err = run(capsys, "fixed-points", "-k", "36", "--count", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"base": 36, "bound": 75, "count": 4294967926}


def test_cycles_base2_empty(capsys):
    code, out, _ = run(capsys, "cycles", "-k", "2", "--format", "table")
    assert code == 0
    assert out == ""
    code, out, _ = run(capsys, "cycles", "-k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["cycles"] == []


def test_cycles_base3_json(capsys):
    code, out, _ = run(capsys, "cycles", "-k", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "base": 3,
        "length_limit": 9,
        "cycles": [{"period": 3, "words": ["10210110", "12111100", "1212120"]}],
    }


def test_cycles_base3_csv(capsys):
    code, out, _ = run(capsys, "cycles", "-k", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "base,period,position,word",
        "3,3,1,10210110",
        "3,3,2,12111100",
        "3,3,3,1212120",
    ]


def test_cycles_base6_table(capsys):
    code, out, _ = run(capsys, "cycles", "-k", "6", "--format", "table")
    assert code == 0
    assert out == "period 2: 152413423110 152423224110\n"


def test_verify_table_default_reports_base6_gap(capsys):
    code, out, _ = run(capsys, "verify-table", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    by_base = {r["base"]: r for r in payload["results"]}
    assert sorted(by_base) == [2, 3, 4, 5, 6]
    for base in (2, 3, 4, 5):
        assert by_base[base]["status"] == "pass"
        assert by_base[base]["missing"] == [] and by_base[base]["extra"] == []
    assert by_base[6]["status"] == "fail"
    assert by_base[6]["missing"] == ["15141211110"]
    assert by_base[6]["extra"] == []
    assert by_base[6]["expected"] == 18
    assert by_base[6]["found"] == 19


def test_verify_table_text_output(capsys):
    code, out, _ = run(capsys, "verify-table", "--format", "table")
    assert code == 1
    lines = out.splitlines()
    assert "base 2: PASS (2 fixed points)" in lines
    assert "base 5: PASS (12 fixed points)" in lines
    assert "base 6: FAIL missing: 15141211110" in lines
    assert lines[-1] == "overall: FAIL"


def test_verify_table_bases_2_to_5_pass(capsys):
    code, out, _ = run(capsys, "verify-table", "--bases", "2,3,4,5", "--format", "table")
    assert code == 0
    assert out.splitlines()[-1] == "overall: PASS"


def test_verify_table_csv(capsys):
    code, out, _ = run(capsys, "verify-table", "--bases", "2,6", "--format", "csv")
    assert code == 1
    assert out.splitlines() == [
        "base,status,missing,extra",
        "2,PASS,,",
        "6,FAIL,15141211110,",
    ]


def test_verify_table_unknown_base_rejected(capsys):
    for bases, message in (
        ("7", "no expected table for base 7"),
        ("2,3,2", "base 2 is given more than once"),
        ("2,x", "base 'x' is not an integer"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify-table", "--bases", bases])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["step", "-k", "2", "-w", "1", "-n", "0"],
        ["orbit", "-k", "2", "-w", "1", "--max-steps", "0"],
        ["fixed-points", "-k", "2", "--budget", "0"],
        ["cycles", "-k", "2", "--length-limit", "0"],
        ["step", "-k", "2", "-w", "1", "-n", "abc"],
        ["cycles", "-k", "2", "--budget", "1.5"],
    ],
)
def test_counts_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the message names the value, never the parser's private type function
    assert f"expected a positive integer, got {argv[-1]}" in err
    assert "invalid" not in err


def test_verify_table_corrupted_entry_unparseable(capsys, monkeypatch):
    # '3' is not a base-3 letter, so the entry cannot even parse
    monkeypatch.setitem(cli.EXPECTED_FIXED_POINTS, 3, cli.EXPECTED_FIXED_POINTS[3] + ("123",))
    code, out, _ = run(capsys, "verify-table", "--bases", "3", "--format", "json")
    assert code == 1
    entry = json.loads(out)["results"][0]
    assert entry["status"] == "fail"
    assert entry["extra"] == ["123"]
    assert entry["missing"] == []


def test_verify_table_corrupted_entry_not_fixed(capsys, monkeypatch):
    monkeypatch.setitem(cli.EXPECTED_FIXED_POINTS, 3, cli.EXPECTED_FIXED_POINTS[3] + ("121",))
    code, out, _ = run(capsys, "verify-table", "--bases", "3", "--format", "table")
    assert code == 1
    assert "base 3: FAIL extra: 121" in out.splitlines()


def test_verify_table_extra_is_in_word_order(capsys, monkeypatch):
    # one unparseable entry and one that is not fixed, sorted shortest first like every word list
    monkeypatch.setitem(cli.EXPECTED_FIXED_POINTS, 3, cli.EXPECTED_FIXED_POINTS[3] + ("3", "121"))
    code, out, _ = run(capsys, "verify-table", "--bases", "3", "--format", "json")
    assert code == 1
    entry = json.loads(out)["results"][0]
    assert entry["extra"] == ["3", "121"]
    assert entry["missing"] == []
    assert (entry["expected"], entry["found"]) == (9, 7)


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "-k", "6", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "base": 6,
        "length_bound": 15,
        "words_up_to_bound": 564221981490,
    }


def test_bound_csv(capsys):
    code, out, _ = run(capsys, "bound", "-k", "2", "--format", "csv")
    assert code == 0
    assert out == "base,length_bound,words_up_to_bound\n2,8,510\n"


def test_bound_table(capsys):
    code, out, _ = run(capsys, "bound", "-k", "2", "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "length_bound       8",
        "words_up_to_bound  510",
    ]


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "fixed-points", "-k", "2", "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "base,word,length\n2,111,3\n2,1001110,7\n"


def test_budget_environment_variable_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("PEADYN_BUDGET", "lots")
    code, out, _ = run(capsys, "fixed-points", "-k", "6", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["fixed_points"]) == 19


def test_budget_flag(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "6", "--budget", "19", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["fixed_points"]) == 19
    code, out, err = run(capsys, "fixed-points", "-k", "6", "--budget", "18")
    assert code == 4
    assert out == ""
    assert "budget is 18" in err


def test_output_to_missing_directory_is_invalid_input(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "step", "-k", "2", "-w", "1", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(target) in err
    assert not target.exists()


def test_cycles_budget_exit_code(capsys):
    code, _, err = run(capsys, "cycles", "-k", "6", "--budget", "1")
    assert code == 4
    assert "words" in err


@pytest.mark.parametrize("base, limit", [("2", "1000000"), ("3", "3008")])
def test_cycles_long_limit_lists_the_cap_cycles(capsys, base, limit):
    # stdout echoes the limit, so the cycles are what must match
    code, out, _ = run(capsys, "cycles", "-k", base, "--length-limit", limit, "--format", "json")
    assert code == 0
    code, cap_out, _ = run(capsys, "cycles", "-k", base, "--format", "json")
    assert json.loads(out)["cycles"] == json.loads(cap_out)["cycles"]


def test_cycles_refused_before_walking(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "cycles", "-k", "36")
    assert code == 4
    assert err == "error: cycle search in base 36 needs at least 1886691 words, budget is 1000000\n"
    assert time.perf_counter() - start < 1


def test_invalid_format_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "-k", "2", "--format", "yaml"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "peadyn", "bound", "--base", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["words_up_to_bound"] == 510


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "peadyn", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("step", "orbit", "fixed-points", "cycles", "verify-table", "bound"):
        assert name in proc.stdout


def test_cold_import_loads_no_dataclasses_inspect_or_pathlib():
    # -S keeps site's own imports out, so sys.modules shows what peadyn.cli pulls in
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, peadyn.cli; print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    verify = ("verify-table", "--format", "json")
    first = run(capsys, *verify)
    assert first[0] == 1
    assert run(capsys, *verify) == first
    # a rejected call between two good calls leaves the shared parser as it was
    with pytest.raises(SystemExit) as exc:
        main(["verify-table", "--bases", "7"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *verify) == first
    for argv in (["--help"], ["cycles", "--help"]):
        printed = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(argv)
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1], argv
        assert printed[0].out.startswith("usage: peadyn"), argv


def test_verify_table_follows_a_patched_table(capsys, monkeypatch):
    column = cli.EXPECTED_FIXED_POINTS[3]
    verify = ("verify-table", "--bases", "3", "--format", "table")
    passed = (0, "base 3: PASS (7 fixed points)\noverall: PASS\n", "")
    assert run(capsys, *verify) == passed
    # each call reads the table as it is then
    monkeypatch.setitem(cli.EXPECTED_FIXED_POINTS, 3, column + ("121",))
    code, out, _ = run(capsys, *verify)
    assert code == 1
    assert "base 3: FAIL extra: 121" in out.splitlines()
    monkeypatch.undo()
    assert run(capsys, *verify) == passed
