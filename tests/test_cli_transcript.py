"""The CLI's recorded transcript: stdout, stderr and exit code of each argv list.

``cli_transcript.json`` holds one entry per argv list: every subcommand in
json, csv and table, and every exit code from 0 to 4. The test runs
``cli.main`` in-process on each list and asserts the same three outputs, so a
refactor that changes any byte the CLI prints fails here.

To record the transcript again after an intended output change, run
``PYTHONPATH=src python tests/test_cli_transcript.py``.
"""

import contextlib
import io
import json
import os
from functools import cache
from pathlib import Path

import pytest

from peadyn.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

ARGVS = [
    [*command, "--format", fmt]
    for command in (
        ["step", "-k", "10", "-w", "123", "-n", "3"],
        ["orbit", "-k", "2", "-w", "10"],
        ["orbit", "-k", "10", "-w", "123"],
        ["fixed-points", "-k", "6"],
        ["fixed-points", "-k", "7", "--length-limit", "9"],
        ["fixed-points", "-k", "20", "--count"],
        ["cycles", "-k", "6"],
        ["cycles", "-k", "9", "--length-limit", "14"],
        ["verify-table"],
        ["verify-table", "--bases", "3,5"],
        ["bound", "-k", "7"],
    )
    for fmt in ("json", "csv", "table")
] + [
    ["step", "-k", "10", "-w", "123"],
    ["step", "-k", "2", "-w", "102"],
    ["step", "-k", "1", "-w", "0"],
    ["step", "-k", "37", "-w", "1"],
    ["step", "-k", "2", "-w", "10", "-n", "0"],
    ["orbit", "-k", "10", "-w", "123", "--max-steps", "3"],
    ["orbit", "-k", "10", "-w", "123", "--max-steps", "3", "--format", "table"],
    ["fixed-points", "-k", "24"],
    ["fixed-points", "-k", "8", "--budget", "5"],
    ["fixed-points", "-k", "5", "--count", "--budget", "5"],
    ["cycles", "-k", "24"],
    ["cycles", "-k", "8", "--budget", "5", "--format", "csv"],
    ["verify-table", "--bases", "6", "--format", "table"],
    ["verify-table", "--bases", "7"],
    ["verify-table", "--bases", "2,2"],
]


def record(argv):
    """Run ``main(argv)`` in-process and return its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


@cache
def transcript():
    return {tuple(entry["argv"]): entry for entry in json.loads(TRANSCRIPT.read_text())}


def test_transcript_is_recorded_for_every_argv_and_exit_code():
    assert list(transcript()) == [tuple(argv) for argv in ARGVS]
    assert {entry["code"] for entry in transcript().values()} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_matches_transcript(argv, monkeypatch):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert record(argv) == transcript()[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    TRANSCRIPT.write_text(json.dumps([record(argv) for argv in ARGVS], indent=1) + "\n")
