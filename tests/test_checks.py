import re
from pathlib import Path

import pytest

from checks import CI, guard, main

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_guard_asserts_the_time_bound():
    with pytest.raises(AssertionError, match="bound 0 s"):
        guard(lambda: None, 0, None)


def test_guard_asserts_the_memory_bound():
    with pytest.raises(AssertionError, match="bound 1 MB"):
        guard(lambda: None, None, 1)


def test_main_refuses_a_process_with_a_test_framework():
    # a row's memory bound measures the program, so it must not run beside pytest
    with pytest.raises(AssertionError, match="test framework loaded"):
        main("cycles-11")


def test_workflow_runs_every_row_once():
    names = re.findall(r"python tests/checks\.py (\S+)", WORKFLOW.read_text())
    assert sorted(names) == sorted(CI)
