import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "empirical_convergence.py"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--bases", "1"], "outside 2..36", id="1"),
        pytest.param(["--bases", "37"], "outside 2..36", id="37"),
        pytest.param(["--bases", "2,37"], "outside 2..36", id="2,37"),
        pytest.param(["--samples", "0"], "expected a positive integer, got 0", id="samples-0"),
        pytest.param(["--max-length", "0"], "expected a positive integer, got 0", id="max-length-0"),
        pytest.param(["--max-steps", "0"], "expected a positive integer, got 0", id="max-steps-0"),
        pytest.param(["--samples", "-3"], "expected a positive integer, got -3", id="samples-negative"),
        pytest.param(["--samples", "x"], "expected a positive integer, got x", id="samples-x"),
        pytest.param(["--bases", "2,x"], "base 'x' is not an integer", id="2,x"),
    ],
)
def test_convergence_script_rejects_bases_out_of_range(argv, message):
    # every option outside its range is an argparse usage error, never a traceback
    proc = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
