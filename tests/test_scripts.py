import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "empirical_convergence.py"


@pytest.mark.parametrize("bases", ["1", "37", "2,37"])
def test_convergence_script_rejects_bases_out_of_range(bases):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--bases", bases], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")
    assert "outside 2..36" in proc.stderr
    assert "Traceback" not in proc.stderr
