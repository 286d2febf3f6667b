"""The paper's three experiment scripts run to their closing line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, closing", [
    ("gain_grid.py", "worst relative error:"),
    ("rx_tuning.py", "doubling the bias current divides the resistance by sqrt(2)"),
    ("power_comparison.py", "controlled > plain at each count:"),
])
def test_script_runs_to_its_closing_line(script, closing):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1].strip().startswith(closing)
