"""What importing and running ccsim leaves in a fresh interpreter: the
OpenBLAS thread count, the environment and the numpy modules loaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

THREADS = """
import os
before = dict(os.environ)
{imports}
assert dict(os.environ) == before, "the environment changed"
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")))
"""


def _threads(imports: str, **preset) -> int:
    env = {k: v for k, v in os.environ.items() if k not in COUNTS} | preset
    r = subprocess.run([sys.executable, "-c", THREADS.format(imports=imports)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return int(r.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_import_loads_openblas_with_one_thread_unless_a_count_is_set():
    assert _threads("import ccsim") == _threads("import numpy", OPENBLAS_NUM_THREADS="1")
    # a preset count, or a host that loaded numpy first, is left as it is
    assert _threads("import ccsim", OPENBLAS_NUM_THREADS="2") == _threads(
        "import numpy", OPENBLAS_NUM_THREADS="2")
    assert _threads("import ccsim", OMP_NUM_THREADS="2") == _threads("import numpy", OMP_NUM_THREADS="2")
    assert _threads("import numpy\nimport ccsim") == _threads("import numpy")


NUMPY_MODULES = """
import sys
import numpy

def loaded():
    return {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}

base = loaded()
from ccsim.cli import main
from ccsim.library import TranslinearConveyor, AmplifierConfig, emit_example
from ccsim.netlist import parse_and_flatten
from ccsim.transient import run_transient_stacked

tmp = sys.argv[1]
with open(tmp + "/amp.cir", "w") as fh:
    fh.write(emit_example("proposed_amp_translinear").replace(".tran 1e-05 0.002", ".tran 1e-05 2e-4"))
assert main(["run", tmp + "/amp.cir", "--out", tmp + "/amp.csv"]) == 0
assert main(["sweep", tmp + "/amp.cir", "--sweep", "ibval=20u,50u", "--out", tmp + "/sweep.csv"]) == 0
# two topologies, so the stack pads the smaller circuit
circuits = [parse_and_flatten(emit_example(name, AmplifierConfig(conveyor=TranslinearConveyor())))
            for name in ("proposed_amp", "ferri_2cc")]
assert all(hasattr(w, "times") for w in run_transient_stacked(circuits, 1e-5, 1e-4))
with open(tmp + "/loaded.txt", "w") as fh:
    fh.write(" ".join(sorted(loaded() - base)))
"""


def test_runs_load_no_numpy_module_that_import_numpy_did_not(tmp_path):
    r = subprocess.run([sys.executable, "-c", NUMPY_MODULES, str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "loaded.txt").read_text().split() == []
