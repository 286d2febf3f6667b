"""The paper's numbers against the committed reference record
``tests/reference/paper.json``.

The record holds, each value as ``float.hex``, the 75 ``gain_grid``
points, the five ``measure_rx_emergent`` values and the four
``power_comparison`` pairs at the ``scripts/`` defaults, and two known
wrong answers as they stand today, labelled as such in its ``notes``.
It names the numpy version and CPU it was taken on.  The test recomputes
every value and compares it at 1e-9 relative.

A change that moves a value on purpose (a fix of a known wrong answer,
say) rewrites the record in its own diff and says why:

    PYTHONPATH=src python tests/test_reference.py --write

Never rewrite it to make a failing run pass.
"""

import json
import platform
import re
import sys
from pathlib import Path

import numpy as np

from ccsim import mna
from ccsim.library import gain_grid, measure_rx_emergent, power_comparison
from ccsim.netlist import parse_and_flatten
from ccsim.solver import newton_dc

from conftest import FLOOR_HELD, node_kcl_residuals, run_amp

RECORD = Path(__file__).parent / "reference" / "paper.json"
RTOL = 1e-9
GRID_R = (100.0, 1e3, 2e3, 10e3, 100e3)  # scripts/gain_grid.py
GRID_RX = (0.0, 500.0, 1581.0)
RX_BIASES = (12.5e-6, 25e-6, 50e-6, 100e-6, 200e-6)  # scripts/rx_tuning.py
RX_RAILS = 1.5

NOTES = {
    "floor_held_op": "KNOWN WRONG ANSWER (ROADMAP item 14): the operating point of conftest.FLOOR_HELD, "
                     "which has no solution without the gmin floor; the engine accepts v(n3) near 1e9 V",
    "clamped_amplifier": "KNOWN WRONG ANSWER (ROADMAP item 5b): the behavioral amplifier with r1 = 100, "
                         "r2 = 100k, rx = 0 and a +-0.5 V clamp (trap, dt = 1 us, 5 periods); the share of "
                         "its samples at a clamp bound and the worst KCL miss at out there "
                         "(conftest.node_kcl_residuals)",
}


def paper_numbers() -> dict:
    """Every recorded value, recomputed, as floats in the record's layout."""
    c = parse_and_flatten(FLOOR_HELD)
    plan = mna.compile(c)
    c_amp, wave = run_amp(r1=100.0, r2=100e3, rx=0.0, vmin=-0.5, vmax=0.5)
    clamped = np.abs(wave.column("v(out)")) == 0.5
    miss = np.abs(node_kcl_residuals(c_amp, wave)[0]["out"])
    return {
        "gain_grid": [list(p) for p in gain_grid(GRID_R, GRID_R, GRID_RX, dt=1e-6, periods=5)],
        "rx_tuning": [[ib, measure_rx_emergent(ib, rails=RX_RAILS)] for ib in RX_BIASES],
        "power_comparison": {k: list(v) for k, v in power_comparison(ib=50e-6, rails=1.0).items()},
        "floor_held_op": {"v(n3)": float(newton_dc(plan).x[plan.u.names.index("v(n3)")])},
        "clamped_amplifier": {"clamped_share": float(clamped.mean()),
                              "worst_kcl_miss_at_out": float(miss[clamped].max())},
    }


def _leaves(tree, path=""):
    """(path, value) of every number in a nested dict/list."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, tree


def test_paper_numbers_match_the_reference_record():
    record = json.loads(RECORD.read_text())
    want = dict(_leaves(record["values"]))
    got = dict(_leaves(paper_numbers()))
    assert got.keys() == want.keys()
    worst, where = 0.0, None
    for path, value in got.items():
        ref = float.fromhex(want[path])
        rel = abs(value - ref) / abs(ref) if ref else abs(value)
        if not rel <= worst:  # NaN counts as the worst
            worst, where = rel, f"{path}: {value!r} against {ref!r}"
    assert worst <= RTOL, f"largest relative difference {worst:.3e} at {where}"


def _hex(tree):
    if isinstance(tree, dict):
        return {k: _hex(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_hex(v) for v in tree]
    return float(tree).hex()


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    RECORD.parent.mkdir(exist_ok=True)
    taken_on = {"numpy": np.__version__, "python": platform.python_version(), "cpu": _cpu(),
                "machine": platform.machine()}
    record = {"taken_on": taken_on, "notes": NOTES, "values": _hex(paper_numbers())}
    text = json.dumps(record, indent=1)
    # one line per innermost list: a gain point, an rx point, a power pair
    RECORD.write_text(re.sub(r"\[([^][{}]*)\]", lambda m: "[" + re.sub(r",\s+", ", ", m[1].strip()) + "]",
                             text) + "\n")
