"""The machine-speed references that benchmark times are scaled by.

The reference box (2 vCPUs shared with other tenants) changes speed by up
to 2x, in plateaus from under a second to several minutes long, so raw
wall times of one commit spread by 10-20 % from run to run.  A fixed loop
of interpreter and small-array work, timed next to each measurement,
moves with those swings as the simulator does, and no change to ccsim
can move it.  A time is reported at reference speed:

    measured * REF_NOMINAL_S / (mean of the reference timings around it)

Set-up time is mostly imports, which read and unmarshal many small files
and allocate; over the box's plateaus that work does not keep step with
the interpreter loop.  So set-up time has a reference of its own: a
fresh interpreter importing a fixed set of modules without ccsim, scaled
the same way with ``IMPORT_NOMINAL_S``.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# Time of reference() on the reference box at its fast speed (Python
# 3.11, numpy 2.4).
REF_NOMINAL_S = 0.1


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work."""
    t0 = perf_counter()
    s = 0
    for i in range(700_000):
        s += i * i % 7
    a, b, acc, out = np.zeros((8, 8)), np.ones(8), 0.0, []
    for i in range(27_000):
        a[i % 8, (i * 3) % 8] += 1.0
        acc += float(a[i % 8] @ b) * 1e-3
        out.append(f"{acc:.8e}")
    ",".join(out)
    return perf_counter() - t0


def reference_times(processes: int, timeout: float) -> list[float]:
    """``reference()`` timed once in each of ``processes`` processes
    running at once; in this process when there is one.  A unit that
    keeps several cores busy is scaled by as many references side by
    side, so that load on any of its cores shows in the reference."""
    if processes == 1:
        return [reference()]
    procs = [subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True)
             for _ in range(processes)]
    try:
        return [float(p.communicate(timeout=timeout)[0]) for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()


# Modules the import reference loads: numpy, which ccsim needs too, and
# standard-library packages ccsim does not use.
IMPORT_MODULES = "numpy, decimal, fractions, email.parser, xml.dom.minidom, http.client"
# Import time of IMPORT_MODULES on the reference box at its fast speed.
IMPORT_NOMINAL_S = 0.1


def import_reference_argv() -> list[str]:
    """Command line of a fresh interpreter that prints how many seconds
    it took to import ``IMPORT_MODULES``."""
    code = (f"from time import perf_counter\nt0 = perf_counter()\nimport {IMPORT_MODULES}\n"
            "print(perf_counter() - t0)")
    return [sys.executable, "-c", code]


def scale(*reference_times: float, nominal: float = REF_NOMINAL_S) -> float:
    """Factor that brings a time measured next to these reference
    timings to reference speed."""
    return nominal * len(reference_times) / sum(reference_times)


if __name__ == "__main__":
    print(reference())
