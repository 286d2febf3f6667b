"""ccsim: a compact nonlinear analog circuit simulator with first-class
current-conveyor support.

Importing ccsim before numpy loads OpenBLAS with one thread, unless one of
the thread counts OpenBLAS reads is already set.  ccsim's BLAS and LAPACK
work is small (stacks of dense solves with a few dozen unknowns), so
OpenBLAS's worker threads would only spin.  The environment is left as it
was found."""


def _import_numpy_single_threaded():
    import os
    import sys

    counts = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(k in os.environ for k in counts):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_single_threaded()

from .devices import (
    Dc,
    MosfetParams,
    Pulse,
    Sin,
    SourceSpec,
    conveyor_rx,
    mosfet_eval,
    source_value,
)
from .netlist import (
    FlatCircuit,
    NetlistAst,
    NetlistError,
    expand_hierarchy,
    parse_and_flatten,
    parse_netlist,
    parse_value,
)
from .mna import MnaSystem, UnknownMap, index_unknowns
from .solver import (
    ConvergenceError,
    OperatingPoint,
    SingularMatrixError,
    Tolerances,
    newton_dc,
    solve_linear,
)
from .transient import Waveform, read_csv, run_transient, run_transient_stacked, write_csv
from .measure import (
    Histogram,
    Measurement,
    average_power,
    gain,
    histogram,
    peak_power,
    peak_to_peak,
    rms,
)
from .library import (
    AmplifierConfig,
    BehavioralConveyor,
    TranslinearConveyor,
    emit_example,
    loaded_gain,
    measure_rx_emergent,
    power_comparison,
    tuning_case,
)

__version__ = "0.1.0"
