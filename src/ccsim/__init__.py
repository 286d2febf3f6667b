"""ccsim: a compact nonlinear analog circuit simulator with first-class
current-conveyor support."""

from .devices import (
    ConveyorParams,
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
    print_netlist,
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
