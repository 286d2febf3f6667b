"""Fixed-step time-domain simulation.

Each step evaluates the sources at t_{n+1}, replaces capacitors by their
companion models and solves to DC tolerances.  The initial condition is
always the DC operating point with sources evaluated at t = 0.

Integration methods are backward Euler ("be") and trapezoidal ("trap").
A trapezoidal run takes its first step with backward Euler: at t = 0
there is no capacitor-current history, and seeding the trapezoid with a
zero current is wrong whenever a source steps right after t = 0.  The
backward-Euler first step has the same local order as the trapezoid's
global error, so the method keeps its second-order convergence.

Every step reuses one compiled stamp plan (see :mod:`ccsim.mna`).
Memoryless linear circuits (no MOSFETs, no capacitors) are solved by
superposition: one solve for the response to each unit source, each
response then scaled by that source's samples at every step.
:func:`run_transient_stacked` steps K variants of one circuit together,
one stacked Newton per step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import mna
from .devices import Dc, source_samples
from .netlist import Capacitor, Conveyor, FlatCircuit, ISource, Mosfet, VSource
from .solver import (
    ConvergenceError,
    SingularMatrixError,
    Tolerances,
    gmin_stepped_dc,
    newton_dc,
    newton_stack,
    solve_linear,
)

CSV_BLOCK = 4096  # rows formatted per write


@dataclass
class Waveform:
    """Time-indexed record of every circuit unknown.

    ``columns`` maps unknown names (``v(node)``, ``i(element)``) to sample
    arrays, all the same length as ``times``.  ``vsource_nodes`` keeps each
    voltage source's terminal nodes so supply power can be computed from
    the record alone.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray]
    dt: float
    method: str
    circuit_hash: str
    vsource_nodes: dict[str, tuple[str, str]] = field(default_factory=dict)
    time_label: str = "time"

    def column(self, name: str) -> np.ndarray:
        if name == "v(0)":
            return np.zeros_like(self.times)
        if name not in self.columns:
            raise KeyError(f"no recorded column {name!r}")
        return self.columns[name]


def circuit_hash(c: FlatCircuit) -> str:
    return hashlib.sha256(c.canonical_text().encode()).hexdigest()[:16]


def _vsource_nodes(c: FlatCircuit) -> dict[str, tuple[str, str]]:
    return {e.name: (e.p, e.n) for e in c.elements if isinstance(e, VSource)}


def _clip_rows(c: FlatCircuit, u: mna.UnknownMap):
    """(row, lo, hi) for every conveyor that asks for output clamping."""
    out = []
    for e in c.elements:
        if isinstance(e, Conveyor) and (e.vmin is not None or e.vmax is not None):
            r = u.node_row(c.nodes[e.z])
            if r >= 0:
                lo = -np.inf if e.vmin is None else e.vmin
                hi = np.inf if e.vmax is None else e.vmax
                out.append((r, lo, hi))
    return out


def _check_step(dt: float, tstop: float, method: str):
    if dt <= 0.0:
        raise ValueError("transient requires dt > 0")
    if tstop < dt:
        raise ValueError("transient requires tstop >= dt")
    if method not in ("be", "trap"):
        raise ValueError(f"unknown integration method {method!r}")


def run_transient(
    c: FlatCircuit,
    dt: float,
    tstop: float,
    method: str = "trap",
    tol: Tolerances | None = None,
) -> Waveform:
    """Simulate from t = 0 to tstop with a constant step dt."""
    _check_step(dt, tstop, method)
    tol = tol or Tolerances()
    u = mna.index_unknowns(c)
    plan = mna.compile(c, u, tol.gmin_floor)
    n_steps = int(round(tstop / dt))
    times = np.arange(n_steps + 1) * dt
    clips = _clip_rows(c, u)

    op = newton_dc(c, u, tol, t=0.0, plan=plan)
    if plan.linear and not len(plan.farads):
        data = _run_batched(c, u, plan, times)
        data[:, 0] = op.x
    else:
        data = np.empty((u.size, n_steps + 1))
        data[:, 0] = op.x
        _run_stepped(c, u, plan, times, method, tol, clips, data)
    for r, lo, hi in clips:
        np.clip(data[r], lo, hi, out=data[r])
    return _waveform(c, u, times, data, dt, method)


def _waveform(c, u, times, data, dt, method):
    columns = {name: data[i] for i, name in enumerate(u.names)}
    return Waveform(times, columns, dt, method, circuit_hash(c), _vsource_nodes(c))


def _run_batched(c, u, plan, times):
    """All steps of a memoryless linear circuit, by superposition over
    the rows of the plan's source table."""
    sys = mna.assemble(c, u, 0.0, plan=plan)
    src = plan.sources
    unit = np.zeros((plan.static.size, len(src.at)))
    unit[src.at, np.arange(len(src.at))] = src.sign
    rhs = (u.size + 1) ** 2
    response = solve_linear(sys.a, unit[rhs : rhs + u.size], u.names)
    samples = np.array([source_samples(spec, times) for spec in src.specs])
    return response @ samples.reshape(len(src.specs), len(times))[src.spec]


def _run_stepped(c, u, plan, times, method, tol, clips, data):
    def clamp(x):
        for r, lo, hi in clips:
            x[r] = min(max(x[r], lo), hi)
        return x

    x = clamp(data[:, 0].copy())
    # capacitor history: voltage from the operating point, current zero
    # (a capacitor is an open circuit at DC)
    v_prev = plan.cap_voltages(x)
    i_prev = np.zeros_like(v_prev)
    dt = times[1] - times[0]

    for k in range(1, len(times)):
        t = times[k]
        meth = "be" if method == "be" or k == 1 else "trap"
        geq, ieq = mna.companion_values(plan.farads, meth, dt, v_prev, i_prev)
        try:
            x = clamp(newton_dc(c, u, tol, t=t, x0=x, companions=(geq, ieq), plan=plan).x)
        except ConvergenceError as exc:
            raise _step_failure(exc, t, k) from None
        v_prev = plan.cap_voltages(x)
        i_prev = geq * v_prev - ieq
        data[:, k] = x


def run_transient_stacked(
    circuits: list[FlatCircuit],
    dt: float,
    tstop: float,
    method: str = "trap",
    tol: Tolerances | None = None,
) -> list[Waveform | ConvergenceError | SingularMatrixError]:
    """:func:`run_transient` of K variants of one circuit (the same
    netlist flattened with other ``.param`` values), stepped together.

    Each variant's operating point is its own :func:`newton_dc` call.
    Each step then runs one :func:`newton_stack` over every variant
    still running; a variant whose plain Newton fails retries alone
    through :func:`gmin_stepped_dc` from the same start, as
    :func:`newton_dc` would.  Every waveform equals its own
    :func:`run_transient` to round-off.  A variant that fails holds its
    error, the one :func:`run_transient` would raise, in place of its
    waveform, and the others run on.  Memoryless variants are solved one
    by one by superposition.
    """
    _check_step(dt, tstop, method)
    tol = tol or Tolerances()
    if not any(isinstance(e, (Mosfet, Capacitor)) for e in circuits[0].elements):
        return [_or_error(run_transient, c, dt, tstop, method, tol) for c in circuits]
    u = mna.index_unknowns(circuits[0])
    plans = [mna.compile(c, u, tol.gmin_floor) for c in circuits]
    plan = mna.stack(plans)
    n_steps = int(round(tstop / dt))
    times = np.arange(n_steps + 1) * dt
    clips = [_clip_rows(c, u) for c in circuits]
    rows = [r for r, _, _ in clips[0]]
    lo = np.array([[v for _, v, _ in cl] for cl in clips]).reshape(len(circuits), -1)
    hi = np.array([[v for _, _, v in cl] for cl in clips]).reshape(len(circuits), -1)

    data = np.zeros((len(circuits), u.size, n_steps + 1))
    errors = [None] * len(circuits)
    for k, c in enumerate(circuits):
        try:
            data[k, :, 0] = newton_dc(c, u, tol, t=0.0, plan=plans[k]).x
        except (ConvergenceError, SingularMatrixError) as exc:
            errors[k] = exc

    def clamp(x):
        for j, r in enumerate(rows):
            x[:, r] = np.minimum(np.maximum(x[:, r], lo[:, j]), hi[:, j])
        return x

    live = np.array([e is None for e in errors])
    x = clamp(data[:, :, 0].copy())
    v_prev = plan.cap_voltages(x)
    i_prev = np.zeros_like(v_prev)
    for k in range(1, len(times)):
        if not live.any():
            break
        t = times[k]
        meth = "be" if method == "be" or k == 1 else "trap"
        geq, ieq = mna.companion_values(plan.farads, meth, dt, v_prev, i_prev)
        x_new, failed = newton_stack(circuits[0], u, tol, t, x, (geq, ieq), plan, live)
        for j in np.flatnonzero(failed):
            try:
                x_new[j] = gmin_stepped_dc(
                    circuits[j], u, tol, t, x[j], (geq[:, j], ieq[:, j]), plan=plans[j]
                ).x
            except (ConvergenceError, SingularMatrixError) as exc:
                errors[j] = _step_failure(exc, t, k)
                live[j] = False
        x = clamp(x_new)
        v_prev = plan.cap_voltages(x)
        i_prev = geq * v_prev - ieq
        data[:, :, k] = x
    for j, r in enumerate(rows):
        np.clip(data[:, r], lo[:, j, None], hi[:, j, None], out=data[:, r])
    return [e or _waveform(c, u, times, d, dt, method) for c, d, e in zip(circuits, data, errors)]


def _or_error(run, *args):
    try:
        return run(*args)
    except (ConvergenceError, SingularMatrixError) as exc:
        return exc


def _step_failure(exc, t, k):
    if not isinstance(exc, ConvergenceError):
        return exc
    return ConvergenceError(
        f"transient Newton failure at t={t:.9e} s (step {k}): {exc}", exc.residual
    )


def run_dc_sweep(
    c: FlatCircuit,
    source_name: str,
    start: float,
    stop: float,
    step: float,
    tol: Tolerances | None = None,
) -> Waveform:
    """Operating-point sweep of one independent source's DC value."""
    tol = tol or Tolerances()
    name = source_name.lower()
    idx = next(
        (i for i, e in enumerate(c.elements)
         if isinstance(e, (VSource, ISource)) and e.name == name),
        None,
    )
    if idx is None:
        raise ValueError(f"no independent source named {source_name!r} to sweep")
    if step == 0.0:
        raise ValueError("dc sweep step must be nonzero")
    n = int(round((stop - start) / step))
    values = start + np.arange(n + 1) * step
    u = mna.index_unknowns(c)
    data = np.empty((u.size, len(values)))
    x = None
    for k, v in enumerate(values):
        elems = list(c.elements)
        elems[idx] = replace(elems[idx], spec=Dc(float(v)))
        ck = FlatCircuit(c.nodes, c.node_names, elems, c.directives, c.params)
        op = newton_dc(ck, u, tol, t=0.0, x0=x)
        x = op.x
        data[:, k] = x
    columns = {nm: data[i] for i, nm in enumerate(u.names)}
    return Waveform(
        values,
        columns,
        float(step),
        "dc",
        circuit_hash(c),
        _vsource_nodes(c),
        time_label=name,
    )


# --------------------------------------------------------------------------
# CSV export / import
# --------------------------------------------------------------------------

def format_sci(v: float) -> str:
    """Scientific notation with 9 significant digits, locale-independent."""
    return f"{v:.8e}"


def write_csv(wave: Waveform, path, probes: list[str] | None = None):
    """Waveform CSV: header row, first column time, LF line endings; cells
    are :func:`format_sci` text, formatted a block of rows at a time."""
    names = probes if probes is not None else list(wave.columns)
    cols = [wave.times] + [wave.column(n) for n in names]
    row_fmt = ",".join(["%.8e"] * len(cols)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([wave.time_label] + names) + "\n")
        for k in range(0, len(wave.times), CSV_BLOCK):
            block = np.column_stack([col[k : k + CSV_BLOCK] for col in cols])
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def read_csv(path) -> Waveform:
    """Rebuild a waveform from a CSV written by :func:`write_csv`."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(header) < 2 or not rows:
        raise ValueError(f"{path}: not a waveform CSV")
    arr = np.array([[float(v) for v in row] for row in rows])
    times = arr[:, 0]
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    columns = {name: arr[:, i + 1] for i, name in enumerate(header[1:])}
    return Waveform(times, columns, dt, "", "", {}, time_label=header[0])
