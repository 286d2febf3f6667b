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
response then scaled by that source's samples at every step.  Every
other circuit goes through the one stepped loop, which steps K variants
of one circuit together, one stacked Newton (:func:`newton_stack`) per
step.  :func:`run_transient_stacked` runs it over K variants, and
:func:`run_transient` over a stack of one.  :func:`run_transient_union`
runs a few different circuits as one union circuit.

CSV export writes each cell as the text of :func:`format_sci`, byte for
byte.  A vectorized kernel formats a block of rows at a time in numpy;
the few cells it cannot settle exactly (near a rounding tie, non-finite,
subnormal or beyond 1e+-280) go through :func:`format_sci` itself.
"""

from __future__ import annotations

import functools

import numpy as np

from . import mna
from .devices import Dc, source_samples
from .netlist import (
    Capacitor,
    Conveyor,
    FlatCircuit,
    ISource,
    Mosfet,
    VSource,
    member_name,
    union,
)
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


class Waveform:
    """Time-indexed record of every circuit unknown.

    ``columns`` maps unknown names (``v(node)``, ``i(element)``) to sample
    arrays, all the same length as ``times``.  ``vsource_nodes`` keeps each
    voltage source's terminal nodes so supply power can be computed from
    the record alone.
    """

    __slots__ = ("times", "columns", "dt", "method", "vsource_nodes", "time_label")

    def __init__(self, times: np.ndarray, columns: dict[str, np.ndarray], dt: float, method: str,
                 vsource_nodes: dict[str, tuple[str, str]] | None = None, time_label: str = "time"):
        self.times, self.columns, self.dt, self.method = times, columns, dt, method
        self.vsource_nodes = {} if vsource_nodes is None else vsource_nodes
        self.time_label = time_label

    def column(self, name: str) -> np.ndarray:
        if name == "v(0)":
            return np.zeros_like(self.times)
        if name not in self.columns:
            raise KeyError(f"no recorded column {name!r}")
        return self.columns[name]


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
    rescue: bool = True,
) -> Waveform:
    """Simulate from t = 0 to tstop with a constant step dt.

    A memoryless linear circuit is solved by superposition; any other
    runs the stepped loop of :func:`run_transient_stacked` as a stack of
    one.  With ``rescue=False`` a Newton failure raises at once, without
    the gmin ladder of :func:`newton_dc`.
    """
    _check_step(dt, tstop, method)
    tol = tol or Tolerances()
    u = mna.index_unknowns(c)
    plan = mna.compile(c, u, tol.gmin_floor)
    if not plan.linear or len(plan.farads):
        (wave,) = _run_stack([c], u, [plan], dt, tstop, method, tol, rescue)
        if isinstance(wave, Waveform):
            return wave
        raise wave
    times = _times(dt, tstop)
    op = newton_dc(c, u, tol, t=0.0, plan=plan, rescue=rescue)
    data = _run_batched(c, u, plan, times)
    data[:, 0] = op.x
    for r, lo, hi in _clip_rows(c, u):
        np.clip(data[r], lo, hi, out=data[r])
    return _waveform(c, u, times, data, dt, method)


def _times(dt, tstop):
    return np.arange(int(round(tstop / dt)) + 1) * dt


def _waveform(c, u, times, data, dt, method):
    columns = {name: data[i] for i, name in enumerate(u.names)}
    return Waveform(times, columns, dt, method, _vsource_nodes(c))


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
    :func:`newton_dc` would.  This stepped loop is the only one:
    :func:`run_transient` runs it over a stack of one, so every waveform
    equals its own :func:`run_transient` to the last bit.  A variant
    that fails holds its error, the one :func:`run_transient` would
    raise, in place of its waveform, and the others run on.  Memoryless
    variants are solved one by one by superposition.
    """
    _check_step(dt, tstop, method)
    tol = tol or Tolerances()
    if not any(isinstance(e, (Mosfet, Capacitor)) for e in circuits[0].elements):
        return [_or_error(run_transient, c, dt, tstop, method, tol) for c in circuits]
    u = mna.index_unknowns(circuits[0])
    plans = [mna.compile(c, u, tol.gmin_floor) for c in circuits]
    return _run_stack(circuits, u, plans, dt, tstop, method, tol, rescue=True)


def _run_stack(circuits, u, plans, dt, tstop, method, tol, rescue):
    """The stepped loop over K variants of one circuit with index map
    ``u`` and compiled plans ``plans``.  Returns each variant's waveform,
    or the error its run raised; ``rescue`` is as in
    :func:`run_transient`."""
    plan = mna.stack(plans)
    times = _times(dt, tstop)
    clips = [_clip_rows(c, u) for c in circuits]
    rows = [r for r, _, _ in clips[0]]
    lo = np.array([[v for _, v, _ in cl] for cl in clips]).reshape(len(circuits), -1)
    hi = np.array([[v for _, _, v in cl] for cl in clips]).reshape(len(circuits), -1)

    data = np.zeros((len(circuits), u.size, len(times)))
    errors = [None] * len(circuits)
    for k, c in enumerate(circuits):
        try:
            data[k, :, 0] = newton_dc(c, u, tol, t=0.0, plan=plans[k], rescue=rescue).x
        except (ConvergenceError, SingularMatrixError) as exc:
            errors[k] = exc

    def clamp(x):
        for j, r in enumerate(rows):
            x[:, r] = np.minimum(np.maximum(x[:, r], lo[:, j]), hi[:, j])
        return x

    live = np.array([e is None for e in errors])
    if not live.any():
        return errors
    x = clamp(data[:, :, 0].copy())
    # capacitor history: voltage from the operating point, current zero
    # (a capacitor is an open circuit at DC)
    v_prev = plan.cap_voltages(x)
    i_prev = np.zeros_like(v_prev)
    for k in range(1, len(times)):
        t = times[k]
        meth = "be" if method == "be" or k == 1 else "trap"
        geq, ieq = mna.companion_values(plan.farads, meth, dt, v_prev, i_prev)
        x_new, _, _, failed = newton_stack(circuits[0], u, tol, t, x, (geq, ieq), plan, live)
        for j, exc in failed.items():
            if rescue:
                try:
                    x_new[j] = gmin_stepped_dc(
                        circuits[j], u, tol, t, x[j], (geq[:, j], ieq[:, j]), plan=plans[j]
                    ).x
                    continue
                except (ConvergenceError, SingularMatrixError) as err:
                    exc = err
            errors[j] = _step_failure(exc, t, k)
            live[j] = False
        if failed and not live.any():
            break
        x = clamp(x_new)
        v_prev = plan.cap_voltages(x)
        i_prev = geq * v_prev - ieq
        data[:, :, k] = x
    for j, r in enumerate(rows):
        np.clip(data[:, r], lo[:, j, None], hi[:, j, None], out=data[:, r])
    return [e or _waveform(c, u, times, d, dt, method) for c, d, e in zip(circuits, data, errors)]


def run_transient_union(
    circuits: list[FlatCircuit],
    dt: float,
    tstop: float,
    method: str = "trap",
    tol: Tolerances | None = None,
) -> list[Waveform]:
    """:func:`run_transient` of each of a few small circuits, run as one
    :func:`~ccsim.netlist.union` circuit and split by
    :func:`member_waveform`.  Each waveform equals its own run to
    round-off.

    The union runs without the gmin ladder, whose extra conductances
    would load every member.  If it fails, each circuit runs alone, so a
    failing circuit raises its own error, with its own unknown names.
    """
    try:
        wave = run_transient(union(circuits), dt, tstop, method, tol, rescue=False)
    except (ConvergenceError, SingularMatrixError):
        return [run_transient(c, dt, tstop, method, tol) for c in circuits]
    return [member_waveform(wave, c, k) for k, c in enumerate(circuits)]


def member_waveform(wave: Waveform, c: FlatCircuit, k: int) -> Waveform:
    """Member ``k``'s record in ``wave``, a run of a union whose member
    ``k`` is ``c``: the columns and voltage sources of a run of ``c``
    alone, under its own names."""
    names = mna.index_unknowns(c).names  # "v(node)" and "i(element)"
    columns = {n: wave.columns[f"{n[:2]}{member_name(k, n[2:-1])})"] for n in names}
    return Waveform(wave.times, columns, wave.dt, wave.method, _vsource_nodes(c))


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
        elems[idx] = elems[idx]._replace(spec=Dc(float(v)))
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
        _vsource_nodes(c),
        time_label=name,
    )


# --------------------------------------------------------------------------
# CSV export / import
# --------------------------------------------------------------------------

def format_sci(v: float) -> str:
    """Scientific notation with 9 significant digits, locale-independent.

    This is the definition of a CSV cell: :func:`write_csv` writes these
    exact bytes, most cells through a vectorized kernel and the rest
    through this function."""
    return f"{v:.8e}"


# A cell is a fixed 17-byte slot: sign, 9 digits with the point after the
# first, "e", exponent sign, 3 exponent digits, separator.  Zero bytes pad
# a positive sign and a 2-digit exponent and are dropped before writing;
# every format_sci text (at most 16 bytes, "-4.94065646e-324") fits a slot.
_SLOT = 17
# The kernel takes 1e-280 < |v| < 1e280, so 10**(8-e) is a normal float
# and the exponent has 2 or 3 digits.
_GATE = 1e280
_EXP_MIN = -300


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each k in [_EXP_MIN, -_EXP_MIN]: 10**k, correctly rounded
    (Python's decimal parse), and the exponent text, one row per slot
    byte 12-15.  Built on first use, off the import path."""
    k = np.arange(_EXP_MIN, 1 - _EXP_MIN)
    pow10 = np.array([float(f"1e{j}") for j in k.tolist()])
    text = np.array([
        np.where(k < 0, ord("-"), ord("+")),
        np.where(abs(k) >= 100, abs(k) // 100 + ord("0"), 0),
        abs(k) // 10 % 10 + ord("0"),
        abs(k) % 10 + ord("0"),
    ], np.uint8)
    return pow10, text


# Cells whose s lies within this of a .5 tie go to format_sci.  s is
# |v| * fl(10**(8-e)) rounded once more, so its relative error is at most
# 2u + u**2 < 2.3e-16 (u = 2**-53); with s < 1e9 + 1 that is an absolute
# error under 2.3e-7.  Outside the margin the exact s rounds to the same
# integer as the computed one.  The decade edges need no margin: where
# the exact s is just below 1e8 and the computed one is not, or the
# other way round, both frames print "1.00000000e..." after the carry.
_TIE_MARGIN = 1e-6


def _csv_block(block: np.ndarray) -> bytes:
    """Rows of ``block`` as CSV lines whose cells are :func:`format_sci`
    text, byte for byte, formatted as whole arrays.

    Each finite cell in the gate gets e = floor(log10|v|) and the 9-digit
    mantissa m = rint(|v| * 10**(8-e)), with e moved by one where the
    product falls outside [1e8, 1e9) and a carry to 1e9 taken as 1e8 with
    e + 1.  Zeros are m = 0, e = 0 with the sign bit's sign.  Cells near a
    rounding tie, NaN, infinities, subnormals and |v| outside the gate are
    formatted by :func:`format_sci` itself.
    """
    pow10, exp_text = _format_tables()
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0.0
    gated = (a > 1.0 / _GATE) & (a < _GATE)  # False for NaN
    a[~gated] = 1.0  # no log10 of 0, inf or NaN; e comes out 0 there
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * pow10[8 - _EXP_MIN - e]
    e += s >= 1e9
    e -= s < 1e8
    s = a * pow10[8 - _EXP_MIN - e]
    m = np.rint(s)
    # the range test trusts log10 to land within one decade, no further
    fast = gated & (np.abs(s - m) < 0.5 - _TIE_MARGIN) & (m >= 1e8) & (m <= 1e9)
    carry = m == 1e9
    m[carry] = 1e8
    e += carry
    m[zero] = 0.0

    buf = np.zeros((len(v), _SLOT), np.uint8)
    buf[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    digits = m.astype(np.uint32)
    for col in range(10, 2, -1):
        q = digits // 10
        buf[:, col] = digits - 10 * q + ord("0")
        digits = q
    buf[:, 1] = digits + ord("0")
    buf[:, 2] = ord(".")
    buf[:, 11] = ord("e")
    e -= _EXP_MIN
    for col, row in enumerate(exp_text, 12):
        buf[:, col] = row[e]
    cells = buf.reshape(block.shape + (_SLOT,))
    cells[:, :, _SLOT - 1] = ord(",")
    cells[:, -1, _SLOT - 1] = ord("\n")
    for i in np.flatnonzero(~fast & ~zero):
        text = format_sci(float(v[i])).encode()
        buf[i, : _SLOT - 1] = np.frombuffer(text.ljust(_SLOT - 1, b"\0"), np.uint8)
    return buf.tobytes().translate(None, b"\0")


def write_csv(wave: Waveform, path, probes: list[str] | None = None):
    """Waveform CSV: header row, first column time, LF line endings; cells
    are :func:`format_sci` text, byte for byte, formatted a block of rows
    at a time by a vectorized kernel, so memory stays flat."""
    names = probes if probes is not None else list(wave.columns)
    cols = [wave.times] + [wave.column(n) for n in names]
    with open(path, "wb") as fh:
        fh.write((",".join([wave.time_label] + names) + "\n").encode())
        for k in range(0, len(wave.times), CSV_BLOCK):
            fh.write(_csv_block(np.column_stack([col[k : k + CSV_BLOCK] for col in cols])))


def read_csv(path) -> Waveform:
    """Rebuild a waveform from a CSV written by :func:`write_csv`; each
    cell parses to ``float`` of its text, bit for bit."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        start = fh.tell()
        # checked before loadtxt, which only warns on a file with no rows
        if len(header) < 2 or not any(line.strip() for line in iter(fh.readline, "")):
            raise ValueError(f"{path}: not a waveform CSV")
        fh.seek(start)
        arr = np.loadtxt(fh, delimiter=",", ndmin=2)
    times = arr[:, 0]
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    columns = {name: arr[:, i + 1] for i, name in enumerate(header[1:])}
    return Waveform(times, columns, dt, "", {}, time_label=header[0])
