"""Fixed-step time-domain simulation.

A run samples its sources once into one matrix (see
:meth:`mna.SourceTable.samples`); each step stamps its column of t_{n+1},
replaces capacitors by their companion models and solves to DC
tolerances.  The initial condition is always the DC operating point with
sources evaluated at t = 0.

Integration methods are backward Euler ("be") and trapezoidal ("trap").
A trapezoidal run takes its first step with backward Euler: at t = 0
there is no capacitor-current history, and seeding the trapezoid with a
zero current is wrong whenever a source steps right after t = 0.  The
backward-Euler first step has the same local order as the trapezoid's
global error, so the method keeps its second-order convergence.

Every step reuses one compiled stamp plan (see :mod:`ccsim.mna`), and
:func:`mna.compile` is the last reader of a circuit: the runs, and the
records' supply nodes, come from the plans alone.
:func:`run_transient_stacked` runs K circuits as stacks (see
:func:`mna.stack`), and :func:`run_transient` is a stack of one;
circuits of different sizes are compiled again to step as one stack.
Memoryless linear circuits (no MOSFETs, no capacitors) are solved by
superposition: one stacked solve per topology for the circuits'
responses to each unit source, each circuit's responses then combined
by its own samples when its waveform is taken.  Every other circuit
goes through the one stepped loop, which steps its stack together, one
stacked Newton (:func:`newton_stack`) per step.  A ``.dc`` sweep
(:func:`run_dc_sweep`) is that loop too, over a stack of one, with the
swept values as its axis, the source's entries found by its name, and
its capacitors open.

CSV export writes each cell as the text of :func:`format_sci`, byte for
byte.  A vectorized kernel formats a block of rows at a time in numpy
into fixed-width byte slots, the fraction digits four at a time from a
table, in one workspace per CSV that every block reuses.  The slots are
backed by a bytearray whose pad bytes are dropped straight from it, so a
full block allocates only the text it writes; the few cells the kernel
cannot settle exactly (near a rounding tie, non-finite, subnormal or
beyond 1e+-280) go through :func:`format_sci` itself.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from . import mna
from .netlist import FlatCircuit
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
    """Simulate from t = 0 to tstop with a constant step dt: the one
    circuit of a :func:`run_transient_stacked` call."""
    (wave,) = run_transient_stacked([c], dt, tstop, method, tol)
    if isinstance(wave, Waveform):
        return wave
    raise wave


def run_transient_stacked(
    circuits: list[FlatCircuit],
    dt: float,
    tstop: float,
    method: str = "trap",
    tol: Tolerances | None = None,
) -> Iterator[Waveform | ConvergenceError | SingularMatrixError]:
    """:func:`run_transient` of each of K circuits, the circuits run
    together as stacks; an iterator of each circuit's result in input
    order.  Everything but the memoryless waveforms is done at the call,
    so bad arguments raise there.

    The stepped circuits go through the one stepped loop, the linear ones
    (with capacitors, no MOSFETs) as one stack and the nonlinear ones as
    another, so a linear circuit keeps its one solve per step.  Members
    that differ in layout are compiled again like their
    :func:`mna.stack_shape` to step as one plan (see :func:`_run_stack`).
    The memoryless linear ones (no MOSFETs, no capacitors) are solved by
    superposition, one stack per unknown map and source-table entry count
    (see :func:`_superpose`), and each of their waveforms is formed only
    when the iterator reaches it, so the caller holds one at a time.  Each
    circuit's operating point is its own :func:`newton_dc` call.  Each
    step then runs one :func:`newton_stack` over every circuit still
    running; a circuit whose plain Newton fails retries alone through
    :func:`gmin_stepped_dc` on its own plan from the same start, as
    :func:`newton_dc` would.  So every waveform equals its own run: to the
    last bit when the stack did not pad the circuit (variants of one
    netlist, or the largest circuit, and every memoryless circuit), to
    round-off when it did.  A circuit that fails holds its error, the one
    :func:`run_transient` would raise with its own unknown names, in place
    of its waveform, and the others run on.
    """
    _check_step(dt, tstop, method)
    tol = tol or Tolerances()
    plans = [mna.compile(c, tol.gmin_floor) for c in circuits]
    stacks = {}
    for k, p in enumerate(plans):
        # a memoryless stack holds the circuits of one unknown map and one
        # entry count, so none is padded: LAPACK's answer for one
        # right-hand side can change in its last bit with the number
        # solved beside it
        memoryless = p.linear and not p.farads.size
        key = ("memoryless", tuple(p.u.names), p.sources.at.size) if memoryless else ("stepped", p.linear)
        stacks.setdefault(key, []).append(k)
    times = np.arange(int(round(tstop / dt)) + 1) * dt
    sampled = {}  # each spec's samples, shared by every circuit
    runs = {}
    for key, ks in stacks.items():
        group = [plans[k] for k in ks]
        if key[0] == "stepped":
            shape = mna.stack_shape(group)
            fit = all(mna.fits(p, shape) for p in group)
            plan = mna.stack(group if fit else [mna.compile(circuits[k], tol.gmin_floor, shape) for k in ks])
            samples = [p.sources.samples(times, sampled) for p in group]
            runs.update(zip(ks, _run_stack(group, plan, times, samples, dt, method, tol)))
        else:
            runs.update(zip(ks, _superpose(group, tol)))
    return _in_order(plans, runs, times, sampled, dt, method)


def _in_order(plans, runs, times, sampled, dt, method):
    """Yield each plan's result from ``runs`` in order; a memoryless
    circuit's is formed here, as its response (see :func:`_superpose`)
    times its own samples, each spec's taken from ``sampled``, with its
    operating point as column 0 and each row clipped to the plan's
    bounds, when any is finite."""
    for k, p in enumerate(plans):
        run = runs.pop(k)
        if not isinstance(run, tuple):
            yield run
            continue
        op, response = run
        data = response @ p.sources.samples(times, sampled)
        data[:, 0] = op
        if np.isfinite(p.bounds).any():
            lo, hi = p.bounds[:, 0]
            np.clip(data, lo[:, None], hi[:, None], out=data)
        yield _waveform(p.u, times, data, dt, method)


def _waveform(u, times, data, dt, method, rows=None, label="time"):
    """The record of the circuit of unknown map ``u`` whose unknown i is
    row ``rows[i]`` of ``data``, with the map's supply nodes."""
    rows = range(u.size) if rows is None else rows
    columns = {name: data[r] for r, name in zip(rows, u.names)}
    return Waveform(times, columns, dt, method, u.vsource_nodes, label)


def _superpose(plans, tol):
    """Each memoryless linear circuit of ``plans`` (one unknown map, one
    source-table entry count): its operating point and its response to
    each source-table entry at unit value, or the error it raised.

    Each operating point is its own :func:`newton_dc` call; the responses
    of the circuits that have one are one stacked :func:`solve_linear`
    call (see :func:`mna.stack`).  If that call refuses a circuit, each is
    solved again alone, so that the error stays with its circuit."""
    out = [_or_error(newton_dc, p, tol) for p in plans]
    live = [k for k, op in enumerate(out) if not isinstance(op, Exception)]
    if live:
        plan = mna.stack([plans[k] for k in live])
        units = np.array([mna.unit_sources(plans[k]) for k in live])
        a = mna.assemble(plan, plan.static).a
        try:
            responses = solve_linear(a, units, plan.u.names)
        except SingularMatrixError:
            responses = [_or_error(solve_linear, a_k, b_k, plan.u.names) for a_k, b_k in zip(a, units)]
        for k, response in zip(live, responses):
            out[k] = response if isinstance(response, Exception) else (out[k].x, response)
    return out


def _run_stack(plans, plan, axis, samples, dt, method, tol, label="time"):
    """The stepped loop over the K circuits of compiled ``plans``, as
    ``plan``, their stack (see :func:`mna.stack`), in which circuit k's
    unknowns sit at ``mna.padded_rows(plans[k].u, plan.u.n_nodes)``.
    Each circuit's own plan gives its operating point, its rescue and
    its record; ``plan`` only steps.  Point k of ``axis`` (a transient's
    times, or the values of a ``.dc`` sweep, ``method`` "dc", of the
    source ``label``) starts from point k - 1 and stamps column k of each
    circuit's (entries x points) matrix in ``samples``; point 0 is each
    circuit's :func:`newton_dc` at its column 0.  Every point's
    solutions, the operating points too, are clamped to the stack's
    bounds, when any is finite.  Returns each circuit's waveform, or the
    error its run raised."""
    rows = [mna.padded_rows(p.u, plan.u.n_nodes) for p in plans]
    n_var = len(plans)
    lo, hi = plan.bounds
    clamped = np.isfinite(plan.bounds).any()
    data = np.zeros((n_var, plan.u.size, len(axis)))
    errors = [None] * n_var
    for k, p in enumerate(plans):
        try:
            data[k, rows[k], 0] = newton_dc(p, tol, samples[k][:, 0]).x
        except (ConvergenceError, SingularMatrixError) as exc:
            errors[k] = _step_failure(exc, label, axis[0], 0)

    live = np.array([e is None for e in errors])
    if not live.any():
        return errors
    x = data[:, :, 0]
    if clamped:
        x = data[:, :, 0] = np.minimum(np.maximum(x, lo), hi)
    # capacitor history: voltage from the operating point, current zero
    # (a capacitor is an open circuit at DC, and stays open in a .dc sweep)
    v_prev = plan.cap_voltages(x)
    i_prev = np.zeros_like(v_prev)
    stacked = np.concatenate(samples)
    for k in range(1, len(axis)):
        meth = "be" if method == "trap" and k == 1 else method
        geq, ieq = mna.companion_values(plan.farads, meth, dt, v_prev, i_prev)
        x_new, _, _, failed = newton_stack(plan, tol, stacked[:, k], x, (geq, ieq), live)
        for j in failed:
            own = plans[j].farads.size  # the stack's capacitors of circuit j are its own, then pads
            try:
                x_new[j, rows[j]] = gmin_stepped_dc(
                    plans[j], tol, samples[j][:, k], x[j, rows[j]], (geq[j::n_var][:own], ieq[j::n_var][:own])
                ).x
            except (ConvergenceError, SingularMatrixError) as exc:
                errors[j] = _step_failure(exc, label, axis[k], k)
                live[j] = False
        if failed and not live.any():
            break
        x = np.minimum(np.maximum(x_new, lo), hi) if clamped else x_new
        v_prev = plan.cap_voltages(x)
        i_prev = geq * v_prev - ieq
        data[:, :, k] = x
    return [e or _waveform(p.u, axis, d, dt, method, r, label)
            for p, d, r, e in zip(plans, data, rows, errors)]


def _or_error(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except (ConvergenceError, SingularMatrixError) as exc:
        return exc


def _step_failure(exc, label, value, k):
    """``exc`` naming its point; a transient's operating point keeps its own."""
    if not isinstance(exc, ConvergenceError) or (k == 0 and label == "time"):
        return exc
    where = (f"transient Newton failure at t={value:.9e} s (step {k})" if label == "time"
             else f"dc sweep Newton failure at {label}={value:.9e} (point {k})")
    return ConvergenceError(f"{where}: {exc}", exc.residual)


def run_dc_sweep(
    c: FlatCircuit,
    source_name: str,
    start: float,
    stop: float,
    step: float,
    tol: Tolerances | None = None,
) -> Waveform:
    """Operating points over one independent source's DC value: the
    stepped loop over a stack of one, compiled once, whose sample matrix
    is the t = 0 column repeated with the source's own entries, those its
    name marks in the source table, set to each value."""
    tol = tol or Tolerances()
    name = source_name.lower()
    plan = mna.compile(c, tol.gmin_floor)
    swept = plan.sources.names == name
    if not swept.any():
        raise ValueError(f"no independent source named {source_name!r} to sweep")
    n = int(round((stop - start) / step)) if step else -1
    if n < 0:
        raise ValueError("dc sweep step must be nonzero and lead from start to stop")
    values = start + np.arange(n + 1) * step
    samples = np.repeat(plan.sources.values(0.0)[:, None], len(values), axis=1)
    samples[swept] = plan.sources.sign[swept, None] * values
    (wave,) = _run_stack([plan], plan, values, [samples], float(step), "dc", tol, name)
    if isinstance(wave, Waveform):
        return wave
    raise wave


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
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each k in [_EXP_MIN, -_EXP_MIN]: 10**k, correctly rounded
    (Python's decimal parse), and the exponent text, slot bytes 12-15, as
    one native uint32 word; and for each i in [0, 10000) the four digits
    of i, zero-padded, as one native uint32 word.  Built on first use, off
    the import path."""
    k = np.arange(_EXP_MIN, 1 - _EXP_MIN)
    pow10 = np.array([float(f"1e{j}") for j in k.tolist()])
    text = np.array([
        np.where(k < 0, ord("-"), ord("+")),
        np.where(abs(k) >= 100, abs(k) // 100 + ord("0"), 0),
        abs(k) // 10 % 10 + ord("0"),
        abs(k) % 10 + ord("0"),
    ], np.uint8)
    i = np.arange(10_000)
    words = np.array([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], np.uint8) + np.uint8(ord("0"))
    return pow10, text.T.copy().view(np.uint32).ravel(), words.T.copy().view(np.uint32).ravel()


# Cells whose s lies within this of a .5 tie go to format_sci.  s is
# |v| * fl(10**(8-e)) rounded once more, so its relative error is at most
# 2u + u**2 < 2.3e-16 (u = 2**-53); with s < 1e9 + 1 that is an absolute
# error under 2.3e-7.  Outside the margin the exact s rounds to the same
# integer as the computed one.  The decade edges need no margin: where
# the exact s is just below 1e8 and the computed one is not, or the
# other way round, both frames print "1.00000000e..." after the carry.
_TIE_MARGIN = 1e-6


class _CsvWork:
    """Every array :func:`_csv_block` works in, for blocks of up to
    ``rows`` rows of ``cols`` cells: the row-major block itself, one array
    per per-cell quantity and the cells' byte slots, a (cells, 17) view of
    the bytearray ``text``.  The slots' constant bytes, the point, the "e"
    and each cell's separator (a comma, or a newline ending a row), are
    written here once; a block writes the rest of each slot and puts the
    point and the "e" back where a :func:`format_sci` fallback covered
    them.  One is made per CSV and reused by each block, so formatting
    allocates only the text it returns."""

    __slots__ = ("block", "a", "s", "m", "e", "at", "zero", "gated", "fast", "carry",
                 "digits", "lead", "hi", "lo", "text", "slots")

    def __init__(self, rows: int, cols: int):
        cells = rows * cols
        self.block = np.empty((rows, cols))
        self.a, self.s, self.m = np.empty(cells), np.empty(cells), np.empty(cells)
        self.e, self.at = np.empty(cells, np.intp), np.empty(cells, np.intp)
        self.zero, self.gated, self.fast, self.carry = (np.empty(cells, bool) for _ in range(4))
        self.digits, self.lead = np.empty(cells, np.uint32), np.empty(cells, np.uint32)
        self.hi, self.lo = np.empty(cells, np.intp), np.empty(cells, np.intp)
        self.text = bytearray(cells * _SLOT)
        self.slots = np.frombuffer(self.text, np.uint8).reshape(cells, _SLOT)
        self.slots[:, 2] = ord(".")
        self.slots[:, 11] = ord("e")
        ends = self.slots.reshape(rows, cols, _SLOT)[:, :, _SLOT - 1]
        ends[:] = ord(",")
        ends[:, -1] = ord("\n")


def _csv_block(block: np.ndarray, work: _CsvWork | None = None) -> bytearray:
    """Rows of ``block`` as CSV lines whose cells are :func:`format_sci`
    text, byte for byte, formatted as whole arrays in the arrays of
    ``work`` (one made for ``block`` when not given; ``block`` has the
    workspace's columns).  The text is bytes-like: a bytearray translated
    straight from the workspace's slots for a full block, from a copy of
    the slots in use for a shorter one.

    Each finite cell in the gate gets e = floor(log10|v|) and the 9-digit
    mantissa m = rint(|v| * 10**(8-e)), with e moved by one where the
    product falls outside [1e8, 1e9) and a carry to 1e9 taken as 1e8 with
    e + 1.  Zeros are m = 0, e = 0 with the sign bit's sign.  The eight
    fraction digits go into the slot as two 4-digit words of a table.
    Cells near a rounding tie, NaN, infinities, subnormals and |v| outside
    the gate are formatted by :func:`format_sci` itself.
    """
    pow10, exp_text, words = _format_tables()
    if work is None:
        work = _CsvWork(*block.shape)
    v = block.ravel()
    n = len(v)
    a, s, m, e, at = work.a[:n], work.s[:n], work.m[:n], work.e[:n], work.at[:n]
    zero, gated, fast, carry = work.zero[:n], work.gated[:n], work.fast[:n], work.carry[:n]
    digits, lead, hi, lo = work.digits[:n], work.lead[:n], work.hi[:n], work.lo[:n]
    buf = work.slots[:n]
    # ``fast`` and ``carry`` hold scratch tests until their own turn; every
    # index taken is in range, and mode "clip" spares ``take`` a buffer
    np.abs(v, out=a)
    np.equal(a, 0.0, out=zero)
    np.greater(a, 1.0 / _GATE, out=gated)
    gated &= np.less(a, _GATE, out=fast)  # False for NaN
    # no log10 of 0, inf or NaN; e comes out 0 there
    np.copyto(a, 1.0, where=np.logical_not(gated, out=fast))
    np.copyto(e, np.floor(np.log10(a, out=s), out=s), casting="unsafe")
    np.multiply(a, pow10.take(np.subtract(8 - _EXP_MIN, e, out=at), out=s, mode="clip"), out=s)
    e += np.greater_equal(s, 1e9, out=fast)
    e -= np.less(s, 1e8, out=fast)
    np.multiply(a, pow10.take(np.subtract(8 - _EXP_MIN, e, out=at), out=s, mode="clip"), out=s)
    np.rint(s, out=m)
    # the range test trusts log10 to land within one decade, no further
    np.less(np.abs(np.subtract(s, m, out=s), out=s), 0.5 - _TIE_MARGIN, out=fast)
    fast &= gated
    fast &= np.greater_equal(m, 1e8, out=carry)
    fast &= np.less_equal(m, 1e9, out=carry)
    np.equal(m, 1e9, out=carry)
    np.copyto(m, 1e8, where=carry)
    e += carry
    np.copyto(m, 0.0, where=zero)

    np.multiply(np.signbit(v, out=carry).view(np.uint8), np.uint8(ord("-")), out=buf[:, 0])
    np.copyto(digits, m, casting="unsafe")
    # floor_divide by a scalar is libdivide's; intp indices spare ``take`` a cast
    np.floor_divide(digits, 100_000_000, out=lead)
    np.add(lead, ord("0"), out=buf[:, 1], casting="unsafe")
    lead *= 100_000_000
    digits -= lead
    np.floor_divide(digits, 10_000, out=hi)
    np.subtract(digits, np.multiply(hi, 10_000, out=lo), out=lo)
    # the fraction digits and the exponent text move as unaligned words
    np.copyto(buf[:, 3:7].view(np.uint32)[:, 0], words.take(hi, out=digits, mode="clip"))
    np.copyto(buf[:, 7:11].view(np.uint32)[:, 0], words.take(lo, out=digits, mode="clip"))
    exp_text.take(np.subtract(e, _EXP_MIN, out=at), out=digits, mode="clip")
    np.copyto(buf[:, 12:16].view(np.uint32)[:, 0], digits)
    fast |= zero
    slow = np.flatnonzero(np.logical_not(fast, out=fast))
    for i in slow:
        text = format_sci(float(v[i])).encode()
        buf[i, : _SLOT - 1] = np.frombuffer(text.ljust(_SLOT - 1, b"\0"), np.uint8)
    used = work.text if n == len(work.slots) else work.text[: n * _SLOT]
    out = used.translate(None, b"\0")
    # a fallback's text covered its slot's point and "e": put them back
    buf[slow, 2] = ord(".")
    buf[slow, 11] = ord("e")
    return out


def write_csv(wave: Waveform, path, probes: list[str] | None = None):
    """Waveform CSV: header row, first column time, LF line endings; cells
    are :func:`format_sci` text, byte for byte, formatted a block of rows
    at a time by a vectorized kernel in one workspace per CSV, so memory
    stays flat and no block allocates its own arrays."""
    names = probes if probes is not None else list(wave.columns)
    cols = [wave.times] + [wave.column(n) for n in names]
    work = _CsvWork(min(len(wave.times), CSV_BLOCK), len(cols))
    with open(path, "wb") as fh:
        fh.write((",".join([wave.time_label] + names) + "\n").encode())
        for k in range(0, len(wave.times), CSV_BLOCK):
            block = work.block[: min(CSV_BLOCK, len(wave.times) - k)]
            for j, col in enumerate(cols):
                block[:, j] = col[k : k + CSV_BLOCK]
            fh.write(_csv_block(block, work))


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
