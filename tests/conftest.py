"""Shared circuit builders, the conveyor port-equation checker and the
exact references for KCL, the compiled static matrix and its rank."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from ccsim import mna
from ccsim.devices import mosfet_eval, source_samples
from ccsim.library import AmplifierConfig, BehavioralConveyor, emit_example
from ccsim.netlist import (
    Capacitor,
    Conveyor,
    ISource,
    Mosfet,
    Resistor,
    VSource,
    parse_and_flatten,
)
from ccsim.transient import run_transient


def behavioral_amp_netlist(r1=1e3, r2=100e3, rx=0.0, amplitude=0.05, freq=1e3, **kw):
    cfg = AmplifierConfig(
        r1=r1,
        r2=r2,
        conveyor=BehavioralConveyor(rx=rx, **kw),
    )
    return emit_example("proposed_amp", cfg)


def behavioral_amp(r1=1e3, r2=100e3, rx=0.0, **kw):
    return parse_and_flatten(behavioral_amp_netlist(r1=r1, r2=r2, rx=rx, **kw))


def run_amp(r1=1e3, r2=100e3, rx=0.0, dt=1e-6, periods=5, freq=1e3, **kw):
    c = behavioral_amp(r1=r1, r2=r2, rx=rx, **kw)
    return c, run_transient(c, dt, periods / freq, "trap")


def conveyor_port_residuals(c, wave):
    """Worst-case conveyor port-equation residuals over a whole waveform.

    Reconstructs, from the recorded unknowns alone, the current every
    non-conveyor element pours into each node; what is left for a conveyor
    terminal to absorb is its measured port current.  Returns, per
    conveyor, (max |I_Y|, max |I_Z - polarity*I_X|, max |V_X - V_Y - rx*I_X|).
    """
    times = wave.times

    def vcol(node):
        return wave.column(f"v({node})")

    # inflow from everything except conveyors (gmin floor included)
    inflow = {
        node: -mna.GMIN_FLOOR * vcol(node) for node in c.nodes if node != "0"
    }

    def add(node, cur):
        if node != "0":
            inflow[node] = inflow[node] + cur

    conveyors = [e for e in c.elements if isinstance(e, Conveyor)]
    for e in c.elements:
        if isinstance(e, Resistor):
            i_ab = (vcol(e.a) - vcol(e.b)) / e.ohms
            add(e.a, -i_ab)
            add(e.b, i_ab)
        elif isinstance(e, Capacitor):
            raise AssertionError("port checker expects capacitor-free circuits")
        elif isinstance(e, VSource):
            i = wave.column(f"i({e.name})")
            add(e.p, -i)
            add(e.n, i)
        elif isinstance(e, ISource):
            val = source_samples(e.spec, times)
            add(e.p, -val)
            add(e.n, val)

    def conveyor_into(m, node):
        cur = np.zeros_like(times)
        ix = wave.column(f"i({m.name})")
        if m.x == node:
            cur = cur - ix
        if m.z == node:
            cur = cur - m.polarity * ix
        return cur

    out = {}
    for k in conveyors:
        others_y = inflow.get(k.y, np.zeros_like(times)).copy()
        others_z = inflow.get(k.z, np.zeros_like(times)).copy()
        for m in conveyors:
            if m is not k:
                others_y += conveyor_into(m, k.y)
                others_z += conveyor_into(m, k.z)
        ix = wave.column(f"i({k.name})")
        iy = others_y if k.y != "0" else np.zeros_like(times)
        iz = others_z if k.z != "0" else None
        assert iz is not None, "library conveyors never ground Z"
        vy = vcol(k.y) if k.y != "0" else np.zeros_like(times)
        branch = vcol(k.x) - vy - k.rx * ix
        out[k.name] = (
            float(np.max(np.abs(iy))),
            float(np.max(np.abs(iz - k.polarity * ix))),
            float(np.max(np.abs(branch))),
        )
    return out


def assembled(c, t=0.0, x_est=None, companions=None, gmin_floor=mna.GMIN_FLOOR, gmin_extra=0.0, plan=None):
    """:func:`mna.assemble` of ``c`` at time ``t``: compiled with
    ``gmin_floor`` unless ``plan`` is given, and its sources stamped at
    ``t``.  A stack of one gives the circuit's own ``a`` and ``b``, a
    larger stack the stacked system."""
    plan = plan or mna.compile(c, gmin_floor)
    base = mna.stamp_sources(plan, plan.sources.values(t))
    sys = mna.assemble(plan, base, x_est, companions, gmin_extra)
    return mna.MnaSystem(sys.a[0], sys.b[0]) if len(sys.a) == 1 else sys


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def node_kcl_residuals(c, wave):
    """Net current out of every non-ground node at every recorded sample,
    rebuilt from the element laws and the recorded unknowns alone.

    Returns ``(net, scale)``: per node, the summed current the elements
    draw from the node, and the summed magnitude of the terms that make
    up those currents (``G*va`` and ``G*vb`` apart for a two-terminal
    element), so a check can be relative to the round-off a solve leaves
    there.  Capacitor currents follow
    the discrete law of the run: zero at the operating point, backward
    Euler on the first step and for ``be`` runs, trapezoidal after that.
    A MOSFET draws its drain current from the drain node.
    """
    times = wave.times
    zero = np.zeros_like(times)

    def vcol(node):
        return wave.column(f"v({node})")

    net = {node: zero.copy() for node in c.nodes if node != "0"}
    scale = {node: zero.copy() for node in c.nodes if node != "0"}

    def flow(node, cur, mag=None):
        if node != "0":
            net[node] += cur
            scale[node] += np.abs(cur) if mag is None else mag

    for node in net:
        flow(node, mna.GMIN_FLOOR * vcol(node))
    for e in c.elements:
        if isinstance(e, Resistor):
            va, vb = vcol(e.a), vcol(e.b)
            i_ab = (va - vb) / e.ohms
            mag = (np.abs(va) + np.abs(vb)) / e.ohms
            flow(e.a, i_ab, mag)
            flow(e.b, -i_ab, mag)
        elif isinstance(e, VSource):
            i = wave.column(f"i({e.name})")
            flow(e.p, i)
            flow(e.n, -i)
        elif isinstance(e, ISource):
            val = source_samples(e.spec, times)
            flow(e.p, val)
            flow(e.n, -val)
        elif isinstance(e, Conveyor):
            ix = wave.column(f"i({e.name})")
            flow(e.x, ix)
            flow(e.z, e.polarity * ix)
        elif isinstance(e, Mosfet):
            vs = vcol(e.s)
            i_d = mosfet_eval(vcol(e.g) - vs, vcol(e.d) - vs, e.params)[0]  # into the drain
            flow(e.d, i_d)
            flow(e.s, -i_d)
        elif isinstance(e, Capacitor):
            v = vcol(e.a) - vcol(e.b)
            size = np.abs(vcol(e.a)) + np.abs(vcol(e.b))
            i = zero.copy()
            mag = zero.copy()
            for k in range(1, len(times)):
                trap = wave.method == "trap" and k > 1
                geq = (2.0 if trap else 1.0) * e.farads / (times[k] - times[k - 1])
                hist = i[k - 1] if trap else 0.0
                i[k] = geq * (v[k] - v[k - 1]) - hist
                mag[k] = geq * (size[k] + size[k - 1]) + abs(hist)
            flow(e.a, i, mag)
            flow(e.b, -i, mag)
        else:
            raise AssertionError(f"KCL oracle has no law for {type(e).__name__}")
    return net, scale


def exact_mna(c, u, gmin):
    """The static MNA system of a capacitor- and MOSFET-free circuit,
    stamped in exact rationals from the element laws as
    :func:`node_kcl_residuals` reads them, without :func:`mna.compile`.

    A node's row is its KCL: the current each element draws from the
    node, on the left, equals what its sources force in, on the right;
    ``gmin`` draws ``gmin * v`` from every node.  A voltage source's
    row is ``v(p) - v(n)`` = its value, and a conveyor's is
    ``v(x) - v(y) - rx * i(x)`` = 0, its branch current drawn from X and,
    times its polarity, from Z.  Returns ``(terms, sources)``: the
    (n, n) nested list of each matrix entry's exact terms, in element
    order, and each source's right-hand-side entries in element order,
    as ``(row, sign, spec)`` with ground as row ``None``.
    """
    n = u.size
    terms = [[[] for _ in range(n)] for _ in range(n)]
    sources = []

    def row(node):
        return None if node == "0" else u.node_row(c.nodes[node])

    def add(r, col, coef):  # row r's equation holds coef times unknown col
        if r is not None and col is not None:
            terms[r][col].append(Fraction(coef))

    for node in list(c.nodes)[1:]:
        add(row(node), row(node), gmin)
    for e in c.elements:
        if isinstance(e, Resistor):
            g = 1 / Fraction(e.ohms)
            for a, b in ((e.a, e.b), (e.b, e.a)):
                add(row(a), row(a), g)
                add(row(a), row(b), -g)
        elif isinstance(e, VSource):
            br = u.branch_row(e.name)
            for node, sign in ((e.p, 1), (e.n, -1)):
                add(row(node), br, sign)  # i(v) drawn from p, returned to n
                add(br, row(node), sign)
            sources.append((br, 1.0, e.spec))
        elif isinstance(e, ISource):
            sources += [(row(e.p), -1.0, e.spec), (row(e.n), 1.0, e.spec)]
        elif isinstance(e, Conveyor):
            br = u.branch_row(e.name)
            add(row(e.x), br, 1)
            add(row(e.z), br, e.polarity)
            add(br, row(e.x), 1)
            add(br, row(e.y), -1)
            add(br, br, -e.rx)
        else:
            raise AssertionError(f"exact MNA has no law for {type(e).__name__}")
    return terms, sources


def exact_rank(c, gmin):
    """Rank of the static MNA matrix of :func:`exact_mna` (``c``'s own
    unknown map, floor ``gmin``), by Gaussian elimination in
    ``Fraction``: a circuit is singular without its floor exactly when
    ``exact_rank(c, 0)`` is short of its unknown count."""
    terms, _ = exact_mna(c, mna.index_unknowns(c), gmin)
    rows = [[sum(t, Fraction(0)) for t in row] for row in terms]
    rank = 0
    for col in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# A circuit with no solution without the gmin floor: with rx = 0, v(n3)
# equals v(n2), so r3 carries nothing, and i1's 1 mA into n3 can only
# leave through the floor.  Its operating point is a known wrong answer,
# about 1e9 V at n3, that the engine accepts.
FLOOR_HELD = """floor-held node
v1 n1 0 SIN(0.1 0.5 1k)
r2 n2 n1 1k
r3 n3 n2 100
r4 n4 0 1k
r5 n5 n4 1k
i1 0 n3 DC 1m
u1 n3 n2 n5 cccii- rx=0
.op
.end
"""


@st.composite
def memoryless_or_rc_netlists(draw, with_cap):
    """Random unclamped R/V/I/conveyor netlists, optionally with one
    capacitor.  Each node has a resistor to ground or to an earlier node
    and the conveyor's X terminal is not the voltage-driven node, but the
    conveyor can cancel a node's KCL terms (say ``r3 n3 n2`` with
    ``u1 n1 n2 n3 ccii- rx=0``, whose Z current cancels r3's at n3),
    leaving only the gmin floor to set it: such draws have MNA condition
    numbers above 1e8, and their solutions are only as exact as that
    conditioning allows."""
    ohms = st.floats(100.0, 1e5)
    millis = st.integers(-1000, 1000).map(lambda k: k / 1000)  # no subnormal drives
    n = draw(st.integers(3, 5))
    nodes = [f"n{k}" for k in range(1, n + 1)]
    off, amp = draw(millis) / 2, abs(draw(millis))
    lines = ["kcl oracle", f"v1 n1 0 SIN({off!r} {amp!r} 1000.0)"]
    for k in range(2, n + 1):
        to = draw(st.sampled_from(["0"] + nodes[: k - 1]))
        lines.append(f"r{k} n{k} {to} {draw(ohms)!r}")
    pairs = st.lists(st.sampled_from(["0"] + nodes), min_size=2, max_size=2, unique=True)
    for j in range(draw(st.integers(0, 3))):
        a, b = draw(pairs)
        lines.append(f"rx{j} {a} {b} {draw(ohms)!r}")
    if draw(st.booleans()):
        a, b = draw(pairs)
        lines.append(f"i1 {a} {b} DC {draw(millis) * 1e-3!r}")
    x = draw(st.sampled_from(nodes[1:]))
    y, z = draw(st.permutations([m for m in nodes if m != x]))[:2]
    kind = draw(st.sampled_from(["cccii+", "cccii-", "ccii+", "ccii-"]))
    lines.append(f"u1 {y} {x} {z} {kind} rx={draw(st.floats(0.0, 2000.0))!r}")
    if with_cap:
        a, b = draw(pairs)
        lines.append(f"c1 {a} {b} {draw(st.floats(1e-9, 1e-6))!r}")
    return "\n".join(lines + [".end", ""])
