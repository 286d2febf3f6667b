"""Modified nodal analysis: unknown allocation, element stamps and the
compiled stamp plan.

Unknowns are the non-ground node voltages followed by one branch current
per voltage source and one per conveyor (its X-terminal current).  All
terminal currents are measured INTO the device terminal; with that
convention a plus-polarity conveyor satisfies

    I_Y = 0,   V_X = V_Y + I_X * R_X,   I_Z = +I_X

and the single-conveyor amplifier (input at Y, R1 from X to ground, R2
from Z to ground) comes out non-inverting with gain R2 / (R1 + R_X).

:func:`compile` builds a circuit's unknown map and stamps its topology
once into a :class:`StampPlan`, the one handle the layers below it take.
Every plan is a stack: a compiled one holds one circuit, and
:func:`stack` joins the plans of K circuits of one layout into one plan
with the stack's map, so that one :func:`assemble` call builds all K
systems.  :func:`compile` is the one place a layout is built: given a
:func:`stack_shape`, it lays a circuit out as a member of a stack of
different circuits, padded to the stack's size, so that :func:`stack`
only joins.  :func:`assemble` turns a plan into one Newton iterate,
with all MOSFETs linearized by one vectorized :func:`mosfet_eval` call,
and its sources stamped from one column of the run's
:meth:`SourceTable.samples`, whose memo is the one place where equal
source specs are merged; a stack's source tables are joined as they
are, for the positions, and a run samples each plan's own.  A plan also
carries its conveyors' output clamps as per-unknown bounds, the one
place every solve path reads them from.

Matrices are dense; the circuits this simulator targets stay well under a
couple hundred unknowns.  A system under assembly is exclusively owned by
one simulation run.
"""

from __future__ import annotations

import numpy as np

from .devices import MosfetBank, SourceSpec, mosfet_eval, source_samples
from .netlist import (
    Capacitor,
    Conveyor,
    Element,
    FlatCircuit,
    ISource,
    Mosfet,
    Resistor,
    VSource,
)

GMIN_FLOOR = 1e-12  # permanent node-to-ground conductance; keeps floating nodes solvable


class UnknownMap:
    """Rows of the MNA system: node voltages then branch currents.

    Branch rows are assigned in sorted element-name order so the map (and
    therefore the assembled matrix) does not depend on element order.
    ``vsource_nodes`` maps each voltage source to its (p, n) nodes, which
    a :class:`~ccsim.transient.Waveform` keeps for supply power.
    """

    __slots__ = ("n_nodes", "branch_rows", "names", "vsource_nodes")

    def __init__(self, n_nodes: int, branch_rows: dict[str, int], names: list[str],
                 vsource_nodes: dict[str, tuple[str, str]]):
        self.n_nodes, self.branch_rows, self.names = n_nodes, branch_rows, names
        self.vsource_nodes = vsource_nodes

    @property
    def size(self) -> int:
        return self.n_nodes + len(self.branch_rows)

    def node_row(self, node_index: int) -> int:
        return node_index - 1  # ground has no row/column

    def branch_row(self, element_name: str) -> int:
        return self.branch_rows[element_name]


def index_unknowns(c: FlatCircuit) -> UnknownMap:
    """One voltage unknown per non-ground node, in ``c.nodes`` (index)
    order, then one branch current per voltage source and per conveyor;
    the voltage sources' nodes, in element order, go with them."""
    vsource_nodes = {e.name: (e.p, e.n) for e in c.elements if isinstance(e, VSource)}
    branch_elems = sorted(e.name for e in c.elements if isinstance(e, (VSource, Conveyor)))
    n = c.n_nodes
    rows = {name: n + i for i, name in enumerate(branch_elems)}
    names = [f"v({node})" for node in list(c.nodes)[1:]]
    names += [f"i({name})" for name in branch_elems]
    return UnknownMap(n, rows, names, vsource_nodes)


class MnaSystem:
    __slots__ = ("a", "b")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b


def _linear_stamp(e: Element, c: FlatCircuit, u: UnknownMap):
    """Matrix entries (row, col, value) and right-hand-side rows (row,
    sign) of a resistor, source or conveyor; ground is row -1.

    The conveyor contributes nothing to its Y row (zero input current),
    adds its branch current to the X and Z KCL rows (the Z entry scaled by
    the polarity), and adds the branch equation V_X - V_Y - R_X*I_X = 0.
    """
    def row(node: str) -> int:
        return u.node_row(c.nodes[node])

    if isinstance(e, Resistor):
        g = 1.0 / e.ohms
        i, j = row(e.a), row(e.b)
        return [(i, i, g), (j, j, g), (i, j, -g), (j, i, -g)], []
    if isinstance(e, VSource):
        p, n, br = row(e.p), row(e.n), u.branch_row(e.name)
        return [(p, br, 1.0), (n, br, -1.0), (br, p, 1.0), (br, n, -1.0)], [(br, 1.0)]
    if isinstance(e, ISource):
        # positive current flows from p through the source to n
        return [], [(row(e.p), -1.0), (row(e.n), 1.0)]
    if isinstance(e, Conveyor):
        y, x, z, br = row(e.y), row(e.x), row(e.z), u.branch_row(e.name)
        return [(x, br, 1.0), (z, br, float(e.polarity)), (br, x, 1.0), (br, y, -1.0), (br, br, -e.rx)], []
    raise TypeError(f"no linear stamp for {type(e).__name__}")


def companion_values(farads, method: str, dt: float, v_prev, i_prev):
    """Discrete-time equivalent (geq, ieq) of capacitors (scalars or arrays)
    for one step; zero for a "dc" step, whose capacitors are open."""
    if method == "dc":
        return np.zeros_like(v_prev), np.zeros_like(v_prev)
    if dt <= 0.0:
        raise ValueError("companion model requires dt > 0")
    if method == "be":
        geq = farads / dt
        return geq, geq * v_prev
    if method == "trap":
        geq = 2.0 * farads / dt
        return geq, geq * v_prev + i_prev
    raise ValueError(f"unknown integration method {method!r}")


class SourceTable:
    """The independent sources of a plan: entry j adds ``sign[j]`` times
    a sample of ``specs[j]`` at buffer position ``at[j]``, for the element
    named ``names[j]`` (an array, so ``names == name`` marks a source's
    entries).  :func:`compile` lists the entries in element order, each
    source's :func:`_linear_stamp` rows.  Specs are not merged here:
    :meth:`samples` samples each distinct one once, through the run's
    memo."""

    __slots__ = ("at", "sign", "specs", "names")

    def __init__(self, at: np.ndarray, sign: np.ndarray, specs: list[SourceSpec], names: np.ndarray):
        self.at, self.sign, self.specs, self.names = at, sign, specs, names

    def samples(self, times: np.ndarray, sampled: dict | None = None) -> np.ndarray:
        """Each entry's signed value at each of ``times``: an (entries,
        times) matrix, whose column k :func:`stamp_sources` stamps at
        ``times[k]``.  ``sampled`` is the memo, a dict from a spec's repr
        (which tells -0.0 from 0.0 where == does not) to its samples at
        these times; each distinct spec is sampled once per memo, so once
        per run when the run's tables share one, else once per call."""
        times = np.asarray(times, dtype=float)
        sampled = {} if sampled is None else sampled
        rows = []
        for s in self.specs:
            key = repr(s)
            row = sampled.get(key)
            if row is None:
                row = sampled[key] = source_samples(s, times)
            rows.append(row)
        return self.sign[:, None] * np.array(rows).reshape(len(self.specs), times.size)

    def values(self, t: float) -> np.ndarray:
        """Each entry's signed value at time ``t``: one column of :meth:`samples`."""
        return self.samples(np.array([t]))[:, 0]


class StampPlan:
    """A stack of K circuits of one layout, stamped once for the stack's
    unknown map ``u``; :func:`compile` makes a stack of one, laid out as
    its own circuit or as a member of a :func:`stack_shape`.

    A system is one flat buffer: the (n+1)x(n+1) matrix row by row, then
    n+1 right-hand-side entries.  Row and column n (index -1 too) stand
    for ground, so no stamp needs a ground test.  ``static`` holds one
    buffer per circuit, shape (K, buffer).  Every per-device array is
    flat, each device's K entries in a row: device d of circuit k is
    entry d*K + k of the capacitor and MOSFET values, of each terminal
    row of ``cap_ab`` and ``mos_dgs``, and of each group of positions in
    ``cap_at`` and ``mos_at``.  Positions, the source table's too, index
    the flattened (K, buffer) stack.  Terminal rows index the flattened
    (K, n) solution with one zero (ground) appended: circuit k's unknown
    i is k*n + i and ground is K*n.

    ``bounds[:, k, i]`` is the (lo, hi) that circuit k's unknown i is
    clamped to after each solve, ``np.minimum(np.maximum(x, lo), hi)``:
    a conveyor's ``vmin``/``vmax`` at its Z node, -inf and +inf at every
    unclamped unknown.
    """

    u: UnknownMap
    static: np.ndarray  # R, V and conveyor entries plus the gmin floor
    sources: SourceTable
    cap_ab: np.ndarray  # (2, capacitors) terminal rows
    farads: np.ndarray
    cap_at: np.ndarray
    mos_dgs: np.ndarray  # (3, MOSFETs) terminal rows
    mos: MosfetBank
    mos_at: np.ndarray
    bounds: np.ndarray  # (2, K, n): each unknown's clamp, lo then hi
    __slots__ = ("u", "static", "sources", "cap_ab", "farads", "cap_at", "mos_dgs", "mos", "mos_at", "bounds")

    def __init__(self, u, static, sources, cap_ab, farads, cap_at, mos_dgs, mos, mos_at, bounds):
        self.u, self.static, self.sources, self.cap_ab, self.farads = u, static, sources, cap_ab, farads
        self.cap_at, self.mos_dgs, self.mos, self.mos_at, self.bounds = cap_at, mos_dgs, mos, mos_at, bounds

    @property
    def linear(self) -> bool:
        return self.mos_dgs.shape[1] == 0

    def cap_voltages(self, x: np.ndarray) -> np.ndarray:
        va, vb = _with_ground(x)[self.cap_ab]
        return va - vb


_GROUND = np.zeros(1)
_UNBOUNDED = np.array([-np.inf, np.inf]).reshape(2, 1, 1)  # the bounds of an unclamped unknown


def _with_ground(x: np.ndarray) -> np.ndarray:
    """The solution, or a stack of them, flattened, with ground appended."""
    return np.concatenate((x.reshape(-1), _GROUND))


def compile(c: FlatCircuit, gmin_floor: float = GMIN_FLOOR,
            like: tuple[UnknownMap, int, int] | None = None) -> StampPlan:
    """Stamp the fixed part of ``c`` once: the static matrix, the source
    table, the capacitor and MOSFET index arrays and the bounds of a
    :class:`StampPlan`, the one place a stamp position, a terminal row or
    a bound is computed.  Conveyors that clamp one Z node compose in
    element order into one (lo, hi), as successive clips do.

    Without ``like`` the plan keeps ``c``'s :func:`index_unknowns` map.
    ``like`` is a :func:`stack_shape`, and the plan is then laid out as a
    member of that stack, with its map and its MOSFET and capacitor
    counts.  ``c``'s unknowns sit at ``padded_rows(u, n_nodes)``, node
    rows before branch rows.  A pad unknown has a unit diagonal and a
    zero right-hand side, so it solves to 0, and bounds -inf and +inf.
    Pad MOSFETs (beta 0) and capacitors (0 F) follow ``c``'s own and have
    every terminal on the spare ground row.  ``c``'s own entries are
    stamped in the same order in either layout, so they hold the same
    values."""
    u = index_unknowns(c)
    to = like[0] if like else u
    n = to.size
    m = n + 1
    rhs = m * m
    place = padded_rows(u, to.n_nodes) + [n]  # c's row -> the layout's; ground (-1) to ground
    static = np.zeros((1, rhs + m))
    matrix = static[0, :rhs].reshape(m, m)
    bounds = _UNBOUNDED.repeat(m, axis=2)  # the last column is ground's, dropped
    at, sign, specs, names, caps, mos = [], [], [], [], [], []  # at to names: the source entries
    for e in c.elements:
        if isinstance(e, Capacitor):
            caps.append(e)
        elif isinstance(e, Mosfet):
            mos.append(e)
        else:
            entries, rows = _linear_stamp(e, c, u)
            for i, j, v in entries:
                matrix[place[i], place[j]] += v
            at += [rhs + place[r] for r, _ in rows]
            sign += [row_sign for _, row_sign in rows]
            specs += [e.spec for _ in rows]
            names += [e.name for _ in rows]
        if isinstance(e, Conveyor) and (e.vmin, e.vmax) != (None, None):
            # clipping to [lo1, hi1] and then by f2 = clip(., lo2, hi2) is
            # the clip to [f2(lo1), f2(hi1)]
            z = bounds[:, 0, place[u.node_row(c.nodes[e.z])]]
            np.minimum(np.maximum(z, -np.inf if e.vmin is None else e.vmin, out=z),
                       np.inf if e.vmax is None else e.vmax, out=z)
    diagonal = static[0, :rhs : m + 1]
    diagonal[: u.n_nodes] += gmin_floor  # c's node voltages
    diagonal[u.n_nodes : to.n_nodes] = 1.0  # pad node rows
    diagonal[to.n_nodes + u.size - u.n_nodes : n] = 1.0  # pad branch rows, after c's
    _, n_mos, n_cap = like or (u, len(mos), len(caps))

    def terminals(elements, count, *ends):  # pads on ground
        idx = [[place[u.node_row(c.nodes[getattr(e, t)])] for e in elements] + [n] * (count - len(elements))
               for t in ends]
        return np.array(idx, dtype=np.intp).reshape(len(ends), count)

    a, b = cap_ab = terminals(caps, n_cap, "a", "b")
    d, g, s = mos_dgs = terminals(mos, n_mos, "d", "g", "s")
    sources = SourceTable(np.array(at, dtype=np.intp), np.array(sign, dtype=float), specs,
                          np.array(names, dtype=str))
    return StampPlan(
        to, static, sources, cap_ab, np.array([e.farads for e in caps] + [0.0] * (n_cap - len(caps))),
        # +geq, +geq and +ieq, then the same entries negated
        np.concatenate([a * m + a, b * m + b, rhs + a, a * m + b, b * m + a, rhs + b]),
        mos_dgs, MosfetBank.of([e.params for e in mos], n_mos),
        # row d: +gm, +gds, -(gm+gds) and -ieq; row s: the same negated
        np.concatenate([d * m + g, d * m + d, d * m + s, rhs + d, s * m + g, s * m + d, s * m + s, rhs + s]),
        bounds[:, :, :n],
    )


def padded_rows(u: UnknownMap, n_nodes: int) -> list[int]:
    """The rows of ``u``'s unknowns in a layout of ``n_nodes`` node rows
    (see :func:`compile`): its node rows, then its branch rows."""
    return [*range(u.n_nodes), *range(n_nodes, n_nodes + u.size - u.n_nodes)]


def stack_shape(plans: list[StampPlan]) -> tuple[UnknownMap, int, int]:
    """The layout of a stack of ``plans``, as :func:`compile` takes it
    (``like``): the stack's unknown map, and its MOSFET and capacitor
    counts, the largest of the plans'.  The map is the first plan's when
    the plans' unknown names agree.  Otherwise it has the largest node
    count and the largest branch count, names its rows by position
    (``#i``), and has no supply nodes."""
    maps = [p.u for p in plans]
    u = maps[0]
    if any(v.names != u.names for v in maps):
        n_nodes = max(v.n_nodes for v in maps)
        n = n_nodes + max(v.size - v.n_nodes for v in maps)
        u = UnknownMap(n_nodes, {f"#{i}": i for i in range(n_nodes, n)}, [f"#{i}" for i in range(n)], {})
    return u, max(p.mos_dgs.shape[1] for p in plans), max(p.farads.size for p in plans)


def fits(p: StampPlan, shape: tuple[UnknownMap, int, int]) -> bool:
    """Whether ``p`` is laid out as the :func:`stack_shape` ``shape``: its
    unknown names and its MOSFET and capacitor counts."""
    u, n_mos, n_cap = shape
    return p.u.names == u.names and p.mos_dgs.shape[1] == n_mos and p.farads.size == n_cap


def stack(plans: list[StampPlan]) -> StampPlan:
    """One plan for the K circuits of ``plans``, each circuit's buffer a
    row of the stack, with the first plan's map; the stack of one plan is
    that plan.  The plans share one layout (:func:`fits` their
    :func:`stack_shape`): the variants of one netlist (other element
    values) do, and so do plans that :func:`compile` laid out ``like``
    one shape.  Each plan's arrays are joined as they are, and its
    bounds along K.
    """
    if len(plans) == 1:
        return plans[0]
    shape = stack_shape(plans)
    if not all(fits(p, shape) for p in plans):
        raise ValueError("stacked plans differ in layout; compile them like their stack_shape")
    n_var, n, size = len(plans), plans[0].u.size, plans[0].static.size

    def values(arrays):  # entry d of plan k at d*K + k
        return np.array(arrays).T.ravel()

    def rows(name):  # unknown i of plan k at k*n + i, and ground at K*n
        r = np.stack([getattr(p, name) for p in plans], axis=-1)
        return np.where(r == n, n_var * n, r + np.arange(n_var) * n).reshape(len(r), -1)

    bank = (values([getattr(p.mos, f) for p in plans]) for f in ("sign", "vth", "beta", "lam"))
    tables = [p.sources for p in plans]  # a run samples each plan's own; the stack's only stamps
    sources = SourceTable(np.concatenate([k * size + t.at for k, t in enumerate(tables)]),
                          np.concatenate([t.sign for t in tables]), [s for t in tables for s in t.specs],
                          np.concatenate([t.names for t in tables]))
    # plan k's positions move to its row of the flattened stack
    cap_at, mos_at = ([k * size + getattr(p, f) for k, p in enumerate(plans)] for f in ("cap_at", "mos_at"))
    return StampPlan(
        plans[0].u, np.concatenate([p.static for p in plans]), sources,
        rows("cap_ab"), values([p.farads for p in plans]), values(cap_at),
        rows("mos_dgs"), MosfetBank(*bank), values(mos_at),
        np.concatenate([p.bounds for p in plans], axis=1),
    )


def stamp_sources(p: StampPlan, column: np.ndarray) -> np.ndarray:
    """A copy of the plan's static buffer with one column of its source
    table's :meth:`~SourceTable.samples` (each entry's signed value at one
    time) added, in source-table order."""
    buf = p.static.copy()
    np.add.at(buf.reshape(-1), p.sources.at, column)
    return buf


def unit_sources(p: StampPlan) -> np.ndarray:
    """Each source-table entry's right-hand side at unit value, one column
    per entry, over the unknowns of ``p``, a stack of one; an entry on
    ground is zero."""
    n = p.u.size
    return (np.arange(n)[:, None] == p.sources.at - (n + 1) ** 2).astype(float)


def assemble(
    plan: StampPlan,
    base: np.ndarray,
    x_est: np.ndarray | None = None,
    companions: tuple[np.ndarray, np.ndarray] | None = None,
    gmin_extra: float = 0.0,
) -> MnaSystem:
    """Build the full system of ``plan`` linearized around ``x_est``.

    ``base`` is the plan's buffer with one column of its sources stamped
    (:func:`stamp_sources`), or ``plan.static`` for none; it is copied,
    not changed.  ``companions`` is the (geq, ieq) pair of
    :func:`companion_values` arrays over the plan's flat capacitor
    values; without it capacitors are open circuits (the DC
    operating-point convention).
    ``gmin_extra`` adds a homotopy conductance on top of the permanent
    floor the plan was compiled with.

    ``x_est`` has one row per circuit of the stack, and the returned
    ``a`` and ``b`` a leading K axis.
    """
    n, m = plan.u.size, plan.u.size + 1
    buf = base.copy()
    flat = buf.reshape(-1)
    if companions is not None and plan.farads.size:
        geq, ieq = companions
        pos = np.concatenate([geq, geq, ieq])
        np.add.at(flat, plan.cap_at, np.concatenate([pos, -pos]))
    if not plan.linear:
        # id + gm*(vgs - vgs0) + gds*(vds - vds0): gm and gds go into the
        # matrix, the constant ieq = id - gm*vgs0 - gds*vds0 into b
        if x_est is None:
            vgs = vds = np.zeros(plan.mos_dgs.shape[1])
        else:
            vd, vg, vs = _with_ground(x_est)[plan.mos_dgs]
            vgs, vds = vg - vs, vd - vs
        i_d, gm, gds = mosfet_eval(vgs, vds, plan.mos)
        row_d = np.concatenate([gm, gds, -(gm + gds), -(i_d - gm * vgs - gds * vds)])
        np.add.at(flat, plan.mos_at, np.concatenate([row_d, -row_d]))
    if gmin_extra:
        buf[:, : plan.u.n_nodes * (m + 1) : m + 1] += gmin_extra  # the node-voltage diagonal
    a = buf[:, : m * m].reshape(-1, m, m)
    return MnaSystem(a[:, :n, :n], buf[:, m * m : m * m + n])
