"""Modified nodal analysis: unknown allocation, element stamps and the
compiled stamp plan.

Unknowns are the non-ground node voltages followed by one branch current
per voltage source and one per conveyor (its X-terminal current).  All
terminal currents are measured INTO the device terminal; with that
convention a plus-polarity conveyor satisfies

    I_Y = 0,   V_X = V_Y + I_X * R_X,   I_Z = +I_X

and the single-conveyor amplifier (input at Y, R1 from X to ground, R2
from Z to ground) comes out non-inverting with gain R2 / (R1 + R_X).

:func:`compile` stamps a topology once into a :class:`StampPlan`;
:func:`assemble` turns the plan into one Newton iterate, with all MOSFETs
linearized by one vectorized :func:`mosfet_eval` call.  :func:`stack`
joins the plans of K variants of one topology, so that one
:func:`assemble` call builds all K systems.

Matrices are dense; the circuits this simulator targets stay well under a
couple hundred unknowns.  A system under assembly is exclusively owned by
one simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .devices import MosfetBank, SourceSpec, mosfet_eval, source_value
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


@dataclass
class UnknownMap:
    """Rows of the MNA system: node voltages then branch currents.

    Branch rows are assigned in sorted element-name order so the map (and
    therefore the assembled matrix) does not depend on element order.
    """

    n_nodes: int
    branch_rows: dict[str, int]
    names: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.n_nodes + len(self.branch_rows)

    def node_row(self, node_index: int) -> int:
        return node_index - 1  # ground has no row/column

    def branch_row(self, element_name: str) -> int:
        return self.branch_rows[element_name]


def index_unknowns(c: FlatCircuit) -> UnknownMap:
    """One voltage unknown per non-ground node, one branch current per
    voltage source and per conveyor."""
    branch_elems = sorted(
        (e.name for e in c.elements if isinstance(e, (VSource, Conveyor))),
    )
    n = c.n_nodes
    rows = {name: n + i for i, name in enumerate(branch_elems)}
    names = [f"v({c.node_names[i]})" for i in range(1, n + 1)]
    names += [f"i({name})" for name in branch_elems]
    return UnknownMap(n, rows, names)


@dataclass
class MnaSystem:
    a: np.ndarray
    b: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "MnaSystem":
        return cls(np.zeros((n, n)), np.zeros(n))


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
        pol = float(e.params.polarity)
        return [(x, br, 1.0), (z, br, pol), (br, x, 1.0), (br, y, -1.0), (br, br, -e.params.rx)], []
    raise TypeError(f"stamp_linear cannot handle {type(e).__name__}")


def stamp_linear(e: Element, c: FlatCircuit, u: UnknownMap, sys: MnaSystem, t: float):
    """Stamp a resistor, source or conveyor into ``sys``, sources valued
    at time ``t``; entries in a ground row or column are dropped."""
    entries, rhs = _linear_stamp(e, c, u)
    for i, j, v in entries:
        if i >= 0 and j >= 0:
            sys.a[i, j] += v
    for r, sign in rhs:
        if r >= 0:
            sys.b[r] += sign * source_value(e.spec, t)


def companion_values(farads, method: str, dt: float, v_prev, i_prev):
    """Discrete-time equivalent (geq, ieq) of capacitors (scalars or arrays) for one step."""
    if dt <= 0.0:
        raise ValueError("companion model requires dt > 0")
    if method == "be":
        geq = farads / dt
        return geq, geq * v_prev
    if method == "trap":
        geq = 2.0 * farads / dt
        return geq, geq * v_prev + i_prev
    raise ValueError(f"unknown integration method {method!r}")


@dataclass
class SourceTable:
    """The independent sources of a plan: entry j adds
    ``sign[j] * value(specs[spec[j]], t)`` at buffer position ``at[j]``.
    Each distinct spec is listed, and so evaluated, once."""

    at: np.ndarray
    sign: np.ndarray
    spec: np.ndarray
    specs: list[SourceSpec]

    @classmethod
    def of(cls, entries: list[tuple[int, float, SourceSpec]]) -> "SourceTable":
        # keyed by repr, which tells -0.0 from 0.0 where == does not
        index = {}
        for _, _, spec in entries:
            index.setdefault(repr(spec), (len(index), spec))
        return cls(
            np.array([at for at, _, _ in entries], dtype=np.intp),
            np.array([sign for _, sign, _ in entries], dtype=float),
            np.array([index[repr(spec)][0] for _, _, spec in entries], dtype=np.intp),
            [spec for _, spec in index.values()],
        )

    def entries(self) -> list[tuple[int, float, SourceSpec]]:
        return [(int(a), float(s), self.specs[j]) for a, s, j in zip(self.at, self.sign, self.spec)]

    def values(self, t: float) -> np.ndarray:
        """Each entry's signed value at time ``t``."""
        return self.sign * np.array([source_value(s, t) for s in self.specs])[self.spec]


@dataclass
class StampPlan:
    """A topology stamped once.

    A system is one flat buffer: the (n+1)x(n+1) matrix row by row, then
    n+1 right-hand-side entries.  Row and column n (index -1 too) stand
    for ground, so no stamp needs a ground test.  ``cap_at``, ``mos_at``
    and the source table hold positions in the flattened buffer.

    A plan made by :func:`stack` holds K variants of one topology: its
    static buffer gains a leading K axis, its capacitor and MOSFET values
    a trailing one (so per-device arrays stack the way the solution's
    transpose does), and its positions index the flattened stack.
    """

    static: np.ndarray  # R, V and conveyor entries plus the gmin floor
    sources: SourceTable
    cap_ab: np.ndarray  # (2, capacitors) terminal rows
    farads: np.ndarray
    cap_at: np.ndarray
    mos_dgs: np.ndarray  # (3, MOSFETs) terminal rows
    mos: MosfetBank
    mos_at: np.ndarray
    # the ground voltage, appended to x.T as unknown n
    ground: np.ndarray = field(default_factory=lambda: np.zeros(1))

    @property
    def linear(self) -> bool:
        return self.mos_dgs.shape[1] == 0

    def cap_voltages(self, x: np.ndarray) -> np.ndarray:
        va, vb = np.concatenate((x.T, self.ground))[self.cap_ab]
        return va - vb


def compile(c: FlatCircuit, u: UnknownMap, gmin_floor: float = GMIN_FLOOR) -> StampPlan:
    """Stamp the fixed part of ``c`` once: the static matrix, the source
    table and the capacitor and MOSFET index arrays of a :class:`StampPlan`."""
    m = u.size + 1
    rhs = m * m
    static = np.zeros(rhs + m)
    matrix = static[:rhs].reshape(m, m)
    sources, caps, mos = [], [], []  # sources as (position, sign, spec)
    for e in c.elements:
        if isinstance(e, Capacitor):
            caps.append(e)
        elif isinstance(e, Mosfet):
            mos.append(e)
        else:
            entries, rows = _linear_stamp(e, c, u)
            for i, j, v in entries:
                matrix[i, j] += v
            sources += [(rhs + r % m, sign, e.spec) for r, sign in rows]
    static[: u.n_nodes * (m + 1) : m + 1] += gmin_floor  # the node-voltage diagonal

    def rows(elements, *terminals):
        idx = [[u.node_row(c.nodes[getattr(e, t)]) % m for e in elements] for t in terminals]
        return np.array(idx, dtype=np.intp).reshape(len(terminals), -1)

    a, b = cap_ab = rows(caps, "a", "b")
    d, g, s = mos_dgs = rows(mos, "d", "g", "s")
    return StampPlan(
        static, SourceTable.of(sources), cap_ab, np.array([e.farads for e in caps]),
        # +geq, +geq and +ieq, then the same entries negated
        np.concatenate([a * m + a, b * m + b, rhs + a, a * m + b, b * m + a, rhs + b]),
        mos_dgs, MosfetBank.of([e.params for e in mos]),
        # row d: +gm, +gds, -(gm+gds) and -ieq; row s: the same negated
        np.concatenate([d * m + g, d * m + d, d * m + s, rhs + d, s * m + g, s * m + d, s * m + s, rhs + s]),
    )


def stack(plans: list[StampPlan]) -> StampPlan:
    """One plan for K variants of one topology (the same circuit with
    other element values), each variant's buffer a row of the stack.

    Raises ValueError when the plans' index arrays differ.
    """
    first = plans[0]
    size = first.static.size
    for p in plans[1:]:
        same = [np.array_equal(getattr(p, name), getattr(first, name))
                for name in ("cap_ab", "cap_at", "mos_dgs", "mos_at")]
        same += [np.array_equal(p.sources.at, first.sources.at),
                 np.array_equal(p.sources.sign, first.sources.sign)]
        if not all(same):
            raise ValueError("stacked plans must share one topology")
    offset = np.arange(len(plans)) * size

    def values(arrays):
        return np.stack(arrays, axis=-1)

    bank = (values([getattr(p.mos, f) for p in plans]) for f in ("sign", "vth", "beta", "lam"))
    return StampPlan(
        np.stack([p.static for p in plans]),
        SourceTable.of([(k * size + at, sign, spec)
                        for k, p in enumerate(plans) for at, sign, spec in p.sources.entries()]),
        first.cap_ab, values([p.farads for p in plans]), first.cap_at[:, None] + offset,
        first.mos_dgs, MosfetBank(*bank), first.mos_at[:, None] + offset,
        np.zeros((1, len(plans))),
    )


def stamp_sources(p: StampPlan, t: float) -> np.ndarray:
    """A copy of the plan's static buffer with every source valued at
    time ``t`` added, in source-table order."""
    buf = p.static.copy()
    np.add.at(buf.reshape(-1), p.sources.at, p.sources.values(t))
    return buf


def assemble(
    c: FlatCircuit,
    u: UnknownMap,
    t: float,
    x_est: np.ndarray | None = None,
    companions: tuple[np.ndarray, np.ndarray] | None = None,
    gmin_extra: float = 0.0,
    gmin_floor: float = GMIN_FLOOR,
    plan: StampPlan | None = None,
    base: np.ndarray | None = None,
) -> MnaSystem:
    """Build the full system at time ``t`` linearized around ``x_est``.

    ``companions`` is the (geq, ieq) pair of :func:`companion_values`
    arrays over the plan's capacitors; without it capacitors are open
    circuits (the DC operating-point convention).  ``gmin_extra`` adds a
    homotopy conductance on top of the permanent floor.  ``plan`` is
    ``compile(c, u, gmin_floor)``, passed by repeated callers, and
    ``base`` is ``stamp_sources(plan, t)``, passed by callers that
    assemble at one ``t`` repeatedly.

    With a stacked plan (see :func:`stack`) ``x_est`` has one row per
    variant, the companion arrays one column per variant, and the
    returned ``a`` and ``b`` a leading K axis.
    """
    p = plan if plan is not None else compile(c, u, gmin_floor)
    n, m = u.size, u.size + 1
    buf = stamp_sources(p, t) if base is None else base.copy()
    flat = buf.reshape(-1)
    if companions is not None and p.farads.size:
        geq, ieq = companions
        pos = np.concatenate([geq, geq, ieq])
        np.add.at(flat, p.cap_at, np.concatenate([pos, -pos]))
    if not p.linear:
        # id + gm*(vgs - vgs0) + gds*(vds - vds0): gm and gds go into the
        # matrix, the constant ieq = id - gm*vgs0 - gds*vds0 into b
        if x_est is None:
            v = np.zeros((m,) + p.ground.shape[1:])
        else:
            v = np.concatenate((x_est.T, p.ground))
        vd, vg, vs = v[p.mos_dgs]
        vgs, vds = vg - vs, vd - vs
        i_d, gm, gds = mosfet_eval(vgs, vds, p.mos)
        row_d = np.concatenate([gm, gds, -(gm + gds), -(i_d - gm * vgs - gds * vds)])
        np.add.at(flat, p.mos_at, np.concatenate([row_d, -row_d]))
    if gmin_extra:
        buf[..., : u.n_nodes * (m + 1) : m + 1] += gmin_extra  # the node-voltage diagonal
    a = buf[..., : m * m].reshape(buf.shape[:-1] + (m, m))
    return MnaSystem(a[..., :n, :n], buf[..., m * m : m * m + n])
