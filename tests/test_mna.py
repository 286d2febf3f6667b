from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsim import mna
from ccsim.library import AmplifierConfig, TranslinearConveyor, emit_example
from ccsim.mna import assemble, companion_values, index_unknowns
from ccsim.netlist import (
    Capacitor,
    Conveyor,
    FlatCircuit,
    Mosfet,
    Resistor,
    VSource,
    parse_and_flatten,
)
from ccsim.solver import solve_linear

from conftest import FLOOR_HELD, assembled, behavioral_amp, exact_mna, exact_rank, memoryless_or_rc_netlists


def circuit_of(elements, directives=()):
    nodes = {"0": 0}
    for e in elements:
        # an element's terminals are its str fields after its name
        for n in (getattr(e, f) for f in e._fields[1:]):
            if isinstance(n, str):
                nodes.setdefault(n, len(nodes))
    return FlatCircuit(nodes, list(elements), tuple(directives))


def test_index_unknowns_counts():
    from ccsim.devices import Dc

    c = circuit_of([VSource("v1", "a", "0", Dc(1.0)), Resistor("r1", "a", "0", 1e3)])
    u = index_unknowns(c)
    assert u.size == 2  # one node + one branch

    amp = behavioral_amp()
    u = index_unknowns(amp)
    assert u.size == 5  # in, x, out + i(vin) + i(u1)
    assert set(u.names) == {"v(in)", "v(x)", "v(out)", "i(u1)", "i(vin)"}


def test_resistor_stamp_pattern():
    c = circuit_of([Resistor("r1", "a", "b", 1e3), Resistor("rg", "b", "0", 1.0)])
    u = index_unknowns(c)
    sys = assembled(c, 0.0, gmin_floor=0.0)
    a_row, b_row = u.node_row(c.nodes["a"]), u.node_row(c.nodes["b"])
    g = 1e-3
    assert sys.a[a_row, a_row] == pytest.approx(g)
    assert sys.a[b_row, b_row] == pytest.approx(g + 1.0)  # rg to ground adds only here
    assert sys.a[a_row, b_row] == pytest.approx(-g)
    assert sys.a[b_row, a_row] == pytest.approx(-g)


def hand_amp(rx):
    from ccsim.devices import Dc

    return circuit_of(
        [
            VSource("vin", "in", "0", Dc(0.1)),
            Conveyor("u1", "in", "x", "out", 1, rx),
            Resistor("r1", "x", "0", 1e3),
            Resistor("r2", "out", "0", 1e5),
        ]
    )


def test_conveyor_hand_solved_system():
    # hand elimination of the 5x5: V_X = 0.1 V, i_x = -1e-4 A, V_out = +10 V
    c = hand_amp(rx=0.0)
    u = index_unknowns(c)
    sys = assembled(c, 0.0, gmin_floor=0.0)
    x = solve_linear(sys.a, sys.b, u.names)
    sol = dict(zip(u.names, x))
    assert sol["v(x)"] == pytest.approx(0.1, rel=1e-12)
    assert sol["i(u1)"] == pytest.approx(-1e-4, rel=1e-12)
    assert sol["v(out)"] == pytest.approx(10.0, rel=1e-12)


def test_conveyor_loaded_solution():
    c = hand_amp(rx=1581.0)
    u = index_unknowns(c)
    sys = assembled(c, 0.0, gmin_floor=0.0)
    x = solve_linear(sys.a, sys.b, u.names)
    v_out = x[u.node_row(c.nodes["out"])]
    assert v_out == pytest.approx(0.1 * 1e5 / (1e3 + 1581.0), rel=1e-9)
    assert v_out == pytest.approx(3.874, abs=5e-4)


def test_minus_polarity_inverts_output():
    from ccsim.devices import Dc

    c = circuit_of(
        [
            VSource("vin", "in", "0", Dc(0.1)),
            Conveyor("u1", "in", "x", "out", -1, 0.0),
            Resistor("r1", "x", "0", 1e3),
            Resistor("r2", "out", "0", 1e5),
        ]
    )
    u = index_unknowns(c)
    sys = assembled(c, 0.0, gmin_floor=0.0)
    x = solve_linear(sys.a, sys.b, u.names)
    assert x[u.node_row(c.nodes["out"])] == pytest.approx(-10.0, rel=1e-12)


def test_floating_subnetwork_rows_sum_to_zero():
    # resistors among non-ground nodes only: every KCL row sums to zero
    c = circuit_of(
        [
            Resistor("r1", "a", "b", 1e3),
            Resistor("r2", "b", "c", 2e3),
            Resistor("r3", "c", "a", 3e3),
            Resistor("rg", "d", "0", 1.0),  # ground elsewhere, keeps validation happy
        ]
    )
    u = index_unknowns(c)
    sys = assembled(c, 0.0, gmin_floor=0.0)
    rows = [u.node_row(c.nodes[n]) for n in "abc"]
    row_sums = sys.a[rows].sum(axis=1)
    assert np.allclose(row_sums, 0.0, atol=1e-18)


def test_stamp_order_invariance():
    c1 = hand_amp(rx=100.0)
    shuffled = circuit_of(list(reversed(c1.elements)))
    # same node map required for a meaningful comparison
    shuffled.nodes = c1.nodes
    u1, u2 = index_unknowns(c1), index_unknowns(shuffled)
    assert u1.branch_rows == u2.branch_rows
    s1 = assembled(c1, 0.0)
    s2 = assembled(shuffled, 0.0)
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.b, s2.b)


def test_companion_values():
    geq_be, ieq_be = companion_values(1e-6, "be", 1e-6, 0.25, 0.5)
    assert geq_be == pytest.approx(1.0)
    assert ieq_be == pytest.approx(0.25)
    geq_tr, ieq_tr = companion_values(1e-6, "trap", 1e-6, 0.25, 0.5)
    assert geq_tr == pytest.approx(2.0)
    assert ieq_tr == pytest.approx(1.0)
    with pytest.raises(ValueError):
        companion_values(1e-6, "be", 0.0, 0.0, 0.0)


def test_dc_treats_capacitor_open():
    from ccsim.devices import Dc

    c = circuit_of(
        [
            VSource("v1", "a", "0", Dc(1.0)),
            Resistor("r1", "a", "b", 1e3),
            Capacitor("c1", "b", "0", 1e-6),
        ]
    )
    u = index_unknowns(c)
    sys = assembled(c, 0.0)  # no cap_state: open circuit
    x = solve_linear(sys.a, sys.b, u.names)
    # no DC path from b except the gmin floor: node follows a
    assert x[u.node_row(c.nodes["b"])] == pytest.approx(1.0, rel=1e-6)


def test_mosfet_stamp_cutoff_is_empty():
    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nM1 d g 0 0 nm\nV1 d 0 DC 1\nR1 g 0 1k\n.end\n"
    )
    u = index_unknowns(c)
    sys_all = assembled(c, 0.0, x_est=np.zeros(u.size), gmin_floor=0.0)
    lin = FlatCircuit(c.nodes, [e for e in c.elements if not isinstance(e, Mosfet)], ())
    sys_lin = assembled(lin, 0.0, gmin_floor=0.0)
    assert np.array_equal(sys_all.a, sys_lin.a)
    assert np.array_equal(sys_all.b, sys_lin.b)


def test_two_mosfets_superpose():
    text = (
        "t\n.model nm nmos vth=0.4 beta=2e-4\n"
        "M1 d g 0 0 nm\nM2 d g 0 0 nm\nV1 d 0 DC 1\nV2 g 0 DC 1\n.end\n"
    )
    c = parse_and_flatten(text)
    u = index_unknowns(c)
    x_est = np.zeros(u.size)
    x_est[u.node_row(c.nodes["d"])] = 1.0
    x_est[u.node_row(c.nodes["g"])] = 1.0
    both = assembled(c, 0.0, x_est=x_est, gmin_floor=0.0)
    single = FlatCircuit(c.nodes, [c.elements[0]] + list(c.elements[2:]), ())
    one = assembled(single, 0.0, x_est=x_est, gmin_floor=0.0)
    lin_only = FlatCircuit(c.nodes, list(c.elements[2:]), ())
    none = assembled(lin_only, 0.0, gmin_floor=0.0)
    assert np.allclose(both.a - none.a, 2 * (one.a - none.a))
    assert np.allclose(both.b - none.b, 2 * (one.b - none.b))


def test_port_equations_hold_at_dc():
    import numpy as np
    from ccsim.solver import newton_dc
    from ccsim.transient import Waveform

    from conftest import conveyor_port_residuals

    for rx in (0.0, 1581.0):
        c = behavioral_amp(rx=rx)
        u = index_unknowns(c)
        plan = mna.compile(c)
        op = newton_dc(plan, column=plan.sources.values(0.25e-3))  # quarter period, peak drive
        wave = Waveform(
            np.zeros(1),
            {name: np.array([op.x[i]]) for i, name in enumerate(u.names)},
            1.0,
            "dc",
            {e.name: (e.p, e.n) for e in c.elements if isinstance(e, VSource)},
        )
        # the point check wants sources evaluated at the solve time
        wave.times = np.array([0.25e-3])
        (iy, iz, veq), = conveyor_port_residuals(c, wave).values()
        assert iy < 1e-10
        assert iz < 1e-10
        assert veq < 1e-9


def test_gmin_floor_applied_to_every_node():
    c = hand_amp(rx=0.0)
    u = index_unknowns(c)
    with_floor = assembled(c, 0.0, gmin_floor=1e-9)
    without = assembled(c, 0.0, gmin_floor=0.0)
    d = with_floor.a - without.a
    assert np.allclose(np.diag(d)[: u.n_nodes], 1e-9)
    assert np.count_nonzero(d) == u.n_nodes


RAGGED_RC = """rc with a conveyor
v1 a 0 SIN(0 1 1k)
r1 a b 1k
c1 b 0 1n
c2 b d 2n
u1 b x d ccii- rx=10
r2 x 0 2k
r3 d 0 1k
.end
"""


def test_stack_assembles_each_variant_as_alone():
    from ccsim.library import AmplifierConfig, TranslinearConveyor, emit_example
    from ccsim.netlist import expand_hierarchy, parse_netlist

    ast = parse_netlist(emit_example("proposed_amp_translinear"))
    variants = [expand_hierarchy(ast, {"ibval": v}) for v in (20e-6, 80e-6)]
    ferri = emit_example("ferri_2cc", AmplifierConfig(conveyor=TranslinearConveyor()))
    # two topologies: the RC circuit has fewer unknowns and MOSFETs, the
    # amplifier fewer capacitors, so both are padded
    ragged = [parse_and_flatten(RAGGED_RC), parse_and_flatten(ferri)]
    rng = np.random.default_rng(5)
    for circuits in (variants, ragged):
        plans = [mna.compile(c) for c in circuits]
        maps = [p.u for p in plans]
        plan = mna.stack([mna.compile(c, like=mna.stack_shape(plans)) for c in circuits])
        u = plan.u
        assert (u is maps[0]) == (circuits is variants)  # a ragged stack names rows by position
        x = rng.normal(size=(2, u.size))
        geq, ieq = rng.normal(size=(2, plan.farads.size))  # member k's capacitor d at d*2 + k
        both = assembled(None, 3e-4, x, (geq, ieq), gmin_extra=1e-6, plan=plan)
        for k, (c, m) in enumerate(zip(circuits, maps)):
            rows = mna.padded_rows(m, u.n_nodes)
            own = plans[k].farads.size
            alone = assembled(c, 3e-4, x[k, rows], (geq[k::2][:own], ieq[k::2][:own]),
                             gmin_extra=1e-6, plan=plans[k])
            pad = np.setdiff1d(np.arange(u.size), rows)
            a = np.zeros((u.size, u.size))
            a[np.ix_(rows, rows)] = alone.a
            a[pad, pad] = 1.0 + 1e-6 * (pad < u.n_nodes)  # gmin_extra loads every node row
            b = np.zeros(u.size)
            b[rows] = alone.b
            assert np.array_equal(both.a[k], a) and np.array_equal(both.b[k], b)


def test_every_plan_is_a_stack_with_one_flat_layout():
    ferri = emit_example("ferri_2cc", AmplifierConfig(conveyor=TranslinearConveyor()))
    clamped = RAGGED_RC.replace("rx=10", "rx=10 vmin=-0.2 vmax=0.3")
    circuits = [parse_and_flatten(clamped), parse_and_flatten(ferri)]
    plans = [mna.compile(c) for c in circuits]
    for p in plans:
        assert mna.stack([p]) is p and p.static.shape[0] == 1 and p.bounds.shape == (2, 1, p.u.size)
    lo, hi = plans[0].bounds[:, 0]
    d = plans[0].u.names.index("v(d)")
    assert (lo[d], hi[d]) == (-0.2, 0.3) and np.isfinite(plans[0].bounds).sum() == 2
    assert not np.isfinite(plans[1].bounds).any()
    plan = mna.stack([mna.compile(c, like=mna.stack_shape(plans)) for c in circuits])
    n_var, n = len(plans), plan.u.size
    ground = n_var * n
    assert plan.bounds.shape == (2, n_var, n) and plans[0].u.size < n  # the RC circuit is padded
    for k, p in enumerate(plans):
        # member k's bounds sit at its padded rows; pad unknowns are unclamped
        own = np.array(mna.padded_rows(p.u, plan.u.n_nodes))
        assert np.array_equal(plan.bounds[:, k, own], p.bounds[:, 0])
        pad = np.setdiff1d(np.arange(n), own)
        assert (plan.bounds[:, k, pad] == [[-np.inf], [np.inf]]).all()
        # the stack's flat arrays hold member k's device d at d*K + k:
        # its own devices first, then pads with every terminal on ground
        rows = np.append(own + k * n, ground)
        for values, own, fill in ((plan.farads, p.farads, 0.0), (plan.mos.sign, p.mos.sign, 1.0),
                                  (plan.mos.vth, p.mos.vth, 0.0), (plan.mos.beta, p.mos.beta, 0.0),
                                  (plan.mos.lam, p.mos.lam, 0.0)):
            mine = values[k::n_var]
            assert np.array_equal(mine[: own.size], own) and (mine[own.size :] == fill).all()
        for terminals, own in ((plan.cap_ab, p.cap_ab), (plan.mos_dgs, p.mos_dgs)):
            mine = terminals[:, k::n_var]
            assert np.array_equal(mine[:, : own.shape[1]], rows[own])
            assert (mine[:, own.shape[1] :] == ground).all()
    assert plan.farads.size == n_var * max(p.farads.size for p in plans)
    assert plan.mos_dgs.shape == (3, n_var * max(p.mos_dgs.shape[1] for p in plans))


def test_stack_only_joins_plans_of_one_layout():
    # stack pads nothing: members of different sizes are laid out by compile
    ferri = emit_example("ferri_2cc", AmplifierConfig(conveyor=TranslinearConveyor()))
    plans = [mna.compile(parse_and_flatten(text)) for text in (RAGGED_RC, ferri)]
    with pytest.raises(ValueError, match="differ in layout"):
        mna.stack(plans)


def test_stamp_sources_adds_in_table_order():
    from ccsim.devices import source_value

    # three sources into node a, one of them twice over, and -0.0 kept apart from 0.0
    c = parse_and_flatten(
        "t\nv1 a 0 SIN(0.1 0.3 1k)\ni1 a b SIN(1e-3 3e-3 2k)\ni2 a 0 DC 0\ni3 a 0 DC -0\n"
        "i4 0 a PULSE(0 7e-4 1e-4 1e-5 1e-5 2e-4 5e-4)\nr1 a b 1k\nr2 b 0 3k\n.end\n"
    )
    plan = mna.compile(c)
    sampled = {}
    plan.sources.samples(np.array([0.0]), sampled)
    assert len(sampled) == 5  # the memo samples each distinct spec once
    for t in (0.0, 1.23e-4, 3.7e-4):
        loop = plan.static[0].copy()
        for at, sign, spec in zip(plan.sources.at, plan.sources.sign, plan.sources.specs):
            loop[at] += sign * source_value(spec, t)
        assert np.array_equal(mna.stamp_sources(plan, plan.sources.values(t))[0], loop)


TRANSLINEAR_NETLISTS = [
    parse_and_flatten(emit_example(name, cfg)) for name, cfg in (
        ("proposed_amp_translinear", None),
        ("proposed_amp_translinear", AmplifierConfig(conveyor=TranslinearConveyor(family="ccii"))),
        ("ferri_2cc", AmplifierConfig(conveyor=TranslinearConveyor())),
        ("cccii_char", None),
    )
]


@given(members=st.lists(st.integers(0, len(TRANSLINEAR_NETLISTS) - 1), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_assembled_matrix_is_the_residual_jacobian(members, seed):
    # linearized at x, the Newton residual F(x) = A(x)x - b(x) is the KCL
    # and branch residual with each MOSFET's own drain current, so the
    # assembled A(x) is its Jacobian: column j against a centred
    # difference, for each circuit alone and in a padded stack
    circuits = [TRANSLINEAR_NETLISTS[k] for k in members]
    plans = [mna.compile(c) for c in circuits]
    plan = mna.stack([mna.compile(c, like=mna.stack_shape(plans)) for c in circuits])
    u = plan.u
    base = mna.stamp_sources(plan, plan.sources.values(0.0))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, (len(circuits), u.size))
    x[:, u.n_nodes:] *= 1e-3  # branch currents

    def residual(x):
        sys = assemble(plan, base, x)
        return (sys.a @ x[..., None])[..., 0] - sys.b, sys.a

    a = residual(x)[1]
    h = 1e-6
    for j in range(u.size):
        step = np.zeros(u.size)
        step[j] = h
        slope = (residual(x + step)[0] - residual(x - step)[0]) / (2 * h)
        # a MOSFET region boundary inside the step costs up to beta*h/2 (5e-9 S)
        assert np.abs(slope - a[:, :, j]).max() <= 5e-8, j



def assert_exact_stamp(c, gmin):
    """Each entry of the compiled matrix is the exact sum of its terms to
    the round-off of rounding k terms and adding them (within k * 2**-52
    of their magnitudes' sum), the right-hand side is left to the source
    table, and the table holds the exact stamp's rows, signs and specs in
    element order."""
    u = index_unknowns(c)
    n, m = u.size, u.size + 1
    plan = mna.compile(c, gmin)
    terms, sources = exact_mna(c, u, gmin)
    matrix = plan.static[0, : m * m].reshape(m, m)
    for i in range(n):
        for j in range(n):
            t = terms[i][j]
            bound = len(t) * Fraction(1, 2**52) * sum(abs(v) for v in t)
            assert abs(Fraction(matrix[i, j]) - sum(t, Fraction(0))) <= bound, (i, j)
    assert not plan.static[0, m * m :].any()
    rows = [None if r == n else r for r in (plan.sources.at - m * m).tolist()]
    assert list(zip(rows, plan.sources.sign.tolist())) == [(r, s) for r, s, _ in sources]
    assert all(a is b for a, (_, _, b) in zip(plan.sources.specs, sources))


@given(data=st.data(), gmin=st.sampled_from([0.0, mna.GMIN_FLOOR, 1e-3]))
@settings(max_examples=60, deadline=None)
def test_compiled_static_matrix_is_the_exact_stamp(data, gmin):
    assert_exact_stamp(parse_and_flatten(data.draw(memoryless_or_rc_netlists(with_cap=False))), gmin)


def test_compiled_floating_sources_are_the_exact_stamp():
    # the generator's voltage source is grounded: here one is floating,
    # and a conveyor's Z drives the node of a voltage source
    c = parse_and_flatten("t\nv1 a 0 SIN(0 1 1k)\nv2 a b DC 2\ni1 b c DC 1m\nr1 b 0 1k\n"
                          "r2 c 0 3k\nu1 c x a ccii- rx=5\nr3 x 0 2k\n.end\n")
    assert_exact_stamp(c, mna.GMIN_FLOOR)


def test_exact_rank_is_short_only_where_the_floor_holds_a_node():
    # the floor-held netlist is singular without the floor and regular
    # with it; the amplifier is regular without it at both rx ends
    c = parse_and_flatten(FLOOR_HELD)
    assert index_unknowns(c).size == 7
    assert (exact_rank(c, 0.0), exact_rank(c, mna.GMIN_FLOOR)) == (6, 7)
    for rx in (0.0, 1581.0):
        amp = behavioral_amp(rx=rx)
        assert exact_rank(amp, 0.0) == index_unknowns(amp).size
