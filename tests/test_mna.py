import numpy as np
import pytest

from ccsim import mna
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

from conftest import behavioral_amp


def circuit_of(elements, directives=()):
    nodes = {"0": 0}
    from ccsim.netlist import _element_nodes

    for e in elements:
        for n in _element_nodes(e):
            nodes.setdefault(n, len(nodes))
    names = [""] * len(nodes)
    for n, i in nodes.items():
        names[i] = n
    return FlatCircuit(nodes, names, list(elements), tuple(directives), {})


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
    sys = assemble(c, u, 0.0, gmin_floor=0.0)
    a_row, b_row = u.node_row(c.nodes["a"]), u.node_row(c.nodes["b"])
    g = 1e-3
    assert sys.a[a_row, a_row] == pytest.approx(g)
    assert sys.a[b_row, b_row] == pytest.approx(g + 1.0)  # rg to ground adds only here
    assert sys.a[a_row, b_row] == pytest.approx(-g)
    assert sys.a[b_row, a_row] == pytest.approx(-g)


def hand_amp(rx):
    from ccsim.devices import ConveyorParams, Dc

    return circuit_of(
        [
            VSource("vin", "in", "0", Dc(0.1)),
            Conveyor("u1", "in", "x", "out", ConveyorParams(1, True, rx)),
            Resistor("r1", "x", "0", 1e3),
            Resistor("r2", "out", "0", 1e5),
        ]
    )


def test_conveyor_hand_solved_system():
    # hand elimination of the 5x5: V_X = 0.1 V, i_x = -1e-4 A, V_out = +10 V
    c = hand_amp(rx=0.0)
    u = index_unknowns(c)
    sys = assemble(c, u, 0.0, gmin_floor=0.0)
    x = solve_linear(sys.a, sys.b, u.names)
    sol = dict(zip(u.names, x))
    assert sol["v(x)"] == pytest.approx(0.1, rel=1e-12)
    assert sol["i(u1)"] == pytest.approx(-1e-4, rel=1e-12)
    assert sol["v(out)"] == pytest.approx(10.0, rel=1e-12)


def test_conveyor_loaded_solution():
    c = hand_amp(rx=1581.0)
    u = index_unknowns(c)
    sys = assemble(c, u, 0.0, gmin_floor=0.0)
    x = solve_linear(sys.a, sys.b, u.names)
    v_out = x[u.node_row(c.nodes["out"])]
    assert v_out == pytest.approx(0.1 * 1e5 / (1e3 + 1581.0), rel=1e-9)
    assert v_out == pytest.approx(3.874, abs=5e-4)


def test_minus_polarity_inverts_output():
    from ccsim.devices import ConveyorParams, Dc

    c = circuit_of(
        [
            VSource("vin", "in", "0", Dc(0.1)),
            Conveyor("u1", "in", "x", "out", ConveyorParams(-1, True, 0.0)),
            Resistor("r1", "x", "0", 1e3),
            Resistor("r2", "out", "0", 1e5),
        ]
    )
    u = index_unknowns(c)
    sys = assemble(c, u, 0.0, gmin_floor=0.0)
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
    sys = assemble(c, u, 0.0, gmin_floor=0.0)
    rows = [u.node_row(c.nodes[n]) for n in "abc"]
    row_sums = sys.a[rows].sum(axis=1)
    assert np.allclose(row_sums, 0.0, atol=1e-18)


def test_stamp_order_invariance():
    c1 = hand_amp(rx=100.0)
    shuffled = circuit_of(list(reversed(c1.elements)))
    # same node map required for a meaningful comparison
    shuffled.nodes = c1.nodes
    shuffled.node_names = c1.node_names
    u1, u2 = index_unknowns(c1), index_unknowns(shuffled)
    assert u1.branch_rows == u2.branch_rows
    s1 = assemble(c1, u1, 0.0)
    s2 = assemble(shuffled, u2, 0.0)
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
    sys = assemble(c, u, 0.0)  # no cap_state: open circuit
    x = solve_linear(sys.a, sys.b, u.names)
    # no DC path from b except the gmin floor: node follows a
    assert x[u.node_row(c.nodes["b"])] == pytest.approx(1.0, rel=1e-6)


def test_mosfet_stamp_cutoff_is_empty():
    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nM1 d g 0 0 nm\nV1 d 0 DC 1\nR1 g 0 1k\n.end\n"
    )
    u = index_unknowns(c)
    sys_all = assemble(c, u, 0.0, x_est=np.zeros(u.size), gmin_floor=0.0)
    lin = FlatCircuit(c.nodes, c.node_names, [e for e in c.elements if not isinstance(e, Mosfet)], (), {})
    sys_lin = assemble(lin, u, 0.0, gmin_floor=0.0)
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
    both = assemble(c, u, 0.0, x_est=x_est, gmin_floor=0.0)
    single = FlatCircuit(c.nodes, c.node_names, [c.elements[0]] + list(c.elements[2:]), (), {})
    one = assemble(single, u, 0.0, x_est=x_est, gmin_floor=0.0)
    lin_only = FlatCircuit(c.nodes, c.node_names, list(c.elements[2:]), (), {})
    none = assemble(lin_only, u, 0.0, gmin_floor=0.0)
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
        op = newton_dc(c, u, t=0.25e-3)  # quarter period, peak drive
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
    with_floor = assemble(c, u, 0.0, gmin_floor=1e-9)
    without = assemble(c, u, 0.0, gmin_floor=0.0)
    d = with_floor.a - without.a
    assert np.allclose(np.diag(d)[: u.n_nodes], 1e-9)
    assert np.count_nonzero(d) == u.n_nodes


def test_stack_assembles_each_variant_as_alone():
    from ccsim.library import emit_example
    from ccsim.netlist import expand_hierarchy, parse_netlist

    ast = parse_netlist(emit_example("proposed_amp_translinear"))
    circuits = [expand_hierarchy(ast, {"ibval": v}) for v in (20e-6, 80e-6)]
    u = index_unknowns(circuits[0])
    plans = [mna.compile(c, u) for c in circuits]
    x = np.random.default_rng(5).normal(size=(2, u.size))
    both = assemble(circuits[0], u, 3e-4, x, gmin_extra=1e-6, plan=mna.stack(plans))
    for k, c in enumerate(circuits):
        alone = assemble(c, u, 3e-4, x[k], gmin_extra=1e-6, plan=plans[k])
        assert np.array_equal(both.a[k], alone.a) and np.array_equal(both.b[k], alone.b)


def test_stack_refuses_another_topology():
    a = parse_and_flatten("t\nv1 a 0 DC 1\nr1 a b 1k\nr2 b 0 1k\nc1 b 0 1n\n.end\n")
    b = parse_and_flatten("t\nv1 a 0 DC 1\nr1 a b 1k\nr2 b 0 1k\nc1 a 0 1n\n.end\n")
    plans = [mna.compile(c, index_unknowns(c)) for c in (a, b)]
    with pytest.raises(ValueError, match="topology"):
        mna.stack(plans)


def test_stamp_sources_adds_in_table_order():
    from ccsim.devices import source_value

    # three sources into node a, one of them twice over, and -0.0 kept apart from 0.0
    c = parse_and_flatten(
        "t\nv1 a 0 SIN(0.1 0.3 1k)\ni1 a b SIN(1e-3 3e-3 2k)\ni2 a 0 DC 0\ni3 a 0 DC -0\n"
        "i4 0 a PULSE(0 7e-4 1e-4 1e-5 1e-5 2e-4 5e-4)\nr1 a b 1k\nr2 b 0 3k\n.end\n"
    )
    u = index_unknowns(c)
    plan = mna.compile(c, u)
    assert len(plan.sources.specs) == 5
    for t in (0.0, 1.23e-4, 3.7e-4):
        loop = plan.static.copy()
        for at, sign, spec in plan.sources.entries():
            loop[at] += sign * source_value(spec, t)
        assert np.array_equal(mna.stamp_sources(plan, t), loop)
