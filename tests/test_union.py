"""Unions of circuits: K flattened circuits of different topologies,
stepped together as one stack, each laid out like the stack by
``mna.compile`` and padded to its size, each returning its own record
under its own names."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsim import mna, transient
from ccsim.library import (
    POWER_SUITE,
    AmplifierConfig,
    TranslinearConveyor,
    emit_example,
    measure_rx_emergent,
    power_comparison,
)
from ccsim.measure import average_power, peak_power
from ccsim.netlist import Mosfet, expand_hierarchy, parse_and_flatten, parse_netlist
from ccsim.solver import ConvergenceError, SingularMatrixError, Tolerances, newton_dc
from ccsim.transient import Waveform, run_transient, run_transient_stacked

from conftest import assembled, memoryless_or_rc_netlists, node_kcl_residuals


def assert_kcl(c, w):
    """The KCL oracle's check of ``test_kcl_holds_at_every_sample``."""
    net, scale = node_kcl_residuals(c, w)
    floor = 1e-12 * np.max(list(scale.values()), axis=0)
    for node in net:
        assert np.all(np.abs(net[node]) <= 1e-9 * scale[node] + floor), node


def assert_member_matches_run(w, c, dt, tstop, method, tol=None, rel=1e-12):
    """A member's record equals its own run to ``rel`` of the member's
    largest voltage for a voltage and of its largest KCL term (see
    ``node_kcl_residuals``; its largest current with MOSFETs) for a
    current; to the last bit with ``rel=0``.

    A solve's round-off is relative to the whole system, not to one
    column: a current that is a small difference of large terms, such as
    a capacitor's companion current, or a node held only by the gmin
    floor, carries round-off far above its own peak's."""
    ref = run_transient(c, dt, tstop, method, tol)
    assert isinstance(w, Waveform)
    assert np.array_equal(w.times, ref.times) and w.method == ref.method
    assert list(w.columns) == list(ref.columns)
    assert w.vsource_nodes == ref.vsource_nodes
    if any(isinstance(e, Mosfet) for e in c.elements):  # the KCL oracle has no MOSFET law
        terms = [np.abs(col) for n, col in ref.columns.items() if n[0] == "i"]
    else:
        terms = node_kcl_residuals(c, ref)[1].values()
    peak = {"v": max(np.abs(col).max() for n, col in ref.columns.items() if n[0] == "v"),
            "i": max(t.max() for t in terms)}
    for name, col in ref.columns.items():
        assert np.abs(w.column(name) - col).max() <= rel * peak[name[0]], name


def assert_same_error(got, c, dt, tstop, method="trap", tol=None):
    """``got`` is the error ``c``'s own run raises, text included."""
    with pytest.raises((ConvergenceError, SingularMatrixError)) as alone:
        run_transient(c, dt, tstop, method, tol)
    assert type(got) is type(alone.value) and str(got) == str(alone.value)


def padded(circuits):
    """Whether the stack of ``circuits`` pads each one."""
    maps = [mna.index_unknowns(c) for c in circuits]
    n_nodes = max(u.n_nodes for u in maps)
    n = n_nodes + max(u.size - u.n_nodes for u in maps)
    return [(u.n_nodes, u.size) != (n_nodes, n) for u in maps]


def condition(c, dt):
    """Condition number of ``c``'s matrix on a backward-Euler step of ``dt``."""
    plan = mna.compile(c)
    geq = plan.farads / dt
    return np.linalg.cond(assembled(c, 0.0, companions=(geq, 0.0 * geq), plan=plan).a)


@given(data=st.data(), method=st.sampled_from(["be", "trap"]))
@settings(max_examples=40, deadline=None)
def test_union_members_equal_their_own_runs(data, method):
    caps = data.draw(st.lists(st.booleans(), min_size=2, max_size=4))
    circuits = [parse_and_flatten(data.draw(memoryless_or_rc_netlists(cap))) for cap in caps]
    dt = data.draw(st.floats(1e-7, 1e-5))
    waves = list(run_transient_stacked(circuits, dt, 40 * dt, method))
    assert len(waves) == len(circuits)
    for c, w in zip(circuits, waves):
        if not isinstance(w, Waveform):  # a draw only the gmin floor holds up
            assert_same_error(w, c, dt, 40 * dt, method)
            continue
        assert_kcl(c, w)
        # a padded member's LU orders its round-off differently: the two
        # answers differ by up to the condition number times the unit
        # round-off (some of these netlists hold a node only by the gmin
        # floor)
        rel = max(1e-12, 1e-14 * condition(c, dt))
        assert_member_matches_run(w, c, dt, 40 * dt, method, rel=rel)


# eleven members of three sizes: the base circuit, one with a node and a
# capacitor more, and one with a voltage source (a branch) more
ELEVEN = """member {k}
v1 a 0 SIN(0 {amp} 1k)
r1 a 0a 1k
r2 0a 0 2k
u1 0 0a out ccii+ rx=10
r3 out 0 3k
c1 out 0 {nf}n
{extra}
.end
"""
EXTRA = ("", "r4 out e 1k\nc2 e 0 1n", "v2 f 0 DC 0.1\nr5 f 0a 5k")


def test_union_of_eleven_keeps_every_name_apart():
    circuits = [parse_and_flatten(ELEVEN.format(k=k, amp=0.1 * (k + 1), nf=k + 1, extra=EXTRA[k % 3]))
                for k in range(11)]
    assert any(padded(circuits)) and not all(padded(circuits))
    waves = run_transient_stacked(circuits, 1e-5, 1e-3, "trap")
    for c, w, pad in zip(circuits, waves, padded(circuits)):
        assert_member_matches_run(w, c, 1e-5, 1e-3, "trap", rel=1e-12 if pad else 0.0)


CLAMPED = """clamped amplifier
vin in 0 SIN(0 0.05 1k)
u1 in x out ccii+ rx=0 vmin=-2 vmax=0.5
r1 x 0 1k
r2 out 0 100k
c1 out 0 1n
.end
"""
CLAMPED_RC = """clamped rc amplifier
vin in 0 SIN(0.1 1 1k)
r1 in x 1k
c1 x 0 100n
u1 x m out ccii+ rx=50 vmax=0.4
r2 m 0 1k
r3 out 0 2k
.end
"""
TRANSLINEAR = emit_example("proposed_amp_translinear")
FERRI_2CC = emit_example("ferri_2cc", AmplifierConfig(conveyor=TranslinearConveyor()))


@pytest.mark.parametrize("method", ["be", "trap"])
def test_member_clamp_applies_inside_the_union(method):
    # the clamped member is padded in the linear stack of a larger
    # clamped amplifier
    circuits = [parse_and_flatten(CLAMPED_RC), parse_and_flatten(CLAMPED)]
    assert padded(circuits) == [False, True]
    waves = list(run_transient_stacked(circuits, 1e-5, 2e-3, method))
    assert waves[1].column("v(out)").max() == pytest.approx(0.5, abs=1e-15)
    for c, w, rel in zip(circuits, waves, (0.0, 1e-12)):
        assert_member_matches_run(w, c, 1e-5, 2e-3, method, rel=rel)


def test_linear_member_takes_one_solve_per_step(monkeypatch):
    # linear and nonlinear members step as separate stacks: the linear one
    # keeps its one solve per step and its own run's every bit
    circuits = [parse_and_flatten(CLAMPED_RC), parse_and_flatten(TRANSLINEAR)]
    solves, newton = [], transient.newton_stack

    def counted(*args):
        out = newton(*args)
        solves.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(transient, "newton_stack", counted)
    waves = list(run_transient_stacked(circuits, 1e-5, 1e-3))
    both = sum(solves)
    solves.clear()
    run_transient(circuits[1], 1e-5, 1e-3)
    monkeypatch.undo()
    assert both - sum(solves) == 100  # one per step
    own = run_transient(circuits[0], 1e-5, 1e-3)
    assert list(waves[0].columns) == list(own.columns)
    for name, col in own.columns.items():
        assert waves[0].column(name).tobytes() == col.tobytes(), name


# a loop of two voltage sources, with a capacitor so that it is stepped
VSOURCE_LOOP = "t\nV1 x 0 DC 1\nV2 x 0 DC 2\nR1 x 0 1k\nC1 x 0 1n\n.end\n"


def test_singular_member_raises_its_own_error():
    circuits = [parse_and_flatten(TRANSLINEAR), parse_and_flatten(VSOURCE_LOOP)]
    waves = list(run_transient_stacked(circuits, 1e-5, 1e-4))
    assert_same_error(waves[1], circuits[1], 1e-5, 1e-4)
    assert re.search(r"\(unknown i\(v[12]\)\)", str(waves[1]))
    assert_member_matches_run(waves[0], circuits[0], 1e-5, 1e-4, "trap", rel=0.0)


def test_member_without_dc_convergence_raises_its_own_error():
    # 100 A of bias fails DC even with gmin stepping
    circuits = [parse_and_flatten(TRANSLINEAR), parse_and_flatten(FERRI_2CC, {"ibval": 100.0})]
    waves = list(run_transient_stacked(circuits, 1e-5, 1e-4))
    assert_same_error(waves[1], circuits[1], 1e-5, 1e-4)
    assert_member_matches_run(waves[0], circuits[0], 1e-5, 1e-4, "trap")
    # power_comparison raises the first failing amplifier's error
    with pytest.raises(ConvergenceError) as info:
        power_comparison(ib=100.0)
    cfg = AmplifierConfig(r1=1e3, r2=1e3, conveyor=TranslinearConveyor(100.0, "ccii", 1.0))
    first = parse_and_flatten(emit_example("ferri_2cc", cfg))
    assert_same_error(info.value, first, *next(d for d in first.directives if d.kind == "tran").args)


def test_gmin_rescue_of_one_member_leaves_the_others_exact(monkeypatch):
    # a 2 V input step at 0.1 ms that Newton crosses in 8 iterations only
    # with gmin rescues
    stepped = re.sub(r"vin in 0 SIN\(.*\)", "vin in 0 PULSE(0 2 1e-4 1e-6 1e-6 2e-4 1)", TRANSLINEAR)
    tol = Tolerances(maxiter=8)
    # capacitors too, so that the rescue must take the rescued member's
    # own companions out of the stack's padded ones
    stepped = stepped.replace("r2 out 0 r2\n", "r2 out 0 r2\ncl out 0 1n\n")
    largest = FERRI_2CC.replace("r2 out 0 r2\n", "r2 out 0 r2\ncl out 0 2n\ncz zf 0 1n\n")
    circuits = [parse_and_flatten(largest), parse_and_flatten(stepped, {"ibval": 25e-6})]
    assert padded(circuits) == [False, True]
    names = [mna.index_unknowns(c).names for c in circuits]
    assert names[0] != names[1]
    rescued, rescue = [], transient.gmin_stepped_dc

    def counted(plan, *args, **kwargs):
        rescued.append(names.index(plan.u.names))
        return rescue(plan, *args, **kwargs)

    monkeypatch.setattr(transient, "gmin_stepped_dc", counted)
    waves = list(run_transient_stacked(circuits, 1e-5, 3e-4, "trap", tol))
    monkeypatch.undo()
    assert 1 in rescued
    assert_member_matches_run(waves[0], circuits[0], 1e-5, 3e-4, "trap", tol, rel=0.0)
    # the rescued member starts each Newton from a round-off away from its
    # own run's start, and Newton stops within reltol (1e-6) of the root:
    # the two answers agree to that, not to round-off (1.6e-12 measured)
    assert_member_matches_run(waves[1], circuits[1], 1e-5, 3e-4, "trap", tol, rel=1e-9)


# memoryless: a clamped amplifier with two sources, its r1 swept; a
# two-conveyor cascade with one source; and a one-conveyor amplifier
TWO_SOURCES = """two sources, clamped
.param r1=1k
vin in 0 SIN(0 0.05 1k)
v2 b 0 PULSE(0 0.2 1e-4 2e-5 2e-5 2e-4 5e-4)
u1 in x out cccii+ rx=50 vmin=-1 vmax=0.8
r1 x b r1
r2 out 0 20k
.end
"""
CASCADE = """one source, two conveyors
vin in 0 SIN(0 0.05 1k)
u1 in x out ccii+ rx=0
r1 x 0 1k
r2 out 0 3k
u2 out y z ccii- rx=10
r3 y 0 2k
r4 z 0 5k
.end
"""
SMALL = "one source\nvin in 0 SIN(0 0.05 1k)\nu1 in x out ccii+ rx=0\nr1 x 0 1k\nr2 out 0 3k\n.end\n"


def test_memoryless_members_equal_their_own_runs(monkeypatch):
    # a memoryless stack holds the circuits of one unknown map and one
    # source-table entry count, so none is padded, in rows or in
    # right-hand sides, and each equals its own run to the last bit; the
    # swept variants share one stacked solve, between stepped members
    circuits = [expand_hierarchy(parse_netlist(TWO_SOURCES), {"r1": r}) for r in (100.0, 1e3, 5e3)]
    circuits[1:1] = [parse_and_flatten(CASCADE), parse_and_flatten(CLAMPED_RC)]
    circuits.append(parse_and_flatten(SMALL))
    stacked, solve = [], transient.solve_linear

    def counted(a, b, row_names=None):
        stacked.append(len(a) if np.ndim(a) == 3 else 0)
        return solve(a, b, row_names)

    monkeypatch.setattr(transient, "solve_linear", counted)
    waves = list(run_transient_stacked(circuits, 1e-5, 1e-3))
    monkeypatch.undo()
    assert sorted(stacked) == [1, 1, 3]
    assert waves[3].column("v(out)").max() == 0.8  # the clamp holds
    for c, w in zip(circuits, waves):
        assert_member_matches_run(w, c, 1e-5, 1e-3, "trap", rel=0.0)


# without the gmin floor, rw = 1e15 holds node c by 1e-15 S: the operating
# point (the source is 0 at t = 0) is accepted, the unit response is not
WEAK_NODE = "weak node\n.param rw=1k\ni1 0 c SIN(0 1m 1k)\nr1 c 0 rw\n.end\n"


def test_memoryless_member_refused_by_the_stacked_solve_raises_its_own_error():
    tol = Tolerances(gmin_floor=0.0)
    circuits = [expand_hierarchy(parse_netlist(WEAK_NODE), {"rw": r}) for r in (1e3, 1e15, 2e3)]
    waves = list(run_transient_stacked(circuits, 1e-5, 1e-4, "trap", tol))
    assert_same_error(waves[1], circuits[1], 1e-5, 1e-4, "trap", tol)
    assert re.search(r"\(unknown v\(c\)\)", str(waves[1]))
    for c, w in zip(circuits[::2], waves[::2]):
        assert_member_matches_run(w, c, 1e-5, 1e-4, "trap", tol, rel=0.0)


def test_power_comparison_matches_separate_runs():
    got = power_comparison(ib=50e-6, rails=1.0)
    circuits = []
    for label, topo, family in POWER_SUITE:
        cfg = AmplifierConfig(r1=1e3, r2=1e3, conveyor=TranslinearConveyor(50e-6, family, 1.0))
        c = parse_and_flatten(emit_example(topo, cfg))
        tran = next(d for d in c.directives if d.kind == "tran")
        w = run_transient(c, *tran.args)
        ref = (average_power(w, ("vdd", "vss")), peak_power(w, ("vdd", "vss")))
        assert got[label] == pytest.approx(ref, rel=1e-9, abs=0.0), label
        circuits.append(c)
    # each amplifier's record is its own run's, to 1e-12 of each column's
    # peak; the largest, which the stack does not pad, to the last bit
    pads = padded(circuits)
    assert [label for (label, _, _), pad in zip(POWER_SUITE, pads) if not pad] == ["ferri_2cc_cccii"]
    for c, w, pad in zip(circuits, run_transient_stacked(circuits, *tran.args), pads):
        ref = run_transient(c, *tran.args)
        for name, col in ref.columns.items():
            assert np.abs(w.column(name) - col).max() <= (1e-12 if pad else 0.0) * np.abs(col).max()


@pytest.mark.parametrize("ib", [12.5e-6, 50e-6, 200e-6])
def test_rx_matches_separate_operating_points(ib):
    bench = emit_example(
        "cccii_char", AmplifierConfig(conveyor=TranslinearConveyor(ib=ib, rails=1.5))
    )
    ast = parse_netlist(bench)
    delta = ib * 0.01
    vx = []
    for sign in (1.0, -1.0):
        c = expand_hierarchy(ast, {"iprobe": sign * delta})
        plan = mna.compile(c)
        vx.append(newton_dc(plan).x[plan.u.node_row(c.nodes["x"])])
    assert measure_rx_emergent(ib) == (vx[0] - vx[1]) / (2.0 * delta)
