"""Union circuits: K flattened members sharing ground, run as one circuit
and split back into each member's own record."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsim import library, mna
from ccsim.library import (
    POWER_SUITE,
    AmplifierConfig,
    TranslinearConveyor,
    emit_example,
    measure_rx_emergent,
    power_comparison,
)
from ccsim.measure import average_power, peak_power
from ccsim.netlist import expand_hierarchy, member_name, parse_and_flatten, parse_netlist, union
from ccsim.solver import ConvergenceError, SingularMatrixError, Tolerances, newton_dc
from ccsim.transient import member_waveform, run_transient, run_transient_union

from conftest import behavioral_amp, memoryless_or_rc_netlists, node_kcl_residuals


def assert_kcl(c, w):
    """The KCL oracle's check of ``test_kcl_holds_at_every_sample``."""
    net, scale = node_kcl_residuals(c, w)
    floor = 1e-12 * np.max(list(scale.values()), axis=0)
    for node in net:
        assert np.all(np.abs(net[node]) <= 1e-9 * scale[node] + floor), node


def assert_member_matches_run(w, c, dt, tstop, method, tol=None, rel=1e-12):
    """A member's split record equals its own run to ``rel`` of the
    member's largest voltage for a voltage and of its largest KCL term
    (see ``node_kcl_residuals``) for a current.

    A solve's round-off is relative to the whole system, not to one
    column: a current that is a small difference of large terms, such as
    a capacitor's companion current, or a node held only by the gmin
    floor, carries round-off far above its own peak's."""
    ref = run_transient(c, dt, tstop, method, tol)
    assert np.array_equal(w.times, ref.times) and w.method == ref.method
    assert list(w.columns) == list(ref.columns)
    assert w.vsource_nodes == ref.vsource_nodes
    _, terms = node_kcl_residuals(c, ref)
    peak = {"v": max(np.abs(col).max() for n, col in ref.columns.items() if n[0] == "v"),
            "i": max(t.max() for t in terms.values())}
    for name, col in ref.columns.items():
        assert np.abs(w.column(name) - col).max() <= rel * peak[name[0]], name


def condition(c, dt):
    """Condition number of ``c``'s matrix on a backward-Euler step of ``dt``."""
    u = mna.index_unknowns(c)
    plan = mna.compile(c, u)
    geq = plan.farads / dt
    return np.linalg.cond(mna.assemble(c, u, 0.0, companions=(geq, 0.0 * geq), plan=plan).a)


@given(data=st.data(), method=st.sampled_from(["be", "trap"]))
@settings(max_examples=40, deadline=None)
def test_union_members_equal_their_own_runs(data, method):
    caps = data.draw(st.lists(st.booleans(), min_size=2, max_size=3))
    circuits = [parse_and_flatten(data.draw(memoryless_or_rc_netlists(cap))) for cap in caps]
    whole = union(circuits)
    dt = data.draw(st.floats(1e-7, 1e-5))
    wave = run_transient(whole, dt, 40 * dt, method, rescue=False)
    assert_kcl(whole, wave)
    for j, c in enumerate(circuits):
        w = member_waveform(wave, c, j)
        assert_kcl(c, w)
        # the union's LU orders its round-off differently, and a memoryless
        # member alone is solved by superposition: the two answers differ
        # by up to the condition number times the unit round-off (some of
        # these netlists hold a node only by the gmin floor)
        rel = max(1e-12, 1e-14 * condition(c, dt))
        assert_member_matches_run(w, c, dt, 40 * dt, method, rel=rel)


# under a rule without the separator, member 1's node "0a" and member 10's
# node "a" would both become "k10a"
NAME_CLASH = """names that a careless prefix would merge
v1 a 0 SIN(0 {amp} 1k)
r1 a 0a 1k
r2 0a 0 2k
u1 0 0a out ccii+ rx=10
r3 out 0 3k
.end
"""


def test_union_of_eleven_keeps_every_name_apart():
    circuits = [parse_and_flatten(NAME_CLASH.format(amp=0.1 * (k + 1))) for k in range(11)]
    whole = union(circuits)
    assert whole.n_nodes == sum(c.n_nodes for c in circuits)
    assert len(whole.node_names) == len(set(whole.node_names)) == len(whole.nodes)
    assert [whole.node_names[i] for i in whole.nodes.values()] == list(whole.nodes)
    names = [e.name for e in whole.elements]
    assert len(names) == len(set(names)) == sum(len(c.elements) for c in circuits)
    assert member_name(1, "0a") != member_name(10, "a")
    assert member_name(3, "0") == "0"
    waves = run_transient_union(circuits, 1e-5, 1e-3, "trap")
    for c, w in zip(circuits, waves):
        assert_member_matches_run(w, c, 1e-5, 1e-3, "trap")


CLAMPED = """clamped amplifier
vin in 0 SIN(0 0.05 1k)
u1 in x out ccii+ rx=0 vmin=-2 vmax=0.5
r1 x 0 1k
r2 out 0 100k
c1 out 0 1n
.end
"""


@pytest.mark.parametrize("method", ["be", "trap"])
def test_member_clamp_applies_inside_the_union(method):
    circuits = [behavioral_amp(rx=500.0), parse_and_flatten(CLAMPED)]
    wave = run_transient(union(circuits), 1e-5, 2e-3, method, rescue=False)
    clamped = member_waveform(wave, circuits[1], 1)
    assert clamped.column("v(out)").max() == pytest.approx(0.5, abs=1e-15)
    for k, c in enumerate(circuits):
        assert_member_matches_run(member_waveform(wave, c, k), c, 1e-5, 2e-3, method)


TRANSLINEAR = emit_example("proposed_amp_translinear")
VSOURCE_LOOP = "t\nV1 x 0 DC 1\nV2 x 0 DC 2\nR1 x 0 1k\n.end\n"


def test_singular_member_raises_its_own_error():
    loop = parse_and_flatten(VSOURCE_LOOP)
    circuits = [parse_and_flatten(TRANSLINEAR), loop]
    with pytest.raises(SingularMatrixError) as alone:
        run_transient(loop, 1e-5, 1e-4)
    with pytest.raises(SingularMatrixError) as joined:
        run_transient_union(circuits, 1e-5, 1e-4)
    assert str(joined.value) == str(alone.value)
    assert re.search(r"\(unknown i\(v[12]\)\)", str(joined.value))
    # the operating-point pair of measure_rx_emergent falls back the same way
    bench = parse_and_flatten(emit_example("cccii_char"))
    with pytest.raises(SingularMatrixError) as dc:
        library._dc_voltages([bench, loop], "x", None)
    assert str(dc.value) == str(alone.value)


def _variants(text, values):
    ast = parse_netlist(text)
    return [expand_hierarchy(ast, {"ibval": v}) for v in values]


def test_member_without_dc_convergence_raises_its_own_error():
    # 100 A of bias fails DC even with gmin stepping
    circuits = _variants(TRANSLINEAR, [50e-6, 100.0])
    with pytest.raises(ConvergenceError) as alone:
        run_transient(circuits[1], 1e-5, 1e-4)
    with pytest.raises(ConvergenceError) as joined:
        run_transient_union(circuits, 1e-5, 1e-4)
    assert str(joined.value) == str(alone.value)


def test_gmin_rescue_of_one_member_leaves_the_others_exact():
    # a 2 V input step at 0.1 ms that Newton crosses in 8 iterations only
    # with gmin rescues: the union fails there and each member runs alone
    stepped = re.sub(r"vin in 0 SIN\(.*\)", "vin in 0 PULSE(0 2 1e-4 1e-6 1e-6 2e-4 1)", TRANSLINEAR)
    tol = Tolerances(maxiter=8)
    circuits = _variants(TRANSLINEAR, [50e-6]) + _variants(stepped, [25e-6])
    with pytest.raises(ConvergenceError):
        run_transient(union(circuits), 1e-5, 3e-4, "trap", tol, rescue=False)
    for c, w in zip(circuits, run_transient_union(circuits, 1e-5, 3e-4, "trap", tol)):
        ref = run_transient(c, 1e-5, 3e-4, "trap", tol)
        assert all(np.array_equal(w.column(n), ref.column(n)) for n in ref.columns)


def test_power_comparison_matches_separate_runs():
    got = power_comparison(ib=50e-6, rails=1.0)
    for label, topo, family in POWER_SUITE:
        cfg = AmplifierConfig(r1=1e3, r2=1e3, conveyor=TranslinearConveyor(50e-6, family, 1.0))
        c = parse_and_flatten(emit_example(topo, cfg))
        tran = next(d for d in c.directives if d.kind == "tran")
        w = run_transient(c, *tran.args)
        ref = (average_power(w, ("vdd", "vss")), peak_power(w, ("vdd", "vss")))
        assert got[label] == pytest.approx(ref, rel=1e-9, abs=0.0), label


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
        u = mna.index_unknowns(c)
        vx.append(newton_dc(c, u).x[u.node_row(c.nodes["x"])])
    ref = (vx[0] - vx[1]) / (2.0 * delta)
    assert measure_rx_emergent(ib) == pytest.approx(ref, rel=1e-9, abs=0.0)
