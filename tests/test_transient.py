import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsim.library import emit_example
from ccsim.mna import index_unknowns
from ccsim.netlist import expand_hierarchy, parse_and_flatten, parse_netlist
from ccsim.solver import ConvergenceError, SingularMatrixError, Tolerances, newton_dc
from ccsim.transient import (
    Waveform,
    format_sci,
    read_csv,
    run_transient,
    run_transient_stacked,
    write_csv,
)

from conftest import behavioral_amp, memoryless_or_rc_netlists, node_kcl_residuals, run_amp

RC = """rc charging step response
vs in 0 PULSE(0 1 0 1p 1p 10 10)
r1 in c 1k
c1 c 0 1u
.end
"""

TAU = 1e-3


def charge_errors(dt, tstop, method):
    c = parse_and_flatten(RC)
    w = run_transient(c, dt, tstop, method)
    v = w.column("v(c)")
    exact = 1.0 - np.exp(-w.times / TAU)
    return v, np.abs(v - exact)


def test_rc_charging_trap_value():
    v, _ = charge_errors(10e-6, 2e-3, "trap")
    k = round(TAU / 10e-6)
    assert v[k] == pytest.approx(1 - math.exp(-1), abs=5e-4)


def test_rc_trap_relative_error_at_tau():
    v, _ = charge_errors(TAU / 100, 2 * TAU, "trap")
    k = 100
    exact = 1 - math.exp(-1)
    assert abs(v[k] - exact) / exact < 1e-3


@pytest.mark.parametrize("method,lo,hi", [("be", 1.7, 2.3), ("trap", 3.5, 4.5)])
def test_halving_dt_improves_by_method_order(method, lo, hi):
    _, e1 = charge_errors(TAU / 100, 2 * TAU, method)
    _, e2 = charge_errors(TAU / 200, 2 * TAU, method)
    ratio = e1.max() / e2.max()
    assert lo <= ratio <= hi


def test_memoryless_equals_frozen_dc():
    c = behavioral_amp(rx=500.0)
    w = run_transient(c, 1e-6, 2e-3, "trap")
    u = index_unknowns(c)
    for k in (1, 517, 1000, 1999):
        op = newton_dc(c, u, t=w.times[k])
        for i, name in enumerate(u.names):
            assert w.column(name)[k] == pytest.approx(op.x[i], abs=1e-12)


def test_time_shift_invariance():
    # a sine delayed by one full period is the same source, so samples one
    # period apart must agree
    c = behavioral_amp(rx=1581.0)
    w = run_transient(c, 1e-6, 3e-3, "trap")
    n = 1000  # samples per 1 kHz period at 1 us
    out = w.column("v(out)")
    ref = np.abs(out).max()
    assert np.max(np.abs(out[n:2 * n] - out[2 * n:3 * n])) <= 1e-9 * ref


def test_pure_resistive_amp_is_exact_sine():
    c, w = run_amp(r1=1e3, r2=100e3, rx=0.0)
    vout = w.column("v(out)")
    expect = 5.0 * np.sin(2 * np.pi * 1e3 * w.times)
    # memoryless circuit: no integration error, only the gmin-floor loading
    assert np.max(np.abs(vout - expect)) < 5.0 * 2e-7


def test_zero_amplitude_source_stays_at_op():
    text = "t\nvin in 0 SIN(0.25 0.0 1k)\nr1 in m 1k\nr2 m 0 1k\n.end\n"
    c = parse_and_flatten(text)
    w = run_transient(c, 1e-6, 1e-4, "trap")
    vm = w.column("v(m)")
    assert np.all(vm == vm[0])
    assert vm[0] == pytest.approx(0.125, rel=1e-9)


def test_zero_frequency_sine_rejected():
    with pytest.raises(Exception, match="frequency"):
        parse_and_flatten("t\nvin in 0 SIN(0.25 0.1 0)\nr1 in 0 1k\n.end\n")


def test_argument_errors():
    c = behavioral_amp()
    with pytest.raises(ValueError):
        run_transient(c, 0.0, 1e-3)
    with pytest.raises(ValueError):
        run_transient(c, 1e-3, 1e-4)
    with pytest.raises(ValueError):
        run_transient(c, 1e-6, 1e-3, "gear")


def test_waveform_columns_consistent():
    c, w = run_amp()
    n = len(w.times)
    assert all(len(col) == n for col in w.columns.values())
    steps = np.diff(w.times)
    assert np.allclose(steps, steps[0])


def test_clipping_limits_recorded_output():
    c, w = run_amp(r1=100.0, r2=100e3, rx=0.0, vmin=-0.5, vmax=0.5)
    vout = w.column("v(out)")
    assert vout.max() <= 0.5 + 1e-15
    assert vout.min() >= -0.5 - 1e-15


def test_csv_format_and_roundtrip(tmp_path):
    _, w = run_amp(periods=1)
    path = tmp_path / "wave.csv"
    write_csv(w, path, probes=["v(out)", "i(vin)"])
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "time,v(out),i(vin)"
    cell = lines[1].split(",")[0]
    assert cell == "0.00000000e+00"  # 9 significant digits, scientific

    w2 = read_csv(path)
    assert np.allclose(w2.times, w.times)
    assert np.allclose(w2.column("v(out)"), w.column("v(out)"), atol=1e-15)


def test_format_sci_nine_digits():
    assert format_sci(1 / 3) == "3.33333333e-01"
    assert format_sci(12345.6789) == "1.23456789e+04"


def test_dc_sweep_of_divider():
    from ccsim.transient import run_dc_sweep

    c = parse_and_flatten("t\nv1 a 0 DC 0\nr1 a m 1k\nr2 m 0 1k\n.end\n")
    w = run_dc_sweep(c, "v1", 0.0, 1.0, 0.25)
    assert np.allclose(w.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(w.column("v(m)"), w.times / 2, rtol=1e-9)
    assert w.time_label == "v1"
    with pytest.raises(ValueError):
        run_dc_sweep(c, "nosuch", 0.0, 1.0, 0.5)


def test_csv_matches_per_cell_format(tmp_path):
    # special values spread over a row count that no block size near
    # 4096 divides, so the last block is a partial one
    from ccsim.transient import Waveform

    n = 10_007
    specials = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e308, 1 / 3])
    times = np.arange(n) * 1e-6
    rng = np.random.default_rng(7)
    a = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    b = np.resize(specials, n)
    a[-len(specials):] = specials
    w = Waveform(times, {"v(a)": a, "i(b)": b}, 1e-6, "trap", {})
    path = tmp_path / "special.csv"
    write_csv(w, path)
    expect = "time,v(a),i(b)\n" + "".join(
        ",".join(format_sci(v) for v in row) + "\n" for row in zip(times, a, b)
    )
    assert path.read_bytes() == expect.encode()


@given(data=st.data(), with_cap=st.booleans(), method=st.sampled_from(["be", "trap"]))
@settings(max_examples=60, deadline=None)
def test_kcl_holds_at_every_sample(data, with_cap, method):
    # without the capacitor the run takes the batched path, with it the
    # stepped one; the oracle knows neither
    c = parse_and_flatten(data.draw(memoryless_or_rc_netlists(with_cap)))
    dt = data.draw(st.floats(1e-7, 1e-5))
    w = run_transient(c, dt, 40 * dt, method)
    net, scale = node_kcl_residuals(c, w)
    # a solve's round-off in one node voltage is relative to the whole
    # system, not only to the currents at that node
    floor = 1e-12 * np.max(list(scale.values()), axis=0)
    for node in net:
        assert np.all(np.abs(net[node]) <= 1e-9 * scale[node] + floor), node


def assert_stack_matches_runs(circuits, dt, tstop, method):
    """Each stacked waveform equals its own run to 1e-12 of each column's peak."""
    stacked = run_transient_stacked(circuits, dt, tstop, method)
    assert len(stacked) == len(circuits)
    for c, w in zip(circuits, stacked):
        ref = run_transient(c, dt, tstop, method)
        assert isinstance(w, Waveform)
        assert np.array_equal(w.times, ref.times) and w.method == ref.method
        assert w.columns.keys() == ref.columns.keys()
        for name, col in ref.columns.items():
            assert np.abs(w.column(name) - col).max() <= 1e-12 * np.abs(col).max(), name


def _variants(text, name, values):
    ast = parse_netlist(text)
    return [expand_hierarchy(ast, {name: v}) for v in values]


@given(data=st.data(), method=st.sampled_from(["be", "trap"]))
@settings(max_examples=25, deadline=None)
def test_stacked_rc_runs_match_single_runs(data, method):
    # the KCL oracle's netlists with the capacitance made a swept .param
    lines = data.draw(memoryless_or_rc_netlists(True)).splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("c1 "))
    lines[k] = " ".join(lines[k].split()[:3] + ["cval"])
    text = "\n".join(lines[:1] + [".param cval=1n"] + lines[1:])
    farads = data.draw(st.lists(st.floats(1e-9, 1e-6), min_size=1, max_size=4))
    dt = data.draw(st.floats(1e-7, 1e-5))
    assert_stack_matches_runs(_variants(text, "cval", farads), dt, 40 * dt, method)


CLAMPED = """clamped amplifier, the clamp level swept
.param vlim=1
vin in 0 SIN(0 0.05 1k)
u1 in x out ccii+ rx=0 vmin=-2 vmax=vlim
r1 x 0 1k
r2 out 0 100k
c1 out 0 1n
.end
"""


@pytest.mark.parametrize("method", ["be", "trap"])
def test_stacked_clamp_limits_follow_each_point(method):
    circuits = _variants(CLAMPED, "vlim", [0.5, 1.0, 3.0, 10.0])
    assert_stack_matches_runs(circuits, 10e-6, 2e-3, method)
    tops = [w.column("v(out)").max() for w in run_transient_stacked(circuits, 10e-6, 2e-3, method)]
    assert tops[:3] == pytest.approx([0.5, 1.0, 3.0], abs=1e-15) and tops[3] < 10.0


TRANSLINEAR = emit_example("proposed_amp_translinear")
# a 2 V input step at 0.1 ms, which Newton crosses in 8 iterations only
# with gmin rescues, and at ibval=100 uA not at all
STEPPED_INPUT = re.sub(
    r"vin in 0 SIN\(.*\)", "vin in 0 PULSE(0 2 1e-4 1e-6 1e-6 2e-4 1)", TRANSLINEAR
)


def test_stacked_translinear_amp_matches_single_runs():
    circuits = _variants(TRANSLINEAR, "ibval", [15e-6, 50e-6, 180e-6])
    assert_stack_matches_runs(circuits, 1e-5, 4e-4, "trap")


# node b's conductance is 2**-9 S; a capacitance of -2**-29 F cancels it
# exactly on the first, backward-Euler step of 2**-20 s
SINGULAR_STEP = """singular first step at cval=-2**-29
.param cval=1n
v1 a 0 SIN(0 1 1k)
r1 a b 1024
r2 b 0 1024
c1 b 0 cval
.end
"""


# with no gmin floor the drain is held only by the channel, so it floats
# once the gate turns off at toff
GATE_OFF = """drain left floating when the gate turns off
.param toff=1
.model nm nmos vth=0.4 beta=2e-4
vg g 0 PULSE(1 0 toff 1e-6 1e-6 1 2)
m1 d g 0 0 nm
.end
"""


@pytest.mark.parametrize("text,name,values,dt,tol,error", [
    # 100 A fails DC even with gmin stepping
    (TRANSLINEAR, "ibval", [50e-6, 100.0, 25e-6], 1e-5, Tolerances(), ConvergenceError),
    (STEPPED_INPUT, "ibval", [25e-6, 100e-6, 200e-6], 1e-5, Tolerances(maxiter=8),
     ConvergenceError),
    (SINGULAR_STEP, "cval", [1e-9, -(2.0**-29), 2e-9], 2.0**-20, Tolerances(gmin_floor=0.0),
     SingularMatrixError),
    (GATE_OFF, "toff", [1.0, 5e-5, 1.0], 1e-5, Tolerances(gmin_floor=0.0), SingularMatrixError),
], ids=["dc", "step", "singular", "singular_newton"])
def test_stacked_failure_stays_with_its_point(text, name, values, dt, tol, error):
    circuits = _variants(text, name, values)
    out = run_transient_stacked(circuits, dt, 30 * dt, "trap", tol)
    with pytest.raises(error) as single:
        run_transient(circuits[1], dt, 30 * dt, "trap", tol)
    assert type(out[1]) is error and str(out[1]) == str(single.value)
    for c, w in zip(circuits[::2], out[::2]):
        ref = run_transient(c, dt, 30 * dt, "trap", tol)
        assert all(np.array_equal(w.column(n), ref.column(n)) for n in ref.columns)
