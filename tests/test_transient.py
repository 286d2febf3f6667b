import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsim import mna, solver, transient
from ccsim.devices import Dc
from ccsim.library import AmplifierConfig, TranslinearConveyor, emit_example
from ccsim.mna import index_unknowns
from ccsim.netlist import (
    Capacitor,
    FlatCircuit,
    ISource,
    VSource,
    expand_hierarchy,
    parse_and_flatten,
    parse_netlist,
)
from ccsim.solver import ConvergenceError, SingularMatrixError, Tolerances, newton_dc
from ccsim.transient import (
    Waveform,
    format_sci,
    read_csv,
    run_dc_sweep,
    run_transient,
    run_transient_stacked,
    write_csv,
)

from conftest import assembled, behavioral_amp, memoryless_or_rc_netlists, node_kcl_residuals, run_amp
from test_csv import DC as CONVEYOR_DC

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
    plan = mna.compile(c)
    for k in (1, 517, 1000, 1999):
        op = newton_dc(plan, column=plan.sources.values(w.times[k]))
        for i, name in enumerate(plan.u.names):
            assert w.column(name)[k] == pytest.approx(op.x[i], abs=1e-12)


# the pulse of test_devices.EDGE_PULSE: its fall ends on sample 20
EDGE_DT = 3.0052388797929313e-05 / 20
EDGE_SOURCE = ("vin in 0 PULSE(0 1 1.5026194398964657e-06 3.0052388797929314e-06 "
               "1.5026194398964657e-06 2.404191103834345e-05 9.015716639378795e-05)\n")


def test_pulse_samples_agree_on_memoryless_and_stepped_paths():
    # superposition and the stepped loop stamp one sample matrix, so the
    # source's own node records the same values through either path
    memoryless = parse_and_flatten("t\n" + EDGE_SOURCE + "r1 in 0 1k\n.end\n")
    stepped = parse_and_flatten("t\n" + EDGE_SOURCE + "r1 in 0 1k\nr2 in q 1k\nc2 q 0 1n\n.end\n")
    a = run_transient(memoryless, EDGE_DT, 200 * EDGE_DT).column("v(in)")
    b = run_transient(stepped, EDGE_DT, 200 * EDGE_DT).column("v(in)")
    assert a[20] == 0.0
    assert a.tobytes() == b.tobytes()


def test_memoryless_run_is_the_responses_times_the_samples():
    # after t = 0 the record is one matrix product of the unit responses
    # and the sample matrix, bit for bit; before its delay the PULSE is
    # 0.0, which times a negative response is -0.0, and the sum of the
    # product from 0.0 records it as 0.0
    c = parse_and_flatten("t\nvin in 0 PULSE(0 1 1e-5 1e-5 1e-5 2e-5 1e-4)\n"
                          "u1 in x out ccii- rx=10\nr1 x 0 1k\nr2 out 0 2k\n.end\n")
    plan = mna.compile(c)
    w = run_transient(c, 1e-6, 2e-4)
    response = np.linalg.solve(assembled(c, 0.0, plan=plan).a, mna.unit_sources(plan))
    samples = plan.sources.samples(w.times)
    assert np.signbit(response * samples).any()
    want = response @ samples
    for i, name in enumerate(plan.u.names):
        assert w.column(name)[1:].tobytes() == want[i, 1:].tobytes(), name


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
    # a stacked call raises at the call, before any result is taken
    with pytest.raises(ValueError):
        run_transient_stacked([c], 0.0, 1e-3)
    with pytest.raises(ValueError):
        run_transient_stacked([c], 1e-6, 1e-3, "gear")


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


def _scaled_sources(c, s):
    """``c`` with every source's ``Dc`` value, or ``Sin`` offset and
    amplitude, scaled by ``s``: the specs the KCL generator draws."""
    def scaled(spec):
        if isinstance(spec, Dc):
            return Dc(s * spec.value)
        return spec._replace(offset=s * spec.offset, amplitude=s * spec.amplitude)

    elems = [e._replace(spec=scaled(e.spec)) if isinstance(e, (VSource, ISource)) else e for e in c.elements]
    return FlatCircuit(c.nodes, elems, c.directives)


def assert_scaling_scales_every_column(c, dt, method, s):
    """Superposition: these circuits are linear, so every unknown is a
    sum of source values times fixed responses.  Scaling by a power of
    two or negating is exact in binary floating point and commutes with
    every rounding of the run that does not underflow, so each column
    must be s times the unscaled one to the last bit; any other s (3,
    say) rounds the scaled run differently, by up to the run's own
    round-off.

    A result under the least normal double, 2**-1022, is rounded to a
    step of 2**-1074, not to a relative precision, so scaling does not
    commute with that rounding: an rx as small as 2**-1022 makes
    v(x) = v(y) + rx * i(x) such a result.  One such rounding in each
    run misses s times the other by at most one step, but the solve
    passes a miss on times the circuit's gains (a current's miss reaches
    a node voltage times up to 1e5 ohm), and draws with rx under 1e-300
    missed by up to 1e5 steps.  So an entry may miss by 2**52 steps, the
    least normal double itself: every entry above 2**-969, where doubles
    are further apart, must still match to the last bit."""
    try:
        w = run_transient(c, dt, 40 * dt, method)
    except (ConvergenceError, SingularMatrixError) as exc:
        with pytest.raises(type(exc)) as scaled:
            run_transient(_scaled_sources(c, s), dt, 40 * dt, method)
        assert str(scaled.value) == str(exc)
        return
    ws = run_transient(_scaled_sources(c, s), dt, 40 * dt, method)
    assert ws.columns.keys() == w.columns.keys()
    for name, col in w.columns.items():
        assert np.abs(ws.column(name) - s * col).max() <= 2.0**-1022, name


@given(data=st.data(), with_cap=st.booleans(), method=st.sampled_from(["be", "trap"]),
       s=st.sampled_from([2.0, 0.5, -1.0]))
@settings(max_examples=60, deadline=None)
def test_scaling_every_source_scales_every_column_exactly(data, with_cap, method, s):
    c = parse_and_flatten(data.draw(memoryless_or_rc_netlists(with_cap)))
    assert_scaling_scales_every_column(c, data.draw(st.floats(1e-7, 1e-5)), method, s)


@pytest.mark.parametrize("s", [2.0, 0.5, -1.0])
def test_scaling_a_run_with_subnormal_entries(s):
    # a draw of the property above: rx is the least normal double, so
    # v(n2) = rx * i(u1) is subnormal, and for s = 2 and 0.5 it misses
    # s times the unscaled column by one step of 2**-1074
    c = parse_and_flatten("kcl oracle\nv1 n1 0 SIN(0.0 0.001 1000.0)\nr2 n2 0 100.0\nr3 n3 0 100.0\n"
                          "rx0 n1 n2 100.0\nu1 n3 n2 n1 cccii+ rx=2.2250738585072014e-308\n.end\n")
    v = run_transient(c, 1e-7, 40e-7, "be").column("v(n2)")
    assert 0.0 < np.abs(v).max() < np.finfo(float).tiny
    assert_scaling_scales_every_column(c, 1e-7, "be", s)


def assert_stack_matches_runs(circuits, dt, tstop, method):
    """Each stacked waveform equals its own run to 1e-12 of each column's peak."""
    stacked = list(run_transient_stacked(circuits, dt, tstop, method))
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


def test_each_distinct_spec_is_sampled_once_per_run(monkeypatch):
    # translinear variants, two of one bias, beside a second translinear
    # amplifier and a memoryless behavioral one: over the run's times, each
    # distinct spec (by repr) is sampled once, however many circuits hold it
    circuits = _variants(TRANSLINEAR, "ibval", [20e-6, 50e-6, 50e-6, 90e-6]) + [
        parse_and_flatten(emit_example("ferri_2cc", AmplifierConfig(conveyor=TranslinearConveyor()))),
        parse_and_flatten(emit_example("proposed_amp")),
    ]
    dt, tstop = 1e-5, 2e-4
    n_times = int(round(tstop / dt)) + 1
    sample, calls = mna.source_samples, []

    def counted(spec, times):
        if np.size(times) == n_times:
            calls.append(repr(spec))
        return sample(spec, times)

    monkeypatch.setattr(mna, "source_samples", counted)
    waves = list(run_transient_stacked(circuits, dt, tstop))
    assert all(isinstance(w, Waveform) for w in waves)
    specs = {repr(e.spec) for c in circuits for e in c.elements if isinstance(e, (VSource, ISource))}
    assert sorted(calls) == sorted(specs)


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
    out = list(run_transient_stacked(circuits, dt, 30 * dt, "trap", tol))
    with pytest.raises(error) as single:
        run_transient(circuits[1], dt, 30 * dt, "trap", tol)
    assert type(out[1]) is error and str(out[1]) == str(single.value)
    for c, w in zip(circuits[::2], out[::2]):
        ref = run_transient(c, dt, 30 * dt, "trap", tol)
        assert all(np.array_equal(w.column(n), ref.column(n)) for n in ref.columns)


def reference_dc_sweep(c, name, start, stop, step, tol):
    """The per-point loop a ``.dc`` sweep once ran: a new circuit with
    the source at each value, solved by :func:`newton_dc` from the point
    before.  Returns the values and an (unknowns x points) matrix."""
    idx = next(i for i, e in enumerate(c.elements) if isinstance(e, (VSource, ISource)) and e.name == name)
    values = start + np.arange(int(round((stop - start) / step)) + 1) * step
    x, points = None, []
    for v in values:
        elems = list(c.elements)
        elems[idx] = elems[idx]._replace(spec=Dc(float(v)))
        x = newton_dc(mna.compile(FlatCircuit(c.nodes, elems, c.directives), tol.gmin_floor), tol, x0=x).x
        points.append(x)
    return values, np.array(points).T


DC_SWEEPS = {
    "divider": ("t\nv1 a 0 DC 0\nr1 a m 1k\nr2 m 0 1k\n.end\n", "v1", 0.0, 1.0, 0.25, Tolerances()),
    "conveyor": (CONVEYOR_DC, "v1", -1.0, 1.0, 0.01, Tolerances()),
    "translinear": (TRANSLINEAR, "vin", -0.1, 0.1, 0.2 / 120, Tolerances()),
    "capacitor": ("t\nv1 in 0 DC 0\nr1 in c 1k\nc1 c 0 1u\nr2 c 0 2k\n.end\n", "v1", 0.0, 1.0, 0.1,
                  Tolerances()),
    "current": ("t\ni1 0 a DC 0\nr1 a 0 1k\nr2 a b 2k\nr3 b 0 1k\n.end\n", "i1", -1e-3, 1e-3, 2.5e-4,
                Tolerances()),
    # v1 and v2 share one source-table spec; i1 and i2 share it and their
    # buffer positions too
    "equal_specs": ("t\nv1 a 0 DC 1\nv2 b 0 DC 1\nr1 a m 1k\nr2 b m 2k\nr3 m 0 1k\n.end\n", "v2",
                    0.0, 2.0, 0.5, Tolerances()),
    "parallel": ("t\ni1 0 a DC 1m\ni2 0 a DC 1m\nr1 a 0 1k\n.end\n", "i2", 0.0, 2e-3, 5e-4, Tolerances()),
    "negative_step": (TRANSLINEAR, "vss", 0.0, -2.0, -0.5, Tolerances()),
    # 3 points are rescued by the gmin ladder
    "rescued": (TRANSLINEAR, "vin", -0.8, 0.8, 0.4, Tolerances(maxiter=8)),
}


@pytest.mark.parametrize("case", DC_SWEEPS)
def test_dc_sweep_equals_the_per_point_loop(case, monkeypatch):
    text, name, start, stop, step, tol = DC_SWEEPS[case]
    c = parse_and_flatten(text)
    values, want = reference_dc_sweep(c, name, start, stop, step, tol)
    rescues, ladder = [], solver.gmin_stepped_dc

    def counted(*args, **kwargs):
        rescues.append(1)
        return ladder(*args, **kwargs)

    for module in (solver, transient):
        monkeypatch.setattr(module, "gmin_stepped_dc", counted)
    w = run_dc_sweep(c, name, start, stop, step, tol)
    assert len(rescues) == (3 if case == "rescued" else 0)
    assert w.times.tobytes() == values.tobytes()
    assert (w.time_label, w.method) == (name, "dc")
    for i, unknown in enumerate(index_unknowns(c).names):
        assert w.column(unknown).tobytes() == want[i].tobytes(), unknown
    # each point is an operating point, capacitors open: KCL holds to the
    # Newton's acceptance.  The oracle takes the swept source at 0 and
    # the sweep's values are added for a current source.
    swept = next(e for e in c.elements if e.name == name)
    elems = [e._replace(spec=Dc(0.0)) if e is swept else e
             for e in c.elements if not isinstance(e, Capacitor)]
    net, scale = node_kcl_residuals(FlatCircuit(c.nodes, elems, ()), w)
    if isinstance(swept, ISource):
        for node, sign in ((swept.p, 1.0), (swept.n, -1.0)):
            if node != "0":
                net[node] += sign * w.times
                scale[node] += np.abs(w.times)
    for node in net:
        assert np.all(np.abs(net[node]) <= tol.abstol + 1e-9 * scale[node]), node


def test_dc_sweep_clamps_the_conveyor_output():
    # the clamp of the stepped loop holds a .dc point too (gain 10, +-0.5 V)
    c = parse_and_flatten("t\nv1 in 0 DC 0\nu1 in x out ccii+ rx=0 vmin=-0.5 vmax=0.5\n"
                          "r1 x 0 1k\nr2 out 0 10k\n.end\n")
    w = run_dc_sweep(c, "v1", -0.2, 0.2, 0.01)
    out = w.column("v(out)")
    assert out == pytest.approx(np.clip(10.0 * w.times, -0.5, 0.5), rel=1e-7)
    assert (out.min(), out.max()) == (-0.5, 0.5)


def _two_conveyors(clamp1, clamp2, cap=""):
    # u1 and u2 both drive node out (gain 1.5); each clamp is (vmin, vmax) or None
    def clamp(c):
        return "" if c is None else f" vmin={c[0]} vmax={c[1]}"

    return parse_and_flatten(f"t\nv1 in 0 SIN(0 1 1k)\nu1 in x1 out ccii+ rx=0{clamp(clamp1)}\n"
                             f"u2 in x2 out ccii+ rx=0{clamp(clamp2)}\nr1 x1 0 1k\nr2 x2 0 2k\n"
                             f"r3 out 0 1k\n{cap}.end\n")


@pytest.mark.parametrize("clamp1,clamp2,composite", [
    ((-0.3, 0.6), (-0.5, 0.4), (-0.3, 0.4)),  # nested
    ((-0.5, -0.1), (0.2, 0.6), (0.2, 0.2)),  # disjoint
    ((0.4, -0.2), None, (-0.2, -0.2)),  # vmin > vmax
])
def test_a_node_clamped_twice_records_the_clips_in_element_order(clamp1, clamp2, composite):
    def clipped(free):
        # ``free``, the unclamped run, with v(out) clipped by u1, then by u2
        out = free.column("v(out)")
        for c in (clamp1, clamp2):
            out = out if c is None else np.clip(out, *c)
        return {**free.columns, "v(out)": out}

    def assert_columns(w, columns):
        assert w.columns.keys() == columns.keys()
        for name, col in columns.items():
            assert np.array_equal(w.columns[name], col), name

    c, free = _two_conveyors(clamp1, clamp2), _two_conveyors(None, None)
    # memoryless: the clamp is applied to each waveform as it is formed
    w = run_transient(c, 1e-5, 1e-3)
    assert_columns(w, clipped(run_transient(free, 1e-5, 1e-3)))
    assert (w.column("v(out)").min(), w.column("v(out)").max()) == composite
    # .dc: each point of a linear circuit is one solve, whatever its start
    sweep = (-1.0, 1.0, 0.05)
    assert_columns(run_dc_sweep(c, "v1", *sweep), clipped(run_dc_sweep(free, "v1", *sweep)))
    # stepped: the clamped state is the capacitor's history, so the run
    # equals one clamp at the composite of the two, written out here
    cap = "c1 out 0 100n\n"
    once = _two_conveyors(None, composite, cap)
    for method in ("be", "trap"):
        w = run_transient(_two_conveyors(clamp1, clamp2, cap), 1e-5, 1e-3, method)
        assert_columns(w, run_transient(once, 1e-5, 1e-3, method).columns)


def test_dc_sweep_step_must_lead_from_start_to_stop():
    c = parse_and_flatten("t\nv1 a 0 DC 0\nr1 a m 1k\nr2 m 0 1k\n.end\n")
    for step in (0.0, -0.25):
        with pytest.raises(ValueError, match="step"):
            run_dc_sweep(c, "v1", 0.0, 1.0, step)


@pytest.mark.parametrize("start,stop,point", [(50e-6, 100.00005, "=1.000000500e+02 (point 1)"),
                                              (100.0, 100.0, "=1.000000000e+02 (point 0)")])
def test_dc_sweep_failure_names_the_source_and_value(start, stop, point):
    # a 100 A bias fails DC even with gmin stepping
    c = parse_and_flatten(TRANSLINEAR)
    with pytest.raises(ConvergenceError) as failed:
        run_dc_sweep(c, "xu1.ibias", start, stop, 100.0)
    assert str(failed.value).startswith("dc sweep Newton failure at xu1.ibias" + point)
    assert "transient" not in str(failed.value)
