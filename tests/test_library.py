import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsim.library import (
    CORE_BETA,
    EXAMPLE_NAMES,
    AmplifierConfig,
    BehavioralConveyor,
    TranslinearConveyor,
    emit_example,
    example_config,
    expected_rx,
    gain_grid,
    loaded_gain,
    measure_rx_emergent,
    simulated_gain,
    tuning_case,
)
from ccsim.devices import Dc, Pulse, Sin, conveyor_rx
from ccsim.measure import gain
from ccsim.netlist import Conveyor, Resistor, expand_hierarchy, parse_and_flatten, parse_netlist
from ccsim.transient import run_transient

from conftest import assembled


def test_loaded_gain_values():
    assert loaded_gain(1e3, 100e3, 0.0) == pytest.approx(100.0, rel=1e-12)
    assert loaded_gain(2e3, 50e3, 0.0) == pytest.approx(25.0, rel=1e-12)
    assert loaded_gain(1e3, 1e3, 1581.0) == pytest.approx(0.3875, abs=5e-4)
    with pytest.raises(ValueError):
        loaded_gain(0.0, 1e3, 0.0)


def test_tuning_cases():
    # r1 > r2 attenuates for any rx >= 0
    for rx in (0.0, 500.0, 1581.0):
        assert tuning_case(2e3, 1e3, rx) == "attenuating"
    # r2 well above r1 + rx amplifies
    assert tuning_case(1e3, 100e3, 1581.0) == "amplifying"
    # equal resistors: unity only in the ideal rx = 0 case
    assert tuning_case(1e3, 1e3, 0.0) == "unity"
    for rx in (1.0, 500.0, 1581.0):
        assert tuning_case(1e3, 1e3, rx) == "attenuating"


@given(
    r1=st.floats(10.0, 1e6),
    r2=st.floats(10.0, 1e6),
    rx=st.one_of(st.just(0.0), st.floats(1e-3, 1e5)),
    scale=st.floats(1.5, 100.0),
)
def test_common_scale_behavior(r1, r2, rx, scale):
    g = loaded_gain(r1, r2, rx)
    g_scaled = loaded_gain(r1 * scale, r2 * scale, rx)
    if rx == 0.0:
        assert g_scaled == pytest.approx(g, rel=1e-12)
    else:
        assert g_scaled > g  # rx matters less as both resistors grow


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_emitted_netlists_parse(name):
    text = emit_example(name)
    ast = parse_netlist(text)  # must not raise
    assert ast.elements or ast.subckt_defs
    parse_and_flatten(text)


# every example with each conveyor family that `ccsim examples --family` applies to it
WRITER_CASES = [
    (name, family)
    for name in EXAMPLE_NAMES
    for family in (("behavioral",) if isinstance(example_config(name).conveyor, BehavioralConveyor)
                   else ()) + ("cccii", "ccii")
]
CORE_DEVICES = {"cccii": ("mn1", "mn2", "mp1", "mp2"), "ccii": ("mnf", "mpf")}
finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-12, 1e9)
sources = st.one_of(
    st.builds(Dc, finite),
    st.builds(Sin, finite, finite, positive),
    st.builds(Pulse, finite, finite, finite, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1e6), positive),
)


@pytest.mark.parametrize("name, family", WRITER_CASES)
@settings(max_examples=20, deadline=None)
@given(r1=positive, r2=positive, rx=st.floats(0.0, 1e6), explicit_rx=st.booleans(), ib=positive,
       beta=positive, rails=positive, clamp=st.tuples(st.floats(-10.0, 0.0), st.floats(0.0, 10.0)),
       source=sources)
def test_writer_numbers_read_back_exactly(name, family, r1, r2, rx, explicit_rx, ib, beta, rails,
                                          clamp, source):
    # the library's writer is the one code that writes netlist text: every
    # number it writes reads back as the same double once flattened
    conv = example_config(name).conveyor
    if family == "behavioral":
        conv = conv._replace(rx=rx if explicit_rx or not conv.controlled else None, ib=ib, beta_n=beta,
                             vmin=clamp[0], vmax=clamp[1])
    else:
        conv = TranslinearConveyor(ib=ib, family=family, rails=rails)
    ast = parse_netlist(emit_example(name, AmplifierConfig(r1=r1, r2=r2, conveyor=conv, input=source)))
    c = expand_hierarchy(ast)
    els = {e.name: e for e in c.elements}
    if name != "cccii_char":
        assert (els["r1"].ohms, els["r2"].ohms) == (r1, r2)
        assert els["vin"].spec == source
    if family == "behavioral":
        written = {e.name: e for e in ast.elements if e.kind == "u"}
        for u in (e for e in c.elements if isinstance(e, Conveyor)):
            if conv.rx is None:
                assert (written[u.name].param("ib"), written[u.name].param("beta")) == (ib, beta)
                assert u.rx == conveyor_rx(beta, ib)
            else:
                assert u.rx == rx
            assert (u.vmin, u.vmax) == clamp
    else:
        assert (els["vdd"].spec, els["vss"].spec, els["xu1.ibias"].spec) == (Dc(rails), Dc(-rails), Dc(ib))
        # the model cards' suffixed numbers read as written: un_cox * w / l is CORE_BETA exactly
        assert {els[f"xu1.{m}"].params.beta for m in CORE_DEVICES[family]} == {CORE_BETA}


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_config_is_the_default(name):
    assert emit_example(name) == emit_example(name, example_config(name))


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        emit_example("nosuch")
    with pytest.raises(ValueError, match="unknown example 'nosuch'"):
        example_config("nosuch")


def test_two_conveyor_amplifier_structure():
    c = parse_and_flatten(emit_example("ferri_2cc"))
    conveyors = [e for e in c.elements if isinstance(e, Conveyor)]
    resistors = [e for e in c.elements if isinstance(e, Resistor)]
    assert len(conveyors) == 2
    assert len(resistors) == 2
    # the buffer's Z terminal touches nothing else
    zf = conveyors[0].z
    touching = [
        e for e in c.elements
        if zf in (getattr(e, "a", None), getattr(e, "b", None),
                  getattr(e, "p", None), getattr(e, "n", None),
                  getattr(e, "y", None), getattr(e, "x", None))
    ]
    assert not touching


def test_simulated_gain_tracks_formula_spot_checks():
    for r1, r2, rx in [(1e3, 100e3, 0.0), (2e3, 50e3, 500.0), (100.0, 10e3, 1581.0)]:
        sim = simulated_gain(r1, r2, rx)
        assert sim == pytest.approx(loaded_gain(r1, r2, rx), rel=5e-3)


@pytest.mark.parametrize("kwargs", [{}, {"clip": (-0.5, 0.5)}, {"dt": 2e-6, "periods": 3}],
                         ids=["default", "clip", "dt"])
def test_gain_grid_points_equal_single_runs(kwargs):
    r1s, r2s, rxs = (100.0, 1e3), (1e3, 100e3), (0.0, 500.0)
    rows = list(gain_grid(r1s, r2s, rxs, **kwargs))
    assert [row[:3] for row in rows] == [(r1, r2, rx) for r1 in r1s for r2 in r2s for rx in rxs]
    clip = kwargs.get("clip")
    for r1, r2, rx, sim, formula in rows:
        assert formula == loaded_gain(r1, r2, rx)
        assert sim == simulated_gain(r1, r2, rx, **kwargs)
        # the amplifier emitted with its values, run on its own
        conv = BehavioralConveyor(rx=rx, vmin=clip and clip[0], vmax=clip and clip[1])
        cfg = AmplifierConfig(r1=r1, r2=r2, conveyor=conv, input=Sin(0.0, 0.05, 1e3))
        wave = run_transient(parse_and_flatten(emit_example("proposed_amp", cfg)),
                             kwargs.get("dt", 1e-6), kwargs.get("periods", 5) / 1e3)
        assert sim == gain(wave, "v(in)", "v(out)")
    if clip:  # r2/r1 = 1000 drives the output into the clamp: 1 V over 0.1 V peak to peak
        assert rows[2][3] == pytest.approx(10.0)


def test_gain_grid_holds_one_waveform_at_a_time():
    import tracemalloc

    r_values, rx_values = (100.0, 1e3, 2e3, 10e3, 100e3), (0.0, 500.0, 1581.0)
    tracemalloc.start()
    try:
        n = sum(1 for _ in gain_grid(r_values, r_values, rx_values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one waveform is 6 unknowns x 5001 samples, 0.24 MB; all 75 are 18 MB
    assert n == 75 and peak < 2e6


def test_emitted_amp_simulates_to_gain_100():
    cfg = AmplifierConfig(r1=1e3, r2=100e3, conveyor=BehavioralConveyor(rx=0.0))
    text = emit_example("proposed_amp", cfg)
    from ccsim.measure import gain
    from ccsim.transient import run_transient

    c = parse_and_flatten(text)
    tran = next(d for d in c.directives if d.kind == "tran")
    w = run_transient(c, tran.args[0], tran.args[1], tran.args[2])
    assert gain(w, "v(in)", "v(out)") == pytest.approx(100.0, rel=1e-3)


def test_rx_extraction_single_point():
    rx = measure_rx_emergent(50e-6)
    assert rx == pytest.approx(expected_rx(50e-6), rel=0.2)


def test_rx_extraction_small_signal_linearity():
    r1 = measure_rx_emergent(50e-6, delta_frac=0.01)
    r2 = measure_rx_emergent(50e-6, delta_frac=0.005)
    assert abs(r1 - r2) / r1 < 0.01


@pytest.mark.parametrize("family,ib", [("cccii", 12.5e-6), ("cccii", 50e-6), ("cccii", 200e-6),
                                       ("ccii", 50e-6)])
def test_rx_converges_to_the_jacobian_rx_at_second_order(family, ib):
    # at the bench's operating point with no probe current, the assembled
    # matrix A is the circuit's Jacobian, so dV_X/dI_X is (A^-1)_xx; the
    # centred difference misses it by O(delta^2), a quarter per halving
    from ccsim import mna
    from ccsim.solver import newton_dc

    ast = parse_netlist(emit_example(
        "cccii_char", AmplifierConfig(conveyor=TranslinearConveyor(ib=ib, family=family, rails=1.5))
    ))
    c = expand_hierarchy(ast, {"iprobe": 0.0})
    u = mna.index_unknowns(c)
    a = assembled(c, 0.0, x_est=newton_dc(mna.compile(c)).x).a
    x = u.node_row(c.nodes["x"])
    jacobian_rx = np.linalg.solve(a, np.eye(u.size)[x])[x]
    gaps = [abs(measure_rx_emergent(ib, family=family, delta_frac=d) - jacobian_rx)
            for d in (0.02, 0.01, 0.005, 0.0025)]
    for wide, narrow in zip(gaps, gaps[1:]):
        assert wide / narrow == pytest.approx(4.0, abs=0.5)


def test_translinear_amp_converges_and_follows():
    from ccsim.measure import gain
    from ccsim.transient import run_transient

    cfg = AmplifierConfig(
        r1=1e3, r2=1e3, conveyor=TranslinearConveyor(ib=50e-6, rails=1.0)
    )
    c = parse_and_flatten(emit_example("proposed_amp_translinear", cfg))
    tran = next(d for d in c.directives if d.kind == "tran")
    w = run_transient(c, tran.args[0], tran.args[1], tran.args[2])
    g = gain(w, "v(in)", "v(out)")
    # the emergent rx shifts the gain a little from the behavioral value
    assert g == pytest.approx(loaded_gain(1e3, 1e3, expected_rx(50e-6)), rel=0.1)
