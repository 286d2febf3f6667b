import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccsim.devices import (
    Dc,
    MosfetParams,
    Pulse,
    Sin,
    conveyor_rx,
    mosfet_eval,
    source_samples,
    source_value,
)

NMOS = MosfetParams("nmos", vth=0.4, beta=2e-4, lam=0.0)


def fd_derivatives(vgs, vds, p, h=1e-7):
    gm = (mosfet_eval(vgs + h, vds, p)[0] - mosfet_eval(vgs - h, vds, p)[0]) / (2 * h)
    gds = (mosfet_eval(vgs, vds + h, p)[0] - mosfet_eval(vgs, vds - h, p)[0]) / (2 * h)
    return gm, gds


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-15)


def test_cutoff():
    assert mosfet_eval(0.3, 1.0, NMOS) == (0.0, 0.0, 0.0)


def test_saturation_hand_value():
    i, gm, gds = mosfet_eval(1.0, 1.0, NMOS)
    assert i == pytest.approx(3.6e-5, rel=1e-12)  # (beta/2)*(0.6)^2
    assert gm == pytest.approx(2e-4 * 0.6, rel=1e-12)
    assert gds == 0.0


def test_boundary_continuity():
    # triode and saturation agree exactly at vds = vgs - vth
    for lam in (0.0, 0.1):
        p = MosfetParams("nmos", 0.4, 2e-4, lam)
        below = mosfet_eval(1.0, 0.6 - 1e-12, p)[0]
        above = mosfet_eval(1.0, 0.6 + 1e-12, p)[0]
        assert abs(below - above) < 1e-12
    i_tri = mosfet_eval(1.0, 0.6, NMOS)[0]
    assert i_tri == pytest.approx(3.6e-5, rel=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.1])
def test_derivatives_match_finite_differences(lam, rng):
    p = MosfetParams("nmos", 0.4, 2e-4, lam)
    margin = 1e-3
    for _ in range(300):
        region = rng.integers(3)
        if region == 0:  # cutoff
            vgs = rng.uniform(-1.0, p.vth - margin)
            vds = rng.uniform(margin, 2.0)
        elif region == 1:  # triode
            vov = rng.uniform(0.05, 1.5)
            vgs = p.vth + vov
            vds = rng.uniform(margin, vov - margin)
        else:  # saturation
            vov = rng.uniform(0.05, 1.5)
            vgs = p.vth + vov
            vds = rng.uniform(vov + margin, 3.0)
        _, gm, gds = mosfet_eval(vgs, vds, p)
        fgm, fgds = fd_derivatives(vgs, vds, p)
        assert rel(gm, fgm) < 1e-4
        assert rel(gds, fgds) < 1e-4


def test_reverse_mode_derivatives(rng):
    # swapped drain/source still has an exact jacobian
    p = MosfetParams("nmos", 0.4, 2e-4, 0.05)
    for _ in range(200):
        vgs = rng.uniform(-0.5, 1.5)
        vds = rng.uniform(-2.0, -1e-3)
        _, gm, gds = mosfet_eval(vgs, vds, p)
        fgm, fgds = fd_derivatives(vgs, vds, p)
        assert rel(gm, fgm) < 1e-4
        assert rel(gds, fgds) < 1e-4


@given(
    vgs=st.floats(-2, 2),
    vds=st.floats(-2, 2),
    lam=st.sampled_from([0.0, 0.05]),
)
def test_pmos_mirrors_nmos(vgs, vds, lam):
    n = MosfetParams("nmos", 0.4, 2e-4, lam)
    p = MosfetParams("pmos", 0.4, 2e-4, lam)
    i_n, gm_n, gds_n = mosfet_eval(-vgs, -vds, n)
    i_p, gm_p, gds_p = mosfet_eval(vgs, vds, p)
    assert i_p == pytest.approx(-i_n, abs=1e-18)
    assert gm_p == pytest.approx(gm_n, abs=1e-18)
    assert gds_p == pytest.approx(gds_n, abs=1e-18)


def test_conveyor_rx_values():
    assert conveyor_rx(1e-3, 5e-5) == pytest.approx(1581.14, abs=0.01)
    assert conveyor_rx(1e-3, 2e-4) == pytest.approx(790.57, abs=0.01)
    assert conveyor_rx(1e-3, 5e-5) / conveyor_rx(1e-3, 2e-4) == pytest.approx(2.0, rel=1e-12)
    assert conveyor_rx(4e-3, 5e-5) == pytest.approx(conveyor_rx(1e-3, 5e-5) / 2, rel=1e-12)


@given(
    beta=st.floats(1e-6, 1e-1),
    ib=st.floats(1e-9, 1e-2),
    factor=st.floats(1.01, 100.0),
)
def test_conveyor_rx_monotone_and_identity(beta, ib, factor):
    r = conveyor_rx(beta, ib)
    assert conveyor_rx(beta, ib * factor) < r
    assert conveyor_rx(beta * factor, ib) < r
    assert abs(r * r * 8.0 * beta * ib - 1.0) < 1e-12


@pytest.mark.parametrize("beta,ib", [(0.0, 1e-5), (1e-3, 0.0), (-1.0, 1e-5), (1e-3, -1e-6)])
def test_conveyor_rx_domain(beta, ib):
    with pytest.raises(ValueError):
        conveyor_rx(beta, ib)


def test_source_values():
    assert source_value(Dc(2.5), 17.0) == 2.5
    s = Sin(0.0, 0.05, 1e3)
    assert source_value(s, 0.0) == 0.0
    assert source_value(s, 0.25e-3) == pytest.approx(0.05, rel=1e-12)
    # hand-drawn timing diagram: rise 0..1u, top 1u..6u, fall 6u..7u, low 7u..10u
    p = Pulse(0.0, 1.0, 0.0, 1e-6, 1e-6, 5e-6, 10e-6)
    for t, v in [
        (0.0, 0.0),
        (0.5e-6, 0.5),
        (3e-6, 1.0),
        (6.5e-6, 0.5),
        (8e-6, 0.0),
        (13e-6, 1.0),  # second cycle, top
    ]:
        assert source_value(p, t) == pytest.approx(v, abs=1e-12)


def test_sin_invariants():
    with pytest.raises(ValueError):
        Sin(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Pulse(0, 1, 0, -1e-9, 0, 1, 2)


# a pulse whose fall ends at 20 steps of dt = EDGE_DT, where two roundings
# of the fall-edge formula gave 0.0 and 6.7e-16
EDGE_DT = 3.0052388797929313e-05 / 20
EDGE_PULSE = Pulse(0.0, 1.0, EDGE_DT, 2 * EDGE_DT, EDGE_DT, 16 * EDGE_DT, 60 * EDGE_DT)


@given(st.floats(0, 1e-3))
@example(20 * EDGE_DT)
@settings(max_examples=200)
def test_vectorized_sources_match_scalar(t):
    specs = [
        Dc(1.5),
        Sin(0.1, 0.05, 1e3),
        Pulse(0.0, 1.0, 2e-5, 1e-6, 2e-6, 5e-6, 2e-5),
        Pulse(-1.0, 1.0, 0.0, 0.0, 0.0, 5e-6, 1e-5),
        EDGE_PULSE,
    ]
    for s in specs:
        assert source_value(s, t) == source_samples(s, np.array([t]))[0]


def test_pulse_fall_edge_ends_on_v1():
    times = np.arange(21) * EDGE_DT
    assert source_samples(EDGE_PULSE, times)[20] == 0.0
    assert source_value(EDGE_PULSE, times[20]) == 0.0
