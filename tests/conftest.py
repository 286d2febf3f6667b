"""Shared circuit builders and the conveyor port-equation checker."""

import numpy as np
import pytest

from ccsim import mna
from ccsim.devices import source_samples
from ccsim.library import AmplifierConfig, BehavioralConveyor, emit_example
from ccsim.netlist import (
    Capacitor,
    Conveyor,
    ISource,
    Resistor,
    VSource,
    parse_and_flatten,
)
from ccsim.transient import run_transient


def behavioral_amp_netlist(r1=1e3, r2=100e3, rx=0.0, amplitude=0.05, freq=1e3, **kw):
    cfg = AmplifierConfig(
        r1=r1,
        r2=r2,
        conveyor=BehavioralConveyor(rx=rx, **kw),
    )
    return emit_example("proposed_amp", cfg)


def behavioral_amp(r1=1e3, r2=100e3, rx=0.0, **kw):
    return parse_and_flatten(behavioral_amp_netlist(r1=r1, r2=r2, rx=rx, **kw))


def run_amp(r1=1e3, r2=100e3, rx=0.0, dt=1e-6, periods=5, freq=1e3, **kw):
    c = behavioral_amp(r1=r1, r2=r2, rx=rx, **kw)
    return c, run_transient(c, dt, periods / freq, "trap")


def conveyor_port_residuals(c, wave):
    """Worst-case conveyor port-equation residuals over a whole waveform.

    Reconstructs, from the recorded unknowns alone, the current every
    non-conveyor element pours into each node; what is left for a conveyor
    terminal to absorb is its measured port current.  Returns, per
    conveyor, (max |I_Y|, max |I_Z - polarity*I_X|, max |V_X - V_Y - rx*I_X|).
    """
    times = wave.times

    def vcol(node):
        return wave.column(f"v({node})")

    # inflow from everything except conveyors (gmin floor included)
    inflow = {
        node: -mna.GMIN_FLOOR * vcol(node) for node in c.nodes if node != "0"
    }

    def add(node, cur):
        if node != "0":
            inflow[node] = inflow[node] + cur

    conveyors = [e for e in c.elements if isinstance(e, Conveyor)]
    for e in c.elements:
        if isinstance(e, Resistor):
            i_ab = (vcol(e.a) - vcol(e.b)) / e.ohms
            add(e.a, -i_ab)
            add(e.b, i_ab)
        elif isinstance(e, Capacitor):
            raise AssertionError("port checker expects capacitor-free circuits")
        elif isinstance(e, VSource):
            i = wave.column(f"i({e.name})")
            add(e.p, -i)
            add(e.n, i)
        elif isinstance(e, ISource):
            val = source_samples(e.spec, times)
            add(e.p, -val)
            add(e.n, val)

    def conveyor_into(m, node):
        cur = np.zeros_like(times)
        ix = wave.column(f"i({m.name})")
        if m.x == node:
            cur = cur - ix
        if m.z == node:
            cur = cur - m.params.polarity * ix
        return cur

    out = {}
    for k in conveyors:
        others_y = inflow.get(k.y, np.zeros_like(times)).copy()
        others_z = inflow.get(k.z, np.zeros_like(times)).copy()
        for m in conveyors:
            if m is not k:
                others_y += conveyor_into(m, k.y)
                others_z += conveyor_into(m, k.z)
        ix = wave.column(f"i({k.name})")
        iy = others_y if k.y != "0" else np.zeros_like(times)
        iz = others_z if k.z != "0" else None
        assert iz is not None, "library conveyors never ground Z"
        vy = vcol(k.y) if k.y != "0" else np.zeros_like(times)
        branch = vcol(k.x) - vy - k.params.rx * ix
        out[k.name] = (
            float(np.max(np.abs(iy))),
            float(np.max(np.abs(iz - k.params.polarity * ix))),
            float(np.max(np.abs(branch))),
        )
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def node_kcl_residuals(c, wave):
    """Net current out of every non-ground node at every recorded sample,
    rebuilt from the element laws and the recorded unknowns alone.

    Returns ``(net, scale)``: per node, the summed current the elements
    draw from the node, and the summed magnitude of the terms that make
    up those currents (``G*va`` and ``G*vb`` apart for a two-terminal
    element), so a check can be relative to the round-off a solve leaves
    there.  Capacitor currents follow
    the discrete law of the run: zero at the operating point, backward
    Euler on the first step and for ``be`` runs, trapezoidal after that.
    """
    times = wave.times
    zero = np.zeros_like(times)

    def vcol(node):
        return wave.column(f"v({node})")

    net = {node: zero.copy() for node in c.nodes if node != "0"}
    scale = {node: zero.copy() for node in c.nodes if node != "0"}

    def flow(node, cur, mag=None):
        if node != "0":
            net[node] += cur
            scale[node] += np.abs(cur) if mag is None else mag

    for node in net:
        flow(node, mna.GMIN_FLOOR * vcol(node))
    for e in c.elements:
        if isinstance(e, Resistor):
            va, vb = vcol(e.a), vcol(e.b)
            i_ab = (va - vb) / e.ohms
            mag = (np.abs(va) + np.abs(vb)) / e.ohms
            flow(e.a, i_ab, mag)
            flow(e.b, -i_ab, mag)
        elif isinstance(e, VSource):
            i = wave.column(f"i({e.name})")
            flow(e.p, i)
            flow(e.n, -i)
        elif isinstance(e, ISource):
            val = source_samples(e.spec, times)
            flow(e.p, val)
            flow(e.n, -val)
        elif isinstance(e, Conveyor):
            ix = wave.column(f"i({e.name})")
            flow(e.x, ix)
            flow(e.z, e.params.polarity * ix)
        elif isinstance(e, Capacitor):
            v = vcol(e.a) - vcol(e.b)
            size = np.abs(vcol(e.a)) + np.abs(vcol(e.b))
            i = zero.copy()
            mag = zero.copy()
            for k in range(1, len(times)):
                trap = wave.method == "trap" and k > 1
                geq = (2.0 if trap else 1.0) * e.farads / (times[k] - times[k - 1])
                hist = i[k - 1] if trap else 0.0
                i[k] = geq * (v[k] - v[k - 1]) - hist
                mag[k] = geq * (size[k] + size[k - 1]) + abs(hist)
            flow(e.a, i, mag)
            flow(e.b, -i, mag)
        else:
            raise AssertionError(f"KCL oracle has no law for {type(e).__name__}")
    return net, scale
