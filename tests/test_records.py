"""Record semantics: construction, equality, hashing, repr and
immutability of ccsim's value records, and the cost of importing them."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccsim import mna
from ccsim.devices import Dc, MosfetBank, MosfetParams, Pulse, Sin
from ccsim.library import AmplifierConfig, BehavioralConveyor, TranslinearConveyor
from ccsim.measure import Histogram, Measurement
from ccsim.solver import Tolerances
from ccsim.netlist import (
    Capacitor,
    Conveyor,
    Directive,
    ElementSpec,
    ISource,
    ModelCard,
    Mosfet,
    NetlistAst,
    Resistor,
    SubcktDef,
    VSource,
)

NMOS = MosfetParams("nmos", 0.4, 1e-3, 0.05)
SPEC = ElementSpec("r", "r1", ("a", "b"), (("value", 1e3),), line=4)
FROZEN = [
    Dc(1.0),
    Sin(0.0, 0.05, 1e3),
    Pulse(0.0, 1.0, 0.0, 1e-6, 1e-6, 1e-3, 2e-3),
    NMOS,
    MosfetBank.of([NMOS]),
    SPEC,
    ModelCard("n", "nmos", 0.4, 1e-3, None, None, None, 0.0, line=2),
    SubcktDef("cell", ("a",), (SPEC,), line=3),
    Directive("op", (), line=5),
    NetlistAst("t", (SPEC,), (), (), ()),
    Resistor("r1", "a", "b", 1.0),
    Capacitor("c1", "a", "b", 1e-9),
    VSource("v1", "a", "0", Dc(1.0)),
    ISource("i1", "a", "0", Dc(1e-3)),
    Mosfet("m1", "d", "g", "s", "b", NMOS),
    Conveyor("u1", "y", "x", "z", 1, 0.0),
    Histogram(0.0, 1.0, 2, (1, 1)),
    Measurement("g", "gain", 2.0, "V/V"),
    BehavioralConveyor(),
    TranslinearConveyor(),
    AmplifierConfig(),
    Tolerances(),
]


def test_equality_is_class_aware():
    assert Resistor("r", "a", "b", 1.0) != Capacitor("r", "a", "b", 1.0)
    assert Dc(1.0) != (1.0,)
    assert Resistor("r", "a", "b", 1.0) == Resistor("r", "a", "b", 1.0)
    assert VSource("v", "a", "0", Dc(1.0)) != ISource("v", "a", "0", Dc(1.0))


@pytest.mark.parametrize("make", [
    lambda line: ElementSpec("r", "r1", ("a", "b"), (("value", 1e3),), line=line),
    lambda line: ModelCard("n", "nmos", 0.4, 1e-3, None, None, None, 0.0, line=line),
    lambda line: SubcktDef("cell", ("a", "b"), (), line=line),
    lambda line: Directive("tran", (1e-6, 1e-3, "be"), line=line),
])
def test_source_line_takes_no_part_in_equality_or_hash(make):
    a, b = make(3), make(7)
    assert a.line == 3 and b.line == 7
    assert a == b
    assert hash(a) == hash(b)


def test_equal_records_hash_equal():
    assert hash(Sin(0.0, 0.05, 1e3)) == hash(Sin(0.0, 0.05, 1e3))
    assert hash(Mosfet("m", "d", "g", "s", "b", NMOS)) == hash(Mosfet("m", "d", "g", "s", "b", NMOS))
    assert len({Dc(1.0), Dc(1.0), Dc(2.0)}) == 2


def test_repr_names_every_field():
    assert repr(Sin(0.0, 0.05, 1000.0)) == "Sin(offset=0.0, amplitude=0.05, freq=1000.0)"
    assert repr(Directive("op", (), 3)) == "Directive(kind='op', args=(), line=3)"
    assert repr(Conveyor("u1", "y", "x", "z", 1, 0.0)) == (
        "Conveyor(name='u1', y='y', x='x', z='z', polarity=1, rx=0.0, vmin=None, vmax=None)"
    )


def test_source_table_tells_negative_zero_from_zero():
    table = mna.SourceTable(np.array([0, 1, 2]), np.array([1.0, 1.0, -1.0]), [Dc(0.0), Dc(-0.0), Dc(0.0)],
                            np.array(["v1", "v2", "v3"]))
    sampled = {}
    column = table.samples(np.array([0.0]), sampled)[:, 0]
    assert list(sampled) == ["Dc(value=0.0)", "Dc(value=-0.0)"]
    assert [repr(v) for v in column.tolist()] == ["0.0", "-0.0", "-0.0"]


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, next(iter(type(record).__annotations__)), 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)


@pytest.mark.parametrize("make, message", [
    (lambda: MosfetParams("bjt", 0.4, 1e-3), "bad MOSFET polarity 'bjt'"),
    (lambda: MosfetParams("nmos", 0.4, 0.0), "MOSFET beta must be positive"),
    (lambda: MosfetParams("nmos", 0.4, 1e-3, -1.0), "MOSFET lambda must be non-negative"),
    (lambda: Conveyor("u1", "y", "x", "z", 2, 0.0), "conveyor polarity must be +1 or -1"),
    (lambda: Conveyor("u1", "y", "x", "z", 1, -1.0), "conveyor rx must be non-negative"),
    (lambda: Sin(0.0, 1.0, 0.0), "SIN source frequency must be positive"),
    (lambda: Pulse(0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 2.0), "PULSE rise/fall must be non-negative"),
    (lambda: Pulse(0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 2.0), "PULSE width must be non-negative"),
    (lambda: Pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0), "PULSE period must be positive"),
    (lambda: AmplifierConfig(r1=0.0), "amplifier resistors must be positive"),
])
def test_post_init_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_defaults_and_keyword_construction():
    assert AmplifierConfig() == AmplifierConfig(
        conveyor=BehavioralConveyor(), input=Sin(0.0, 0.05, 1e3)
    )
    assert AmplifierConfig().r2 == 100e3
    u = Conveyor(name="u1", y="y", x="x", z="z", polarity=1, rx=0.0, vmax=1.0)
    assert u == Conveyor("u1", "y", "x", "z", 1, 0.0, None, 1.0)
    assert (u.vmin, u.vmax) == (None, 1.0)
    assert MosfetParams("pmos", vth=0.4, beta=1e-3).lam == 0.0
    assert Directive("op").args == () and Directive("op").line == 0
    bank = MosfetBank.of([NMOS, MosfetParams("pmos", 0.3, 2e-3)])
    assert np.array_equal(bank.sign, [1.0, -1.0]) and np.array_equal(bank.vth, [0.4, 0.3])


@pytest.mark.parametrize("make", [
    lambda: Dc(),
    lambda: Dc(1.0, 2.0),
    lambda: Resistor("r", "a", "b"),
    lambda: Resistor("r", "a", "b", 1.0, ohms=2.0),
    lambda: Resistor("r", "a", "b", watts=1.0),
    lambda: Conveyor(name="u1", y="y", x="x", z="z"),
])
def test_bad_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_importing_ccsim_creates_no_dataclass():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, ccsim.cli, ccsim.library; print('dataclasses' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
