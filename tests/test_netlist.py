import math

import pytest
from hypothesis import given, settings, strategies as st

from ccsim.devices import Dc, Sin
from ccsim.library import EXAMPLE_NAMES, AmplifierConfig, TranslinearConveyor, emit_example
from ccsim.netlist import (
    Conveyor,
    Mosfet,
    NetlistError,
    Resistor,
    expand_hierarchy,
    parse_and_flatten,
    parse_netlist,
    parse_value,
    value_text,
)

from conftest import memoryless_or_rc_netlists

# every suffix from the dialect's table, exercised one by one
SUFFIX_TABLE = [
    ("1f", 1e-15),
    ("1p", 1e-12),
    ("1n", 1e-9),
    ("50u", 5e-5),
    ("1m", 1e-3),
    ("100k", 1e5),
    ("2.2meg", 2.2e6),
    ("1g", 1e9),
]


@pytest.mark.parametrize("token,expected", SUFFIX_TABLE)
def test_parse_value_suffix_table(token, expected):
    assert parse_value(token) == expected


@pytest.mark.parametrize(
    "token,expected",
    [
        ("100", 100.0),
        ("-3.5", -3.5),
        (".5u", 5e-7),
        ("1e-6", 1e-6),
        ("1E3", 1000.0),
        ("100kohm", 1e5),
        ("10uF", 1e-5),
        ("2.2megohm", 2.2e6),
        ("5ohm", 5.0),
        # the nearest double, where mantissa times scale rounds twice (25 * 1e-6 is 2.4999999999999998e-05)
        ("25u", 2.5e-05),
        ("10u", 1e-05),
        ("100n", 1e-07),
        ("3.3p", 3.3e-12),
        ("1meg", 1e6),
        (".5n", 5e-10),
    ],
)
def test_parse_value_forms(token, expected):
    assert parse_value(token) == expected


@pytest.mark.parametrize("token", ["1e3k", "abc(", "1.2.3", "", "--5", "1k2"])
def test_parse_value_rejects(token):
    with pytest.raises(NetlistError):
        parse_value(token)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_parse_value_roundtrips_repr(x):
    # value_text writes a number as its repr
    assert parse_value(value_text(x)) == x


POWERS = {"f": -15, "p": -12, "n": -9, "u": -6, "m": -3, "k": 3, "meg": 6, "g": 9}


@given(
    st.from_regex(r"[+-]?([0-9]{1,8}(\.[0-9]{0,8})?|\.[0-9]{1,8})", fullmatch=True),
    st.sampled_from(sorted(POWERS)),
    st.sampled_from(["", "ohm", "V", "Hz"]),
    st.booleans(),
)
def test_parse_value_suffix_is_one_literal(mantissa, suffix, unit, upper):
    token = mantissa + (suffix.upper() if upper else suffix) + unit
    assert parse_value(token) == float(f"{mantissa}e{POWERS[suffix]}")


def test_minimal_netlist():
    ast = parse_netlist("t\nR1 a 0 1k\n.end\n")
    assert ast.title == "t"
    (el,) = ast.elements
    assert el.kind == "r" and el.nodes == ("a", "0") and el.param("value") == 1000.0


def test_conveyor_parse_roundtrip():
    text = "t\nU1 y x z cccii+ ib=50u beta=1m\nR1 z 0 1k\n.end\n"
    ast = parse_netlist(text)
    el = ast.elements[0]
    assert el.param("ctype") == "cccii+"
    assert el.param("ib") == pytest.approx(5e-5)
    assert el.param("beta") == pytest.approx(1e-3)
    c = expand_hierarchy(ast)
    conv = next(e for e in c.elements if isinstance(e, Conveyor))
    assert conv.polarity == 1
    assert conv.rx == pytest.approx(1 / math.sqrt(8e-3 * 5e-5))


def test_mosfet_binds_model():
    text = "t\n.model nmos_a nmos vth=0.4 beta=2e-4 lambda=0.05\nM1 d g s b nmos_a\nR1 d 0 1k\n.end\n"
    ast = parse_netlist(text)
    c = expand_hierarchy(ast)
    m = next(e for e in c.elements if isinstance(e, Mosfet))
    assert m.params.vth == 0.4
    assert m.params.beta == 2e-4
    assert m.params.lam == 0.05


def test_model_geometry_resolves_beta():
    text = "t\n.model nm nmos vth=0.4 un_cox=100u w=10u l=1u\nM1 d g 0 0 nm\nR1 d 0 1k\n.end\n"
    c = parse_and_flatten(text)
    m = next(e for e in c.elements if isinstance(e, Mosfet))
    assert m.params.beta == pytest.approx(1e-3)


def test_comments_continuations_crlf():
    text = (
        "title line\r\n"
        "* full comment\r\n"
        "V1 in 0 SIN(0\r\n"
        "+ 0.05 1k) ; inline comment\r\n"
        "R1 in 0 1k\r\n"
        ".end\r\n"
    )
    ast = parse_netlist(text)
    assert len(ast.elements) == 2
    src = ast.elements[0].param("source")
    assert src == ("sin", (0.0, 0.05, 1000.0))


def test_case_handling():
    # keywords and element names fold, node names do not
    ast = parse_netlist("t\nR1 N1 OUT 1K\nV1 N1 0 DC 1\n.END\n")
    assert ast.elements[0].name == "r1"
    assert ast.elements[0].nodes == ("N1", "OUT")


@pytest.mark.parametrize(
    "body,msg",
    [
        ("Q1 a 0 1k", "unknown element letter"),
        ("R1 a", "needs 2 nodes"),
        ("R1 a 1k", "exactly one value"),
        ("R1 a 0 1k\nr1 b 0 2k", "duplicate element"),
        (".tran 1u", ".tran takes"),
        (".dc v1 0 1", ".dc takes"),
        ("U1 y x z cccii+ rx=1 ib=1u beta=1m", "not both"),
        ("U1 y x z cccii+", "needs rx or both"),
        ("U1 y x z ccii+ ib=1u beta=1m", "rx only"),
        (".measure m frobnicate v(a)", "unknown measure kind"),
        (".param x", ".param takes"),
    ],
)
def test_parse_errors(body, msg):
    with pytest.raises(NetlistError, match=msg):
        parse_netlist(f"t\n{body}\n.end\n")


@pytest.mark.parametrize(
    "text,msg",
    [
        ("t\n.ends\n.end\n", "without .subckt"),
        ("t\n.subckt a p\nR1 p 0 1k\n", "unterminated"),
        ("t\n.subckt a p\n.tran 1u 1m\n.ends\n.end\n", "not allowed inside"),
        ("t\n.subckt a p\nR1 p 0 1k\n.ends\n.subckt a q\n.ends\n.end\n", "duplicate subcircuit"),
    ],
)
def test_subckt_structure_errors(text, msg):
    with pytest.raises(NetlistError, match=msg):
        parse_netlist(text)


def test_error_reports_line_number():
    text = "t\nR1 a 0 1k\n* comment\nR2 a 0 oops()\n.end\n"
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_directive_kinds_recorded():
    text = (
        "t\nR1 a 0 1k\nV1 a 0 DC 1\n.param foo=2k\n.op\n"
        ".tran 1u 1m\n.dc v1 0 1 0.1\n.measure m rms v(a)\n.end\n"
    )
    ast = parse_netlist(text)
    kinds = [d.kind for d in ast.directives]
    assert kinds == ["param", "op", "tran", "dc", "measure", "end"]
    assert ast.params == {"foo": 2000.0}


# ----------------------------------------------------------------------
# hierarchy expansion
# ----------------------------------------------------------------------

SUB = """t
.subckt amp2 inp outp
R1 inp n1 1k
R2 n1 outp 2k
.ends
"""


def test_expand_identity_without_instances():
    text = "t\nR1 a 0 1k\nV1 a 0 DC 1\n.end\n"
    c = parse_and_flatten(text)
    assert [e.name for e in c.elements] == ["r1", "v1"]


def test_expand_single_instance():
    text = SUB + "XA in out amp2\nR3 out 0 1k\nV1 in 0 DC 1\n.end\n"
    c = parse_and_flatten(text)
    names = {e.name for e in c.elements}
    assert {"xa.r1", "xa.r2", "r3", "v1"} <= names
    r1 = next(e for e in c.elements if e.name == "xa.r1")
    # hand-flattened reference: port inp -> in, internal n1 -> xa.n1
    assert r1 == Resistor("xa.r1", "in", "xa.n1", 1000.0)


def test_expand_two_levels():
    text = (
        "t\n"
        ".subckt inner p q\nR1 p q 1k\n.ends\n"
        ".subckt outer p q\nXB p q inner\n.ends\n"
        "XA in 0 outer\nV1 in 0 DC 1\n.end\n"
    )
    c = parse_and_flatten(text)
    assert any(e.name == "xa.xb.r1" for e in c.elements)


def test_expand_counts_multiply():
    text = SUB + "XA in m1 amp2\nXB m1 0 amp2\nV1 in 0 DC 1\n.end\n"
    c = parse_and_flatten(text)
    n_res = sum(1 for e in c.elements if isinstance(e, Resistor))
    assert n_res == 4  # 2 per instance * 2 instances


def test_expand_node_indices_dense():
    text = SUB + "XA in out amp2\nV1 in 0 DC 1\nR9 out 0 1k\n.end\n"
    c = parse_and_flatten(text)
    assert c.nodes["0"] == 0
    assert sorted(c.nodes.values()) == list(range(len(c.nodes)))


@pytest.mark.parametrize(
    "body,msg",
    [
        ("XA in out nosuch\nV1 in 0 DC 1", "undefined subcircuit"),
        ("XA in amp2\nV1 in 0 DC 1", "ports"),
    ],
)
def test_expand_errors(body, msg):
    with pytest.raises(NetlistError, match=msg):
        parse_and_flatten(SUB + body + "\n.end\n")


def test_expand_recursion_cycle():
    text = (
        "t\n"
        ".subckt a p\nXB p b\n.ends\n"
        ".subckt b p\nXA p a\n.ends\n"
        "XT n a\nV1 n 0 DC 1\n.end\n"
    )
    with pytest.raises(NetlistError, match="recursive"):
        parse_and_flatten(text)


def test_unresolved_parameter():
    with pytest.raises(NetlistError, match="unresolved parameter"):
        parse_and_flatten("t\nR1 a 0 rload\nV1 a 0 DC 1\n.end\n")


def test_param_override_resolves():
    c = parse_and_flatten("t\nR1 a 0 rload\nV1 a 0 DC 1\n.end\n", {"rload": 123.0})
    assert c.elements[0].ohms == 123.0


def test_no_ground_rejected():
    with pytest.raises(NetlistError, match="ground"):
        parse_and_flatten("t\nR1 a b 1k\nV1 a b DC 1\n.end\n")


def test_empty_circuit_rejected():
    with pytest.raises(NetlistError, match="no elements"):
        parse_and_flatten("t\n.op\n.end\n")


def test_source_specs():
    text = "t\nV1 a 0 DC 1\nV2 b 0 SIN(0 0.05 1k)\nV3 c 0 PULSE(0 1 0 1u 1u 5u 10u)\nR1 a 0 1\nR2 b 0 1\nR3 c 0 1\n.end\n"
    c = parse_and_flatten(text)
    specs = {e.name: e.spec for e in c.elements if hasattr(e, "spec")}
    assert specs["v1"] == Dc(1.0)
    assert specs["v2"] == Sin(0.0, 0.05, 1000.0)


def assert_nodes_in_index_order(c):
    # index_unknowns names node row i - 1 after the i-th key of c.nodes
    assert list(c.nodes)[0] == "0"
    assert all(c.nodes[name] == i for i, name in enumerate(c.nodes))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_library_examples_keep_nodes_in_index_order(name):
    for cfg in (None, *(AmplifierConfig(conveyor=TranslinearConveyor(family=f)) for f in ("cccii", "ccii"))):
        assert_nodes_in_index_order(parse_and_flatten(emit_example(name, cfg)))


def test_two_stage_cells_keep_nodes_in_index_order():
    c = parse_and_flatten(emit_example("ferri_2cc", AmplifierConfig(conveyor=TranslinearConveyor())))
    assert {n.split(".")[0] for n in c.nodes if "." in n} == {"xu1", "xu2"}  # both cells' nodes are prefixed
    assert_nodes_in_index_order(c)


@given(data=st.data(), with_cap=st.booleans())
@settings(max_examples=40, deadline=None)
def test_drawn_netlists_keep_nodes_in_index_order(data, with_cap):
    assert_nodes_in_index_order(parse_and_flatten(data.draw(memoryless_or_rc_netlists(with_cap))))
