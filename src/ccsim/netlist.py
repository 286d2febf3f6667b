"""SPICE-dialect netlist front end.

Grammar (self-defined dialect, intentionally small):

* first line is the title, taken verbatim
* ``*`` starts a comment line, ``;`` starts an inline comment
* a line starting with ``+`` continues the previous statement
* parsing is case-insensitive except node names, which preserve case;
  the ground node is ``0``
* element lines::

    R<name> n+ n- <value>
    C<name> n+ n- <value>
    V<name> n+ n- DC <v> | <v> | SIN(<off> <ampl> <freq>) | PULSE(<v1> <v2> <delay> <rise> <fall> <width> <period>)
    I<name> n+ n- <same source forms>
    M<name> d g s b <model>
    U<name> y x z cccii+|cccii-|ccii+|ccii- [rx=<ohms>] [ib=<amps> beta=<A/V2>] [vmin=<v>] [vmax=<v>]
    X<name> <nodes...> <subckt>

* dot statements: ``.subckt <name> <ports...>`` / ``.ends``,
  ``.model <name> nmos|pmos vth=<v> [beta=<a/v2> | un_cox=<a/v2> w=<m> l=<m>] [lambda=<1/v>]``,
  ``.param <name>=<value>``, ``.op``, ``.dc <src> <start> <stop> <step>``,
  ``.tran <tstep> <tstop> [method=be|trap]``,
  ``.measure <name> <rms|pp|avgpow|peakpow|gain|hist> <args>``, ``.end``

Numeric fields accept engineering suffixes (f p n u m k meg g; ``meg``
matched before ``m``) with optional trailing unit letters, or a bare
parameter name resolved against ``.param`` definitions during flattening.
Exponent notation cannot be combined with a suffix ("1e3k" is an error).
"""

from __future__ import annotations

import re
from operator import attrgetter

from .devices import (
    ConveyorParams,
    Dc,
    MosfetParams,
    Pulse,
    Record,
    Sin,
    SourceSpec,
    conveyor_rx,
)


class NetlistError(Exception):
    """Raised for any syntactic or semantic problem in a netlist."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_SUFFIXES = (
    ("meg", 1e6),
    ("f", 1e-15),
    ("p", 1e-12),
    ("n", 1e-9),
    ("u", 1e-6),
    ("m", 1e-3),
    ("k", 1e3),
    ("g", 1e9),
)

_NUM_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+))(e[+-]?\d+)?([a-z]*)$")
_IDENT_RE = re.compile(r"^[a-z_][a-z0-9_.]*$")


def parse_value(token: str, line: int | None = None) -> float:
    """Parse one numeric token with SI engineering suffixes.

    Trailing unit letters after the suffix are ignored ("100kohm" is 1e5).
    """
    t = token.strip().lower()
    m = _NUM_RE.match(t)
    if m is None:
        raise NetlistError(f"malformed number {token!r}", line)
    mantissa, exponent, tail = m.groups()
    scale = 1.0
    if tail:
        for suf, sc in _SUFFIXES:
            if tail.startswith(suf):
                if exponent:
                    raise NetlistError(
                        f"exponent cannot be combined with suffix in {token!r}", line
                    )
                scale = sc
                break
        # any remaining letters are a unit label and are ignored
    return float(mantissa + (exponent or "")) * scale


def _value_or_symbol(token: str, line: int | None = None) -> float | str:
    """A numeric literal, or a bare identifier naming a parameter."""
    t = token.strip().lower()
    if _IDENT_RE.match(t) and not _NUM_RE.match(t):
        return t
    return parse_value(token, line)


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class ElementSpec(Record):
    kind: str  # one of r c v i m u x
    name: str  # full lowercased element name, letter included
    nodes: tuple[str, ...]
    params: tuple  # sorted (key, value) pairs; values float | str | tuple
    line: int = 0  # source position; takes no part in ==

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


class ModelCard(Record):
    name: str
    polarity: str  # nmos | pmos
    vth: float | str
    beta: float | str | None
    un_cox: float | str | None
    w: float | str | None
    l: float | str | None
    lam: float | str
    line: int = 0  # source position; takes no part in ==


class SubcktDef(Record):
    name: str
    ports: tuple[str, ...]
    elements: tuple[ElementSpec, ...]
    line: int = 0  # source position; takes no part in ==


class Directive(Record):
    kind: str  # op dc tran measure param end
    args: tuple = ()
    line: int = 0  # source position; takes no part in ==


class NetlistAst(Record):
    title: str
    elements: tuple[ElementSpec, ...]
    subckt_defs: tuple[SubcktDef, ...]
    models: tuple[ModelCard, ...]
    directives: tuple[Directive, ...]

    @property
    def params(self) -> dict[str, float]:
        return {d.args[0]: d.args[1] for d in self.directives if d.kind == "param"}


_NODE_COUNT = {"r": 2, "c": 2, "v": 2, "i": 2, "m": 4, "u": 3}
_DIRECTIVE_KINDS = {"op", "dc", "tran", "measure", "param", "end"}
_CONVEYOR_TYPES = {"cccii+", "cccii-", "ccii+", "ccii-"}
_MEASURE_KINDS = {"rms", "pp", "avgpow", "peakpow", "gain", "hist"}


def _logical_lines(text: str):
    """Title plus (line_number, statement) pairs after comment stripping
    and continuation joining."""
    raw = text.split("\n")
    title = raw[0].rstrip("\r") if raw else ""
    out: list[list] = []  # [line_no, text]
    for i, line in enumerate(raw[1:], start=2):
        line = line.rstrip("\r")
        if ";" in line:
            line = line[: line.index(";")]
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not out:
                raise NetlistError("continuation with nothing to continue", i)
            out[-1][1] += " " + stripped[1:].strip()
        else:
            out.append([i, stripped])
    return title, [(n, t) for n, t in out]


def _split_kw(tok: str, line: int):
    if "=" not in tok:
        raise NetlistError(f"expected key=value, got {tok!r}", line)
    k, v = tok.split("=", 1)
    if not k or not v:
        raise NetlistError(f"expected key=value, got {tok!r}", line)
    return k, v


def _parse_source(tokens: list[str], line: int):
    """Source spec as a tagged tuple; values stay symbolic until flattening."""
    toks = " ".join(tokens).replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise NetlistError("source has no value", line)
    head = toks[0]
    if head == "dc":
        if len(toks) != 2:
            raise NetlistError("DC source takes exactly one value", line)
        return ("dc", (_value_or_symbol(toks[1], line),))
    if head in ("sin", "pulse"):
        want = 3 if head == "sin" else 7
        body = toks[1:]
        if body and body[0] == "(":
            if not body or body[-1] != ")":
                raise NetlistError(f"unbalanced parentheses in {head.upper()} source", line)
            body = body[1:-1]
        if len(body) != want:
            raise NetlistError(f"{head.upper()} source takes {want} arguments", line)
        return (head, tuple(_value_or_symbol(a, line) for a in body))
    if len(toks) != 1:
        raise NetlistError(f"unrecognized source spec {' '.join(tokens)!r}", line)
    return ("dc", (_value_or_symbol(head, line),))


def _parse_element(tokens: list[str], tokens_case: list[str], line: int) -> ElementSpec:
    name = tokens[0].lower()
    kind = name[0]
    if kind not in "rcvimux":
        raise NetlistError(f"unknown element letter {name[0]!r} in {tokens[0]!r}", line)
    if kind == "x":
        if len(tokens) < 3:
            raise NetlistError(f"subcircuit instance {name!r} needs nodes and a name", line)
        nodes = tuple(tokens_case[1:-1])
        return ElementSpec(kind, name, nodes, (("subckt", tokens[-1]),), line)
    want = _NODE_COUNT[kind]
    if len(tokens) < 1 + want:
        raise NetlistError(f"element {name!r} needs {want} nodes", line)
    nodes = tuple(tokens_case[1 : 1 + want])
    rest = tokens[1 + want :]
    if kind in ("r", "c"):
        if len(rest) != 1:
            raise NetlistError(f"element {name!r} takes exactly one value", line)
        return ElementSpec(kind, name, nodes, (("value", _value_or_symbol(rest[0], line)),), line)
    if kind in ("v", "i"):
        return ElementSpec(kind, name, nodes, (("source", _parse_source(rest, line)),), line)
    if kind == "m":
        if len(rest) != 1:
            raise NetlistError(f"MOSFET {name!r} takes exactly one model name", line)
        return ElementSpec(kind, name, nodes, (("model", rest[0]),), line)
    # behavioral conveyor
    if not rest or rest[0] not in _CONVEYOR_TYPES:
        raise NetlistError(
            f"conveyor {name!r} needs a type keyword (cccii+/cccii-/ccii+/ccii-)", line
        )
    ctype = rest[0]
    kw: dict[str, float | str] = {}
    for tok in rest[1:]:
        k, v = _split_kw(tok, line)
        if k not in ("rx", "ib", "beta", "vmin", "vmax"):
            raise NetlistError(f"unknown conveyor parameter {k!r}", line)
        if k in kw:
            raise NetlistError(f"duplicate conveyor parameter {k!r}", line)
        kw[k] = _value_or_symbol(v, line)
    controlled = ctype.startswith("cccii")
    if "rx" in kw and ("ib" in kw or "beta" in kw):
        raise NetlistError(f"conveyor {name!r}: give rx or (ib, beta), not both", line)
    if controlled:
        if "rx" not in kw and not ("ib" in kw and "beta" in kw):
            raise NetlistError(f"conveyor {name!r}: cccii needs rx or both ib and beta", line)
    else:
        if "ib" in kw or "beta" in kw:
            raise NetlistError(f"conveyor {name!r}: ccii takes rx only", line)
    params = [("ctype", ctype)] + sorted(kw.items())
    return ElementSpec(kind, name, nodes, tuple(params), line)


def _parse_model(tokens: list[str], line: int) -> ModelCard:
    if len(tokens) < 3:
        raise NetlistError(".model needs a name and a type", line)
    name, mtype = tokens[1], tokens[2]
    if mtype not in ("nmos", "pmos"):
        raise NetlistError(f"unknown model type {mtype!r}", line)
    kw: dict[str, float | str] = {}
    for tok in tokens[3:]:
        k, v = _split_kw(tok, line)
        if k not in ("vth", "beta", "un_cox", "w", "l", "lambda"):
            raise NetlistError(f"unknown model parameter {k!r}", line)
        kw[k] = _value_or_symbol(v, line)
    if "vth" not in kw:
        raise NetlistError(f"model {name!r} needs vth", line)
    has_beta = "beta" in kw
    any_geom = any(k in kw for k in ("un_cox", "w", "l"))
    has_geom = all(k in kw for k in ("un_cox", "w", "l"))
    if (has_beta and any_geom) or not (has_beta or has_geom):
        raise NetlistError(f"model {name!r} needs beta or (un_cox, w, l), not a mix", line)
    return ModelCard(
        name,
        mtype,
        kw["vth"],
        kw.get("beta"),
        kw.get("un_cox"),
        kw.get("w"),
        kw.get("l"),
        kw.get("lambda", 0.0),
        line,
    )


def _parse_probe(tok: str, tok_case: str, line: int):
    m = re.match(r"^([vi])\((.+)\)$", tok)
    if m is None:
        raise NetlistError(f"expected a probe like v(node) or i(elem), got {tok!r}", line)
    which = m.group(1)
    if which == "v":
        # node names preserve case
        inner = re.match(r"^[vi]\((.+)\)$", tok_case, re.IGNORECASE).group(1)
    else:
        inner = m.group(2)  # element names are case-insensitive
    return (which, inner)


def _parse_directive(tokens, tokens_case, line: int) -> Directive:
    kind = tokens[0][1:]
    args = tokens[1:]
    if kind == "op" or kind == "end":
        if args:
            raise NetlistError(f".{kind} takes no arguments", line)
        return Directive(kind, (), line)
    if kind == "dc":
        if len(args) != 4:
            raise NetlistError(".dc takes source, start, stop, step", line)
        return Directive(
            kind,
            (args[0], *(parse_value(a, line) for a in args[1:])),
            line,
        )
    if kind == "tran":
        if len(args) not in (2, 3):
            raise NetlistError(".tran takes tstep, tstop and optional method=", line)
        tstep = parse_value(args[0], line)
        tstop = parse_value(args[1], line)
        method = "trap"
        if len(args) == 3:
            k, v = _split_kw(args[2], line)
            if k != "method" or v not in ("be", "trap"):
                raise NetlistError("tran option must be method=be or method=trap", line)
            method = v
        return Directive(kind, (tstep, tstop, method), line)
    if kind == "param":
        if len(args) != 1 or "=" not in args[0]:
            raise NetlistError(".param takes a single name=value", line)
        k, v = _split_kw(args[0], line)
        return Directive(kind, (k, parse_value(v, line)), line)
    if kind == "measure":
        if len(args) < 2:
            raise NetlistError(".measure needs a name and a kind", line)
        mname, mkind = args[0], args[1]
        if mkind not in _MEASURE_KINDS:
            raise NetlistError(f"unknown measure kind {mkind!r}", line)
        rest = args[2:]
        rest_case = tokens_case[3:]
        if mkind in ("rms", "pp"):
            if len(rest) != 1:
                raise NetlistError(f"measure {mkind} takes one probe", line)
            margs = (_parse_probe(rest[0], rest_case[0], line),)
        elif mkind == "gain":
            if len(rest) != 2:
                raise NetlistError("measure gain takes input probe then output probe", line)
            margs = tuple(_parse_probe(r, rc, line) for r, rc in zip(rest, rest_case))
        elif mkind == "hist":
            if not rest:
                raise NetlistError("measure hist takes a probe and optional bins=", line)
            probe = _parse_probe(rest[0], rest_case[0], line)
            nbins = 20
            if len(rest) == 2:
                k, v = _split_kw(rest[1], line)
                if k != "bins":
                    raise NetlistError("hist option must be bins=<n>", line)
                nbins = int(parse_value(v, line))
            elif len(rest) > 2:
                raise NetlistError("measure hist takes a probe and optional bins=", line)
            margs = (probe, nbins)
        else:  # avgpow | peakpow
            if not rest:
                raise NetlistError(f"measure {mkind} needs at least one supply name", line)
            margs = tuple(rest)
        return Directive(kind, (mname, mkind, margs), line)
    raise NetlistError(f"unknown directive .{kind}", line)


def parse_netlist(text: str) -> NetlistAst:
    """Parse complete netlist text into an AST.

    Raises :class:`NetlistError` with the offending line number for
    unknown element letters, wrong node counts, duplicate names and
    malformed directives.
    """
    title, lines = _logical_lines(text)
    elements: list[ElementSpec] = []
    subckts: list[SubcktDef] = []
    models: list[ModelCard] = []
    directives: list[Directive] = []
    current_sub: tuple[str, tuple[str, ...], int] | None = None
    sub_elements: list[ElementSpec] = []
    seen_top: set[str] = set()
    seen_sub: set[str] = set()

    for line_no, stmt in lines:
        tokens_case = stmt.split()
        tokens = [t.lower() for t in tokens_case]
        head = tokens[0]
        if head.startswith("."):
            dkind = head[1:]
            if dkind == "subckt":
                if current_sub is not None:
                    raise NetlistError("nested .subckt definitions are not allowed", line_no)
                if len(tokens) < 3:
                    raise NetlistError(".subckt needs a name and at least one port", line_no)
                if any(s.name == tokens[1] for s in subckts):
                    raise NetlistError(f"duplicate subcircuit {tokens[1]!r}", line_no)
                current_sub = (tokens[1], tuple(tokens_case[2:]), line_no)
                sub_elements = []
                seen_sub = set()
                continue
            if dkind == "ends":
                if current_sub is None:
                    raise NetlistError(".ends without .subckt", line_no)
                name, ports, at = current_sub
                subckts.append(SubcktDef(name, ports, tuple(sub_elements), at))
                current_sub = None
                continue
            if current_sub is not None:
                raise NetlistError(f"directive .{dkind} not allowed inside .subckt", line_no)
            if dkind == "model":
                card = _parse_model(tokens, line_no)
                if any(mc.name == card.name for mc in models):
                    raise NetlistError(f"duplicate model {card.name!r}", line_no)
                models.append(card)
                continue
            if dkind not in _DIRECTIVE_KINDS:
                raise NetlistError(f"unknown directive .{dkind}", line_no)
            d = _parse_directive(tokens, tokens_case, line_no)
            if d.kind == "param" and any(
                p.kind == "param" and p.args[0] == d.args[0] for p in directives
            ):
                raise NetlistError(f"duplicate parameter {d.args[0]!r}", line_no)
            directives.append(d)
            if d.kind == "end":
                break
            continue
        el = _parse_element(tokens, tokens_case, line_no)
        seen = seen_sub if current_sub is not None else seen_top
        if el.name in seen:
            raise NetlistError(f"duplicate element name {el.name!r}", line_no)
        seen.add(el.name)
        (sub_elements if current_sub is not None else elements).append(el)

    if current_sub is not None:
        raise NetlistError(f"unterminated .subckt {current_sub[0]!r}", current_sub[2])
    return NetlistAst(title, tuple(elements), tuple(subckts), tuple(models), tuple(directives))


# --------------------------------------------------------------------------
# Printing (parse -> print -> parse is a fixed point)
# --------------------------------------------------------------------------

def _fmt(v) -> str:
    return v if isinstance(v, str) else repr(float(v))


def _fmt_source(src) -> str:
    kind, args = src
    if kind == "dc":
        return f"DC {_fmt(args[0])}"
    return f"{kind.upper()}({' '.join(_fmt(a) for a in args)})"


def _fmt_probe(p) -> str:
    return f"{p[0]}({p[1]})"


def _print_element(el: ElementSpec) -> str:
    parts = [el.name, *el.nodes]
    if el.kind in ("r", "c"):
        parts.append(_fmt(el.param("value")))
    elif el.kind in ("v", "i"):
        parts.append(_fmt_source(el.param("source")))
    elif el.kind == "m":
        parts.append(el.param("model"))
    elif el.kind == "x":
        parts.append(el.param("subckt"))
    else:
        parts.append(el.param("ctype"))
        for k, v in el.params:
            if k != "ctype":
                parts.append(f"{k}={_fmt(v)}")
    return " ".join(parts)


def _print_directive(d: Directive) -> str:
    if d.kind in ("op", "end"):
        return f".{d.kind}"
    if d.kind == "dc":
        return f".dc {d.args[0]} " + " ".join(_fmt(a) for a in d.args[1:])
    if d.kind == "tran":
        return f".tran {_fmt(d.args[0])} {_fmt(d.args[1])} method={d.args[2]}"
    if d.kind == "param":
        return f".param {d.args[0]}={_fmt(d.args[1])}"
    mname, mkind, margs = d.args
    if mkind in ("rms", "pp"):
        body = _fmt_probe(margs[0])
    elif mkind == "gain":
        body = f"{_fmt_probe(margs[0])} {_fmt_probe(margs[1])}"
    elif mkind == "hist":
        body = f"{_fmt_probe(margs[0])} bins={margs[1]}"
    else:
        body = " ".join(margs)
    return f".measure {mname} {mkind} {body}"


def print_netlist(ast: NetlistAst) -> str:
    """Render an AST back to netlist text in canonical form."""
    out = [ast.title]
    for card in ast.models:
        parts = [f".model {card.name} {card.polarity}", f"vth={_fmt(card.vth)}"]
        if card.beta is not None:
            parts.append(f"beta={_fmt(card.beta)}")
        else:
            parts += [f"un_cox={_fmt(card.un_cox)}", f"w={_fmt(card.w)}", f"l={_fmt(card.l)}"]
        if not (isinstance(card.lam, float) and card.lam == 0.0):
            parts.append(f"lambda={_fmt(card.lam)}")
        out.append(" ".join(parts))
    for sub in ast.subckt_defs:
        out.append(f".subckt {sub.name} " + " ".join(sub.ports))
        out.extend(_print_element(el) for el in sub.elements)
        out.append(".ends")
    out.extend(_print_element(el) for el in ast.elements)
    out.extend(_print_directive(d) for d in ast.directives)
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Flattening
# --------------------------------------------------------------------------

class Resistor(Record):
    name: str
    a: str
    b: str
    ohms: float


class Capacitor(Record):
    name: str
    a: str
    b: str
    farads: float


class VSource(Record):
    name: str
    p: str
    n: str
    spec: SourceSpec


class ISource(Record):
    name: str
    p: str
    n: str
    spec: SourceSpec


class Mosfet(Record):
    name: str
    d: str
    g: str
    s: str
    b: str
    params: MosfetParams


class Conveyor(Record):
    name: str
    y: str
    x: str
    z: str
    params: ConveyorParams
    vmin: float | None = None
    vmax: float | None = None


Element = Resistor | Capacitor | VSource | ISource | Mosfet | Conveyor


class FlatCircuit:
    """Fully resolved circuit: dense node indices (``nodes`` maps a node name
    to its index, ground "0" to 0, and ``node_names`` is its inverse), typed
    elements, directives."""

    __slots__ = ("nodes", "node_names", "elements", "directives", "params")

    def __init__(self, nodes: dict[str, int], node_names: list[str], elements: list[Element],
                 directives: tuple[Directive, ...], params: dict[str, float]):
        self.nodes, self.node_names, self.elements = nodes, node_names, elements
        self.directives, self.params = directives, params

    @property
    def n_nodes(self) -> int:
        return len(self.node_names) - 1  # excluding ground


def _resolve(v, params: dict[str, float], where: str, line: int):
    if isinstance(v, str):
        if v not in params:
            raise NetlistError(f"unresolved parameter {v!r} in {where}", line)
        return params[v]
    return float(v)


def _build_source(raw, params, where, line) -> SourceSpec:
    kind, args = raw
    vals = [_resolve(a, params, where, line) for a in args]
    try:
        if kind == "dc":
            return Dc(vals[0])
        if kind == "sin":
            return Sin(*vals)
        return Pulse(*vals)
    except ValueError as exc:
        raise NetlistError(f"{where}: {exc}", line) from None


def _build_mosfet_params(card: ModelCard, params, line) -> MosfetParams:
    where = f"model {card.name!r}"
    vth = _resolve(card.vth, params, where, line)
    lam = _resolve(card.lam, params, where, line)
    if card.beta is not None:
        beta = _resolve(card.beta, params, where, line)
    else:
        un_cox = _resolve(card.un_cox, params, where, line)
        w = _resolve(card.w, params, where, line)
        l = _resolve(card.l, params, where, line)
        if l <= 0.0:
            raise NetlistError(f"{where}: channel length must be positive", line)
        beta = un_cox * w / l
    try:
        return MosfetParams(card.polarity, vth, beta, lam)
    except ValueError as exc:
        raise NetlistError(f"{where}: {exc}", line) from None


def _build_conveyor_params(el: ElementSpec, params) -> ConveyorParams:
    ctype = el.param("ctype")
    polarity = 1 if ctype.endswith("+") else -1
    controlled = ctype.startswith("cccii")
    where = f"conveyor {el.name!r}"
    rx_raw = el.param("rx")
    ib = beta_n = None
    if rx_raw is not None:
        rx = _resolve(rx_raw, params, where, el.line)
    elif controlled:
        ib = _resolve(el.param("ib"), params, where, el.line)
        beta_n = _resolve(el.param("beta"), params, where, el.line)
        try:
            rx = conveyor_rx(beta_n, ib)
        except ValueError as exc:
            raise NetlistError(f"{where}: {exc}", el.line) from None
    else:
        rx = 0.0
    try:
        return ConveyorParams(polarity, controlled, rx, ib, beta_n)
    except ValueError as exc:
        raise NetlistError(f"{where}: {exc}", el.line) from None


def expand_hierarchy(ast: NetlistAst, overrides: dict[str, float] | None = None) -> FlatCircuit:
    """Flatten subcircuit hierarchy and resolve every parameter to a number.

    Instance-internal nodes become ``<instance>.<node>``, element names get
    an ``<instance>.`` prefix, ports alias the caller's nodes and ground
    passes through unprefixed.
    """
    params = dict(ast.params)
    if overrides:
        params.update(overrides)
    subs = {s.name: s for s in ast.subckt_defs}
    models = {m.name: m for m in ast.models}

    flat: list[Element] = []

    def map_node(n: str, prefix: str, port_map: dict[str, str]) -> str:
        if n == "0":
            return "0"
        return port_map.get(n, prefix + n)

    def emit(specs, prefix: str, port_map: dict[str, str], stack: tuple[str, ...]):
        for el in specs:
            name = prefix + el.name
            nodes = tuple(map_node(n, prefix, port_map) for n in el.nodes)
            if el.kind == "x":
                sub_name = el.param("subckt")
                sub = subs.get(sub_name)
                if sub is None:
                    raise NetlistError(f"undefined subcircuit {sub_name!r}", el.line)
                if sub_name in stack:
                    cycle = " -> ".join(stack + (sub_name,))
                    raise NetlistError(f"recursive subcircuit instantiation: {cycle}", el.line)
                if len(nodes) != len(sub.ports):
                    raise NetlistError(
                        f"instance {name!r} has {len(nodes)} nodes but "
                        f"{sub_name!r} has {len(sub.ports)} ports",
                        el.line,
                    )
                inner_ports = {p: n for p, n in zip(sub.ports, nodes)}
                emit(sub.elements, name + ".", inner_ports, stack + (sub_name,))
                continue
            where = f"element {name!r}"
            if el.kind == "r":
                ohms = _resolve(el.param("value"), params, where, el.line)
                if ohms == 0.0:
                    raise NetlistError(f"{where}: zero resistance (use a V source of 0 V instead)", el.line)
                flat.append(Resistor(name, *nodes, ohms))
            elif el.kind == "c":
                flat.append(Capacitor(name, *nodes, _resolve(el.param("value"), params, where, el.line)))
            elif el.kind == "v":
                flat.append(VSource(name, *nodes, _build_source(el.param("source"), params, where, el.line)))
            elif el.kind == "i":
                flat.append(ISource(name, *nodes, _build_source(el.param("source"), params, where, el.line)))
            elif el.kind == "m":
                card = models.get(el.param("model"))
                if card is None:
                    raise NetlistError(f"{where}: undefined model {el.param('model')!r}", el.line)
                flat.append(Mosfet(name, *nodes, _build_mosfet_params(card, params, el.line)))
            else:
                cp = _build_conveyor_params(el, params)
                vmin = el.param("vmin")
                vmax = el.param("vmax")
                flat.append(
                    Conveyor(
                        name,
                        *nodes,
                        cp,
                        None if vmin is None else _resolve(vmin, params, where, el.line),
                        None if vmax is None else _resolve(vmax, params, where, el.line),
                    )
                )

    emit(ast.elements, "", {}, ())

    if not flat:
        raise NetlistError("circuit has no elements")
    nodes: dict[str, int] = {"0": 0}
    touched_ground = False
    for e in flat:
        for n in _element_nodes(e):
            if n == "0":
                touched_ground = True
            elif n not in nodes:
                nodes[n] = len(nodes)
    if not touched_ground:
        raise NetlistError("no element touches the ground node 0")
    node_names = [""] * len(nodes)
    for n, i in nodes.items():
        node_names[i] = n
    return FlatCircuit(nodes, node_names, flat, ast.directives, params)


# The node fields of each element type, in terminal order.
_NODE_FIELDS = {
    Resistor: ("a", "b"),
    Capacitor: ("a", "b"),
    VSource: ("p", "n"),
    ISource: ("p", "n"),
    Mosfet: ("d", "g", "s", "b"),
    Conveyor: ("y", "x", "z"),
}
_NODE_GETTERS = {t: attrgetter(*fields) for t, fields in _NODE_FIELDS.items()}


def _element_nodes(e: Element) -> tuple[str, ...]:
    return _NODE_GETTERS[type(e)](e)


def parse_and_flatten(text: str, overrides: dict[str, float] | None = None) -> FlatCircuit:
    return expand_hierarchy(parse_netlist(text), overrides)


# --------------------------------------------------------------------------
# Union of circuits
# --------------------------------------------------------------------------

def member_name(k: int, name: str) -> str:
    """Name in a :func:`union` of node or element ``name`` of member ``k``.

    Ground stays ``0``; every other name gets the prefix ``k<k>_``.  No
    prefix is a prefix of another (``k1_`` is not one of ``k10_``), so
    two members' names never meet.
    """
    return name if name == "0" else f"k{k}_{name}"


def union(circuits: list[FlatCircuit]) -> FlatCircuit:
    """One circuit made of K flattened members that share only ground.

    Member k's nodes and elements are renamed by :func:`member_name`;
    element values, clamp limits and source specs are copied unchanged,
    and the union's nodes are member 0's, then member 1's, and so on.
    The union carries no directives and no parameters.

    One solve then serves every member.  It is meant for a few small
    members: one solve saves the fixed cost of K small ones, but a dense
    solve costs (K*n)^3 for K members of n unknowns, so the saving
    shrinks as the members grow in number or size.  The Newton
    convergence test and the solve's acceptance check see the union as
    one system: a converged member iterates on with the others, and a
    member whose own matrix would be refused as near-singular may pass
    when another member's larger right-hand side sets the scale.  Take a
    member's record back out with :func:`ccsim.transient.member_waveform`.
    """
    nodes: dict[str, int] = {"0": 0}
    elements: list[Element] = []
    for k, c in enumerate(circuits):
        for n in c.node_names[1:]:
            nodes[member_name(k, n)] = len(nodes)
        for e in c.elements:
            renamed = {f: member_name(k, getattr(e, f)) for f in _NODE_FIELDS[type(e)]}
            elements.append(e._replace(name=member_name(k, e.name), **renamed))
    return FlatCircuit(nodes, list(nodes), elements, (), {})
