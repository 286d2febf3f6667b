"""Built-in circuit generators and closed-form conveyor analytics.

The library covers one family of tunable voltage amplifiers built around
a current conveyor driving two grounded resistors: the input feeds the
high-impedance Y terminal, R1 loads X and R2 loads Z, giving

    vout / vin = r2 / (r1 + rx)

which reduces to the ideal r2/r1 when the X-terminal resistance is zero.
Raising r1 + rx past r2 turns the amplifier into an attenuator, which is
the whole tuning story: resistor (or bias-current) choice picks the gain.

Generators exist in behavioral form (ideal conveyor element with a given
or bias-derived rx) and in transistor-level form, where the conveyor is
a class-AB translinear cell: a mixed loop of two NMOS and two PMOS
devices between Y and X, biased through simple current mirrors, with the
X-branch currents mirrored to Z.  A lighter class-A follower cell stands
in for the plain (uncontrolled) conveyor; it spends fewer bias branches,
so its supply draw is measurably lower at the same rails and bias.

The power comparison runs its four amplifiers, and the X-resistance
extraction its two probe currents, as one union circuit (see
:func:`ccsim.netlist.union`), one solve serving every member.  The gain
grid runs point by point: its 75 circuits are more than the few small
members a union is meant for, since a union's dense solve grows as the
cube of its size.
"""

from __future__ import annotations

from . import mna
from .devices import Dc, Pulse, Record, Sin, SourceSpec, conveyor_rx
from .netlist import expand_hierarchy, member_name, parse_and_flatten, parse_netlist, union
from .solver import ConvergenceError, SingularMatrixError, Tolerances, newton_dc
from .transient import run_transient, run_transient_union
from .measure import average_power, gain, peak_power


class BehavioralConveyor(Record):
    """Ideal conveyor element parameters: explicit rx, or (ib, beta_n) for
    the bias-controlled variant.  An explicit rx wins when both are set."""

    rx: float | None = None
    ib: float | None = 50e-6
    beta_n: float | None = 1e-3
    controlled: bool = True
    vmin: float | None = None
    vmax: float | None = None


class TranslinearConveyor(Record):
    """Transistor-level cell selection: bias current, conveyor family and
    symmetric rail magnitude."""

    ib: float = 50e-6
    family: str = "cccii"  # cccii (class-AB translinear) | ccii (class-A follower)
    rails: float = 1.0


class AmplifierConfig(Record):
    r1: float = 1e3
    r2: float = 100e3
    conveyor: BehavioralConveyor | TranslinearConveyor = BehavioralConveyor()
    input: SourceSpec = Sin(0.0, 0.05, 1e3)
    topology: str = ""  # informative; the emit name picks the topology

    def __post_init__(self):
        if self.r1 <= 0.0 or self.r2 <= 0.0:
            raise ValueError("amplifier resistors must be positive")


def loaded_gain(r1: float, r2: float, rx: float) -> float:
    """Amplifier gain r2 / (r1 + rx); the ideal r2/r1 when rx = 0."""
    if r1 + rx <= 0.0:
        raise ValueError("loaded_gain requires r1 + rx > 0")
    return r2 / (r1 + rx)


def tuning_case(r1: float, r2: float, rx: float, eps: float = 1e-9) -> str:
    """Classify the configured gain: attenuating, unity or amplifying."""
    g = loaded_gain(r1, r2, rx)
    if g < 1.0 - eps:
        return "attenuating"
    if g > 1.0 + eps:
        return "amplifying"
    return "unity"


# --------------------------------------------------------------------------
# Netlist text generation
# --------------------------------------------------------------------------

# Generic 45nm-class square-law cards (our choice, not a foundry's):
# vth 0.4 V, mobility-oxide product 100u (NMOS) / 40u (PMOS) A/V^2,
# lambda 0.05 /V.  Core devices are sized for beta = 1e-3 A/V^2 so the
# bias-derived X resistance is 1/sqrt(8e-3*ib); mirror devices are ten
# times wider so they stay saturated across the bias range.
_MODEL_CARDS = """\
.model nmos_core nmos vth=0.4 un_cox=100u w=10u l=1u lambda=0.05
.model pmos_core pmos vth=0.4 un_cox=40u w=25u l=1u lambda=0.05
.model nmos_mir nmos vth=0.4 un_cox=100u w=100u l=1u lambda=0.05
.model pmos_mir pmos vth=0.4 un_cox=40u w=250u l=1u lambda=0.05"""

CORE_BETA = 1e-3  # A/V^2, per core transistor with the cards above

# Class-AB translinear conveyor, plus polarity.  Mixed loop mp1/mn1 (gates
# at Y) and mn2/mp2 (sources at X); mirrors copy both X-branch currents to
# Z.  Six bias-current branches from rail to rail.
_CCCII_SUBCKT = """\
.subckt cccii_cell y x z vdd vss
ibias vdd bn DC ibval
mnb bn bn vss vss nmos_mir
mnd bp bn vss vss nmos_mir
mpb bp bp vdd vdd pmos_mir
mpc n1 bp vdd vdd pmos_mir
mnc n2 bn vss vss nmos_mir
mp1 vss y n1 vdd pmos_core
mn1 vdd y n2 vss nmos_core
mn2 xd n1 x vss nmos_core
mp2 xm n2 x vdd pmos_core
mpm1 xd xd vdd vdd pmos_mir
mpm2 z xd vdd vdd pmos_mir
mnm1 xm xm vss vss nmos_mir
mnm2 z xm vss vss nmos_mir
.ends"""

# Class-A follower conveyor, plus polarity: NMOS then PMOS level shift
# from Y to X, constant pull-up at X, drain-current sense mirrored to Z.
# Five bias-current branches, hence less standing power than the
# class-AB cell at the same bias.
_CCII_SUBCKT = """\
.subckt ccii_cell y x z vdd vss
ibias vdd bn DC ibval
mnb bn bn vss vss nmos_mir
mnr bp bn vss vss nmos_mir
mpb bp bp vdd vdd pmos_mir
mnf vdd y n1 vss nmos_core
mnb3 n1 bn vss vss nmos_mir
mpf fd n1 x vdd pmos_core
mpb2 x bp vdd vdd pmos_mir
mnz1 fd fd vss vss nmos_mir
mnz2 z fd vss vss nmos_mir
mpb3 z bp vdd vdd pmos_mir
.ends"""

_CELL_TEXT = {"cccii": _CCCII_SUBCKT, "ccii": _CCII_SUBCKT}

EXAMPLE_NAMES = (
    "proposed_amp",
    "ferri_1cc",
    "ferri_2cc",
    "proposed_amp_translinear",
    "cccii_char",
)


def _fmt(v: float) -> str:
    return repr(float(v))


def _behavioral_u(name: str, nodes: str, conv: BehavioralConveyor, ctype: str) -> str:
    parts = [name, nodes, ctype]
    if conv.rx is not None:
        parts.append(f"rx={_fmt(conv.rx)}")
    else:
        parts.append(f"ib={_fmt(conv.ib)}")
        parts.append(f"beta={_fmt(conv.beta_n)}")
    if conv.vmin is not None:
        parts.append(f"vmin={_fmt(conv.vmin)}")
    if conv.vmax is not None:
        parts.append(f"vmax={_fmt(conv.vmax)}")
    return " ".join(parts)


def _source_text(s: SourceSpec) -> str:
    if isinstance(s, Dc):
        return f"DC {_fmt(s.value)}"
    if isinstance(s, Sin):
        return f"SIN({_fmt(s.offset)} {_fmt(s.amplitude)} {_fmt(s.freq)})"
    assert isinstance(s, Pulse)
    vals = (s.v1, s.v2, s.delay, s.rise, s.fall, s.width, s.period)
    return "PULSE(" + " ".join(_fmt(v) for v in vals) + ")"


def _default_tran(s: SourceSpec, periods: int = 5, points_per_period: int = 1000) -> str:
    freq = s.freq if isinstance(s, Sin) else 1e3
    dt = 1.0 / (freq * points_per_period)
    return f".tran {_fmt(dt)} {_fmt(periods / freq)} method=trap"


def _amp_measures(powered: bool) -> list[str]:
    out = [
        ".measure g gain v(in) v(out)",
        ".measure outpp pp v(out)",
        ".measure outrms rms v(out)",
        ".measure outhist hist v(out) bins=20",
    ]
    if powered:
        out += [
            ".measure pavg avgpow vdd vss",
            ".measure ppk peakpow vdd vss",
        ]
    return out


def _behavioral_amp(cfg: AmplifierConfig, two_stage: bool, ctype: str) -> str:
    conv = cfg.conveyor
    lines = [
        "two-resistor tunable voltage amplifier (behavioral conveyor)",
        f".param r1={_fmt(cfg.r1)}",
        f".param r2={_fmt(cfg.r2)}",
        f"vin in 0 {_source_text(cfg.input)}",
    ]
    if two_stage:
        lines.append(_behavioral_u("u1", "in m zf", conv, ctype))
        lines.append(_behavioral_u("u2", "m x out", conv, ctype))
    else:
        lines.append(_behavioral_u("u1", "in x out", conv, ctype))
    lines += [
        "r1 x 0 r1",
        "r2 out 0 r2",
        _default_tran(cfg.input),
        *_amp_measures(powered=False),
        ".end",
    ]
    return "\n".join(lines) + "\n"


def _translinear_amp(cfg: AmplifierConfig, two_stage: bool) -> str:
    conv = cfg.conveyor
    cell = f"{conv.family}_cell"
    lines = [
        "two-resistor tunable voltage amplifier (translinear conveyor)",
        f".param r1={_fmt(cfg.r1)}",
        f".param r2={_fmt(cfg.r2)}",
        f".param ibval={_fmt(conv.ib)}",
        _MODEL_CARDS,
        _CELL_TEXT[conv.family],
        f"vdd vdd 0 DC {_fmt(conv.rails)}",
        f"vss vss 0 DC {_fmt(-conv.rails)}",
        f"vin in 0 {_source_text(cfg.input)}",
    ]
    if two_stage:
        lines.append(f"xu1 in m zf vdd vss {cell}")
        lines.append(f"xu2 m x out vdd vss {cell}")
    else:
        lines.append(f"xu1 in x out vdd vss {cell}")
    lines += [
        "r1 x 0 r1",
        "r2 out 0 r2",
        _default_tran(cfg.input, periods=2, points_per_period=100),
        *_amp_measures(powered=True),
        ".end",
    ]
    return "\n".join(lines) + "\n"


def _char_circuit(cfg: AmplifierConfig) -> str:
    conv = cfg.conveyor
    if not isinstance(conv, TranslinearConveyor):
        conv = TranslinearConveyor()
    cell = f"{conv.family}_cell"
    lines = [
        "conveyor X-resistance characterization (grounded Y, current probe at X)",
        f".param ibval={_fmt(conv.ib)}",
        ".param iprobe=0.0",
        _MODEL_CARDS,
        _CELL_TEXT[conv.family],
        f"vdd vdd 0 DC {_fmt(conv.rails)}",
        f"vss vss 0 DC {_fmt(-conv.rails)}",
        "it 0 x DC iprobe",
        f"xu1 0 x z vdd vss {cell}",
        "rz z 0 1000.0",
        ".op",
        ".end",
    ]
    return "\n".join(lines) + "\n"


def emit_example(name: str, cfg: AmplifierConfig | None = None) -> str:
    """Produce a complete, parseable netlist for one library circuit.

    ``proposed_amp`` is the single-conveyor amplifier with a controlled
    (bias-tunable) conveyor; ``ferri_1cc`` is the same resistor
    arrangement around a plain conveyor; ``ferri_2cc`` buffers the input
    through a first conveyor whose Z terminal is deliberately left
    floating.  The ``_translinear`` variant expands the conveyor into the
    MOS cell, and ``cccii_char`` is the X-resistance test bench.
    """
    if name == "proposed_amp":
        cfg = cfg or AmplifierConfig()
        if isinstance(cfg.conveyor, TranslinearConveyor):
            return _translinear_amp(cfg, two_stage=False)
        return _behavioral_amp(cfg, two_stage=False, ctype="cccii+")
    if name == "ferri_1cc":
        cfg = cfg or AmplifierConfig(conveyor=BehavioralConveyor(rx=0.0, controlled=False))
        if isinstance(cfg.conveyor, TranslinearConveyor):
            return _translinear_amp(cfg, two_stage=False)
        return _behavioral_amp(cfg, two_stage=False, ctype="ccii+")
    if name == "ferri_2cc":
        cfg = cfg or AmplifierConfig(conveyor=BehavioralConveyor(rx=0.0, controlled=False))
        if isinstance(cfg.conveyor, TranslinearConveyor):
            return _translinear_amp(cfg, two_stage=True)
        return _behavioral_amp(cfg, two_stage=True, ctype="ccii+")
    if name == "proposed_amp_translinear":
        cfg = cfg or AmplifierConfig(conveyor=TranslinearConveyor())
        if not isinstance(cfg.conveyor, TranslinearConveyor):
            raise ValueError("proposed_amp_translinear needs a translinear conveyor config")
        return _translinear_amp(cfg, two_stage=False)
    if name == "cccii_char":
        return _char_circuit(cfg or AmplifierConfig(conveyor=TranslinearConveyor(rails=1.5)))
    raise ValueError(f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}")


# --------------------------------------------------------------------------
# Emergent X-resistance extraction
# --------------------------------------------------------------------------

def measure_rx_emergent(
    ib: float,
    rails: float = 1.5,
    family: str = "cccii",
    delta_frac: float = 0.01,
    tol: Tolerances | None = None,
) -> float:
    """Small-signal X resistance of the transistor-level conveyor.

    Builds the characterization bench, injects test currents of both
    signs (magnitude ib * delta_frac) into X around the operating point
    and returns the centered difference dV_X / dI.  Rails default to
    1.5 V so the cell stays in saturation over a 4x bias sweep.  The two
    operating points are one :func:`newton_dc` on the union of the two
    benches, or, if that fails, one each.
    """
    text = emit_example(
        "cccii_char",
        AmplifierConfig(conveyor=TranslinearConveyor(ib=ib, family=family, rails=rails)),
    )
    ast = parse_netlist(text)
    delta = ib * delta_frac
    pair = [expand_hierarchy(ast, {"iprobe": sign * delta}) for sign in (1.0, -1.0)]
    vx = _dc_voltages(pair, "x", tol)
    return (vx[0] - vx[1]) / (2.0 * delta)


def _dc_voltages(circuits, node: str, tol: Tolerances | None) -> list[float]:
    """The operating-point voltage of ``node`` in each circuit, solved as
    one union circuit without the gmin ladder; if that fails, circuit by
    circuit, so a failing circuit raises its own error."""
    whole = union(circuits)
    u = mna.index_unknowns(whole)
    try:
        x = newton_dc(whole, u, tol, rescue=False).x
    except (ConvergenceError, SingularMatrixError):
        out = []
        for c in circuits:
            u = mna.index_unknowns(c)
            out.append(newton_dc(c, u, tol).x[u.node_row(c.nodes[node])])
        return out
    return [x[u.node_row(whole.nodes[member_name(k, node)])] for k in range(len(circuits))]


def expected_rx(ib: float) -> float:
    """Formula value for the library's core sizing."""
    return conveyor_rx(CORE_BETA, ib)


# --------------------------------------------------------------------------
# Comparison suites
# --------------------------------------------------------------------------

POWER_SUITE = (
    ("ferri_2cc_ccii", "ferri_2cc", "ccii"),
    ("ferri_1cc_ccii", "ferri_1cc", "ccii"),
    ("ferri_2cc_cccii", "ferri_2cc", "cccii"),
    ("proposed_cccii", "proposed_amp", "cccii"),
)


def power_comparison(
    ib: float = 50e-6,
    rails: float = 1.0,
    r: float = 1e3,
    tol: Tolerances | None = None,
) -> dict[str, tuple[float, float]]:
    """Average and peak supply power of the four transistor-level
    amplifiers at identical rails and bias.  Both amplifier resistors are
    equal so every circuit sees the same loading.

    The four transients run as one union circuit through
    :func:`run_transient_union`; each amplifier's power is measured on
    its own split waveform.
    """
    circuits = [
        parse_and_flatten(emit_example(topo, AmplifierConfig(
            r1=r, r2=r, conveyor=TranslinearConveyor(ib=ib, family=family, rails=rails),
        )))
        for _, topo, family in POWER_SUITE
    ]
    # one input, so every amplifier carries the same .tran
    tran = next(d for d in circuits[0].directives if d.kind == "tran")
    waves = run_transient_union(circuits, *tran.args, tol)
    supplies = ("vdd", "vss")
    return {
        label: (average_power(wave, supplies), peak_power(wave, supplies))
        for (label, _, _), wave in zip(POWER_SUITE, waves)
    }


def simulated_gain(
    r1: float,
    r2: float,
    rx: float,
    amplitude: float = 0.05,
    freq: float = 1e3,
    dt: float = 1e-6,
    periods: int = 5,
    clip: tuple[float, float] | None = None,
    tol: Tolerances | None = None,
) -> float:
    """End-to-end amplifier gain from a transient run of the behavioral
    single-conveyor amplifier."""
    conv = BehavioralConveyor(
        rx=rx,
        vmin=None if clip is None else clip[0],
        vmax=None if clip is None else clip[1],
    )
    cfg = AmplifierConfig(r1=r1, r2=r2, conveyor=conv, input=Sin(0.0, amplitude, freq))
    c = parse_and_flatten(emit_example("proposed_amp", cfg))
    wave = run_transient(c, dt, periods / freq, "trap", tol)
    return gain(wave, "v(in)", "v(out)")


def gain_grid(r1s, r2s, rxs, **kwargs):
    """Simulated versus formula gain over a grid of (r1, r2, rx)."""
    for r1 in r1s:
        for r2 in r2s:
            for rx in rxs:
                yield r1, r2, rx, simulated_gain(r1, r2, rx, **kwargs), loaded_gain(r1, r2, rx)
