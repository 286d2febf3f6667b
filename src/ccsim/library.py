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

Each example is one entry of a table: its default conveyor, the conveyor
type of its behavioral form and its stage count.  :func:`example_config`
reads an entry's configuration and :func:`emit_example` writes the
netlist of any configuration with one amplifier writer (the
characterization bench has its own).

The gain grid parses its amplifier once and runs all its points as one
stack, and the power comparison steps its four amplifiers together as
one stack (see :func:`ccsim.transient.run_transient_stacked`).
"""

from __future__ import annotations

from . import mna
from .devices import Record, Sin, SourceSpec, conveyor_rx
from .netlist import expand_hierarchy, parse_and_flatten, parse_netlist, source_text, value_text
from .solver import Tolerances, newton_dc
from .transient import Waveform, run_transient_stacked
from .measure import average_power, gain, peak_power


class BehavioralConveyor(Record):
    """Ideal conveyor element parameters: explicit rx, or (ib, beta_n) for
    the bias-controlled variant.  An explicit rx wins when both are set;
    it may be a number or the name of a parameter that flattening sets."""

    rx: float | str | None = None
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

# Each example: its default conveyor, the conveyor type its behavioral
# form instantiates (None where only the transistor-level form exists),
# and whether a first conveyor buffers the input.
_EXAMPLES = {
    "proposed_amp": (BehavioralConveyor(), "cccii+", False),
    "ferri_1cc": (BehavioralConveyor(rx=0.0, controlled=False), "ccii+", False),
    "ferri_2cc": (BehavioralConveyor(rx=0.0, controlled=False), "ccii+", True),
    "proposed_amp_translinear": (TranslinearConveyor(), None, False),
    "cccii_char": (TranslinearConveyor(rails=1.5), None, False),
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def _behavioral_u(name: str, nodes: str, conv: BehavioralConveyor, ctype: str) -> str:
    parts = [name, nodes, ctype]
    if conv.rx is not None:
        parts.append(f"rx={value_text(conv.rx)}")
    else:
        parts.append(f"ib={value_text(conv.ib)}")
        parts.append(f"beta={value_text(conv.beta_n)}")
    if conv.vmin is not None:
        parts.append(f"vmin={value_text(conv.vmin)}")
    if conv.vmax is not None:
        parts.append(f"vmax={value_text(conv.vmax)}")
    return " ".join(parts)


def _default_tran(s: SourceSpec, periods: int = 5, points_per_period: int = 1000) -> str:
    freq = s.freq if isinstance(s, Sin) else 1e3
    dt = 1.0 / (freq * points_per_period)
    return f".tran {value_text(dt)} {value_text(periods / freq)} method=trap"


def _cell_lines(conv: TranslinearConveyor) -> list[str]:
    """Model cards, the cell definition and the rails of a translinear conveyor."""
    return [
        _MODEL_CARDS,
        _CELL_TEXT[conv.family],
        f"vdd vdd 0 DC {value_text(conv.rails)}",
        f"vss vss 0 DC {value_text(-conv.rails)}",
    ]


def _amp(cfg: AmplifierConfig, two_stage: bool, ctype: str | None) -> str:
    """The amplifier around ``cfg.conveyor``: a ``ctype`` element for a
    behavioral conveyor, an instance of the MOS cell, with its rails and
    supply-power measures, for a translinear one."""
    conv = cfg.conveyor
    cell = isinstance(conv, TranslinearConveyor)
    lines = [
        f"two-resistor tunable voltage amplifier ({'translinear' if cell else 'behavioral'} conveyor)",
        f".param r1={value_text(cfg.r1)}",
        f".param r2={value_text(cfg.r2)}",
    ]
    if cell:
        lines += [f".param ibval={value_text(conv.ib)}", *_cell_lines(conv)]
    lines.append(f"vin in 0 {source_text(cfg.input)}")
    for k, nodes in enumerate(("in m zf", "m x out") if two_stage else ("in x out",), 1):
        if cell:
            lines.append(f"xu{k} {nodes} vdd vss {conv.family}_cell")
        else:
            lines.append(_behavioral_u(f"u{k}", nodes, conv, ctype))
    lines += [
        "r1 x 0 r1",
        "r2 out 0 r2",
        _default_tran(cfg.input, periods=2, points_per_period=100) if cell else _default_tran(cfg.input),
        ".measure g gain v(in) v(out)",
        ".measure outpp pp v(out)",
        ".measure outrms rms v(out)",
        ".measure outhist hist v(out) bins=20",
    ]
    if cell:
        lines += [".measure pavg avgpow vdd vss", ".measure ppk peakpow vdd vss"]
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _char_circuit(cfg: AmplifierConfig) -> str:
    conv = cfg.conveyor
    if not isinstance(conv, TranslinearConveyor):
        conv = TranslinearConveyor()
    cell = f"{conv.family}_cell"
    lines = [
        "conveyor X-resistance characterization (grounded Y, current probe at X)",
        f".param ibval={value_text(conv.ib)}",
        ".param iprobe=0.0",
        *_cell_lines(conv),
        "it 0 x DC iprobe",
        f"xu1 0 x z vdd vss {cell}",
        "rz z 0 1000.0",
        ".op",
        ".end",
    ]
    return "\n".join(lines) + "\n"


def example_config(name: str) -> AmplifierConfig:
    """The configuration :func:`emit_example` uses for ``name`` when given none."""
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}")
    return AmplifierConfig(conveyor=_EXAMPLES[name][0])


def emit_example(name: str, cfg: AmplifierConfig | None = None) -> str:
    """Produce a complete, parseable netlist for one library circuit,
    from ``cfg`` or else :func:`example_config`.

    ``proposed_amp`` is the single-conveyor amplifier with a controlled
    (bias-tunable) conveyor; ``ferri_1cc`` is the same resistor
    arrangement around a plain conveyor; ``ferri_2cc`` buffers the input
    through a first conveyor whose Z terminal is deliberately left
    floating.  Each of the three expands its conveyor into the MOS cell
    when ``cfg`` holds a :class:`TranslinearConveyor`.
    ``proposed_amp_translinear`` exists only in that form, and
    ``cccii_char`` is the X-resistance test bench.
    """
    default = example_config(name)  # raises for an unknown name
    _, ctype, two_stage = _EXAMPLES[name]
    cfg = cfg or default
    if name == "cccii_char":
        return _char_circuit(cfg)
    if ctype is None and not isinstance(cfg.conveyor, TranslinearConveyor):
        raise ValueError(f"{name} needs a translinear conveyor config")
    return _amp(cfg, two_stage, ctype)


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
    1.5 V so the cell stays in saturation over a 4x bias sweep.
    """
    text = emit_example(
        "cccii_char",
        AmplifierConfig(conveyor=TranslinearConveyor(ib=ib, family=family, rails=rails)),
    )
    ast = parse_netlist(text)
    delta = ib * delta_frac
    vx = []
    for sign in (1.0, -1.0):
        c = expand_hierarchy(ast, {"iprobe": sign * delta})
        plan = mna.compile(c, (tol or Tolerances()).gmin_floor)
        vx.append(newton_dc(plan, tol).x[plan.u.node_row(c.nodes["x"])])
    return (vx[0] - vx[1]) / (2.0 * delta)


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

    The four transients are stepped together by
    :func:`run_transient_stacked`; the first amplifier that fails raises
    its error.
    """
    circuits = [
        parse_and_flatten(emit_example(topo, AmplifierConfig(
            r1=r, r2=r, conveyor=TranslinearConveyor(ib=ib, family=family, rails=rails),
        )))
        for _, topo, family in POWER_SUITE
    ]
    # one input, so every amplifier carries the same .tran
    tran = next(d for d in circuits[0].directives if d.kind == "tran")
    waves = list(run_transient_stacked(circuits, *tran.args, tol))
    for wave in waves:
        if not isinstance(wave, Waveform):
            raise wave
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
    single-conveyor amplifier: the one point of a :func:`gain_grid`."""
    return next(gain_grid([r1], [r2], [rx], amplitude, freq, dt, periods, clip, tol))[3]


def gain_grid(
    r1s,
    r2s,
    rxs,
    amplitude: float = 0.05,
    freq: float = 1e3,
    dt: float = 1e-6,
    periods: int = 5,
    clip: tuple[float, float] | None = None,
    tol: Tolerances | None = None,
):
    """Simulated versus formula gain over a grid of (r1, r2, rx): yields
    ``(r1, r2, rx, simulated, formula)`` per point, r1 slowest and rx
    fastest.

    The behavioral single-conveyor amplifier, driven by a sine of
    ``amplitude`` and ``freq`` and clamped to ``clip``, is emitted and
    parsed once with r1, r2 and rx as parameters.  Each point is
    flattened with its values, and all points run ``periods`` periods
    with step ``dt`` as one :func:`run_transient_stacked` call, which
    forms each waveform only when it is taken.  The first point that
    fails raises its error.
    """
    points = [(r1, r2, rx) for r1 in r1s for r2 in r2s for rx in rxs]
    conv = BehavioralConveyor(
        rx="rx",
        vmin=None if clip is None else clip[0],
        vmax=None if clip is None else clip[1],
    )
    cfg = AmplifierConfig(conveyor=conv, input=Sin(0.0, amplitude, freq))
    ast = parse_netlist(emit_example("proposed_amp", cfg))
    circuits = []
    for r1, r2, rx in points:
        AmplifierConfig(r1=r1, r2=r2)  # checks the resistors
        circuits.append(expand_hierarchy(ast, {"r1": float(r1), "r2": float(r2), "rx": float(rx)}))
    waves = run_transient_stacked(circuits, dt, periods / freq, "trap", tol)
    for (r1, r2, rx), wave in zip(points, waves):
        if not isinstance(wave, Waveform):
            raise wave
        yield r1, r2, rx, gain(wave, "v(in)", "v(out)"), loaded_gain(r1, r2, rx)
