"""Device constitutive relations.

Everything a stamp needs to know about a device lives here: the level-1
square-law MOSFET with analytic derivatives, time-dependent independent
sources (one law, :func:`source_samples`, over an array of times), and
the current-conveyor intrinsic resistance law

    R_X = 1 / (2 gm) = 1 / sqrt(8 * beta_n * Ib)

which holds for a class-AB translinear input cell where two matched
square-law devices (one NMOS, one PMOS) look into terminal X, each biased
at Ib so that gm = sqrt(2 * beta_n * Ib).

All functions are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

TWO_PI = 2.0 * math.pi


class _RecordType(type):
    """Makes a record class's annotated fields slots; their defaults go to ``_defaults``."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        cls = super().__new__(mcls, name, bases, {**ns, "__slots__": fields})
        cls._fields, cls._defaults = fields, defaults
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        cls._key = attrgetter(*[f for f in fields if f != "line"]) if fields else None
        return cls


class Record(metaclass=_RecordType):
    """Immutable value record; fields are the subclass's annotations, in
    constructor order, a default as the annotation's value.  Instances run
    ``__post_init__``, refuse assignment, compare and hash by class and every
    field but ``line`` (a source position), and repr as ``Name(field=value, ...)``.
    Built without ``dataclasses``, whose class creation was most of ccsim's
    import time."""

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, v in zip(setters, args):
            set_field(self, v)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """Every field's value: from ``args``, else ``kwargs``, else the default."""
        fields, values = cls._fields, dict(cls._defaults)
        values.update(zip(fields, args), **kwargs)
        if (len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):])
                or len(values) < len(fields)):
            raise TypeError(f"{cls.__name__}() takes ({', '.join(fields)})")
        return [values[f] for f in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def _replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new record is."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


class MosfetParams(Record):
    """Square-law MOSFET parameters.

    ``beta`` is the transconductance factor mu*Cox*W/L in A/V^2, stored
    already resolved.  ``vth`` is the threshold magnitude (positive for
    both polarities; PMOS inputs are sign-flipped internally).  ``lam``
    is the channel-length modulation coefficient in 1/V.
    """

    polarity: str  # "nmos" | "pmos"
    vth: float
    beta: float
    lam: float = 0.0

    def __post_init__(self):
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"bad MOSFET polarity {self.polarity!r}")
        if self.beta <= 0.0:
            raise ValueError("MOSFET beta must be positive")
        if self.lam < 0.0:
            raise ValueError("MOSFET lambda must be non-negative")

    @property
    def sign(self) -> float:
        return 1.0 if self.polarity == "nmos" else -1.0


class MosfetBank(Record):
    """Parameters of several MOSFETs, one array entry per device, for a
    single vectorized :func:`mosfet_eval` call.  ``sign`` is +1 for NMOS
    and -1 for PMOS."""

    sign: np.ndarray
    vth: np.ndarray
    beta: np.ndarray
    lam: np.ndarray

    @classmethod
    def of(cls, params: list[MosfetParams], count: int = 0) -> "MosfetBank":
        """The bank of ``params``, grown to ``count`` devices by pads that
        conduct nothing (NMOS, beta 0)."""
        def col(name, pad):
            return np.array([getattr(p, name) for p in params] + [pad] * (count - len(params)), dtype=float)

        return cls(col("sign", 1.0), col("vth", 0.0), col("beta", 0.0), col("lam", 0.0))


class Dc(Record):
    value: float


class Sin(Record):
    offset: float
    amplitude: float
    freq: float

    def __post_init__(self):
        if self.freq <= 0.0:
            raise ValueError("SIN source frequency must be positive")


class Pulse(Record):
    v1: float
    v2: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self):
        if self.rise < 0.0 or self.fall < 0.0:
            raise ValueError("PULSE rise/fall must be non-negative")
        if self.width < 0.0:  # a negative delay is a phase shift, a negative width nothing
            raise ValueError("PULSE width must be non-negative")
        if self.period <= 0.0:
            raise ValueError("PULSE period must be positive")


SourceSpec = Dc | Sin | Pulse


def conveyor_rx(beta_n: float, ib: float) -> float:
    """Intrinsic resistance seen at terminal X of a controlled conveyor.

    rx = 1 / sqrt(8 * beta_n * ib); strictly decreasing in both arguments,
    so raising the bias current lowers (tunes) the resistance.
    """
    if beta_n <= 0.0 or ib <= 0.0:
        raise ValueError("conveyor_rx requires beta_n > 0 and ib > 0")
    return 1.0 / math.sqrt(8.0 * beta_n * ib)


def mosfet_eval(vgs, vds, p):
    """Drain current and small-signal derivatives at one operating point.

    Returns (id, gm, gds) where id is the current into the drain terminal,
    gm = d id/d vgs and gds = d id/d vds, all evaluated analytically.
    PMOS devices are handled by sign-flipping the terminal voltages and
    negating the current, which leaves both derivatives positive for a
    conducting device.

    ``p`` is one :class:`MosfetParams` with scalar voltages, or a
    :class:`MosfetBank` with voltage arrays of the bank's length; every
    device is evaluated elementwise by the same arithmetic.
    """
    vgs = p.sign * vgs
    vds = p.sign * vds
    # Negative vds swaps the drain/source roles: the device is evaluated
    # as a normalized NMOS with vd = |vds| >= 0 and its gate drive taken
    # against the lower terminal; the chain rule at the end keeps the
    # partials exact for the original (vgs, vds).
    rev = vds < 0.0
    vd = np.abs(vds)
    vov = np.maximum(vgs - np.minimum(vds, 0.0) - p.vth, 0.0)
    # The effective drain voltage is vd in triode and vov in saturation
    # (zero in cutoff), so one expression covers every region and is
    # continuous at the boundary vd = vov.  The (1 + lam*vd) factor
    # applies in both regions.
    ve = np.minimum(vd, vov)
    bmod = p.beta * (1.0 + p.lam * vd)
    core = (vov - 0.5 * ve) * ve
    g1 = bmod * ve
    g2 = bmod * (vov - ve) + p.beta * p.lam * core
    flip = 1.0 - 2.0 * rev
    return p.sign * flip * (bmod * core), flip * g1, g2 + rev * g1


def source_value(s: SourceSpec, t: float) -> float:
    """Value of an independent source at one time t >= 0: one :func:`source_samples` sample."""
    return float(source_samples(s, np.array([t]))[0])


def source_samples(s: SourceSpec, times: np.ndarray) -> np.ndarray:
    """Values of an independent source at each of ``times`` (all >= 0).

    This is the one law of the DC, SIN and PULSE sources: every value a
    simulation stamps is one of its samples."""
    times = np.asarray(times, dtype=float)
    if isinstance(s, Dc):
        return np.full_like(times, s.value)
    if isinstance(s, Sin):
        return s.offset + s.amplitude * np.sin(TWO_PI * s.freq * times)
    out = np.full_like(times, s.v1)
    active = times >= s.delay
    m = np.mod(times[active] - s.delay, s.period)
    v = np.full_like(m, s.v1)
    if s.rise > 0.0:
        in_rise = m < s.rise
        v[in_rise] = s.v1 + (s.v2 - s.v1) * (m[in_rise] / s.rise)
    on = (m >= s.rise) & (m < s.rise + s.width)
    v[on] = s.v2
    if s.fall > 0.0:
        in_fall = (m >= s.rise + s.width) & (m < s.rise + s.width + s.fall)
        v[in_fall] = s.v2 + (s.v1 - s.v2) * ((m[in_fall] - s.rise - s.width) / s.fall)
    out[active] = v
    return out
