"""Waveform measurements: RMS, peak-to-peak, gain, supply power, histograms.

All functions are pure and operate on immutable sample arrays.  Supply
power counts energy delivered by a source as positive: with the MNA
branch current flowing into the source's positive terminal, delivered
power is v * (-i), so a circuit that dissipates shows a positive number.
"""

from __future__ import annotations

import math
import numpy as np

from .devices import Record
from .transient import Waveform


class MeasureError(Exception):
    pass


class Histogram(Record):
    lo: float
    hi: float
    nbins: int
    counts: tuple[int, ...]


class Measurement(Record):
    name: str
    kind: str  # rms pp gain avgpow peakpow hist
    value: float | Histogram
    units: str


def rms(samples, dt: float) -> float:
    """Square root of the trapezoidal-rule time average of the squared
    signal over the full record."""
    s = np.asarray(samples, dtype=float)
    if s.size < 2:
        raise MeasureError("rms needs at least 2 samples")
    if dt <= 0.0:
        raise MeasureError("rms needs a positive sample interval")
    sq = s * s
    total = dt * (0.5 * sq[0] + sq[1:-1].sum() + 0.5 * sq[-1])
    return math.sqrt(total / (dt * (s.size - 1)))


def peak_to_peak(samples) -> float:
    s = np.asarray(samples, dtype=float)
    if s.size < 1:
        raise MeasureError("peak_to_peak needs at least 1 sample")
    return float(s.max() - s.min())


def _window(samples):
    # settled region: final 50% of the record
    s = np.asarray(samples, dtype=float)
    return s[s.size // 2 :]


def gain(wave: Waveform, in_probe: str, out_probe: str) -> float:
    """Peak-to-peak output over peak-to-peak input, both taken over the
    final half of the record to skip start-up transients."""
    vin = _window(wave.column(in_probe))
    vout = _window(wave.column(out_probe))
    ppin = peak_to_peak(vin)
    if ppin == 0.0:
        raise MeasureError(f"gain: input probe {in_probe} has zero swing")
    if out_probe == in_probe:
        return 1.0
    return peak_to_peak(vout) / ppin


def _supply_power_samples(wave: Waveform, supplies) -> np.ndarray:
    inst = np.zeros_like(wave.times)
    for name in supplies:
        name = name.lower()
        if name not in wave.vsource_nodes:
            raise MeasureError(f"unknown supply {name!r}")
        p, n = wave.vsource_nodes[name]
        v = wave.column(f"v({p})") - wave.column(f"v({n})")
        i = wave.column(f"i({name})")
        inst += v * (-i)
    return inst


def average_power(wave: Waveform, supplies) -> float:
    """Time-averaged total power delivered by the named voltage sources."""
    inst = _supply_power_samples(wave, supplies)
    if inst.size < 2:
        return float(inst[0])
    total = 0.5 * inst[0] + inst[1:-1].sum() + 0.5 * inst[-1]
    return float(total / (inst.size - 1))


def peak_power(wave: Waveform, supplies) -> float:
    """Largest instantaneous total power delivered by the named sources."""
    return float(_supply_power_samples(wave, supplies).max())


def histogram(samples, nbins: int = 20) -> Histogram:
    """Uniform binning over [min, max] with a right-closed last bin.

    A constant signal degenerates to all samples in bin 0.
    """
    s = np.asarray(samples, dtype=float)
    if s.size < 1:
        raise MeasureError("histogram needs at least 1 sample")
    if nbins < 1:
        raise MeasureError("histogram needs nbins >= 1")
    lo, hi = float(s.min()), float(s.max())
    idx = np.zeros(s.size, dtype=int)
    if hi != lo:
        idx = np.floor((s - lo) / (hi - lo) * nbins).astype(int)
        np.clip(idx, 0, nbins - 1, out=idx)
    counts = np.bincount(idx, minlength=nbins)
    return Histogram(lo, hi, nbins, tuple(int(v) for v in counts))


def run_measure(directive_args, wave: Waveform) -> Measurement:
    """Evaluate one parsed ``.measure`` directive against a waveform."""
    name, kind, margs = directive_args
    if kind == "rms":
        return Measurement(name, kind, rms(wave.column(_probe(margs[0])), wave.dt), "V")
    if kind == "pp":
        return Measurement(name, kind, peak_to_peak(wave.column(_probe(margs[0]))), "V")
    if kind == "gain":
        return Measurement(name, kind, gain(wave, _probe(margs[0]), _probe(margs[1])), "V/V")
    if kind == "avgpow":
        return Measurement(name, kind, average_power(wave, margs), "W")
    if kind == "peakpow":
        return Measurement(name, kind, peak_power(wave, margs), "W")
    if kind == "hist":
        return Measurement(name, kind, histogram(wave.column(_probe(margs[0])), margs[1]), "counts")
    raise MeasureError(f"unknown measure kind {kind!r}")


def _probe(p) -> str:
    return f"{p[0]}({p[1]})"
