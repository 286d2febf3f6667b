"""Span tracing of ccsim from outside the program.

The tracer wraps public functions of the ccsim modules and records one
span per call: name, start, end, parent span and unit (the traced
repetition of the workload).  Spans live in compact in-memory arrays and
are written out once, when the traced run ends.

Wrapping is binding-aware: ``from .solver import newton_dc`` in another
module creates a second name for the same function object, so the
wrapper replaces every name in every loaded ``ccsim`` module that is
bound to the original function, not just the defining module's.

A function that a later version of ccsim removes or renames is reported
on stderr and the layer metrics that depend only on it are left out; the
traced run itself carries on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("netlist", "mna", "devices", "solver", "transient", "measure", "library", "cli")

# Functions wrapped per module.  Of the internal helpers only
# ``cli._sweep_point`` is traced: it is the unit of sweep work.
TARGETS = {
    "netlist": ("parse_netlist", "expand_hierarchy"),
    "mna": ("index_unknowns", "assemble"),
    "devices": ("mosfet_eval", "source_value", "source_samples"),
    "solver": ("lu_factor", "lu_solve", "solve_linear", "newton_dc", "gmin_stepped_dc"),
    "transient": ("run_transient", "run_dc_sweep", "write_csv"),
    "measure": (
        "run_measure", "rms", "peak_to_peak", "gain", "average_power", "peak_power", "histogram",
    ),
    "library": (
        "emit_example", "loaded_gain", "tuning_case", "simulated_gain", "gain_grid",
        "measure_rx_emergent", "expected_rx", "power_comparison",
    ),
    "cli": ("main", "cmd_run", "cmd_op", "cmd_sweep", "cmd_examples", "cmd_measure", "_sweep_point"),
}


def _spans(module: str, *names: str) -> tuple[str, ...]:
    return tuple(f"{module}.{n}" for n in names)


# Self time of a layer: the summed self time of the listed spans.  Every
# one of these is entered on every workload, so none reads a constant 0.
SELF_TIMES = {
    "netlist.parse_s": _spans("netlist", "parse_netlist"),
    "netlist.flatten_s": _spans("netlist", "expand_hierarchy"),
    "mna.index_s": _spans("mna", "index_unknowns"),
    "mna.assemble_s": _spans("mna", "assemble"),
    "devices.eval_s": _spans("devices", *TARGETS["devices"]),
    "devices.source_eval_s": _spans("devices", "source_value", "source_samples"),
    "solver.lu_s": _spans("solver", "lu_factor", "lu_solve", "solve_linear"),
    "solver.newton_s": _spans("solver", "newton_dc", "gmin_stepped_dc"),
    "transient.run_s": _spans("transient", "run_transient", "run_dc_sweep"),
    "transient.self_s": _spans("transient", *TARGETS["transient"]),
    "measure.s": _spans("measure", *TARGETS["measure"]),
    "entry.self_s": _spans("cli", *TARGETS["cli"]) + _spans("library", *TARGETS["library"]),
}

# Call counts: the number of spans of the listed functions.
CALLS = {
    "netlist.parse_calls": _spans("netlist", "parse_netlist"),
    "netlist.flatten_calls": _spans("netlist", "expand_hierarchy"),
    "mna.assemble_calls": _spans("mna", "assemble"),
    "devices.mosfet_eval_calls": _spans("devices", "mosfet_eval"),
    "devices.source_eval_calls": _spans("devices", "source_value", "source_samples"),
    "solver.lu_factor_calls": _spans("solver", "lu_factor"),
    "solver.newton_calls": _spans("solver", "newton_dc"),
    "solver.gmin_rescues": _spans("solver", "gmin_stepped_dc"),
    "cli.sweep_points": _spans("cli", "_sweep_point"),
}

# Calls into a layer from outside it; a call nested inside the layer is
# not a new entry.
ENTRIES = {"measure.calls": "measure", "library.calls": "library", "cli.calls": "cli"}

# Spans whose exceptions are counted as failures.
RAISES = {"solver.newton_failures": "solver.newton_dc"}


def _csv_bytes(args, kwargs, result) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# Counts read from a call's arguments or result: span -> (metric, reader,
# combine).  They come from what the program returns, not from its
# internals, so they survive refactors that keep the public API.
HOOKS = {
    "mna.index_unknowns": ("mna.unknowns", lambda a, k, r: int(r.size), max),
    "solver.newton_dc": ("solver.newton_iters", lambda a, k, r: int(r.iterations), int.__add__),
    "transient.run_transient": ("transient.steps", lambda a, k, r: len(r.times) - 1, int.__add__),
    "transient.write_csv": ("transient.csv_bytes", _csv_bytes, int.__add__),
}


def warn(msg: str):
    print(f"perfbench: warning: {msg}", file=sys.stderr)


def find_bindings(replacements: dict[int, tuple]) -> list[tuple]:
    """Every name in a loaded ccsim module bound to a function to replace.

    ``replacements`` maps ``id(function)`` to ``(function, replacement)``;
    the result lists ``(module, name, function, replacement)``.
    """
    bindings = []
    for key, mod in list(sys.modules.items()):
        if key != "ccsim" and not key.startswith("ccsim."):
            continue
        for name, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                bindings.append((mod, name, value, hit[1]))
    return bindings


class Tracer:
    """In-memory span recorder plus the per-unit counts read by hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_idx = array("q")
        self.unit = array("q")
        self.found: set[str] = set()
        self.broken_hooks: set[str] = set()
        self.counts: dict[int, Counter] = {}
        self.raised: dict[int, Counter] = {}
        self.current_unit = -1
        self._stack: list[int] = []
        self._bindings = None

    def begin_unit(self, unit: int):
        """Attribute the spans and counts that follow to ``unit``."""
        self.current_unit = unit
        self.counts[unit] = Counter()
        self.raised[unit] = Counter()

    def _wrap(self, fn, span: str):
        nid = len(self.names)
        self.names.append(span)
        hook = HOOKS.get(span)
        start, end, parent, name_idx, unit, stack = (
            self.start, self.end, self.parent, self.name_idx, self.unit, self._stack,
        )
        tracer = self

        def enter() -> int:
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name_idx.append(nid)
            unit.append(tracer.current_unit)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            return i

        def leave(i: int):
            end[i] = perf_counter()
            stack.pop()

        def count(args, kwargs, result):
            if span in tracer.broken_hooks:
                return
            metric, read, combine = hook
            counts = tracer.counts[tracer.current_unit]
            try:
                value = read(args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError, OSError) as exc:
                tracer.broken_hooks.add(span)
                warn(f"reading {metric} from {span} failed ({exc!r}); it is left out")
                return
            counts[metric] = combine(counts.get(metric, 0), value)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                i = enter()
                try:
                    yield from fn(*args, **kwargs)
                except BaseException:
                    tracer.raised[tracer.current_unit][span] += 1
                    raise
                finally:
                    leave(i)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(i)
                tracer.raised[tracer.current_unit][span] += 1
                raise
            leave(i)
            if hook is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every ccsim namespace that binds it.

        The wrappers are built on the first call and reused afterwards, so
        :meth:`uninstall` and ``install`` can alternate traced and
        untraced runs in one process.
        """
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)

    def uninstall(self):
        """Put the original functions back."""
        for mod, name, original, _ in self._bindings or ():
            setattr(mod, name, original)

    def _find_bindings(self):
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"ccsim.{layer}")
            except ImportError as exc:
                warn(f"module ccsim.{layer} is not importable ({exc}); its metrics are left out")
                continue
            for name in TARGETS[layer]:
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn):
                    warn(f"ccsim.{layer}.{name} not found; metrics that need only it are left out")
                    continue
                self.found.add(f"{layer}.{name}")
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        return find_bindings(wrappers)

    def _arrays(self):
        """Copies of the span columns: name id, parent, unit, duration."""
        return (
            np.array(self.name_idx, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.unit, dtype=np.int64),
            np.array(self.end, dtype=float) - np.array(self.start, dtype=float),
        )

    def unit_metrics(self, unit: int) -> dict[str, float | int]:
        """Per-layer metrics of one traced unit, computed from its spans.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly because the traced run is
        single-threaded.
        """
        idx, parent, units, dur = self._arrays()
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children
        sel = units == unit
        n = len(self.names)
        self_by_name = np.bincount(idx[sel], weights=self_time[sel], minlength=n)
        calls_by_name = np.bincount(idx[sel], minlength=n)
        pos = {name: k for k, name in enumerate(self.names)}

        out: dict[str, float | int] = {}
        for metric, spans in SELF_TIMES.items():
            if any(s in self.found for s in spans):
                out[metric] = float(sum(self_by_name[pos[s]] for s in spans if s in pos))
        for metric, spans in CALLS.items():
            if any(s in self.found for s in spans):
                out[metric] = int(sum(calls_by_name[pos[s]] for s in spans if s in pos))
        layer_of_name = np.array([s.split(".", 1)[0] for s in self.names] or [""])
        span_layer = layer_of_name[idx]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")
        for metric, layer in ENTRIES.items():
            out[metric] = int(np.count_nonzero(sel & (span_layer == layer) & (parent_layer != layer)))
        for metric, span in RAISES.items():
            if span in self.found:
                out[metric] = self.raised[unit][span]
        for span, (metric, _, _) in HOOKS.items():
            if span in self.found and span not in self.broken_hooks:
                out[metric] = self.counts[unit].get(metric, 0)
        if "solver.newton_iters" in out and out.get("solver.newton_calls"):
            out["solver.newton_iters_per_call"] = out["solver.newton_iters"] / out["solver.newton_calls"]
        if "solver.lu_factor_calls" in out and out.get("mna.assemble_calls"):
            out["solver.solves_per_assemble"] = out["solver.lu_factor_calls"] / out["mna.assemble_calls"]
        return out

    def save(self, path):
        """Write every recorded span to a compressed ``.npz`` file."""
        idx, parent, units, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_idx=idx,
            parent=parent,
            unit=units,
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
