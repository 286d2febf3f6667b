"""The benchmark's workloads: inputs from a seed, how one unit of work is
run, and the checks on its outputs.

A unit is what one user does once and waits for (closed loop, one
client): one ``ccsim run``, one process running the paper's three
experiments, or one ``ccsim sweep``.  The program only ever sees the
generated netlists and command-line arguments.

This module needs only the standard library and numpy, so the parent
benchmark process never imports ccsim itself.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# tran_long: 100 periods of a 1 kHz sine at 1000 points per period.
TRAN_DT = 1e-6
TRAN_STOP = 0.1
# sweep_bias: K bias points, log-uniform over the rx-tuning bias range,
# on as many pool workers as the reference box has cores.
SWEEP_POINTS = 16
SWEEP_IB_RANGE = (12.5e-6, 200e-6)
SWEEP_JOBS = 2
# paper: the three scripts/ experiments at their default arguments.  The
# netlists the library builds for them are captured from one run of the
# experiments (child.py capture), not rebuilt here.
GRID_R = (100.0, 1e3, 2e3, 10e3, 100e3)
GRID_RX = (0.0, 500.0, 1581.0)
GRID_DT = 1e-6
GRID_PERIODS = 5
RX_BIASES = (12.5e-6, 25e-6, 50e-6, 100e-6, 200e-6)
RX_RAILS = 1.5
POWER_IB = 50e-6
POWER_RAILS = 1.0
CORE_BETA = 1e-3  # A/V^2 of the library's core transistors

PROCESS_TIMEOUT_S = 150.0


class CheckFailure(Exception):
    """An output of the program is missing, malformed or wrong."""


def child_env(run_dir: Path) -> dict[str, str]:
    """Environment for every process that imports ccsim: the checkout's
    own sources first on the path, no colour codes on stderr, and a
    bytecode cache of the run's own under ``run_dir``.  Bytecode caches
    next to the sources are never read, so every run compiles ccsim (and
    what it imports) once, in its first process, and all later processes
    of the run load the same fresh cache, whatever state the checkout's
    ``__pycache__`` directories are in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(run_dir / "pycache")
    env["CCSIM_NO_COLOR"] = "1"
    return env


def ccsim_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "ccsim", *args]


def child_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def emit(name: str, out: Path, run_dir: Path, *options: str):
    """Write a library circuit with ``ccsim examples --emit``."""
    proc = subprocess.run(
        ccsim_argv("examples", "--emit", name, *options, "--out", str(out)),
        env=child_env(run_dir), capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"ccsim examples --emit {name} failed: {proc.stderr.strip()}")


def summarise(values: list[float]) -> dict:
    """Median, quartiles, sample count and spread (interquartile range
    over median) of a metric's samples."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med}


@dataclass
class Workload:
    name: str
    ops_per_unit: int  # library calls or CLI invocations in one unit
    cores: int = 1  # processes a unit keeps busy at once

    def prepare(self, seed: int, run_dir: Path) -> dict:
        """Write the seed's inputs into ``run_dir``; return the unit spec.

        Besides the workload's own fields, the spec names the module the
        unit enters ccsim through (``entry``) and lists, for the set-up
        probe, every netlist the unit parses with the parameter overrides
        of each flattening (``setup``).
        """
        raise NotImplementedError

    def outputs(self, spec: dict) -> list[Path]:
        """Files one unit writes."""
        raise NotImplementedError

    def clear_outputs(self, spec: dict):
        """Delete the outputs of the previous unit, so that a unit that
        writes nothing fails its check."""
        for path in self.outputs(spec):
            path.unlink(missing_ok=True)

    def argv(self, spec: dict) -> list[str]:
        """Command line of one unit in a fresh process."""
        raise NotImplementedError

    def inproc_argv(self, spec: dict) -> list[str]:
        """``ccsim.cli.main`` arguments of one in-process unit."""
        raise NotImplementedError

    def check(self, spec: dict) -> tuple[int, list[str]]:
        """Check the outputs of the unit just run.

        Returns the number of failed operations and a message for each
        problem found.  Output that is missing or unreadable fails every
        operation of the unit.
        """
        try:
            problems = self._check(spec)
        except (CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
            return self.ops_per_unit, [f"{self.name}: {exc}"]
        return len(problems), problems

    def _check(self, spec: dict) -> list[str]:
        raise NotImplementedError


class TranLong(Workload):
    def prepare(self, seed, run_dir):
        rng = random.Random(seed)
        r1 = 10 ** rng.uniform(2.0, 5.0)
        r2 = 10 ** rng.uniform(2.0, 5.0)
        rx = rng.uniform(0.0, 2000.0)
        net = run_dir / "amp.cir"
        emit("proposed_amp", net, run_dir, "--r1", repr(r1), "--r2", repr(r2), "--rx", repr(rx))
        text, n = re.subn(
            r"^\.tran .*$", f".tran {TRAN_DT!r} {TRAN_STOP!r} method=trap",
            net.read_text(), flags=re.MULTILINE,
        )
        if n != 1:
            raise RuntimeError("emitted proposed_amp netlist has no single .tran line")
        net.write_text(text)
        return {"workload": self.name, "entry": "cli",
                "setup": [{"netlist": str(net), "overrides": [{}]}],
                "r1": r1, "r2": r2, "rx": rx, "csv": str(run_dir / "wave.csv")}

    def outputs(self, spec):
        csv_path = Path(spec["csv"])
        return [csv_path, csv_path.with_suffix(".measures.csv")]

    def argv(self, spec):
        return ccsim_argv(*self.inproc_argv(spec))

    def inproc_argv(self, spec):
        return ["run", spec["setup"][0]["netlist"], "--out", spec["csv"]]

    def _check(self, spec):
        import numpy as np

        path = Path(spec["csv"])
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        data = _load_table(path)
        n = int(round(TRAN_STOP / TRAN_DT))
        if data.shape != (n + 1, len(header)):
            raise CheckFailure(f"waveform has shape {data.shape}, expected {(n + 1, len(header))}")
        kdt = np.arange(n + 1) * TRAN_DT
        if np.max(np.abs(data[:, 0] - kdt) - 1e-8 * kdt) > 0.0:
            raise CheckFailure("time column is not k*dt")
        g = spec["r2"] / (spec["r1"] + spec["rx"])
        vin = data[:, _col(header, "v(in)")]
        vout = data[:, _col(header, "v(out)")]
        worst = np.max(np.abs(vout - g * vin))
        if not worst <= 1e-6 * np.max(np.abs(vout)):
            raise CheckFailure(f"v(out) departs from r2/(r1+rx)*v(in) by {worst:.3e} V")
        measured = _measures(path.with_suffix(".measures.csv"))
        if abs(measured["g"] - g) > 1e-6 * g:
            raise CheckFailure(f".measure g = {measured['g']!r}, closed form {g!r}")
        return []


class Paper(Workload):
    def prepare(self, seed, run_dir):
        # The paper's experiments take no random input: the seed only
        # names the run.  One run of them in a child process records the
        # netlists the library parses and flattens, for the set-up probe.
        spec = {"workload": self.name, "entry": "library", "out": str(run_dir / "paper.json")}
        proc = subprocess.run(
            child_argv("capture", str(run_dir)), env=child_env(run_dir), capture_output=True,
            text=True, timeout=PROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"capturing the paper's netlists failed: {proc.stderr.strip()}")
        spec["setup"] = json.loads(proc.stdout.strip().splitlines()[-1])
        return spec

    def outputs(self, spec):
        return [Path(spec["out"])]

    def argv(self, spec):
        return child_argv("paper", spec["out"])

    def _check(self, spec):
        with open(spec["out"]) as fh:
            ops = json.load(fh)
        if len(ops) != self.ops_per_unit:
            raise CheckFailure(f"{len(ops)} experiment results, expected {self.ops_per_unit}")
        return [p for p in (check_paper_op(op, ops) for op in ops) if p]


def check_paper_op(op: dict, ops: list[dict]) -> str | None:
    """Message if one paper experiment call failed its acceptance check."""
    kind, value = op["op"], op.get("value")
    if op.get("error"):
        return f"{kind}: {op['error']}"
    if kind == "gain_grid":
        if len(value) != len(GRID_R) ** 2 * len(GRID_RX):
            return f"gain_grid returned {len(value)} points"
        worst = max(abs(sim - r2 / (r1 + rx)) / (r2 / (r1 + rx)) for r1, r2, rx, sim in value)
        if not worst < 0.005:
            return f"gain_grid worst relative error {worst:.3e} >= 0.5 %"
    elif kind == "rx":
        ib, rx = value
        ref = 1.0 / math.sqrt(8.0 * CORE_BETA * ib)
        if not abs(rx - ref) / ref < 0.20:
            return f"rx({ib!r}) = {rx!r}, more than 20 % from {ref!r}"
        rx_at = {o["value"][0]: o["value"][1] for o in ops if o["op"] == "rx" and not o.get("error")}
        if ib == 200e-6 and 50e-6 in rx_at:
            ratio = rx / rx_at[50e-6]
            if not 0.45 <= ratio <= 0.55:
                return f"4x-bias rx ratio {ratio:.4f} outside [0.45, 0.55]"
    elif kind == "power":
        avg = {k: v[0] for k, v in value.items()}
        orderings = (
            ("ferri_2cc_ccii", "ferri_1cc_ccii"),
            ("ferri_2cc_cccii", "proposed_cccii"),
            ("ferri_2cc_cccii", "ferri_2cc_ccii"),
            ("proposed_cccii", "ferri_1cc_ccii"),
        )
        for hi, lo in orderings:
            if not avg[hi] > avg[lo]:
                return f"power ordering {hi} > {lo} fails: {avg[hi]!r} <= {avg[lo]!r}"
        for k, (pavg, ppk) in value.items():
            if not ppk >= pavg >= 0.0:
                return f"power of {k}: peak {ppk!r}, average {pavg!r}"
    else:
        return f"unknown experiment {kind!r}"
    return None


class SweepBias(Workload):
    def prepare(self, seed, run_dir):
        # One log-uniform draw in each of K equal slices of the range:
        # every seed covers the whole bias range, so the Newton work of a
        # unit varies little from seed to seed.
        rng = random.Random(seed)
        lo, hi = (math.log(v) for v in SWEEP_IB_RANGE)
        step = (hi - lo) / SWEEP_POINTS
        values = [math.exp(lo + step * (k + rng.random())) for k in range(SWEEP_POINTS)]
        net = run_dir / "amp_tl.cir"
        emit("proposed_amp_translinear", net, run_dir)
        return {"workload": self.name, "entry": "cli",
                "setup": [{"netlist": str(net), "overrides": [{"ibval": v} for v in values]}],
                "values": values, "csv": str(run_dir / "sweep.csv")}

    def outputs(self, spec):
        return [Path(spec["csv"])]

    def argv(self, spec):
        return ccsim_argv(*self._args(spec, SWEEP_JOBS))

    def inproc_argv(self, spec):
        # spans recorded in pool workers would be lost, so one job in process
        return self._args(spec, 1)

    @staticmethod
    def _args(spec, jobs):
        sweep = "ibval=" + ",".join(repr(v) for v in spec["values"])
        return ["sweep", spec["setup"][0]["netlist"], "--sweep", sweep, "--jobs", str(jobs),
                "--out", spec["csv"]]

    def _check(self, spec):
        with open(spec["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        values = spec["values"]
        if len(body) != len(values):
            raise CheckFailure(f"{len(body)} sweep rows, expected {len(values)}")
        for row, v in zip(body, values):
            if len(row) != len(header):
                raise CheckFailure(f"sweep row has {len(row)} cells, header {len(header)}")
            cells = [float(c) for c in row if ";" not in c]
            if not all(math.isfinite(c) for c in cells):
                raise CheckFailure(f"non-finite value in sweep row {row}")
            if abs(cells[0] - v) > 1e-8 * v:
                raise CheckFailure(f"sweep row for {v!r} reads {row[0]}")
        pavg = [float(r[_col(header, "pavg")]) for r in body]
        if not all(a < b for a, b in zip(pavg, pavg[1:])):
            raise CheckFailure(f"pavg is not strictly increasing in ibval: {pavg}")
        return []


def _col(header: list[str], name: str) -> int:
    if name not in header:
        raise CheckFailure(f"no column {name!r} in {header}")
    return header.index(name)


def _load_table(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _measures(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {r["name"]: float(r["value"]) for r in csv.DictReader(fh) if ";" not in r["value"]}


WORKLOADS = {
    w.name: w
    for w in (TranLong("tran_long", 1), Paper("paper", 7), SweepBias("sweep_bias", 1, SWEEP_JOBS))
}
