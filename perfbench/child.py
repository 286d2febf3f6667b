"""Benchmark steps that run inside a fresh interpreter with ccsim on the
path (the parent process never imports ccsim).

    child.py paper <out.json>             the paper's three experiments
    child.py capture <run_dir>            the same, recording its netlists
    child.py trace <spec.json> <seconds>  traced and untraced in-process units

``paper`` writes its results to ``out.json``; ``capture`` and ``trace``
print one JSON object on stdout.  The set-up probe is ``probe.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import (
    GRID_DT,
    GRID_PERIODS,
    GRID_R,
    GRID_RX,
    POWER_IB,
    POWER_RAILS,
    ROOT,
    RX_BIASES,
    RX_RAILS,
    SRC,
    WORKLOADS,
)


def _check_origin(module):
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: ccsim imported from {origin}, not from {SRC}")


def paper_experiments(out: str):
    """Run gain_grid, measure_rx_emergent and power_comparison as the
    scripts/ do, one operation per library call; write results or the
    error of each operation to ``out``."""
    from ccsim import library

    _check_origin(library)
    ops = []

    def attempt(op, fn):
        try:
            ops.append({"op": op, "value": fn(), "error": None})
        except Exception as exc:  # noqa: BLE001 - a failed call is a counted result
            traceback.print_exc()
            ops.append({"op": op, "value": None, "error": f"{type(exc).__name__}: {exc}"})

    attempt("gain_grid", lambda: [
        [r1, r2, rx, sim] for r1, r2, rx, sim, _ in
        library.gain_grid(GRID_R, GRID_R, GRID_RX, dt=GRID_DT, periods=GRID_PERIODS)
    ])
    for ib in RX_BIASES:
        attempt("rx", lambda ib=ib: [ib, library.measure_rx_emergent(ib, rails=RX_RAILS)])
    attempt("power", lambda: {
        k: list(v) for k, v in library.power_comparison(ib=POWER_IB, rails=POWER_RAILS).items()
    })
    with open(out, "w") as fh:
        json.dump(ops, fh)


def capture(run_dir: Path) -> list[dict]:
    """Run the paper's experiments once and record every netlist the
    library parses, with the overrides of each flattening of it.

    Each netlist text is written to ``run_dir``; the result is the spec's
    ``setup`` list.  The set-up probe then parses and flattens exactly
    what the library does, however the library builds its circuits.
    """
    from ccsim import netlist
    from tracer import find_bindings

    parse, expand = netlist.parse_netlist, netlist.expand_hierarchy
    jobs, asts = [], []

    def recording_parse(text, *args, **kwargs):
        ast = parse(text, *args, **kwargs)
        asts.append(ast)
        jobs.append({"text": text, "overrides": []})
        return ast

    def recording_expand(ast, overrides=None, *args, **kwargs):
        k = next(k for k, a in enumerate(asts) if a is ast)
        jobs[k]["overrides"].append(dict(overrides or {}))
        return expand(ast, overrides, *args, **kwargs)

    bindings = find_bindings({id(parse): (parse, recording_parse),
                              id(expand): (expand, recording_expand)})
    for mod, name, _, replacement in bindings:
        setattr(mod, name, replacement)
    try:
        paper_experiments(str(run_dir / "paper.json"))
    finally:
        for mod, name, original, _ in bindings:
            setattr(mod, name, original)
    setup = []
    for k, job in enumerate(jobs):
        path = run_dir / f"paper_{k:03d}.cir"
        path.write_text(job["text"])
        setup.append({"netlist": str(path), "overrides": job["overrides"]})
    return setup


def _inproc_unit(workload, spec):
    if spec["workload"] == "paper":
        paper_experiments(spec["out"])
        return 0
    from ccsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(workload.inproc_argv(spec))


def trace(spec: dict, seconds: float) -> dict:
    """Alternate untraced and traced in-process units for ``seconds``.

    Per-layer numbers are medians over the traced units; counts must be
    identical in every traced unit.  The tracing overhead is the ratio of
    the traced to the untraced median wall time.
    """
    from tracer import SELF_TIMES, Tracer

    from ccsim import cli

    _check_origin(cli)
    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer()
    walls = {True: [], False: []}
    per_unit = []
    attempted = failed = 0
    problems = []
    deadline = perf_counter() + seconds
    pair = 0
    while True:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.begin_unit(pair)
                tracer.install()
            workload.clear_outputs(spec)
            t0 = perf_counter()
            try:
                code = _inproc_unit(workload, spec)
            finally:
                tracer.uninstall()
            walls[traced].append(perf_counter() - t0)
            attempted += workload.ops_per_unit
            if code != 0:
                failed += workload.ops_per_unit
                problems.append(f"exit code {code}")
            else:
                bad, msgs = workload.check(spec)
                failed += bad
                problems += msgs
        per_unit.append(tracer.unit_metrics(pair))
        pair += 1
        if perf_counter() >= deadline:
            break

    trace_dir = ROOT / ".perfbench_work" / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(trace_dir / f"{spec['workload']}.npz")

    metrics = {}
    for name, value in per_unit[0].items():
        values = [m.get(name) for m in per_unit]
        if isinstance(value, int):
            if any(v != value for v in values):
                problems.append(f"count {name} differs between traced units: {values}")
                failed += 1
            metrics[name] = {"value": value, "unit": "count"}
        else:
            unit = "s" if name in SELF_TIMES else "ratio"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
    metrics["trace.traced_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "units": len(per_unit), "metrics": metrics}


def main(argv):
    mode = argv[0]
    if mode == "capture":
        result = capture(Path(argv[1]))
    elif mode == "paper":
        paper_experiments(argv[1])
        return 0
    elif mode == "trace":
        result = trace(json.loads(Path(argv[1]).read_text()), float(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
