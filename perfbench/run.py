#!/usr/bin/env python3
"""ccsim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload tran_long --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times whole units of user work in fresh processes
(closed loop, one client) for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it runs the same units in process, with and
without span tracing, and reports per-layer metrics.  Every unit's
outputs are checked.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It runs from the root of a ccsim checkout and imports ccsim from its
``src/``; without one it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np
from refspeed import IMPORT_NOMINAL_S, import_reference_argv, reference_times, scale
from workloads import (
    HERE,
    PROCESS_TIMEOUT_S,
    ROOT,
    SRC,
    WORKLOADS,
    child_argv,
    child_env,
    summarise,
)

WORK = ROOT / ".perfbench_work"


def launch(argv: list[str], cwd: Path, stdout_path: Path) -> tuple[int, float, float, str]:
    """Run one process to completion, stdout to ``stdout_path``.

    Returns (exit code, wall seconds from launch to exit, peak resident
    set in MB of the process and every child it waited for, stderr).
    """
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(cwd), stdout=out, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr_path.read_text()


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_json(argv: list[str], cwd: Path) -> dict:
    out = cwd / "child.out"
    code, _, _, err = launch(argv, cwd, out)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited with {code}: {err.strip()[-2000:]}")
    return json.loads(out.read_text().strip().splitlines()[-1])


def timed(workload, spec: dict, spec_path: Path, run_dir: Path, seconds: float) -> dict:
    """Fresh-process units, each followed by a set-up probe, for ``seconds``.

    One unit and one probe run first, untimed, so that the run's bytecode
    cache is complete before timing.  Each unit is scaled to reference
    speed by the interpreter-loop references timed just before and after
    it (one per core the unit keeps busy), and each probe by the import
    references timed just before and after it (see refspeed.py).
    """
    probe_argv = [sys.executable, str(HERE / "probe.py"), spec["entry"], str(spec_path)]
    raw = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    scales = []
    attempted = failed = 0
    counts = None
    warm = True
    ref = reference_times(workload.cores, PROCESS_TIMEOUT_S)
    import_ref = child_json(import_reference_argv(), run_dir)
    deadline = perf_counter() + seconds
    while True:
        workload.clear_outputs(spec)
        code, wall, rss, err = launch(workload.argv(spec), run_dir, run_dir / "unit.out")
        ref, before = reference_times(workload.cores, PROCESS_TIMEOUT_S), ref
        attempted += workload.ops_per_unit
        if code != 0:
            failed += workload.ops_per_unit
            print(f"perfbench: unit exited with {code}: {err.strip()[-2000:]}", file=sys.stderr)
        else:
            bad, problems = workload.check(spec)
            failed += bad
            for p in problems:
                print(f"perfbench: check failed: {p}", file=sys.stderr)
        probe = child_json(probe_argv, run_dir)
        import_ref, import_before = child_json(import_reference_argv(), run_dir), import_ref
        if counts is None:
            counts = probe["steps"], probe["points"]
        if warm:
            warm = False
            deadline = perf_counter() + seconds
            continue
        f = scale(*before, *ref)
        scales.append(f)
        raw["wall_s"].append(wall * f)
        raw["setup_s"].append(
            probe["setup_s"] * scale(import_before, import_ref, nominal=IMPORT_NOMINAL_S)
        )
        raw["peak_rss_mb"].append(rss)
        if perf_counter() >= deadline:
            break
    # Medians over the run's units: a burst of load from other tenants
    # lengthens a few units, and the median of the rest does not move.
    steps, points = counts
    wall = statistics.median(raw["wall_s"])
    values = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "steps_per_s": (steps / wall, "1/s"),
        "points_per_s": (points / wall, "1/s"),
        "peak_rss_mb": (statistics.median(raw["peak_rss_mb"]), "MB"),
    }
    metrics = {}
    for name, (value, unit) in values.items():
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:14} {value:12.6g} {unit}")
    for name, samples in raw.items():
        s = summarise(samples)
        print(f"  samples {name:12} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"n {s['n']}")
    s = summarise(scales)
    print(f"  speed scale  median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g}; "
          f"steps/unit {steps}, points/unit {points}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced(spec_path: Path, run_dir: Path, seconds: float) -> dict:
    result = child_json(child_argv("trace", str(spec_path), repr(seconds)), run_dir)
    for p in result.pop("problems"):
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:30} {m['value']!r:>24} {m['unit']}")
    print(f"traced units {result.pop('units')}")
    return result


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ccsim" / "__init__.py").is_file():
        print(f"perfbench: no ccsim sources under {SRC}; run from a ccsim checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        spec = workload.prepare(args.seed, run_dir)
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        if args.trace:
            result = traced(spec_path, run_dir, args.seconds)
        else:
            result = timed(workload, spec, spec_path, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    provenance = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "git_sha": git_sha(), "python": sys.version.split()[0],
                  "numpy": np.__version__, "nproc": os.cpu_count()}
    print("provenance " + json.dumps(provenance))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
