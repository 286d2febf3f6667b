#!/usr/bin/env python3
"""Run every workload of the benchmark and summarise it.

    python3 perfbench/record.py [--seeds 1-10] [--out perfbench/baseline.json]

For each workload of BENCHMARK.json it makes one timed run per seed
(``run.py --trace 0``), then one traced run with the first seed
(``--trace 1``), each for the file's ``run_seconds``.  It prints every
end-to-end metric by name and unit with its median, quartiles, sample
count and spread (interquartile range over median) against the bound in
BENCHMARK.json, the failure ratio, and the traced per-layer metrics with
the tracing overhead.  ``--out`` also writes all of it, with provenance,
as JSON.  The exit status is nonzero if any run failed or any output
check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import HERE, ROOT, summarise

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None]:
    """One run of run.py: (result, provenance), or (None, None) if it crashed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    provenance = next((json.loads(ln.split(" ", 1)[1]) for ln in lines
                       if ln.startswith("provenance ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"  {workload} seed {seed} trace {trace}: crashed (exit {proc.returncode})\n"
              f"{proc.stderr[-3000:]}", file=sys.stderr)
        return None, None
    if not result["correct"]:
        print(f"  {workload} seed {seed}: incorrect output\n{proc.stderr[-3000:]}", file=sys.stderr)
    return result, provenance


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    record = {"seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}", flush=True)
        results, attempted, failed = [], 0, 0
        provenance = None
        for seed in args.seeds:
            result, prov = run_once(workload, seed, seconds, 0)
            if result is None:
                ok = False
                continue
            provenance = provenance or prov
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            results.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        end_to_end = {}
        for name, m in bounds.items():
            values = [r["metrics"][name] for r in results if name in r["metrics"]]
            if not values:
                continue
            s = summarise(values)
            s["unit"], s["bound"] = m["unit"], m["bound"]
            end_to_end[name] = s
            flag = "" if s["spread"] <= m["bound"] / 3 else "  NOISY"
            if s["spread"] > m["bound"]:
                flag = "  OVER BOUND"
            print(f"  {name:14} {s['median']:12.6g} {m['unit']:5} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"n {s['n']:2}  spread {s['spread']:.4f} (bound {m['bound']}){flag}")
        fail_ratio = failed / attempted if attempted else 1.0
        print(f"  fail_ratio     {fail_ratio:g} ({failed}/{attempted})")

        traced, _ = run_once(workload, args.seeds[0], seconds, 1)
        if traced is None:
            ok = False
            per_layer = {}
        else:
            ok &= traced["correct"]
            per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, m in traced["metrics"].items():
                print(f"  {name:30} {m['value']!r:>24} {m['unit']}")
        record["workloads"][workload] = {
            "provenance": provenance, "fail_ratio": fail_ratio, "attempted": attempted,
            "failed": failed, "end_to_end": end_to_end, "runs": results,
            "per_layer_seed": args.seeds[0], "per_layer": per_layer,
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
