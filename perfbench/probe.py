"""Set-up probe: the set-up time of one workload unit in a fresh interpreter.

    probe.py <entry> <spec.json>

Times the import of ``ccsim.<entry>`` (``cli`` or ``library``, the module
the unit enters ccsim through), then the parsing, flattening and
``index_unknowns`` of every netlist the spec's ``setup`` list names,
before any analysis runs.  Nothing but ``sys`` and ``time`` is imported
before the clock starts, so the import time includes every module ccsim
needs.  Prints one JSON object: ``setup_s``, and the unit's transient
steps (from the ``.tran`` lines of the flattened circuits) and points
(circuits flattened).
"""

import sys
from time import perf_counter


def main(entry: str, spec_path: str) -> int:
    t0 = perf_counter()
    __import__(f"ccsim.{entry}")
    from ccsim import mna, netlist

    t_import = perf_counter() - t0

    import json
    from pathlib import Path

    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    origin = Path(netlist.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"perfbench: ccsim imported from {origin}, not from {src}")
    jobs = [(Path(j["netlist"]).read_text(), j["overrides"])
            for j in json.loads(Path(spec_path).read_text())["setup"]]

    t0 = perf_counter()
    circuits = []
    for text, overrides in jobs:
        ast = netlist.parse_netlist(text)
        for ov in overrides:
            c = netlist.expand_hierarchy(ast, ov)
            mna.index_unknowns(c)
            circuits.append(c)
    t_index = perf_counter() - t0

    steps = sum(int(round(d.args[1] / d.args[0]))
                for c in circuits for d in c.directives if d.kind == "tran")
    print(json.dumps({"setup_s": t_import + t_index, "steps": steps, "points": len(circuits)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
