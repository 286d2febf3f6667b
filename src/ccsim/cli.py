"""Command-line front end.

Exit codes are the contract: 0 success, 2 netlist/parse problems,
3 convergence failures, 4 I/O problems.  All numeric output is printed
in scientific notation with 9 significant digits so runs are
byte-reproducible.

``ccsim sweep`` parses the netlist once, flattens it once per value, and
runs each ``.tran`` of all the points together in one process (see
:func:`ccsim.transient.run_transient_stacked`); the measurements are then
taken point by point.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from pathlib import Path

from . import library, mna
from .measure import Histogram, MeasureError, Measurement, run_measure
from .netlist import NetlistError, expand_hierarchy, parse_netlist, parse_value
from .solver import ConvergenceError, SingularMatrixError, Tolerances, newton_dc
from .transient import (
    Waveform,
    format_sci,
    read_csv,
    run_dc_sweep,
    run_transient,
    run_transient_stacked,
    write_csv,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


def _error(msg: str):
    use_color = sys.stderr.isatty() and not os.environ.get("CCSIM_NO_COLOR")
    if use_color:
        msg = f"\x1b[31m{msg}\x1b[0m"
    print(f"ccsim: {msg}", file=sys.stderr)


def _given(**values):
    """The keyword arguments whose value is not None: the flags given."""
    return {k: v for k, v in values.items() if v is not None}


def _tolerances(args) -> Tolerances:
    return Tolerances(**_given(reltol=args.reltol, abstol=args.abstol, vntol=args.vntol))


def _parse(args):
    """The netlist's AST and its ``--param`` overrides, each of which must
    name a ``.param`` of the netlist."""
    ast = parse_netlist(Path(args.netlist).read_text())
    out = {}
    for p in args.param or ():
        if "=" not in p:
            raise NetlistError(f"--param expects NAME=VALUE, got {p!r}")
        k, v = p.split("=", 1)
        k = k.strip().lower()
        if k not in ast.params:
            raise NetlistError(f"--param {k!r} is not a .param of the netlist")
        out[k] = parse_value(v)
    return ast, out


def _validate_probes(u, probes):
    known = set(u.names) | {"v(0)"}
    for p in probes or ():
        if p not in known:
            raise NetlistError(f"probe {p!r} does not match any node or branch")


def _print_op(plan, tol):
    """Solve and print the operating point of a circuit's compiled ``plan``."""
    op, names = newton_dc(plan, tol), plan.u.names
    print("operating point:")
    width = max((len(n) for n in names), default=4)
    for name, val in zip(names, op.x):
        print(f"  {name:<{width}}  {format_sci(val)}")
    print(f"  iterations {op.iterations}, KCL residual {format_sci(op.residual_norm)} A")


def _measure_report(results: list[Measurement]):
    if not results:
        return
    rows = []
    for m in results:
        if isinstance(m.value, Histogram):
            val = "[" + " ".join(str(cnt) for cnt in m.value.counts) + "]"
            extra = f"lo={format_sci(m.value.lo)} hi={format_sci(m.value.hi)}"
            rows.append((m.name, m.kind, val, m.units + " " + extra))
        else:
            rows.append((m.name, m.kind, format_sci(m.value), m.units))
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    w2 = max(len(r[2]) for r in rows)
    print("measurements:")
    for r in rows:
        print(f"  {r[0]:<{w0}}  {r[1]:<{w1}}  {r[2]:<{w2}}  {r[3]}")


def _cell(value) -> str:
    """A measurement's CSV cell: a histogram's counts joined by ';', else the number."""
    if isinstance(value, Histogram):
        return ";".join(str(cnt) for cnt in value.counts)
    return format_sci(value)


def _write_table(path, header: list[str], rows):
    """A CSV of ``header`` and ``rows``, LF line endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _measured(wave, d):
    """The waveform the .measure directive ``d`` reads: the latest .tran's."""
    if wave is None:
        raise NetlistError(".measure needs a preceding .tran", d.line)
    return wave


def _execute_directives(c, tol, out_path, probes):
    """Run .op/.dc/.tran/.measure in netlist order, writing each record
    to its own CSV (see :func:`_record_path`); returns the measurement
    results in netlist order."""
    _validate_probes(mna.index_unknowns(c), probes)
    wave: Waveform | None = None
    results: list[Measurement] = []
    kinds = [d.kind for d in c.directives]
    for i, d in enumerate(c.directives):
        if d.kind == "op":
            _print_op(mna.compile(c, tol.gmin_floor), tol)
        elif d.kind == "tran":
            wave = run_transient(c, *d.args, tol)
            write_csv(wave, _record_path(out_path, kinds, i), probes)
        elif d.kind == "dc":
            write_csv(run_dc_sweep(c, *d.args, tol), _record_path(out_path, kinds, i), probes)
        elif d.kind == "measure":
            results.append(run_measure(d.args, _measured(wave, d)))
    return results


def _record_path(out_path, kinds: list[str], i: int):
    """Where directive i, a .tran or .dc, writes its record, ``kinds``
    being every directive's kind: the first .tran to ``out_path``, the
    first .dc there too without a .tran and to ``<stem>.dc.csv`` with one,
    and the k-th of a kind (k >= 2) to ``<stem>.tran<k>.csv`` or
    ``<stem>.dc<k>.csv``, so no record replaces another."""
    k = kinds[: i + 1].count(kinds[i])
    if k == 1 and (kinds[i] == "tran" or "tran" not in kinds):
        return out_path
    return Path(out_path).with_suffix(f".{kinds[i]}{k if k > 1 else ''}.csv")


def _load_circuit(args):
    return expand_hierarchy(*_parse(args))


def cmd_run(args) -> int:
    c = _load_circuit(args)
    if args.method:
        c.directives = tuple(
            d._replace(args=(d.args[0], d.args[1], args.method)) if d.kind == "tran" else d
            for d in c.directives
        )
    tol = _tolerances(args)
    out_path = args.out or str(Path(args.netlist).with_suffix(".csv").name)
    results = _execute_directives(c, tol, out_path, args.probes)
    _measure_report(results)
    if results:
        _write_table(Path(out_path).with_suffix(".measures.csv"), ["name", "kind", "value", "units"],
                     ([m.name, m.kind, _cell(m.value), m.units] for m in results))
    return EXIT_OK


def cmd_op(args) -> int:
    tol = _tolerances(args)
    _print_op(mna.compile(_load_circuit(args), tol.gmin_floor), tol)
    return EXIT_OK


def _sweep_point(c, waves):
    """The row of measurements of one sweep point, from its circuit and
    the result of each of its .tran directives, run beforehand (a
    waveform, or the error that run raised); its .op and .dc are not run."""
    pending = iter(waves)
    wave, row = None, []
    for d in c.directives:
        if d.kind == "tran":
            wave = next(pending)
            if isinstance(wave, Exception):
                raise wave
        elif d.kind == "measure":
            m = run_measure(d.args, _measured(wave, d))
            row.append((m.name, m.value))
    return row


def cmd_sweep(args) -> int:
    ast, overrides = _parse(args)
    if "=" not in args.sweep:
        raise NetlistError(f"--sweep expects NAME=v1,v2,..., got {args.sweep!r}")
    name, raw = args.sweep.split("=", 1)
    name = name.strip().lower()
    values = [parse_value(v) for v in raw.split(",") if v.strip()]
    if not values:
        raise NetlistError("--sweep needs at least one value")
    if name not in ast.params:
        raise NetlistError(f"sweep parameter {name!r} is not a .param of the netlist")
    tol = _tolerances(args)
    circuits = [expand_hierarchy(ast, {**overrides, name: v}) for v in values]
    runs = [
        run_transient_stacked(circuits, d.args[0], d.args[1], d.args[2], tol)
        for d in ast.directives if d.kind == "tran"
    ]
    points = []
    for v, c, *waves in zip(values, circuits, *runs):
        try:
            points.append(_sweep_point(c, waves))
        except (ConvergenceError, SingularMatrixError) as exc:
            raise ConvergenceError(f"sweep aborted at {name}={format_sci(v)}: {exc}") from exc
    out_path = args.out or str(Path(args.netlist).with_suffix(".sweep.csv").name)
    _write_table(out_path, ["param_value"] + [n for n, _ in points[0]],
                 ([format_sci(v)] + [_cell(val) for _, val in row] for v, row in zip(values, points)))
    print(f"sweep of {name} over {len(values)} points -> {out_path}")
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.list or not args.emit:
        for n in library.EXAMPLE_NAMES:
            print(n)
        return EXIT_OK
    cfg = library.example_config(args.emit)
    conv = cfg.conveyor
    if args.family != "behavioral":
        if isinstance(conv, library.BehavioralConveyor):
            conv = library.TranslinearConveyor()
        conv = conv._replace(family=args.family)
    if isinstance(conv, library.TranslinearConveyor):
        conv = conv._replace(**_given(ib=args.ib, rails=args.rails))
    else:
        conv = conv._replace(**_given(rx=args.rx, ib=args.ib, beta_n=args.beta))
    cfg = cfg._replace(conveyor=conv, **_given(r1=args.r1, r2=args.r2))
    text = library.emit_example(args.emit, cfg)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_measure(args) -> int:
    c = _load_circuit(args)
    wave = read_csv(args.csv)
    wave.vsource_nodes = mna.index_unknowns(c).vsource_nodes
    results = []
    for d in c.directives:
        if d.kind == "measure":
            results.append(run_measure(d.args, wave))
    _measure_report(results)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccsim",
        description="compact analog circuit simulator with current-conveyor support",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, solves=True):
        p.add_argument("netlist", help="netlist file")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="override a .param value (repeatable)")
        if solves:
            for flag in ("--reltol", "--abstol", "--vntol"):
                p.add_argument(flag, type=float, default=None)

    p_run = sub.add_parser("run", help="execute a netlist's analysis directives")
    common(p_run)
    p_run.add_argument("--out", help="waveform CSV path")
    p_run.add_argument("--probes", type=lambda s: s.split(","),
                       help="comma-separated probe list, e.g. v(out),i(vin)")
    p_run.add_argument("--method", choices=("be", "trap"), default=None,
                       help="override the .tran integration method")
    p_run.set_defaults(func=cmd_run)

    p_op = sub.add_parser("op", help="DC operating point only")
    common(p_op)
    p_op.set_defaults(func=cmd_op)

    p_sweep = sub.add_parser("sweep", help="re-run the netlist over a parameter list")
    common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="NAME=V1,V2,...",
                         help="parameter values, ordered as the summary rows")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; sweep points run stacked in one process")
    p_sweep.add_argument("--out", help="summary CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ex = sub.add_parser("examples", help="list or emit built-in circuits")
    p_ex.add_argument("--list", action="store_true")
    p_ex.add_argument("--emit", metavar="NAME")
    p_ex.add_argument("--out", help="write the netlist here instead of stdout")
    p_ex.add_argument("--r1", type=parse_value, default=None)
    p_ex.add_argument("--r2", type=parse_value, default=None)
    p_ex.add_argument("--rx", type=parse_value, default=None)
    p_ex.add_argument("--ib", type=parse_value, default=None)
    p_ex.add_argument("--beta", type=parse_value, default=None)
    p_ex.add_argument("--rails", type=parse_value, default=None,
                      help="rail magnitude in volts (default per circuit)")
    p_ex.add_argument("--family", choices=("behavioral", "cccii", "ccii"),
                      default="behavioral")
    p_ex.set_defaults(func=cmd_examples)

    p_me = sub.add_parser("measure", help="recompute a netlist's measurements from a CSV")
    common(p_me, solves=False)
    p_me.add_argument("--csv", required=True, help="waveform CSV written by a previous run")
    p_me.set_defaults(func=cmd_measure)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetlistError, ValueError, MeasureError, KeyError) as exc:
        _error(str(exc))
        return EXIT_PARSE
    except (ConvergenceError, SingularMatrixError) as exc:
        _error(str(exc))
        return EXIT_CONVERGENCE
    except OSError as exc:
        _error(str(exc))
        return EXIT_IO


def entry():
    """The ``ccsim`` command (and ``python -m ccsim``): :func:`main` on the
    process's arguments, then exit with its code.  Every object alive
    here, numpy's and ccsim's import-time heap, is frozen first
    (``gc.freeze``), so the full collections at interpreter exit skip it
    and the OS reclaims it with the process.  :func:`main` leaves the
    collector as it finds it."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
