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
import os
import sys
from pathlib import Path

from . import library, mna, transient
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


def _tolerances(args) -> Tolerances:
    tol = Tolerances()
    if args.reltol is not None:
        tol.reltol = args.reltol
    if args.abstol is not None:
        tol.abstol = args.abstol
    if args.vntol is not None:
        tol.vntol = args.vntol
    return tol


def _overrides(pairs) -> dict[str, float]:
    out = {}
    for p in pairs or ():
        if "=" not in p:
            raise NetlistError(f"--param expects NAME=VALUE, got {p!r}")
        k, v = p.split("=", 1)
        out[k.strip().lower()] = parse_value(v)
    return out


def _validate_probes(c, u, probes):
    known = set(u.names) | {"v(0)"}
    for p in probes or ():
        if p not in known:
            raise NetlistError(f"probe {p!r} does not match any node or branch")


def _print_op(c, u, op):
    print("operating point:")
    width = max((len(n) for n in u.names), default=4)
    for name, val in zip(u.names, op.x):
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


def _write_measures_csv(results: list[Measurement], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "kind", "value", "units"])
        for m in results:
            if isinstance(m.value, Histogram):
                val = ";".join(str(cnt) for cnt in m.value.counts)
            else:
                val = format_sci(m.value)
            writer.writerow([m.name, m.kind, val, m.units])


def _execute_directives(c, tol, out_path, probes, quiet=False, waves=None):
    """Run .op/.dc/.tran/.measure in netlist order.  Returns the list of
    measurement results (netlist order).  ``waves``, when given, holds
    the result of each .tran, run beforehand: a waveform, or the error
    that run raised."""
    u = mna.index_unknowns(c)
    _validate_probes(c, u, probes)
    wave: Waveform | None = None
    results: list[Measurement] = []
    pending = None if waves is None else iter(waves)
    for d in c.directives:
        if d.kind == "op":
            op = newton_dc(c, u, tol)
            if not quiet:
                _print_op(c, u, op)
        elif d.kind == "tran":
            if pending is None:
                wave = run_transient(c, d.args[0], d.args[1], d.args[2], tol)
            else:
                wave = next(pending)
            if isinstance(wave, Exception):
                raise wave
            if out_path is not None:
                write_csv(wave, out_path, probes)
        elif d.kind == "dc":
            sweep_wave = run_dc_sweep(c, d.args[0], d.args[1], d.args[2], d.args[3], tol)
            if out_path is not None:
                write_csv(sweep_wave, out_path, probes)
        elif d.kind == "measure":
            if wave is None:
                raise NetlistError(".measure needs a preceding .tran", d.line)
            results.append(run_measure(d.args, wave))
    return results


def _load_circuit(args):
    try:
        text = Path(args.netlist).read_text()
    except OSError as exc:
        raise IOError(str(exc)) from exc
    ast = parse_netlist(text)
    return expand_hierarchy(ast, _overrides(args.param))


def cmd_run(args) -> int:
    c = _load_circuit(args)
    if args.method:
        from dataclasses import replace

        c.directives = tuple(
            replace(d, args=(d.args[0], d.args[1], args.method)) if d.kind == "tran" else d
            for d in c.directives
        )
    tol = _tolerances(args)
    out_path = args.out or str(Path(args.netlist).with_suffix(".csv").name)
    results = _execute_directives(c, tol, out_path, args.probes)
    _measure_report(results)
    if results:
        _write_measures_csv(results, Path(out_path).with_suffix(".measures.csv"))
    return EXIT_OK


def cmd_op(args) -> int:
    c = _load_circuit(args)
    u = mna.index_unknowns(c)
    op = newton_dc(c, u, _tolerances(args))
    _print_op(c, u, op)
    return EXIT_OK


def _sweep_point(c, tol, waves):
    """The row of measurements of one sweep point, from its circuit and
    the results of its .tran directives."""
    results = _execute_directives(c, tol, None, None, quiet=True, waves=waves)
    return [(m.name, m.value) for m in results]


def cmd_sweep(args) -> int:
    try:
        text = Path(args.netlist).read_text()
    except OSError as exc:
        raise IOError(str(exc)) from exc
    if "=" not in args.sweep:
        raise NetlistError(f"--sweep expects NAME=v1,v2,..., got {args.sweep!r}")
    name, raw = args.sweep.split("=", 1)
    name = name.strip().lower()
    values = [parse_value(v) for v in raw.split(",") if v.strip()]
    if not values:
        raise NetlistError("--sweep needs at least one value")
    ast = parse_netlist(text)
    if name not in ast.params:
        raise NetlistError(f"sweep parameter {name!r} is not a .param of the netlist")
    overrides = _overrides(args.param)
    tol = _tolerances(args)
    circuits = [expand_hierarchy(ast, {**overrides, name: v}) for v in values]
    runs = [
        run_transient_stacked(circuits, d.args[0], d.args[1], d.args[2], tol)
        for d in ast.directives if d.kind == "tran"
    ]
    points = []
    for k, (v, c) in enumerate(zip(values, circuits)):
        try:
            points.append(_sweep_point(c, tol, [run[k] for run in runs]))
        except (ConvergenceError, SingularMatrixError) as exc:
            raise ConvergenceError(f"sweep aborted at {name}={format_sci(v)}: {exc}") from exc
    header = ["param_value"] + [n for n, _ in points[0]]
    out_path = args.out or str(Path(args.netlist).with_suffix(".sweep.csv").name)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for v, row in zip(values, points):
            cells = [format_sci(v)]
            for _, val in row:
                if isinstance(val, Histogram):
                    cells.append(";".join(str(cnt) for cnt in val.counts))
                else:
                    cells.append(format_sci(val))
            writer.writerow(cells)
    print(f"sweep of {name} over {len(values)} points -> {out_path}")
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.list or not args.emit:
        for n in library.EXAMPLE_NAMES:
            print(n)
        return EXIT_OK
    translinear = (
        args.emit in ("proposed_amp_translinear", "cccii_char")
        or args.family in ("cccii", "ccii")
    )
    if translinear:
        fam = "ccii" if args.family == "ccii" else "cccii"
        default_rails = 1.5 if args.emit == "cccii_char" else 1.0
        rails = args.rails if args.rails is not None else default_rails
        conv = library.TranslinearConveyor(ib=args.ib, family=fam, rails=rails)
    elif args.rx is not None:
        conv = library.BehavioralConveyor(rx=args.rx, controlled=args.emit == "proposed_amp")
    elif args.emit == "proposed_amp":
        conv = library.BehavioralConveyor(rx=None, ib=args.ib, beta_n=args.beta)
    else:
        conv = library.BehavioralConveyor(rx=0.0, controlled=False)
    cfg = library.AmplifierConfig(r1=args.r1, r2=args.r2, conveyor=conv)
    text = library.emit_example(args.emit, cfg)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_measure(args) -> int:
    try:
        text = Path(args.netlist).read_text()
        wave = read_csv(args.csv)
    except OSError as exc:
        raise IOError(str(exc)) from exc
    ast = parse_netlist(text)
    c = expand_hierarchy(ast, _overrides(args.param))
    wave.vsource_nodes = transient._vsource_nodes(c)
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

    def common(p, netlist=True):
        if netlist:
            p.add_argument("netlist", help="netlist file")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="override a .param value (repeatable)")
        p.add_argument("--reltol", type=float, default=None)
        p.add_argument("--abstol", type=float, default=None)
        p.add_argument("--vntol", type=float, default=None)

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
    p_ex.add_argument("--r1", type=parse_value, default=1e3)
    p_ex.add_argument("--r2", type=parse_value, default=100e3)
    p_ex.add_argument("--rx", type=parse_value, default=None)
    p_ex.add_argument("--ib", type=parse_value, default=50e-6)
    p_ex.add_argument("--beta", type=parse_value, default=1e-3)
    p_ex.add_argument("--rails", type=parse_value, default=None,
                      help="rail magnitude in volts (default per circuit)")
    p_ex.add_argument("--family", choices=("behavioral", "cccii", "ccii"),
                      default="behavioral")
    p_ex.set_defaults(func=cmd_examples)

    p_me = sub.add_parser("measure", help="recompute a netlist's measurements from a CSV")
    common(p_me)
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
