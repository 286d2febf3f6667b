"""The benchmark's tracer binds ccsim functions by name: this pins that
every function it names exists, that each of its hooks reads its count
from a real call's arguments or result, that its own rebinding
mechanism sees the operating points of a stacked sweep, and that the
paper's experiments flatten only ASTs they parsed, as its netlist
capture assumes."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("ccsim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module(tracer):
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"ccsim.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"ccsim.{layer}.{name}"


def test_sweep_enters_newton_dc_once_per_point(tracer, tmp_path, monkeypatch):
    from ccsim import cli, solver
    from ccsim.library import emit_example

    net = tmp_path / "amp_tl.cir"
    net.write_text(emit_example("proposed_amp_translinear"))
    original = solver.newton_dc
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    bindings = tracer.find_bindings({id(original): (original, counted)})
    assert bindings
    for module, name, _, replacement in bindings:
        monkeypatch.setattr(module, name, replacement)
    points = ("25e-6", "50e-6", "100e-6")
    argv = ["sweep", str(net), "--sweep", "ibval=" + ",".join(points),
            "--out", str(tmp_path / "sweep.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) >= len(points)


def test_the_paper_flattens_only_what_it_parsed(tracer, monkeypatch):
    # the benchmark's capture records each netlist the paper's experiments
    # parse, and finds each flattened AST among them by identity; the
    # library must keep writing text that it parses, not build ASTs itself
    from ccsim import library, netlist

    parse, expand = netlist.parse_netlist, netlist.expand_hierarchy
    parsed, flattened = [], []

    def recording_parse(*args, **kwargs):
        parsed.append(parse(*args, **kwargs))
        return parsed[-1]

    def recording_expand(ast, *args, **kwargs):
        flattened.append(ast)
        return expand(ast, *args, **kwargs)

    bindings = tracer.find_bindings({id(parse): (parse, recording_parse),
                                     id(expand): (expand, recording_expand)})
    for module, name, _, replacement in bindings:
        monkeypatch.setattr(module, name, replacement)
    for experiment in (lambda: list(library.gain_grid((1e3,), (1e3, 100e3), (0.0, 500.0), periods=1)),
                       lambda: library.measure_rx_emergent(50e-6),
                       library.power_comparison):
        before = len(flattened)
        experiment()
        assert len(flattened) > before
    assert all(any(ast is p for p in parsed) for ast in flattened)


def test_every_hook_reads_a_real_call(tracer, tmp_path, capsys):
    # each reader gets the (args, kwargs, result) of one real call, and the
    # calls print nothing: the traced run's last stdout line is its result
    from ccsim import mna, solver, transient
    from ccsim.library import emit_example
    from ccsim.netlist import parse_and_flatten

    c = parse_and_flatten(emit_example("proposed_amp"))
    u = mna.index_unknowns(c)
    plan = mna.compile(c)
    op = solver.newton_dc(plan)
    wave = transient.run_transient(c, 1e-5, 1e-3)
    path = tmp_path / "wave.csv"
    transient.write_csv(wave, path)
    calls = {
        "mna.index_unknowns": (((c,), {}, u), u.size),
        "solver.newton_dc": (((plan,), {}, op), op.iterations),
        "transient.run_transient": (((c, 1e-5, 1e-3), {}, wave), 100),
        "transient.write_csv": (((wave, str(path)), {}, None), path.stat().st_size),
    }
    assert set(tracer.HOOKS) <= set(calls)
    for span, (_, read, _) in tracer.HOOKS.items():
        (args, kwargs, result), want = calls[span]
        value = read(args, kwargs, result)
        assert type(value) is int and value == want > 0, span
    assert capsys.readouterr().out == ""


def test_traced_units_report_every_per_layer_metric(tracer, tmp_path):
    # a metric the tracer cannot compute (a target gone, a zero divisor)
    # is left out of its result, and a non-finite one is not strict JSON
    import json

    from ccsim import cli
    from ccsim.library import emit_example

    spec = json.loads((TRACER.parent.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")}
    amp = tmp_path / "amp.cir"
    amp.write_text(emit_example("proposed_amp").replace(".tran 1e-06 0.005", ".tran 1e-06 0.001"))
    translinear = tmp_path / "amp_tl.cir"
    translinear.write_text(emit_example("proposed_amp_translinear"))
    # the same amplifier with its .tran and .measure lines replaced by a .dc sweep
    transfer = tmp_path / "amp_dc.cir"
    lines = [line for line in emit_example("proposed_amp_translinear").splitlines()
             if not line.startswith((".tran", ".measure"))]
    assert lines[-1] == ".end"
    transfer.write_text("\n".join(lines[:-1] + [".dc vin -0.1 0.1 0.01", ".end", ""]))
    units = [
        ["run", str(amp), "--out", str(tmp_path / "amp.csv")],  # a memoryless run with its CSV
        ["sweep", str(translinear), "--sweep", "ibval=25e-6,100e-6", "--out", str(tmp_path / "s.csv")],
        ["run", str(transfer), "--out", str(tmp_path / "dc.csv")],  # a .dc sweep alone
    ]
    t = tracer.Tracer()
    t.install()
    try:
        for unit, argv in enumerate(units):
            t.begin_unit(unit)
            assert cli.main(argv) == cli.EXIT_OK
    finally:
        t.uninstall()
    for unit, argv in enumerate(units):
        metrics = t.unit_metrics(unit)
        assert wanted <= set(metrics), (argv[0], sorted(wanted - set(metrics)))
        json.dumps(metrics, allow_nan=False)
