"""The benchmark's tracer binds ccsim functions by name: this pins that
every function it names exists, and that its own rebinding mechanism
sees the operating points of a stacked sweep."""

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
