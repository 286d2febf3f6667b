"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They check that traced counts repeat exactly for one seed, that each
workload shows its expected count pattern (a wrapper that silently
misses a binding shows up here), that the set-up probe sees the netlists
the program parses, that the output checks reject wrong or missing
output, and that the benchmark refuses to run without ccsim sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import HERE, ROOT, SRC, WORKLOADS, check_paper_op, child_env

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import child  # noqa: E402  (needs ccsim on the path)
from tracer import Tracer  # noqa: E402

SEED = 3


def _spec(name: str, tmp_path: Path) -> dict:
    spec = WORKLOADS[name].prepare(SEED, tmp_path)
    if name == "sweep_bias":
        spec["values"] = spec["values"][:3]  # the counts pattern, not the timing, is under test
        spec["setup"][0]["overrides"] = spec["setup"][0]["overrides"][:3]
    return spec


def _probe(spec: dict, tmp_path: Path) -> dict:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), spec["entry"], str(spec_path)],
        env=child_env(tmp_path), capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout)


def _traced_counts(name: str, spec: dict, units: int = 2) -> list[dict]:
    workload = WORKLOADS[name]
    tracer = Tracer()
    out = []
    for unit in range(units):
        tracer.begin_unit(unit)
        tracer.install()
        try:
            assert child._inproc_unit(workload, spec) == 0
        finally:
            tracer.uninstall()
        assert workload.check(spec) == (0, [])
        out.append({k: v for k, v in tracer.unit_metrics(unit).items() if isinstance(v, int)})
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_match_the_workload(name, tmp_path):
    first, second = _traced_counts(name, _spec(name, tmp_path))
    assert first == second
    if name == "tran_long":
        assert first["devices.mosfet_eval_calls"] == 0
        assert first["transient.csv_bytes"] > 0
        assert first["transient.steps"] == 100_000
        assert first["cli.calls"] == 1 and first["library.calls"] == 0
    else:
        assert first["devices.mosfet_eval_calls"] > 0
        assert first["mna.assemble_calls"] > 0
        assert first["solver.lu_factor_calls"] > 0
        assert first["solver.newton_iters"] > first["solver.newton_calls"] > 0
        assert first["transient.csv_bytes"] == 0
    if name == "paper":
        assert first["library.calls"] == 7 and first["cli.calls"] == 0
    if name == "sweep_bias":
        assert first["cli.sweep_points"] == 3
        assert first["netlist.flatten_calls"] == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probe_sets_up_what_the_unit_parses_and_flattens(name, tmp_path):
    spec = _spec(name, tmp_path)
    (counts,) = _traced_counts(name, spec, units=1)
    flattens = sum(len(job["overrides"]) for job in spec["setup"])
    assert counts["netlist.flatten_calls"] == flattens
    probe = _probe(spec, tmp_path)
    assert probe["setup_s"] > 0.0
    assert probe["points"] == flattens
    if name == "tran_long":
        assert probe["steps"] == counts["transient.steps"] == 100_000
    if name == "paper":
        assert counts["netlist.parse_calls"] == len(spec["setup"]) == 75 + 5 + 4
        assert flattens == 75 + 2 * 5 + 4
        assert probe["steps"] == counts["transient.steps"]


def test_wrappers_replace_every_binding_and_come_off():
    import ccsim
    from ccsim import cli, library, mna, solver, transient

    original = solver.newton_dc
    original_eval = mna.mosfet_eval
    tracer = Tracer()
    tracer.begin_unit(0)
    tracer.install()
    try:
        for mod in (solver, transient, cli, library):
            assert mod.newton_dc is not original
            assert mod.newton_dc.__wrapped__ is original
        assert mna.mosfet_eval is ccsim.mosfet_eval is ccsim.devices.mosfet_eval
        assert mna.mosfet_eval.__wrapped__ is original_eval
    finally:
        tracer.uninstall()
    for mod in (solver, transient, cli, library):
        assert mod.newton_dc is original
    assert mna.mosfet_eval is original_eval


def test_missing_function_leaves_its_metric_out(monkeypatch, capsys):
    from ccsim import solver

    monkeypatch.delattr(solver, "gmin_stepped_dc")
    tracer = Tracer()
    tracer.begin_unit(0)
    tracer.install()
    tracer.uninstall()
    metrics = tracer.unit_metrics(0)
    assert "solver.gmin_rescues" not in metrics
    assert metrics["solver.newton_calls"] == 0
    assert "ccsim.solver.gmin_stepped_dc not found" in capsys.readouterr().err


def test_tran_long_check_rejects_a_wrong_waveform(tmp_path):
    spec = _spec("tran_long", tmp_path)
    _traced_counts("tran_long", spec, units=1)
    path = Path(spec["csv"])
    lines = path.read_text().splitlines()
    cells = lines[300].split(",")
    cells[3] = repr(float(cells[3]) * 1.001 + 1e-3)  # v(out)
    lines[300] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    failed, problems = WORKLOADS["tran_long"].check(spec)
    assert failed == 1 and "v(out)" in problems[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_fails_when_the_unit_wrote_nothing(name, tmp_path):
    spec = _spec(name, tmp_path)
    _traced_counts(name, spec, units=1)
    WORKLOADS[name].clear_outputs(spec)
    assert not any(p.exists() for p in WORKLOADS[name].outputs(spec))
    failed, problems = WORKLOADS[name].check(spec)
    assert failed == WORKLOADS[name].ops_per_unit and problems


def test_sweep_check_rejects_non_monotone_power(tmp_path):
    spec = {"values": [1e-5, 2e-5], "csv": str(tmp_path / "s.csv")}
    Path(spec["csv"]).write_text(
        "param_value,g,outhist,pavg\n"
        "1e-05,1.0,1;2,2e-4\n"
        "2e-05,1.0,1;2,1e-4\n"
    )
    failed, problems = WORKLOADS["sweep_bias"].check(spec)
    assert failed == 1 and "pavg" in problems[0]


def test_paper_checks_use_the_acceptance_thresholds():
    good = {"op": "gain_grid", "value": [[1e3, 1e3, 0.0, 1.004]] * 75, "error": None}
    bad = {"op": "gain_grid", "value": [[1e3, 1e3, 0.0, 1.006]] * 75, "error": None}
    assert check_paper_op(good, [good]) is None
    assert "0.5 %" in check_paper_op(bad, [bad])
    rx50 = {"op": "rx", "value": [50e-6, 1581.0], "error": None}  # 1/sqrt(8e-3 * 50e-6)
    assert check_paper_op(rx50, [rx50]) is None
    assert "20 %" in check_paper_op({"op": "rx", "value": [50e-6, 1200.0]}, [])
    rx200 = {"op": "rx", "value": [200e-6, 1581.0 * 0.58], "error": None}  # within 20 %
    assert "ratio" in check_paper_op(rx200, [rx50, rx200])
    power = {"ferri_2cc_ccii": [2.0, 2.0], "ferri_1cc_ccii": [1.0, 1.0],
             "ferri_2cc_cccii": [4.0, 4.0], "proposed_cccii": [3.0, 3.0]}
    assert check_paper_op({"op": "power", "value": power}, []) is None
    power["proposed_cccii"] = [0.5, 0.5]
    assert "ordering" in check_paper_op({"op": "power", "value": power}, [])


def test_without_ccsim_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    argv = [sys.executable if a == "python3" else a for a in argv]
    proc = subprocess.run(
        argv + ["--workload", "tran_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
