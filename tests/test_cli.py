import gc
import subprocess
import sys

import pytest

from ccsim import cli
from ccsim.library import AmplifierConfig, BehavioralConveyor, TranslinearConveyor, emit_example

CMD = [sys.executable, "-m", "ccsim.cli"]

AMP = """single-conveyor amplifier
.param r1=1k
.param r2=100k
vin in 0 SIN(0 0.05 1k)
u1 in x out cccii+ rx=0
r1 x 0 r1
r2 out 0 r2
.tran 1u 5m
.measure g gain v(in) v(out)
.measure opp pp v(out)
.end
"""

LOADED = AMP.replace("rx=0", "rx=1581.1388300841895").replace(".param r2=100k", ".param r2=1k")


def ccsim(*args, cwd=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def amp_file(tmp_path):
    p = tmp_path / "amp.cir"
    p.write_text(AMP)
    return p


def test_run_writes_csv_and_report(amp_file, tmp_path):
    out = tmp_path / "wave.csv"
    r = ccsim("run", str(amp_file), "--out", str(out))
    assert r.returncode == 0, r.stderr
    gain_line = next(ln for ln in r.stdout.splitlines() if ln.split()[:2] == ["g", "gain"])
    assert float(gain_line.split()[2]) == pytest.approx(100.0, rel=1e-3)
    header = out.read_text().splitlines()[0]
    assert header.startswith("time,")
    measures = tmp_path / "wave.measures.csv"
    assert measures.exists()
    assert "g,gain,9.9999" in measures.read_text()


def test_run_is_deterministic(amp_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert ccsim("run", str(amp_file), "--out", str(out1)).returncode == 0
    assert ccsim("run", str(amp_file), "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_syntax_error_cites_line(tmp_path):
    bad = tmp_path / "bad.cir"
    bad.write_text("title\nr1 a 0 1k\nv1 a 0 DC 1\n* pad\n* pad\n* pad\nq9 a 0 1k\n.end\n")
    r = ccsim("run", str(bad))
    assert r.returncode == 2
    assert "line 7" in r.stderr


def test_missing_file_is_io_error():
    r = ccsim("run", "/nonexistent/netlist.cir")
    assert r.returncode == 4


def test_convergence_failure_exit_code(tmp_path):
    bench = tmp_path / "char.cir"
    r = ccsim("examples", "--emit", "cccii_char", "--out", str(bench))
    assert r.returncode == 0
    # the bench converges normally...
    assert ccsim("run", str(bench)).returncode == 0
    # ...but an unreachable residual target is a convergence failure
    r = ccsim("run", str(bench), "--abstol", "0")
    assert r.returncode == 3
    assert "convergence" in r.stderr.lower() or "converge" in r.stderr.lower()


def test_probe_validation(amp_file):
    r = ccsim("run", str(amp_file), "--probes", "v(nosuch)")
    assert r.returncode == 2
    assert "probe" in r.stderr


def test_op_subcommand(tmp_path):
    p = tmp_path / "div.cir"
    p.write_text("t\nv1 a 0 DC 1\nr1 a m 1k\nr2 m 0 1k\n.end\n")
    r = ccsim("op", str(p))
    assert r.returncode == 0
    assert "v(m)" in r.stdout and "5.00000000e-01" in r.stdout


def test_sweep_matches_closed_form(tmp_path):
    p = tmp_path / "amp.cir"
    p.write_text(LOADED)
    out = tmp_path / "sweep.csv"
    r = ccsim("sweep", str(p), "--sweep", "r1=500,1k,2k", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("param_value,g")
    gains = [float(line.split(",")[1]) for line in lines[1:]]
    for got, want in zip(gains, (0.4805, 0.3875, 0.2792)):
        assert got == pytest.approx(want, abs=2e-4)
    assert all(g < 1.0 for g in gains)  # attenuating across the sweep


def test_sweep_single_value_matches_run(amp_file, tmp_path):
    out = tmp_path / "one.csv"
    r = ccsim("sweep", str(amp_file), "--sweep", "r1=1k", "--out", str(out))
    assert r.returncode == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(100.0, rel=1e-3)


def test_sweep_r2_monotone(tmp_path):
    p = tmp_path / "amp.cir"
    p.write_text(AMP)
    out = tmp_path / "r2.csv"
    r = ccsim("sweep", str(p), "--sweep", "r2=100,1k,10k", "--out", str(out))
    assert r.returncode == 0
    gains = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert gains == pytest.approx([0.1, 1.0, 10.0], rel=1e-3)


def test_sweep_parallel_order_preserved(tmp_path):
    p = tmp_path / "amp.cir"
    p.write_text(LOADED)
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert ccsim("sweep", str(p), "--sweep", "r1=500,1k,2k,4k", "--out", str(seq)).returncode == 0
    assert ccsim("sweep", str(p), "--sweep", "r1=500,1k,2k,4k", "--jobs", "3", "--out", str(par)).returncode == 0
    assert seq.read_bytes() == par.read_bytes()


def test_sweep_unknown_param(amp_file):
    r = ccsim("sweep", str(amp_file), "--sweep", "zz=1,2")
    assert r.returncode == 2


@pytest.mark.parametrize("command, extra", [
    ("run", []), ("op", []), ("sweep", ["--sweep", "r1=1k,2k"]), ("measure", ["--csv", "wave.csv"]),
])
def test_param_must_be_a_declared_param(amp_file, tmp_path, monkeypatch, capsys, command, extra):
    # a misspelt name (r22 for r2) is refused, not run with the default r2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wave.csv").write_text("time,v(in),v(out)\n0,0,0\n1e-6,0,0\n")
    argv = [command, str(amp_file), "--param", "r2=5k", "--param", "r22=5k", *extra]
    assert cli.main(argv) == cli.EXIT_PARSE
    assert "--param 'r22' is not a .param of the netlist" in capsys.readouterr().err
    assert not (tmp_path / "amp.csv").exists() and not (tmp_path / "amp.sweep.csv").exists()


def test_sweep_failure_names_value(tmp_path):
    p = tmp_path / "tl.cir"
    assert ccsim("examples", "--emit", "proposed_amp_translinear", "--out", str(p)).returncode == 0
    # an unreachable residual target fails every point; the first is named
    r = ccsim("sweep", str(p), "--sweep", "r1=2k,4k", "--abstol", "0")
    assert r.returncode == 3
    assert "r1=2.00000000e+03" in r.stderr


def test_sweep_failure_names_failed_point(tmp_path):
    p = tmp_path / "tl.cir"
    assert ccsim("examples", "--emit", "proposed_amp_translinear", "--out", str(p)).returncode == 0
    # ibval=100 A fails DC even with gmin stepping; the points around it converge
    out = tmp_path / "sweep.csv"
    r = ccsim("sweep", str(p), "--sweep", "ibval=5e-05,100,2.5e-05", "--out", str(out))
    assert r.returncode == 3
    assert "ibval=1.00000000e+02" in r.stderr
    assert not out.exists()


def test_sweep_rows_equal_single_runs(tmp_path):
    # a stepped translinear sweep and a memoryless behavioral one, which
    # is solved as one stacked superposition; and the behavioral one with
    # an .op and a .dc, which a sweep point does not run
    translinear = tmp_path / "tl.cir"
    assert ccsim("examples", "--emit", "proposed_amp_translinear", "--out", str(translinear)).returncode == 0
    loaded = tmp_path / "loaded.cir"
    loaded.write_text(LOADED)
    with_op_dc = tmp_path / "op_dc.cir"
    with_op_dc.write_text(LOADED.replace(".tran", ".op\n.dc vin -0.1 0.1 0.05\n.tran"))
    for net, name, values in [(translinear, "ibval", ["1.5e-05", "5e-05", "1.8e-04"]),
                              (loaded, "r1", ["100", "1000", "4700"]),
                              (with_op_dc, "r1", ["100", "1000", "4700"])]:
        out = tmp_path / f"sweep_{net.stem}.csv"
        r = ccsim("sweep", str(net), "--sweep", f"{name}=" + ",".join(values), "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + len(values)
        for v, line in zip(values, lines[1:]):
            wave = tmp_path / f"run_{net.stem}_{v}.csv"
            r = ccsim("run", str(net), "--param", f"{name}={v}", "--out", str(wave))
            assert r.returncode == 0, r.stderr
            measures = wave.with_suffix(".measures.csv").read_text().splitlines()[1:]
            rows = [row.split(",") for row in measures]
            assert dict(zip(header, line.split(","))) == {
                "param_value": f"{float(v):.8e}", **{row[0]: row[2] for row in rows}
            }


def test_zero_resistance_rejected(tmp_path):
    p = tmp_path / "r0.cir"
    p.write_text("t\nv1 a 0 DC 1\nr1 a 0 0\n.op\n.end\n")
    r = ccsim("run", str(p))
    assert r.returncode == 2
    assert "zero resistance" in r.stderr


@pytest.mark.parametrize("old, new, line, message", [
    ("vin in 0 SIN(0 0.05 1k)", "vin in 0 PULSE(0 1 0 0 0 -1u 10u)", 4, "PULSE width must be non-negative"),
    (".end", ".measure m hist v(out) bins=2.5\n.end", 11, "hist bins must be an integer, got '2.5'"),
    (".end", ".measure m hist v(out) bins=0\n.end", 11, "hist bins must be at least 1, got '0'"),
    (".end", ".measure m hist v(out) bins=-3\n.end", 11, "hist bins must be at least 1, got '-3'"),
    ("rx=0", "ib=0 beta=1m", 5, "conveyor 'u1': conveyor_rx requires beta_n > 0 and ib > 0"),
    ("rx=0", "ib=50u beta=-1m", 5, "conveyor 'u1': conveyor_rx requires beta_n > 0 and ib > 0"),
    ("rx=0", "rx=-1", 5, "conveyor 'u1': conveyor rx must be non-negative"),
], ids=["negative_width", "fractional_bins", "zero_bins", "negative_bins", "zero_ib", "negative_beta",
        "negative_rx"])
def test_malformed_input_exits_2_with_its_line(amp_file, capsys, old, new, line, message):
    # the first four once ran silently or failed without a line: the
    # negative width held the pulse at v1, bins=2.5 was truncated to 2
    # bins, and bins < 1 failed only when the histogram was taken
    amp_file.write_text(AMP.replace(old, new))
    assert cli.main(["run", str(amp_file)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"line {line}" in err and message in err


@pytest.mark.parametrize("extra", [[], ["--abstol", "1e-10"]])
def test_op_prints_the_block_a_dot_op_line_prints(tmp_path, monkeypatch, capsys, extra):
    # ccsim op and a .op line of ccsim run solve and print through one function
    monkeypatch.chdir(tmp_path)
    text = emit_example("proposed_amp_translinear")
    (tmp_path / "amp.cir").write_text(text)
    (tmp_path / "amp_op.cir").write_text(text.replace("\n.end\n", "\n.op\n.end\n"))
    assert cli.main(["op", "amp.cir", *extra]) == cli.EXIT_OK
    op = capsys.readouterr().out
    assert cli.main(["run", "amp_op.cir", *extra]) == cli.EXIT_OK
    run = capsys.readouterr().out
    start = run.index("operating point:")
    assert op.startswith("operating point:\n") and op.endswith(" A\n")
    assert run[start : start + len(op)] == op


def test_examples_list_and_emit(tmp_path):
    r = ccsim("examples", "--list")
    assert r.returncode == 0
    for name in ("proposed_amp", "ferri_1cc", "ferri_2cc", "proposed_amp_translinear", "cccii_char"):
        assert name in r.stdout
    out = tmp_path / "amp.cir"
    r = ccsim("examples", "--emit", "proposed_amp", "--rx", "0", "--out", str(out))
    assert r.returncode == 0
    run = ccsim("run", str(out), "--out", str(tmp_path / "w.csv"))
    assert run.returncode == 0
    assert ccsim("examples", "--emit", "bogus").returncode == 2


FROZEN_AT_EXIT = """
import atexit, gc, sys
from ccsim import cli
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["ccsim", "examples", "--list"]
cli.entry()
"""


def test_only_the_command_freezes_the_collector(capsys):
    # the ccsim command freezes its import-time heap, so the collections
    # at exit skip it; main, as tests and embedders call it, does not
    r = subprocess.run([sys.executable, "-c", FROZEN_AT_EXIT], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "proposed_amp" in r.stdout
    assert "frozen at exit: True" in r.stderr
    before = gc.get_freeze_count()
    assert cli.main(["examples", "--list"]) == cli.EXIT_OK
    assert gc.get_freeze_count() == before
    assert "proposed_amp" in capsys.readouterr().out


def _emitted(name, conveyor=None, **config):
    if conveyor is not None:
        config["conveyor"] = conveyor
    return emit_example(name, AmplifierConfig(**config) if config else None)


EMIT_CASES = [
    *[((name,), lambda name=name: _emitted(name))
      for name in ("proposed_amp", "ferri_1cc", "ferri_2cc", "proposed_amp_translinear", "cccii_char")],
    (("proposed_amp", "--family", "ccii", "--ib", "25e-6", "--rails", "1.2"),
     lambda: _emitted("proposed_amp", TranslinearConveyor(ib=25e-6, family="ccii", rails=1.2))),
    (("ferri_2cc", "--rx", "500", "--r1", "2k"),
     lambda: _emitted("ferri_2cc", BehavioralConveyor(rx=500.0, controlled=False), r1=2e3)),
    (("cccii_char", "--family", "ccii"),
     lambda: _emitted("cccii_char", TranslinearConveyor(family="ccii", rails=1.5))),
    (("ferri_1cc", "--ib", "25u", "--beta", "2m"), lambda: _emitted("ferri_1cc")),
    (("proposed_amp", "--ib", "25e-6", "--beta", "2m"),
     lambda: _emitted("proposed_amp", BehavioralConveyor(ib=25e-6, beta_n=2e-3))),
    # a suffixed flag is written as the nearest double of its value: ibval=2.5e-05
    (("proposed_amp_translinear", "--ib", "25u"),
     lambda: _emitted("proposed_amp_translinear", TranslinearConveyor(ib=25e-6))),
]


@pytest.mark.parametrize("flags, want", EMIT_CASES, ids=[" ".join(f) for f, _ in EMIT_CASES])
def test_examples_emit_applies_only_given_flags(flags, want, capsys):
    # each example starts from its own configuration; a flag changes only
    # what it names, and only where that example's conveyor has it
    assert cli.main(["examples", "--emit", *flags]) == cli.EXIT_OK
    assert capsys.readouterr().out == want()


def test_measure_subcommand_recomputes(amp_file, tmp_path):
    out = tmp_path / "wave.csv"
    first = ccsim("run", str(amp_file), "--out", str(out))
    assert first.returncode == 0
    again = ccsim("measure", str(amp_file), "--csv", str(out))
    assert again.returncode == 0

    def gval(proc):
        line = next(ln for ln in proc.stdout.splitlines() if ln.split()[:2] == ["g", "gain"])
        return float(line.split()[2])

    # the CSV keeps 9 significant digits, so agreement is to that precision
    assert gval(again) == pytest.approx(gval(first), rel=1e-8)


def test_measure_takes_no_tolerance_flags(amp_file, tmp_path):
    # ccsim measure runs no solver, so it has no tolerances to set
    r = ccsim("measure", str(amp_file), "--csv", str(tmp_path / "wave.csv"), "--reltol", "1e-3")
    assert r.returncode == 2
    assert "--reltol" in r.stderr


def test_unwritable_output_is_io_error(amp_file):
    r = ccsim("run", str(amp_file), "--out", "/nonexistent-dir/wave.csv")
    assert r.returncode == 4


def test_method_override_changes_integration(tmp_path):
    rc = tmp_path / "rc.cir"
    rc.write_text(
        "rc step\nvs in 0 PULSE(0 1 0 1p 1p 1 1)\nr1 in c 1k\nc1 c 0 1u\n"
        ".tran 10u 1m\n.end\n"
    )
    be_out, tr_out = tmp_path / "be.csv", tmp_path / "tr.csv"
    assert ccsim("run", str(rc), "--method", "be", "--out", str(be_out)).returncode == 0
    assert ccsim("run", str(rc), "--method", "trap", "--out", str(tr_out)).returncode == 0
    assert be_out.read_bytes() != tr_out.read_bytes()


def test_measure_with_missing_column_is_netlist_error(tmp_path):
    p = tmp_path / "m.cir"
    p.write_text(
        "t\nvin in 0 SIN(0 0.05 1k)\nr1 in 0 1k\n.tran 1u 1m\n"
        ".measure p avgpow vdd\n.end\n"
    )
    r = ccsim("run", str(p), "--out", str(tmp_path / "m.csv"))
    assert r.returncode == 2
    assert "vdd" in r.stderr


def test_dc_sweep_directive(tmp_path):
    p = tmp_path / "div.cir"
    p.write_text("t\nv1 a 0 DC 0\nr1 a m 1k\nr2 m 0 1k\n.dc v1 0 1 0.5\n.end\n")
    out = tmp_path / "dc.csv"
    r = ccsim("run", str(p), "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("v1,")
    mid = [float(line.split(",")[2]) for line in lines[1:]]
    assert mid == pytest.approx([0.0, 0.25, 0.5], rel=1e-6)


def test_dc_beside_tran_gets_its_own_csv(tmp_path):
    # a netlist with both analyses keeps the .tran record in --out and
    # writes the .dc record to <stem>.dc.csv, each as its own run writes it
    body = "t\nvin in 0 SIN(0 0.05 1k)\nr1 in m 1k\nr2 m 0 1k\n"
    tran, dc = ".tran 10u 1m\n", ".dc vin -0.1 0.1 0.05\n"
    runs = {"both": ".op\n" + dc + tran, "tran": tran, "dc": dc}
    for name, lines in runs.items():
        (tmp_path / f"{name}.cir").write_text(body + lines + ".end\n")
        r = ccsim("run", str(tmp_path / f"{name}.cir"), "--out", str(tmp_path / f"{name}.csv"))
        assert r.returncode == 0, r.stderr
    assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "tran.csv").read_bytes()
    assert (tmp_path / "both.dc.csv").read_bytes() == (tmp_path / "dc.csv").read_bytes()
    assert not (tmp_path / "dc.dc.csv").exists()


@pytest.mark.parametrize("kind,first,second", [
    ("dc", ".dc i2 -1m 1m 0.5m\n", ".dc v1 -1 1 0.25\n"),
    ("tran", ".tran 10u 1m\n", ".tran 20u 2m method=be\n"),
])
def test_repeated_records_get_numbered_csvs(tmp_path, kind, first, second):
    # --out keeps the first record of a kind and <stem>.<kind>2.csv takes
    # the second, each as the run of its directive alone writes it
    body = "t\nv1 in 0 SIN(0 0.5 1k)\ni2 0 m DC 0\nr1 in m 1k\nr2 m 0 1k\n"
    runs = {"both": first + second, "first": first, "second": second}
    for name, lines in runs.items():
        (tmp_path / f"{name}.cir").write_text(body + lines + ".end\n")
        r = ccsim("run", str(tmp_path / f"{name}.cir"), "--out", str(tmp_path / f"{name}.csv"))
        assert r.returncode == 0, r.stderr
    assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    assert (tmp_path / f"both.{kind}2.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    assert (tmp_path / "both.csv").read_bytes() != (tmp_path / "second.csv").read_bytes()
