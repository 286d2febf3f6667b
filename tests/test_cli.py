import subprocess
import sys

import pytest

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
    p = tmp_path / "tl.cir"
    assert ccsim("examples", "--emit", "proposed_amp_translinear", "--out", str(p)).returncode == 0
    values = ["1.5e-05", "5e-05", "1.8e-04"]
    out = tmp_path / "sweep.csv"
    r = ccsim("sweep", str(p), "--sweep", "ibval=" + ",".join(values), "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 1 + len(values)
    for v, line in zip(values, lines[1:]):
        wave = tmp_path / f"run_{v}.csv"
        r = ccsim("run", str(p), "--param", f"ibval={v}", "--out", str(wave))
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
