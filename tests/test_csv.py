"""CSV export and import: the vectorized block formatter against the
per-cell :func:`format_sci` definition, the CLI's CSV bytes, and the
round trip through :func:`read_csv`."""

import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsim.netlist import parse_and_flatten
from ccsim.transient import (
    Waveform,
    _csv_block,
    format_sci,
    read_csv,
    run_dc_sweep,
    run_transient,
    write_csv,
)


def per_cell(block) -> bytes:
    """The CSV lines of ``block``, one :func:`format_sci` call per cell."""
    rows = np.asarray(block).tolist()
    return "".join(",".join(format_sci(v) for v in row) + "\n" for row in rows).encode()


def per_cell_csv(wave: Waveform, probes=None) -> bytes:
    names = probes if probes is not None else list(wave.columns)
    header = ",".join([wave.time_label] + names) + "\n"
    block = np.column_stack([wave.times] + [wave.column(n) for n in names])
    return header.encode() + per_cell(block)


def _bits_to_float(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# NaN, infinities and subnormals included; raw bit patterns reach NaN
# payloads and the extreme exponents evenly
cells = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_bits_to_float))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_block_formatter_matches_format_sci(data):
    n_rows = data.draw(st.integers(1, 40))
    n_cols = data.draw(st.integers(1, 6))
    values = data.draw(st.lists(cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    block = np.array(values, dtype=np.float64).reshape(n_rows, n_cols)
    assert _csv_block(block) == per_cell(block)


def _pinned_values():
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    vals = [np.nextafter(p, toward) for p in powers for toward in (0.0, np.inf)] + powers
    # exact binary ties at the 9th digit, then decimal ties, whose float
    # product with 10**(8-e) often rounds onto or across the tie
    vals += [100000000.5, 100000001.5, 0.5000000025, 0.5000000075]
    vals += [float(f"{m}5e{k}") for m in (123456789, 830354086, 987654321) for k in range(-40, 41)]
    vals += [7.959493085e-15, 5.069139925e-64, 4.875652185e96, 3.634486735e254]
    # decade carry and the 2-to-3-digit exponent edge
    vals += [9.9999999996, 9.999999995, 9.999999996e99, 1e100, 1e-100, 9.999999996e-101]
    # both sides of the kernel's 1e+-280 gate
    vals += [1e280, np.nextafter(1e280, 0.0), 1e-280, np.nextafter(1e-280, 1.0)]
    vals += [0.0, np.copysign(np.nan, -1.0), np.nan, np.inf, 5e-324, np.finfo(float).max]
    vals += [np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0)]
    return np.array(vals + [-v for v in vals])


def test_block_formatter_pinned_cases():
    vals = _pinned_values()
    for n_cols in (1, 3, 7):
        block = np.resize(vals, (len(vals) + n_cols - 1) // n_cols * n_cols).reshape(-1, n_cols)
        assert _csv_block(block) == per_cell(block)
    spot = {
        9.9999999996: b"1.00000000e+01",
        9.999999996e99: b"1.00000000e+100",
        -0.0: b"-0.00000000e+00",
        100000000.5: b"1.00000000e+08",
        100000001.5: b"1.00000002e+08",
        np.copysign(np.nan, -1.0): b"nan",
        -np.inf: b"-inf",
        5e-324: b"4.94065646e-324",
        -np.finfo(float).max: b"-1.79769313e+308",
    }
    block = np.array(list(spot)).reshape(-1, 1)
    assert _csv_block(block) == b"".join(t + b"\n" for t in spot.values())


AMP = """behavioral amplifier
vin in 0 SIN(0 0.05 1k)
u1 in x out cccii+ rx=321.5
r1 x 0 1234.5
r2 out 0 45678.9
.tran 1u 20m
.end
"""

DC = """conveyor dc sweep
v1 in 0 DC 0
u1 in x out ccii- rx=50
r1 x 0 1k
r2 out 0 10k
.dc v1 -1 1 0.01
.end
"""


def _ccsim_run(netlist, tmp_path, *args):
    p = tmp_path / "c.cir"
    p.write_text(netlist)
    out = tmp_path / "c.csv"
    r = subprocess.run(
        [sys.executable, "-m", "ccsim.cli", "run", str(p), "--out", str(out), *args],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    return out.read_bytes()


def test_cli_csv_bytes_match_per_cell_format(tmp_path):
    c = parse_and_flatten(AMP)
    wave = run_transient(c, 1e-6, 20e-3, "trap")
    assert len(wave.times) == 20_001
    assert _ccsim_run(AMP, tmp_path) == per_cell_csv(wave)
    probes = ["v(out)", "i(vin)"]
    assert _ccsim_run(AMP, tmp_path, "--probes", ",".join(probes)) == per_cell_csv(wave, probes)

    c = parse_and_flatten(DC)
    sweep = run_dc_sweep(c, "v1", -1.0, 1.0, 0.01)
    expect = per_cell_csv(sweep)
    assert expect.startswith(b"v1,")
    assert _ccsim_run(DC, tmp_path) == expect


def test_read_csv_parses_each_cell_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    n = 5_000
    a = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -np.finfo(float).max]
    a[: len(specials)] = specials
    wave = Waveform(np.arange(n) * 1e-6, {"v(a)": a, "i(b)": rng.normal(size=n)}, 1e-6, "be", {})
    path = tmp_path / "w.csv"
    write_csv(wave, path)
    back = read_csv(path)
    for got, sent in ((back.times, wave.times), *((back.column(k), wave.column(k)) for k in wave.columns)):
        expect = np.array([float(format_sci(v)) for v in sent.tolist()])
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert list(back.columns) == list(wave.columns)


@pytest.mark.parametrize("text", ["time,v(a)\n", "time,v(a)\n\n\n", "time\n0.0\n1.0\n", ""])
def test_read_csv_rejects_files_without_rows_or_columns(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a waveform CSV"):
            read_csv(path)
