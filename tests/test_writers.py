"""The columnar CSV, Touchstone and pattern writers against the writers they replaced.

Each reference below is an earlier writer, kept as the definition of the
bytes: ``csv.writer`` over ``num`` for CSV, ``repr`` of each number from a
per-entry (magnitude, angle) pair for Touchstone, and ``_write_csv`` over the
four full-grid columns for the pattern CSV.  The writers must produce the same
bytes on random data, including every edge the formats have, and the streaming
ones must hold one block at a time.  ``reference_line_plot_svg`` is the SVG plot
with one ``%.2f`` pair formatted per point.
"""
import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from slcap import _cpus, cli, touchstone
from slcap.impedance import FIXTURE_MODES, ImpedanceProfile, SeriesRlcModel, synthesize_series_rlc
from slcap.matching import vswr_profile
from slcap.report import num
from slcap.svgplot import line_plot_svg
from slcap.touchstone import (
    ENCODINGS,
    UNIT_SCALE,
    NetworkData,
    TouchstoneFormat,
    iter_touchstone,
    parse_touchstone,
    write_touchstone,
)

ROOT = Path(__file__).resolve().parents[1]


def reference_csv(path, header, columns):
    cells = [map(num, c) if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def reference_touchstone(net, fmt):
    def pair(value):
        if fmt.encoding == "ri":
            return value.real, value.imag
        mag = abs(value)
        ang = math.degrees(math.atan2(value.imag, value.real))
        if fmt.encoding == "ma":
            return mag, ang
        return 20.0 * math.log10(max(mag, 1e-30)), ang

    scale = UNIT_SCALE[fmt.unit]
    lines = [f"# {touchstone._UNIT_DISPLAY[fmt.unit]} S {fmt.encoding.upper()} "
             f"R {touchstone._fmt_z0(fmt.z0_ohm)}"]
    for k in range(net.n_points):
        row = [repr(float(net.frequencies_hz[k] / scale))]
        if net.n_ports == 1:
            order = [net.s[k, 0, 0]]
        else:
            order = [net.s[k, 0, 0], net.s[k, 1, 0], net.s[k, 0, 1], net.s[k, 1, 1]]
        for entry in order:
            a, b = pair(complex(entry))
            row += [repr(float(a)), repr(float(b))]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def random_numbers(rng, n):
    """Values over many exponents, with zeros, -0, nan and infinities mixed in."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    specials = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e308, 1.0])
    picks = rng.random(n) < 0.2
    x[picks] = rng.choice(specials, picks.sum())
    return x


def random_text(rng, n):
    """Cells with and without the characters csv.writer quotes."""
    pieces = np.array(["a", "b c", ",", '"', "x,y", '""', "\r", "\n", "-", "é", "%s", ""])
    return ["".join(rng.choice(pieces, rng.integers(1, 4))) for _ in range(n)]


ROW_COUNTS = [0, 1, touchstone._BLOCK_ROWS, touchstone._BLOCK_ROWS + 1]


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
@pytest.mark.parametrize("layout", ["numeric", "mixed"])
def test_csv_bytes_match_csv_writer(tmp_path, n_rows, layout):
    rng = np.random.default_rng(n_rows + len(layout))
    columns = [random_numbers(rng, n_rows) for _ in range(3)]
    if layout == "mixed":
        columns = [random_text(rng, n_rows), columns[0], random_text(rng, n_rows), columns[1]]
    header = ["freq_hz", "a,b", 'quoted "x"', "d"][: len(columns)]
    cli._write_csv(tmp_path / "new.csv", header, columns)
    reference_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_special_cells_print_as_num(tmp_path):
    values = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 123456789012.0])
    cli._write_csv(tmp_path / "s.csv", ["v", "k"], [values, ["x"] * values.size])
    lines = (tmp_path / "s.csv").read_bytes().split(b"\r\n")
    assert lines[1:-1] == [f"{num(v)},x".encode() for v in values]
    assert lines[1:5] == [b"nan,x", b"inf,x", b"-inf,x", b"-0,x"]


def test_csv_takes_any_sequence_of_text_columns(tmp_path):
    rows = [("key", "1"), ("other", 'says "a, b"')]
    cli._write_csv(tmp_path / "new.csv", ["key", "value"], zip(*rows))
    reference_csv(tmp_path / "ref.csv", ["key", "value"], zip(*rows))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def random_network(rng, n_points, n_ports):
    f = np.cumsum(rng.uniform(1.0, 1e6, n_points)) + rng.uniform(1.0, 1e9)
    parts = rng.standard_normal((2, n_points, n_ports, n_ports))
    parts *= 10.0 ** rng.integers(-12, 2, parts.shape)
    zeros = rng.random(parts.shape) < 0.1
    parts[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    s = np.empty((n_points, n_ports, n_ports), dtype=complex)
    s.real, s.imag = parts
    s[0] = 0.0  # an exact zero entry: the dB floor
    return NetworkData(frequencies_hz=f, s=s)


@pytest.mark.parametrize("n_points", [1, touchstone._BLOCK_ROWS, touchstone._BLOCK_ROWS + 1])
@pytest.mark.parametrize("n_ports", [1, 2])
@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("unit", ["ghz", "hz"])
def test_touchstone_bytes_match_per_entry_writer(n_points, n_ports, encoding, unit):
    rng = np.random.default_rng([n_points, n_ports, len(encoding), len(unit)])
    net = random_network(rng, n_points, n_ports)
    fmt = TouchstoneFormat(unit=unit, encoding=encoding, z0_ohm=75.0 if n_ports == 1 else 50.5)
    text = write_touchstone(net, fmt)
    assert text == reference_touchstone(net, fmt)
    assert parse_touchstone(text).n_points == n_points


def test_touchstone_signed_zero_parts():
    s = np.array([[[complex(-0.0, 0.0)]], [[complex(0.0, -0.0)]], [[complex(-0.0, -0.0)]]])
    net = NetworkData(frequencies_hz=[1.0, 2.0, 3.0], s=s)
    for encoding in ENCODINGS:
        fmt = TouchstoneFormat(unit="hz", encoding=encoding)
        assert write_touchstone(net, fmt) == reference_touchstone(net, fmt)


def test_magnitude_matches_scalar_abs_bit_for_bit():
    rng = np.random.default_rng(7)
    n = 100_000
    # Random bit patterns reach every exponent, subnormals, infinities and nans;
    # the scaled normals give pairs of like size, where hypot has to round.
    bits = rng.integers(0, 2**64, (2, n), dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-320, 300, n)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1e-310, math.inf, -math.inf, math.nan, 1.0, 1e308])
    pairs = np.array([(a, b) for a in edges for b in edges]).T
    re, im = np.concatenate([bits, scaled, pairs], axis=1)
    z = np.empty(re.size, dtype=complex)
    z.real, z.imag = re, im

    def scalar_abs(v):
        try:
            return abs(v)
        except OverflowError:  # a finite pair whose modulus overflows
            return math.inf

    with np.errstate(invalid="ignore"):  # signalling nans among the random bits
        got = touchstone._magnitude(z)
    want = np.array([scalar_abs(v) for v in z.tolist()])
    # Scalar abs returns one fixed nan where numpy keeps the operand's payload;
    # every nan prints as "nan", so only nan-ness is compared there.
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_one_magnitude_behind_every_reported_z(monkeypatch):
    """A VSWR row's vswr is (1 + m) / (1 - m) of the mag_gamma m it writes, bit for bit,
    and ImpedanceProfile.magnitude is scalar abs of each point, bit for bit."""
    rng = np.random.default_rng(13)
    written = []
    monkeypatch.setattr(cli, "_write_csv", lambda path, header, columns: written.append(columns))
    for _ in range(20):
        n = 2000
        # Nearly lossless loads (R from 5e-11 to 5 ohm) put most |Gamma| near one, some at the cap.
        r = 50.0 * 10.0 ** rng.uniform(-12, -1, n)
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2, 5, n)
        profile = ImpedanceProfile(frequencies_hz=np.linspace(1e8, 1e10, n), z=r + 1j * x)
        want = np.array([abs(v) for v in profile.z.tolist()])
        assert profile.magnitude.tobytes() == want.tobytes()

        vswr = vswr_profile(profile, z0=50.0)
        cli.write_vswr_csv(None, vswr)
        bounded = ~vswr.unbounded
        m, ratio = written[-1][3][bounded], written[-1][4][bounded]
        assert m.size > n // 2
        assert ratio.tobytes() == ((1.0 + m) / (1.0 - m)).tobytes()


def traced_peak(write) -> int:
    """tracemalloc's peak, in bytes, above the memory held when ``write()`` starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def stand_in_network(f, s):
    """A network with the attributes the writers read, unchecked, so nan entries can be written."""
    return SimpleNamespace(frequencies_hz=f, s=s, n_points=f.size, n_ports=s.shape[1], z0_ohm=50.0)


BLOCK_POINTS = [touchstone._BLOCK_ROWS - 1, touchstone._BLOCK_ROWS, touchstone._BLOCK_ROWS + 1]


@pytest.mark.parametrize("n_points", BLOCK_POINTS)
@pytest.mark.parametrize("symmetry", ["reciprocal", "symmetric", "both"])
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_touchstone_mirrored_entries_match_per_entry_writer(n_points, symmetry, encoding):
    rng = np.random.default_rng([n_points, len(symmetry), len(encoding)])
    s = random_network(rng, n_points, 2).s.copy()
    if symmetry != "symmetric":
        s[:, 0, 1] = s[:, 1, 0]
    if symmetry != "reciprocal":
        s[:, 1, 1] = s[:, 0, 0]
    net = NetworkData(frequencies_hz=np.arange(1.0, n_points + 1.0) * 1e7, s=s)
    fmt = TouchstoneFormat(unit="mhz", encoding=encoding)
    assert write_touchstone(net, fmt) == reference_touchstone(net, fmt)


@pytest.fixture
def pairs_shapes(monkeypatch):
    """The shape of each entry table the Touchstone writer converts, in call order."""
    shapes, pairs = [], touchstone._pairs
    monkeypatch.setattr(touchstone, "_pairs", lambda e, z: shapes.append(z.shape) or pairs(e, z))
    return shapes


def test_touchstone_formats_each_distinct_entry_once(pairs_shapes):
    n = touchstone._BLOCK_ROWS + 1
    model = SeriesRlcModel(r_ohm=1.0, l_h=2e-9, c_f=1e-12)
    for mode in FIXTURE_MODES:
        pairs_shapes.clear()
        write_touchstone(synthesize_series_rlc(model, np.linspace(1e8, 2e10, n), mode=mode))
        # S12 = S21 and S22 = S11: a 2-port formats 2 columns of its 4, a 1-port its one.
        distinct = 1 if mode == "reflection" else 2
        assert pairs_shapes == [(touchstone._BLOCK_ROWS, distinct), (1, distinct)]


def near_miss(kind):
    """A 2-port whose S12 equals S21 bit for bit except in one way, in one row of the second block."""
    n = 2 * touchstone._BLOCK_ROWS
    rng = np.random.default_rng(len(kind))
    s = np.empty((n, 2, 2), dtype=complex)
    s.real, s.imag = rng.standard_normal((2, n, 2, 2))
    s[:, 0, 1] = s[:, 1, 0]
    s[:, 1, 1] = s[:, 0, 0]
    k = touchstone._BLOCK_ROWS + 17
    if kind == "zero_sign":
        s[k, 1, 0], s[k, 0, 1] = complex(0.0, 0.0), complex(-0.0, 0.0)
        s[k, 1, 1] = complex(0.0, -0.0)
    elif kind == "nan_payload":
        quiet, payload = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(float)
        s.real[k, 1, 0], s.real[k, 0, 1] = quiet, payload
    else:  # one row differs in its value
        s[k, 0, 1] *= 1.0 + 1e-12
    return stand_in_network(np.arange(1.0, n + 1.0), s)


@pytest.mark.parametrize("kind", ["zero_sign", "nan_payload", "one_row"])
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_touchstone_near_mirrored_entries_stay_distinct(kind, encoding, pairs_shapes):
    net = near_miss(kind)
    fmt = TouchstoneFormat(unit="hz", encoding=encoding)
    with np.errstate(invalid="ignore"):
        text = write_touchstone(net, fmt)
    assert text == reference_touchstone(net, fmt)
    # The first block reuses both mirrored columns; the second cannot reuse S21's
    # (nor S11's, for the zero whose sign differs).
    assert [shape[1] for shape in pairs_shapes] == [2, 3 if kind != "zero_sign" else 4]


@pytest.mark.parametrize("n_points", [1, *BLOCK_POINTS, 3 * touchstone._BLOCK_ROWS])
def test_touchstone_blocks_join_to_the_document(n_points):
    net = random_network(np.random.default_rng(n_points), n_points, 2)
    fmt = TouchstoneFormat(unit="ghz", encoding="db")
    blocks = list(iter_touchstone(net, fmt))
    assert "".join(blocks) == write_touchstone(net, fmt)
    assert blocks[0] == "# GHz S DB R 50\n"
    rows = [block.count("\n") for block in blocks[1:]]
    assert rows == [min(touchstone._BLOCK_ROWS, n_points - lo)
                    for lo in range(0, n_points, touchstone._BLOCK_ROWS)]


@pytest.mark.parametrize("fixture,encoding,unit", [
    ("reflection", "ri", "ghz"), ("series-through", "ma", "mhz"), ("shunt-through", "db", "hz"),
])
def test_synth_file_is_the_written_document(tmp_path, fixture, encoding, unit):
    points = touchstone._BLOCK_ROWS + 5
    argv = ["--out-dir", str(tmp_path), "--fixture", fixture, "synth", "--r", "1.5",
            "--l", "2e-9", "--c", "1e-12", "--sweep", f"1e8:2e10:{points}",
            "--unit", unit, "--encoding", encoding, "--out", "s.snp"]
    assert cli.run_command(argv) == 0
    model = SeriesRlcModel(r_ohm=1.5, l_h=2e-9, c_f=1e-12)
    net = synthesize_series_rlc(model, np.linspace(1e8, 2e10, points), mode=fixture)
    fmt = TouchstoneFormat(unit=unit, encoding=encoding)
    assert (tmp_path / "s.snp").read_bytes() == write_touchstone(net, fmt).encode()


def test_touchstone_file_write_holds_one_block(tmp_path):
    model = SeriesRlcModel(r_ohm=1.0, l_h=2e-9, c_f=1e-12)
    fmt = TouchstoneFormat(unit="mhz", encoding="ma")
    peaks = {}
    for n in (25_000, 100_000):
        net = synthesize_series_rlc(model, np.linspace(1e8, 2e10, n))

        def write():
            with open(tmp_path / "out.s2p", "w") as fh:
                fh.writelines(iter_touchstone(net, fmt))

        peaks[n] = traced_peak(write)
    # Whole-document writing grows with the sweep: about 40 MB at 100k points.
    assert peaks[100_000] < 6e6
    assert abs(peaks[100_000] - peaks[25_000]) < 1e6


def reference_pattern_csv(path, pattern):
    n_theta, n_phi = pattern.u.shape
    columns = [
        np.repeat(np.degrees(pattern.theta_rad), n_phi),
        np.tile(np.degrees(pattern.phi_rad), n_theta),
        pattern.u.ravel(),
        cli._db_below_peak(pattern.u).ravel(),
    ]
    cli._write_csv(path, ["theta_deg", "phi_deg", "u", "u_db"], columns)


def stand_in_pattern(rng, theta_deg, phi_deg, special):
    """A pattern with the attributes the writer reads; unchecked, so any grid and nan can be used."""
    u = rng.random((len(theta_deg), len(phi_deg))) * 10.0 ** rng.integers(-8, 3)
    cells = rng.random(u.shape) < 0.1
    u[cells] = special
    return SimpleNamespace(theta_rad=np.radians(theta_deg), phi_rad=np.radians(phi_deg), u=u)


PATTERN_GRIDS = {
    "1x1": ([0.0], [0.0]),
    "one_phi": (np.arange(0.0, 181.0, 1.0), [0.0]),
    "theta_0.3_phi_7": (np.arange(601) * 0.3, np.arange(52) * 7.0),
    "theta_7_phi_0.3": (np.arange(26) * 7.0, np.arange(1200) * 0.3),
}


@pytest.mark.parametrize("grid", sorted(PATTERN_GRIDS))
@pytest.mark.parametrize("special", [0.0, math.nan])
def test_pattern_csv_matches_full_grid_writer(tmp_path, grid, special):
    theta_deg, phi_deg = PATTERN_GRIDS[grid]
    pattern = stand_in_pattern(np.random.default_rng(len(grid)), theta_deg, phi_deg, special)
    with np.errstate(invalid="ignore"):
        cli.write_pattern_csv(tmp_path / "new.csv", pattern)
        reference_pattern_csv(tmp_path / "ref.csv", pattern)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_pattern_csv_special_cells(tmp_path):
    pattern = SimpleNamespace(theta_rad=np.radians([0.0, 90.0]), phi_rad=np.radians([0.0, 180.0]),
                              u=np.array([[2.0, 0.0], [1.0, 2.0]]))
    cli.write_pattern_csv(tmp_path / "p.csv", pattern)
    assert (tmp_path / "p.csv").read_bytes().split(b"\r\n") == [
        b"theta_deg,phi_deg,u,u_db", b"0,0,2,0", b"0,180,0,-inf",
        b"90,0,1,-3.01029996", b"90,180,2,0", b"",
    ]


def test_pattern_csv_holds_under_two_grids(tmp_path):
    theta_deg, phi_deg = np.arange(721) * 0.25, np.arange(360) * 1.0
    pattern = stand_in_pattern(np.random.default_rng(3), theta_deg, phi_deg, 0.0)
    peak = traced_peak(lambda: cli.write_pattern_csv(tmp_path / "p.csv", pattern))
    # The full-grid writer held four grid-sized columns; this one holds u_db and its temporary.
    assert peak < 2 * pattern.u.nbytes + 1e6


# ---------------------------------------------------------------------------
# Block writer on every CPU: the Touchstone file and the pattern CSV

# 1 CPU runs the plain loop; 8 gives fewer blocks than CPUs for most sizes below.
CPU_COUNTS = [1, 2, 3, 8]


@pytest.fixture
def cpus(monkeypatch, request):
    # Any work pays for a child, so even these small texts are split over every CPU.
    monkeypatch.setattr(_cpus, "_CHILD_S", 1e-15)
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("cpus", CPU_COUNTS, indirect=True)
@pytest.mark.parametrize("n_points", [1, 7, 8, 22])
@pytest.mark.parametrize("n_ports", [1, 2])
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_touchstone_file_on_any_cpu_count(tmp_path, monkeypatch, cpus, n_points, n_ports,
                                          encoding):
    monkeypatch.setattr(touchstone, "_BLOCK_ROWS", 7)
    net = random_network(np.random.default_rng([n_points, n_ports, cpus]), n_points, n_ports)
    fmt = TouchstoneFormat(unit="mhz", encoding=encoding)
    touchstone.write_touchstone_file(tmp_path / "s.snp", net, fmt)
    text = (tmp_path / "s.snp").read_text()
    assert text == "".join(iter_touchstone(net, fmt))
    assert text == reference_touchstone(net, fmt)


@pytest.mark.parametrize("cpus", CPU_COUNTS, indirect=True)
@pytest.mark.parametrize("fixture,encoding", [("reflection", "ri"), ("series-through", "db")])
def test_synth_command_on_any_cpu_count(tmp_path, monkeypatch, cpus, fixture, encoding):
    monkeypatch.setattr(touchstone, "_BLOCK_ROWS", 7)
    argv = ["--out-dir", str(tmp_path), "--fixture", fixture, "synth", "--r", "1.5",
            "--l", "2e-9", "--c", "1e-12", "--sweep", "1e8:2e10:22", "--encoding", encoding,
            "--out", "s.snp"]
    assert cli.run_command(argv) == 0
    model = SeriesRlcModel(r_ohm=1.5, l_h=2e-9, c_f=1e-12)
    net = synthesize_series_rlc(model, np.linspace(1e8, 2e10, 22), mode=fixture)
    fmt = TouchstoneFormat(encoding=encoding)
    assert (tmp_path / "s.snp").read_text() == reference_touchstone(net, fmt)


@pytest.mark.parametrize("cpus", CPU_COUNTS, indirect=True)
@pytest.mark.parametrize("n_theta", [2, 3, 91])
def test_pattern_csv_on_any_cpu_count(tmp_path, cpus, n_theta):
    theta_deg, phi_deg = np.linspace(0.0, 180.0, n_theta), np.arange(36) * 10.0
    pattern = stand_in_pattern(np.random.default_rng([n_theta, cpus]), theta_deg, phi_deg, 0.0)
    cli.write_pattern_csv(tmp_path / "new.csv", pattern)
    reference_pattern_csv(tmp_path / "ref.csv", pattern)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def numbered_block(i):
    return f"block {i}\n"


def serial_text(n_blocks):
    return "".join(map(numbered_block, range(n_blocks)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_numbered(path, block, n_blocks):
    with open(path, "w") as fh:
        fh.write("head\n")
        _cpus.write_blocks(fh, block, n_blocks)
    return path.read_text()


@pytest.mark.parametrize("cpus", [2, 3, 8], indirect=True)
def test_caller_formats_only_the_first_range(tmp_path, cpus):
    calls = []  # a child's calls append to the child's copy

    def block(i):
        calls.append(i)
        return numbered_block(i)

    assert write_numbered(tmp_path / "out.txt", block, 8) == "head\n" + serial_text(8)
    assert calls == list(range(8 // cpus))
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [8], indirect=True)
@pytest.mark.parametrize("work_s,n_ranges", [(63, 7), (49, 7), (48, 6), (4, 2), (3, 1), (0, 1)])
def test_ranges_are_no_more_than_the_work_pays_for(tmp_path, monkeypatch, cpus, work_s, n_ranges):
    # A child costs 1 s of a clock that only block 0 moves, by an eighth of the work:
    # n ranges pay while n * n <= work_s.
    monkeypatch.setattr(_cpus, "_CHILD_S", 1.0)
    clock = [0.0]
    monkeypatch.setattr(_cpus, "perf_counter", lambda: clock[0])
    calls = []

    def block(i):
        calls.append(i)
        clock[0] += work_s / 8 if i == 0 else 0.0
        return numbered_block(i)

    text = write_numbered(tmp_path / "out.txt", block, 8)
    assert text == "head\n" + serial_text(8)
    assert calls == list(range(8 // n_ranges))
    assert_no_child_left()


def test_small_pattern_on_many_cpus_forks_few_children(tmp_path, monkeypatch):
    # A 1-degree grid on 180 CPUs: a child per theta row would cost more than its row.
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 180)
    forks = []
    fork = _cpus._fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(_cpus, "_fork", counted_fork)
    theta_deg, phi_deg = np.arange(181.0), np.arange(361.0)
    pattern = stand_in_pattern(np.random.default_rng(181), theta_deg, phi_deg, 0.0)
    cli.write_pattern_csv(tmp_path / "new.csv", pattern)
    reference_pattern_csv(tmp_path / "ref.csv", pattern)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(forks) < 10
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3, 8], indirect=True)
@pytest.mark.parametrize("bad", [0, 5, 7])
def test_block_failure_is_raised_by_the_caller(tmp_path, cpus, bad):
    # Block 0 is in the caller's range; 5 and 7 are in a child's for every count.
    def block(i):
        if i == bad:
            raise ValueError(f"cannot format block {i}")
        return numbered_block(i)

    with pytest.raises(ValueError, match=f"^cannot format block {bad}$"):
        write_numbered(tmp_path / "out.txt", block, 8)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3, 8], indirect=True)
def test_failed_child_range_is_written_by_the_caller(tmp_path, cpus):
    caller = os.getpid()

    def block(i):
        if os.getpid() != caller:
            raise MemoryError("only in a child")
        return numbered_block(i)

    assert write_numbered(tmp_path / "out.txt", block, 8) == "head\n" + serial_text(8)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3], indirect=True)
def test_no_fork_or_spill_file_writes_every_range_in_the_caller(tmp_path, monkeypatch, cpus):
    def refused(*args, **kwargs):
        raise OSError("refused")

    for name, target in (("fork", _cpus.os), ("TemporaryFile", _cpus.tempfile)):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, refused)
            text = write_numbered(tmp_path / "out.txt", numbered_block, 8)
        assert text == "head\n" + serial_text(8)
    assert_no_child_left()


# Four CPUs whatever the machine has, and any work pays for a child, so the
# ranges after the first are forked.
FORKED_WRITE = """
import os, sys, tempfile
from slcap import _cpus
_cpus._usable_cpus = lambda: 4
_cpus._CHILD_S = 1e-15
assert tempfile.gettempdir() == os.environ["TMPDIR"]
print("printed before the write")  # a pipe: block-buffered, not flushed
with open(sys.argv[1], "w") as fh:
    _cpus.write_blocks(fh, lambda i: f"block {i}\\n", 8)
print("printed after")
"""


def test_forked_write_leaves_no_output_twice_and_no_file(tmp_path):
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    env = {**os.environ, "TMPDIR": str(spill_dir),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FORKED_WRITE, str(tmp_path / "out.txt")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "printed before the write\nprinted after\n"
    assert proc.stderr == ""
    assert (tmp_path / "out.txt").read_text() == serial_text(8)
    assert list(spill_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# SVG line plots


def reference_line_plot_svg(x, series, xlabel="", ylabel=""):
    width, height = 720, 420
    margin_l, margin_r, margin_t, margin_b = 64, 16, 20, 44
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    x = np.asarray(x, dtype=float)
    finite_y = np.concatenate(
        [np.asarray(y, dtype=float)[np.isfinite(np.asarray(y, dtype=float))] for _, y in series]
    )
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def px(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp, yp = px(xv), py(yv)
        parts.append(f'<line x1="{xp:.2f}" y1="{margin_t + plot_h}" x2="{xp:.2f}" '
                     f'y2="{margin_t + plot_h + 4}" stroke="#444"/>')
        parts.append(f'<text x="{xp:.2f}" y="{margin_t + plot_h + 16}" font-size="10" '
                     f'text-anchor="middle" fill="#222">{xv:.4g}</text>')
        parts.append(f'<line x1="{margin_l - 4}" y1="{yp:.2f}" x2="{margin_l}" '
                     f'y2="{yp:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{yp + 3:.2f}" font-size="10" '
                     f'text-anchor="end" fill="#222">{yv:.4g}</text>')
    for idx, (label, y) in enumerate(series):
        y = np.asarray(y, dtype=float)
        color = colors[idx % len(colors)]
        pts = [f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, y) if math.isfinite(yv)]
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        parts.append(f'<text x="{margin_l + 8 + 140 * idx}" y="{margin_t + 14}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    if xlabel:
        parts.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 8}" font-size="12" '
                     f'text-anchor="middle" fill="#000">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{margin_t + plot_h / 2:.1f}" font-size="12" '
                     f'text-anchor="middle" fill="#000" '
                     f'transform="rotate(-90 14 {margin_t + plot_h / 2:.1f})">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def holed_series(rng, n):
    """Random levels over several decades with NaN, +-inf and -0.0 samples."""
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 6)
    for value in (math.nan, math.inf, -math.inf, -0.0):
        y[rng.random(n) < 0.05] = value
    return y


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("seed", range(4))
def test_line_plot_matches_per_point_renderer(n, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-1e9, 1e10, n)) if seed % 2 else np.arange(n, dtype=float)
    c = holed_series(rng, n)
    c[0] = 3.5  # at least one finite sample
    series = [("a", holed_series(rng, n)), ("b", np.full(n, -0.0)), ("c", c)]
    svg = line_plot_svg(x, series, xlabel="x", ylabel="y")
    assert svg == reference_line_plot_svg(x, series, xlabel="x", ylabel="y")


@pytest.mark.parametrize("y", [[5.0], [2.0, 2.0, 2.0], [math.nan, 1.0, math.inf],
                               [-0.0, 0.0, -0.0]])
def test_line_plot_edge_series_match_per_point_renderer(y):
    x = np.arange(len(y), dtype=float)
    series = [("s", np.array(y)), ("holes", np.full(len(y), math.nan))]
    assert line_plot_svg(x, series) == reference_line_plot_svg(x, series)
