"""The columnar CSV, Touchstone and pattern writers against the writers they replaced.

Each reference below is an earlier writer, kept as the definition of the
bytes: ``csv.writer`` over ``num`` for CSV, ``repr`` of each number from a
per-entry (magnitude, angle) pair for Touchstone, and ``_write_csv`` over the
four full-grid columns for the pattern CSV.  The writers must produce the same
bytes on random data, including every edge the formats have, and the streaming
ones must hold one block at a time.
"""
import csv
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from slcap import cli, touchstone
from slcap.impedance import FIXTURE_MODES, SeriesRlcModel, synthesize_series_rlc
from slcap.report import num
from slcap.touchstone import (
    ENCODINGS,
    UNIT_SCALE,
    NetworkData,
    TouchstoneFormat,
    iter_touchstone,
    parse_touchstone,
    write_touchstone,
)


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


ROW_COUNTS = [0, 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1]


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
        got = cli._magnitude(z)
    want = np.array([scalar_abs(v) for v in z.tolist()])
    # Scalar abs returns one fixed nan where numpy keeps the operand's payload;
    # every nan prints as "nan", so only nan-ness is compared there.
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


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
