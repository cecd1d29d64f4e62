"""The columnar CSV and Touchstone writers against the per-cell writers they replaced.

Each reference below is the earlier writer, kept as the definition of the
bytes: ``csv.writer`` over ``num`` for CSV, and ``repr`` of each number from a
per-entry (magnitude, angle) pair for Touchstone.  The columnar writers must
produce the same bytes on random data, including every edge the formats have.
"""
import csv
import math

import numpy as np
import pytest

from slcap import cli, touchstone
from slcap.report import num
from slcap.touchstone import (
    ENCODINGS,
    UNIT_SCALE,
    NetworkData,
    TouchstoneFormat,
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
