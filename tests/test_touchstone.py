import cmath
import contextlib
import dataclasses
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from readers import assert_same_or_declined, bits
from slcap import (
    ENCODINGS,
    UNIT_SCALE,
    NetworkData,
    TouchstoneFormat,
    TouchstoneParseError,
    parse_touchstone,
    validate_passivity,
    write_touchstone,
)
from slcap import cli
from slcap.cli import run_command
from slcap.touchstone import _parse_file, _parse_option_line, _read_table


def one_port(doc: str) -> NetworkData:
    return parse_touchstone(doc)


class TestOptionLine:
    def test_full_option_line(self):
        net = one_port("# MHz S RI R 75\n1 0.25 -0.5\n")
        assert net.z0_ohm == 75.0
        assert net.frequencies_hz[0] == 1e6
        assert net.s[0, 0, 0] == 0.25 - 0.5j

    def test_all_tokens_omitted_use_v1_defaults(self):
        # Bare "#" means GHz, MA, 50 ohm.
        net = one_port("#\n1 0.5 0\n")
        assert net.z0_ohm == 50.0
        assert net.frequencies_hz[0] == 1e9
        assert net.s[0, 0, 0] == pytest.approx(0.5)

    def test_partial_option_line(self):
        net = one_port("# Hz S\n5 0.5 0\n")
        assert net.frequencies_hz[0] == 5.0  # unit honoured
        assert net.s[0, 0, 0] == pytest.approx(0.5)  # MA default
        assert net.z0_ohm == 50.0

    def test_tokens_in_any_order(self):
        net = one_port("# R 25 RI S MHz\n2 1 0\n")
        assert net.z0_ohm == 25.0
        assert net.frequencies_hz[0] == 2e6
        assert net.s[0, 0, 0] == 1.0 + 0j

    def test_case_insensitive(self):
        net = one_port("# gHz s Ri r 50\n1 0 1\n")
        assert net.s[0, 0, 0] == 1j

    @pytest.mark.parametrize(
        ("unit", "scale"),
        [("Hz", 1.0), ("kHz", 1e3), ("MHz", 1e6), ("GHz", 1e9)],
    )
    def test_unit_scaling(self, unit, scale):
        net = one_port(f"# {unit} S RI R 50\n3 0 0\n")
        assert net.frequencies_hz[0] == 3.0 * scale


class TestParseData:
    def test_two_port_row_order(self):
        # v1 rows are S11 S21 S12 S22.
        doc = "# Hz S RI R 50\n1 0.11 0 0.21 0 0.12 0 0.22 0\n"
        net = parse_touchstone(doc)
        assert net.n_ports == 2
        assert net.s[0, 0, 0] == 0.11
        assert net.s[0, 1, 0] == 0.21
        assert net.s[0, 0, 1] == 0.12
        assert net.s[0, 1, 1] == 0.22

    def test_magnitude_angle_conversion(self):
        net = one_port("# Hz S MA R 50\n1 0.5 45\n")
        expected = cmath.rect(0.5, math.radians(45.0))
        assert net.s[0, 0, 0] == pytest.approx(expected, rel=1e-15)

    def test_db_angle_conversion(self):
        net = one_port("# Hz S DB R 50\n1 0 0\n")
        assert net.s[0, 0, 0] == 1.0 + 0j
        net = one_port("# Hz S DB R 50\n1 -6.020599913279624 60\n")
        expected = cmath.rect(0.5, math.radians(60.0))
        assert net.s[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_inline_and_full_line_comments(self):
        doc = (
            "! header comment\n"
            "# Hz S RI R 50   ! trailing on the option line\n"
            "\n"
            "1 0.5 0 ! trailing on a data row\n"
            "! footer\n"
        )
        net = parse_touchstone(doc)
        assert net.n_points == 1
        assert net.s[0, 0, 0] == 0.5

    def test_multi_point_sweep(self):
        doc = "# MHz S RI R 50\n1 0.1 0\n2 0.2 0\n3 0.3 0\n"
        net = parse_touchstone(doc)
        assert net.n_points == 3
        np.testing.assert_allclose(net.frequencies_hz, [1e6, 2e6, 3e6])
        np.testing.assert_allclose(net.s[:, 0, 0].real, [0.1, 0.2, 0.3])


class TestDiagnostics:
    @pytest.mark.parametrize(
        ("doc", "line", "pattern"),
        cases.MALFORMED_TOUCHSTONE,
        ids=[f"case{i:02d}" for i in range(len(cases.MALFORMED_TOUCHSTONE))],
    )
    def test_line_numbered_errors(self, doc, line, pattern):
        with pytest.raises(TouchstoneParseError, match=pattern) as excinfo:
            parse_touchstone(doc)
        assert excinfo.value.line_number == line

    def test_message_carries_line_prefix(self):
        with pytest.raises(TouchstoneParseError) as excinfo:
            parse_touchstone("# Hz S RI R 50\n1 abc 0\n")
        assert str(excinfo.value).startswith("line 2:")


class TestWrite:
    def test_option_line_rendering(self):
        net = one_port("# Hz S RI R 50\n1 0.5 0\n")
        text = write_touchstone(net, TouchstoneFormat(unit="ghz", encoding="ma"))
        assert text.splitlines()[0] == "# GHz S MA R 50"

    def test_fractional_reference_impedance(self):
        net = NetworkData(
            frequencies_hz=np.array([1e9]),
            s=np.zeros((1, 1, 1), dtype=complex),
            z0_ohm=37.5,
        )
        text = write_touchstone(net)
        assert text.splitlines()[0] == "# GHz S MA R 37.5"

    def test_values_round_trip_exactly_in_ri(self):
        # repr() emission means re-parsing returns bit-identical floats.
        s = np.array([[[0.1 + 0.2j]], [[-0.3 + 0.7j]]])
        net = NetworkData(frequencies_hz=np.array([1e9, 2e9]), s=s)
        back = parse_touchstone(write_touchstone(net, TouchstoneFormat(encoding="ri")))
        assert np.array_equal(back.s, net.s)

    def test_db_of_zero_entry_is_floored(self):
        s = np.zeros((1, 2, 2), dtype=complex)
        s[0, 1, 0] = s[0, 0, 1] = 1.0  # ideal thru: S11 = 0 exactly
        net = NetworkData(frequencies_hz=np.array([1e9]), s=s)
        text = write_touchstone(net, TouchstoneFormat(encoding="db"))
        assert "-600.0" in text
        back = parse_touchstone(text)
        assert abs(back.s[0, 0, 0]) <= 1e-9


class TestRoundTrip:
    @pytest.mark.parametrize("encoding", ["ri", "ma", "db"])
    @pytest.mark.parametrize("unit", ["hz", "khz", "mhz", "ghz"])
    def test_random_passive_networks(self, encoding, unit):
        rng = np.random.default_rng(hash((encoding, unit)) % 2**32)
        for _ in range(10):
            net = cases.random_passive_network(rng)
            fmt = TouchstoneFormat(unit=unit, encoding=encoding, z0_ohm=net.z0_ohm)
            back = parse_touchstone(write_touchstone(net, fmt))
            assert back.z0_ohm == net.z0_ohm
            np.testing.assert_allclose(
                back.frequencies_hz, net.frequencies_hz, rtol=1e-12
            )
            err = np.abs(back.s - net.s) / np.maximum(np.abs(net.s), 1e-12)
            assert err.max() <= 1e-12

    def test_encoding_equivalence(self, rng):
        net = cases.random_passive_network(rng)
        parsed = [
            parse_touchstone(
                write_touchstone(net, TouchstoneFormat(encoding=e, z0_ohm=net.z0_ohm))
            )
            for e in ("ri", "ma", "db")
        ]
        for other in parsed[1:]:
            assert np.abs(other.s - parsed[0].s).max() <= 1e-9

    def test_unit_preserved_through_file(self):
        net = one_port("# Hz S RI R 50\n2500000 0.5 0\n")
        text = write_touchstone(net, TouchstoneFormat(unit="mhz", encoding="ri"))
        assert text.splitlines()[0].startswith("# MHz")
        assert parse_touchstone(text).frequencies_hz[0] == pytest.approx(2.5e6, rel=1e-12)


class TestPassivity:
    def test_passive_network_has_no_flags(self, rng):
        net = cases.random_passive_network(rng)
        assert validate_passivity(net) == []

    def test_active_entry_is_named_with_frequency(self):
        s = np.zeros((2, 2, 2), dtype=complex)
        s[1, 1, 0] = 1.5
        net = NetworkData(frequencies_hz=np.array([1e9, 2e9]), s=s)
        flags = validate_passivity(net)
        assert len(flags) == 1
        assert "|S21|" in flags[0]
        assert "2e+09" in flags[0] or "2000000000" in flags[0]

    def test_flags_follow_point_then_port_order(self):
        s = np.zeros((3, 2, 2), dtype=complex)
        s[0, 0, 1] = 1.5
        s[0, 1, 0] = -2.0
        s[1, 1, 1] = 1.25j
        s[2, 0, 0] = 3.0 + 4.0j
        s[2, 0, 1] = 1.125
        s[2, 1, 0] = 0.9
        s[2, 1, 1] = 1.0 + 1e-12
        net = NetworkData(frequencies_hz=np.array([1e9, 2.5e9, 3e9]), s=s)
        assert validate_passivity(net) == [
            "|S12| = 1.5 exceeds 1 at 1e+09 Hz",
            "|S21| = 2 exceeds 1 at 1e+09 Hz",
            "|S22| = 1.25 exceeds 1 at 2.5e+09 Hz",
            "|S11| = 5 exceeds 1 at 3e+09 Hz",
            "|S12| = 1.125 exceeds 1 at 3e+09 Hz",
        ]

    def test_unit_magnitude_is_within_tolerance(self):
        s = np.full((1, 1, 1), 1.0 + 0j)
        net = NetworkData(frequencies_hz=np.array([1e9]), s=s)
        assert validate_passivity(net) == []
        net_hot = NetworkData(frequencies_hz=np.array([1e9]), s=s * (1.0 + 2e-9))
        assert len(validate_passivity(net_hot)) == 1


class TestNetworkData:
    def test_arrays_are_read_only_views(self):
        f, s = np.array([1e9, 2e9]), np.zeros((2, 1, 1), dtype=complex)
        net = NetworkData(frequencies_hz=f, s=s)
        with pytest.raises(ValueError, match="read-only"):
            net.s[0, 0, 0] = 5
        with pytest.raises(ValueError, match="read-only"):
            net.frequencies_hz[0] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.s = s
        # The caller's own arrays stay writable.
        f[0], s[0, 0, 0] = 0.5e9, 5
        assert net.frequencies_hz[0] == 0.5e9 and net.s[0, 0, 0] == 5

    def test_parsed_network_is_read_only(self):
        net = parse_touchstone("# Hz S RI R 50\n1 0.5 0\n")
        with pytest.raises(ValueError, match="read-only"):
            net.s[0, 0, 0] = 5
        assert net == net and hash(net) == hash(net)


# ---------------------------------------------------------------------------
# The array reader against the line grammar
#
# ``reference_parse`` is the line-by-line reader that the array pass replaced,
# kept as the definition of what a document means: each entry converted by
# ``math`` as its line is read.  ``parse_touchstone`` must give the same bits,
# or the same error text and line number, on every input.


def _reference_pair(encoding, a, b):
    if encoding == "ri":
        return complex(a, b)
    if encoding == "ma":
        mag, ang = a, math.radians(b)
    else:  # db
        mag, ang = 10.0 ** (a / 20.0), math.radians(b)
    return complex(mag * math.cos(ang), mag * math.sin(ang))


def reference_parse(text):
    fmt = None
    freqs, matrices = [], []
    n_cols = None
    last_line = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        last_line = line_number
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            raise TouchstoneParseError(
                line_number, "Touchstone v2 keyword blocks are not supported"
            )
        if line.startswith("#"):
            if fmt is not None:
                raise TouchstoneParseError(line_number, "second option line")
            fmt = _parse_option_line(line, line_number)
            continue
        if fmt is None:
            raise TouchstoneParseError(line_number, "data row before the option line")
        values = []
        for tok in line.split():
            try:
                v = float(tok)
            except ValueError:
                raise TouchstoneParseError(line_number, f"non-numeric token {tok!r}") from None
            if not math.isfinite(v):
                raise TouchstoneParseError(line_number, f"non-finite value {tok!r}")
            values.append(v)
        if n_cols is None:
            if len(values) not in (3, 9):
                raise TouchstoneParseError(
                    line_number,
                    f"expected 3 columns (1-port) or 9 columns (2-port), got {len(values)}",
                )
            n_cols = len(values)
        elif len(values) != n_cols:
            raise TouchstoneParseError(line_number, f"expected {n_cols} columns, got {len(values)}")
        f_hz = values[0] * UNIT_SCALE[fmt.unit]
        if f_hz <= 0:
            raise TouchstoneParseError(line_number, "frequency must be positive")
        if freqs and f_hz <= freqs[-1]:
            raise TouchstoneParseError(line_number, "frequencies must be strictly increasing")
        freqs.append(f_hz)
        row = []
        for k in range(1, len(values), 2):
            try:
                row.append(_reference_pair(fmt.encoding, values[k], values[k + 1]))
            except OverflowError:  # a dB level past the float range
                raise TouchstoneParseError(
                    line_number, f"dB level {values[k]!r} overflows the float range"
                ) from None
        matrices.append(row)
    if fmt is None:
        raise TouchstoneParseError(max(last_line, 1), "missing option line")
    if not freqs:
        raise TouchstoneParseError(max(last_line, 1), "no data rows")
    p = 1 if n_cols == 3 else 2
    s = np.array(matrices, dtype=complex).reshape(-1, p, p).transpose(0, 2, 1)
    return NetworkData(frequencies_hz=np.array(freqs), s=s, z0_ohm=fmt.z0_ohm)


def assert_same(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the array pass lets no warning out
        assert assert_same_or_declined(parse_touchstone, reference_parse, text)


def random_document(encoding, unit, ports, n, seed):
    """A random passive network with ``n`` points, written by ``write_touchstone``."""
    rng = np.random.default_rng(seed)
    f = np.cumsum(rng.uniform(1e6, 5e8, n)) + 1e6
    raw = rng.normal(size=(n, ports, ports)) + 1j * rng.normal(size=(n, ports, ports))
    s = raw / (1.0 + np.abs(raw))
    s[::7] = -s[::7].real + 0j  # some real entries: zero imaginary parts and RI/MA zeros
    net = NetworkData(frequencies_hz=f, s=s, z0_ohm=float(rng.uniform(5.0, 150.0)))
    return write_touchstone(net, TouchstoneFormat(unit=unit, encoding=encoding, z0_ohm=net.z0_ohm))


ARRAY_CASES = {
    "inline_and_full_line_comments": (
        "! header\n# Hz S RI R 50   ! option\n\n1 0.5 0 ! row\n! between\n2 0.25 -1 !\n! footer\n"
    ),
    "crlf": "# MHz S MA R 50\r\n1 0.5 45\r\n2 0.25 -30\r\n",
    "form_feed_breaks": "# GHz S DB R 50\x0c1 -3 10\x0c2 -6 20\x0c",
    "negative_zero_ri": "# Hz S RI R 50\n1 -0.0 0.5\n2 0.0 -0.0\n3 -0.0 -0.0\n4 -0.0 -2.5\n",
    "negative_zero_ri_2port": "# Hz S RI R 50\n1 -0.0 0.5 0.0 -0.0 -0.0 -0.0 -1 -0.0\n",
    "negative_zero_ma": "# Hz S MA R 50\n1 -0.0 0\n2 0.5 -0.0\n3 -0.5 0\n4 0 -0.0\n",
    "negative_zero_db": "# Hz S DB R 50\n1 -3 -0.0\n2 0 0\n3 -600 -0.0\n",
    "single_row_1port": "# kHz S RI R 75\n2.5 0.1 -0.2\n",
    "single_row_2port": "# GHz S MA R 50\n1 0.1 10 0.9 -20 0.9 -20 0.1 10\n",
    "option_defaults": "#\n1 0.5 0\n",
    "tabs_and_wide_spaces": "# Hz S RI R 50\n\t1\t0.5  0\n2\xa00.25　0\n",
    "exponents_and_signs": "# Hz S RI R 50\n1e0 +5E-1 -1.5e+2\n2.0E0 .5 5.\n",
    "blank_lines_after_the_data": "# Hz S RI R 50\n1 0.5 0\n\n   \n! end\n",
    **{
        f"random_{encoding}_{unit}_{ports}port": random_document(encoding, unit, ports, 50, seed)
        for seed, (encoding, unit, ports) in enumerate(
            (e, u, p) for e in ENCODINGS for u in UNIT_SCALE for p in (1, 2)
        )
    },
    # Enough dB levels that a last-bit difference in np.power would show.
    "random_db_levels": random_document("db", "ghz", 2, 2000, 101),
    "random_ma_angles": random_document("ma", "mhz", 2, 2000, 102),
}

# Valid documents that numpy declines and the line grammar reads.
DECLINED_CASES = {
    "underscore_digits": "# Hz S RI R 50\n1_0 0.5 0\n2_0 0.2_5 -0.0\n",
    "arabic_indic_digits": "# Hz S RI R 50\n١ ٠.٥ ٠\n٢ -٠.٠ ١e-١\n",
    "fullwidth_digits": "# Hz S MA R 50\n１ ０.５ ９０\n２ ０.２５ -４５\n",
    "one_token_declined": "# Hz S DB R 50\n1 -3 10\n2 -6 2_0\n3 -9 30\n",
}

# Overflow and underflow in the frequency scale and the dB level, and angles far from zero.
EDGE_CASES = {
    "frequency_overflows": "# GHz S RI R 50\n1e300 0 0\n",
    "frequencies_overflow_together": "# GHz S RI R 50\n1e300 0 0\n2e300 0 0\n",
    "db_level_overflows": "# Hz S DB R 50\n1 1e5 0\n",
    "db_level_underflows": "# Hz S DB R 50\n1 -1e5 0\n",
    "db_levels_near_the_limit": "# Hz S DB R 50\n1 6100 0\n2 6165 45\n",
    "db_level_overflows_later": "# Hz S DB R 50\n1 6100 0\n2 -3 0\n3 6200 0\n",
    "db_levels_overflow_in_a_2port": "# Hz S DB R 50\n1 0 0 0 0 0 0 0 0\n2 0 0 6100 0 1e4 0 7e3 0\n",
    "tiny_frequency": "# Hz S RI R 50\n5e-324 0 0\n",
    "huge_angle": "# Hz S MA R 50\n1 0.5 1e300\n2 0.5 -1e22\n",
}

# Generated documents: mostly valid, some in spellings that numpy declines, some faulty.
DIGITS = {"arabic_indic": "٠١٢٣٤٥٦٧٨٩", "fullwidth": "０１２３４５６７８９"}
BAD_TOKENS = ["abc", "nan", "inf", "-inf", "1e999", "0x10", "1,5", "--1", "1e", "[1]", "#"]
level = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 90.0, -180.0]),
                  st.floats(-60.0, 60.0))


def spell(draw, value: float) -> str:
    """``repr(value)``, now and then in a spelling that numpy declines and ``float`` reads."""
    text = repr(value)
    style = draw(st.sampled_from(["repr"] * 12 + ["underscore", *DIGITS]))
    if style == "underscore":
        return re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)
    if style in DIGITS:
        return text.translate(str.maketrans("0123456789", DIGITS[style]))
    return text


@st.composite
def documents(draw):
    """(text, ports, first frequency in Hz): a document, valid or now and then faulty."""
    ports = draw(st.sampled_from([1, 2]))
    unit = draw(st.sampled_from(sorted(UNIT_SCALE)))
    encoding = draw(st.sampled_from(ENCODINGS))
    n = draw(st.integers(1, 5))
    freqs = sorted(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True)))
    sep = lambda: draw(st.sampled_from([" ", " ", "  ", "\t", "\xa0"]))  # noqa: E731
    rows = [[spell(draw, float(f))] + [spell(draw, draw(level)) for _ in range(2 * ports**2)]
            for f in freqs]
    lines = [f"# {unit} S {encoding} R 50"]
    if draw(st.booleans()):
        lines.insert(0, "! " + draw(st.sampled_from(["", "header", "# not an option line"])))
    fault = draw(st.sampled_from([None] * 8 + ["token", "drop", "repeat", "zero", "option",
                                               "v2", "empty", "early_row"]))
    if fault == "token":
        row = rows[draw(st.integers(0, n - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    elif fault == "drop":
        rows[draw(st.integers(0, n - 1))].pop()
    elif fault == "repeat":
        rows.insert(draw(st.integers(1, n)), list(rows[draw(st.integers(0, n - 1))]))
    elif fault == "zero":
        rows[0][0] = draw(st.sampled_from(["0", "-1", "-0.0"]))
    for tokens in rows:
        line = sep().join(tokens)
        if draw(st.integers(0, 4)) == 0:
            line += " ! note"
        lines.append(line)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "! comment"])))
    if fault == "option":
        lines.insert(draw(st.integers(1, len(lines))), "# GHz S RI R 50")
    elif fault == "v2":
        lines.insert(draw(st.integers(0, len(lines))), "[Version] 2.0")
    elif fault == "empty":
        lines = lines[:1]
    elif fault == "early_row":
        lines.insert(0, "1 0 0")
    end = draw(st.sampled_from(["\n", "\r\n", "\x0c"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), ports, freqs[0] * UNIT_SCALE[unit]


# The file reader against the text reader
#
# ``_parse_file`` reads a file's table without its text.  On every file it must
# give the network that ``parse_touchstone`` makes of the text, bit for bit, or
# decline; and the CLI, which reads the text on a decline, must end as it did
# when it always read the text: the same network, or the same error text.

# What str.splitlines breaks a line on and a file's lines, and numpy, run through.
SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

FILE_CASES = {
    **{f"merge_at_{ord(c):04x}": f"# GHz S RI R 50\n1 0.1 0.2 0.3 0.4{c}0.5 0.6 0.7 0.8\n"
       for c in SPLITLINES_ONLY},
    **{f"break_at_{ord(c):04x}": f"# Hz S RI R 50\n1 0.5 0{c}2 0.25 -0.5{c}"
       for c in SPLITLINES_ONLY},
    "lone_cr": "# Hz S MA R 50\r1 0.5 45\r2 0.25 -30\r",
    "cr_lf_and_crlf": "# Hz S MA R 50\r\n1 0.5 45\r2 0.25 -30\n3 0.125 0\r\n! end\r",
    "bom": "\ufeff# Hz S RI R 50\n1 0.5 0\n",
    "not_utf8_after_the_option_line": b"# Hz S RI R 50\n1 0.5 0\n2 \xff 0\n",
    "not_utf8_in_a_comment": b"# Hz S RI R 50\n1 0.5 0 ! \xe9\n",
    "latin1_no_break_space": b"# Hz S RI R 50\n1 0.5 0\n2 0.25 0\xa0\n",
}


def scan_passes(doc) -> bool:
    """Whether the file of ``doc`` is ASCII with no line break that only str.splitlines sees."""
    data = doc if isinstance(doc, bytes) else doc.encode()
    return data.isascii() and not any(c.encode() in data for c in SPLITLINES_ONLY)


def cli_outcome(path: Path, **kw):
    """What the CLI's reader makes of the file: the network's bits, or the error text."""
    try:
        net = cli._parse_input(str(path), parse_touchstone, **kw)
    except cli.InputError as exc:
        return str(exc)
    return bits(net)


def assert_same_from_file(doc):
    """Write ``doc`` (text as UTF-8, or bytes) with its line breaks as they are, and compare.

    Returns whether the file reader took the file rather than declining it.
    """
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # neither reader lets a warning out
        path = Path(tmp) / "doc.s2p"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc, encoding="utf-8", newline="")
        return assert_same_or_declined(
            lambda _: _parse_file(path),
            lambda doc: parse_touchstone(doc if isinstance(doc, str) else doc.decode()), doc,
            cli=lambda _, fast: cli_outcome(path, from_path=_parse_file if fast else None))


class TestReaderPaths:
    @pytest.mark.parametrize("name", sorted(ARRAY_CASES))
    def test_array_path_matches_reference(self, name):
        assert _read_table(iter(ARRAY_CASES[name].splitlines())) is not None
        assert_same(ARRAY_CASES[name])

    @pytest.mark.parametrize("name", sorted(ARRAY_CASES))
    def test_file_path_matches_text_path(self, name):
        # Every array-path document that passes the scan is read from its file.
        doc = ARRAY_CASES[name]
        assert assert_same_from_file(doc) == scan_passes(doc)

    @pytest.mark.parametrize("name", sorted(DECLINED_CASES))
    def test_declined_text_matches_reference(self, name):
        assert _read_table(iter(DECLINED_CASES[name].splitlines())) is None
        parse_touchstone(DECLINED_CASES[name])
        assert_same(DECLINED_CASES[name])

    @pytest.mark.parametrize("name", sorted(DECLINED_CASES))
    def test_declined_file_is_read_as_text(self, name):
        assert not assert_same_from_file(DECLINED_CASES[name])

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_file_matches_text(self, name):
        assert_same_from_file(EDGE_CASES[name])

    @pytest.mark.parametrize(
        "doc", [doc for doc, _, _ in cases.MALFORMED_TOUCHSTONE],
        ids=[f"case{i:02d}" for i in range(len(cases.MALFORMED_TOUCHSTONE))],
    )
    def test_malformed_file_matches_text(self, doc):
        assert not assert_same_from_file(doc)

    @pytest.mark.parametrize("name", sorted(FILE_CASES))
    def test_file_case_matches_text(self, name):
        doc = FILE_CASES[name]
        assert assert_same_from_file(doc) == scan_passes(doc)

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_character_in_a_file(self, code):
        # Within a row and between rows: NUL, the other controls, DEL and the printable.
        c = chr(code)
        for doc in (f"# Hz S RI R 50\n1 0.5{c}0\n2 0.25 0\n",
                    f"# Hz S RI R 50\n1 0.5 0{c}2 0.25 0\n",
                    f"# Hz S RI R 50\n1 0.1 0.2 0.3 0.4{c}0.5 0.6 0.7 0.8\n"):
            assert_same_from_file(doc)

    def test_form_feed_merge_is_not_read_as_one_row(self, tmp_path):
        # numpy runs through the form feed and would read one 9-column row;
        # the line grammar sees two rows, of 5 and 4 columns.
        doc = FILE_CASES["merge_at_000c"]
        path = tmp_path / "merged.s2p"
        path.write_text(doc, encoding="utf-8", newline="")
        assert _parse_file(path) is None
        message = "line 2: expected 3 columns (1-port) or 9 columns (2-port), got 5"
        with pytest.raises(TouchstoneParseError, match=f"^{re.escape(message)}$"):
            parse_touchstone(doc)
        assert cli_outcome(path, from_path=_parse_file) == f"{path}: {message}"

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_matches_reference(self, name):
        assert_same(EDGE_CASES[name])

    @pytest.mark.parametrize(
        "doc", [doc for doc, _, _ in cases.MALFORMED_TOUCHSTONE],
        ids=[f"case{i:02d}" for i in range(len(cases.MALFORMED_TOUCHSTONE))],
    )
    def test_malformed_document_matches_reference(self, doc):
        with pytest.raises(TouchstoneParseError):
            parse_touchstone(doc)
        assert_same(doc)

    def test_table_is_read_before_it_is_converted(self):
        # The reference converted each line as it read it, so a dB level that
        # overflows on line 2 hid the bad token on line 3.
        doc = "# Hz S DB R 50\n1 1e5 0\n2 abc 0\n"
        with pytest.raises(TouchstoneParseError, match="^line 2: dB level 100000.0 overflows"):
            reference_parse(doc)
        with pytest.raises(TouchstoneParseError, match="^line 3: non-numeric token 'abc'$"):
            parse_touchstone(doc)

    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_generated_documents_match_reference(self, document):
        assert_same(document[0])

    @settings(max_examples=100, deadline=None)
    @given(documents())
    def test_generated_files_match_text(self, document):
        assert_same_from_file(document[0])

    def test_declined_file_text_is_read_once(self, tmp_path, monkeypatch):
        reads = []
        read_text = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or read_text(path))
        path = tmp_path / "declined.s1p"
        path.write_text(DECLINED_CASES["underscore_digits"], encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_command(["--out-dir", str(tmp_path / "out"), "--fixture", "reflection",
                                "analyze", str(path)])
        assert (code, reads) == (0, [str(path)])


@settings(max_examples=40, deadline=None)
@given(documents())
def test_analyze_and_match_exit_contract(document):
    text, ports, f_first = document
    fixture = ["--fixture", "reflection"] if ports == 1 else []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sweep.s2p")
        Path(path).write_text(text, encoding="utf-8", newline="")
        for command in (["analyze", path], ["match", path, "--f-design", repr(f_first)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the library's warnings about the data
                code = run_command(["--out-dir", str(Path(tmp) / "out"), *fixture, *command])
            assert code in (0, 1, 2)
            if code == 2:
                assert re.match(rf"error: {re.escape(path)}: line \d+: ", err.getvalue())
