import cmath
import math

import numpy as np
import pytest

import cases
from slcap import (
    NetworkData,
    TouchstoneFormat,
    TouchstoneParseError,
    parse_touchstone,
    validate_passivity,
    write_touchstone,
)


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
