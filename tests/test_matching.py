import dataclasses
import math

import numpy as np
import pytest

import cases
import oracles
from slcap import (
    L_SECTION,
    SERIES_RESISTOR,
    VSWR_CAP,
    ImpedanceProfile,
    MatchingNetwork,
    apply_match,
    design_l_section,
    design_series_resistive_match,
    power_split_report,
    vswr_profile,
)


def flat_profile(z: complex, n: int = 5, f_lo: float = 1e9, f_hi: float = 3e9):
    f = np.linspace(f_lo, f_hi, n)
    return ImpedanceProfile(frequencies_hz=f, z=np.full(n, complex(z)))


class TestVswr:
    def test_matched_load_is_unity(self):
        v = vswr_profile(flat_profile(50.0))
        np.testing.assert_array_equal(v.vswr, 1.0)
        np.testing.assert_array_equal(v.gamma, 0.0)

    def test_one_ohm_load_reads_fifty(self):
        v = vswr_profile(flat_profile(1.0))
        assert v.vswr[0] == pytest.approx(50.0, abs=1e-9)

    def test_low_reactance_residual(self):
        # 1 + j2 antenna with 49 ohm in series: nearly matched.
        v = vswr_profile(flat_profile(1.0 + 2.0j + 49.0))
        assert v.vswr[0] == pytest.approx(1.0408, abs=5e-4)
        assert v.vswr[0] == pytest.approx(
            oracles.vswr_from_z(50.0 + 2.0j, 50.0), rel=1e-12
        )

    def test_short_circuit_is_capped_and_flagged(self):
        v = vswr_profile(flat_profile(0.0))
        assert v.unbounded.all()
        np.testing.assert_array_equal(v.vswr, VSWR_CAP)

    def test_purely_reactive_load_is_capped(self):
        v = vswr_profile(flat_profile(10.0j))
        assert v.unbounded.all()
        np.testing.assert_array_equal(v.vswr, VSWR_CAP)

    def test_at_least_unity_everywhere(self, rng):
        for _ in range(100):
            z = complex(rng.uniform(0.01, 400.0), rng.uniform(-400.0, 400.0))
            v = vswr_profile(flat_profile(z))
            assert (v.vswr >= 1.0).all()

    def test_matches_hand_formula(self, rng):
        for _ in range(100):
            z = complex(rng.uniform(0.1, 300.0), rng.uniform(-300.0, 300.0))
            v = vswr_profile(flat_profile(z), z0=75.0)
            assert v.vswr[0] == pytest.approx(oracles.vswr_from_z(z, 75.0), rel=1e-12)

    def test_invalid_points_stay_nan(self):
        p = ImpedanceProfile(
            frequencies_hz=np.array([1e9, 2e9]),
            z=np.array([50.0 + 0j, np.nan + 0j]),
        )
        v = vswr_profile(p)
        assert np.isnan(v.vswr[1])
        assert not v.unbounded[1]

    def test_interpolated_lookup(self):
        v = vswr_profile(flat_profile(25.0))
        assert v.at(2e9) == pytest.approx(v.vswr[0])
        with pytest.raises(ValueError, match="sweep"):
            v.at(9e9)

    def test_bad_z0(self):
        with pytest.raises(ValueError):
            vswr_profile(flat_profile(50.0), z0=0.0)


class TestSeriesResistiveDesign:
    def test_one_ohm_antenna_gets_49(self, envelope_profile):
        f = envelope_profile.frequencies_hz
        f_mid = float(f[f.size // 2])
        net = design_series_resistive_match(envelope_profile, f_mid)
        assert net.topology == SERIES_RESISTOR
        assert net.series_r_ohm == pytest.approx(49.0, abs=1e-9)

    def test_resistor_sized_from_design_frequency_resistance(self, rlc_profile):
        f0 = cases.RLC_F0_HZ
        net = design_series_resistive_match(rlc_profile, f0)
        assert net.series_r_ohm == pytest.approx(49.0, abs=1e-6)

    def test_high_resistance_clips_to_zero_with_warning(self):
        with pytest.warns(UserWarning, match="clipped"):
            net = design_series_resistive_match(flat_profile(60.0), 2e9)
        assert net.series_r_ohm == 0.0

    def test_applied_match_shifts_resistance_only(self, envelope_profile):
        f = envelope_profile.frequencies_hz
        net = design_series_resistive_match(envelope_profile, float(f[f.size // 2]))
        matched = apply_match(envelope_profile, net)
        np.testing.assert_allclose(
            matched.resistance, envelope_profile.resistance + net.series_r_ohm
        )
        np.testing.assert_array_equal(matched.reactance, envelope_profile.reactance)

    def test_never_increases_reflection(self, rng):
        # Sized at the design point, the resistor can only pull |Gamma| down.
        z0 = 50.0
        for _ in range(2000):
            r = rng.uniform(1e-3, z0)
            x = rng.uniform(-200.0, 200.0)
            before = oracles.reflection_magnitude(complex(r, x), z0)
            after = oracles.reflection_magnitude(complex(z0, x), z0)
            assert after <= before + 1e-12

        p = flat_profile(complex(2.0, 30.0))
        net = design_series_resistive_match(p, 2e9)
        g_before = np.abs(vswr_profile(p).gamma)
        g_after = np.abs(vswr_profile(apply_match(p, net)).gamma)
        assert (g_after <= g_before + 1e-12).all()


class TestLSectionDesign:
    def test_canonical_one_ohm_design(self):
        low, high = design_l_section(1.0 + 0j, 1e9)
        assert low.variant == "low-pass" and high.variant == "high-pass"
        assert low.series_x_ohm == pytest.approx(7.0, rel=1e-12)
        assert low.shunt_x_ohm == pytest.approx(-50.0 / 7.0, rel=1e-12)
        assert high.series_x_ohm == pytest.approx(-7.0, rel=1e-12)
        assert high.shunt_x_ohm == pytest.approx(50.0 / 7.0, rel=1e-12)
        # Element realizations at 1 GHz.
        w = 2.0 * math.pi * 1e9
        assert low.series_l_h == pytest.approx(7.0 / w, rel=1e-12)
        assert low.shunt_c_f == pytest.approx(7.0 / (w * 50.0), rel=1e-12)
        assert high.series_c_f == pytest.approx(1.0 / (w * 7.0), rel=1e-12)
        assert high.shunt_l_h == pytest.approx(50.0 / (7.0 * w), rel=1e-12)

    def test_reactive_load_absorbed_into_series_arm(self):
        low, _ = design_l_section(1.0 + 2.0j, 1e9)
        assert low.series_x_ohm == pytest.approx(-2.0 + 7.0, rel=1e-12)

    @pytest.mark.parametrize("z_load", [1.0 + 0j, 1.0 + 2.0j, 20.0 - 15.0j])
    def test_low_resistance_designs_reembed_to_z0(self, z_load):
        self._assert_reembeds(z_load)

    @pytest.mark.parametrize("z_load", [120.0 + 0j, 200.0 + 80.0j, 75.0 - 40.0j])
    def test_high_resistance_designs_reembed_to_z0(self, z_load):
        self._assert_reembeds(z_load)

    @staticmethod
    def _assert_reembeds(z_load, f_design=1e9, z0=50.0):
        profile = ImpedanceProfile(
            frequencies_hz=np.array([f_design]), z=np.array([complex(z_load)])
        )
        for net in design_l_section(z_load, f_design, z0=z0):
            z_in = apply_match(profile, net).z[0]
            assert abs(z_in - z0) <= 1e-9 * z0

    def test_random_loads_reembed_to_z0(self, rng):
        for _ in range(300):
            r = float(np.exp(rng.uniform(np.log(0.1), np.log(400.0))))
            if abs(r - 50.0) < 1e-3:
                continue
            z = complex(r, rng.uniform(-200.0, 200.0))
            self._assert_reembeds(z)

    def test_shunt_arm_side_tracks_load_resistance(self):
        low_r, _ = design_l_section(5.0 + 0j, 1e9)
        high_r, _ = design_l_section(500.0 + 0j, 1e9)
        assert low_r.series_first is True
        assert high_r.series_first is False

    def test_degenerate_load_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            design_l_section(50.0 + 30.0j, 1e9)

    def test_nonpositive_resistance_rejected(self):
        with pytest.raises(ValueError):
            design_l_section(0.0 + 10.0j, 1e9)
        with pytest.raises(ValueError):
            design_l_section(-5.0 + 0j, 1e9)

    def test_matched_only_at_design_frequency(self):
        f = np.linspace(0.5e9, 1.5e9, 11)
        profile = ImpedanceProfile(frequencies_hz=f, z=np.full(11, 1.0 + 0j))
        low, _ = design_l_section(1.0 + 0j, 1e9)
        v = vswr_profile(apply_match(profile, low))
        at_design = v.at(1e9)
        assert at_design == pytest.approx(1.0, abs=1e-9)
        assert v.vswr[0] > 1.5  # narrowband away from the design point

    def test_element_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            MatchingNetwork(
                topology=L_SECTION,
                f_design_hz=1e9,
                series_x_ohm=7.0,
                series_l_h=1e-9,  # wrong realization for 7 ohm at 1 GHz
            )

    def test_series_only_network_has_no_shunt_combine(self):
        net = MatchingNetwork(
            topology=L_SECTION,
            f_design_hz=1e9,
            series_x_ohm=2.0 * math.pi * 1e9 * 1e-9,
            series_l_h=1e-9,
        )
        profile = flat_profile(10.0 - 5.0j, n=3, f_lo=0.5e9, f_hi=1.5e9)
        matched = apply_match(profile, net)
        np.testing.assert_allclose(matched.resistance, 10.0)
        assert matched.valid.all()

    def test_shunt_pole_becomes_a_nan_point(self):
        # A shunt inductor resonating with a purely capacitive load at f_design.
        x = 2.0 * math.pi * 1e9 * 1e-9
        net = MatchingNetwork(
            topology=L_SECTION,
            f_design_hz=1e9,
            shunt_x_ohm=x,
            shunt_l_h=1e-9,
            series_first=False,
        )
        profile = flat_profile(-1j * x, n=3, f_lo=0.5e9, f_hi=1.5e9)
        matched = apply_match(profile, net)
        np.testing.assert_array_equal(matched.valid, [True, False, True])
        assert np.isnan(matched.z.real[1]) and np.isnan(matched.z.imag[1])


class TestPowerSplit:
    def test_series_resistor_divider(self, envelope_profile):
        f = envelope_profile.frequencies_hz
        net = design_series_resistive_match(envelope_profile, float(f[f.size // 2]))
        split = power_split_report(
            envelope_profile, net, vswr_profile(apply_match(envelope_profile, net))
        )
        r_ant = envelope_profile.resistance
        np.testing.assert_allclose(
            split.antenna_fraction, r_ant / (net.series_r_ohm + r_ant), rtol=1e-12
        )
        np.testing.assert_allclose(
            split.antenna_fraction + split.resistor_fraction, 1.0, rtol=1e-12
        )

    def test_matched_resistive_point_numbers(self):
        # 1 ohm antenna + 49 ohm resistor: 2 % reaches the antenna, no mismatch.
        p = flat_profile(1.0)
        net = design_series_resistive_match(p, 2e9)
        split = power_split_report(p, net, vswr_profile(apply_match(p, net)))
        assert split.antenna_fraction[0] == pytest.approx(0.02, rel=1e-12)
        assert split.resistor_fraction[0] == pytest.approx(0.98, rel=1e-12)
        assert split.reflected_fraction[0] == pytest.approx(0.0, abs=1e-15)
        assert split.mismatch_loss_db[0] == pytest.approx(0.0, abs=1e-12)

    def test_lossless_l_section_delivers_everything(self):
        p = flat_profile(1.0, n=3, f_lo=0.9e9, f_hi=1.1e9)
        low, _ = design_l_section(1.0 + 0j, 1e9)
        split = power_split_report(p, low, vswr_profile(apply_match(p, low)))
        np.testing.assert_array_equal(split.antenna_fraction, 1.0)
        np.testing.assert_array_equal(split.resistor_fraction, 0.0)

    def test_mismatch_loss_positive_off_match(self):
        p = flat_profile(10.0)
        net = MatchingNetwork(topology=SERIES_RESISTOR, f_design_hz=2e9, series_r_ohm=0.0)
        split = power_split_report(p, net, vswr_profile(apply_match(p, net)))
        expected = -10.0 * math.log10(1.0 - oracles.reflection_magnitude(10.0, 50.0) ** 2)
        np.testing.assert_allclose(split.mismatch_loss_db, expected, rtol=1e-12)


def test_results_are_frozen():
    p = flat_profile(1.0)
    net = design_series_resistive_match(p, 2e9)
    matched = vswr_profile(apply_match(p, net))
    with pytest.raises(dataclasses.FrozenInstanceError):
        matched.vswr = np.zeros(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        power_split_report(p, net, matched).antenna_fraction = np.zeros(5)


def test_result_arrays_are_read_only():
    p = flat_profile(1.0)
    net = design_series_resistive_match(p, 2e9)
    matched = vswr_profile(apply_match(p, net))
    split = power_split_report(p, net, matched)
    for array in (matched.frequencies_hz, matched.gamma, matched.vswr, matched.unbounded,
                  split.antenna_fraction, split.mismatch_loss_db):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert matched == matched and matched != vswr_profile(apply_match(p, net))
    assert hash(matched) == hash(matched)
