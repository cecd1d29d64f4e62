import dataclasses

import numpy as np
import pytest

import cases
from slcap import (
    FIXTURE_MODES,
    REFLECTION,
    SERIES_THROUGH,
    SHUNT_THROUGH,
    ImpedanceProfile,
    NetworkData,
    SeriesRlcModel,
    SingularityError,
    impedance_at,
    impedance_from_s11,
    impedance_profile,
    reflection_coefficient,
    series_impedance_from_s21,
    shunt_impedance_from_s21,
    synthesize_series_rlc,
)


class TestScalarConversions:
    def test_series_through_known_values(self):
        # 2 z0 (1 - s) / s: a half-transmission series element is 100 ohm.
        assert series_impedance_from_s21(0.5) == pytest.approx(100.0)
        assert series_impedance_from_s21(1.0) == 0.0

    def test_shunt_through_known_values(self):
        # (z0 / 2) s / (1 - s)
        assert shunt_impedance_from_s21(0.5) == pytest.approx(25.0)
        assert shunt_impedance_from_s21(2.0 / 3.0) == pytest.approx(50.0)

    def test_reflection_known_values(self):
        assert impedance_from_s11(0.0) == pytest.approx(50.0)
        assert impedance_from_s11(1.0 / 3.0) == pytest.approx(100.0)
        assert impedance_from_s11(-1.0) == 0.0

    def test_reflection_coefficient_known_values(self):
        assert reflection_coefficient(50.0) == 0.0
        assert reflection_coefficient(0.0) == -1.0
        assert reflection_coefficient(100.0) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("z0", [1.0, 50.0, 75.0])
    def test_reflection_pair_is_inverse(self, rng, z0):
        for _ in range(200):
            z = complex(rng.uniform(0.01, 500.0), rng.uniform(-500.0, 500.0))
            back = impedance_from_s11(reflection_coefficient(z, z0=z0), z0=z0)
            assert back == pytest.approx(z, rel=1e-12)

    def test_series_pair_is_inverse(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(0.01, 500.0), rng.uniform(-500.0, 500.0))
            s21 = 2.0 * 50.0 / (z + 2.0 * 50.0)
            assert series_impedance_from_s21(s21) == pytest.approx(z, rel=1e-12)

    def test_shunt_pair_is_inverse(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(0.01, 500.0), rng.uniform(-500.0, 500.0))
            s21 = 2.0 * z / (2.0 * z + 50.0)
            assert shunt_impedance_from_s21(s21) == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize(
        ("func", "pole"),
        [
            (impedance_from_s11, 1.0),
            (series_impedance_from_s21, 0.0),
            (shunt_impedance_from_s21, 1.0),
            (reflection_coefficient, -50.0),
        ],
    )
    def test_poles_raise(self, func, pole):
        with pytest.raises(SingularityError):
            func(pole)


class TestSeriesRlcModel:
    def test_impedance_formula(self):
        z = cases.RLC.impedance(1e9)
        w = 2.0 * np.pi * 1e9
        assert z == pytest.approx(complex(1.0, w * 2e-9 - 1.0 / (w * 1e-12)), rel=1e-15)

    def test_resonant_frequency(self):
        assert cases.RLC.resonant_frequency_hz == pytest.approx(cases.RLC_F0_HZ, rel=1e-15)
        assert cases.RLC.resonant_frequency_hz == pytest.approx(3558812717.0, abs=0.2)

    def test_no_inductance_means_no_resonance(self):
        assert SeriesRlcModel(r_ohm=1.0, l_h=0.0, c_f=1e-12).resonant_frequency_hz is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_ohm": -1.0, "l_h": 1e-9, "c_f": 1e-12},
            {"r_ohm": 1.0, "l_h": -1e-9, "c_f": 1e-12},
            {"r_ohm": 1.0, "l_h": 1e-9, "c_f": 0.0},
            {"r_ohm": 1.0, "l_h": 1e-9, "c_f": -1e-12},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SeriesRlcModel(**kwargs)

    def test_embedding_at_resonance(self):
        # At f0 the element is purely resistive (1 ohm), so the series-through
        # fixture gives S21 = 100/101 and S11 = 1/101 exactly.
        f = np.array([cases.RLC.resonant_frequency_hz])
        net = synthesize_series_rlc(cases.RLC, f)
        z = cases.RLC.impedance(f[0])
        assert abs(z.imag) < 1e-6
        assert net.s[0, 1, 0] == pytest.approx(100.0 / 101.0, rel=1e-9)
        assert net.s[0, 0, 0] == pytest.approx(1.0 / 101.0, rel=1e-6)


class TestProfileExtraction:
    @pytest.mark.parametrize("mode", FIXTURE_MODES)
    def test_synthesis_extraction_identity(self, mode):
        f = cases.rlc_sweep(200)
        net = synthesize_series_rlc(cases.RLC, f, mode=mode)
        profile = impedance_profile(net, mode=mode)
        expected = np.array([cases.RLC.impedance(fk) for fk in f])
        assert profile.valid.all()
        np.testing.assert_allclose(profile.z, expected, rtol=1e-10)

    def test_mode_names(self):
        assert set(FIXTURE_MODES) == {REFLECTION, SERIES_THROUGH, SHUNT_THROUGH}

    def test_unknown_mode_rejected(self):
        net = synthesize_series_rlc(cases.RLC, cases.rlc_sweep(10))
        with pytest.raises(ValueError, match="mode"):
            impedance_profile(net, mode="mixed")

    def test_one_port_requires_reflection_mode(self):
        f = cases.rlc_sweep(10)
        net = synthesize_series_rlc(cases.RLC, f, mode=REFLECTION)
        assert net.n_ports == 1
        with pytest.raises(ValueError):
            impedance_profile(net, mode=SERIES_THROUGH)
        assert impedance_profile(net, mode=REFLECTION).valid.all()

    def test_singular_point_is_flagged_not_fatal(self):
        f = np.array([1e9, 2e9, 3e9])
        s = np.zeros((3, 2, 2), dtype=complex)
        s[:, 1, 0] = s[:, 0, 1] = [0.5, 0.0, 0.5]  # dead transmission mid-sweep
        net = NetworkData(frequencies_hz=f, s=s)
        profile = impedance_profile(net, mode=SERIES_THROUGH)
        np.testing.assert_array_equal(profile.valid, [True, False, True])
        assert np.isnan(profile.z[1].real)
        np.testing.assert_allclose(profile.z[[0, 2]], 100.0 + 0j, rtol=1e-12)

    def test_negative_resistance_warns(self):
        f = np.array([1e9])
        s = np.full((1, 1, 1), 1.5 + 0j)  # |S11| > 1: extracted R < 0
        net = NetworkData(frequencies_hz=f, s=s)
        with pytest.warns(UserWarning, match="negative resistance"):
            profile = impedance_profile(net, mode=REFLECTION)
        assert profile.z[0].real < 0

    def test_resistance_reactance_magnitude_views(self, rlc_profile):
        np.testing.assert_array_equal(rlc_profile.resistance, rlc_profile.z.real)
        np.testing.assert_array_equal(rlc_profile.reactance, rlc_profile.z.imag)
        np.testing.assert_allclose(rlc_profile.magnitude, np.abs(rlc_profile.z))

    def test_non_finite_z_is_stored_as_nan(self):
        z = np.array([1.0, complex(np.inf, 0.0), complex(1.0, np.nan), np.nan])
        profile = ImpedanceProfile(frequencies_hz=[1e9, 2e9, 3e9, 4e9], z=z)
        np.testing.assert_array_equal(profile.valid, np.isfinite(z))
        assert profile.z[0] == 1.0
        assert np.isnan(profile.z.real[1:]).all() and np.isnan(profile.z.imag[1:]).all()

    def test_arrays_are_read_only(self):
        z = np.array([1.0 + 0j, 2.0 + 0j])
        profile = ImpedanceProfile(frequencies_hz=[1e9, 2e9], z=z)
        with pytest.raises(ValueError, match="read-only"):
            profile.z[0] = 5
        with pytest.raises(ValueError, match="read-only"):
            profile.valid[1] = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.valid = np.array([True, False])
        assert profile == profile and hash(profile) == hash(profile)

    def test_valid_is_not_an_argument(self):
        with pytest.raises(TypeError):
            ImpedanceProfile(frequencies_hz=[1e9], z=[1.0], valid=[True])


class TestImpedanceAt:
    def test_interpolates_between_grid_points(self, rlc_profile):
        f = rlc_profile.frequencies_hz
        mid = 0.5 * (f[10] + f[11])
        z = impedance_at(rlc_profile, mid)
        expected = 0.5 * (rlc_profile.z[10] + rlc_profile.z[11])
        assert z == pytest.approx(expected, rel=1e-12)

    def test_exact_grid_point(self, rlc_profile):
        f = rlc_profile.frequencies_hz
        assert impedance_at(rlc_profile, f[42]) == pytest.approx(
            rlc_profile.z[42], rel=1e-12
        )

    def test_outside_sweep_rejected(self, rlc_profile):
        f = rlc_profile.frequencies_hz
        with pytest.raises(ValueError, match="sweep"):
            impedance_at(rlc_profile, f[0] * 0.5)
        with pytest.raises(ValueError, match="sweep"):
            impedance_at(rlc_profile, f[-1] * 2.0)

    def test_skips_invalid_points(self):
        f = np.array([1e9, 2e9, 3e9])
        z = np.array([10.0 + 0j, np.nan + 0j, 30.0 + 0j])
        from slcap import ImpedanceProfile

        profile = ImpedanceProfile(frequencies_hz=f, z=z)
        # Interpolation bridges the flagged gap using its valid neighbours.
        assert impedance_at(profile, 2e9) == pytest.approx(20.0 + 0j, rel=1e-12)
