import dataclasses
import math

import numpy as np
import pytest

import cases
import oracles
from slcap import (
    ImpedanceProfile,
    dissipation_factor_profile,
    low_impedance_bandwidth,
    metrics_report,
    resonant_frequency,
)


def profile_of(z_values, f_hz=None) -> ImpedanceProfile:
    z = np.asarray(z_values, dtype=complex)
    if f_hz is None:
        f_hz = np.linspace(1e9, 2e9, z.size)
    return ImpedanceProfile(frequencies_hz=np.asarray(f_hz, float), z=z)


class TestDissipationFactor:
    def test_known_point(self):
        # 1 ohm ESR against 100 ohm of reactance: DF 1 %, efficiency 99 %, Q 100.
        m = dissipation_factor_profile(profile_of([1.0 - 100.0j, 1.0 - 100.0j]))
        assert m.df[0] == pytest.approx(0.01)
        assert m.efficiency[0] == pytest.approx(0.99)
        assert m.q[0] == pytest.approx(100.0)
        assert m.df_defined.all()

    def test_sign_of_reactance_is_irrelevant(self):
        inductive = dissipation_factor_profile(profile_of([2.0 + 40.0j] * 3))
        capacitive = dissipation_factor_profile(profile_of([2.0 - 40.0j] * 3))
        np.testing.assert_array_equal(inductive.df, capacitive.df)

    def test_undefined_below_reactance_epsilon(self):
        m = dissipation_factor_profile(profile_of([1.0 + 0.0005j, 1.0 - 100.0j]))
        assert not m.df_defined[0]
        assert np.isnan(m.df[0]) and np.isnan(m.q[0]) and np.isnan(m.efficiency[0])
        assert m.df_defined[1]

    def test_epsilon_boundary_is_inclusive(self):
        m = dissipation_factor_profile(profile_of([1.0 + 0.001j, 1.0 + 0.001j]))
        assert m.df_defined.all()

    def test_pure_resistor_entirely_undefined(self):
        m = dissipation_factor_profile(profile_of([5.0 + 0j] * 4))
        assert not m.df_defined.any()
        assert np.isnan(m.df).all()

    def test_df_q_reciprocal(self, rlc_profile):
        m = dissipation_factor_profile(rlc_profile)
        d = m.df_defined
        np.testing.assert_allclose(m.df[d] * m.q[d], 1.0, rtol=1e-12)

    def test_matches_r_over_x(self, rlc_profile):
        m = dissipation_factor_profile(rlc_profile)
        d = m.df_defined
        expected = rlc_profile.resistance[d] / np.abs(rlc_profile.reactance[d])
        np.testing.assert_allclose(m.df[d], expected, rtol=1e-12)

    def test_invalid_points_propagate(self):
        p = profile_of([1.0 - 50j, np.nan + 0j, 1.0 - 50j])
        m = dissipation_factor_profile(p)
        assert not m.df_defined[1]
        assert np.isnan(m.df[1])

    def test_bad_epsilon(self, rlc_profile):
        with pytest.raises(ValueError):
            dissipation_factor_profile(rlc_profile, reactance_epsilon=0.0)


class TestResonance:
    def test_crossing_matches_analytic_f0(self, rlc_profile):
        res = resonant_frequency(rlc_profile)
        assert res.reactance_zero_hz == pytest.approx(cases.RLC_F0_HZ, abs=1e5)

    def test_min_magnitude_lands_on_nearest_grid_point(self, rlc_profile):
        res = resonant_frequency(rlc_profile)
        f = rlc_profile.frequencies_hz
        step = f[1] - f[0]
        assert abs(res.min_magnitude_hz - cases.RLC_F0_HZ) <= 0.51 * step
        assert res.min_magnitude_hz in f

    def test_exact_interior_zero_counts_as_crossing(self):
        p = profile_of([1.0 - 1j, 1.0 + 0j, 1.0 + 1j])
        res = resonant_frequency(p)
        assert res.reactance_zero_hz == p.frequencies_hz[1]

    def test_pure_resistor_has_no_crossing(self):
        p = profile_of([1.0 + 0j] * 5)
        res = resonant_frequency(p)
        assert res.reactance_zero_hz is None

    def test_monotone_magnitude_has_no_interior_minimum(self):
        p = profile_of([1.0 + 1j, 1.0 + 2j, 1.0 + 3j])
        assert resonant_frequency(p).min_magnitude_hz is None

    def test_multiple_crossings_warn_and_keep_lowest(self, envelope_profile):
        with pytest.warns(UserWarning, match="zero crossings"):
            res = resonant_frequency(envelope_profile)
        x = envelope_profile.reactance
        first_flip = np.nonzero(x[:-1] * x[1:] < 0)[0][0]
        f = envelope_profile.frequencies_hz
        assert f[first_flip] <= res.reactance_zero_hz <= f[first_flip + 1]

    def test_interpolated_crossing_between_samples(self):
        # X goes -1 -> +3 between 1 and 2 GHz: zero at 1.25 GHz.
        p = profile_of([1.0 - 1j, 1.0 + 3j], f_hz=[1e9, 2e9])
        res = resonant_frequency(p)
        assert res.reactance_zero_hz == pytest.approx(1.25e9, rel=1e-12)


    @pytest.mark.parametrize(
        "x",
        [[-1.0, math.nan, 1.0], [math.nan, 0.0, 1.0], [-1.0, 0.0, math.nan]],
        ids=["sign_change_across_hole", "zero_after_hole", "zero_before_hole"],
    )
    def test_nan_neighbour_is_no_crossing(self, x):
        p = profile_of(1.0 + 1j * np.array(x))
        assert resonant_frequency(p).reactance_zero_hz is None

    @pytest.mark.parametrize(
        "x, expected",
        [([1.0, -1.0, 0.0, 1.0], 1.5e9), ([-1.0, 0.0, 1.0, -1.0], 2e9)],
        ids=["interpolated_first", "exact_zero_first"],
    )
    def test_lowest_of_interpolated_and_exact_crossings(self, x, expected):
        p = profile_of(1.0 + 1j * np.array(x), f_hz=[1e9, 2e9, 3e9, 4e9])
        with pytest.warns(UserWarning, match="2 reactance zero crossings"):
            assert resonant_frequency(p).reactance_zero_hz == expected

    def test_crossing_uses_the_scalar_interpolation_bits(self, rng):
        for _ in range(200):
            f = np.sort(rng.uniform(1e8, 1e10, size=2))
            x = np.array([-rng.uniform(1e-3, 1e3), rng.uniform(1e-3, 1e3)])
            frac = float(x[0]) / (float(x[0]) - float(x[1]))
            expected = float(f[0]) + frac * (float(f[1]) - float(f[0]))
            res = resonant_frequency(profile_of(1.0 + 1j * x, f_hz=f))
            assert res.reactance_zero_hz == expected


class TestBandwidth:
    def test_edges_match_analytic_roots(self, rlc_profile):
        lo_a, hi_a = oracles.rlc_band_edges(1.0, 2e-9, 1e-12, 2.0)
        bw = low_impedance_bandwidth(rlc_profile, 2.0)
        assert bw is not None
        assert bw[0] == pytest.approx(lo_a, abs=1e6)
        assert bw[1] == pytest.approx(hi_a, abs=1e6)

    def test_denser_grid_converges(self):
        from slcap import impedance_profile, synthesize_series_rlc

        lo_a, hi_a = oracles.rlc_band_edges(1.0, 2e-9, 1e-12, 2.0)
        errs = []
        for n in (500, 2000):
            net = synthesize_series_rlc(cases.RLC, cases.rlc_sweep(n))
            bw = low_impedance_bandwidth(impedance_profile(net), 2.0)
            errs.append(abs(bw[0] - lo_a) + abs(bw[1] - hi_a))
        assert errs[1] < errs[0]

    def test_threshold_below_minimum_returns_none(self, rlc_profile):
        assert low_impedance_bandwidth(rlc_profile, 0.5) is None

    def test_huge_threshold_clips_to_sweep(self, rlc_profile):
        f = rlc_profile.frequencies_hz
        assert low_impedance_bandwidth(rlc_profile, 1e4) == (f[0], f[-1])

    def test_monotone_in_threshold(self, rlc_profile, rng):
        for _ in range(50):
            t1, t2 = np.sort(rng.uniform(1.01, 100.0, size=2))
            b1 = low_impedance_bandwidth(rlc_profile, float(t1))
            b2 = low_impedance_bandwidth(rlc_profile, float(t2))
            assert b1 is not None and b2 is not None
            assert b2[0] <= b1[0] and b1[1] <= b2[1]

    def test_invalid_point_breaks_contiguity(self):
        mags = [1.0, 1.0, np.nan, 1.0, 5.0]
        p = profile_of(np.asarray(mags) + 0j)
        bw = low_impedance_bandwidth(p, 2.0)
        f = p.frequencies_hz
        # The anchor sits left of the hole, so the band stops at index 1.
        assert bw[0] == f[0]
        assert bw[1] == f[1]

    def test_bad_threshold(self, rlc_profile):
        with pytest.raises(ValueError):
            low_impedance_bandwidth(rlc_profile, 0.0)


def reference_bandwidth(profile, threshold_ohm):
    """``low_impedance_bandwidth`` as it was written before its array scan: two
    ``while`` walks out from the |Z| minimum, then a mirrored edge block per side.
    Its |Z| is ``profile.magnitude``, the one magnitude every module reads."""
    if threshold_ohm <= 0:
        raise ValueError("threshold must be positive")
    f = profile.frequencies_hz
    mag = np.where(profile.valid, profile.magnitude, np.inf)
    n = f.size
    anchor = int(np.argmin(mag))
    if not np.isfinite(mag[anchor]) or mag[anchor] > threshold_ohm:
        return None
    lo = anchor
    while lo > 0 and mag[lo - 1] <= threshold_ohm:
        lo -= 1
    hi = anchor
    while hi < n - 1 and mag[hi + 1] <= threshold_ohm:
        hi += 1
    if lo == 0:
        f_lo = float(f[0])
    elif not np.isfinite(mag[lo - 1]):
        f_lo = float(f[lo])
    else:
        frac = (mag[lo - 1] - threshold_ohm) / (mag[lo - 1] - mag[lo])
        f_lo = float(f[lo - 1] + frac * (f[lo] - f[lo - 1]))
    if hi == n - 1:
        f_hi = float(f[n - 1])
    elif not np.isfinite(mag[hi + 1]):
        f_hi = float(f[hi])
    else:
        frac = (mag[hi + 1] - threshold_ohm) / (mag[hi + 1] - mag[hi])
        f_hi = float(f[hi + 1] - frac * (f[hi + 1] - f[hi]))
    return (f_lo, f_hi)


class TestBandwidthReference:
    """The array scan against the ``while`` walks, compared with ``==``."""

    def random_profile(self, rng, n, holes, at_threshold):
        f = 1e8 + np.cumsum(rng.uniform(1e6, 1e8, n))
        z = rng.uniform(0.1, 6.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        z[rng.random(n) < at_threshold] = 3.0  # |Z| exactly at the 3 ohm threshold
        z[rng.random(n) < holes] = np.nan
        return profile_of(z, f_hz=f)

    def test_random_profiles_with_holes(self, rng):
        for _ in range(3000):
            profile = self.random_profile(
                rng, int(rng.integers(1, 40)), holes=rng.choice([0.0, 0.1, 0.4]),
                at_threshold=rng.choice([0.0, 0.2]),
            )
            for threshold in (3.0, float(rng.uniform(0.05, 8.0))):
                expected = reference_bandwidth(profile, threshold)
                assert low_impedance_bandwidth(profile, threshold) == expected

    @pytest.mark.parametrize("mags, expected_edges", [
        ([1.0, 1.0, 5.0, 5.0], ("start", "interp")),  # touches the low end
        ([5.0, 5.0, 1.0, 1.0], ("interp", "end")),  # touches the high end
        ([1.0, 1.0, 1.0, 1.0], ("start", "end")),  # the whole sweep
        # A sample exactly at the threshold is inside, and the edge lands on it.
        ([3.0, 1.0, 3.0, 9.0], ("start", "inside")),
        ([9.0, 3.0, 1.0, 3.0], ("inside", "end")),
        ([np.nan, 1.0, 2.0, np.nan], ("inside", "inside")),  # holes on both sides
        ([5.0, 1.0, np.nan, 1.0], ("interp", "inside")),
    ])
    def test_edges(self, mags, expected_edges):
        profile = profile_of(np.asarray(mags) + 0j, f_hz=[1e9, 2e9, 3e9, 4e9])
        got = low_impedance_bandwidth(profile, 3.0)
        assert got == reference_bandwidth(profile, 3.0)
        f = profile.frequencies_hz
        kinds = (
            "start" if got[0] == f[0] else "inside" if got[0] in f else "interp",
            "end" if got[1] == f[-1] else "inside" if got[1] in f else "interp",
        )
        assert kinds == expected_edges

    def test_no_band(self):
        profile = profile_of([5.0, np.nan, 4.0])
        assert low_impedance_bandwidth(profile, 3.0) is None
        assert reference_bandwidth(profile, 3.0) is None
        assert low_impedance_bandwidth(profile_of([np.nan, np.nan]), 3.0) is None


class TestMetricsReport:
    def test_rlc_summary(self, rlc_profile):
        rep = metrics_report(rlc_profile, df_threshold=0.02, z_threshold_ohm=2.0)
        assert rep.resonant_frequency_hz == pytest.approx(cases.RLC_F0_HZ, abs=1e5)
        lo_a, hi_a = oracles.rlc_band_edges(1.0, 2e-9, 1e-12, 2.0)
        assert rep.bandwidth_hz[0] == pytest.approx(lo_a, abs=1e6)
        assert rep.bandwidth_hz[1] == pytest.approx(hi_a, abs=1e6)
        assert rep.fraction_df_undefined < 0.01
        assert 0.0 < rep.fraction_df_below < 1.0

    def test_lossy_fixture_bathtub(self, lossy_profile):
        rep = metrics_report(lossy_profile)
        assert np.nanmax(rep.pointwise.df) == pytest.approx(1.0 / 17.0)
        assert np.nanmax(rep.pointwise.df) < 0.06
        assert rep.fraction_df_below > 0.5
        assert rep.fraction_df_undefined == 0.0
        # Purely capacitive profile: no resonance inside the sweep.
        assert rep.resonance.reactance_zero_hz is None

    def test_efficiency_complements_df(self, lossy_profile):
        rep = metrics_report(lossy_profile)
        d = rep.pointwise.df_defined
        np.testing.assert_array_equal(rep.pointwise.efficiency[d], 1.0 - rep.pointwise.df[d])
        low_loss = rep.pointwise.df[d] <= 0.03
        assert low_loss.any()
        assert (rep.pointwise.efficiency[d][low_loss] >= 0.97).all()

    def test_falls_back_to_min_magnitude_estimate(self):
        # No sign change: resonant_frequency_hz comes from the |Z| minimum.
        f = np.linspace(1e9, 2e9, 5)
        z = np.array([1 + 5j, 1 + 2j, 1 + 1j, 1 + 2j, 1 + 5j])
        rep = metrics_report(ImpedanceProfile(frequencies_hz=f, z=z))
        assert rep.resonance.reactance_zero_hz is None
        assert rep.resonant_frequency_hz == f[2]

    def test_pure_resistor_report(self):
        rep = metrics_report(profile_of([5.0 + 0j] * 4), z_threshold_ohm=10.0)
        assert rep.fraction_df_undefined == 1.0
        assert rep.fraction_df_below == 0.0
        assert rep.resonant_frequency_hz is None

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two"):
            metrics_report(profile_of([1.0 - 10j], f_hz=[1e9]))

    def test_bad_df_threshold(self, rlc_profile):
        with pytest.raises(ValueError):
            metrics_report(rlc_profile, df_threshold=-0.1)

    def test_report_and_pointwise_are_frozen(self, rlc_profile):
        rep = metrics_report(rlc_profile)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.bandwidth_hz = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.pointwise.df = np.zeros(rlc_profile.n_points)

    def test_pointwise_arrays_are_read_only(self, rlc_profile):
        pointwise = metrics_report(rlc_profile).pointwise
        for field in dataclasses.fields(pointwise):
            with pytest.raises(ValueError, match="read-only"):
                getattr(pointwise, field.name)[0] = 5
        hash(pointwise)
