import dataclasses
from datetime import datetime, timezone

import numpy as np
import pytest

import cases
import oracles
from slcap import (
    AtLogParseError,
    ComparisonError,
    RssiDataset,
    check_dbm_mapping,
    compare_datasets,
    dbm_levels,
    dbm_to_rssi,
    format_p_value,
    parse_at_csq_log,
    parse_rssi_csv,
    rssi_to_dbm,
    welch_t_test,
)
from slcap.rssi import _t_two_sided_p


class TestOracleSelfValidation:
    """The quadrature tail oracle must agree with closed forms before it is
    trusted to validate anything else."""

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5, 7.0, -1.5])
    def test_cauchy_tail(self, t):
        assert oracles.student_t_sf(t, 1.0) == pytest.approx(
            oracles.t_sf_df1(t), abs=1e-10
        )

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 3.0, 10.0, -2.0])
    def test_df2_tail(self, t):
        assert oracles.student_t_sf(t, 2.0) == pytest.approx(
            oracles.t_sf_df2(t), abs=1e-10
        )

    def test_symmetry_and_normalization(self):
        for df in (1.0, 4.0, 8.0, 30.0):
            assert oracles.student_t_sf(0.0, df) == pytest.approx(0.5, abs=1e-12)
            assert oracles.student_t_sf(1.7, df) + oracles.student_t_sf(
                -1.7, df
            ) == pytest.approx(1.0, abs=1e-10)


class TestLogParsing:
    def test_happy_path(self):
        ds = parse_at_csq_log(cases.NOVEL_LOG, environment="field", antenna="chip")
        assert ds.n_samples == 11
        assert ds.n_known == 10
        assert ds.environment == "field" and ds.antenna == "chip"
        np.testing.assert_array_equal(ds.known_rssi(), cases.NOVEL_RSSI)

    def test_z_suffix_timestamp(self):
        ds = parse_at_csq_log("2025-11-04T09:00:00Z +CSQ: 20,0\n")
        assert ds.timestamps[0] == datetime(
            2025, 11, 4, 9, 0, tzinfo=timezone.utc
        )

    def test_offset_timestamp(self):
        ds = parse_at_csq_log("2025-11-04T09:00:00+02:00 +CSQ: 20,0\n")
        assert ds.timestamps[0].utcoffset().total_seconds() == 7200

    def test_flexible_spacing(self):
        ds = parse_at_csq_log("2025-11-04T09:00:00Z   +CSQ:20 , 3\n")
        assert ds.rssi[0] == 20 and ds.ber[0] == 3

    def test_comments_and_blanks_skipped(self):
        text = "# poll start\n\n2025-11-04T09:00:00Z +CSQ: 5,0\n\n# done\n"
        assert parse_at_csq_log(text).n_samples == 1

    def test_unknown_reading_kept_but_not_known(self):
        ds = parse_at_csq_log("2025-11-04T09:00:00Z +CSQ: 99,99\n")
        assert ds.n_samples == 1 and ds.n_known == 0
        assert not ds.known[0]

    @pytest.mark.parametrize(
        ("text", "line", "pattern"),
        [
            ("garbage\n", 1, "not a \\+CSQ reading"),
            ("2025-11-04T09:00:00Z +CSQ: 20,0\njunk line\n", 2, "not a \\+CSQ reading"),
            ("not-a-date +CSQ: 20,0\n", 1, "ISO-8601"),
            ("2025-11-04T09:00:00Z +CSQ: 42,0\n", 1, "outside 0..31"),
            ("2025-11-04T09:00:00Z +CSQ: 20,9\n", 1, "outside 0..7"),
            ("2025-11-04T09:00:00Z +CSQ: -3,0\n", 1, "not a \\+CSQ reading"),
            ("# fine\n2025-11-04T09:00:00Z CSQ 20,0\n", 2, "not a \\+CSQ reading"),
        ],
    )
    def test_malformed_lines(self, text, line, pattern):
        with pytest.raises(AtLogParseError, match=pattern) as excinfo:
            parse_at_csq_log(text)
        assert excinfo.value.line_number == line

    def test_message_prefix(self):
        with pytest.raises(AtLogParseError) as excinfo:
            parse_at_csq_log("2025-11-04T09:00:00Z +CSQ: 20,0\nbad\n")
        assert str(excinfo.value).startswith("line 2:")


class TestCsvParsing:
    def test_happy_path(self):
        text = "timestamp,rssi,ber\n2025-11-04T09:00:00Z,20,0\n2025-11-04T09:01:00Z,99,99\n"
        ds = parse_rssi_csv(text)
        assert ds.n_samples == 2 and ds.n_known == 1
        assert ds.rssi[0] == 20

    @pytest.mark.parametrize(
        ("text", "line", "pattern"),
        [
            ("", 1, "empty document"),
            ("time,rssi,ber\n", 1, "expected header"),
            ("timestamp,rssi,ber\n2025-11-04T09:00:00Z,20\n", 2, "expected 3 fields"),
            ("timestamp,rssi,ber\n2025-11-04T09:00:00Z,x,0\n", 2, "must be integers"),
            ("timestamp,rssi,ber\nnope,20,0\n", 2, "ISO-8601"),
        ],
    )
    def test_malformed(self, text, line, pattern):
        with pytest.raises(AtLogParseError, match=pattern) as excinfo:
            parse_rssi_csv(text)
        assert excinfo.value.line_number == line


class TestDbmMapping:
    @pytest.mark.parametrize(
        ("code", "dbm"),
        [(0, -113.0), (10, -93.0), (15, -83.0), (20, -73.0), (23, -67.0), (31, -51.0)],
    )
    def test_known_levels(self, code, dbm):
        assert rssi_to_dbm(code) == dbm
        assert dbm_to_rssi(dbm) == code

    def test_round_trip_all_codes(self):
        for code in range(32):
            assert dbm_to_rssi(rssi_to_dbm(code)) == code

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            rssi_to_dbm(99)

    def test_levels_of_a_code_array(self):
        codes = np.array([*range(32), 99, 5])
        levels = dbm_levels(codes)
        assert levels[:32].tolist() == [rssi_to_dbm(code) for code in range(32)]
        assert np.isnan(levels[32]) and levels[33] == rssi_to_dbm(5)

    @pytest.mark.parametrize("code", [-1, 32, 55])
    def test_out_of_range_codes(self, code):
        with pytest.raises(ValueError):
            rssi_to_dbm(code)

    def test_off_grid_dbm(self):
        with pytest.raises(ValueError):
            dbm_to_rssi(-88.0)  # odd level, between codes
        with pytest.raises(ValueError):
            dbm_to_rssi(-49.0)  # beyond code 31

    def test_mapping_check_passes_consistent_pairs(self):
        assert check_dbm_mapping([(20, -73.0), (0, -113.0)]) == []

    def test_mapping_check_flags_inconsistent_pairs(self):
        flags = check_dbm_mapping([(11, -89.0), (13, -89.0), (15, -83.0)])
        assert len(flags) == 2
        assert "rssi 11" in flags[0] and "expected -91 dBm" in flags[0]
        assert "rssi 13" in flags[1] and "expected -87 dBm" in flags[1]


class TestWelch:
    def test_canonical_pair(self):
        res = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert res.t == pytest.approx(-1.0, rel=1e-12)
        assert res.df == pytest.approx(8.0, rel=1e-12)
        assert res.p_value == pytest.approx(0.3466, abs=1e-3)
        # The implementation's CDF must agree with the independent quadrature.
        assert res.p_value == pytest.approx(oracles.two_sided_p(-1.0, 8.0), abs=1e-8)

    def test_statistic_matches_hand_sums(self, rng):
        for _ in range(50):
            a = rng.normal(10.0, 3.0, size=int(rng.integers(2, 12)))
            b = rng.normal(12.0, 1.5, size=int(rng.integers(2, 12)))
            res = welch_t_test(a, b)
            t_ref, df_ref = oracles.welch_stats(list(a), list(b))
            assert res.t == pytest.approx(t_ref, rel=1e-10)
            assert res.df == pytest.approx(df_ref, rel=1e-10)
            assert res.p_value == pytest.approx(
                oracles.two_sided_p(t_ref, df_ref), abs=1e-8
            )

    @pytest.mark.parametrize("df", [1.0, 1.5, 2.0, 8.0, 30.0, 340.0, 1e3, 5.8e4, 1e6])
    @pytest.mark.parametrize("t", [0.0, 0.01, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
    def test_tail_matches_quadrature(self, t, df):
        # Covers the df of long field logs (tens of thousands), where
        # math.gamma overflows and 1 - x cancels.
        p = _t_two_sided_p(t, df)
        assert p == pytest.approx(oracles.two_sided_p(t, df), abs=1e-9)
        assert _t_two_sided_p(-t, df) == p

    def test_identical_samples(self):
        res = welch_t_test([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert res.t == 0.0
        assert res.p_value == 1.0

    def test_degenerate_equal_constants(self):
        res = welch_t_test([7, 7, 7], [7, 7, 7, 7])
        assert res.t == 0.0
        assert res.df == 5.0  # n_a + n_b - 2 by convention
        assert res.p_value == 1.0

    def test_degenerate_different_constants(self):
        with pytest.raises(ValueError, match="zero variance"):
            welch_t_test([7, 7, 7], [8, 8, 8])

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="two"):
            welch_t_test([1], [2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            welch_t_test([1.0, np.nan], [2.0, 3.0])

    def test_antisymmetric_in_argument_order(self, rng):
        for _ in range(50):
            a = rng.normal(0.0, 2.0, size=6)
            b = rng.normal(1.0, 1.0, size=9)
            fwd = welch_t_test(a, b)
            rev = welch_t_test(b, a)
            assert fwd.t == -rev.t
            assert fwd.df == rev.df
            assert fwd.p_value == rev.p_value

    def test_p_falls_as_separation_grows(self):
        a = [0.0, 1.0, 2.0, 3.0, 4.0]
        last = 1.1
        for shift in (0.5, 1.0, 2.0, 4.0):
            p = welch_t_test(a, [x + shift for x in a]).p_value
            assert p < last
            last = p


class TestFormatPValue:
    def test_small_values_floor(self):
        assert format_p_value(0.0005) == "< 0.001"
        assert format_p_value(1e-9) == "< 0.001"

    def test_regular_values(self):
        assert format_p_value(0.3466) == "0.3466"
        assert format_p_value(1.0) == "1.0000"

    def test_boundary(self):
        assert format_p_value(0.001) == "0.0010"


class TestComparison:
    @staticmethod
    def datasets():
        novel = parse_at_csq_log(cases.NOVEL_LOG, environment="field", antenna="chip")
        baseline = parse_at_csq_log(
            cases.BASELINE_LOG, environment="field", antenna="reference"
        )
        return novel, baseline

    def test_headline_numbers(self):
        novel, baseline = self.datasets()
        rep = compare_datasets(
            novel,
            baseline,
            novel_area_mm2=cases.NOVEL_AREA_MM2,
            baseline_area_mm2=cases.BASELINE_AREA_MM2,
        )
        assert rep.novel_mean_rssi == pytest.approx(11.0)
        assert rep.baseline_mean_rssi == pytest.approx(15.0)
        assert rep.percent_difference == pytest.approx(26.666666667, rel=1e-9)
        assert rep.performance_ratio_rssi_pct == pytest.approx(73.333333333, rel=1e-9)
        assert rep.novel_mean_dbm == pytest.approx(-91.0)
        assert rep.baseline_mean_dbm == pytest.approx(-83.0)
        assert rep.performance_ratio_dbm_pct == pytest.approx(-91.0 / -83.0 * 100.0)
        assert rep.footprint_ratio == pytest.approx(
            cases.BASELINE_AREA_MM2 / cases.NOVEL_AREA_MM2, rel=1e-12
        )
        assert rep.footprint_ratio == pytest.approx(617.28, abs=0.01)

    def test_welch_consistency_with_oracle(self):
        novel, baseline = self.datasets()
        rep = compare_datasets(novel, baseline)
        t_ref, df_ref = oracles.welch_stats(cases.NOVEL_RSSI, cases.BASELINE_RSSI)
        assert rep.welch.t == pytest.approx(t_ref, rel=1e-12)
        assert rep.welch.df == pytest.approx(df_ref, rel=1e-12)
        assert rep.welch.p_value == pytest.approx(
            oracles.two_sided_p(t_ref, df_ref), abs=1e-8
        )
        assert rep.welch.p_value < 1e-3

    def test_report_text_format(self):
        novel, baseline = self.datasets()
        rep = compare_datasets(
            novel,
            baseline,
            novel_area_mm2=cases.NOVEL_AREA_MM2,
            baseline_area_mm2=cases.BASELINE_AREA_MM2,
            claimed_dbm=[(11, -89.0), (13, -89.0)],
        )
        text = rep.to_text()
        assert "percent_difference = 26.6666667\n" in text
        assert "performance_ratio_rssi_pct = 73.3333333\n" in text
        assert "welch.p_value = < 0.001\n" in text
        assert "footprint_ratio = 617.283951\n" in text
        assert "mapping_check.0 = rssi 11" in text
        assert "mapping_check.1 = rssi 13" in text
        # Fixed ordering: every key appears exactly once, novel block first.
        keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
        assert len(keys) == len(set(keys))
        assert keys[0] == "novel.environment"

    def test_identical_datasets_p_unity(self):
        novel, _ = self.datasets()
        rep = compare_datasets(novel, novel)
        assert rep.welch.p_value == 1.0
        assert rep.percent_difference == 0.0
        assert rep.performance_ratio_rssi_pct == 100.0

    def test_insufficient_known_samples(self):
        tiny = parse_at_csq_log("2025-11-04T09:00:00Z +CSQ: 20,0\n")
        full = parse_at_csq_log(cases.BASELINE_LOG)
        with pytest.raises(ValueError, match="known readings"):
            compare_datasets(tiny, full)

    @pytest.mark.parametrize(("novel_codes", "baseline_codes", "datasets", "message"), [
        ([20], [5, 6], ("novel",), "1 known readings; each dataset needs at least two"),
        ([99], [20], ("novel",), "0 known readings; each dataset needs at least two"),
        ([5, 6], [20, 99], ("baseline",), "1 known readings; each dataset needs at least two"),
        ([5, 6], [0, 99, 0], ("baseline",), "baseline mean is zero; ratios are undefined"),
        ([10, 10], [12, 12], ("novel", "baseline"),
         "both samples have zero variance but different means"),
    ], ids=["novel_too_few", "both_too_few", "baseline_too_few", "zero_baseline_mean",
            "zero_variance"])
    def test_refusals_name_their_datasets(self, novel_codes, baseline_codes, datasets,
                                          message):
        def dataset(codes):
            return parse_at_csq_log("".join(f"2025-11-04T09:00:{s:02d}Z +CSQ: {c},0\n"
                                            for s, c in enumerate(codes)))

        with pytest.raises(ComparisonError) as excinfo:
            compare_datasets(dataset(novel_codes), dataset(baseline_codes))
        assert isinstance(excinfo.value, ValueError)
        assert (excinfo.value.datasets, str(excinfo.value)) == (datasets, message)

    def test_bad_areas(self):
        novel, baseline = self.datasets()
        with pytest.raises(ValueError, match="positive"):
            compare_datasets(novel, baseline, novel_area_mm2=-1.0, baseline_area_mm2=5.0)

    def test_area_only_on_one_side_is_ignored(self):
        novel, baseline = self.datasets()
        rep = compare_datasets(novel, baseline, novel_area_mm2=1.0)
        assert rep.footprint_ratio is None
        assert "footprint_ratio" not in rep.to_text()


class TestSampleValidation:
    STAMP = datetime(2025, 11, 4, tzinfo=timezone.utc)

    def test_valid_sample(self):
        ds = RssiDataset(timestamps=(self.STAMP,), rssi=np.array([20]), ber=np.array([0]))
        assert ds.known[0]

    @pytest.mark.parametrize(("rssi", "ber"), [(-1, 0), (32, 0), (20, 8), (20, -2)])
    def test_invalid_fields(self, rssi, ber):
        with pytest.raises(ValueError):
            RssiDataset(timestamps=(self.STAMP,), rssi=np.array([rssi]), ber=np.array([ber]))

    def test_dataset_known_view(self):
        ds = RssiDataset(
            timestamps=(self.STAMP,) * 3,
            rssi=np.array([10, 99, 12]),
            ber=np.array([0, 99, 1]),
        )
        np.testing.assert_array_equal(ds.known_rssi(), [10, 12])
        assert ds.n_known == 2

    def test_results_are_frozen(self):
        ds = parse_at_csq_log(cases.NOVEL_LOG)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.rssi = ds.ber
        rep = compare_datasets(ds, ds, claimed_dbm=[(11, -89.0)])
        assert isinstance(rep.mapping_flags, tuple) and len(rep.mapping_flags) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.mapping_flags = ()

    def test_columns_are_read_only(self):
        ds = parse_at_csq_log(cases.NOVEL_LOG)
        for column in (ds.rssi, ds.ber):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 5
        assert ds == ds and ds != parse_at_csq_log(cases.NOVEL_LOG)
        hash(ds)

    def test_repr_builds_no_timestamp_tuple(self):
        ds = parse_at_csq_log(cases.NOVEL_LOG)
        assert "RssiDataset" in repr(ds)
        assert "timestamps" not in vars(ds) and "iso_timestamps" not in vars(ds)
