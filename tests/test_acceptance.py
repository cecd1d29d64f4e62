"""End-to-end acceptance checks, one test per shipped guarantee.

Each criterion is a single test function, so `pytest -v` prints exactly one
pass/fail line per criterion.  Expected numbers come from the independent
reference computations in oracles.py and the synthetic fixtures in cases.py,
never from the code under test.
"""

import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

import cases
import oracles
from slcap import radiation
from slcap import (
    HERTZIAN_DIPOLE,
    ISOTROPIC,
    SPEED_OF_LIGHT,
    ArrayLayout,
    ElementModel,
    ImpedanceProfile,
    TouchstoneFormat,
    TouchstoneParseError,
    apply_match,
    check_dbm_mapping,
    compare_datasets,
    design_series_resistive_match,
    directivity,
    dissipation_factor_profile,
    evaluate_pattern,
    find_lobes,
    low_impedance_bandwidth,
    parse_at_csq_log,
    parse_touchstone,
    rssi_to_dbm,
    vswr_profile,
    welch_t_test,
    write_touchstone,
)
from slcap.cli import run_command


def _verdict(label: str) -> None:
    # Reached only after every assertion above it has held.
    print(f"PASS: {label}")


def _point_profile(z: complex, f_hz: float = 1e9) -> ImpedanceProfile:
    return ImpedanceProfile(
        frequencies_hz=np.array([f_hz]), z=np.array([z], dtype=complex)
    )


def _layout(positions_wl, kind: str = ISOTROPIC, f_hz: float = 1e9) -> ArrayLayout:
    pos = np.asarray(positions_wl, dtype=float) * (SPEED_OF_LIGHT / f_hz)
    return ArrayLayout(
        positions_m=pos,
        weights=np.ones(len(pos), dtype=complex),
        frequency_hz=f_hz,
        element=ElementModel(kind=kind, axis=(0.0, 0.0, 1.0)),
    )


def _report_value(path: Path, key: str) -> str:
    for line in path.read_text().splitlines():
        k, _, v = line.partition(" = ")
        if k == key:
            return v
    raise KeyError(key)


def test_criterion_01_one_ohm_load_reads_vswr_50():
    v = vswr_profile(_point_profile(1.0 + 0.0j))
    assert v.vswr[0] == pytest.approx(50.0, abs=1e-3)
    assert v.vswr[0] == pytest.approx(oracles.vswr_from_z(1.0 + 0.0j, 50.0), rel=1e-12)
    _verdict("criterion 1: unmatched 1 ohm load -> VSWR 50.000 +/- 0.001")


def test_criterion_02_series_resistor_match_reads_vswr_1_0408():
    profile = _point_profile(1.0 + 2.0j)
    net = design_series_resistive_match(profile, 1e9)
    assert net.series_r_ohm == pytest.approx(49.0, abs=1e-9)
    v = vswr_profile(apply_match(profile, net))
    assert v.vswr[0] == pytest.approx(1.0408, abs=5e-4)
    assert v.vswr[0] == pytest.approx(oracles.vswr_from_z(50.0 + 2.0j, 50.0), rel=1e-12)
    _verdict("criterion 2: 1+2j ohm with 49 ohm series -> VSWR 1.0408 +/- 0.0005")


def test_criterion_03_low_impedance_band_stays_below_vswr_2_when_matched():
    f, z = cases.envelope_impedance()
    # The fixture honours the published envelope: R in [0.5, 1.5], |X| <= 3,
    # swept over 0.1-20 GHz.
    assert f[0] == pytest.approx(1e8) and f[-1] == pytest.approx(2e10)
    assert z.real.min() >= 0.5 - 1e-9 and z.real.max() <= 1.5 + 1e-9
    assert np.abs(z.imag).max() <= 3.0
    profile = ImpedanceProfile(frequencies_hz=f, z=z)
    net = design_series_resistive_match(profile, 0.5 * (f[0] + f[-1]))
    v = vswr_profile(apply_match(profile, net))
    assert float(v.vswr.max()) < 2.0
    _verdict("criterion 3: envelope profile matched at mid-band -> VSWR < 2 band-wide")


def test_criterion_04_cli_synth_to_analyze_recovers_the_rlc_model(tmp_path):
    out = str(tmp_path)
    assert (
        run_command(
            [
                "--out-dir", out, "synth",
                "--r", "1", "--l", "2e-9", "--c", "1e-12",
                "--sweep", "1e8:2e10:1000", "--unit", "hz", "--encoding", "ri",
            ]
        )
        == 0
    )
    assert run_command(["--out-dir", out, "analyze", str(tmp_path / "synth.s2p")]) == 0

    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    f = np.array([float(r["freq_hz"]) for r in rows])
    esr = np.array([float(r["esr_ohm"]) for r in rows])
    df = np.array([float(r["df"]) for r in rows])
    assert f.size == 1000

    # ESR recovered within 0.1% at every reported point.
    assert np.abs(esr - 1.0).max() <= 1e-3

    # DF at every defined point matches r/|X(f)| for the analytic model.
    w = 2.0 * np.pi * f
    x_model = w * 2e-9 - 1.0 / (w * 1e-12)
    defined = ~np.isnan(df)
    assert defined.any()
    # Undefined points may only occur inside the reactance dead band.
    assert np.abs(x_model[~defined]).max(initial=0.0) < 1.1e-3
    np.testing.assert_allclose(df[defined], 1.0 / np.abs(x_model[defined]), rtol=1e-3)

    # Reported resonance lands within one grid step of 3.5588 GHz.
    res = float(_report_value(tmp_path / "analyze_report.txt", "resonant_frequency_hz"))
    assert abs(res - 3.5588e9) <= f[1] - f[0]
    _verdict("criterion 4: synth -> analyze round trip recovers ESR, DF, resonance")


def test_criterion_05_efficiency_identity_on_the_loss_envelope():
    f, z = cases.lossy_capacitive_impedance()
    m = dissipation_factor_profile(ImpedanceProfile(frequencies_hz=f, z=z))
    defined = ~np.isnan(m.df)
    assert defined.all()
    low_loss = m.df <= 0.03
    assert low_loss.any()
    assert m.efficiency[low_loss].min() >= 0.97
    np.testing.assert_array_equal(m.efficiency, 1.0 - m.df)  # exact, not approximate
    _verdict("criterion 5: every DF <= 3% point reports efficiency >= 97%")


def test_criterion_06_directivity_quadrature_matches_analytic_values():
    iso = directivity(evaluate_pattern(_layout([[0.0, 0.0, 0.0]])))
    assert abs(iso - 1.0) <= 1e-6
    dip = directivity(evaluate_pattern(_layout([[0.0, 0.0, 0.0]], kind=HERTZIAN_DIPOLE)))
    assert dip == pytest.approx(1.5, rel=5e-3)
    pair = directivity(
        evaluate_pattern(_layout([[0.0, 0.0, -0.25], [0.0, 0.0, 0.25]]))
    )
    assert pair == pytest.approx(2.0, rel=1e-2)
    _verdict("criterion 6: directivity 1.000 / 1.5 / 2.0 within stated tolerances")


def test_criterion_07_wavelength_spaced_pair_forms_four_main_lobes():
    pattern = evaluate_pattern(_layout([[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]]))
    lobes = find_lobes(pattern, main_threshold_db=10.0)
    main = [lb for lb in lobes if lb.is_main]
    assert len(main) == 4
    assert sorted(round(math.degrees(lb.angle_rad)) for lb in main) == [0, 90, 180, 270]
    _verdict("criterion 7: two elements at lambda spacing -> exactly 4 main lobes")


def test_criterion_08_rssi_conversion_is_exact_and_bad_claims_are_flagged():
    assert rssi_to_dbm(20) == -73.0
    assert rssi_to_dbm(23) == -67.0
    assert rssi_to_dbm(15) == -83.0
    assert rssi_to_dbm(10) == -93.0

    # No single affine map can put both 11 and 13 at -89 dBm.
    flags = check_dbm_mapping([(11, -89.0), (13, -89.0)])
    assert len(flags) == 2
    assert check_dbm_mapping([(15, -83.0), (20, -73.0)]) == []

    # The same flags surface in the comparison report output.
    novel = parse_at_csq_log(cases.NOVEL_LOG, environment="field", antenna="chip")
    baseline = parse_at_csq_log(
        cases.BASELINE_LOG, environment="field", antenna="reference"
    )
    text = compare_datasets(
        novel, baseline, claimed_dbm=[(11, -89.0), (13, -89.0)]
    ).to_text()
    assert "mapping_check.0 = rssi 11" in text
    assert "mapping_check.1 = rssi 13" in text
    _verdict("criterion 8: rssi->dBm conversion exact; inconsistent claims flagged")


def test_criterion_09_welch_statistics_and_headline_ratios():
    res = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert res.t == -1.0
    assert res.df == 8.0
    assert res.p_value == pytest.approx(0.3466, abs=1e-3)
    assert res.p_value == pytest.approx(oracles.two_sided_p(-1.0, 8.0), abs=1e-8)
    assert welch_t_test([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]).p_value == 1.0

    novel = parse_at_csq_log(cases.NOVEL_LOG, environment="field", antenna="chip")
    baseline = parse_at_csq_log(
        cases.BASELINE_LOG, environment="field", antenna="reference"
    )
    rep = compare_datasets(
        novel,
        baseline,
        novel_area_mm2=cases.NOVEL_AREA_MM2,
        baseline_area_mm2=cases.BASELINE_AREA_MM2,
    )
    assert rep.novel_mean_rssi == 11.0 and rep.baseline_mean_rssi == 15.0
    assert rep.percent_difference == pytest.approx(26.67, abs=0.01)
    assert rep.performance_ratio_rssi_pct == pytest.approx(73.3, abs=0.1)
    assert rep.footprint_ratio == pytest.approx(617.0, abs=1.0)
    _verdict("criterion 9: Welch t/df/p, percent difference, ratio, footprint")


def test_criterion_10_parser_round_trips_and_rejects_malformed_input():
    rng = np.random.default_rng(8151)
    for _ in range(1000):
        net = cases.random_passive_network(rng)
        for encoding in ("ri", "ma", "db"):
            for unit in ("hz", "khz", "mhz", "ghz"):
                fmt = TouchstoneFormat(unit=unit, encoding=encoding, z0_ohm=net.z0_ohm)
                back = parse_touchstone(write_touchstone(net, fmt))
                np.testing.assert_allclose(
                    back.frequencies_hz, net.frequencies_hz, rtol=1e-12
                )
                err = np.abs(back.s - net.s) / np.maximum(np.abs(net.s), 1e-12)
                assert err.max() <= 1e-12

    assert len(cases.MALFORMED_TOUCHSTONE) >= 20
    for doc, line, message_re in cases.MALFORMED_TOUCHSTONE:
        with pytest.raises(TouchstoneParseError) as exc_info:
            parse_touchstone(doc)
        msg = str(exc_info.value)
        assert msg.startswith(f"line {line}:")
        assert re.search(message_re, msg)
    _verdict("criterion 10: 1000-network round trip <= 1e-12; malformed inputs diagnosed")


def test_criterion_11_property_suites(monkeypatch):
    # Series-resistive matching never increases |Gamma| when R <= z0.
    rng = np.random.default_rng(4242)
    f = np.array([1e9])
    for _ in range(10_000):
        r = rng.uniform(1e-3, 50.0)
        x = rng.uniform(-200.0, 200.0)
        profile = ImpedanceProfile(frequencies_hz=f, z=np.array([complex(r, x)]))
        net = design_series_resistive_match(profile, 1e9)
        before = abs(vswr_profile(profile).gamma[0])
        after = abs(vswr_profile(apply_match(profile, net)).gamma[0])
        assert after <= before + 1e-12

    # Reported bandwidth is monotone in the |Z| threshold.
    sweep = cases.rlc_sweep()
    profile = ImpedanceProfile(frequencies_hz=sweep, z=cases.RLC.impedance(sweep))
    for _ in range(100):
        t1, t2 = np.sort(rng.uniform(0.9, 30.0, 2))
        narrow = low_impedance_bandwidth(profile, float(t1))
        wide = low_impedance_bandwidth(profile, float(t2))
        if narrow is not None:
            assert wide is not None
            assert wide[0] <= narrow[0] + 1e-9 and narrow[1] <= wide[1] + 1e-9

    # Welch's test is antisymmetric under swapping the samples.
    for _ in range(200):
        a = rng.normal(0.0, 1.0, int(rng.integers(2, 12))).tolist()
        b = rng.normal(0.5, 2.0, int(rng.integers(2, 12))).tolist()
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert fwd.t == -rev.t and fwd.df == rev.df and fwd.p_value == rev.p_value

    # Pattern evaluation is bit-identical at every chunk size.
    layout = _layout([[0.0, 0.0, -0.25], [0.0, 0.0, 0.25]], kind=HERTZIAN_DIPOLE)
    monkeypatch.setattr(radiation, "_CHUNK_ROWS", 181)
    reference = evaluate_pattern(layout)
    for chunk in (1, 7, 64, 1000):
        monkeypatch.setattr(radiation, "_CHUNK_ROWS", chunk)
        assert np.array_equal(evaluate_pattern(layout).u, reference.u)
    _verdict("criterion 11: matching, bandwidth, Welch, and chunking properties hold")
