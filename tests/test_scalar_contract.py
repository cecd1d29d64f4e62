"""One rule for a scalar argument: nan and inf are rejected with a ValueError that names it.

A scalar that must be positive also rejects 0 and -1, one that must be
non-negative rejects -1, and one that need only be finite rejects nan and inf.
"""
import math
import re

import numpy as np
import pytest

import cases
from slcap import (
    L_SECTION,
    SERIES_RESISTOR,
    ArrayLayout,
    ElementModel,
    ImpedanceProfile,
    MatchingNetwork,
    NetworkData,
    RadiationPattern,
    SeriesRlcModel,
    TouchstoneFormat,
    check_dbm_mapping,
    compare_datasets,
    dbm_to_rssi,
    design_l_section,
    design_series_resistive_match,
    dissipation_factor_profile,
    find_lobes,
    gain,
    grid_shape,
    low_impedance_bandwidth,
    metrics_report,
    parse_at_csq_log,
    polar_cut,
    synthesize_series_rlc,
    vswr_profile,
)

F = np.linspace(1e9, 3e9, 5)
PROFILE = ImpedanceProfile(frequencies_hz=F, z=np.array([5, 2, 1, 2, 5]) + 1j * np.arange(-2, 3))
NOVEL = parse_at_csq_log(cases.NOVEL_LOG)
BASELINE = parse_at_csq_log(cases.BASELINE_LOG)
_THETA = np.linspace(0.0, math.pi, 7)
PATTERN = RadiationPattern(
    theta_rad=_THETA,
    phi_rad=np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False),
    u=np.outer(1.0 + np.cos(2.0 * _THETA) ** 2, np.ones(4)),
    frequency_hz=1e9,
)

POSITIVE, NON_NEGATIVE, FINITE = "positive", "non-negative", "finite"

# name -> (the call, given the value under test; the text its message must hold; the rule)
ENTRY_POINTS = {
    "TouchstoneFormat.z0_ohm": (lambda v: TouchstoneFormat(z0_ohm=v), "z0_ohm", POSITIVE),
    "NetworkData.z0_ohm": (
        lambda v: NetworkData(frequencies_hz=[1e9], s=[[[0.1]]], z0_ohm=v), "z0_ohm", POSITIVE,
    ),
    "SeriesRlcModel.r_ohm": (lambda v: SeriesRlcModel(v, 1e-9, 1e-12), "r_ohm", NON_NEGATIVE),
    "SeriesRlcModel.l_h": (lambda v: SeriesRlcModel(1.0, v, 1e-12), "l_h", NON_NEGATIVE),
    "SeriesRlcModel.c_f": (lambda v: SeriesRlcModel(1.0, 1e-9, v), "c_f", POSITIVE),
    "synthesize_series_rlc.z0": (
        lambda v: synthesize_series_rlc(cases.RLC, F, z0=v), "z0", POSITIVE,
    ),
    "MatchingNetwork.f_design_hz": (
        lambda v: MatchingNetwork(topology=SERIES_RESISTOR, f_design_hz=v),
        "f_design_hz", POSITIVE,
    ),
    "MatchingNetwork.series_r_ohm": (
        lambda v: MatchingNetwork(topology=SERIES_RESISTOR, f_design_hz=1e9, series_r_ohm=v),
        "series_r_ohm", NON_NEGATIVE,
    ),
    # nan never compares unequal, so the element check reads "not within tol".
    "MatchingNetwork.series_x_ohm": (
        lambda v: MatchingNetwork(topology=L_SECTION, f_design_hz=1e9, series_x_ohm=v),
        "series element value", FINITE,
    ),
    "design_series_resistive_match.z0": (
        lambda v: design_series_resistive_match(PROFILE, 2e9, z0=v), "z0", POSITIVE,
    ),
    "design_l_section.z0": (lambda v: design_l_section(10 + 5j, 1e9, z0=v), "z0", POSITIVE),
    "design_l_section.f_design_hz": (
        lambda v: design_l_section(10 + 5j, v), "f_design_hz", POSITIVE,
    ),
    "design_l_section.re_z_load": (
        lambda v: design_l_section(complex(v, 5.0), 1e9), "Re(z_load)", POSITIVE,
    ),
    "design_l_section.im_z_load": (
        lambda v: design_l_section(complex(10.0, v), 1e9), "Im(z_load)", FINITE,
    ),
    "vswr_profile.z0": (lambda v: vswr_profile(PROFILE, z0=v), "z0", POSITIVE),
    "dissipation_factor_profile.reactance_epsilon": (
        lambda v: dissipation_factor_profile(PROFILE, reactance_epsilon=v),
        "reactance_epsilon", POSITIVE,
    ),
    "low_impedance_bandwidth.threshold_ohm": (
        lambda v: low_impedance_bandwidth(PROFILE, v), "threshold_ohm", POSITIVE,
    ),
    "metrics_report.df_threshold": (
        lambda v: metrics_report(PROFILE, df_threshold=v), "df_threshold", POSITIVE,
    ),
    "ElementModel.footprint_mm[0]": (
        lambda v: ElementModel(footprint_mm=(v, 1.0, 1.0)), "footprint_mm[0]", POSITIVE,
    ),
    "ElementModel.footprint_mm[2]": (
        lambda v: ElementModel(footprint_mm=(1.0, 1.0, v)), "footprint_mm[2]", POSITIVE,
    ),
    "ArrayLayout.frequency_hz": (
        lambda v: ArrayLayout(positions_m=[[0.0, 0.0, 0.0]], weights=[1.0], frequency_hz=v),
        "frequency_hz", POSITIVE,
    ),
    "grid_shape.theta_step_deg": (lambda v: grid_shape(v, 10.0), "theta_step_deg", POSITIVE),
    "grid_shape.phi_step_deg": (lambda v: grid_shape(10.0, v), "phi_step_deg", POSITIVE),
    "compare_datasets.novel_area_mm2": (
        lambda v: compare_datasets(NOVEL, BASELINE, novel_area_mm2=v, baseline_area_mm2=1.0),
        "novel_area_mm2", POSITIVE,
    ),
    "compare_datasets.baseline_area_mm2": (
        lambda v: compare_datasets(NOVEL, BASELINE, novel_area_mm2=1.0, baseline_area_mm2=v),
        "baseline_area_mm2", POSITIVE,
    ),
    "check_dbm_mapping.claimed": (lambda v: check_dbm_mapping([(11, v)]), "claimed", FINITE),
    "find_lobes.main_threshold_db": (
        lambda v: find_lobes(PATTERN, main_threshold_db=v), "main_threshold_db", FINITE,
    ),
    "find_lobes.phi_cut_rad": (lambda v: find_lobes(PATTERN, v), "phi_cut_rad", FINITE),
    "polar_cut.phi_cut_rad": (lambda v: polar_cut(PATTERN, v), "phi_cut_rad", FINITE),
    "gain.directivity_value": (lambda v: gain(v, 0.5), "directivity_value", FINITE),
    "dbm_to_rssi.dbm": (lambda v: dbm_to_rssi(v), "dBm", FINITE),
}

BAD_VALUES = {
    POSITIVE: (math.nan, math.inf, 0.0, -1.0),
    NON_NEGATIVE: (math.nan, math.inf, -1.0),
    FINITE: (math.nan, math.inf, -math.inf),
}

CASES = [
    pytest.param(name, value, id=f"{name}={value:g}")
    for name, (_, _, rule) in ENTRY_POINTS.items()
    for value in BAD_VALUES[rule]
]


@pytest.mark.parametrize("name, value", CASES)
def test_bad_scalar_raises_value_error_naming_it(name, value):
    call, named, rule = ENTRY_POINTS[name]
    text = named if rule == FINITE else f"{named} must be {rule} and finite"
    with pytest.raises(ValueError, match=re.escape(text)):
        call(value)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_good_scalar_is_accepted(name):
    """Each call above is well formed apart from the value under test."""
    call, _, rule = ENTRY_POINTS[name]
    good = {"dbm_to_rssi.dbm": -91.0, "gain.directivity_value": 1.5,
            "design_l_section.f_design_hz": 1e9, "metrics_report.df_threshold": 0.02,
            "dissipation_factor_profile.reactance_epsilon": 1e-9,
            "MatchingNetwork.series_x_ohm": 0.0}.get(name, 1.0)
    if rule == NON_NEGATIVE:
        call(0.0)
    call(good)
