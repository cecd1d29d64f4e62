"""
Matching a one-ohm antenna to a fifty-ohm system
================================================

A very low radiation resistance reflects almost everything: VSWR near 50.
A single series resistor sized at the design frequency buys an almost
perfect match across the whole band -- at the price of dissipating most
of the power.  An L-section is lossless but only matches at one spot.
This script walks through both trades.
"""

import numpy as np

from slcap import (
    ImpedanceProfile,
    apply_match,
    design_l_section,
    design_series_resistive_match,
    power_split_report,
    vswr_profile,
)

# ----------------------------------------------------------------------
# A band-wide low-impedance profile: resistance wobbling around 1 ohm,
# reactance a few ohms either way, swept 0.1-20 GHz.

f = np.linspace(1e8, 2e10, 401)
w = (f - f[0]) / (f[-1] - f[0])
z = (1.0 + 0.5 * np.sin(6.0 * np.pi * w)) + 1j * (2.5 * np.sin(3.0 * np.pi * w + 0.7))
antenna = ImpedanceProfile(frequencies_hz=f, z=z)

raw = vswr_profile(antenna)
print(f"unmatched VSWR: {raw.vswr.min():.1f} .. {raw.vswr.max():.1f}")

# ----------------------------------------------------------------------
# Series-resistor match, sized at mid-band.  The resistor absorbs the
# difference between the system impedance and the antenna resistance.

f_mid = 0.5 * (f[0] + f[-1])
series = design_series_resistive_match(antenna, f_mid)
print(f"series resistor: {series.series_r_ohm:.3f} ohm")

matched = vswr_profile(apply_match(antenna, series))
print(f"matched VSWR at design: {matched.at(f_mid):.4f}")
print(f"matched VSWR band-wide: {matched.vswr.min():.4f} .. {matched.vswr.max():.4f}")

# ----------------------------------------------------------------------
# The catch: the resistor forms a divider with the radiation resistance,
# so only a sliver of the accepted power actually reaches the antenna.

split = power_split_report(antenna, series, matched)
i_mid = int(np.argmin(np.abs(f - f_mid)))
print(f"power reaching the antenna at mid-band: {split.antenna_fraction[i_mid]:.1%}")
print(f"burned in the series resistor:          {split.resistor_fraction[i_mid]:.1%}")

# ----------------------------------------------------------------------
# The lossless alternative: an L-section designed for the same spot.
# Both low-pass and high-pass realizations come back; each stores the
# element reactances and their L/C realizations at the design frequency.

z_mid = complex(z[i_mid])
low_pass, high_pass = design_l_section(z_mid, f_mid)
print(f"low-pass:  series {low_pass.series_x_ohm:+.3f} ohm, "
      f"shunt {low_pass.shunt_x_ohm:+.3f} ohm")
print(f"high-pass: series {high_pass.series_x_ohm:+.3f} ohm, "
      f"shunt {high_pass.shunt_x_ohm:+.3f} ohm")

l_matched = vswr_profile(apply_match(antenna, low_pass))
print(f"L-section VSWR at design:  {l_matched.at(f_mid):.6f}")
print(f"L-section VSWR band-wide:  up to {l_matched.vswr.max():.1f} "
      "(narrowband, as expected)")

l_split = power_split_report(antenna, low_pass, l_matched)
print(f"power reaching the antenna through the L-section: "
      f"{l_split.antenna_fraction[i_mid]:.1%}")
