"""Matching-network synthesis and standing-wave-ratio evaluation.

Two topologies: a plain series resistor that raises a low antenna resistance
to the system impedance (broadband, lossy by design), and a lossless
reactive L-section designed at a single frequency.  Both can be re-embedded
onto an impedance sweep to obtain the matched profile, reflection coefficient
and VSWR across the band.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._frozen import Frozen
from ._options import L_SECTION, SERIES_RESISTOR, TOPOLOGIES, check_non_negative, check_positive
from .impedance import ImpedanceProfile, _reflection, impedance_at
from .touchstone import _magnitude

__all__ = [
    "SERIES_RESISTOR",
    "L_SECTION",
    "TOPOLOGIES",
    "VSWR_CAP",
    "MatchingNetwork",
    "VswrProfile",
    "PowerSplit",
    "design_series_resistive_match",
    "design_l_section",
    "apply_match",
    "vswr_profile",
    "power_split_report",
]

# Display cap for the ratio as |Gamma| -> 1.
VSWR_CAP = 1e6
_GAMMA_CAP = 1.0 - 1e-9
_ELEMENT_TOL = 1e-9


def _element_from_reactance(x: float, f_hz: float) -> tuple[float | None, float | None]:
    """Reactance at f -> (L, C); positive is an inductor, negative a capacitor."""
    w = 2.0 * math.pi * f_hz
    if x > 0:
        return x / w, None
    if x < 0:
        return None, 1.0 / (w * (-x))
    return None, None


def _reactance_of_element(l_h, c_f, frequencies_hz):
    w = 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float)
    if l_h is not None:
        return w * l_h
    if c_f is not None:
        return -1.0 / (w * c_f)
    return np.zeros_like(w)


@dataclass(frozen=True)
class MatchingNetwork:
    """A designed two-terminal matching network.

    For the series-resistor topology only ``series_r_ohm`` is meaningful.  For
    an L-section the stored reactances are the element values *at the design
    frequency*; the L/C fields give the frequency-dependent realization and
    are consistent with those reactances (X_L = 2 pi f L, X_C = -1/(2 pi f C)).
    ``series_first`` records whether the series arm sits on the load side.
    """

    topology: str
    f_design_hz: float
    series_r_ohm: float = 0.0
    series_x_ohm: float = 0.0
    shunt_x_ohm: float = 0.0
    series_l_h: float | None = None
    series_c_f: float | None = None
    shunt_l_h: float | None = None
    shunt_c_f: float | None = None
    series_first: bool = True
    variant: str | None = None

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        check_positive(f_design_hz=self.f_design_hz)
        check_non_negative(series_r_ohm=self.series_r_ohm)
        for x, l_h, c_f, arm in (
            (self.series_x_ohm, self.series_l_h, self.series_c_f, "series"),
            (self.shunt_x_ohm, self.shunt_l_h, self.shunt_c_f, "shunt"),
        ):
            got = float(_reactance_of_element(l_h, c_f, self.f_design_hz))
            # A nan or infinite reactance fails: the bound must hold, and be finite.
            if not abs(got - x) <= _ELEMENT_TOL * max(1.0, abs(x)) < math.inf:
                raise ValueError(
                    f"{arm} element value inconsistent with its design reactance"
                )


@dataclass(frozen=True, eq=False)
class VswrProfile(Frozen):
    """Reflection coefficient and VSWR versus frequency against ``z0_ohm``.

    ``unbounded`` marks points with |Gamma| at (or numerically at) unity,
    where the stored ``vswr`` is the display cap rather than the ratio.
    The arrays are stored as read-only views.
    """

    frequencies_hz: np.ndarray
    gamma: np.ndarray
    vswr: np.ndarray
    unbounded: np.ndarray
    z0_ohm: float

    def at(self, f_hz: float) -> float:
        """Linearly interpolated VSWR at a frequency inside the sweep."""
        f = self.frequencies_hz
        if not (f[0] <= f_hz <= f[-1]):
            raise ValueError("frequency outside the sweep")
        return float(np.interp(f_hz, f, self.vswr))


@dataclass(frozen=True, eq=False)
class PowerSplit(Frozen):
    """Where the accepted power goes, pointwise across the sweep.

    ``antenna_fraction`` + ``resistor_fraction`` = 1 (of the power past the
    input mismatch); ``reflected_fraction`` is |Gamma|^2 at the matched input
    and ``mismatch_loss_db`` = -10 log10(1 - |Gamma|^2), zero when matched.
    The arrays are stored as read-only views.
    """

    frequencies_hz: np.ndarray
    antenna_fraction: np.ndarray
    resistor_fraction: np.ndarray
    reflected_fraction: np.ndarray
    mismatch_loss_db: np.ndarray


def design_series_resistive_match(
    profile: ImpedanceProfile, f_design_hz: float, z0: float = 50.0
) -> MatchingNetwork:
    """Series resistor sized so R_ant + R_series = z0 at the design frequency.

    Purely resistive matching leaves the reactance untouched; it trades power
    (dissipated in the resistor) for bandwidth.  If the antenna resistance
    already exceeds z0 the resistor clips to zero with a warning.
    """
    check_positive(z0=z0)
    z_ant = impedance_at(profile, f_design_hz)
    r = z0 - z_ant.real
    if r < 0:
        warnings.warn(
            f"antenna resistance {z_ant.real:.6g} ohm exceeds z0 = {z0:.6g} ohm; "
            "series resistor clipped to zero",
            stacklevel=2,
        )
        r = 0.0
    return MatchingNetwork(
        topology=SERIES_RESISTOR, f_design_hz=f_design_hz, series_r_ohm=r
    )


def _l_section_from_arms(
    x_series: float, x_shunt: float, f_design_hz: float, series_first: bool, variant: str
) -> MatchingNetwork:
    sl, sc = _element_from_reactance(x_series, f_design_hz)
    pl, pc = _element_from_reactance(x_shunt, f_design_hz)
    return MatchingNetwork(
        topology=L_SECTION,
        f_design_hz=f_design_hz,
        series_x_ohm=x_series,
        shunt_x_ohm=x_shunt,
        series_l_h=sl,
        series_c_f=sc,
        shunt_l_h=pl,
        shunt_c_f=pc,
        series_first=series_first,
        variant=variant,
    )


def design_l_section(
    z_load: complex, f_design_hz: float, z0: float = 50.0
) -> tuple[MatchingNetwork, MatchingNetwork]:
    """Lossless L-section matching ``z_load`` to ``z0`` at one frequency.

    Returns the (low-pass, high-pass) variant pair.  For R_load < z0 the
    series arm sits on the load side: its reactance first cancels the load
    reactance and then adds +/- Q R_load with Q = sqrt(z0/R_load - 1), while
    the shunt arm contributes -/+ z0/Q.  For R_load > z0 the dual network
    (shunt arm on the load side, absorbing the load susceptance) is used.
    Both variants re-embed to exactly z0 at the design frequency.
    """
    z_load = complex(z_load)
    r = z_load.real
    check_positive(z0=z0, f_design_hz=f_design_hz, **{"Re(z_load)": r})
    if not math.isfinite(z_load.imag):
        raise ValueError("Im(z_load) must be finite")
    if abs(r - z0) <= 1e-12 * z0:
        raise ValueError("load resistance equals z0; the L-section degenerates")

    networks = []
    if r < z0:
        q = math.sqrt(z0 / r - 1.0)
        for sign, variant in ((+1.0, "low-pass"), (-1.0, "high-pass")):
            x_series = -z_load.imag + sign * q * r
            x_shunt = -sign * z0 / q
            networks.append(
                _l_section_from_arms(x_series, x_shunt, f_design_hz, True, variant)
            )
    else:
        y_load = 1.0 / z_load
        g, b = y_load.real, y_load.imag
        root = math.sqrt(g * (1.0 - g * z0) / z0)
        for sign, variant in ((+1.0, "low-pass"), (-1.0, "high-pass")):
            b_el = sign * root - b
            # b_el = 0 means the load already presents Re(Y) = 1/z0; no shunt arm.
            x_shunt = -1.0 / b_el if b_el != 0 else 0.0
            z1 = 1.0 / complex(g, b + b_el)
            x_series = -z1.imag
            networks.append(
                _l_section_from_arms(x_series, x_shunt, f_design_hz, False, variant)
            )
    return networks[0], networks[1]


def apply_match(profile: ImpedanceProfile, network: MatchingNetwork) -> ImpedanceProfile:
    """Input impedance seen through the matching network across the sweep.

    L-section elements are evaluated with their physical frequency dependence
    (the design reactances hold exactly only at f_design).
    """
    f = profile.frequencies_hz
    if network.topology == SERIES_RESISTOR:
        return ImpedanceProfile(frequencies_hz=f, z=profile.z + network.series_r_ohm)

    x_ser = _reactance_of_element(network.series_l_h, network.series_c_f, f)
    x_sh = _reactance_of_element(network.shunt_l_h, network.shunt_c_f, f)
    has_shunt = network.shunt_l_h is not None or network.shunt_c_f is not None

    def shunt_combine(z):
        # A pole here gives inf or nan, which ImpedanceProfile stores as NaN.
        if not has_shunt:
            return z
        with np.errstate(divide="ignore", invalid="ignore"):
            return (z * (1j * x_sh)) / (z + 1j * x_sh)

    if network.series_first:
        z_in = shunt_combine(profile.z + 1j * x_ser)
    else:
        z_in = shunt_combine(profile.z) + 1j * x_ser
    return ImpedanceProfile(frequencies_hz=f, z=z_in)


def vswr_profile(profile: ImpedanceProfile, z0: float = 50.0) -> VswrProfile:
    """Reflection coefficient and VSWR of the sweep against ``z0``.

    VSWR = (1 + |Gamma|) / (1 - |Gamma|); points with |Gamma| within 1e-9 of
    unity (or beyond, for active data) are flagged and capped at 1e6.
    """
    check_positive(z0=z0)
    gamma = _reflection(profile.z, z0)
    mag = _magnitude(gamma)
    unbounded = mag >= _GAMMA_CAP
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (1.0 + mag) / (1.0 - mag)
    vswr = np.where(unbounded, VSWR_CAP, ratio)
    return VswrProfile(
        frequencies_hz=profile.frequencies_hz,
        gamma=gamma,
        vswr=vswr,
        unbounded=unbounded,
        z0_ohm=z0,
    )


def power_split_report(
    profile: ImpedanceProfile, network: MatchingNetwork, matched: VswrProfile
) -> PowerSplit:
    """Split of accepted power between the matching network and the antenna.

    ``matched`` is ``vswr_profile(apply_match(profile, network), z0)``, so the
    mismatch is taken against its ``z0_ohm``.  For the series resistor the
    resistive divider R_ant / (R_series + R_ant) applies pointwise; an
    L-section is lossless so the full accepted power reaches the load.
    Mismatch at the matched input is reported separately.
    """
    reflected = _magnitude(matched.gamma) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        mismatch_db = -10.0 * np.log10(1.0 - reflected)

    if network.topology == SERIES_RESISTOR:
        r_ant = profile.resistance
        with np.errstate(divide="ignore", invalid="ignore"):
            antenna = r_ant / (network.series_r_ohm + r_ant)
        resistor = 1.0 - antenna
    else:
        antenna = np.where(profile.valid, 1.0, np.nan)
        resistor = np.where(profile.valid, 0.0, np.nan)

    return PowerSplit(
        frequencies_hz=profile.frequencies_hz,
        antenna_fraction=antenna,
        resistor_fraction=resistor,
        reflected_fraction=reflected,
        mismatch_loss_db=mismatch_db,
    )
