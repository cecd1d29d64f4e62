"""Impedance views of S-parameter sweeps and canonical series-RLC synthesis.

Three fixture conventions are supported for turning a measured sweep into a
device impedance: a 1-port reflection measurement, and 2-port series-through /
shunt-through insertions.  The series/shunt extractions are exact inverses of
the corresponding ideal embeddings, which :func:`synthesize_series_rlc` uses to
produce reference sweeps for an R-L-C element in any of the three fixtures.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._frozen import Frozen, freeze_arrays
from ._options import (FIXTURE_MODES, REFLECTION, SERIES_THROUGH, SHUNT_THROUGH,
                       check_non_negative, check_positive)
from .touchstone import NetworkData, _check_sweep, _magnitude

__all__ = [
    "REFLECTION",
    "SERIES_THROUGH",
    "SHUNT_THROUGH",
    "FIXTURE_MODES",
    "SingularityError",
    "ImpedanceProfile",
    "SeriesRlcModel",
    "impedance_from_s11",
    "series_impedance_from_s21",
    "shunt_impedance_from_s21",
    "reflection_coefficient",
    "impedance_profile",
    "impedance_at",
    "synthesize_series_rlc",
]

_NEGATIVE_R_TOL = -1e-9


class SingularityError(ArithmeticError):
    """A conversion hit a pole (e.g. s11 = 1 has no finite impedance)."""


@dataclass(frozen=True, eq=False)
class ImpedanceProfile(Frozen):
    """Complex impedance versus frequency; a non-finite ``z`` marks an invalid point.

    Every non-finite impedance (an extraction pole gives inf or nan) is stored
    as NaN, and ``valid`` is ``np.isfinite(z)``.  Downstream metrics carry the
    NaN through instead of failing the sweep.  The arrays are stored as
    read-only views, so ``valid`` cannot come to disagree with ``z``.
    """

    frequencies_hz: np.ndarray
    z: np.ndarray
    valid: np.ndarray = field(init=False)

    def __post_init__(self):
        f = np.asarray(self.frequencies_hz, dtype=float)
        z = np.asarray(self.z, dtype=complex)
        if f.ndim != 1 or f.size == 0 or z.shape != f.shape:
            raise ValueError("frequencies and z must be matching non-empty 1-D arrays")
        _check_sweep(f)
        valid = np.isfinite(z)
        freeze_arrays(self, frequencies_hz=f, z=np.where(valid, z, complex(np.nan, np.nan)),
                      valid=valid)

    @property
    def resistance(self) -> np.ndarray:
        return self.z.real

    @property
    def reactance(self) -> np.ndarray:
        return self.z.imag

    @property
    def magnitude(self) -> np.ndarray:
        return _magnitude(self.z)

    @property
    def n_points(self) -> int:
        return self.frequencies_hz.size


def _deembed(s, z0: float, mode: str):
    """Device impedance from the fixture's s11 (reflection) or s21 (through).

    Works elementwise on arrays and on scalars; a pole gives inf or nan.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode == REFLECTION:
            return z0 * (1.0 + s) / (1.0 - s)
        if mode == SERIES_THROUGH:
            return 2.0 * z0 * (1.0 - s) / s
        return (z0 / 2.0) * s / (1.0 - s)


def _reflection(z, z0: float):
    """Gamma = (z - z0) / (z + z0), elementwise; z = -z0 gives inf or nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (z - z0) / (z + z0)


def impedance_from_s11(s11: complex, z0: float = 50.0) -> complex:
    """Reflection view: Z = z0 (1 + s11) / (1 - s11)."""
    if s11 == 1:
        raise SingularityError("s11 = 1 corresponds to an infinite impedance")
    return _deembed(s11, z0, REFLECTION)


def series_impedance_from_s21(s21: complex, z0: float = 50.0) -> complex:
    """Series-through view: Z = 2 z0 (1 - s21) / s21."""
    if s21 == 0:
        raise SingularityError("s21 = 0 corresponds to an infinite series impedance")
    return _deembed(s21, z0, SERIES_THROUGH)


def shunt_impedance_from_s21(s21: complex, z0: float = 50.0) -> complex:
    """Shunt-through view: Z = (z0 / 2) s21 / (1 - s21)."""
    if s21 == 1:
        raise SingularityError("s21 = 1 corresponds to an infinite shunt impedance")
    return _deembed(s21, z0, SHUNT_THROUGH)


def reflection_coefficient(z: complex, z0: float = 50.0) -> complex:
    """Gamma = (z - z0) / (z + z0) against a real positive reference."""
    if z == -z0:
        raise SingularityError("z = -z0 has no reflection coefficient")
    return _reflection(z, z0)


def impedance_profile(net: NetworkData, mode: str = SERIES_THROUGH) -> ImpedanceProfile:
    """Extract the device impedance sweep from ``net`` under a fixture convention.

    Singular points (e.g. s21 = 0 in series-through) become NaN rather than
    aborting the sweep.  A warning is issued if any valid point shows negative
    resistance, which passive data should not produce.
    """
    if mode not in FIXTURE_MODES:
        raise ValueError(f"unknown fixture mode {mode!r}")
    if mode in (SERIES_THROUGH, SHUNT_THROUGH) and net.n_ports < 2:
        raise ValueError(f"{mode} extraction requires a 2-port network")

    s = net.s11() if mode == REFLECTION else net.s21()
    profile = ImpedanceProfile(net.frequencies_hz, _deembed(s, net.z0_ohm, mode))
    if np.any(profile.resistance < _NEGATIVE_R_TOL):
        warnings.warn(
            "negative resistance extracted from passive data; check the fixture mode",
            stacklevel=2,
        )
    return profile


def impedance_at(profile: ImpedanceProfile, f_hz: float) -> complex:
    """Linearly interpolated impedance at ``f_hz``, using the valid points only."""
    f = profile.frequencies_hz[profile.valid]
    z = profile.z[profile.valid]
    if f.size == 0:
        raise ValueError("profile has no valid points")
    if not (f[0] <= f_hz <= f[-1]):
        raise ValueError("frequency outside the sweep")
    return complex(np.interp(f_hz, f, z.real), np.interp(f_hz, f, z.imag))


@dataclass(frozen=True)
class SeriesRlcModel:
    """Ideal series R-L-C one-port: Z(f) = r + j(2*pi*f*l - 1/(2*pi*f*c))."""

    r_ohm: float
    l_h: float
    c_f: float

    def __post_init__(self):
        check_non_negative(r_ohm=self.r_ohm, l_h=self.l_h)
        check_positive(c_f=self.c_f)

    @property
    def resonant_frequency_hz(self) -> float | None:
        """Series resonance 1 / (2 pi sqrt(L C)); absent for l_h = 0."""
        if self.l_h == 0:
            return None
        return 1.0 / (2.0 * math.pi * math.sqrt(self.l_h * self.c_f))

    def impedance(self, frequencies_hz) -> np.ndarray:
        f = np.asarray(frequencies_hz, dtype=float)
        w = 2.0 * np.pi * f
        return self.r_ohm + 1j * (w * self.l_h - 1.0 / (w * self.c_f))


def synthesize_series_rlc(
    model: SeriesRlcModel,
    frequencies_hz,
    z0: float = 50.0,
    mode: str = SERIES_THROUGH,
) -> NetworkData:
    """Embed an ideal series RLC in a fixture and return the exact S-parameters.

    The embeddings are the algebraic inverses of the extractions in
    :func:`impedance_profile`, so synthesize -> extract is an identity up to
    rounding.  ``mode`` selects a 1-port reflection standard or a 2-port
    series/shunt insertion.
    """
    if mode not in FIXTURE_MODES:
        raise ValueError(f"unknown fixture mode {mode!r}")
    check_positive(z0=z0)
    f = np.asarray(frequencies_hz, dtype=float)
    z = model.impedance(f)

    if mode == REFLECTION:
        s = _reflection(z, z0).reshape(-1, 1, 1)
    else:
        n = f.size
        s = np.empty((n, 2, 2), dtype=complex)
        if mode == SERIES_THROUGH:
            den = z + 2.0 * z0
            s[:, 0, 0] = s[:, 1, 1] = z / den
            s[:, 1, 0] = s[:, 0, 1] = 2.0 * z0 / den
        else:  # shunt-through
            den = 2.0 * z + z0
            s[:, 0, 0] = s[:, 1, 1] = -z0 / den
            s[:, 1, 0] = s[:, 0, 1] = 2.0 * z / den
    return NetworkData(frequencies_hz=f, s=s, z0_ohm=z0)
