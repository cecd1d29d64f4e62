"""Loss, quality-factor, resonance and bandwidth figures for capacitive elements.

The dissipation factor is taken per frequency point as DF = ESR / |X|; points
with |X| below a small epsilon are reported as undefined rather than divided
through.  Efficiency is the complementary 1 - DF and Q its reciprocal 1 / DF.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._frozen import check_positive, freeze_arrays
from .impedance import ImpedanceProfile

__all__ = [
    "REACTANCE_EPSILON",
    "ResonanceEstimates",
    "CapacitorMetrics",
    "MetricsReport",
    "dissipation_factor_profile",
    "resonant_frequency",
    "low_impedance_bandwidth",
    "metrics_report",
]

# |X| below this (ohms) makes DF = R/|X| meaningless; such points are flagged.
REACTANCE_EPSILON = 1e-3


@dataclass(frozen=True)
class ResonanceEstimates:
    """Two independent resonance estimates; either may be absent.

    ``reactance_zero_hz`` interpolates the lowest-frequency sign change of the
    reactance; ``min_magnitude_hz`` is the frequency of the interior |Z|
    minimum.  The estimates agree for a clean series resonance.
    """

    reactance_zero_hz: float | None
    min_magnitude_hz: float | None


@dataclass(frozen=True, eq=False)
class CapacitorMetrics:
    """Per-frequency loss metrics; invalid and undefined points carry NaN.

    The arrays are stored as read-only views.
    """

    frequencies_hz: np.ndarray
    esr_ohm: np.ndarray
    reactance_ohm: np.ndarray
    df: np.ndarray
    efficiency: np.ndarray
    q: np.ndarray
    df_defined: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)


@dataclass(frozen=True)
class MetricsReport:
    """Pointwise loss metrics plus the sweep-level resonance/bandwidth summary."""

    pointwise: CapacitorMetrics
    resonance: ResonanceEstimates
    bandwidth_hz: tuple[float, float] | None
    fraction_df_below: float
    fraction_df_undefined: float

    @property
    def resonant_frequency_hz(self) -> float | None:
        """The reactance zero crossing, else the interior |Z| minimum."""
        zero_hz = self.resonance.reactance_zero_hz
        return zero_hz if zero_hz is not None else self.resonance.min_magnitude_hz


def dissipation_factor_profile(
    profile: ImpedanceProfile, reactance_epsilon: float = REACTANCE_EPSILON
) -> CapacitorMetrics:
    """Compute DF / efficiency / Q pointwise; undefined points carry NaN."""
    check_positive(reactance_epsilon=reactance_epsilon)
    r = profile.resistance
    x = profile.reactance
    defined = np.abs(x) >= reactance_epsilon  # False at NaN points too
    with np.errstate(divide="ignore", invalid="ignore"):
        df = np.where(defined, r / np.abs(x), np.nan)
        q = np.where(defined, np.abs(x) / r, np.nan)
    return CapacitorMetrics(
        frequencies_hz=profile.frequencies_hz,
        esr_ohm=r,
        reactance_ohm=x,
        df=df,
        efficiency=1.0 - df,
        q=q,
        df_defined=defined,
    )


def resonant_frequency(profile: ImpedanceProfile) -> ResonanceEstimates:
    """Estimate resonance two ways: reactance zero crossing and interior |Z| minimum.

    The crossing estimate linearly interpolates the lowest-frequency sign
    change of X(f); an exact interior zero flanked by opposite signs counts as
    a crossing at that sample.  Multiple crossings keep the lowest and warn.
    Either estimate is absent when the sweep provides no interior evidence.
    """
    f = profile.frequencies_hz
    x = profile.reactance
    # Sign changes between neighbours, and exact interior zeros flanked by
    # opposite signs.  A product with a NaN is never < 0, so holes never count.
    i = np.nonzero(x[:-1] * x[1:] < 0)[0]
    j = np.nonzero((x[1:-1] == 0) & (x[:-2] * x[2:] < 0))[0] + 1
    frac = x[i] / (x[i] - x[i + 1])
    crossings = np.concatenate([f[i] + frac * (f[i + 1] - f[i]), f[j]])

    zero_hz: float | None = None
    if crossings.size:
        zero_hz = float(crossings[np.argmin(np.concatenate([i, j]))])
        if crossings.size > 1:
            warnings.warn(
                f"{crossings.size} reactance zero crossings; reporting the lowest",
                stacklevel=2,
            )

    min_hz: float | None = None
    idx = int(np.argmin(np.where(profile.valid, profile.magnitude, np.inf)))
    if 0 < idx < f.size - 1:
        min_hz = float(f[idx])

    return ResonanceEstimates(reactance_zero_hz=zero_hz, min_magnitude_hz=min_hz)


def _edge(f, mag, inside: int, outside: int, threshold_ohm: float) -> float:
    """The threshold crossing between adjacent samples; at ``inside`` if ``outside`` is invalid."""
    if not np.isfinite(mag[outside]):
        return float(f[inside])
    frac = (mag[outside] - threshold_ohm) / (mag[outside] - mag[inside])
    return float(f[outside] + frac * (f[inside] - f[outside]))


def low_impedance_bandwidth(
    profile: ImpedanceProfile, threshold_ohm: float
) -> tuple[float, float] | None:
    """Maximal contiguous band around the |Z| minimum where |Z| <= threshold.

    Edges are linearly interpolated between the last inside and first outside
    samples and clipped to the sweep ends.  Returns None when even the minimum
    exceeds the threshold.  Invalid points break contiguity; an edge against
    an invalid neighbour falls on the last valid inside sample.
    """
    check_positive(threshold_ohm=threshold_ohm)
    f = profile.frequencies_hz
    mag = np.where(profile.valid, profile.magnitude, np.inf)
    anchor = int(np.argmin(mag))
    if not np.isfinite(mag[anchor]) or mag[anchor] > threshold_ohm:
        return None

    # The band ends at the nearest sample on each side above the threshold or invalid (inf).
    outside = np.flatnonzero(mag > threshold_ohm)
    k = int(np.searchsorted(outside, anchor))
    below, above = outside[:k], outside[k:]
    f_lo = _edge(f, mag, below[-1] + 1, below[-1], threshold_ohm) if below.size else float(f[0])
    f_hi = _edge(f, mag, above[0] - 1, above[0], threshold_ohm) if above.size else float(f[-1])
    return (f_lo, f_hi)


def metrics_report(
    profile: ImpedanceProfile,
    df_threshold: float = 0.02,
    z_threshold_ohm: float = 3.0,
    reactance_epsilon: float = REACTANCE_EPSILON,
) -> MetricsReport:
    """Full metrics summary: pointwise DF set plus resonance, bandwidth and fractions."""
    if profile.n_points < 2:
        raise ValueError("metrics report needs at least two sweep points")
    check_positive(df_threshold=df_threshold)

    pointwise = dissipation_factor_profile(profile, reactance_epsilon=reactance_epsilon)
    n = profile.n_points
    return MetricsReport(
        pointwise=pointwise,
        resonance=resonant_frequency(profile),
        bandwidth_hz=low_impedance_bandwidth(profile, z_threshold_ohm),
        fraction_df_below=np.count_nonzero(pointwise.df < df_threshold) / n,
        fraction_df_undefined=np.count_nonzero(~pointwise.df_defined) / n,
    )
