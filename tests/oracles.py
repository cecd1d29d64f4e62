"""Independent reference computations used by the tests.

Everything here is deliberately coded from first principles -- plain math /
numpy only, no scipy and none of the library's own code paths -- so that each
checked value has two unrelated derivations.
"""

import math

import numpy as np


def student_t_sf(t: float, df: float, panels: int = 16, order: int = 64) -> float:
    """Upper-tail probability P(T > t) for Student's t with ``df`` degrees.

    Uses P(T > t) = 1/2 - integral of the density over [0, t] (symmetry pins
    the half at zero).  The integrand is smooth on the whole finite interval
    for every df > 0, so composite Gauss-Legendre converges far past the
    1e-8 level the tests need; the near half of the range gets its own set
    of panels because the density's mass concentrates there.
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t < 0:
        return 1.0 - student_t_sf(-t, df, panels, order)
    if t == 0.0:
        return 0.5
    # Normalisation through lgamma: math.gamma overflows for df above ~340.
    c = math.exp(math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(
        df * math.pi
    )
    nodes, weights = np.polynomial.legendre.leggauss(order)
    split = min(t, 8.0)
    edges = np.linspace(0.0, split, panels + 1)
    if t > split:
        edges = np.concatenate([edges, np.linspace(split, t, panels + 1)[1:]])
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        density = c * np.exp(-(df + 1.0) / 2.0 * np.log1p(x * x / df))
        total += 0.5 * (b - a) * float(np.sum(weights * density))
    return 0.5 - total


def two_sided_p(t: float, df: float) -> float:
    return min(1.0, 2.0 * student_t_sf(abs(t), df))


# Closed forms for the two smallest integer df, used to validate the
# quadrature oracle itself before it validates anything else.


def t_sf_df1(t: float) -> float:
    return 0.5 - math.atan(t) / math.pi


def t_sf_df2(t: float) -> float:
    return 0.5 * (1.0 - t / math.sqrt(2.0 + t * t))


def welch_stats(a, b):
    """Welch t statistic and degrees of freedom from hand-coded sums."""
    na, nb = len(a), len(b)
    ma = math.fsum(a) / na
    mb = math.fsum(b) / nb
    va = math.fsum((x - ma) ** 2 for x in a) / (na - 1)
    vb = math.fsum((x - mb) ** 2 for x in b) / (nb - 1)
    sa, sb = va / na, vb / nb
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    return t, df


def reflection_magnitude(z: complex, z0: float) -> float:
    return abs((z - z0) / (z + z0))


def vswr_from_z(z: complex, z0: float) -> float:
    g = reflection_magnitude(z, z0)
    return (1.0 + g) / (1.0 - g)


def series_rlc_z(f_hz: float, r: float, l: float, c: float) -> complex:
    w = 2.0 * math.pi * f_hz
    return complex(r, w * l - 1.0 / (w * c))


def rlc_band_edges(r: float, l: float, c: float, threshold: float):
    """Frequencies where |Z| of a series RLC equals ``threshold`` exactly.

    |Z| = thr  =>  X = +/- sqrt(thr^2 - r^2); solving wL - 1/(wC) = s for
    w > 0 gives w = [sC + sqrt(s^2 C^2 + 4 L C)] / (2 L C).
    """
    s = math.sqrt(threshold**2 - r**2)
    lo = (-s * c + math.sqrt(s * s * c * c + 4.0 * l * c)) / (2.0 * l * c)
    hi = (s * c + math.sqrt(s * s * c * c + 4.0 * l * c)) / (2.0 * l * c)
    return lo / (2.0 * math.pi), hi / (2.0 * math.pi)


def pair_pattern_u(theta, spacing_wavelengths: float):
    """|AF|^2 of two equal in-phase isotropic elements on the z axis.

    Elements at z = +/- d/2 give AF = 2 cos(pi * (d/lambda) * cos(theta)).
    """
    return 4.0 * np.cos(math.pi * spacing_wavelengths * np.cos(theta)) ** 2
