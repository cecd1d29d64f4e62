"""Shared fixture data for the test suite.

Kept in a plain module (not conftest) so parametrized tests can import the
tables at collection time.
"""

import numpy as np

from slcap import NetworkData, SeriesRlcModel

# Canonical series-RLC element used across the suite: 1 ohm ESR, 2 nH, 1 pF.
RLC = SeriesRlcModel(r_ohm=1.0, l_h=2e-9, c_f=1e-12)
# 1 / (2 pi sqrt(LC)) evaluated independently of the model property.
RLC_F0_HZ = 1.0 / (2.0 * np.pi * np.sqrt(2e-9 * 1e-12))


def rlc_sweep(n: int = 1000) -> np.ndarray:
    return np.linspace(1e8, 2e10, n)


def series_through_network(
    f_hz: np.ndarray, z: np.ndarray, z0: float = 50.0
) -> NetworkData:
    """Embed an impedance profile as a symmetric series-through 2-port.

    Hand-coded S-parameters for a series element between matched ports:
    S11 = Z / (Z + 2 z0), S21 = 2 z0 / (Z + 2 z0).
    """
    z = np.asarray(z, dtype=complex)
    s = np.empty((len(f_hz), 2, 2), dtype=complex)
    s[:, 0, 0] = s[:, 1, 1] = z / (z + 2.0 * z0)
    s[:, 1, 0] = s[:, 0, 1] = 2.0 * z0 / (z + 2.0 * z0)
    return NetworkData(frequencies_hz=np.asarray(f_hz, dtype=float), s=s, z0_ohm=z0)


def envelope_impedance(n: int = 401):
    """Low-impedance wideband profile: R in [0.5, 1.5] ohm, |X| <= 2.5 ohm.

    |Z| stays below 3 ohm over the whole 0.1-20 GHz sweep, so the sweep is
    its own low-impedance bandwidth at a 3 ohm threshold, and a series
    resistor sized at mid-band holds VSWR under 2 everywhere.
    """
    f = rlc_sweep(n)
    w = (f - f[0]) / (f[-1] - f[0])
    r = 1.0 + 0.5 * np.sin(6.0 * np.pi * w)
    x = 2.5 * np.sin(3.0 * np.pi * w + 0.7)
    return f, r + 1j * x


def lossy_capacitive_impedance(n: int = 401):
    """Capacitive profile with a bathtub loss shape.

    ESR is 1 ohm throughout; |X| runs from 17 ohm at the sweep edges up to
    200 ohm mid-band, so the dissipation factor peaks at 1/17 < 6 % and sits
    under 2 % over most of the band.
    """
    f = rlc_sweep(n)
    w = (f - f[0]) / (f[-1] - f[0])
    x = -(17.0 + 183.0 * np.sin(np.pi * w))
    return f, 1.0 + 1j * x


def random_passive_network(rng: np.random.Generator) -> NetworkData:
    """Random strictly-passive 1- or 2-port with an increasing sweep."""
    n = int(rng.integers(5, 13))
    ports = int(rng.choice([1, 2]))
    start = rng.uniform(1e6, 1e9)
    steps = rng.uniform(1e6, 5e8, n - 1)
    f = start + np.concatenate([[0.0], np.cumsum(steps)])
    raw = rng.normal(size=(n, ports, ports)) + 1j * rng.normal(size=(n, ports, ports))
    s = np.empty_like(raw)
    for k in range(n):
        top = np.linalg.svd(raw[k], compute_uv=False).max()
        s[k] = raw[k] * (0.95 / max(1.0, top))
    z0 = float(rng.uniform(5.0, 150.0))
    return NetworkData(frequencies_hz=f, s=s, z0_ohm=z0)


# Malformed Touchstone documents: (text, expected line number, message regex).
MALFORMED_TOUCHSTONE = [
    ("", 1, "missing option line"),
    ("! only a comment\n", 1, "missing option line"),
    ("# THz S RI R 50\n1 0 0\n", 1, "unknown option token"),
    ("# GHz S XX R 50\n1 0 0\n", 1, "unknown option token"),
    ("# GHz Y RI R 50\n1 0 0\n", 1, "not supported"),
    ("[Version] 2.0\n# GHz S RI R 50\n1 0 0\n", 1, "keyword blocks"),
    ("# Hz S RI R 50\n2 0 0\n1 0 0\n", 3, "strictly increasing"),
    ("# Hz S RI R 50\n1 0 0\n1 0 0\n", 3, "strictly increasing"),
    ("# Hz S RI R 50\n-1 0 0\n", 2, "must be positive"),
    ("# Hz S RI R 50\n0 0 0\n", 2, "must be positive"),
    ("# Hz S RI R 50\n1 0 0 0 0\n", 2, "expected 3 columns"),
    ("# Hz S RI R 50\n1 0 0\n2 0 0 1 1 0 0 0 0\n", 3, "expected 3 columns, got 9"),
    ("# Hz S RI R 50\n1 abc 0\n", 2, "non-numeric token"),
    ("1 0 0\n# Hz S RI R 50\n", 1, "before the option line"),
    ("# Hz S RI R 50\n1 0 0\n# GHz S RI R 50\n", 3, "second option line"),
    ("# Hz S RI R -50\n1 0 0\n", 1, "must be positive"),
    ("# Hz S RI R fifty\n1 0 0\n", 1, "not a number"),
    ("# Hz S RI R\n1 0 0\n", 1, "missing its impedance value"),
    ("# Hz S RI R 50 NOISE\n1 0 0\n", 1, "unknown option token"),
    ("# Hz S RI R 50\n1 nan 0\n", 2, "non-finite value"),
    ("# Hz S RI R 50\n1 inf 0\n", 2, "non-finite value"),
    ("# Hz S RI R 50\n! nothing\n", 2, "no data rows"),
    ("# Hz GHz S RI R 50\n1 0 0\n", 1, "duplicate frequency unit"),
    ("# Hz S RI MA R 50\n1 0 0\n", 1, "duplicate encoding"),
    ("# Hz S RI S R 50\n1 0 0\n", 1, "duplicate parameter-kind token"),
    ("# Hz S RI R 50 R 75\n1 0 0\n", 1, "duplicate reference-impedance token"),
    ("# Hz S RI R 50\n1 0 0 0 0 0 0\n", 2, "expected 3 columns"),
]


def _csq_log(rssi_values, start_minute: int = 0) -> str:
    lines = ["# modem signal-quality poll"]
    for i, v in enumerate(rssi_values):
        lines.append(f"2025-11-04T09:{start_minute + i:02d}:00Z +CSQ: {v},0")
    return "\n".join(lines) + "\n"


# Ten known samples each: the compact (novel) antenna reads a mean of exactly
# 11.0, the reference (baseline) antenna 15.0.
NOVEL_RSSI = [10, 11, 12, 11, 10, 12, 11, 11, 12, 10]
BASELINE_RSSI = [14, 15, 16, 15, 14, 16, 15, 15, 16, 14]
# The unknown-quality sample (99) must be parsed but excluded from statistics.
NOVEL_LOG = _csq_log(NOVEL_RSSI) + "2025-11-04T09:30:00Z +CSQ: 99,99\n"
BASELINE_LOG = _csq_log(BASELINE_RSSI)

NOVEL_AREA_MM2 = 0.3969  # 0.63 mm x 0.63 mm chip face
BASELINE_AREA_MM2 = 245.0
