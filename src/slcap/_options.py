"""The option vocabularies, the one check of a positive (or non-negative) finite scalar,
the pattern grid's budget and the line breaks of ``str.splitlines`` alone: free of numpy,
so that parsing argv and building ``RunConfig`` load none; the numeric modules export them."""
from __future__ import annotations

import math

# Fixture conventions for de-embedding a device impedance from S-parameters.
REFLECTION = "reflection"
SERIES_THROUGH = "series-through"
SHUNT_THROUGH = "shunt-through"
FIXTURE_MODES = (REFLECTION, SERIES_THROUGH, SHUNT_THROUGH)

# Matching-network topologies.
SERIES_RESISTOR = "series-r"
L_SECTION = "l-section"
TOPOLOGIES = (SERIES_RESISTOR, L_SECTION)

# Touchstone frequency units and data encodings.
UNIT_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
ENCODINGS = ("ri", "ma", "db")

# |X| below this (ohms) makes DF = R/|X| meaningless; such points are flagged.
REACTANCE_EPSILON = 1e-3

# The ASCII breaks at which str.splitlines splits and file lines, numpy and csv do not.
SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e"

# Largest (theta, phi) grid accepted, checked before any grid is built.
MAX_GRID_CELLS = 10_000_000


def check_positive(_rule: str = "positive", /, **values: float) -> None:
    """Raise ValueError naming the first of ``values`` outside (0, inf): nan and inf fail."""
    for name, value in values.items():
        if not (0.0 < value < math.inf or value == 0.0 and _rule == "non-negative"):
            raise ValueError(f"{name} must be {_rule} and finite")


def check_non_negative(**values: float) -> None:
    """As :func:`check_positive`, with zero allowed."""
    check_positive("non-negative", **values)


def _steps(step_deg: float, span_deg: float) -> int:
    if span_deg / step_deg > MAX_GRID_CELLS:
        raise ValueError(
            f"a {step_deg:g} deg step exceeds the budget of {MAX_GRID_CELLS} grid cells"
        )
    n = round(span_deg / step_deg)
    if abs(n * step_deg - span_deg) > 1e-9:
        raise ValueError("grid steps must divide 180 and 360 degrees evenly")
    return n


def grid_shape(theta_step_deg: float = 1.0, phi_step_deg: float = 1.0) -> tuple[int, int]:
    """Sizes of :func:`slcap.radiation.make_grid`'s theta and phi grids, checked without
    building them.

    Raises ValueError for a step that is not positive and finite or does not
    divide 180 (theta) or 360 (phi) degrees, for a single phi point, and for a
    grid of over ``MAX_GRID_CELLS``.
    """
    check_positive(theta_step_deg=theta_step_deg, phi_step_deg=phi_step_deg)
    n_theta, n_phi = _steps(theta_step_deg, 180.0) + 1, _steps(phi_step_deg, 360.0)
    if n_phi < 2:
        raise ValueError("the phi step must be at most 180 degrees")
    if n_theta * n_phi > MAX_GRID_CELLS:
        raise ValueError(
            f"a {n_theta} x {n_phi} grid exceeds the budget of {MAX_GRID_CELLS} cells"
        )
    return n_theta, n_phi
