"""Far-field intensity patterns, directivity and lobe structure for small arrays.

The radiated intensity of an N-element array with complex excitation weights
w_n at positions r_n is

    u(theta, phi) = |sum_n w_n exp(j k r_n . u_hat)|^2 * E(theta, phi)

with k = 2 pi f / c and E the per-element intensity (isotropic, or sin^2 of
the angle off a hertzian-dipole axis).  Directivity integrates u over the
sphere with a composite trapezoidal rule; the polar integral runs in
mu = cos(theta) so a uniform pattern integrates exactly and D >= 1 holds for
every pattern.  Evaluation is deterministic: the grid is evaluated in blocks of
theta rows, bit-identical at any chunk size and CPU count; it uses every CPU in
the affinity set, with no setting.  The quadrature reduces in fixed row-major
order.
"""
from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._frozen import check_positive, freeze_arrays

__all__ = [
    "SPEED_OF_LIGHT",
    "ISOTROPIC",
    "HERTZIAN_DIPOLE",
    "ELEMENT_KINDS",
    "ElementModel",
    "ArrayLayout",
    "RadiationPattern",
    "Lobe",
    "parse_layout",
    "grid_shape",
    "make_grid",
    "evaluate_pattern",
    "directivity",
    "gain",
    "polar_cut",
    "find_lobes",
]

SPEED_OF_LIGHT = 299_792_458.0
# Largest (theta, phi) grid accepted, checked before any grid is built.
MAX_GRID_CELLS = 10_000_000

ISOTROPIC = "isotropic"
HERTZIAN_DIPOLE = "hertzian-dipole"
ELEMENT_KINDS = (ISOTROPIC, HERTZIAN_DIPOLE)

_PEAK_RESOLUTION_TOL = 0.10
_PLATEAU_RTOL = 1e-9


@dataclass(frozen=True)
class ElementModel:
    """Radiating element: intensity model plus physical footprint metadata."""

    kind: str = ISOTROPIC
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    footprint_mm: tuple[float, float, float] = (0.63, 0.63, 0.25)

    def __post_init__(self):
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,) or not np.all(np.isfinite(ax)) or np.dot(ax, ax) == 0:
            raise ValueError("axis must be a finite non-zero 3-vector")
        if len(self.footprint_mm) != 3:
            raise ValueError("footprint_mm must hold three dimensions")
        check_positive(**{f"footprint_mm[{i}]": d for i, d in enumerate(self.footprint_mm)})

    @property
    def area_mm2(self) -> float:
        return self.footprint_mm[0] * self.footprint_mm[1]

    def unit_axis(self) -> np.ndarray:
        ax = np.asarray(self.axis, dtype=float)
        return ax / np.linalg.norm(ax)


@dataclass(frozen=True, eq=False)
class ArrayLayout:
    """Element positions (meters), complex weights and the operating frequency.

    The arrays are stored as read-only views.
    """

    positions_m: np.ndarray
    weights: np.ndarray
    frequency_hz: float
    element: ElementModel = field(default_factory=ElementModel)

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.positions_m, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=complex))
        if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] == 0:
            raise ValueError("positions must be an (n, 3) array")
        if w.shape != (p.shape[0],):
            raise ValueError("weights must match the number of elements")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
            raise ValueError("positions and weights must be finite")
        check_positive(frequency_hz=self.frequency_hz)
        freeze_arrays(self, positions_m=p, weights=w)

    @property
    def n_elements(self) -> int:
        return self.positions_m.shape[0]

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi * self.frequency_hz / SPEED_OF_LIGHT


def parse_layout(text: str) -> ArrayLayout:
    """Read a layout JSON document: ``frequency_hz``, ``positions`` ([x, y, z]
    triples in meters), optional ``weights`` (numbers or [re, im] pairs) and an
    optional ``element`` object (``kind``, ``axis``, ``footprint_mm``).

    Raises ValueError, with the JSON line where the text does not parse, for
    any document that does not give a valid :class:`ArrayLayout`.
    """
    import json  # on first use: no other command pays for loading it

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError("layout must be a JSON object")
    missing = {"frequency_hz", "positions"} - doc.keys()
    if missing:
        raise ValueError(f"missing layout keys: {', '.join(sorted(missing))}")
    unknown = doc.keys() - {"frequency_hz", "positions", "weights", "element"}
    if unknown:
        raise ValueError(f"unknown layout keys: {', '.join(sorted(unknown))}")

    element = ElementModel()
    if "element" in doc:
        spec = doc["element"]
        if not isinstance(spec, dict):
            raise ValueError("element must be a JSON object")
        extra = spec.keys() - {"kind", "axis", "footprint_mm"}
        if extra:
            raise ValueError(f"unknown element keys: {', '.join(sorted(extra))}")
        try:
            element = ElementModel(**{k: v if k == "kind" else tuple(v) for k, v in spec.items()})
        except TypeError:
            raise ValueError("element axis and footprint_mm must be number lists") from None
        except OverflowError as exc:
            raise ValueError(str(exc)) from None

    positions, weights = doc["positions"], doc.get("weights")
    if not isinstance(positions, list):
        raise ValueError("positions must be a list of [x, y, z] triples")
    if weights is None:
        weights = [1.0] * len(positions)
    if not isinstance(weights, list) or not all(
        isinstance(w, (int, float)) or (isinstance(w, list) and len(w) == 2) for w in weights
    ):
        raise ValueError("weights must be numbers or [re, im] pairs")
    try:
        return ArrayLayout(
            positions_m=np.asarray(positions, dtype=float),
            weights=np.asarray([complex(*w) if isinstance(w, list) else complex(w)
                                for w in weights]),
            frequency_hz=float(doc["frequency_hz"]),
            element=element,
        )
    except (TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from None


@dataclass(frozen=True, eq=False)
class RadiationPattern:
    """Intensity samples on a theta x phi grid at one frequency.

    theta covers [0, pi] inclusive; phi covers [0, 2 pi) exclusive of the
    wrap point.  ``u`` is non-negative with shape (n_theta, n_phi).  The
    arrays are stored as read-only views.
    """

    theta_rad: np.ndarray
    phi_rad: np.ndarray
    u: np.ndarray
    frequency_hz: float

    def __post_init__(self):
        t = np.asarray(self.theta_rad, dtype=float)
        p = np.asarray(self.phi_rad, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("theta grid must be 1-D and strictly increasing")
        if abs(t[0]) > 1e-12 or abs(t[-1] - math.pi) > 1e-12:
            raise ValueError("theta grid must cover [0, pi]")
        if p.ndim != 1 or p.size < 2 or np.any(np.diff(p) <= 0):
            raise ValueError("phi grid must be 1-D and strictly increasing")
        if p[0] < 0 or p[-1] >= 2.0 * math.pi:
            raise ValueError("phi grid must lie within [0, 2 pi)")
        if u.shape != (t.size, p.size):
            raise ValueError("u must have shape (n_theta, n_phi)")
        if not np.all(np.isfinite(u)) or np.any(u < 0):
            raise ValueError("intensities must be finite and non-negative")
        freeze_arrays(self, theta_rad=t, phi_rad=p, u=u)


@dataclass(frozen=True)
class Lobe:
    """One lobe of a polar cut: peak angle, level, and main/minor class."""

    angle_rad: float
    level: float
    level_db: float
    is_main: bool
    degenerate: bool = False


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
    """Sizes of :func:`make_grid`'s theta and phi grids, checked without building them.

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


def make_grid(theta_step_deg: float = 1.0, phi_step_deg: float = 1.0):
    """Uniform (theta, phi) grids: [0, pi] inclusive and [0, 2 pi) exclusive."""
    n_theta, n_phi = grid_shape(theta_step_deg, phi_step_deg)
    theta = np.linspace(0.0, math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return theta, phi


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(block, n_blocks: int) -> None:
    """Call ``block(i)`` once for each i < ``n_blocks``, on every usable CPU.

    The caller works too, beside one thread per further CPU, each taking the next
    index from a shared counter; on one CPU no thread starts.  The first exception
    raised in any call stops the remaining work and is re-raised here, in the
    calling thread, once every thread has ended.
    """
    indices = iter(range(n_blocks))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work():
        try:
            while not errors:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                block(i)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(_usable_cpus(), n_blocks) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _pattern_rows(u, layout, sin_t, cos_t, cos_p, sin_p) -> None:
    """Fill ``u`` with the intensity of the theta rows given by ``sin_t`` and ``cos_t``.

    Each term is ``weight * exp(j phase)``, with the exponential written as
    ``cos(phase) + j sin(phase)``: ``exp`` of a zero real part is exactly that.  The
    phase sums in the order ``((x ux + y uy) + z uz) k``, and the numpy complex
    multiply keeps the weight as its left operand, as in that formula; a real-arithmetic
    product, or the operands swapped, rounds differently.
    """
    k = layout.wavenumber
    ux = sin_t * cos_p
    uy = sin_t * sin_p
    phase = np.empty(ux.shape)
    term = np.empty(ux.shape)
    e = np.empty(ux.shape, dtype=complex)
    af = np.zeros(ux.shape, dtype=complex)
    for (x, y, z), weight in zip(layout.positions_m, layout.weights):
        np.multiply(ux, x, out=phase)
        np.multiply(uy, y, out=term)
        phase += term
        phase += z * cos_t  # uz is constant along a row
        phase *= k
        np.cos(phase, out=e.real)
        np.sin(phase, out=e.imag)
        af += weight * e
    u[...] = np.abs(af) ** 2
    if layout.element.kind == HERTZIAN_DIPOLE:
        axis = layout.element.unit_axis()
        proj = ux * axis[0] + uy * axis[1] + cos_t * axis[2]
        # Along the axis, proj**2 can round just above 1.
        u *= np.maximum(1.0 - proj**2, 0.0)


# Theta rows per block of the pattern: bounds each block's memory, not a setting.
_CHUNK_ROWS = 16


def evaluate_pattern(
    layout: ArrayLayout,
    theta_rad: np.ndarray | None = None,
    phi_rad: np.ndarray | None = None,
) -> RadiationPattern:
    """Sample the array intensity on the grid (default 1 degree resolution).

    The grid is evaluated in blocks of ``_CHUNK_ROWS`` theta rows, which caps the
    memory of each block.  The result is bit-identical at any block size and CPU
    count; the independent blocks use every CPU in the affinity set, with no setting.
    """
    if theta_rad is None or phi_rad is None:
        default_t, default_p = make_grid()
        theta_rad = default_t if theta_rad is None else theta_rad
        phi_rad = default_p if phi_rad is None else phi_rad
    theta = np.asarray(theta_rad, dtype=float)
    phi = np.asarray(phi_rad, dtype=float)

    sin_t = np.sin(theta)[:, None]
    cos_t = np.cos(theta)[:, None]
    cos_p = np.cos(phi)[None, :]
    sin_p = np.sin(phi)[None, :]
    u = np.empty((theta.size, phi.size), dtype=float)

    def block(i):
        rows = slice(i * _CHUNK_ROWS, (i + 1) * _CHUNK_ROWS)
        _pattern_rows(u[rows], layout, sin_t[rows], cos_t[rows], cos_p, sin_p)

    _run_blocks(block, -(-theta.size // _CHUNK_ROWS))
    return RadiationPattern(
        theta_rad=theta, phi_rad=phi, u=u, frequency_hz=layout.frequency_hz
    )


def _check_peak_resolution(pattern: RadiationPattern):
    u = pattern.u
    ti, pi_ = np.unravel_index(int(np.argmax(u)), u.shape)
    peak = u[ti, pi_]
    if peak <= 0:
        return
    neighbours = []
    if ti > 0:
        neighbours.append(u[ti - 1, pi_])
    if ti < u.shape[0] - 1:
        neighbours.append(u[ti + 1, pi_])
    neighbours.append(u[ti, (pi_ - 1) % u.shape[1]])
    neighbours.append(u[ti, (pi_ + 1) % u.shape[1]])
    if any(abs(peak - v) > _PEAK_RESOLUTION_TOL * peak for v in neighbours):
        warnings.warn(
            "adjacent samples differ by more than 10% at the pattern peak; "
            "the grid may be too coarse",
            stacklevel=3,
        )


def directivity(pattern: RadiationPattern) -> float:
    """D = 4 pi u_max / integral(u dOmega) by composite trapezoid over the grid.

    The theta integral is trapezoidal in mu = cos(theta) (exact for uniform
    intensity); the phi integral closes the period with a wrap panel.  The
    reduction order is fixed, so repeated calls are bit-identical.
    """
    _check_peak_resolution(pattern)
    u = pattern.u
    mu = np.cos(pattern.theta_rad)
    d_mu = mu[:-1] - mu[1:]  # positive: mu decreases as theta grows
    # Per-phi-column polar integral, fixed row-major accumulation.
    column = ((u[:-1, :] + u[1:, :]) * 0.5 * d_mu[:, None]).sum(axis=0)

    phi = pattern.phi_rad
    d_phi = np.empty(phi.size)
    d_phi[:-1] = np.diff(phi)
    d_phi[-1] = 2.0 * math.pi - phi[-1] + phi[0]
    closed = np.append(column, column[0])
    total = float(((closed[:-1] + closed[1:]) * 0.5 * d_phi).sum())

    if total <= 0:
        raise ValueError("pattern has zero mean intensity")
    return float(4.0 * math.pi * u.max() / total)


def gain(directivity_value: float, efficiency: float) -> float:
    """Realized gain = efficiency x directivity, efficiency in [0, 1]."""
    if not (0.0 <= efficiency <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    if not 1.0 - 1e-12 <= directivity_value < math.inf:  # nan fails
        raise ValueError("directivity_value must be finite and at least the isotropic floor 1")
    return efficiency * directivity_value


def _nearest_phi_index(phi_grid: np.ndarray, phi: float) -> int:
    # Circular nearest neighbour on [0, 2 pi).
    target = phi % (2.0 * math.pi)
    diff = np.abs(phi_grid - target)
    diff = np.minimum(diff, 2.0 * math.pi - diff)
    return int(np.argmin(diff))


def polar_cut(pattern: RadiationPattern, phi_cut_rad: float = 0.0):
    """Full 0..2pi polar cut through the pattern.

    The half-plane at ``phi_cut_rad`` supplies angles [0, pi] and the opposite
    half-plane (phi_cut + pi, nearest grid column each) the rest; the poles
    are not duplicated.  Returns (angles_rad, values) with angles increasing.
    """
    if not math.isfinite(phi_cut_rad):
        raise ValueError("phi_cut_rad must be finite")
    j0 = _nearest_phi_index(pattern.phi_rad, phi_cut_rad)
    j1 = _nearest_phi_index(pattern.phi_rad, phi_cut_rad + math.pi)
    theta = pattern.theta_rad
    angles = np.concatenate([theta, 2.0 * math.pi - theta[-2:0:-1]])
    values = np.concatenate([pattern.u[:, j0], pattern.u[-2:0:-1, j1]])
    return angles, values


def find_lobes(
    pattern: RadiationPattern, phi_cut_rad: float = 0.0, main_threshold_db: float = 10.0
) -> list[Lobe]:
    """Locate lobes on the full polar cut through phi_cut and phi_cut + pi.

    A lobe is a strict local maximum of the circular cut, with runs of equal
    samples (plateaus) merged into a single lobe at their angular midpoint.
    Lobes within ``main_threshold_db`` (sign ignored) of the cut peak are
    classed main, the rest minor.  A uniform cut yields one lobe flagged
    degenerate.
    """
    if not math.isfinite(main_threshold_db):
        raise ValueError("main_threshold_db must be finite")
    angles, values = polar_cut(pattern, phi_cut_rad)
    m = values.size
    peak = float(values.max())
    if peak <= 0:
        raise ValueError("cut is identically zero")
    tol = _PLATEAU_RTOL * peak
    threshold_db = -abs(main_threshold_db)

    if float(values.min()) >= peak - tol:
        return [
            Lobe(angle_rad=float(angles[0]), level=peak, level_db=0.0, is_main=True,
                 degenerate=True)
        ]

    # Runs of circularly adjacent equal samples: a run starts at each step larger
    # than tol, and the last run wraps round to the first start.  A cut with no
    # such step has no run, and no lobe.
    starts = np.flatnonzero(np.abs(values - np.roll(values, 1)) > tol)
    lengths = np.diff(starts, append=starts[:1] + m)
    levels = values[starts]
    peaks = (levels > values[starts - 1] + tol) & (levels > values[(starts + lengths) % m] + tol)

    lobes = []
    for start, length in zip(starts[peaks].tolist(), lengths[peaks].tolist()):
        # The plateau's midpoint: its angles past the wrap point gain a turn.
        # np.cumsum adds left to right, as a loop does; np.sum (pairwise) and,
        # from Python 3.12, sum (compensated) can round differently.
        run = angles[np.arange(start, start + length) % m]
        run = np.where(run < run[0], run + 2.0 * math.pi, run)
        angle = float(np.cumsum(run)[-1]) / length % (2.0 * math.pi)
        level = float(values[start])
        level_db = 10.0 * math.log10(level / peak)
        lobes.append(
            Lobe(angle_rad=angle, level=level, level_db=level_db, is_main=level_db >= threshold_db)
        )
    lobes.sort(key=lambda lb: lb.angle_rad)
    return lobes
