import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from slcap import _cpus, radiation
from slcap import (
    HERTZIAN_DIPOLE,
    ISOTROPIC,
    SPEED_OF_LIGHT,
    ArrayLayout,
    ElementModel,
    RadiationPattern,
    directivity,
    evaluate_pattern,
    find_lobes,
    gain,
    grid_shape,
    make_grid,
    polar_cut,
)

F0 = 1e9
LAMBDA = SPEED_OF_LIGHT / F0


def layout_of(positions_wl, weights=None, kind=ISOTROPIC, axis=(0.0, 0.0, 1.0)):
    pos = np.asarray(positions_wl, dtype=float) * LAMBDA
    if weights is None:
        weights = np.ones(len(pos), dtype=complex)
    return ArrayLayout(
        positions_m=pos,
        weights=np.asarray(weights, dtype=complex),
        frequency_hz=F0,
        element=ElementModel(kind=kind, axis=axis),
    )


def single_element(kind=ISOTROPIC, axis=(0.0, 0.0, 1.0), weight=1.0 + 0j):
    return layout_of([[0.0, 0.0, 0.0]], [weight], kind=kind, axis=axis)


def half_wave_pair():
    return layout_of([[0.0, 0.0, -0.25], [0.0, 0.0, 0.25]])


def full_wave_pair():
    return layout_of([[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]])


def broadside_four():
    return layout_of(
        [[0.0, 0.0, -0.75], [0.0, 0.0, -0.25], [0.0, 0.0, 0.25], [0.0, 0.0, 0.75]]
    )


class TestGrid:
    def test_default_one_degree(self):
        theta, phi = make_grid()
        assert theta.size == 181 and phi.size == 360
        assert theta[0] == 0.0 and theta[-1] == pytest.approx(math.pi)
        assert phi[0] == 0.0 and phi[-1] < 2.0 * math.pi

    def test_coarser_grid(self):
        theta, phi = make_grid(5.0, 10.0)
        assert theta.size == 37 and phi.size == 36

    @pytest.mark.parametrize(
        "steps", [(7.0, 1.0), (1.0, 7.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 360.0)]
    )
    def test_invalid_steps(self, steps):
        with pytest.raises(ValueError):
            make_grid(*steps)

    def test_shape_without_building(self):
        assert grid_shape() == (181, 360)
        assert grid_shape(0.25, 1.0) == (721, 360)

    # Each is rejected before a grid is built: 1.8e11 theta points, a step too
    # small to round, and 18001 x 36000 cells.
    @pytest.mark.parametrize("steps", [(1e-9, 1.0), (1.0, 1e-320), (0.01, 0.01)])
    def test_budget(self, steps):
        with pytest.raises(ValueError, match="budget"):
            make_grid(*steps)


class TestEvaluate:
    def test_single_isotropic_is_flat(self):
        pattern = evaluate_pattern(single_element(weight=2.0 + 0j))
        np.testing.assert_allclose(pattern.u, 4.0, rtol=1e-12)

    def test_dipole_z_axis_projection(self):
        pattern = evaluate_pattern(single_element(kind=HERTZIAN_DIPOLE))
        expected = np.sin(pattern.theta_rad)[:, None] ** 2
        np.testing.assert_allclose(pattern.u, np.broadcast_to(expected, pattern.u.shape),
                                    atol=1e-12)

    def test_dipole_x_axis_projection(self):
        pattern = evaluate_pattern(
            single_element(kind=HERTZIAN_DIPOLE, axis=(1.0, 0.0, 0.0))
        )
        st = np.sin(pattern.theta_rad)[:, None]
        cp = np.cos(pattern.phi_rad)[None, :]
        np.testing.assert_allclose(pattern.u, 1.0 - (st * cp) ** 2, atol=1e-12)

    def test_in_plane_dipole_axis_never_goes_negative(self):
        # Where a grid direction lies on the axis, 1 - (u.a)^2 can round below
        # zero; every integer-degree axis in the xy plane must still evaluate.
        for deg in range(360):
            a = math.radians(deg)
            element = single_element(kind=HERTZIAN_DIPOLE, axis=(math.cos(a), math.sin(a), 0.0))
            pattern = evaluate_pattern(element)
            assert pattern.u.min() >= 0.0
            assert pattern.u.max() == pytest.approx(1.0, abs=1e-12)

    def test_half_wave_pair_matches_hand_formula(self):
        pattern = evaluate_pattern(half_wave_pair())
        expected = oracles.pair_pattern_u(pattern.theta_rad, 0.5)[:, None]
        np.testing.assert_allclose(
            pattern.u, np.broadcast_to(expected, pattern.u.shape), atol=1e-9
        )

    def test_weight_scaling_squares(self):
        base = evaluate_pattern(half_wave_pair())
        scaled_layout = layout_of(
            [[0.0, 0.0, -0.25], [0.0, 0.0, 0.25]], [3.0 + 0j, 3.0 + 0j]
        )
        scaled = evaluate_pattern(scaled_layout)
        np.testing.assert_allclose(scaled.u, 9.0 * base.u, rtol=1e-12)

    def test_global_translation_leaves_intensity(self):
        moved = layout_of([[0.3, -0.2, -0.15], [0.3, -0.2, 0.35]])
        base = evaluate_pattern(half_wave_pair())
        shifted = evaluate_pattern(moved)
        np.testing.assert_allclose(shifted.u, base.u, atol=1e-9 * base.u.max())

    @pytest.mark.parametrize("chunk", [1, 7, 64, 181, 1000])
    def test_chunking_is_bit_identical(self, chunk, monkeypatch):
        layout = broadside_four()
        monkeypatch.setattr(radiation, "_CHUNK_ROWS", 181)
        reference = evaluate_pattern(layout)
        monkeypatch.setattr(radiation, "_CHUNK_ROWS", chunk)
        chunked = evaluate_pattern(layout)
        assert np.array_equal(chunked.u, reference.u)

    def test_pattern_validation(self):
        theta, phi = make_grid()
        with pytest.raises(ValueError, match="shape"):
            RadiationPattern(
                theta_rad=theta, phi_rad=phi, u=np.ones((3, 3)), frequency_hz=F0
            )
        with pytest.raises(ValueError, match="non-negative"):
            RadiationPattern(
                theta_rad=theta,
                phi_rad=phi,
                u=-np.ones((theta.size, phi.size)),
                frequency_hz=F0,
            )


class TestElementAndLayout:
    def test_default_footprint_area(self):
        # 0.63 mm x 0.63 mm chip face
        assert ElementModel().area_mm2 == pytest.approx(0.3969, rel=1e-12)

    def test_axis_normalized(self):
        e = ElementModel(kind=HERTZIAN_DIPOLE, axis=(0.0, 0.0, 2.0))
        np.testing.assert_allclose(e.unit_axis(), [0.0, 0.0, 1.0])

    def test_moderate_axes_keep_the_norm_quotient(self, rng):
        for ax in rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-100, 100, (200, 1)):
            got = ElementModel(kind=HERTZIAN_DIPOLE, axis=tuple(ax)).unit_axis()
            assert got.tobytes() == (ax / np.linalg.norm(ax)).tobytes()

    # The square of each axis overflows, is subnormal or underflows to zero.
    @pytest.mark.parametrize("scale", [1e300, 1e160, 1e-160, 1e-300, 5e-324])
    def test_huge_and_tiny_axes_are_unit_vectors(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ElementModel(kind=HERTZIAN_DIPOLE, axis=(scale, -scale, 0.0)).unit_axis()
        assert got.tobytes() == (np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)).tobytes()

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            ElementModel(kind=HERTZIAN_DIPOLE, axis=(0.0, -0.0, 0.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ElementModel(kind="patch")

    def test_wavelength(self):
        assert half_wave_pair().wavelength_m == pytest.approx(LAMBDA)

    def test_mismatched_weights(self):
        with pytest.raises(ValueError):
            ArrayLayout(
                positions_m=np.zeros((2, 3)),
                weights=np.ones(3, dtype=complex),
                frequency_hz=F0,
                element=ElementModel(),
            )


class TestDirectivity:
    def test_isotropic_is_exactly_one(self):
        d = directivity(evaluate_pattern(single_element()))
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_short_dipole(self):
        d = directivity(evaluate_pattern(single_element(kind=HERTZIAN_DIPOLE)))
        assert d == pytest.approx(1.5, rel=5e-3)

    def test_half_wave_pair(self):
        d = directivity(evaluate_pattern(half_wave_pair()))
        assert d == pytest.approx(2.0, rel=1e-2)

    def test_grid_refinement_converges(self):
        layout = half_wave_pair()
        coarse = directivity(evaluate_pattern(layout, *make_grid(1.0, 1.0)))
        fine = directivity(evaluate_pattern(layout, *make_grid(0.5, 0.5)))
        assert abs(fine - coarse) / fine < 1e-3

    def test_never_below_isotropic(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            layout = ArrayLayout(
                positions_m=rng.uniform(-LAMBDA, LAMBDA, size=(n, 3)),
                weights=rng.normal(size=n) + 1j * rng.normal(size=n),
                frequency_hz=F0,
                element=ElementModel(),
            )
            pattern = evaluate_pattern(layout, *make_grid(2.0, 2.0))
            try:
                d = directivity(pattern)
            except ValueError:
                continue  # fully cancelled pattern
            assert d >= 1.0 - 1e-12

    def test_repeat_calls_bit_identical(self):
        pattern = evaluate_pattern(broadside_four())
        assert directivity(pattern) == directivity(pattern)

    def test_zero_pattern_rejected(self):
        cancelled = layout_of(
            [[0.0, 0.0, 0.1], [0.0, 0.0, 0.1]], [1.0 + 0j, -1.0 + 0j]
        )
        pattern = evaluate_pattern(cancelled)
        assert pattern.u.max() == 0.0
        with pytest.raises(ValueError, match="zero mean"):
            directivity(pattern)

    def test_coarse_grid_at_sharp_peak_warns(self):
        pattern = evaluate_pattern(half_wave_pair(), *make_grid(15.0, 15.0))
        with pytest.warns(UserWarning, match="too coarse"):
            directivity(pattern)

    def test_standard_grid_does_not_warn(self):
        pattern = evaluate_pattern(half_wave_pair())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            directivity(pattern)


class TestGain:
    def test_scales_directivity(self):
        assert gain(1.5, 0.98) == pytest.approx(1.47)

    def test_perfect_efficiency_is_identity(self):
        assert gain(2.0, 1.0) == 2.0

    @pytest.mark.parametrize("eff", [-0.1, 1.1])
    def test_efficiency_range(self, eff):
        with pytest.raises(ValueError):
            gain(1.5, eff)

    def test_directivity_floor(self):
        with pytest.raises(ValueError):
            gain(0.5, 1.0)
        assert gain(1.0, 0.5) == 0.5  # exactly isotropic is fine


class TestPolarCut:
    def test_circle_has_2n_minus_2_samples(self):
        pattern = evaluate_pattern(single_element(kind=HERTZIAN_DIPOLE))
        angles, values = polar_cut(pattern)
        assert angles.size == values.size == 360
        assert (np.diff(angles) > 0).all()
        assert angles[0] == 0.0 and angles[-1] < 2.0 * math.pi

    def test_values_stitch_the_two_half_planes(self):
        pattern = evaluate_pattern(
            single_element(kind=HERTZIAN_DIPOLE, axis=(1.0, 0.0, 0.0))
        )
        angles, values = polar_cut(pattern, phi_cut_rad=0.0)
        n = pattern.theta_rad.size
        assert np.array_equal(values[:n], pattern.u[:, 0])
        assert np.array_equal(values[n:], pattern.u[-2:0:-1, 180])

    def test_nearest_column_is_used(self):
        pattern = evaluate_pattern(
            single_element(kind=HERTZIAN_DIPOLE, axis=(1.0, 0.0, 0.0))
        )
        _, from_offset = polar_cut(pattern, phi_cut_rad=math.radians(0.4))
        _, from_zero = polar_cut(pattern, phi_cut_rad=0.0)
        assert np.array_equal(from_offset, from_zero)
        _, rounded_up = polar_cut(pattern, phi_cut_rad=math.radians(0.6))
        n = pattern.theta_rad.size
        assert np.array_equal(rounded_up[:n], pattern.u[:, 1])


class TestFindLobes:
    def test_dipole_has_two_main_lobes(self):
        pattern = evaluate_pattern(single_element(kind=HERTZIAN_DIPOLE))
        lobes = find_lobes(pattern)
        assert len(lobes) == 2
        assert [round(math.degrees(lb.angle_rad)) for lb in lobes] == [90, 270]
        assert all(lb.is_main for lb in lobes)
        assert all(lb.level_db == pytest.approx(0.0, abs=1e-9) for lb in lobes)

    def test_full_wave_pair_has_four_main_lobes(self):
        pattern = evaluate_pattern(full_wave_pair())
        lobes = find_lobes(pattern)
        main = [lb for lb in lobes if lb.is_main]
        assert len(main) == 4
        angles = sorted(round(math.degrees(lb.angle_rad)) for lb in main)
        assert angles == [0, 90, 180, 270]

    def test_broadside_four_sidelobe_classification(self):
        pattern = evaluate_pattern(broadside_four())
        lobes = find_lobes(pattern, main_threshold_db=10.0)
        assert len(lobes) == 6
        main = [lb for lb in lobes if lb.is_main]
        minor = [lb for lb in lobes if not lb.is_main]
        assert len(main) == 2 and len(minor) == 4
        assert sorted(round(math.degrees(lb.angle_rad)) for lb in main) == [90, 270]
        # Uniform four-element sidelobes sit near -11.3 dB.
        for lb in minor:
            assert lb.level_db == pytest.approx(-11.35, abs=0.2)

    def test_threshold_widens_main_class(self):
        pattern = evaluate_pattern(broadside_four())
        lobes = find_lobes(pattern, main_threshold_db=15.0)
        assert all(lb.is_main for lb in lobes)

    def test_threshold_sign_is_ignored(self):
        pattern = evaluate_pattern(broadside_four())
        a = find_lobes(pattern, main_threshold_db=12.0)
        b = find_lobes(pattern, main_threshold_db=-12.0)
        assert [(lb.angle_rad, lb.is_main) for lb in a] == [
            (lb.angle_rad, lb.is_main) for lb in b
        ]

    def test_uniform_cut_is_degenerate(self):
        pattern = evaluate_pattern(single_element())
        lobes = find_lobes(pattern)
        assert len(lobes) == 1
        assert lobes[0].degenerate and lobes[0].is_main
        assert lobes[0].level_db == 0.0

    def test_zero_cut_rejected(self):
        cancelled = layout_of(
            [[0.0, 0.0, 0.1], [0.0, 0.0, 0.1]], [1.0 + 0j, -1.0 + 0j]
        )
        with pytest.raises(ValueError, match="zero"):
            find_lobes(evaluate_pattern(cancelled))

    def test_plateau_merges_to_midpoint(self):
        theta, phi = make_grid()
        u = np.ones((theta.size, phi.size))
        u[89:92, :] = 2.0  # flat top spanning 89..91 degrees
        pattern = RadiationPattern(theta_rad=theta, phi_rad=phi, u=u, frequency_hz=F0)
        lobes = find_lobes(pattern)
        assert len(lobes) == 2  # the opposite half-plane shows the mirror lobe
        assert math.degrees(lobes[0].angle_rad) == pytest.approx(90.0, abs=1e-9)
        assert math.degrees(lobes[1].angle_rad) == pytest.approx(270.0, abs=1e-9)

    def test_plateau_across_the_wrap(self):
        theta, phi = make_grid()
        u = np.ones((theta.size, phi.size))
        u[0:3, :] = 2.0  # flat top straddling theta = 0
        pattern = RadiationPattern(theta_rad=theta, phi_rad=phi, u=u, frequency_hz=F0)
        lobes = find_lobes(pattern)
        near_zero = [
            lb
            for lb in lobes
            if min(math.degrees(lb.angle_rad), 360.0 - math.degrees(lb.angle_rad)) < 5.0
        ]
        assert len(near_zero) == 1
        wrapped = math.degrees(near_zero[0].angle_rad)
        assert min(wrapped, 360.0 - wrapped) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# The block evaluator against the serial loop
#
# ``reference_pattern`` is the per-element loop: one block of theta rows at a
# time, with ``np.exp(1j * phase)`` per element.  ``reference_factored_pattern``
# splits the phase by axis, exp(j k r.u) = X(x) Y(y) Z(z), as ``evaluate_pattern``
# does for a lattice: a layout with fewer distinct x and y than elements.
# ``evaluate_pattern`` must give the bits of the reference for its path at any
# chunk size and CPU count, and a lattice must also lie within 1e-13 u_max of
# the loop.


def reference_pattern(layout, theta, phi, chunk_rows=64):
    sin_t = np.sin(theta)[:, None]
    cos_t = np.cos(theta)[:, None]
    cos_p = np.cos(phi)[None, :]
    sin_p = np.sin(phi)[None, :]
    k = layout.wavenumber
    weights = layout.weights
    pos = layout.positions_m
    dipole = layout.element.kind == HERTZIAN_DIPOLE
    axis = layout.element.unit_axis() if dipole else None
    u = np.empty((theta.size, phi.size), dtype=float)
    for start in range(0, theta.size, chunk_rows):
        stop = min(start + chunk_rows, theta.size)
        ux = sin_t[start:stop] * cos_p
        uy = sin_t[start:stop] * sin_p
        uz = np.broadcast_to(cos_t[start:stop], ux.shape)
        af = np.zeros(ux.shape, dtype=complex)
        for n in range(layout.n_elements):
            phase = k * (pos[n, 0] * ux + pos[n, 1] * uy + pos[n, 2] * uz)
            af += weights[n] * np.exp(1j * phase)
        block = np.abs(af) ** 2
        if dipole:
            proj = ux * axis[0] + uy * axis[1] + uz * axis[2]
            block = block * np.maximum(1.0 - proj**2, 0.0)
        u[start:stop] = block
    return u


def is_lattice(layout):
    n_x, n_y = (np.unique(layout.positions_m[:, axis]).size for axis in (0, 1))
    return n_x + n_y < layout.n_elements


def reference_factored_pattern(layout, theta, phi, chunk_rows=64):
    """The lattice path from its formula: for each distinct coordinate of the axis with
    more distinct values (y on a tie), in ascending order, ``inner`` sums
    ``(w_n Z(z_n)) X(x_n)`` over its elements in element order, and ``af += Y inner``.
    Each factor is ``np.exp(1j * ((c * u) * k))``, with Z a column per theta row."""
    pos = layout.positions_m
    values = [np.unique(pos[:, axis], return_inverse=True) for axis in range(3)]
    table_axis = 1 if values[1][0].size < values[0][0].size else 0
    sum_axis = 1 - table_axis
    k = layout.wavenumber
    dipole = layout.element.kind == HERTZIAN_DIPOLE
    u = np.empty((theta.size, phi.size), dtype=float)
    for start in range(0, theta.size, chunk_rows):
        t = theta[start:start + chunk_rows, None]
        direction = (np.sin(t) * np.cos(phi)[None, :], np.sin(t) * np.sin(phi)[None, :],
                     np.cos(t))

        def factor(axis, c):
            return np.exp(1j * ((c * direction[axis]) * k))

        af = np.zeros(direction[0].shape, dtype=complex)
        for i, c in enumerate(values[sum_axis][0]):
            inner = np.zeros(af.shape, dtype=complex)
            for n in range(layout.n_elements):
                if values[sum_axis][1][n] == i:
                    z_part = layout.weights[n] * factor(2, pos[n, 2])
                    inner += z_part * factor(table_axis, pos[n, table_axis])
            af += factor(sum_axis, c) * inner
        block = np.abs(af) ** 2
        if dipole:
            axis = layout.element.unit_axis()
            proj = direction[0] * axis[0] + direction[1] * axis[1] + direction[2] * axis[2]
            block *= np.maximum(1.0 - proj**2, 0.0)
        u[start:start + block.shape[0]] = block
    return u


def _lattice_8x8():
    ix, iy = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    return np.column_stack([ix.ravel(), iy.ravel(), np.zeros(64)]) * 0.5


def _steered(positions_wl, theta_deg, phi_deg):
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    direction = np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])
    return np.exp(-2j * math.pi * (np.asarray(positions_wl) @ direction))


_IRREGULAR = np.random.default_rng(7).uniform([-1.0, -1.0, -0.25], [1.0, 1.0, 0.25], (64, 3))
TILTED = (1.0, 1.0, 0.5)
_RECT_2_PLANES = np.stack(np.meshgrid([0.0, 0.4, 0.8, 1.2], [-0.3, 0.2, 0.7], [0.0, 0.35],
                                      indexing="ij"), axis=-1).reshape(-1, 3)
PATTERN_LAYOUTS = {
    "isotropic_1_real": layout_of([[0.1, -0.2, 0.3]], [2.0 + 0j]),
    "dipole_1_complex": layout_of([[0.0, 0.0, 0.0]], [0.5 - 1.5j], HERTZIAN_DIPOLE, TILTED),
    "isotropic_2_real": layout_of([[0.0, 0.0, -0.25], [0.0, 0.0, 0.25]], [1.0, -0.5]),
    "dipole_2_steered": layout_of(
        [[-0.3, 0.0, 0.0], [0.3, 0.0, 0.0]], _steered([[-0.3, 0.0, 0.0], [0.3, 0.0, 0.0]], 60, 0),
        HERTZIAN_DIPOLE, (0.0, 1.0, 0.0),
    ),
    "isotropic_64_real": layout_of(_lattice_8x8()),
    "isotropic_64_steered": layout_of(_lattice_8x8(), _steered(_lattice_8x8(), 30, 45)),
    "dipole_64_real": layout_of(_IRREGULAR, np.linspace(0.2, 1.0, 64), HERTZIAN_DIPOLE, TILTED),
    "dipole_64_steered": layout_of(
        _IRREGULAR, _steered(_IRREGULAR, 120, 200), HERTZIAN_DIPOLE, TILTED
    ),
    # 4 x 3 positions in two z planes: fewer distinct y than x, so y keeps its tables.
    "dipole_24_two_planes": layout_of(
        _RECT_2_PLANES, np.exp(1j * np.arange(24.0)) * np.linspace(1.0, 0.3, 24),
        HERTZIAN_DIPOLE, TILTED,
    ),
}
GRID = make_grid(2.0, 5.0)  # 91 theta rows


# The path each layout takes; every other layout of PATTERN_LAYOUTS takes the loop.
FACTORED = {"isotropic_64_real", "isotropic_64_steered", "dipole_24_two_planes"}


def assert_same_as_reference(layout, theta, phi, chunk_rows, monkeypatch):
    monkeypatch.setattr(radiation, "_CHUNK_ROWS", chunk_rows)
    got = evaluate_pattern(layout, theta, phi).u
    loop = reference_pattern(layout, theta, phi, chunk_rows)
    if is_lattice(layout):
        want = reference_factored_pattern(layout, theta, phi, chunk_rows)
        assert got.tobytes() == want.tobytes()
        assert np.max(np.abs(got - loop)) <= 1e-13 * loop.max()
    else:
        assert got.tobytes() == loop.tobytes()


def path_taken(layout, monkeypatch):
    """"factored" or "loop": the path ``evaluate_pattern`` gives each block of ``layout``."""
    paths, original = set(), radiation._pattern_rows

    def rows(*args):
        paths.add("loop" if args[-1] is None else "factored")
        original(*args)

    monkeypatch.setattr(radiation, "_pattern_rows", rows)
    evaluate_pattern(layout, *make_grid(30.0, 30.0))
    assert len(paths) == 1
    return paths.pop()


class TestReferenceEquivalence:
    @pytest.mark.parametrize("name", sorted(PATTERN_LAYOUTS))
    def test_each_layout_takes_its_named_path(self, name, monkeypatch):
        layout = PATTERN_LAYOUTS[name]
        want = "factored" if name in FACTORED else "loop"
        assert path_taken(layout, monkeypatch) == want
        assert is_lattice(layout) == (want == "factored")

    # The golden 2x2 lattice has as many distinct x and y as elements; the golden
    # dipole's three elements share x = y = 0.
    @pytest.mark.parametrize("name, want", [("lattice.json", "loop"),
                                            ("dipole.json", "factored")])
    def test_golden_layouts_take_their_named_paths(self, name, want, monkeypatch):
        from test_golden import INPUTS

        layout = radiation.parse_layout(INPUTS[name])
        assert path_taken(layout, monkeypatch) == want
        assert is_lattice(layout) == (want == "factored")

    @pytest.mark.parametrize("chunk", [1, 7, 16, 64, 200])
    @pytest.mark.parametrize("name", sorted(PATTERN_LAYOUTS))
    def test_matches_reference(self, name, chunk, monkeypatch):
        assert_same_as_reference(PATTERN_LAYOUTS[name], *GRID, chunk, monkeypatch)

    # 3 and 1 theta rows per block of 16 or 1: fewer blocks than CPUs, and
    # more threads than this machine may have CPUs.  A short switch interval
    # interleaves the threads often; a block run twice or never would show in
    # the row count (a skipped block's np.empty rows may repeat old bytes).
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("grid, chunk", [((90.0, 10.0), 16), ((90.0, 10.0), 1),
                                             ((2.0, 5.0), 7)])
    def test_any_cpu_count(self, monkeypatch, cpus, grid, chunk):
        monkeypatch.setattr(_cpus, "_usable_cpus", lambda: cpus)
        theta, phi = make_grid(*grid)
        n_blocks = -(-theta.size // chunk)
        original, threads, row_counts = radiation._pattern_rows, set(), []

        def rows(u, *args):
            threads.add(threading.get_ident())
            row_counts.append(u.shape[0])
            original(u, *args)

        monkeypatch.setattr(radiation, "_pattern_rows", rows)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name in ("isotropic_64_steered", "dipole_64_real"):
                threads.clear()
                row_counts.clear()
                assert_same_as_reference(PATTERN_LAYOUTS[name], theta, phi, chunk, monkeypatch)
                assert len(row_counts) == n_blocks and sum(row_counts) == theta.size
                assert 1 <= len(threads) <= min(cpus, n_blocks)
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)


# A lattice block keeps one table per distinct x (or y), each of its rows by all phi: a
# 32 x 32 lattice at a 0.25 deg phi step would hold 11.8 MB of them in 16 rows, and peak
# above 14 MB.  ``_TABLE_BYTES`` (4 MiB) cuts its blocks to 5 rows; the 8 x 8 lattice of the
# benchmark needs 2.9 MB and keeps 16.  The bound is on one thread's peak.
@pytest.mark.parametrize("n, block_rows", [(8, 16), (32, 5)])
def test_lattice_tables_keep_to_their_budget(n, block_rows, monkeypatch):
    monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 1)
    original, row_counts = radiation._pattern_rows, []

    def rows(u, *args):
        row_counts.append(u.shape[0])
        original(u, *args)

    monkeypatch.setattr(radiation, "_pattern_rows", rows)
    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    layout = layout_of(np.column_stack([ix.ravel(), iy.ravel(), np.zeros(n * n)]) * 0.5)
    theta, phi = make_grid(10.0, 0.25)
    tracemalloc.start()
    try:
        got = evaluate_pattern(layout, theta, phi).u
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert row_counts == [block_rows] * (theta.size // block_rows) + [theta.size % block_rows]
    assert got.tobytes() == reference_factored_pattern(layout, theta, phi).tobytes()


# ---------------------------------------------------------------------------
# Both paths against an extended-precision evaluation
#
# Random lattices of 1-6 x 1-6 positions with random spacings, one or two z
# planes, random sparse masks, duplicate positions, complex weights, and
# isotropic or dipole elements; the element order is shuffled.


def random_lattice(seed, jitter=False):
    """A random lattice; with ``jitter``, each coordinate moved by up to 1e-3 wavelengths,
    so that no two x or y are equal and the layout takes the loop."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 3)
    grid = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"),
                    axis=-1).reshape(-1, 3)
    keep = rng.random(len(grid)) < rng.uniform(0.3, 1.0)
    keep[rng.integers(len(grid))] = True
    grid = grid[keep]
    grid = np.concatenate([grid, grid[rng.integers(0, len(grid), rng.integers(0, 4))]])
    pos = rng.permutation(grid) * rng.uniform(0.1, 0.8, 3) + rng.uniform(-1.0, 1.0, 3)
    pos += rng.uniform(-1e-3, 1e-3, pos.shape) if jitter else 0.0
    weights = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
    dipole = rng.random() < 0.5
    return layout_of(pos, weights, HERTZIAN_DIPOLE if dipole else ISOTROPIC,
                     tuple(rng.normal(size=3)) if dipole else (0.0, 0.0, 1.0))


def longdouble_pattern(layout, theta, phi):
    ld = np.longdouble
    t, p = theta.astype(ld)[:, None], phi.astype(ld)[None, :]
    direction = [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t) + 0 * p]
    k = 8 * np.arctan(ld(1)) * ld(layout.frequency_hz) / ld(SPEED_OF_LIGHT)
    re = np.zeros(direction[0].shape, dtype=ld)
    im = np.zeros_like(re)
    for r, w in zip(layout.positions_m.astype(ld), layout.weights):
        phase = k * sum(r[i] * direction[i] for i in range(3))
        c, s = np.cos(phase), np.sin(phase)
        re += ld(w.real) * c - ld(w.imag) * s
        im += ld(w.real) * s + ld(w.imag) * c
    u = re * re + im * im
    if layout.element.kind == HERTZIAN_DIPOLE:
        axis = np.asarray(layout.element.axis, dtype=ld)
        axis /= np.sqrt(np.sum(axis * axis))
        proj = sum(axis[i] * direction[i] for i in range(3))
        u *= np.maximum(1 - proj * proj, 0)
    return u


RANDOM_SEEDS = range(40)


class TestRandomLayouts:
    """Each path within 1e-13 u_max of a ``np.longdouble`` evaluation."""

    def test_both_paths_are_drawn(self):
        lattices = [is_lattice(random_lattice(seed)) for seed in RANDOM_SEEDS]
        assert 20 <= sum(lattices) < len(lattices)
        assert not any(is_lattice(random_lattice(seed, jitter=True)) for seed in RANDOM_SEEDS)

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_within_extended_precision(self, seed, jitter):
        layout = random_lattice(seed, jitter)
        got = evaluate_pattern(layout, *GRID).u
        want = longdouble_pattern(layout, *GRID)
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


class TestBlockFailures:
    """A failure in any block is raised from ``evaluate_pattern`` in the calling thread."""

    @pytest.fixture
    def hooked(self, monkeypatch):
        # Exceptions that escape a thread would go to threading.excepthook.
        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)
        return seen

    def test_worker_failure(self, monkeypatch, capfd, hooked):
        monkeypatch.setattr(_cpus, "_usable_cpus", lambda: 4)
        original, failed = radiation._pattern_rows, threading.Event()

        def rows(*args):
            if threading.current_thread() is threading.main_thread():
                # Hold the caller in its first block until a worker has failed.
                assert failed.wait(timeout=30)
                return original(*args)
            failed.set()
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(radiation, "_pattern_rows", rows)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            evaluate_pattern(broadside_four(), *GRID)
        assert threading.active_count() == before
        assert hooked == [] and capfd.readouterr().err == ""

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_caller_failure(self, monkeypatch, capfd, hooked, cpus):
        monkeypatch.setattr(_cpus, "_usable_cpus", lambda: cpus)
        original, calls, failed = radiation._pattern_rows, [], threading.Event()

        def rows(*args):
            calls.append(None)
            if threading.current_thread() is threading.main_thread():
                failed.set()
                raise MemoryError("injected caller failure")
            # Hold each worker in its first block until the caller has failed.
            assert failed.wait(timeout=30)
            original(*args)

        monkeypatch.setattr(radiation, "_pattern_rows", rows)
        monkeypatch.setattr(radiation, "_CHUNK_ROWS", 1)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="injected caller failure"):
            evaluate_pattern(broadside_four(), *GRID)
        assert threading.active_count() == before
        assert hooked == [] and capfd.readouterr().err == ""
        assert len(calls) <= cpus  # the first failure stops the rest


# ---------------------------------------------------------------------------
# find_lobes against its per-sample loop
#
# ``reference_find_lobes`` is the loop that the run scan replaced: a run id per
# sample, a merge of the run across the wrap, and a ``while`` unwrap per angle.


def _reference_circular_mean_angle(angles, start, length):
    n = angles.size
    idx = [(start + k) % n for k in range(length)]
    base = angles[idx[0]]
    total = 0.0
    for i in idx:
        a = angles[i]
        while a < base:
            a += 2.0 * math.pi
        total += a
    return (total / length) % (2.0 * math.pi)


def reference_find_lobes(pattern, phi_cut_rad=0.0, main_threshold_db=10.0):
    angles, values = polar_cut(pattern, phi_cut_rad)
    m = values.size
    peak = float(values.max())
    if peak <= 0:
        raise ValueError("cut is identically zero")
    tol = radiation._PLATEAU_RTOL * peak
    threshold_db = -abs(main_threshold_db)
    if float(values.min()) >= peak - tol:
        return [radiation.Lobe(float(angles[0]), peak, 0.0, True, degenerate=True)]
    run_id = np.zeros(m, dtype=int)
    current = 0
    for i in range(1, m):
        if abs(values[i] - values[i - 1]) > tol:
            current += 1
        run_id[i] = current
    if abs(values[0] - values[-1]) <= tol:
        run_id[run_id == run_id[-1]] = 0
    lobes = []
    for rid in np.unique(run_id):
        members = np.nonzero(run_id == rid)[0]
        if rid == 0 and run_id[-1] == 0 and run_id[0] == 0 and members.size < m:
            tail = members[np.nonzero(np.diff(members) > 1)[0] + 1]
            if tail.size:
                members = np.concatenate([tail, members[: members.size - tail.size]])
        start = int(members[0])
        length = members.size
        prev_val = values[(start - 1) % m]
        next_val = values[(start + length) % m]
        level = float(values[start])
        if level > prev_val + tol and level > next_val + tol:
            angle = _reference_circular_mean_angle(angles, start, length)
            level_db = 10.0 * math.log10(level / peak)
            lobes.append(radiation.Lobe(float(angle), level, level_db, level_db >= threshold_db))
    lobes.sort(key=lambda lb: lb.angle_rad)
    return lobes


def pattern_with_cut(values, theta=None):
    """A two-column pattern (phi 0 and pi) whose phi = 0 polar cut is ``values``."""
    n = (len(values) + 2) // 2
    if theta is None:
        theta = np.linspace(0.0, math.pi, n)
    u = np.empty((n, 2))
    u[:, 0] = values[:n]
    u[-2:0:-1, 1] = values[n:]
    u[[0, -1], 1] = u[[0, -1], 0]
    return RadiationPattern(theta_rad=theta, phi_rad=[0.0, math.pi], u=u, frequency_hz=F0)


def random_theta(rng, n):
    """A non-uniform theta grid over [0, pi] with ``n`` points."""
    theta = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
    theta *= math.pi / theta[-1]
    theta[-1] = math.pi
    return theta


class TestFindLobesReference:
    """The run scan against the per-sample loop, compared with ``==``."""

    def assert_same(self, pattern, **kw):
        got = find_lobes(pattern, **kw)
        assert got == reference_find_lobes(pattern, **kw)
        return got

    @pytest.mark.parametrize("kind", ["random", "integer", "wrap"])
    def test_random_cuts(self, rng, kind):
        for _ in range(1500):
            n = int(rng.integers(3, 40))
            m = 2 * n - 2
            if kind == "random":
                values = rng.uniform(0.0, 1.0, m)
            else:  # plateaus: few distinct levels, so runs of equal samples
                values = rng.integers(0, 4, m).astype(float) + 1.0
            if kind == "wrap":  # one plateau over the wrap point, at the peak
                k = int(rng.integers(1, min(n, 6)))
                values[:k] = values[m - k:] = 5.0
            theta = np.linspace(0.0, math.pi, n) if rng.random() < 0.5 else random_theta(rng, n)
            pattern = pattern_with_cut(values, theta)
            self.assert_same(pattern, main_threshold_db=float(rng.uniform(0.5, 20.0)))

    def test_plateau_across_the_wrap_is_one_lobe(self):
        values = np.array([4.0, 4.0, 1.0, 2.0, 1.0, 1.0, 3.0, 4.0])
        lobes = self.assert_same(pattern_with_cut(values))
        assert [lb.level for lb in lobes] == [4.0, 2.0]
        wrapped = lobes[0].angle_rad  # the midpoint of 7 pi / 4, 0 and pi / 4
        assert min(wrapped, 2.0 * math.pi - wrapped) == pytest.approx(0.0, abs=1e-12)

    def test_wrap_plateau_on_a_grid_starting_below_zero(self):
        # theta may start up to 1e-12 below zero.  ``reference_find_lobes``
        # unwraps the -1e-12 sample twice, past the 2 pi + 5e-13 one, and puts
        # this lobe at pi: the one case where the scan is not held to the loop.
        theta = np.concatenate([[-1e-12, -5e-13], np.linspace(0.5, math.pi, 6)])
        values = np.ones(2 * theta.size - 2)
        values[0] = values[-1] = 2.0
        (lobe,) = find_lobes(pattern_with_cut(values, theta))
        assert min(lobe.angle_rad, 2.0 * math.pi - lobe.angle_rad) < 1e-12

    @pytest.mark.parametrize("bounce", [False, True])
    def test_slow_drift_has_no_lobe(self, bounce):
        # Every adjacent step is within the plateau tolerance, but the cut is not
        # uniform; with ``bounce`` the step across the wrap is within it too.
        ramp = 1.0 + 0.4e-9 * np.arange(50)
        values = np.concatenate([ramp, ramp[::-1]]) if bounce else np.concatenate([ramp, ramp])
        lobes = self.assert_same(pattern_with_cut(values))
        assert lobes == []

    @pytest.mark.parametrize("name", sorted(PATTERN_LAYOUTS))
    def test_every_layout(self, name):
        pattern = evaluate_pattern(PATTERN_LAYOUTS[name], *GRID)
        for phi_cut_deg in (0.0, 37.0, 90.0, 200.0):
            for threshold in (3.0, 10.0, 30.0):
                self.assert_same(pattern, phi_cut_rad=math.radians(phi_cut_deg),
                                 main_threshold_db=threshold)


class TestFrozen:
    def test_layout_is_frozen(self):
        positions, weights = np.zeros((2, 3)), np.ones(2, dtype=complex)
        layout = ArrayLayout(positions_m=positions, weights=weights, frequency_hz=F0)
        for name, value in (("weights", "x"), ("frequency_hz", 2e9), ("positions_m", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layout, name, value)
        with pytest.raises(ValueError, match="read-only"):
            layout.positions_m[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            layout.weights[0] = 5.0
        positions[0, 0], weights[0] = 1.0, 5.0  # the caller's arrays stay writable
        assert layout.positions_m[0, 0] == 1.0 and layout.weights[0] == 5.0
        assert layout == layout and hash(layout) == hash(layout)

    def test_pattern_is_frozen(self):
        theta, phi = make_grid(30.0, 90.0)
        u = np.ones((theta.size, phi.size))
        pattern = RadiationPattern(theta_rad=theta, phi_rad=phi, u=u, frequency_hz=F0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pattern.u = np.zeros_like(u)
        for name in ("theta_rad", "phi_rad", "u"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(pattern, name)[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            pattern.u[3, 3] = -5.0  # would bypass the non-negative check
        assert directivity(pattern) == pytest.approx(1.0)
        u[3, 3] = 2.0  # the caller's array stays writable
        assert pattern.u[3, 3] == 2.0

    def test_evaluated_pattern_is_read_only(self):
        pattern = evaluate_pattern(single_element(), *make_grid(30.0, 90.0))
        assert not pattern.u.flags.writeable


class TestParseLayout:
    def test_reads_every_key(self):
        layout = radiation.parse_layout(
            '{"frequency_hz": 2e9, "positions": [[0, 0, 0], [0.1, 0, 0]],'
            ' "weights": [1, [0, -1]], "element": {"kind": "hertzian-dipole", "axis": [1, 0, 0]}}'
        )
        assert layout.frequency_hz == 2e9
        assert np.array_equal(layout.positions_m, [[0, 0, 0], [0.1, 0, 0]])
        assert np.array_equal(layout.weights, [1, -1j])
        assert layout.element == radiation.ElementModel(kind="hertzian-dipole", axis=(1, 0, 0))

    @pytest.mark.parametrize("text,message", [
        ('{"frequency_hz": 1e9,\n "positions": [[0, 0, 0]]', "line 2: Expecting ',' delimiter"),
        ("[1]", "layout must be a JSON object"),
        ('{"positions": []}', "missing layout keys: frequency_hz"),
        ('{"frequency_hz": 1, "positions": [[0, 0]]}', "positions must be an (n, 3) array"),
        ('{"frequency_hz": 1, "positions": [[0, 0, 0]], "element": {"axis": 5}}',
         "element axis and footprint_mm must be number lists"),
        ('{"frequency_hz": 1, "positions": [[0, 0, 0]], "element": {"axis": [1e999, 0, 0]}}',
         "axis must be a finite non-zero 3-vector"),
        ('{"frequency_hz": 1, "positions": [[0, 0, 0]], "weights": [[null, 1]]}',
         "complex() first argument must be a string or a number, not 'NoneType'"),
    ])
    def test_rejections_are_value_errors(self, text, message):
        with pytest.raises(ValueError) as info:
            radiation.parse_layout(text)
        assert str(info.value) == message

    def test_json_syntax_error_carries_its_line(self):
        with pytest.raises(ValueError) as info:
            radiation.parse_layout('{"frequency_hz": 1e9,\n\n "positions": [[0, 0, 0]]')
        assert info.value.line_number == 3 and str(info.value).startswith("line 3: ")
