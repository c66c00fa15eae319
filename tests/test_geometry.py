import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysmooth import ElementKind, geometry, quality
from polysmooth.errors import DegenerateElement, InvalidPolygon, InvalidSpec
from polysmooth.fdcheck import fd_gradient, relative_error
from polysmooth.generators import (
    icosahedron_polyhedron,
    random_element_coords,
    random_rotation,
    regular_element_coords,
)
from polysmooth.geometry import (
    FACES,
    _cross_cm,
    element_field,
    element_iq,
    element_iq_gradient,
    element_iq_gradients,
    element_iqs,
    element_mean_boundary_area,
    element_mean_volume,
    polygon_normal,
    polyhedron_iq,
    polyhedron_iq_gradient,
    polyhedron_mean_area,
    polyhedron_mean_volume,
    polyhedron_volume_gradient,
    tet_signed_volume,
)
from polysmooth.smoothing import SmoothingConfig, smooth_polyhedron

ALL_KINDS = list(ElementKind)

coords3 = st.tuples(
    st.floats(-10, 10, allow_nan=False), st.floats(-10, 10), st.floats(-10, 10)
)


# -- generalized face normal -------------------------------------------------


def test_triangle_normal():
    nu = polygon_normal([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert np.allclose(nu, [0, 0, 1], atol=1e-15)


def test_unit_square_normal_is_twice_area():
    nu = polygon_normal([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    assert np.allclose(nu, [0, 0, 2], atol=1e-15)


def test_planar_polygon_norm_is_twice_enclosed_area():
    # irregular planar pentagon; shoelace area as the oracle
    pts2d = np.array([[0, 0], [2, 0], [2.5, 1.2], [1, 2.4], [-0.5, 1.0]])
    shoelace = 0.5 * abs(
        sum(
            pts2d[i, 0] * pts2d[(i + 1) % 5, 1] - pts2d[(i + 1) % 5, 0] * pts2d[i, 1]
            for i in range(5)
        )
    )
    pts = np.column_stack([pts2d, np.zeros(5)])
    nu = polygon_normal(pts)
    assert np.isclose(np.linalg.norm(nu), 2 * shoelace, rtol=1e-13)
    assert nu[2] > 0  # right-hand rule for counterclockwise traversal


@settings(deadline=None, max_examples=40)
@given(st.lists(coords3, min_size=3, max_size=7), coords3)
def test_polygon_normal_translation_invariant(points, shift):
    pts = np.asarray(points, dtype=float)
    t = np.asarray(shift, dtype=float)
    a = polygon_normal(pts)
    b = polygon_normal(pts + t)
    assert np.allclose(a, b, atol=1e-10 * max(1.0, np.abs(pts).max() * np.abs(t).max()))


def test_polygon_normal_needs_three_points():
    with pytest.raises(InvalidPolygon):
        polygon_normal([(0, 0, 0), (1, 0, 0)])


# -- signed volume -------------------------------------------------------------


def test_unit_tet_volume():
    x = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert tet_signed_volume(x) == pytest.approx(1 / 6, rel=1e-15)


def test_coplanar_tet_volume_zero():
    x = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert tet_signed_volume(x) == 0.0


def test_swap_reverses_sign():
    x = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float)
    swapped = x[[0, 1, 3, 2]]
    assert tet_signed_volume(swapped) == pytest.approx(-1 / 6, rel=1e-15)


# -- mean volumes --------------------------------------------------------------


def test_unit_pyramid_mean_volume():
    x = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0.5, 0.5, 1)]
    assert element_mean_volume(ElementKind.PYRAMID, x) == pytest.approx(1 / 3, rel=1e-14)


def test_unit_prism_mean_volume():
    x = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
    assert element_mean_volume(ElementKind.PRISM, x) == pytest.approx(1 / 2, rel=1e-14)


def test_unit_cube_mean_volume():
    cube = regular_element_coords(ElementKind.HEXA)
    assert element_mean_volume(ElementKind.HEXA, cube) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_volume_translation_invariant_and_cubic(kind, rng):
    x = random_element_coords(kind, rng)
    v = element_mean_volume(kind, x)
    assert element_mean_volume(kind, x + np.array([3.0, -7.0, 11.0])) == pytest.approx(v, rel=1e-10)
    assert element_mean_volume(kind, 2.0 * x) == pytest.approx(8.0 * v, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_volume_matches_divergence_form(kind, rng):
    # independent route: divergence-theorem volume over the mean-triangulated
    # boundary faces must reproduce the per-kind definitions
    for _ in range(20):
        x = random_element_coords(kind, rng)
        assert polyhedron_mean_volume(FACES[kind], x) == pytest.approx(
            element_mean_volume(kind, x), rel=1e-12, abs=1e-15
        )


# -- transformation field ------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_field_is_six_times_volume_gradient(kind, rng):
    for _ in range(10):
        x = random_element_coords(kind, rng)
        fd = fd_gradient(lambda y: element_mean_volume(kind, y), x)
        assert relative_error(element_field(kind, x) / 6.0, fd) < 1e-6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_field_degree_two_homogeneity(kind, rng):
    x = random_element_coords(kind, rng)
    assert np.allclose(element_field(kind, 2.0 * x), 4.0 * element_field(kind, x), rtol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_field_translation_invariant(kind, rng):
    x = random_element_coords(kind, rng)
    f = element_field(kind, x)
    g = element_field(kind, x + np.array([5.0, -2.0, 9.0]))
    assert np.allclose(f, g, atol=1e-11 * max(1.0, np.abs(f).max()))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_field_rotation_equivariant(kind, rng):
    x = random_element_coords(kind, rng)
    r = random_rotation(rng)
    assert np.allclose(element_field(kind, x @ r.T), element_field(kind, x) @ r.T, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_euler_identity(kind, rng):
    for _ in range(25):
        x = random_element_coords(kind, rng)
        lhs = float(np.sum(x * element_field(kind, x)))
        rhs = 18.0 * element_mean_volume(kind, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_field_jacobian_symmetric(kind, rng):
    x = random_element_coords(kind, rng, transform=False)
    n = x.size
    h = 1e-6
    jac = np.empty((n, n))
    flat = x.reshape(-1)
    for k in range(n):
        plus, minus = flat.copy(), flat.copy()
        plus[k] += h
        minus[k] -= h
        jac[:, k] = (
            element_field(kind, plus.reshape(-1, 3)) - element_field(kind, minus.reshape(-1, 3))
        ).reshape(-1) / (2 * h)
    asym = np.abs(jac - jac.T).max() / np.abs(jac).max()
    assert asym < 1e-6


def test_regular_tet_field_is_radial():
    x = regular_element_coords(ElementKind.TETRA)
    xc = x - x.mean(axis=0)
    f = element_field(ElementKind.TETRA, xc)
    # parallel to the centered coordinates with one positive factor
    factors = np.linalg.norm(f, axis=1) / np.linalg.norm(xc, axis=1)
    assert np.allclose(factors, factors[0], rtol=1e-12)
    assert np.einsum("ij,ij->i", f, xc).min() > 0
    cross = np.cross(f, xc)
    assert np.abs(cross).max() < 1e-14


# -- mean boundary area --------------------------------------------------------


def test_cube_area_six():
    cube = regular_element_coords(ElementKind.HEXA)
    assert element_mean_boundary_area(ElementKind.HEXA, cube) == pytest.approx(6.0, rel=1e-14)


def test_regular_tet_area_sqrt3():
    x = regular_element_coords(ElementKind.TETRA)
    assert element_mean_boundary_area(ElementKind.TETRA, x) == pytest.approx(math.sqrt(3), rel=1e-13)


def test_planar_quad_mean_area_exact(rng):
    # planar quads: both diagonal splits agree, the mean equals the exact area
    base = np.array([[0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]], dtype=float)
    pyramid = np.vstack([base, [1.0, 0.5, 3.0]])
    area = element_mean_boundary_area(ElementKind.PYRAMID, pyramid)
    tris = area - 2.0  # quad base contributes its exact area 2
    by_halves = sum(
        0.5 * np.linalg.norm(polygon_normal(pyramid[list(f)]))
        for f in FACES[ElementKind.PYRAMID][1:]
    )
    assert tris == pytest.approx(by_halves, rel=1e-13)


# -- isoperimetric quotient ------------------------------------------------------


def test_cube_iq_exact():
    cube = regular_element_coords(ElementKind.HEXA)
    assert element_iq(ElementKind.HEXA, cube) == pytest.approx(math.sqrt(math.pi / 6.0), rel=1e-12)


def test_regular_tet_iq_from_formula():
    # oracle: direct evaluation from exact unit-edge quantities
    vol = math.sqrt(2) / 12
    area = math.sqrt(3)
    expected = 6 * math.sqrt(math.pi) * vol / area**1.5
    x = regular_element_coords(ElementKind.TETRA)
    assert element_iq(ElementKind.TETRA, x) == pytest.approx(expected, rel=1e-13)
    assert expected < 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_iq_scale_invariant(kind, rng):
    x = random_element_coords(kind, rng)
    v = element_iq(kind, x)
    assert element_iq(kind, 3.7 * x) == pytest.approx(v, rel=1e-12)
    assert v < 1.0


def test_iq_degenerate_raises():
    flat = np.zeros((8, 3))
    with pytest.raises(DegenerateElement):
        element_iq(ElementKind.HEXA, flat)


def test_zero_area_boundary_triangle_raises_in_iq_gradients():
    x = regular_element_coords(ElementKind.HEXA).copy()
    x[1] = 0.5 * (x[0] + x[2])  # on the bottom diagonal: split triangle (0, 2, 1) is flat
    message = "^zero-area triangle in boundary face$"
    with pytest.raises(DegenerateElement, match=message):
        element_iq_gradient(ElementKind.HEXA, x)
    with pytest.raises(DegenerateElement, match=message):
        polyhedron_iq_gradient(FACES[ElementKind.HEXA], x)
    # the quotient itself stays defined: only its gradient needs every triangle's normal
    assert element_iq(ElementKind.HEXA, x) > 0 and polyhedron_iq(FACES[ElementKind.HEXA], x) > 0


def test_zero_area_triangle_reported_before_vanished_area():
    line = np.zeros((8, 3))
    line[:, 0] = np.arange(8.0)  # collinear: every triangle and the whole boundary are flat
    faces = FACES[ElementKind.HEXA]
    with pytest.raises(DegenerateElement, match="^zero-area triangle in boundary face$"):
        element_iq_gradient(ElementKind.HEXA, line)
    with pytest.raises(DegenerateElement, match="^zero-area triangle in boundary face$"):
        polyhedron_iq_gradient(faces, line)
    # the quotient itself has only the area check
    with pytest.raises(DegenerateElement, match="^boundary area vanished"):
        element_iq(ElementKind.HEXA, line)
    with pytest.raises(DegenerateElement, match="^boundary area vanished"):
        polyhedron_iq(faces, line)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_degenerate_element_in_a_later_block_keeps_its_message(kind):
    # a batch over many gather blocks, regular but for its last element, which is collinear
    x = np.repeat(regular_element_coords(kind)[None], 3000, axis=0)
    x[-1] = 0.0
    x[-1, :, 0] = np.arange(kind.vertex_count)
    with pytest.raises(DegenerateElement, match="^zero-area triangle in boundary face$"):
        element_iq_gradients(kind, x)
    with pytest.raises(DegenerateElement, match="^boundary area vanished"):
        element_iqs(kind, x)


@pytest.mark.parametrize("fn", [
    polyhedron_mean_volume, polyhedron_volume_gradient, polyhedron_mean_area,
    polyhedron_iq, polyhedron_iq_gradient,
])
def test_pentagon_face_is_invalid_polygon(fn):
    # pentagonal prism: two pentagon caps, five quadrilateral sides
    angles = 2 * np.pi * np.arange(5) / 5
    ring = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(5)])
    x = np.vstack([ring, ring + [0.0, 0.0, 1.0]])
    faces = [(4, 3, 2, 1, 0), (5, 6, 7, 8, 9)] + [(i, (i + 1) % 5, (i + 1) % 5 + 5, i + 5) for i in range(5)]
    with pytest.raises(InvalidPolygon, match="triangles or quadrilaterals, got 5 vertices"):
        fn(faces, x)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_iq_gradient_matches_fd(kind, rng):
    for _ in range(5):
        x = random_element_coords(kind, rng)
        fd = fd_gradient(lambda y: element_iq(kind, y), x)
        assert relative_error(element_iq_gradient(kind, x), fd) < 1e-6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_iq_gradient_euler_degree_zero(kind, rng):
    x = random_element_coords(kind, rng)
    g = element_iq_gradient(kind, x)
    assert abs(float(np.sum(x * g))) < 1e-12 * max(1.0, np.abs(g).max() * np.abs(x).max())


# -- generic polyhedron ----------------------------------------------------------


def test_icosahedron_iq_gradient_vanishes_at_regular():
    coords, faces = icosahedron_polyhedron()
    g = polyhedron_iq_gradient(faces, coords)
    assert np.abs(g).max() < 1e-14


def test_icosahedron_volume_and_area_closed_forms():
    coords, faces = icosahedron_polyhedron()
    a = 2.0  # edge length
    vol = 5.0 / 12.0 * (3.0 + math.sqrt(5.0)) * a**3
    area = 5.0 * math.sqrt(3.0) * a**2
    assert polyhedron_mean_volume(faces, coords) == pytest.approx(vol, rel=1e-13)
    assert polyhedron_mean_area(faces, coords) == pytest.approx(area, rel=1e-13)


def test_polyhedron_volume_gradient_matches_fd(rng):
    coords, faces = icosahedron_polyhedron()
    x = coords + rng.uniform(-0.1, 0.1, coords.shape)
    fd = fd_gradient(lambda y: polyhedron_mean_volume(faces, y), x)
    assert relative_error(polyhedron_volume_gradient(faces, x), fd) < 1e-6


def test_polyhedron_iq_gradient_matches_fd(rng):
    coords, faces = icosahedron_polyhedron()
    x = coords + rng.uniform(-0.1, 0.1, coords.shape)
    fd = fd_gradient(lambda y: polyhedron_iq(faces, y), x)
    assert relative_error(polyhedron_iq_gradient(faces, x), fd) < 1e-6


def test_polyhedron_iq_sign_follows_the_mean_volume_on_coplanar_vertices(rng):
    # every vertex in one plane: the volume is rounding of either sign, and the iq must carry that sign
    coords, faces = icosahedron_polyhedron()
    for _ in range(300):
        a, b = rng.uniform(-1.0, 1.0, 2)
        x = coords.copy()
        x[:, 2] = a * x[:, 0] + b * x[:, 1] + 0.3
        assert np.sign(polyhedron_iq(faces, x)) == np.sign(polyhedron_mean_volume(faces, x))


def test_polyhedron_functions_take_faces_as_arrays_or_iterators(rng):
    coords, faces = icosahedron_polyhedron()
    x = coords + rng.uniform(-0.1, 0.1, coords.shape)
    for fn in (polyhedron_mean_volume, polyhedron_volume_gradient, polyhedron_mean_area, polyhedron_iq,
               polyhedron_iq_gradient):
        expected = fn(faces, x)
        for given_faces in (np.array(faces), [np.array(f) for f in faces], iter(faces)):
            assert np.array_equal(fn(given_faces, x), expected), fn.__name__


def _smooth_polyhedron(faces, x):
    return smooth_polyhedron(x, faces, SmoothingConfig(max_iterations=1))


POLYHEDRON_FUNCTIONS = [polyhedron_mean_volume, polyhedron_volume_gradient, polyhedron_mean_area, polyhedron_iq,
                        polyhedron_iq_gradient, _smooth_polyhedron]


@pytest.mark.parametrize("fn", POLYHEDRON_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_polyhedron_functions_leave_the_callers_coordinates_writable(fn):
    coords, faces = icosahedron_polyhedron()
    fn(faces, coords)
    assert coords.flags.writeable


_BAD_FACES = {
    "index 12": lambda faces: ((0, 11, 12), *faces[1:]),
    "index -1": lambda faces: ((0, 11, -1), *faces[1:]),
    "repeated index": lambda faces: ((0, 11, 11), *faces[1:]),
    "no faces": lambda faces: (),
    "float faces": lambda faces: np.array(faces, dtype=float),
    "open surface": lambda faces: faces[1:],
    "one face reversed": lambda faces: (faces[0][::-1], *faces[1:]),
}


@pytest.mark.parametrize("fn", POLYHEDRON_FUNCTIONS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("bad", list(_BAD_FACES.values()), ids=list(_BAD_FACES))
def test_polyhedron_functions_reject_bad_faces(fn, bad):
    # -1 would read vertex 11, a repeated index a flat face, and an open surface
    # an iq above the regular one (0.98319 without the first face), without an error
    coords, faces = icosahedron_polyhedron()
    with pytest.raises(InvalidPolygon):
        fn(bad(faces), coords)


@pytest.mark.parametrize("fn", POLYHEDRON_FUNCTIONS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("bad", ["nan", "inf", "shape (12, 2)"])
def test_polyhedron_functions_reject_bad_coordinates(fn, bad):
    coords, faces = icosahedron_polyhedron()
    if bad == "shape (12, 2)":
        coords = coords[:, :2]
    else:
        coords[3, 1] = float(bad)
    with pytest.raises(InvalidSpec):
        fn(faces, coords)


_TETRA, _HEXA = ElementKind.TETRA, ElementKind.HEXA


@pytest.mark.parametrize("fn, args, expected", [
    (geometry.element_mean_volume, (_TETRA, np.zeros((3, 3))), "(4, 3)"),
    (geometry.element_mean_volume, (_HEXA, np.zeros((1, 8, 3))), "(8, 3)"),
    (geometry.element_field, (ElementKind.PRISM, np.zeros(18)), "(6, 3)"),
    (geometry.element_mean_boundary_area, (ElementKind.PYRAMID, np.zeros((5, 2))), "(5, 3)"),
    (geometry.element_iq, (_HEXA, np.zeros((4, 3))), "(8, 3)"),
    (geometry.element_iq_gradient, (_TETRA, np.zeros((3, 4))), "(4, 3)"),
    (geometry.tet_signed_volume, (np.zeros((3, 3)),), "(4, 3)"),
    (quality.mean_ratio, (np.zeros((5, 3)),), "(4, 3)"),
    (quality.mean_ratio_volume_equivalence, (np.zeros((3, 3)),), "(4, 3)"),
    (geometry.element_mean_volumes, (_TETRA, np.zeros((4, 3))), "(m, 4, 3)"),
    (geometry.element_fields, (_HEXA, np.zeros((2, 4, 3))), "(m, 8, 3)"),
    (geometry.element_mean_boundary_areas, (_TETRA, np.zeros((2, 4, 2))), "(m, 4, 3)"),
    (geometry.element_iqs, (_TETRA, np.zeros((2, 2, 4, 3))), "(m, 4, 3)"),
    (geometry.element_iq_gradients, (_HEXA, np.zeros((8, 3))), "(m, 8, 3)"),
    (geometry.tet_signed_volumes, (np.zeros(12),), "(m, 4, 3)"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_element_kernels_name_the_callers_shape(fn, args, expected):
    shape = np.shape(args[-1])
    with pytest.raises(InvalidSpec) as err:
        fn(*args)
    assert str(err.value) == f"expected coordinates of shape {expected}, got {shape}"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kind_faces_reproduce_element_iq(kind, rng):
    x = random_element_coords(kind, rng)
    assert polyhedron_iq(FACES[kind], x) == pytest.approx(element_iq(kind, x), rel=1e-12)


@pytest.mark.parametrize("m", [1, 7, 384, 4096])
def test_cross_is_np_cross_bit_for_bit(m, rng):
    scale = np.exp(rng.uniform(-30, 30, size=(m, 1)))
    u, v = rng.standard_normal((2, m, 3)) * scale
    assert np.array_equal(_cross_cm(u.T, v.T).T, np.cross(u, v))
    assert np.array_equal(_cross_cm(u[:, None].T, v[:, None].T).T, np.cross(u[:, None], v[:, None]))
