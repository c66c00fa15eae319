"""The kernels of ``geometry`` against the code they replaced.

The reference below is the loop form of each earlier kernel, kept verbatim:
the fan sum ``_nu``, the row loop of the field over the vertex-link
polygons, and the per-triangle loops over boundary areas, area gradients
and divergence volumes. The tetra kernels are checked against their slice
form, also verbatim: the field as cross products of strided (m, 3) slices,
the volume as an ``np.einsum`` dot product. The field kernel with a weight
per element is checked, for every kind, against the unweighted field times the
weights. The scatter is checked against ``np.add.at``.

The tetra volume and field add the same terms in the same order as their
references, so they are compared on the bytes, and the sign of a zero counts
too. The triple-product volumes and fields of the other kinds, and every
boundary area and iq kernel, add other terms or in another order: they are
compared at a relative tolerance of 1e-13, about 500 times the double
rounding unit, of each element's scale: its largest entry, the cube of its
size for a volume, the size of the volume term for an iq gradient. The
polyhedron volume and its gradient run the element kernels on the face
tables: for the four kinds they equal ``element_mean_volume`` and
``element_field / 6`` on the bytes, and for the icosahedron they are
compared with the loop about the centroid at that tolerance. Last, the
block walk of ``quality`` is checked against each kernel on whole kind
groups, on the bytes, at and around the tet block size and on a mixed mesh
whose every kind spans blocks. Two tests check the new kernels against
independent references: Gauss quadrature of the trilinear hexahedron, and
central differences of the volume. One test holds every kind's tables to
one layout: the area table is the faces' triangulation, and a coefficient
table is an array, or None when every coefficient is 1. The last tests hold
the memory peak of every kernel on a full block under the free heap that
``quality`` keeps mapped, and count the page faults of repeated smooths in a
fresh process.
"""

import itertools
import math
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from polysmooth import ElementKind, geometry, quality
from polysmooth.errors import DegenerateElement, InvalidPolygon
from polysmooth.fdcheck import fd_gradient, relative_error
from polysmooth.generators import (
    hex_grid,
    icosahedron_polyhedron,
    perturb_mesh,
    random_element_coords,
    regular_element_coords,
    tet_grid,
    unit_element,
)
from polysmooth.mesh import FACES, KIND_CODES, Connectivity, Element, kind_groups, make_mesh
from polysmooth.quality import Measure, scatter_element_fields

ALL_KINDS = list(ElementKind)

# -- reference: the slice form of the tetra kernels ---------------------------


def _ref_tet_volumes(x):
    d1 = x[:, 1] - x[:, 0]
    d2 = x[:, 2] - x[:, 0]
    d3 = x[:, 3] - x[:, 0]
    return np.einsum("ij,ij->i", np.cross(d1, d2), d3) / 6.0


def _ref_tet_fields(x):
    # row i: normal of the face opposite vertex i, added into zeros so a zero is +0.0
    out = np.zeros_like(x)
    for i, (a, b, c) in enumerate(((3, 2, 1), (3, 0, 2), (3, 1, 0), (0, 1, 2))):
        out[:, i] += np.cross(x[:, b] - x[:, a], x[:, c] - x[:, a])
    return out


def _ref_pyramid_volumes(x):
    v = (
        _ref_tet_volumes(x[:, (0, 1, 2, 4)])
        + _ref_tet_volumes(x[:, (0, 2, 3, 4)])
        + _ref_tet_volumes(x[:, (0, 1, 3, 4)])
        + _ref_tet_volumes(x[:, (1, 2, 3, 4)])
    )
    return 0.5 * v


# -- reference: the loop kernels ---------------------------------------------

# Vertex-link polygons defining each row of the transformation field of the
# non-tetra kinds, one pair per element vertex: a neighbor triangle and the
# equator polygon around the vertex, averaged.
_NU_ROWS = {
    ElementKind.PYRAMID: (
        ((4, 3, 1), (4, 3, 2, 1)),
        ((4, 0, 2), (4, 0, 3, 2)),
        ((4, 1, 3), (4, 1, 0, 3)),
        ((4, 2, 0), (4, 2, 1, 0)),
        ((0, 1, 2, 3), (0, 1, 2, 3)),
    ),
    ElementKind.PRISM: (
        ((2, 1, 3), (1, 4, 3, 5, 2)),
        ((0, 2, 4), (2, 5, 4, 3, 0)),
        ((1, 0, 5), (0, 3, 5, 4, 1)),
        ((4, 5, 0), (5, 2, 0, 1, 4)),
        ((5, 3, 1), (3, 0, 1, 2, 5)),
        ((3, 4, 2), (4, 1, 2, 0, 3)),
    ),
    ElementKind.HEXA: (
        ((1, 4, 3), (5, 4, 7, 3, 2, 1)),
        ((2, 5, 0), (6, 5, 4, 0, 3, 2)),
        ((3, 6, 1), (7, 6, 5, 1, 0, 3)),
        ((0, 7, 2), (4, 7, 6, 2, 1, 0)),
        ((0, 5, 7), (5, 6, 7, 3, 0, 1)),
        ((1, 6, 4), (6, 7, 4, 0, 1, 2)),
        ((2, 7, 5), (7, 4, 5, 1, 2, 3)),
        ((3, 4, 6), (4, 5, 6, 2, 3, 0)),
    ),
}


def _nu(x, idx):
    p0 = x[:, idx[0]]
    acc = np.zeros((x.shape[0], 3))
    prev = x[:, idx[1]] - p0
    for a in idx[2:]:
        cur = x[:, a] - p0
        acc += np.cross(prev, cur)
        prev = cur
    return acc


def _ref_fields(kind, x):
    if kind is ElementKind.TETRA:
        return _ref_tet_fields(x)
    out = np.empty_like(x)
    for i, polys in enumerate(_NU_ROWS[kind]):
        acc = _nu(x, polys[0])
        for p in polys[1:]:
            acc = acc + _nu(x, p)
        out[:, i] = acc
    out *= 0.5
    return out


def _ref_mean_volumes(kind, x):
    if kind is ElementKind.TETRA:
        return _ref_tet_volumes(x)
    if kind is ElementKind.PYRAMID:
        return _ref_pyramid_volumes(x)
    xc = x - x.mean(axis=1, keepdims=True)
    return np.einsum("mij,mij->m", xc, _ref_fields(kind, xc)) / 18.0


def _face_triangles(faces):
    tris = []
    for f in faces:
        if len(f) == 3:
            tris.append((f[0], f[1], f[2], 0.5))
        elif len(f) == 4:
            a, b, c, d = f
            for t in ((a, b, c), (a, c, d), (a, b, d), (b, c, d)):
                tris.append((*t, 0.25))
        else:
            raise InvalidPolygon(f"faces must be triangles or quadrilaterals, got {len(f)} vertices")
    return tuple(tris)


def _mean_areas(tris, x):
    total = np.zeros(x.shape[0])
    for a, b, c, w in tris:
        total += w * np.linalg.norm(_nu(x, (a, b, c)), axis=-1)
    return total


def _area_gradients(tris, x, tiny):
    grad = np.zeros_like(x)
    for a, b, c, w in tris:
        nu = _nu(x, (a, b, c))
        nn = np.linalg.norm(nu, axis=-1)
        if np.any(nn <= tiny):
            raise DegenerateElement("zero-area triangle in boundary face")
        u = nu / nn[:, None]
        grad[:, a] += w * np.cross(x[:, b] - x[:, c], u)
        grad[:, b] += w * np.cross(x[:, c] - x[:, a], u)
        grad[:, c] += w * np.cross(x[:, a] - x[:, b], u)
    return grad


def _div_volumes(tris, x):
    xc = x - x.mean(axis=1, keepdims=True)
    total = np.zeros(x.shape[0])
    for a, b, c, w in tris:
        total += (2.0 * w / 6.0) * np.einsum(
            "ij,ij->i", xc[:, a], np.cross(xc[:, b], xc[:, c])
        )
    return total


def _div_volume_gradients(tris, x):
    xc = x - x.mean(axis=1, keepdims=True)
    grad = np.zeros_like(x)
    for a, b, c, w in tris:
        s = 2.0 * w / 6.0
        grad[:, a] += s * np.cross(xc[:, b], xc[:, c])
        grad[:, b] += s * np.cross(xc[:, c], xc[:, a])
        grad[:, c] += s * np.cross(xc[:, a], xc[:, b])
    return grad


_SIX_SQRT_PI = 6.0 * math.sqrt(math.pi)


def _ref_iq(vols, areas):
    return _SIX_SQRT_PI * vols / areas**1.5


def _ref_iq_gradients(tris, x, vols, vgrad):
    diag = np.linalg.norm(x.max(axis=1) - x.min(axis=1), axis=-1)
    agrad = _area_gradients(tris, x, 1e-14 * diag**2)
    areas = _mean_areas(tris, x)
    a32 = areas**1.5
    a52 = areas**2.5
    return _SIX_SQRT_PI * (vgrad / a32[:, None, None] - 1.5 * (vols / a52)[:, None, None] * agrad)


def _reference(kind, x):
    tris = _face_triangles(FACES[kind])
    vols = _ref_mean_volumes(kind, x)
    fields = _ref_fields(kind, x)
    return {
        "element_fields": fields,
        "element_mean_volumes": vols,
        "element_iqs": _ref_iq(vols, _mean_areas(tris, x)),
        "element_iq_gradients": _ref_iq_gradients(tris, x, vols, fields / 6.0),
    }


def _batch(kind, m, rng):
    scale = np.exp(rng.uniform(-3.0, 3.0, size=(m, 1, 1)))
    return np.array([random_element_coords(kind, rng) for _ in range(m)]) * scale


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _largest(a):
    """The largest magnitude of each element (leading index) of a batch."""
    a = np.abs(np.asarray(a, dtype=float))
    return a.reshape(len(a), -1).max(axis=1) if a.ndim else a


def _close(a, b, scale=None, rel=1e-13):
    """Equal shapes, and every entry within ``rel`` of its element's ``scale``, by default its largest entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(_largest(a - b) <= rel * (_largest(b) if scale is None else scale)))


def _volume_scale(x):
    """The cube of each element's largest coordinate difference: a volume near 0 is a sum of larger terms."""
    return _largest(x - x[:, :1]) ** 3


def _iq_gradient_scale(vgrad, areas):
    """The size of the volume term of an iq gradient: at a stationary shape the gradient itself is rounding."""
    return _SIX_SQRT_PI * _largest(vgrad) / areas**1.5


# compared on the bytes for tets, at a relative tolerance otherwise
_TET_BYTES = ("element_fields", "element_mean_volumes")


def _matches(kind, name, got, expected, x):
    if kind is ElementKind.TETRA and name in _TET_BYTES:
        return _same_bits(got, expected)
    if name == "element_mean_volumes":
        return _close(got, expected, _volume_scale(x))
    if name == "element_iq_gradients":
        areas = _mean_areas(_face_triangles(FACES[kind]), x)
        return _close(got, expected, _iq_gradient_scale(_ref_fields(kind, x) / 6.0, areas))
    return _close(got, expected)


# -- tables against loops ----------------------------------------------------

# tets per block of the measure layer's walk
_B = quality._ROWS // geometry.GATHERED_ROWS[ElementKind.TETRA]
# the last size is larger than the iq walk's block of a table kind, so a kernel takes more than the walk gives it
SIZES = [1, 2, 7, 384, 1367]
assert all(SIZES[-1] > quality._ROWS // geometry.IQ_ROWS[kind] for kind in ALL_KINDS if kind is not ElementKind.TETRA)


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_kernels_match_loops(kind, m, rng):
    x = _batch(kind, m, rng)
    for name, expected in _reference(kind, x).items():
        assert _matches(kind, name, getattr(geometry, name)(kind, x), expected, x), name


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_axis_aligned_elements_match_loops(kind):
    # exact zeros in the coordinates: the sign of a zero component must agree too
    mesh = {ElementKind.TETRA: tet_grid(2), ElementKind.HEXA: hex_grid(2)}.get(kind, unit_element(kind))
    x = mesh.vertices[np.array([e.vertices for e in mesh.elements])]
    for name, expected in _reference(kind, x).items():
        assert _matches(kind, name, getattr(geometry, name)(kind, x), expected, x), name


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_kernels_equal_single_calls(kind, rng):
    x = _batch(kind, SIZES[-1], rng)
    for name in _reference(kind, x[:1]):
        batched = getattr(geometry, name)(kind, x)
        single = np.array([getattr(geometry, name)(kind, xi[None])[0] for xi in x])
        assert _same_bits(batched, single), name


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_mean_areas_match_loops_and_single_calls(kind, rng):
    # the area kernel under element_iqs and polyhedron_mean_area, on its own
    tab, x = geometry._KIND_TABLES[kind], _batch(kind, SIZES[-1], rng)
    areas = geometry._mean_areas(tab, x.T)
    assert _close(areas, _mean_areas(_face_triangles(FACES[kind]), x))
    assert _same_bits(areas, [geometry._mean_areas(tab, xi[None].T)[0] for xi in x])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_kind_has_one_table_layout(kind):
    # the area table is the faces' mean triangulation, and a coefficient table an array, or None when all are 1
    tab = geometry._KIND_TABLES[kind]
    tris, weights = geometry._face_triangles(FACES[kind])
    assert np.array_equal(tab.tris, tris.T) and np.array_equal(tab.areas[:, 0], weights)
    for coef in (tab.weights, tab.coef):
        assert coef is None or isinstance(coef, np.ndarray)
        assert coef is None or np.any(coef != 1.0)


def _polyhedron_cases(rng):
    """``(kind, faces, x)``: the icosahedron, as built and moved, with kind None, then one element of each kind."""
    coords, faces = icosahedron_polyhedron()
    yield None, faces, coords
    for _ in range(3):
        yield None, faces, coords + rng.uniform(-0.1, 0.1, size=coords.shape)
    for kind in ElementKind:
        yield kind, FACES[kind], random_element_coords(kind, rng)


def test_polyhedron_functions_match_loops(rng):
    for kind, faces, x in _polyhedron_cases(rng):
        tris, xb = _face_triangles(faces), x[None]
        vols, areas = _div_volumes(tris, xb), _mean_areas(tris, xb)
        vgrad = _div_volume_gradients(tris, xb)
        volume, gradient = geometry.polyhedron_mean_volume(faces, x), geometry.polyhedron_volume_gradient(faces, x)
        if kind is None:
            assert _close(volume, vols[0], _volume_scale(xb)[0])
            assert _close(gradient[None], vgrad)
        else:  # the same table kernels as the element forms
            assert _same_bits(volume, geometry.element_mean_volume(kind, x))
            assert _same_bits(gradient, geometry.element_field(kind, x) / 6.0)
        assert _close(geometry.polyhedron_mean_area(faces, x), areas[0])
        assert _close(geometry.polyhedron_iq(faces, x), _ref_iq(vols, areas)[0])
        assert _close(geometry.polyhedron_iq_gradient(faces, x)[None], _ref_iq_gradients(tris, xb, vols, vgrad),
                      _iq_gradient_scale(vgrad, areas))


# -- independent references: quadrature of the trilinear map, finite differences --

_UNIT_HEXA = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]])


def _trilinear_volumes(x):
    """Volumes of the trilinear maps of hexahedra (m, 8, 3) from the unit cube: 2-point Gauss
    quadrature of the Jacobian determinant, exact for its degree of at most 2 in each variable."""
    points = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)
    total = np.zeros(len(x))
    for p in map(np.array, itertools.product(points, repeat=3)):
        factors = np.where(_UNIT_HEXA == 1, p, 1.0 - p)  # (8, 3): each shape function's three factors
        dshape = np.stack([np.where(_UNIT_HEXA[:, a] == 1, 1.0, -1.0) * np.prod(np.delete(factors, a, axis=1), axis=1)
                           for a in range(3)], axis=1)  # (8, 3): d N_i / d xi_a
        total += np.linalg.det(np.einsum("mic,ia->mca", x, dshape)) / 8.0
    return total


def test_hexa_mean_volume_is_the_trilinear_volume(rng):
    x = _batch(ElementKind.HEXA, 500, rng) + rng.uniform(-10.0, 10.0, size=(500, 1, 3))
    assert _close(_trilinear_volumes(_UNIT_HEXA[None] * 1.0), [1.0])
    assert _close(geometry.element_mean_volumes(ElementKind.HEXA, x), _trilinear_volumes(x), _volume_scale(x))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fields_are_six_times_the_volume_gradients(kind, rng):
    # the mean volume is cubic, so a central difference errs by h^2 / 6 times a bounded third derivative
    for x in _batch(kind, 10, rng):
        fd = fd_gradient(lambda y: geometry.element_mean_volume(kind, y), x, h=1e-5 * _largest(x[None] - x[:1])[0])
        assert relative_error(geometry.element_field(kind, x) / 6.0, fd) < 1e-7


# -- component-major tetra kernels against the slice form ---------------------

TET_SIZES = [1, 2, 384, 48000]
_LATTICE = tet_grid(20)  # 48,000 axis-aligned tets: exact zeros in every edge


def _coords(case, m, rng, n=4):
    """A batch (m, n, 3): tets, or pyramids for n=5."""
    if case == "random":
        return rng.standard_normal((m, n, 3)) * np.exp(rng.uniform(-3.0, 3.0, size=(m, 1, 1)))
    if case == "rounded":  # small integers: zero components and zero products of either sign
        return np.round(rng.uniform(-2.0, 2.0, size=(m, n, 3)))
    lattice = _LATTICE.vertices[kind_groups(_LATTICE)[ElementKind.TETRA][1][:m]]
    return lattice if n == 4 else np.concatenate([lattice, lattice[:, :1] + 0.05], axis=1)


def _layouts(x):
    """``x`` in C order and as the transposed view of a component-major gather."""
    return x, np.ascontiguousarray(x.T).T


@pytest.mark.parametrize("m", TET_SIZES)
@pytest.mark.parametrize("case", ["random", "rounded", "lattice"])
def test_tet_kernels_match_slice_form(case, m, rng):
    x = _coords(case, m, rng)
    vols, fields = _ref_tet_volumes(x), _ref_tet_fields(x)
    for xl in _layouts(x):
        assert _same_bits(geometry.element_mean_volumes(ElementKind.TETRA, xl), vols)
        assert _same_bits(geometry.element_fields(ElementKind.TETRA, xl), fields)


@pytest.mark.parametrize("m", TET_SIZES)
@pytest.mark.parametrize("case", ["random", "rounded", "lattice"])
def test_pyramid_mean_volumes_match_slice_form(case, m, rng):
    x = _coords(case, m, rng, n=5)
    for xl in _layouts(x):
        assert _close(geometry.element_mean_volumes(ElementKind.PYRAMID, xl), _ref_pyramid_volumes(x), _volume_scale(x))


@pytest.mark.parametrize("size", [1, 7, "block", "block + 1"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weighted_fields_are_the_fields_times_the_weights_bit_for_bit(kind, size, rng):
    block = quality._ROWS // geometry.GATHERED_ROWS[kind]
    m = {"block": block, "block + 1": block + 1}.get(size, size)
    x = rng.standard_normal((m, kind.vertex_count, 3)) * np.exp(rng.uniform(-3.0, 3.0, size=(m, 1, 1)))
    # axis-aligned elements moved by whole steps, and rounded ones: zero components and products of either sign
    x[::3] = unit_element(kind).vertices + np.round(rng.uniform(-2.0, 2.0, size=(len(x[::3]), 1, 3)))
    x[1::3] = np.round(x[1::3])
    w = rng.standard_normal(m)
    w[::4], w[2::4] = 0.0, -0.0
    for xl in _layouts(x):
        assert _same_bits(geometry.element_fields(kind, xl, w), geometry.element_fields(kind, xl) * w[:, None, None])


def _ref_scatter(mesh, coords, scale):
    grad = np.zeros((len(coords), 3))
    for kind, (ids, conn) in kind_groups(mesh).items():
        np.add.at(grad, conn, _ref_fields(kind, coords[conn]) * scale[ids][:, None, None])
    return grad


def _scatter_meshes(m):
    """Axis-aligned tet meshes of ``m`` elements, and a perturbed copy."""
    if m <= 2:
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        mesh = make_mesh(pts, [Element(ElementKind.TETRA, (0, 1, 2, 3)), Element(ElementKind.TETRA, (1, 2, 3, 4))][:m])
    else:
        mesh = tet_grid(round((m / 6) ** (1 / 3)))
    return [mesh, perturb_mesh(mesh, 0.015, seed=0, fix_boundary=False)]


@pytest.mark.parametrize("m", TET_SIZES)
def test_scatter_with_scale_matches_add_at(m, rng):
    for mesh in _scatter_meshes(m):
        assert mesh.n_elements == m
        coords = np.array(mesh.vertices)
        scale = rng.standard_normal(m) * np.exp(rng.uniform(-3.0, 3.0, size=m))
        scale[::7] = 0.0  # a zero scale turns a field into zeros of either sign
        expected = _ref_scatter(mesh, coords, scale)
        assert _same_bits(scatter_element_fields(mesh, coords, scale), expected)


def test_mixed_scatter_with_scale_matches_add_at(rng):
    cube = unit_element(ElementKind.HEXA).vertices
    pts = np.vstack([cube, [[0.5, 0.5, 1.7], [0.5, 0.5, -0.8], [1.6, 0.5, 0.5], [1.6, 0.5, 1.5]]])
    elements = [
        Element(ElementKind.TETRA, (0, 2, 1, 9)),
        Element(ElementKind.HEXA, range(8)),
        Element(ElementKind.PYRAMID, (4, 5, 6, 7, 8)),
        Element(ElementKind.PRISM, (1, 2, 10, 5, 6, 11)),
        Element(ElementKind.TETRA, (0, 1, 3, 9)),
    ]
    mesh = perturb_mesh(make_mesh(pts, elements), 0.05, seed=3, fix_boundary=False)
    coords = np.array(mesh.vertices)
    scale = rng.standard_normal(mesh.n_elements)
    expected = _ref_scatter(mesh, coords, scale)
    assert _close(scatter_element_fields(mesh, coords, scale)[None], expected[None])
    # sorted by kind, every kind is one stretch of ids, walked by slices
    order = np.argsort(mesh.elements.codes, kind="stable")
    mesh = make_mesh(mesh.vertices, [elements[i] for i in order])
    assert _slices_only(mesh)
    assert _close(scatter_element_fields(mesh, coords, scale[order])[None], expected[None])


# -- the block walk of quality against whole-group evaluation -----------------

BLOCK_SIZES = [_B - 1, _B, _B + 1, 2 * _B + 3]


def _whole(kernel, mesh, coords, *arrays):
    values = np.empty(mesh.n_elements)
    for kind, (ids, conn) in kind_groups(mesh).items():
        values[ids] = kernel(kind, coords[conn], *(a[ids] for a in arrays))
    return values


def _whole_scatter(kernel, mesh, coords, *arrays, scale=None):
    grad = np.zeros((len(coords), 3))
    for kind, (ids, conn) in kind_groups(mesh).items():
        f = kernel(kind, coords[conn], *(a[ids] for a in arrays))
        np.add.at(grad, conn, f if scale is None else f * scale[ids][:, None, None])
    return grad


def _unit_volume(mesh, k, seed):
    """``mesh`` from a k^3 grid, perturbed, scaled to a geometric mean volume of 1: the q1 product stays finite."""
    mesh = perturb_mesh(mesh, 0.1 / k, seed=seed, fix_boundary=False)
    log_mean = np.log(_whole(geometry.element_mean_volumes, mesh, mesh.vertices)).mean()
    return make_mesh(mesh.vertices * np.exp(-log_mean / 3.0), mesh.elements)


def _tet_cube(m):
    """The first ``m`` tets of a tet grid."""
    k = math.ceil((m / 6) ** (1 / 3))
    grid = tet_grid(k)
    cells = Connectivity(grid.elements.codes[:m], grid.elements.flat[: 4 * m])
    return _unit_volume(make_mesh(grid.vertices, cells), k, m)


def _tet_hex_cube(k):
    """A k^3 grid whose cells split into six tets, but every seventh stays a hexahedron."""
    grid = tet_grid(k)
    tets, hexa = grid.elements.flat.reshape(k**3, 24), hex_grid(k).elements.flat.reshape(k**3, 8)
    is_hex = np.arange(k**3) % 7 == 3
    codes = np.concatenate([[KIND_CODES[ElementKind.HEXA]] if h else [KIND_CODES[ElementKind.TETRA]] * 6
                            for h in is_hex])
    flat = np.concatenate([hexa[i] if h else tets[i] for i, h in enumerate(is_hex)])
    return _unit_volume(make_mesh(grid.vertices, Connectivity(codes, flat)), k, 0)


def _kind_sorted(mesh):
    """``mesh`` with its elements sorted by kind code, each kind in its old order."""
    elements = list(mesh.elements)
    return make_mesh(mesh.vertices, [elements[i] for i in np.argsort(mesh.elements.codes, kind="stable")])


def _slices_only(mesh):
    """Whether every block of both row tables picks its elements by a slice."""
    return all(isinstance(sel, slice) for rows in (geometry.GATHERED_ROWS, geometry.IQ_ROWS)
               for _, sel, _ in quality._blocks(mesh, rows))


def _mixed_cube(k):
    """A k^3 hex grid whose cells, by column, stay hexa, split into two prisms, or into six pyramids
    around an added centre vertex."""
    grid = hex_grid(k)
    points, elements = [grid.vertices], []
    for i, v in enumerate(grid.elements.flat.reshape(-1, 8).tolist()):
        column = (i % k + (i // k) % k) % 3
        if column == 0:
            elements.append(Element(ElementKind.HEXA, v))
        elif column == 1:
            elements.append(Element(ElementKind.PRISM, [v[j] for j in (0, 1, 2, 4, 5, 6)]))
            elements.append(Element(ElementKind.PRISM, [v[j] for j in (0, 2, 3, 4, 6, 7)]))
        else:
            centre = grid.n_vertices + len(points) - 1
            points.append(grid.vertices[v].mean(axis=0)[None])
            for face in FACES[ElementKind.HEXA]:
                elements.append(Element(ElementKind.PYRAMID, [v[j] for j in reversed(face)] + [centre]))
    return _unit_volume(make_mesh(np.vstack(points), elements), k, 0)


@pytest.mark.parametrize("m", [*BLOCK_SIZES, "tets-and-hexa", "mixed", "kind-sorted"])
def test_block_walk_matches_whole_groups(m, rng):
    if m == "tets-and-hexa":
        mesh = _tet_hex_cube(13)
        assert len(kind_groups(mesh)[ElementKind.TETRA][0]) > _B  # the tets span two blocks
    elif m in ("mixed", "kind-sorted"):
        mesh = _mixed_cube(14)
        if m == "kind-sorted":
            mesh = _kind_sorted(mesh)
        assert _slices_only(mesh) is (m == "kind-sorted")
        for kind, (ids, _) in kind_groups(mesh).items():  # 910 hexa, 1,848 prisms, 5,460 pyramids
            assert len(ids) > quality._ROWS // geometry.GATHERED_ROWS[kind]  # each kind spans two blocks
    else:
        mesh = _tet_cube(m)
        assert mesh.n_elements == m
    coords = np.array(mesh.vertices)
    n = mesh.n_elements
    v = _whole(geometry.element_mean_volumes, mesh, coords)
    assert v.min() > 0.0
    assert _same_bits(quality.mesh_mean_volumes(mesh, coords), v)
    scale = rng.standard_normal(n)
    assert _same_bits(scatter_element_fields(mesh, coords), _whole_scatter(geometry.element_fields, mesh, coords))
    assert _same_bits(scatter_element_fields(mesh, coords, scale),
                      _whole_scatter(geometry.element_fields, mesh, coords, scale=scale))
    product = math.exp(float(2.0 * np.log(v).sum()))
    assert 0.0 < product < math.inf
    expected = {
        Measure.PRODUCT_SQUARED: product / 3.0 * _whole_scatter(geometry.element_fields, mesh, coords, scale=1.0 / v),
        Measure.INVERSE_SQUARED_SUM: 1.0 / n / 3.0 * _whole_scatter(
            geometry.element_fields, mesh, coords, scale=v**-3),
        Measure.ISOPERIMETRIC_QUOTIENT: 1.0 / n / 1.0 * _whole_scatter(
            geometry.element_iq_gradients, mesh, coords, v),
    }
    for measure, grad in expected.items():
        got = quality.quality_gradient_field(mesh, coords, quality.QualityMeasureSpec(measure))
        assert _same_bits(got, grad), measure
    iqs = quality.mesh_quality(mesh, coords, quality.QualityMeasureSpec(Measure.ISOPERIMETRIC_QUOTIENT)).per_element
    assert _same_bits(iqs, _whole(geometry.element_iqs, mesh, coords, v))
    if list(kind_groups(mesh)) == [ElementKind.TETRA]:
        ratios = quality.mesh_quality(mesh, coords, quality.QualityMeasureSpec(Measure.MEAN_RATIO)).per_element
        assert _same_bits(ratios, _whole(lambda kind, x: quality._mean_ratios(x), mesh, coords))


def test_product_measure_does_not_depend_on_element_order():
    # 5,460 pyramids in a row: a product formed in element order underflows to 0, though its log is ~0
    spec = quality.QualityMeasureSpec(Measure.PRODUCT_SQUARED)
    built = _mixed_cube(14)
    reports, grads = [], []
    for mesh in (built, _kind_sorted(built)):
        reports.append(quality.mesh_quality(mesh, spec=spec))
        grads.append(quality.quality_gradient_field(mesh, spec=spec))
    assert reports[0].global_value == pytest.approx(1.0, rel=1e-9)
    assert reports[1].global_value == pytest.approx(reports[0].global_value, rel=1e-9)
    assert np.all(np.isfinite(grads[0])) and np.any(grads[0])
    # the sorted mesh numbers its vertices as built, so the gradients compare vertex by vertex
    assert _close(grads[1][None], grads[0][None], rel=1e-9)


# -- the heap the blocks run on ----------------------------------------------


def _traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` holds at once, result included (tracemalloc)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_KERNEL_ROWS = {
    "element_mean_volumes": geometry.GATHERED_ROWS,
    "element_fields": geometry.GATHERED_ROWS,
    "element_iqs": geometry.IQ_ROWS,
    "element_iq_gradients": geometry.IQ_ROWS,
}


@pytest.mark.parametrize("name", _KERNEL_ROWS)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_full_block_peaks_stay_on_the_retained_heap(kind, name, rng):
    # freeing the import-time chunk keeps 2 * quality._HEAP bytes of free heap mapped: a block whose
    # temporaries peak higher hands pages back to the kernel and faults them in again on the next block
    m = quality._ROWS // _KERNEL_ROWS[name][kind]
    x = regular_element_coords(kind) + 0.1 * rng.standard_normal((m, kind.vertex_count, 3))
    x = np.ascontiguousarray(x.T).T  # the component-major layout of geometry.element_batch
    kernel = getattr(geometry, name)
    args = [(kind, x)]
    if name in ("element_iqs", "element_iq_gradients"):
        args.append((kind, x, geometry.element_mean_volumes(kind, x)))  # as the measure layer calls them
    if name == "element_fields":
        args.append((kind, x, rng.standard_normal(m)))  # weighted, as scatter_element_fields calls it
    for a in args:
        assert _traced_peak(kernel, *a) < 2 * quality._HEAP, len(a)


def test_full_block_mean_ratio_peak_stays_on_the_retained_heap(rng):
    m = quality._ROWS // geometry.GATHERED_ROWS[ElementKind.TETRA]
    x = regular_element_coords(ElementKind.TETRA) + 0.1 * rng.standard_normal((m, 4, 3))
    x = np.ascontiguousarray(x.T).T
    assert _traced_peak(quality._mean_ratios, x, geometry.element_mean_volumes(ElementKind.TETRA, x)) < 2 * quality._HEAP


@pytest.mark.parametrize("measure", [Measure.PRODUCT_SQUARED, Measure.ISOPERIMETRIC_QUOTIENT])
def test_mixed_field_pass_peak_stays_on_the_retained_heap(measure):
    mesh = _mixed_cube(14)  # every kind spans two blocks
    coords = np.array(mesh.vertices)
    spec = quality.QualityMeasureSpec(measure)
    assert _traced_peak(quality.quality_gradient_field, mesh, coords, spec) < 2 * quality._HEAP


_FAULTS = """
import resource
from polysmooth import generators, quality, smoothing
meshes = [generators.perturb_mesh(generators.tet_grid(8), 0.3 / 8, seed=0),
          generators.perturb_mesh(generators.hex_grid(10), 0.3 / 10, seed=0)]
for mesh in meshes:
    for measure in (quality.Measure.PRODUCT_SQUARED, quality.Measure.ISOPERIMETRIC_QUOTIENT):
        config = smoothing.SmoothingConfig(quality.QualityMeasureSpec(measure, quality.Combiner.SUM), max_iterations=5)
        for _ in range(2):
            smoothing.smooth(mesh, config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            smoothing.smooth(mesh, config)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the retained heap relies on glibc's malloc")
def test_repeated_smooths_take_no_page_faults():
    # a fresh interpreter, so that no earlier test has raised the allocator's thresholds
    proc = subprocess.run([sys.executable, "-c", _FAULTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 4 and max(faults) < 100, faults  # tet q1, tet iq, hex q1, hex iq; 5 smooths each
