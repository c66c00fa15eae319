"""Geometric kernel: generalized face normals, mean volumes, per-element fields.

Everything is pure and double precision. Batched variants operate on arrays
of shape (m, n_e, 3); single-element wrappers take (n_e, 3).

The per-element transformation field returned by :func:`element_field` equals
six times the gradient of the element's mean volume. Mean volume extends the
signed tetrahedron volume to pyramids, prisms and hexahedra by averaging over
boundary triangulations; for prisms and hexahedra it is recovered from the
field through the Euler identity for degree-3 homogeneous functions,
``18 * vol = <x, field(x)>``.

Kernels are integer index tables built at import: triangle fans over the
vertex-link polygons for the fields, a boundary triangulation for areas and
divergence volumes. Each is one gather, one cross product and one sum of the
table's rows, row after row, so every result adds the same terms in the same
order as a polygon-by-polygon sum. A kernel takes its batch whole; the
measure layer sizes it, in blocks of at most 32,768 gathered coordinate rows
(:data:`GATHERED_ROWS` per element), whose 0.8 MB the allocator reuses. The
tetra kernels read a batch component-major, as three (4, m) arrays x, y, z,
which :func:`element_batch` gathers in one ``np.take``. Over 48,000 tets in
blocks of 8,192, a mean-volume pass takes 2-3 ms and a scaled field pass
7-10 ms, where whole-batch passes took 9-10 ms and 21-22 ms (medians of wall
clock, one thread of a 2-core Xeon VM).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateElement, InvalidPolygon
from .mesh import FACES, ElementKind

# Vertex-link polygons defining each row of the transformation field of the
# non-tetra kinds, one pair per element vertex: a neighbor triangle and the
# equator polygon around the vertex, averaged.
_NU_ROWS: dict[ElementKind, tuple[tuple[tuple[int, ...], ...], ...]] = {
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

_SIX_SQRT_PI = 6.0 * math.sqrt(math.pi)
_DEGENERACY = 1e-14

# Unit-edge regular tetrahedron, positively oriented: the reference shape of
# the mean ratio and the stationary tetrahedron of the volume-ascent flow.
REGULAR_TETRA = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, math.sqrt(3.0) / 2.0, 0.0],
        [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
    ]
)


def _as_batch(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape == (n, 3):
        return x[None]
    if x.ndim == 3 and x.shape[1:] == (n, 3):
        return x
    raise ValueError(f"expected coordinates of shape ({n}, 3) or (m, {n}, 3), got {x.shape}")


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product of two float arrays of one shape (..., 3), bit for bit ``np.cross``.

    The same products and differences, without ``np.cross``'s axis moves and
    casts, which cost more than the arithmetic on the batches used here.
    """
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(u.shape)
    out[..., 0] = u1 * v2 - u2 * v1
    out[..., 1] = u2 * v0 - u0 * v2
    out[..., 2] = u0 * v1 - u1 * v0
    return out


def _fan(poly) -> list[tuple[int, int, int]]:
    """Triangle fan anchored at the first vertex, which keeps translation terms out of the rounding."""
    return [(poly[0], b, c) for b, c in zip(poly[1:-1], poly[2:])]


def _field_table(rows) -> tuple[np.ndarray, np.ndarray]:
    """Fan table (fan position, row, corner) of a kind's field, and row weights.

    A row is half the sum of its two polygon normals. The equator fan goes
    first, the one-triangle neighbor last: summed in order, that is the
    polygon-wise sum bit for bit. The pyramid apex's polygons coincide: one
    normal at weight 1. The null triangle (0, 0, 0) pads short rows with zeros.
    """
    fans = [_fan(b) if a == b else _fan(b) + _fan(a) for a, b in rows]
    width = max(map(len, fans))
    table = np.array([f + [(0, 0, 0)] * (width - len(f)) for f in fans])
    return table.transpose(1, 0, 2), np.array([[[1.0 if a == b else 0.5]] for a, b in rows])


_FIELD_TABLES = {kind: _field_table(rows) for kind, rows in _NU_ROWS.items()}


def _gathered(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """A batch (m, n, 3) gathered from a vertex-major copy through ``table``: table.shape + (m, 3)."""
    return np.ascontiguousarray(x.transpose(1, 0, 2))[table]


def _normals(g: np.ndarray) -> np.ndarray:
    """Normals ``(b - a) x (c - a)`` of gathered triangles (..., 3, m, 3) -> (..., m, 3)."""
    a = g[..., 0, :, :]
    return _cross(g[..., 1, :, :] - a, g[..., 2, :, :] - a)


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, row after row from zero (``ndarray.sum`` may go pairwise)."""
    acc = np.zeros(terms.shape[1:])
    for row in terms:
        acc += row
    return acc


def polygon_normal(points) -> np.ndarray:
    """Generalized face normal of a polygonal curve.

    For planar curves the norm is twice the enclosed area and the direction
    follows the right-hand rule; the value is translation invariant.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise InvalidPolygon(f"need at least 3 points of dimension 3, got shape {pts.shape}")
    return _sum_rows(_normals(pts[:, None][_fan(range(pts.shape[0]))]))[0]


def element_batch(kind: ElementKind, coords: np.ndarray, conn: np.ndarray) -> np.ndarray:
    """``coords[conn]``, shape (m, n_e, 3); for tets the transposed view of a (3, 4, m) gather."""
    if kind is ElementKind.TETRA:
        return np.take(coords.T, conn.T, axis=1).T
    return coords[conn]


def _tet_volumes(xt: np.ndarray) -> np.ndarray:
    """Signed volumes, (3, 4, m) -> (m,); the dot product adds from 0.0 in ``np.einsum``'s order."""
    (ax, bx, cx), (ay, by, cy), (az, bz, cz) = xt[:, 1:] - xt[:, :1]
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    return (((0.0 + nx * cx) + nz * cz) + ny * cy) / 6.0


def _tet_fields(xt: np.ndarray) -> np.ndarray:
    """Fields, (3, 4, m) -> (3, m, 4): row i, the face normal opposite vertex i, added into zeros."""
    out = np.zeros((3, xt.shape[2], 4))
    for i, (a, b, c) in enumerate(((3, 2, 1), (3, 0, 2), (3, 1, 0), (0, 1, 2))):
        u, v = xt[:, b] - xt[:, a], xt[:, c] - xt[:, a]
        out[0, :, i] += u[1] * v[2] - u[2] * v[1]
        out[1, :, i] += u[2] * v[0] - u[0] * v[2]
        out[2, :, i] += u[0] * v[1] - u[1] * v[0]
    return out


def tet_signed_volumes(x) -> np.ndarray:
    """Signed volumes of a batch of tetrahedra, shape (m, 4, 3) -> (m,)."""
    return _tet_volumes(_as_batch(x, 4).T)


def tet_signed_volume(x) -> float:
    """Signed volume of one tetrahedron; the sign encodes orientation."""
    return float(tet_signed_volumes(np.asarray(x, dtype=float)[None])[0])


def element_fields(kind: ElementKind, x) -> np.ndarray:
    """Transformation fields for a batch of elements, (m, n_e, 3) -> same shape.

    Equals six times the gradient of :func:`element_mean_volumes`; translation
    invariant and homogeneous of degree 2 in the coordinates.
    """
    x = _as_batch(x, kind.vertex_count)
    if kind is ElementKind.TETRA:
        return _tet_fields(x.T).transpose(1, 2, 0)
    fans, weights = _FIELD_TABLES[kind]
    # C order: the Euler identity's einsum needs it
    return np.ascontiguousarray((weights * _sum_rows(_normals(_gathered(x, fans)))).transpose(1, 0, 2))


def element_field(kind: ElementKind, x) -> np.ndarray:
    """Transformation field of a single element, shape (n_e, 3)."""
    return element_fields(kind, np.asarray(x, dtype=float)[None])[0]


def element_mean_volumes(kind: ElementKind, x) -> np.ndarray:
    """Mean volumes of a batch of elements, (m, n_e, 3) -> (m,).

    Tetra: the signed-volume formula. Pyramid: mean of its two boundary
    triangulations. Prism/hexa: Euler identity ``<x, field(x)> / 18`` with
    coordinates centered first for conditioning.
    """
    x = _as_batch(x, kind.vertex_count)
    if kind is ElementKind.TETRA:
        return tet_signed_volumes(x)
    if kind is ElementKind.PYRAMID:
        # the base's two diagonal splits, each triangle coned to the apex
        a, b, c, d = (_tet_volumes(x.T[:, (*t, 4)]) for t in _QUAD_SPLITS)
        return 0.5 * (a + b + c + d)
    xc = x - x.mean(axis=1, keepdims=True)
    return np.einsum("mij,mij->m", xc, element_fields(kind, xc)) / 18.0


def element_mean_volume(kind: ElementKind, x) -> float:
    """Mean volume of a single element."""
    return float(element_mean_volumes(kind, np.asarray(x, dtype=float)[None])[0])


_QUAD_SPLITS = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]  # the corners after and before corner k


def _face_triangles(faces) -> tuple[np.ndarray, np.ndarray]:
    """Index table (T, 3) of the faces' mean triangulation, and weights (T,) on |nu|.

    A triangle face has area 0.5*|nu|; a quadrilateral the mean of its two
    diagonal splits, i.e. 0.25*|nu| for each of the four diagonal triangles.
    """
    tris, weights = [], []
    for f in faces:
        if len(f) not in (3, 4):
            raise InvalidPolygon(f"faces must be triangles or quadrilaterals, got {len(f)} vertices")
        splits = _QUAD_SPLITS if len(f) == 4 else _QUAD_SPLITS[:1]
        tris += [[f[i] for i in t] for t in splits]
        weights += [0.25 if len(f) == 4 else 0.5] * len(splits)
    return np.array(tris, dtype=np.intp).reshape(-1, 3), np.array(weights)


_KIND_TRIANGLES = {kind: _face_triangles(FACES[kind]) for kind in ElementKind}

# Coordinate rows gathered per element: 4 for the tetra batch, else the kind's largest index table.
GATHERED_ROWS = {ElementKind.TETRA: 4} | {
    kind: max(fans.size, _KIND_TRIANGLES[kind][0].size) for kind, (fans, _) in _FIELD_TABLES.items()}


def _mean_areas(tris, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean boundary areas (m,) of a batch (m, n, 3) over a triangulation table, and the
    gathered triangles (T, 3, m, 3), their normals (T, m, 3) and norms (T, m) they come from."""
    idx, w = tris
    g = _gathered(x, idx)
    nu = _normals(g)
    nn = np.linalg.norm(nu, axis=-1)
    return _sum_rows(w[:, None] * nn), g, nu, nn


def _scatter(idx: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Add (T, 3, m, 3) corner terms into an (m, n, 3) gradient in (triangle, corner) order."""
    grad = np.zeros((n,) + terms.shape[2:])
    np.add.at(grad, idx, terms)
    return grad.transpose(1, 0, 2)


def _div_volumes(tris, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-theorem volume of one closed polyhedron (n, 3) and its gradient, batches of 1."""
    idx, w = tris
    g = (x - x.mean(axis=0))[:, None][idx]
    s = 2.0 * w / 6.0
    corners = _cross(g[:, _NEXT], g[:, _PREV])
    vols = _sum_rows(s[:, None] * np.einsum("tmj,tmj->tm", g[:, 0], corners[:, 0]))
    return vols, _scatter(idx, s[:, None, None, None] * corners, len(x))


def element_mean_boundary_areas(kind: ElementKind, x) -> np.ndarray:
    """Mean boundary areas for a batch of elements, (m, n_e, 3) -> (m,)."""
    return _mean_areas(_KIND_TRIANGLES[kind], _as_batch(x, kind.vertex_count))[0]


def element_mean_boundary_area(kind: ElementKind, x) -> float:
    """Mean surface area of one element's boundary.

    Triangle faces contribute their exact area; quadrilateral faces the mean
    area over their two diagonal triangulations.
    """
    return float(element_mean_boundary_areas(kind, np.asarray(x, dtype=float)[None])[0])


def _tiny(x: np.ndarray) -> np.ndarray:
    """Degenerate-area bound per element: ``_DEGENERACY`` times its squared bounding-box diagonal."""
    return _DEGENERACY * np.linalg.norm(x.max(axis=1) - x.min(axis=1), axis=-1) ** 2


def _check_areas(areas: np.ndarray, tiny: np.ndarray) -> None:
    if np.any(areas <= tiny):
        raise DegenerateElement("boundary area vanished; isoperimetric quotient undefined")


def _iq_values(tris, x: np.ndarray, vols: np.ndarray) -> np.ndarray:
    areas = _mean_areas(tris, x)[0]
    _check_areas(areas, _tiny(x))
    return _SIX_SQRT_PI * vols / areas**1.5


def _iq_gradients(tris, x: np.ndarray, vols: np.ndarray, vgrad: np.ndarray) -> np.ndarray:
    idx, w = tris
    tiny = _tiny(x)
    areas, g, nu, nn = _mean_areas(tris, x)
    if np.any(nn <= tiny):
        raise DegenerateElement("zero-area triangle in boundary face")
    _check_areas(areas, tiny)
    u = (nu / nn[..., None])[:, None]
    agrad = _scatter(idx, w[:, None, None, None] * _cross(g[:, _NEXT] - g[:, _PREV], u), x.shape[1])
    a32, a52 = (areas**1.5)[:, None, None], (areas**2.5)[:, None, None]
    return _SIX_SQRT_PI * (vgrad / a32 - 1.5 * (vols[:, None, None] / a52) * agrad)


def element_iqs(kind: ElementKind, x, vols=None) -> np.ndarray:
    """Isoperimetric quotients of a batch; ``vols``: its :func:`element_mean_volumes`, computed if None."""
    x = _as_batch(x, kind.vertex_count)
    return _iq_values(_KIND_TRIANGLES[kind], x, element_mean_volumes(kind, x) if vols is None else vols)


def element_iq(kind: ElementKind, x) -> float:
    """Isoperimetric quotient ``6*sqrt(pi) * vol / area^(3/2)``.

    Scale invariant, 1 in the sphere limit, below 1 for every polyhedron;
    the sign follows the signed mean volume.
    """
    return float(element_iqs(kind, np.asarray(x, dtype=float)[None])[0])


def element_iq_gradients(kind: ElementKind, x, vols=None) -> np.ndarray:
    """Gradients of :func:`element_iqs`, ``vols`` as there; given them, one field evaluation, not two."""
    x = _as_batch(x, kind.vertex_count)
    vols = element_mean_volumes(kind, x) if vols is None else vols
    return _iq_gradients(_KIND_TRIANGLES[kind], x, vols, element_fields(kind, x) / 6.0)


def element_iq_gradient(kind: ElementKind, x) -> np.ndarray:
    """Analytic gradient of :func:`element_iq` with respect to all coordinates."""
    return element_iq_gradients(kind, np.asarray(x, dtype=float)[None])[0]


# -- generic closed polyhedra (arbitrary triangle/quad face lists) ----------
#
# A polyhedron here is a closed oriented surface given by faces over an
# (n, 3) coordinate array. For the four element kinds these functions agree
# with the element_* forms; they also cover shapes like the icosahedron that
# are not volume cells.


def polyhedron_mean_volume(faces, x) -> float:
    """Enclosed signed volume with quad faces averaged over both diagonals."""
    x = np.asarray(x, dtype=float)
    return float(_div_volumes(_face_triangles(faces), x)[0][0])


def polyhedron_volume_gradient(faces, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _div_volumes(_face_triangles(faces), x)[1][0]


def polyhedron_mean_area(faces, x) -> float:
    x = np.asarray(x, dtype=float)
    return float(_mean_areas(_face_triangles(faces), x[None])[0][0])


def polyhedron_iq(faces, x) -> float:
    """Isoperimetric quotient of a closed polyhedron."""
    x = np.asarray(x, dtype=float)
    tris = _face_triangles(faces)
    return float(_iq_values(tris, x[None], _div_volumes(tris, x)[0])[0])


def polyhedron_iq_gradient(faces, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    tris = _face_triangles(faces)
    return _iq_gradients(tris, x[None], *_div_volumes(tris, x))[0]
