"""Geometric kernel: generalized face normals, mean volumes, per-element fields.

Everything is pure and double precision. Batched variants operate on arrays
of shape (m, n_e, 3); single-element wrappers take (n_e, 3).

The per-element transformation field returned by :func:`element_field` equals
six times the gradient of the element's mean volume. Mean volume extends the
signed tetrahedron volume to pyramids, prisms and hexahedra by averaging over
boundary triangulations; for prisms and hexahedra it is recovered from the
field through the Euler identity for degree-3 homogeneous functions,
``18 * vol = <x, field(x)>``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegenerateElement, InvalidPolygon
from .mesh import FACES, ElementKind

# Vertex-link polygons defining each row of the transformation field, one
# tuple of polygons per element vertex. Rows of the tetra field are single
# triangle normals; the other kinds average a neighbor triangle with the
# equator polygon around the vertex and carry a global factor 1/2.
_NU_ROWS: dict[ElementKind, tuple[tuple[tuple[int, ...], ...], ...]] = {
    ElementKind.TETRA: (
        ((3, 2, 1),),
        ((3, 0, 2),),
        ((3, 1, 0),),
        ((0, 1, 2),),
    ),
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


def _nu(x: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    """Sum of cyclic cross products over a polygon, batched.

    Evaluated as a triangle fan anchored at the first polygon vertex, which
    is algebraically identical and keeps the cancellation of translation
    terms out of floating point.
    """
    p0 = x[:, idx[0]]
    acc = np.zeros((x.shape[0], 3))
    prev = x[:, idx[1]] - p0
    for a in idx[2:]:
        cur = x[:, a] - p0
        acc += _cross(prev, cur)
        prev = cur
    return acc


def polygon_normal(points) -> np.ndarray:
    """Generalized face normal of a polygonal curve.

    For planar curves the norm is twice the enclosed area and the direction
    follows the right-hand rule; the value is translation invariant.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise InvalidPolygon(f"need at least 3 points of dimension 3, got shape {pts.shape}")
    return _nu(pts[None], range(pts.shape[0]))[0]


def tet_signed_volumes(x) -> np.ndarray:
    """Signed volumes of a batch of tetrahedra, shape (m, 4, 3) -> (m,)."""
    x = _as_batch(x, 4)
    d1 = x[:, 1] - x[:, 0]
    d2 = x[:, 2] - x[:, 0]
    d3 = x[:, 3] - x[:, 0]
    return np.einsum("ij,ij->i", _cross(d1, d2), d3) / 6.0


def tet_signed_volume(x) -> float:
    """Signed volume of one tetrahedron; the sign encodes orientation."""
    return float(tet_signed_volumes(np.asarray(x, dtype=float)[None])[0])


def element_fields(kind: ElementKind, x) -> np.ndarray:
    """Transformation fields for a batch of elements, (m, n_e, 3) -> same shape.

    Equals six times the gradient of :func:`element_mean_volumes`; translation
    invariant and homogeneous of degree 2 in the coordinates.
    """
    x = _as_batch(x, kind.vertex_count)
    out = np.empty_like(x)
    for i, polys in enumerate(_NU_ROWS[kind]):
        acc = _nu(x, polys[0])
        for p in polys[1:]:
            acc = acc + _nu(x, p)
        out[:, i] = acc
    if kind is not ElementKind.TETRA:
        out *= 0.5
    return out


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
        v = (
            tet_signed_volumes(x[:, (0, 1, 2, 4)])
            + tet_signed_volumes(x[:, (0, 2, 3, 4)])
            + tet_signed_volumes(x[:, (0, 1, 3, 4)])
            + tet_signed_volumes(x[:, (1, 2, 3, 4)])
        )
        return 0.5 * v
    xc = x - x.mean(axis=1, keepdims=True)
    return np.einsum("mij,mij->m", xc, element_fields(kind, xc)) / 18.0


def element_mean_volume(kind: ElementKind, x) -> float:
    """Mean volume of a single element."""
    return float(element_mean_volumes(kind, np.asarray(x, dtype=float)[None])[0])


def _face_triangles(faces) -> tuple[tuple[int, int, int, float], ...]:
    """Expand faces into (a, b, c, weight) triangles.

    Weights are relative to the generalized-normal norm: a triangle face
    contributes 0.5*|nu|, a quadrilateral the mean of its two diagonal
    splits, i.e. 0.25*|nu| for each of the four diagonal triangles.
    """
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


_KIND_TRIANGLES = {kind: _face_triangles(FACES[kind]) for kind in ElementKind}


def _bbox_diag(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x.max(axis=1) - x.min(axis=1), axis=-1)


def _mean_areas(tris, x: np.ndarray) -> np.ndarray:
    total = np.zeros(x.shape[0])
    for a, b, c, w in tris:
        total += w * np.linalg.norm(_nu(x, (a, b, c)), axis=-1)
    return total


def _area_gradients(tris, x: np.ndarray, tiny: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(x)
    for a, b, c, w in tris:
        nu = _nu(x, (a, b, c))
        nn = np.linalg.norm(nu, axis=-1)
        if np.any(nn <= tiny):
            raise DegenerateElement("zero-area triangle in boundary face")
        u = nu / nn[:, None]
        grad[:, a] += w * _cross(x[:, b] - x[:, c], u)
        grad[:, b] += w * _cross(x[:, c] - x[:, a], u)
        grad[:, c] += w * _cross(x[:, a] - x[:, b], u)
    return grad


def _div_volumes(tris, x: np.ndarray) -> np.ndarray:
    """Divergence-theorem volume over mean-triangulated closed boundary faces."""
    xc = x - x.mean(axis=1, keepdims=True)
    total = np.zeros(x.shape[0])
    for a, b, c, w in tris:
        total += (2.0 * w / 6.0) * np.einsum(
            "ij,ij->i", xc[:, a], _cross(xc[:, b], xc[:, c])
        )
    return total


def _div_volume_gradients(tris, x: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=1, keepdims=True)
    grad = np.zeros_like(x)
    for a, b, c, w in tris:
        s = 2.0 * w / 6.0
        grad[:, a] += s * _cross(xc[:, b], xc[:, c])
        grad[:, b] += s * _cross(xc[:, c], xc[:, a])
        grad[:, c] += s * _cross(xc[:, a], xc[:, b])
    return grad


def element_mean_boundary_areas(kind: ElementKind, x) -> np.ndarray:
    """Mean boundary areas for a batch of elements, (m, n_e, 3) -> (m,)."""
    return _mean_areas(_KIND_TRIANGLES[kind], _as_batch(x, kind.vertex_count))


def element_mean_boundary_area(kind: ElementKind, x) -> float:
    """Mean surface area of one element's boundary.

    Triangle faces contribute their exact area; quadrilateral faces the mean
    area over their two diagonal triangulations.
    """
    return float(element_mean_boundary_areas(kind, np.asarray(x, dtype=float)[None])[0])


def _iq_values(vols: np.ndarray, areas: np.ndarray, diag: np.ndarray) -> np.ndarray:
    if np.any(areas <= _DEGENERACY * diag**2):
        raise DegenerateElement("boundary area vanished; isoperimetric quotient undefined")
    return _SIX_SQRT_PI * vols / areas**1.5


def element_iqs(kind: ElementKind, x) -> np.ndarray:
    x = _as_batch(x, kind.vertex_count)
    return _iq_values(element_mean_volumes(kind, x), element_mean_boundary_areas(kind, x), _bbox_diag(x))


def element_iq(kind: ElementKind, x) -> float:
    """Isoperimetric quotient ``6*sqrt(pi) * vol / area^(3/2)``.

    Scale invariant, 1 in the sphere limit, below 1 for every polyhedron;
    the sign follows the signed mean volume.
    """
    return float(element_iqs(kind, np.asarray(x, dtype=float)[None])[0])


def _iq_gradients(vols, areas, vgrad, agrad, diag) -> np.ndarray:
    if np.any(areas <= _DEGENERACY * diag**2):
        raise DegenerateElement("boundary area vanished; isoperimetric quotient undefined")
    a32 = areas**1.5
    a52 = areas**2.5
    return _SIX_SQRT_PI * (
        vgrad / a32[:, None, None] - 1.5 * (vols / a52)[:, None, None] * agrad
    )


def element_iq_gradients(kind: ElementKind, x) -> np.ndarray:
    x = _as_batch(x, kind.vertex_count)
    tris = _KIND_TRIANGLES[kind]
    diag = _bbox_diag(x)
    return _iq_gradients(
        element_mean_volumes(kind, x),
        element_mean_boundary_areas(kind, x),
        element_fields(kind, x) / 6.0,
        _area_gradients(tris, x, _DEGENERACY * diag**2),
        diag,
    )


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
    return float(_div_volumes(_face_triangles(faces), x[None])[0])


def polyhedron_volume_gradient(faces, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _div_volume_gradients(_face_triangles(faces), x[None])[0]


def polyhedron_mean_area(faces, x) -> float:
    x = np.asarray(x, dtype=float)
    return float(_mean_areas(_face_triangles(faces), x[None])[0])


def polyhedron_iq(faces, x) -> float:
    """Isoperimetric quotient of a closed polyhedron."""
    x = np.asarray(x, dtype=float)[None]
    tris = _face_triangles(faces)
    return float(_iq_values(_div_volumes(tris, x), _mean_areas(tris, x), _bbox_diag(x))[0])


def polyhedron_iq_gradient(faces, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)[None]
    tris = _face_triangles(faces)
    diag = _bbox_diag(x)
    return _iq_gradients(
        _div_volumes(tris, x),
        _mean_areas(tris, x),
        _div_volume_gradients(tris, x),
        _area_gradients(tris, x, _DEGENERACY * diag**2),
        diag,
    )[0]
