"""Geometric kernel: generalized face normals, mean volumes, per-element fields.

Everything is pure and double precision. Batched variants operate on arrays
of shape (m, n_e, 3); single-element wrappers take (n_e, 3). Coordinates of
any other shape raise ``InvalidSpec``.

The mean volume is the divergence-theorem volume of the boundary, each
quadrilateral face averaged over its two diagonal splits. Relative to vertex 0
it is a short sum of triple products of edge vectors (Davies & Salmond, AIAA
J. 23, 1985; Grandy, LLNL UCRL-ID-128886, 1997): 1 term for a tetrahedron, 3
for a pyramid, 7 for a prism, 15 for a hexahedron. The transformation field of
:func:`element_field` is six times its gradient: per vertex, a fixed sum of
cross products of edge vectors, one per face through the vertex.

Kernels are index tables built at import from the face lists. Each reads a
batch component-major, as the (3, n_e, m) array whose (m, n_e, 3) transposed
view :func:`element_batch` returns: a gather per table, cross products of
whole (k, m) arrays and sums over the table's rows in an order fixed at
import, so an element gets the same bits in any batch. Fields are written
(3, m, n_e), the layout the vertex scatter reads. The measure layer sizes
each batch by :data:`GATHERED_ROWS` or :data:`IQ_ROWS`: the (k, m) rows of a
kernel's largest temporary per element.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import DegenerateElement, InvalidPolygon, InvalidSpec
from .mesh import FACES, ElementKind, vertex_array

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
    """A batch of elements of ``n`` vertices, shape (m, n, 3); ``InvalidSpec`` names any other shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1:] != (n, 3):
        raise InvalidSpec(f"expected coordinates of shape (m, {n}, 3), got {x.shape}")
    return x


def _as_single(x, n: int) -> np.ndarray:
    """One element of ``n`` vertices, shape (n, 3), as a batch (1, n, 3); ``InvalidSpec`` names any other shape."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n, 3):
        raise InvalidSpec(f"expected coordinates of shape ({n}, 3), got {x.shape}")
    return x[None]


def _cross_cm(u: np.ndarray, v: np.ndarray, into: np.ndarray | None = None) -> np.ndarray:
    """Cross product of component-major arrays (3, ...) of one shape, on flat components, bit for bit
    ``np.cross``; added into ``into``, an array of that shape, when given."""
    (u0, u1, u2), (v0, v1, v2) = u.reshape(3, -1), v.reshape(3, -1)
    out = np.empty(u.shape) if into is None else into
    for o, (a, b, c, d) in zip(out, ((u1, v2, u2, v1), (u2, v0, u0, v2), (u0, v1, u1, v0))):
        if into is None:
            o.reshape(-1)[...] = a * b - c * d
        else:
            o += (a * b - c * d).reshape(o.shape)
    return out


def _edges(xt: np.ndarray, ends: np.ndarray, base: np.ndarray | None = None) -> list[np.ndarray]:
    """Edge sums ``sum_j (x[e[j]] - x[b])`` of a batch (3, n, m), added in j order, one for each table
    e (J, ...) of ``ends``; b is ``base``, broadcast against the tables, or else the field rows' base."""
    b = None if base is None else np.take(xt, base, axis=1)
    sums = []
    for e in ends:
        acc = None
        for end in e:
            edge = np.take(xt, end, axis=1)
            if b is not None:
                edge -= b
            else:  # n - 1 for rows 0 to n - 2 and 0 for row n - 1, subtracted from slices without a gather
                edge[:, :, :-1] -= xt[:, None, -1:]
                edge[:, :, -1] -= xt[:, None, 0]
            acc = edge if acc is None else np.add(acc, edge, out=acc)
        sums.append(acc)
    return sums


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2])


def _sum_rows(terms: np.ndarray, coef: np.ndarray | None = None) -> np.ndarray:
    """``sum_k coef[k] * terms[k]`` of a fresh array, its terms scaled in place unless ``coef`` is None
    (every coefficient 1), then added row after row into its first row (a reduction may go pairwise when
    the other axes have length 1)."""
    if coef is not None:
        terms *= coef
    acc = terms[0]
    for row in terms[1:]:
        acc += row
    return acc


_QUAD_SPLITS = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))


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


def _unless_ones(coef: np.ndarray) -> np.ndarray | None:
    """The coefficients, or None when every one is 1."""
    return None if np.all(coef == 1.0) else coef


def _padded(rows: list[list], pad: list) -> list[list]:
    """Entry k of each row, k = 0, 1, ..., with ``pad[r]`` for a row r that has none."""
    return [[row[k] if k < len(row) else pad[r] for r, row in enumerate(rows)] for k in range(max(map(len, rows)))]


class _Tables(NamedTuple):
    """Index tables of one closed surface over n vertices (see :func:`_tables`)."""

    terms: np.ndarray  # (3, T): the i, j, k of each volume term
    weights: np.ndarray | None  # (T, 1): their weights in units of 1/6, None when all are 1
    ends: np.ndarray  # (2, J, K, n): p and q of each row's k-th cross product
    coef: np.ndarray | None  # (K, 1, n, 1): their coefficients, None when all are 1
    tris: np.ndarray  # (3, F): base, p, q of each triangle of the faces' mean triangulation
    areas: np.ndarray  # (F, 1): their weights on |nu|
    corners: np.ndarray  # (K, n): area gradient rows over the e_q x u, u x e_p, (e_p - e_q) x u and a zero


def _tables(faces, n: int) -> _Tables:
    """Volume, field and area tables of a closed surface over n vertices, with ``e = x - x_b``.

    Volume: each triangle (i, j, k) of weight w of the mean triangulation, off
    b = 0, adds ``2w/6 det(e_i, e_j, e_k)``. Field row r, ``6 dV/dx_r`` with b =
    n - 1 (0 for r = n - 1): each face through r, rotated to start at r, adds
    ``e_i x e_j`` for a triangle (r, i, j) off b, and its three split triangles
    through r at weight 1/2, ``(e_i + e_j) x (e_j + e_k) / 2``, for a
    quadrilateral (r, i, j, k). Area gradient: each triangle (b, p, q) of weight
    w adds ``w (e_p - e_q) x u``, ``w e_q x u`` and ``w u x e_p`` at b, p, q.
    """
    tris, w = _face_triangles(faces)
    off0 = ~np.any(tris == 0, axis=1)
    terms, weights = tris[off0].T, _unless_ones(2.0 * w[off0, None])
    base = [n - 1] * (n - 1) + [0]
    field = [[] for _ in base]
    for r, b in enumerate(base):
        for face in faces:
            if r in face:
                g = list(face[face.index(r) + 1:]) + list(face[:face.index(r)])
                if len(g) == 3:
                    field[r].append((g[:2], g[1:], 0.5))
                elif b not in g:
                    field[r].append((g[:1], g[1:], 1.0))
    depth = max(len(p) for row in field for p, _, _ in row)
    # short sums end in x_b - x_b = 0, short rows in zero vectors
    grid = _padded(field, [([b], [b], 0.0) for b in base])
    ends = np.array([[[(v + [b] * depth)[:depth] for v in (p, q)] for (p, q, _), b in zip(line, base)]
                     for line in grid]).transpose(2, 3, 0, 1)
    coef = np.array([[[[c] for _, _, c in line]] for line in grid])
    f = len(tris)
    corners = [[] for _ in base]
    for t, (b, p, q) in enumerate(tris.tolist()):
        corners[b].append(2 * f + t)
        corners[p].append(t)
        corners[q].append(f + t)
    corners = np.array(_padded(corners, [3 * f] * n))
    return _Tables(terms, weights, ends, _unless_ones(coef), tris.T, w[:, None], corners)


@functools.lru_cache(maxsize=64)
def _checked_tables(faces: tuple[tuple[int, ...], ...], n: int) -> _Tables:
    """:func:`_tables` of faces as tuples of ints, cached; ``InvalidPolygon`` unless every index is valid
    and the faces close the surface: each directed edge used once, and its reverse once."""
    if not faces:
        raise InvalidPolygon("a closed polyhedron needs faces, got none")
    for f in faces:
        if len(set(f)) < len(f) or not all(0 <= i < n for i in f):
            raise InvalidPolygon(f"face {f} repeats a vertex index or has one outside 0 to {n - 1}")
    edges = [(f[i - 1], f[i]) for f in faces for i in range(len(f))]
    if len(set(edges)) < len(edges) or set(edges) != {(b, a) for a, b in edges}:
        raise InvalidPolygon("the faces do not close a surface: each edge must be used once in each direction")
    return _tables(faces, n)


_KIND_TABLES = {kind: _checked_tables(FACES[kind], kind.vertex_count) for kind in ElementKind}

# (k, m) rows of the largest temporary per element of each kind: of the volume and field kernels, and of the iq ones
GATHERED_ROWS = {kind: max(t.terms.size, t.ends[0, 0].size) for kind, t in _KIND_TABLES.items()}
IQ_ROWS = {kind: max(GATHERED_ROWS[kind], 3 * t.tris.shape[1] + 1, t.corners.size) for kind, t in _KIND_TABLES.items()}


def element_batch(coords: np.ndarray, conn: np.ndarray) -> np.ndarray:
    """``coords[conn]``, shape (m, n_e, 3): the transposed view of one component-major (3, n_e, m) gather."""
    return coords.T.take(conn.T, axis=1).T


def _div_volumes(tab: _Tables, xt: np.ndarray) -> np.ndarray:
    """Mean volumes (m,) of a batch (3, n, m): each term's triple product, its dot product added from
    0.0 in ``np.einsum``'s order (x, z, y), then the weighted terms in table order."""
    edges = np.take(xt, tab.terms, axis=1)
    edges -= xt[:, None, :1]
    ax, bx, cx, ay, by, cy, az, bz, cz = edges.reshape(9, -1)
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    return _sum_rows((((0.0 + nx * cx) + nz * cz) + ny * cy).reshape(tab.terms.shape[1], -1), tab.weights) / 6.0


def _fields(tab: _Tables, xt: np.ndarray) -> np.ndarray:
    """Fields of a batch (3, n, m), component-major (3, m, n): each row's cross products, times their
    coefficients, added in table order into zeros."""
    out = np.zeros((3, xt.shape[2], xt.shape[1]))
    rows = out.transpose(0, 2, 1)
    if tab.ends.shape[1:3] == (1, 1):  # a tetrahedron: one cross product a row, at coefficient 1, into the rows
        _cross_cm(*_edges(xt, tab.ends), into=rows[:, None])
    else:
        rows += _sum_rows(_cross_cm(*_edges(xt, tab.ends)).transpose(1, 0, 2, 3), tab.coef)
    return out


def element_fields(kind: ElementKind, x) -> np.ndarray:
    """Transformation fields for a batch of elements, (m, n_e, 3) -> same shape.

    Equals six times the gradient of :func:`element_mean_volumes`; translation
    invariant and homogeneous of degree 2 in the coordinates. The array is
    the transposed view of a component-major (3, m, n_e) one.
    """
    return _fields(_KIND_TABLES[kind], _as_batch(x, kind.vertex_count).T).transpose(1, 2, 0)


def element_field(kind: ElementKind, x) -> np.ndarray:
    """Transformation field of a single element, shape (n_e, 3)."""
    return element_fields(kind, _as_single(x, kind.vertex_count))[0]


def element_mean_volumes(kind: ElementKind, x) -> np.ndarray:
    """Mean volumes of a batch of elements, (m, n_e, 3) -> (m,).

    The signed volume for a tetrahedron; otherwise the mean over the
    boundary triangulations that split each quadrilateral face either way.
    """
    return _div_volumes(_KIND_TABLES[kind], _as_batch(x, kind.vertex_count).T)


def element_mean_volume(kind: ElementKind, x) -> float:
    """Mean volume of a single element."""
    return float(element_mean_volumes(kind, _as_single(x, kind.vertex_count))[0])


def _tiny(xt: np.ndarray) -> np.ndarray:
    """Degenerate-area bound per element: ``_DEGENERACY`` times its squared bounding-box diagonal."""
    d = xt.max(axis=1) - xt.min(axis=1)
    return _DEGENERACY * ((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])


def _mean_areas(tab: _Tables, xt: np.ndarray) -> np.ndarray:
    return _sum_rows(tab.areas * _norms(_cross_cm(*_edges(xt, tab.tris[1:, None], tab.tris[0]))))


def _checked(areas: np.ndarray, tiny: np.ndarray) -> np.ndarray:
    if np.any(areas <= tiny):
        raise DegenerateElement("boundary area vanished; isoperimetric quotient undefined")
    return areas


def _iq_values(tab: _Tables, xt: np.ndarray, vols: np.ndarray) -> np.ndarray:
    return _SIX_SQRT_PI * vols / _checked(_mean_areas(tab, xt), _tiny(xt)) ** 1.5


def _iq_gradients(tab: _Tables, xt: np.ndarray, vols: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Gradients (m, n, 3) of the iq of a batch (3, n, m), given its volumes and fields (m, n, 3)."""
    ep, eq = _edges(xt, tab.tris[1:, None], tab.tris[0])
    nu = _cross_cm(ep, eq)
    nn = _norms(nu)
    tiny = _tiny(xt)
    if np.any(nn <= tiny):
        raise DegenerateElement("zero-area triangle in boundary face")
    areas = _checked(_sum_rows(tab.areas * nn), tiny)
    u = nu * (tab.areas / nn)  # unit normals times the triangles' weights
    a, b = _cross_cm(eq, u), _cross_cm(u, ep)  # the gradient at p and at q; at the base -(a + b)
    corner_terms = np.concatenate([a, b, -(a + b), np.zeros((3, 1, xt.shape[2]))], axis=1)
    agrad = _sum_rows(np.take(corner_terms, tab.corners, axis=1).transpose(1, 0, 2, 3))
    a32, a52 = (areas**1.5)[:, None, None], (areas**2.5)[:, None, None]
    return _SIX_SQRT_PI * (field / 6.0 / a32 - 1.5 * (vols[:, None, None] / a52) * agrad.T)


def element_iqs(kind: ElementKind, x, vols=None) -> np.ndarray:
    """Isoperimetric quotients of a batch; ``vols``: its :func:`element_mean_volumes`, computed if None."""
    x = _as_batch(x, kind.vertex_count)
    return _iq_values(_KIND_TABLES[kind], x.T, element_mean_volumes(kind, x) if vols is None else vols)


def element_iq(kind: ElementKind, x) -> float:
    """Isoperimetric quotient ``6*sqrt(pi) * vol / area^(3/2)``.

    Scale invariant, 1 in the sphere limit, below 1 for every polyhedron;
    the sign follows the signed mean volume.
    """
    return float(element_iqs(kind, _as_single(x, kind.vertex_count))[0])


def element_iq_gradients(kind: ElementKind, x, vols=None) -> np.ndarray:
    """Gradients of :func:`element_iqs`, ``vols`` as there; given them, one field evaluation and no volume
    pass."""
    x = _as_batch(x, kind.vertex_count)
    vols = element_mean_volumes(kind, x) if vols is None else vols
    return _iq_gradients(_KIND_TABLES[kind], x.T, vols, element_fields(kind, x))


# -- generic closed polyhedra (arbitrary triangle/quad face lists) ----------
#
# A polyhedron here is a closed oriented surface given by faces over an
# (n, 3) coordinate array. For the four element kinds these functions agree
# with the element_* forms; they also cover shapes like the icosahedron that
# are not volume cells. Each reads its tables and coordinates through
# _polyhedron and runs the element kernels on them as a batch of one.


def _polyhedron(faces, x) -> tuple[_Tables, np.ndarray]:
    """A polyhedron's cached and checked face tables, and its :func:`vertex_array` coordinates as a batch (3, n, 1)."""
    x = vertex_array(x)
    try:
        faces = tuple(tuple(map(operator.index, f)) for f in faces)
    except TypeError:
        raise InvalidPolygon("faces must be sequences of integer vertex indices") from None
    return _checked_tables(faces, len(x)), x.T[:, :, None]


def polyhedron_mean_volume(faces, x) -> float:
    """Enclosed signed volume with quad faces averaged over both diagonals.

    Every ``polyhedron_*`` function raises ``InvalidPolygon`` for no faces, an index that is not an
    integer, a face that is not a triangle or quadrilateral, an index outside 0 to n - 1 or repeated in a
    face, or faces that do not close the surface (each directed edge once, and its reverse once); and
    ``InvalidSpec`` for coordinates that are not finite or not of shape (n, 3). None of them marks the
    caller's coordinates read-only.
    """
    return float(_div_volumes(*_polyhedron(faces, x))[0])


def polyhedron_volume_gradient(faces, x) -> np.ndarray:
    """Gradient (n, 3) of :func:`polyhedron_mean_volume`, with its errors."""
    return _fields(*_polyhedron(faces, x)).transpose(1, 2, 0)[0] / 6.0


def polyhedron_mean_area(faces, x) -> float:
    """Boundary area, quad faces averaged over both diagonals; errors as :func:`polyhedron_mean_volume`."""
    return float(_mean_areas(*_polyhedron(faces, x))[0])


def polyhedron_iq(faces, x) -> float:
    """Isoperimetric quotient; errors as :func:`polyhedron_mean_volume`, ``DegenerateElement`` for no area."""
    tab, xt = _polyhedron(faces, x)
    return float(_iq_values(tab, xt, _div_volumes(tab, xt))[0])


def polyhedron_iq_gradient(faces, x) -> np.ndarray:
    """Gradient (n, 3) of :func:`polyhedron_iq`, with its errors, and ``DegenerateElement`` for a flat triangle."""
    tab, xt = _polyhedron(faces, x)
    return _iq_gradients(tab, xt, _div_volumes(tab, xt), _fields(tab, xt).transpose(1, 2, 0))[0]
