"""Mesh data model: element kinds, canonical orderings, adjacency.

Canonical vertex orderings (0-based in code):

* tetra    -- (0,1,2,3), positive signed volume when valid
* pyramid  -- base (0,1,2,3) counterclockwise seen from the apex, apex 4
* prism    -- bottom triangle (0,1,2), top (3,4,5), vertical edges i <-> i+3
* hexa     -- bottom (0,1,2,3), top (4,5,6,7), vertical edges i <-> i+4

A mesh is immutable once built: coordinate and adjacency arrays are marked
read-only, smoothing works on detached coordinate arrays.

A mesh stores its elements as integer arrays, a :class:`Connectivity` in the
CSR layout of the legacy VTK ``CELLS`` section. ``mesh.elements`` is the
connectivity itself; indexing or iterating it builds :class:`Element` objects
on demand. The connectivity caches the per-kind groups the batched kernels
read (:func:`kind_groups`) and the block plans read off them, built on first
use. A mesh built from another mesh's ``elements`` shares all of them.

:func:`make_mesh` also stores vertex valence and boundary flags, from one
``np.bincount`` and, per face size, one ``np.lexsort`` of the element faces'
vertex sets, each packed into one int64 key (two above 2**21 vertices, or
55,108 with quads). :func:`boundary_faces` matches boundary vertices' faces only.
:func:`~polysmooth.generators.perturb_mesh` moves vertices only and keeps
its input's adjacency.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidElement, InvalidSpec


class ElementKind(Enum):
    TETRA = "tetra"
    PYRAMID = "pyramid"
    PRISM = "prism"
    HEXA = "hexa"

    @property
    def vertex_count(self) -> int:
        return _VERTEX_COUNT[self]


_VERTEX_COUNT = {
    ElementKind.TETRA: 4,
    ElementKind.PYRAMID: 5,
    ElementKind.PRISM: 6,
    ElementKind.HEXA: 8,
}

# Boundary faces per kind, outward-oriented for a positively oriented element.
FACES: dict[ElementKind, tuple[tuple[int, ...], ...]] = {
    ElementKind.TETRA: ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)),
    ElementKind.PYRAMID: ((0, 3, 2, 1), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)),
    ElementKind.PRISM: ((0, 2, 1), (3, 4, 5), (0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5)),
    ElementKind.HEXA: (
        (0, 3, 2, 1),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ),
}
_MAX_FACES = max(len(faces) for faces in FACES.values())


@dataclass(frozen=True, slots=True)
class Element:
    """One volume cell: a kind plus its ordered vertex indices."""

    kind: ElementKind
    vertices: tuple[int, ...]

    def __post_init__(self):
        vertices = tuple(map(int, self.vertices))
        object.__setattr__(self, "vertices", vertices)
        n = _VERTEX_COUNT[self.kind]
        if len(vertices) != n:
            raise InvalidElement(f"{self.kind.value} needs {n} vertices, got {len(vertices)}")
        if len(set(vertices)) != n:
            raise InvalidElement(f"repeated vertex index in {vertices}")

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Boundary faces as global vertex indices, outward-oriented."""
        v = self.vertices
        return tuple(tuple(v[i] for i in face) for face in FACES[self.kind])


_KINDS = tuple(ElementKind)
KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_ARITY = np.array([kind.vertex_count for kind in _KINDS])


def _distinct_rows(conn: np.ndarray) -> np.ndarray:
    """Whether each row of vertex indices (m, n_e) has no repeated index: one pairwise test per kind."""
    pairs = itertools.combinations(range(conn.shape[1]), 2)
    return np.all([conn[:, i] != conn[:, j] for i, j in pairs], axis=0)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an array, which must be empty or of an integer type: a cast would truncate."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise InvalidSpec(f"{what} must be integers; got {values.dtype}")
    return values


@dataclass(frozen=True, eq=False)
class Connectivity(Sequence):
    """Elements in CSR form: element i has the kind numbered ``codes[i]`` in
    :data:`KIND_CODES` and the vertices ``flat[offsets[i]:offsets[i + 1]]``.

    The arrays are read-only; codes or vertex indices that are not of an
    integer type, a code outside :data:`KIND_CODES`, or a ``flat`` of another
    length than the codes' vertex counts, raise ``InvalidSpec``; the first
    element that repeats a vertex raises ``InvalidElement``.
    As a sequence it yields :class:`Element` objects, built on every access.
    """

    codes: np.ndarray
    flat: np.ndarray

    def __post_init__(self):
        codes, flat = _integers(self.codes, "kind codes"), _integers(self.flat, "vertex indices")
        unknown = np.flatnonzero((codes < 0) | (codes >= len(_KINDS)))
        if unknown.size:
            i = unknown[0]
            raise InvalidSpec(f"element {i} has kind code {codes[i]}; the codes are 0 to {len(_KINDS) - 1}")
        object.__setattr__(self, "codes", _freeze(np.asarray(codes, dtype=np.int8)))
        object.__setattr__(self, "flat", _freeze(np.asarray(flat, dtype=np.int64)))
        if len(self.flat) != self.counts.sum():
            raise InvalidSpec(f"the kind codes need {self.counts.sum()} vertex indices; got {len(self.flat)}")
        repeats = [ids[~_distinct_rows(conn)][:1] for ids, conn in self.groups.values()]
        if any(map(len, repeats)):
            self[int(min(np.concatenate(repeats)))]  # raises InvalidElement: a repeated vertex

    @property
    def counts(self) -> np.ndarray:
        """The vertex count of every element."""
        return _ARITY[self.codes]

    @cached_property
    def offsets(self) -> np.ndarray:
        return _freeze(np.concatenate([[0], np.cumsum(self.counts)]))

    @cached_property
    def groups(self) -> dict[ElementKind, tuple[np.ndarray, np.ndarray]]:
        """``{kind: (element_ids, connectivity)}``, kinds in first-occurrence order."""
        return _group_by_kind(self)

    @cached_property
    def plans(self) -> dict:
        """Layouts other modules read off :attr:`groups`, under their own keys (quality's block plans)."""
        return {}

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = range(len(self))[index]
        return Element(_KINDS[self.codes[i]], self.flat[self.offsets[i]:self.offsets[i + 1]].tolist())

    def __iter__(self):
        flat, offsets = self.flat.tolist(), self.offsets.tolist()
        for code, a, b in zip(self.codes.tolist(), offsets, offsets[1:]):
            yield Element(_KINDS[code], flat[a:b])


@dataclass(frozen=True)
class Mesh:
    """Vertex coordinates, typed elements and precomputed adjacency.

    ``elements`` is the mesh's :class:`Connectivity`, a sequence of
    :class:`Element`. ``valence[i]`` counts the elements containing vertex i;
    ``boundary[i]`` is True when vertex i lies on a face owned by exactly one
    element.
    """

    vertices: np.ndarray
    elements: Connectivity
    valence: np.ndarray
    boundary: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return len(self.elements)


def _group_by_kind(cells: Connectivity) -> dict[ElementKind, tuple[np.ndarray, np.ndarray]]:
    _, first = np.unique(cells.codes, return_index=True)
    groups = {}
    for code in cells.codes[np.sort(first)]:
        kind = _KINDS[code]
        ids = np.flatnonzero(cells.codes == code)
        if len(ids) == len(cells):  # one kind: the flat array is the table
            conn = cells.flat.reshape(-1, kind.vertex_count)
        else:
            conn = cells.flat[cells.offsets[ids, None] + np.arange(kind.vertex_count)]
        groups[kind] = (_freeze(ids), _freeze(conn))
    return groups


# compare-exchanges that put 3 or 4 columns in ascending order
_SORTING_NETWORK = {3: ((0, 1), (1, 2), (0, 1)), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}
_MAX_KEYED_VERTICES = 3_037_000_499  # the largest n whose n * n fits in int64


def _face_keys(cols: np.ndarray) -> list[np.ndarray]:
    """The fewest int64 keys per face, a column of ``cols`` (size, f), equal exactly for faces with
    the same vertex set: a sorting network orders each face's vertices, read as digits in base ``n``,
    one past the largest index, as many to a key as fit below 2**63 (all for a triangle while
    n <= 2**21, for a quad while n <= 55,108)."""
    n = int(cols.max(initial=-1)) + 1
    if n > _MAX_KEYED_VERTICES:
        raise InvalidSpec(f"face matching needs vertex indices below {_MAX_KEYED_VERTICES}; got {n - 1}")
    cols = list(cols)
    for i, j in _SORTING_NETWORK[len(cols)]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    digits = next(d for d in range(len(cols), 0, -1) if n**d <= 2**63)
    keys = [col.astype(np.int64) for col in cols[::digits]]
    for k, col in enumerate(cols):
        if k % digits:
            keys[k // digits] *= n
            keys[k // digits] += col
    return keys


def _once(cols: np.ndarray) -> np.ndarray:
    """Indices, in no set order, of the faces (columns of ``cols``) whose vertex set occurs once: one lexsort."""
    keys = _face_keys(cols)
    perm = np.lexsort(keys[::-1])
    # a face occurs once when both it and its successor in sorted order start a run
    starts = np.ones(len(perm) + 1, dtype=bool)
    starts[1:-1] = False
    while keys:  # one key permuted at a time and freed once compared: a lower peak
        starts[1:-1] |= np.diff(keys.pop()[perm]) != 0
    return perm[starts[:-1] & starts[1:]]


def _faces_by_size(groups, keep=None) -> dict[int, tuple[np.ndarray, list[tuple[np.ndarray, int]]]]:
    """The oriented element faces whose vertices all have ``keep`` set (all when None), ``{size: (cols, parts)}``:
    ``cols`` (size, f) holds their vertices (int32 below 2**31) in the walk over kinds and each kind's
    faces in :data:`FACES` order, which ``parts`` cuts into ``(ids, j)``, the elements whose face j is next."""
    n = max((int(conn.max(initial=-1)) for _, conn in groups.values()), default=-1) + 1
    stacks: dict[int, list] = {}
    for kind, (ids, conn) in groups.items():
        inside = None if keep is None else keep[conn]
        for j, face in enumerate(FACES[kind]):
            rows = slice(None) if keep is None else inside[:, face].all(axis=1)
            stacks.setdefault(len(face), []).append((ids[rows], conn[rows], j, face))
    out = {}
    for size, parts in stacks.items():
        cols = np.empty((size, sum(len(ids) for ids, *_ in parts)), dtype=np.int32 if n <= 2**31 else np.int64)
        stop = 0
        for ids, conn, j, face in parts:
            start, stop = stop, stop + len(ids)
            for k, v in enumerate(face):  # column by column, straight into place: no temporaries
                cols[k, start:stop] = conn[:, v]
        out[size] = (cols, [(ids, j) for ids, _, j, _ in parts])
    return out


def vertex_array(points) -> np.ndarray:
    """``points`` as (n, 3) finite float coordinates, C-contiguous: the caller's array itself when it is one."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidSpec(f"points must have shape (n, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidSpec("vertex coordinates must be finite")
    return pts


def _shaped_coords(mesh: Mesh, coords) -> np.ndarray:
    """``mesh.vertices`` if ``coords`` is None, else ``coords`` as floats of the same shape (an O(1) check)."""
    if coords is None:
        return mesh.vertices
    coords = np.asarray(coords, dtype=float)
    if coords.shape != mesh.vertices.shape:
        raise InvalidSpec(f"coords must be of shape {mesh.vertices.shape}; got shape {coords.shape}")
    return coords


def _checked_coords(mesh: Mesh, coords) -> np.ndarray:
    """:func:`_shaped_coords`, and finite."""
    checked = _shaped_coords(mesh, coords)
    if coords is not None and not np.isfinite(checked).all():
        raise InvalidSpec("coords must be finite")
    return checked


def make_mesh(points, elements) -> Mesh:
    """Build a mesh from raw coordinates and elements, computing adjacency.

    ``elements`` is any iterable of :class:`Element`, or a mesh's
    ``elements``, whose arrays and cached groups are then shared.
    """
    pts = _freeze(vertex_array(points))
    if isinstance(elements, Connectivity):
        cells = elements
    else:
        elems = tuple(elements)
        cells = Connectivity(
            [KIND_CODES[e.kind] for e in elems],
            np.fromiter(itertools.chain.from_iterable(e.vertices for e in elems), dtype=np.int64),
        )
    n = pts.shape[0]
    bad = np.flatnonzero((cells.flat < 0) | (cells.flat >= n))
    if bad.size:
        first = int(np.searchsorted(cells.offsets, bad[0], side="right")) - 1
        raise InvalidElement(f"vertex index out of range in {cells[first].vertices}")
    valence = np.bincount(cells.flat, minlength=n)
    boundary = np.zeros(n, dtype=bool)
    for cols, _ in _faces_by_size(cells.groups).values():
        boundary[cols[:, _once(cols)]] = True
    return Mesh(pts, cells, _freeze(valence), _freeze(boundary))


def _boundary_faces(mesh: Mesh) -> np.ndarray:
    """:func:`boundary_faces` as rows (F, 4), a triangle's first vertex repeated as its fourth. Only faces
    with every vertex on the boundary are matched: the copies of a face share its vertices, so all or none are."""
    corners, order = [np.empty((0, 4), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for size, (cols, parts) in _faces_by_size(mesh.elements.groups, mesh.boundary).items():
        once = _once(cols)
        corners.append(cols[:, once][[0, 1, 2, 3 % size]].T)  # rows 0, 1, 2, 0 for a triangle
        order.append(np.concatenate([ids * _MAX_FACES + j for ids, j in parts])[once])
    return np.concatenate(corners)[np.argsort(np.concatenate(order))]


def boundary_faces(mesh: Mesh) -> list[tuple[int, ...]]:
    """Oriented faces incident to exactly one element, in element order."""
    return [tuple(row[:3 + (row[3] != row[0])]) for row in _boundary_faces(mesh).tolist()]


def kind_groups(mesh: Mesh) -> dict[ElementKind, tuple[np.ndarray, np.ndarray]]:
    """Group elements by kind for batched geometry.

    Returns ``{kind: (element_ids, connectivity)}`` where ``connectivity``
    has shape (m, n_e), kinds in the order of their first element. Element
    ids refer to positions in ``mesh.elements``. The arrays are read-only
    and cached on the mesh's connectivity: every call returns the same ones.
    """
    return mesh.elements.groups
