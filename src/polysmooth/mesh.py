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
read (:func:`kind_groups`), built on first use. A mesh built from another
mesh's ``elements`` shares the arrays and the cached groups.

:func:`make_mesh` also stores vertex valence and boundary flags, from one
``np.bincount`` and one sort over the stacked element faces.
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Connectivity(Sequence):
    """Elements in CSR form: element i has the kind numbered ``codes[i]`` in
    :data:`KIND_CODES` and the vertices ``flat[offsets[i]:offsets[i + 1]]``.

    The arrays are read-only. As a sequence it yields :class:`Element`
    objects, built on every access.
    """

    codes: np.ndarray
    flat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "codes", _freeze(np.asarray(self.codes, dtype=np.int8)))
        object.__setattr__(self, "flat", _freeze(np.asarray(self.flat, dtype=np.int64)))

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


def _faces_by_size(groups) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every oriented element face, stacked by face size.

    Returns ``{size: (faces, order, once)}``: ``faces`` (f, size) holds global
    vertex indices, ``order`` the position of each face in the walk over
    elements in order and their faces in :data:`FACES` order, and ``once``
    flags faces whose vertex set occurs exactly once among faces of that size.
    """
    stacks: dict[int, tuple[list, list]] = {}
    for kind, (ids, conn) in groups.items():
        for j, face in enumerate(FACES[kind]):
            faces, order = stacks.setdefault(len(face), ([], []))
            faces.append(conn[:, face])
            order.append(ids * _MAX_FACES + j)
    out = {}
    for size in list(stacks):
        # parts dropped once stacked, int32 keys: half the peak memory at size
        faces, order = (np.concatenate(parts) for parts in stacks.pop(size))
        keys = faces.astype(np.int32 if faces.max(initial=0) < 2**31 else np.int64)
        keys.sort(axis=1)
        perm = np.lexsort(keys.T[::-1])
        keys = keys[perm]
        starts = np.ones(len(keys), dtype=bool)
        starts[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        run = np.cumsum(starts) - 1
        once = np.empty(len(keys), dtype=bool)
        once[perm] = np.bincount(run)[run] == 1
        out[size] = (faces, order, once)
    return out


def vertex_array(points) -> np.ndarray:
    """``points`` as read-only (n, 3) finite float coordinates."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidSpec(f"points must have shape (n, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidSpec("vertex coordinates must be finite")
    return _freeze(pts)


def make_mesh(points, elements) -> Mesh:
    """Build a mesh from raw coordinates and elements, computing adjacency.

    ``elements`` is any iterable of :class:`Element`, or a mesh's
    ``elements``, whose arrays and cached groups are then shared.
    """
    pts = vertex_array(points)
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
    for faces, _, once in _faces_by_size(cells.groups).values():
        boundary[faces[once]] = True
    return Mesh(pts, cells, _freeze(valence), _freeze(boundary))


def boundary_faces(mesh: Mesh) -> list[tuple[int, ...]]:
    """Oriented faces incident to exactly one element, in element order."""
    found = []
    for faces, order, once in _faces_by_size(mesh.elements.groups).values():
        found += zip(order[once].tolist(), map(tuple, faces[once].tolist()))
    return [face for _, face in sorted(found)]


def kind_groups(mesh: Mesh) -> dict[ElementKind, tuple[np.ndarray, np.ndarray]]:
    """Group elements by kind for batched geometry.

    Returns ``{kind: (element_ids, connectivity)}`` where ``connectivity``
    has shape (m, n_e), kinds in the order of their first element. Element
    ids refer to positions in ``mesh.elements``. The arrays are read-only
    and cached on the mesh's connectivity: every call returns the same ones.
    """
    return mesh.elements.groups
