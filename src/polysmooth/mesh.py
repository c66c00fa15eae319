"""Mesh data model: element kinds, canonical orderings, adjacency.

Canonical vertex orderings (0-based in code):

* tetra    -- (0,1,2,3), positive signed volume when valid
* pyramid  -- base (0,1,2,3) counterclockwise seen from the apex, apex 4
* prism    -- bottom triangle (0,1,2), top (3,4,5), vertical edges i <-> i+3
* hexa     -- bottom (0,1,2,3), top (4,5,6,7), vertical edges i <-> i+4

A mesh is immutable once built: coordinate and adjacency arrays are marked
read-only, smoothing works on detached coordinate arrays.

A mesh stores its elements as :class:`Element` objects plus vertex valence and
boundary flags. :func:`make_mesh` counts valence with one ``np.bincount`` and
finds boundary faces with one sort over the stacked element faces.

The per-kind integer connectivity that the batched kernels need
(:func:`kind_groups`) is not stored: each top-level call (one ``smooth``, one
quality report) builds it once and hands it to the kernels. Kept on the mesh,
it would add 40 bytes per tetrahedron to every mesh a caller holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class Mesh:
    """Vertex coordinates, typed elements and precomputed adjacency.

    ``valence[i]`` counts the elements containing vertex i; ``boundary[i]``
    is True when vertex i lies on a face owned by exactly one element.
    """

    vertices: np.ndarray
    elements: tuple[Element, ...]
    valence: np.ndarray
    boundary: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return len(self.elements)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _kind_arrays(elements) -> dict[ElementKind, tuple[np.ndarray, np.ndarray]]:
    by_kind: dict[ElementKind, list[int]] = {}
    for i, e in enumerate(elements):
        by_kind.setdefault(e.kind, []).append(i)
    groups = {}
    for kind, ids in by_kind.items():
        flat = itertools.chain.from_iterable([elements[i].vertices for i in ids])
        conn = np.fromiter(flat, dtype=np.int64, count=len(ids) * kind.vertex_count)
        groups[kind] = (np.asarray(ids, dtype=np.int64), conn.reshape(len(ids), kind.vertex_count))
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


def make_mesh(points, elements) -> Mesh:
    """Build a mesh from raw coordinates and elements, computing adjacency."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidSpec(f"points must have shape (n, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidSpec("vertex coordinates must be finite")
    elems = tuple(elements)
    n = pts.shape[0]
    groups = _kind_arrays(elems)
    out_of_range = [ids[((conn < 0) | (conn >= n)).any(axis=1)] for ids, conn in groups.values()]
    first = min((int(bad[0]) for bad in out_of_range if bad.size), default=None)
    if first is not None:
        raise InvalidElement(f"vertex index out of range in {elems[first].vertices}")

    incidences = [conn.ravel() for _, conn in groups.values()]
    valence = np.bincount(np.concatenate(incidences), minlength=n) if incidences else np.zeros(n)
    valence = valence.astype(np.int64, copy=False)
    boundary = np.zeros(n, dtype=bool)
    for faces, _, once in _faces_by_size(groups).values():
        boundary[faces[once]] = True
    return Mesh(_freeze(pts), elems, _freeze(valence), _freeze(boundary))


def boundary_faces(mesh: Mesh, *, groups=None) -> list[tuple[int, ...]]:
    """Oriented faces incident to exactly one element, in element order.

    ``groups`` are the mesh's :func:`kind_groups`, built here when omitted.
    """
    found = []
    groups = _kind_arrays(mesh.elements) if groups is None else groups
    for faces, order, once in _faces_by_size(groups).values():
        found += zip(order[once].tolist(), map(tuple, faces[once].tolist()))
    return [face for _, face in sorted(found)]


def kind_groups(mesh: Mesh) -> dict[ElementKind, tuple[np.ndarray, np.ndarray]]:
    """Group elements by kind for batched geometry.

    Returns ``{kind: (element_ids, connectivity)}`` where ``connectivity``
    has shape (m, n_e). Element ids refer to positions in ``mesh.elements``.
    The arrays are built on every call and not stored on the mesh: a
    top-level operation builds them once and passes them to the kernels it
    calls through their ``groups`` argument.
    """
    return _kind_arrays(mesh.elements)
