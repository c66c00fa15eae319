import dataclasses
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from polysmooth import Element, ElementKind, make_mesh
from polysmooth.errors import InvalidElement, InvalidSpec
from polysmooth.generators import (
    _house_mesh,
    hex_grid,
    perturb_mesh,
    tet_grid,
    tet_with_inner_vertex,
    unit_element,
)
from polysmooth.mesh import boundary_faces, kind_groups


def test_single_tet_adjacency():
    mesh = unit_element(ElementKind.TETRA)
    assert mesh.valence.tolist() == [1, 1, 1, 1]
    assert mesh.boundary.all()


def test_inner_tet_adjacency():
    mesh = tet_with_inner_vertex()
    assert mesh.valence.tolist() == [3, 3, 3, 3, 4]
    assert mesh.boundary.tolist() == [True, True, True, True, False]


def test_hex_grid_2_center_vertex_interior():
    mesh = hex_grid(2)
    assert mesh.n_vertices == 27
    assert mesh.n_elements == 8
    # brute-force incidence count
    counts = np.zeros(27, dtype=int)
    for e in mesh.elements:
        for v in e.vertices:
            counts[v] += 1
    assert np.array_equal(counts, mesh.valence)
    center = 13  # (1,1,1) in the 3x3x3 lattice
    assert mesh.valence[center] == 8
    assert not mesh.boundary[center]
    assert mesh.boundary[np.arange(27) != center].all()


def test_duplicate_vertex_rejected():
    with pytest.raises(InvalidElement, match=r"^repeated vertex index in \(0, 1, 2, 2\)$"):
        Element(ElementKind.TETRA, (0, 1, 2, 2))


def test_wrong_vertex_count_rejected():
    with pytest.raises(InvalidElement, match=r"^prism needs 6 vertices, got 4$"):
        Element(ElementKind.PRISM, (0, 1, 2, 3))


def test_out_of_range_index_rejected():
    pts = np.zeros((3, 3))
    with pytest.raises(InvalidElement):
        make_mesh(pts, [Element(ElementKind.TETRA, (0, 1, 2, 5))])


def test_nonfinite_coordinates_rejected():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, np.nan]])
    with pytest.raises(InvalidSpec):
        make_mesh(pts, [Element(ElementKind.TETRA, (0, 1, 2, 3))])


def test_mesh_arrays_are_readonly():
    mesh = unit_element(ElementKind.HEXA)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0


def test_boundary_faces_of_shared_tets():
    # two tets sharing face (0,1,2): the shared face is not a boundary face
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1 / 3, 1 / 3, -1.0]])
    mesh = make_mesh(
        pts,
        [Element(ElementKind.TETRA, (0, 1, 2, 3)), Element(ElementKind.TETRA, (0, 2, 1, 4))],
    )
    faces = boundary_faces(mesh)
    assert len(faces) == 6
    assert all(set(f) != {0, 1, 2} for f in faces)
    assert mesh.boundary.all()


def test_kind_groups_cover_all_elements():
    mesh = tet_with_inner_vertex()
    groups = kind_groups(mesh)
    assert set(groups) == {ElementKind.TETRA}
    ids, conn = groups[ElementKind.TETRA]
    assert ids.tolist() == [0, 1, 2, 3]
    assert conn.shape == (4, 4)


def _brute_force_adjacency(mesh):
    """Valence, boundary flags and boundary faces by counting in Python."""
    valence = np.zeros(mesh.n_vertices, dtype=np.int64)
    seen: Counter = Counter()
    oriented = {}
    for e in mesh.elements:
        for v in e.vertices:
            valence[v] += 1
        for face in e.faces():
            key = tuple(sorted(face))
            seen[key] += 1
            oriented.setdefault(key, face)
    boundary = np.zeros(mesh.n_vertices, dtype=bool)
    faces = []
    for key, count in seen.items():
        if count == 1:
            boundary[list(key)] = True
            faces.append(oriented[key])
    return valence, boundary, faces


def test_adjacency_matches_brute_force_on_mixed_meshes(interleaved_mesh):
    assert not interleaved_mesh.boundary.all()  # the pyramid centres are interior
    for mesh in (interleaved_mesh, _house_mesh(), tet_with_inner_vertex(), hex_grid(2)):
        valence, boundary, faces = _brute_force_adjacency(mesh)
        assert mesh.valence.dtype == np.int64
        assert np.array_equal(mesh.valence, valence)
        assert np.array_equal(mesh.boundary, boundary)
        assert boundary_faces(mesh) == faces  # first-occurrence order


def test_out_of_range_error_names_the_first_bad_element():
    pts = np.zeros((6, 3))
    elements = [
        Element(ElementKind.PYRAMID, (0, 1, 2, 3, 4)),
        Element(ElementKind.TETRA, (0, 1, 2, 7)),
        Element(ElementKind.PYRAMID, (0, 1, 2, 3, 9)),
    ]
    with pytest.raises(InvalidElement, match=r"\(0, 1, 2, 7\)"):
        make_mesh(pts, elements)


def test_element_value_semantics_survive_slots():
    a = Element(ElementKind.PRISM, (0, 1, 2, 3, 4, 5))
    b = Element(ElementKind.PRISM, np.arange(6))
    assert a == b and hash(a) == hash(b)
    assert a != Element(ElementKind.PRISM, (0, 2, 1, 3, 5, 4))
    assert not hasattr(a, "__dict__")
    assert all(type(v) is int for v in b.vertices)
    back = pickle.loads(pickle.dumps(b))
    assert back == a and hash(back) == hash(a) and back.kind is ElementKind.PRISM
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.kind = ElementKind.TETRA


def _random_mixed_elements(rng, n_points=30, count=60):
    kinds = list(ElementKind)
    return [
        Element(kind, rng.choice(n_points, size=kind.vertex_count, replace=False))
        for kind in (kinds[i] for i in rng.integers(0, len(kinds), size=count))
    ]


def test_elements_view_equals_the_elements_given(rng):
    elements = _random_mixed_elements(rng)
    mesh = make_mesh(rng.standard_normal((30, 3)), elements)
    assert len({e.kind for e in elements}) == 4
    assert len(mesh.elements) == mesh.n_elements == 60
    assert list(mesh.elements) == elements
    assert [mesh.elements[i] for i in range(60)] == elements
    assert mesh.elements[-1] == elements[-1]
    assert mesh.elements[7:23] == tuple(elements[7:23])
    assert mesh.elements[::-5] == tuple(elements[::-5])
    with pytest.raises(IndexError):
        mesh.elements[60]
    # kinds in first-occurrence order, ids ascending within a kind
    groups = kind_groups(mesh)
    assert list(groups) == list(dict.fromkeys(e.kind for e in elements))
    for kind, (ids, conn) in groups.items():
        assert [elements[i] for i in ids] == [Element(kind, row) for row in conn]
        assert [elements[i].kind for i in ids] == [kind] * len(ids)


def test_mesh_over_the_same_elements_shares_connectivity_and_groups():
    mesh = hex_grid(3)
    other = make_mesh(2.0 * mesh.vertices, mesh.elements)
    assert other.elements is mesh.elements
    assert np.shares_memory(other.elements.flat, mesh.elements.flat)
    assert kind_groups(other) is kind_groups(mesh)
    assert np.array_equal(other.valence, mesh.valence)
    assert np.array_equal(other.boundary, mesh.boundary)


def test_shared_elements_are_checked_against_the_new_vertex_count():
    mesh = make_mesh(np.zeros((6, 3)), [
        Element(ElementKind.TETRA, (0, 1, 2, 3)),
        Element(ElementKind.PYRAMID, (0, 1, 2, 3, 5)),
        Element(ElementKind.TETRA, (1, 2, 3, 4)),
    ])
    with pytest.raises(InvalidElement, match=r"out of range in \(0, 1, 2, 3, 5\)"):
        make_mesh(np.zeros((5, 3)), mesh.elements)
    bigger = make_mesh(np.zeros((8, 3)), mesh.elements)
    assert bigger.valence.tolist() == [2, 3, 3, 3, 1, 1, 0, 0]
    assert bigger.boundary.tolist() == [True] * 6 + [False] * 2


def test_perturbation_shares_adjacency_and_sorts_no_faces(monkeypatch):
    import polysmooth.mesh as mesh_module

    mesh = tet_grid(3)
    sorts = Counter()

    def counting(groups):
        sorts["faces"] += 1
        return faces_by_size(groups)

    faces_by_size = mesh_module._faces_by_size
    monkeypatch.setattr(mesh_module, "_faces_by_size", counting)
    moved = perturb_mesh(mesh, 0.05, seed=1)
    assert not sorts
    assert moved.elements is mesh.elements
    assert moved.valence is mesh.valence and moved.boundary is mesh.boundary
    assert not np.array_equal(moved.vertices, mesh.vertices)
    assert not moved.vertices.flags.writeable


def test_tet_grid_20_holds_arrays_not_element_objects():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mesh = tet_grid(20)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert mesh.n_elements == 48_000 and mesh.boundary.sum() == 6 * 20**2 + 2
    # 48,000 Element objects in a tuple took 6.1 MB by themselves
    assert held < 4e6
