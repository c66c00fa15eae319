import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest

from polysmooth import Element, ElementKind, make_mesh
from polysmooth.errors import InvalidElement, InvalidSpec
from polysmooth.generators import _house_mesh, hex_grid, tet_with_inner_vertex, unit_element
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
