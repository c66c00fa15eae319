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
from polysmooth.mesh import (
    _MAX_FACES, FACES, KIND_CODES, Connectivity, _face_keys, _faces_by_size, _once, boundary_faces, kind_groups,
)


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


@pytest.mark.parametrize("codes, flat, message", [
    ([9], range(4), r"^element 0 has kind code 9; the codes are 0 to 3$"),
    ([0, -1], range(12), r"^element 1 has kind code -1; the codes are 0 to 3$"),
    ([0, 0], range(12), r"^the kind codes need 8 vertex indices; got 12$"),
    ([3], range(6), r"^the kind codes need 8 vertex indices; got 6$"),
    ([3.9], range(8), r"^kind codes must be integers; got float64$"),
    ([3], [0, 1.5, 2, 3, 4, 5, 6, 7], r"^vertex indices must be integers; got float64$"),
    ([True], range(5), r"^kind codes must be integers; got bool$"),
])
def test_connectivity_rejects_arrays_it_cannot_describe(codes, flat, message):
    with pytest.raises(InvalidSpec, match=message):
        make_mesh(np.zeros((12, 3)), Connectivity(codes, np.array(flat)))


def test_connectivity_names_the_first_element_that_repeats_a_vertex():
    # each kind's rows are tested apart; the error names the first such element over all kinds
    codes = [KIND_CODES[ElementKind.HEXA], KIND_CODES[ElementKind.TETRA], KIND_CODES[ElementKind.HEXA]]
    flat = [*range(8), 0, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 6]
    with pytest.raises(InvalidElement, match=r"^repeated vertex index in \(0, 0, 1, 2\)$"):
        Connectivity(codes, np.array(flat))
    with pytest.raises(InvalidElement, match=r"^repeated vertex index in \(0, 1, 2, 3, 4, 5, 6, 6\)$"):
        Connectivity(codes[::2], np.array(flat[:8] + flat[-8:]))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint32, np.int64, np.uint64])
def test_connectivity_accepts_every_integer_type(dtype):
    mesh = make_mesh(np.eye(4, 3), Connectivity(np.zeros(1, dtype=dtype), np.arange(4, dtype=dtype)))
    assert mesh.elements[0] == Element(ElementKind.TETRA, (0, 1, 2, 3))
    assert mesh.elements.codes.dtype == np.int8 and mesh.elements.flat.dtype == np.int64


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


def _reference_faces_by_size(groups):
    """Face matching by sorting each face row and one lexsort over all columns,
    kept verbatim as the reference for :func:`polysmooth.mesh._faces_by_size`."""
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


def _assert_faces_match_reference(groups):
    expected, got = _reference_faces_by_size(groups), _faces_by_size(groups)
    assert list(got) == list(expected)
    for size, (faces, order, once) in expected.items():
        cols, parts = got[size]
        assert np.array_equal(cols, faces.T)
        assert np.array_equal(np.concatenate([ids * _MAX_FACES + j for ids, j in parts]), order)
        assert np.array_equal(np.sort(_once(cols)), np.flatnonzero(once))


def _reference_boundary_faces(groups):
    """The faces the reference finds once, in walk order."""
    found = []
    for faces, order, once in _reference_faces_by_size(groups).values():
        found += zip(order[once].tolist(), map(tuple, faces[once].tolist()))
    return [face for _, face in sorted(found)]


def _face_multiplicities(groups):
    seen = Counter()
    for kind, (_, conn) in groups.items():
        for face in FACES[kind]:
            seen.update(map(frozenset, conn[:, face].tolist()))
    return set(seen.values())


@pytest.mark.parametrize("seed", range(5))
def test_face_matching_equals_the_reference_on_random_mixed_meshes(seed):
    rng = np.random.default_rng(seed)
    # few vertices, so faces repeat; three elements on each side of one
    # triangle and one quad make faces shared by 3 for sure
    elements = _random_mixed_elements(rng, n_points=10, count=80) + [
        Element(ElementKind.TETRA, (0, 1, 2, 3)),
        Element(ElementKind.TETRA, (2, 1, 0, 4)),
        Element(ElementKind.PYRAMID, (5, 6, 7, 0, 2)),
        Element(ElementKind.PRISM, (0, 1, 2, 6, 7, 8)),
        Element(ElementKind.HEXA, (0, 1, 2, 3, 4, 5, 6, 7)),
        Element(ElementKind.HEXA, (3, 2, 1, 0, 9, 8, 7, 6)),
        Element(ElementKind.PYRAMID, (0, 1, 2, 3, 8)),
    ]
    rng.shuffle(elements)
    mesh = make_mesh(rng.standard_normal((10, 3)), elements)
    groups = kind_groups(mesh)
    assert len(groups) == 4 and {1, 2, 3} <= _face_multiplicities(groups)
    _assert_faces_match_reference(groups)
    assert boundary_faces(mesh) == _reference_boundary_faces(groups)


def test_face_matching_equals_the_reference_on_grids(interleaved_mesh):
    for mesh in (interleaved_mesh, tet_grid(20), hex_grid(16)):
        _assert_faces_match_reference(kind_groups(mesh))


@pytest.mark.parametrize("base", [
    55_108 - 40, 55_108 - 20, 55_108, 2**21 - 40, 2**21 - 20, 2**21,
    2**31 - 40, 2**31 - 20, 2**31, 3_037_000_499 - 40,
])
def test_face_matching_equals_the_reference_near_large_indices(base):
    # groups without coordinates, indices spread around base: where quads
    # (n <= 55,108) and triangles (n <= 2**21) stop fitting one key, below
    # and above 2**31, and up to the largest index two keys can hold
    rng = np.random.default_rng(base % 97)
    groups = {}
    for kind in ElementKind:
        m = 60
        ids = np.sort(rng.choice(4 * m, size=m, replace=False))
        conn = np.array([base + rng.choice(40, size=kind.vertex_count, replace=False) for _ in range(m)])
        groups[kind] = (ids, conn.astype(np.int64))
    _assert_faces_match_reference(groups)


@pytest.mark.parametrize("size, n, count", [
    (3, 2**21, 1), (3, 2**21 + 1, 2), (4, 55_108, 1), (4, 55_109, 2), (4, 2**21, 2), (4, 3_037_000_499, 2),
])
def test_face_keys_are_as_few_as_fit_in_int64(size, n, count):
    cols = np.array([np.arange(size), n - 1 - np.arange(size)]).T
    keys = _face_keys(cols)
    assert len(keys) == count and all(key.dtype == np.int64 for key in keys)
    assert keys[0][0] != keys[0][1] and keys[0][1] >= 0


def test_face_matching_rejects_indices_the_keys_cannot_hold():
    largest = 3_037_000_498  # n = largest + 1 is the last n with n * n in int64
    conn = np.array([[0, 1, 2, largest]], dtype=np.int64)
    ids = np.array([0])
    _assert_faces_match_reference({ElementKind.TETRA: (ids, conn)})
    with pytest.raises(InvalidSpec, match="vertex indices below"):
        _once(_faces_by_size({ElementKind.TETRA: (ids, conn + 1)})[3][0])
    with pytest.raises(InvalidSpec):
        _once(_faces_by_size({ElementKind.HEXA: (ids, np.array([[0, 1, 2, 3, 4, 5, 6, largest + 1]]))})[4][0])


def test_make_mesh_memory_of_a_20_cube():
    mesh = tet_grid(20)
    tracemalloc.start()
    try:
        make_mesh(mesh.vertices, mesh.elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row-sort face matching peaked at 14.3 MB here, two keys on (f, size) faces at 12.6 MB,
    # and one key on int32 columns at 7.2 MB
    assert peak < 8.0e6
