import dataclasses
import itertools

import numpy as np
import pytest

from polysmooth import ElementKind, GeneratorSpec, generate, generators
from polysmooth.errors import InvalidSpec, NoValidDraw
from polysmooth.generators import (
    REGULAR_TETRA,
    icosahedron_mesh,
    icosahedron_polyhedron,
    perturb_mesh,
    random_displacements,
    random_element_coords,
    random_valid_mesh,
    regular_element,
    tet_grid,
    tet_with_inner_vertex,
    unit_element,
)
from polysmooth.geometry import polyhedron_mean_volume
from polysmooth.quality import mesh_mean_volumes


def test_regular_tetra_coordinates():
    expected = np.array(
        [
            [0, 0, 0],
            [1, 0, 0],
            [0.5, np.sqrt(3) / 2, 0],
            [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3],
        ]
    )
    assert np.allclose(regular_element(ElementKind.TETRA).vertices, expected, atol=1e-15)


@pytest.mark.parametrize("kind", list(ElementKind))
def test_regular_elements_have_unit_edges_where_expected(kind):
    mesh = regular_element(kind)
    vols = mesh_mean_volumes(mesh)
    assert vols[0] > 0


def test_inner_tet_congruent_at_centroid():
    mesh = tet_with_inner_vertex()
    vols = mesh_mean_volumes(mesh)
    assert np.allclose(vols, vols[0], rtol=1e-12)
    # the four tets partition the outer regular tetra
    assert np.isclose(vols.sum(), np.sqrt(2) / 12, rtol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_inner_tet_outer_faces_regular_for_any_inner(seed):
    rng = np.random.default_rng(seed)
    inner = REGULAR_TETRA.mean(axis=0) + rng.uniform(-0.2, 0.2, size=3)
    mesh = tet_with_inner_vertex(inner)
    outer = mesh.vertices[:4]
    edges = [np.linalg.norm(outer[i] - outer[j]) for i, j in itertools.combinations(range(4), 2)]
    assert np.allclose(edges, 1.0, atol=1e-15)


def test_unit_cube_volume_one():
    mesh = unit_element(ElementKind.HEXA)
    assert np.isclose(mesh_mean_volumes(mesh)[0], 1.0, rtol=1e-15)


def test_tet_grid_valid_and_conforming():
    mesh = tet_grid(2)
    assert mesh.n_elements == 48
    assert (mesh_mean_volumes(mesh) > 0).all()
    # conforming: every interior face is shared by exactly two tets
    from polysmooth.mesh import boundary_faces

    boundary = boundary_faces(mesh)
    assert len(boundary) == 6 * 4 * 2  # 4 squares per side, 2 triangles each


def test_grid_size_must_be_positive():
    with pytest.raises(InvalidSpec):
        tet_grid(0)
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("hex-cube", size=-1))


@pytest.mark.parametrize("name", ["moebius", "unit-foo", "regular-"])
def test_unknown_generator_name(name):
    with pytest.raises(InvalidSpec, match=f"unknown generator '{name}'; expected one of"):
        generate(GeneratorSpec(name))


@pytest.mark.parametrize("build, match", [
    (lambda: perturb_mesh(tet_grid(2), 0.01, seed=-3), "seed must be >= 0, got -3"),
    (lambda: perturb_mesh(tet_grid(2), 0.01, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: random_displacements(4, 0.1, seed="0"), "seed must be an integer, got '0'"),
    (lambda: random_displacements(-1, 0.1), "vertex count must be >= 0, got -1"),
    (lambda: random_displacements(2.5, 0.1), "vertex count must be an integer, got 2.5"),
    # (k + 1)^3 vertices above the face-matching limit, refused before any allocation
    (lambda: tet_grid(1448), "grid size 1448 needs 3042321849 vertices"),
    (lambda: generate(GeneratorSpec("hex-cube", size=10**20)), f"grid size {10**20} needs"),
    (lambda: generate(GeneratorSpec("tet-cube", size=2.5)), "grid size must be an integer, got 2.5"),
    (lambda: generate(GeneratorSpec("hex-cube", size=None)), "grid size must be an integer, got None"),
    (lambda: generate(GeneratorSpec("tet-cube", perturb=0.01, seed=-1)), "seed must be >= 0, got -1"),
    (lambda: generate(GeneratorSpec("inner-tet", inner=(0, 0))), r"one point \(x, y, z\), got shape \(2,\)"),
    (lambda: tet_with_inner_vertex([[0.5, 0.3, 0.2]]), r"got shape \(1, 3\)"),
    (lambda: random_displacements(4, float("nan")), "perturbation amplitude must be finite and >= 0, got nan"),
    (lambda: random_displacements(4, -0.1), "perturbation amplitude must be finite and >= 0, got -0.1"),
    (lambda: random_displacements(4, float("inf")), "perturbation amplitude must be finite and >= 0, got inf"),
])
def test_generator_inputs_are_checked_where_they_are_used(build, match):
    with pytest.raises(InvalidSpec, match=match):
        build()


@pytest.mark.parametrize("seed", [12, 4, 0, 7])  # the first draws of these seeds pick each perturbed mesh
def test_random_valid_mesh_raises_a_package_error_when_every_draw_is_invalid(seed, monkeypatch):
    assert np.random.default_rng(seed).integers(0, 8) >= 4
    # mirrored, every element of a draw is inverted
    monkeypatch.setattr(generators, "perturb_mesh", lambda mesh, *args, **kwargs: dataclasses.replace(
        mesh, vertices=-mesh.vertices))
    with pytest.raises(NoValidDraw, match="no valid mesh in 100 perturbed draws"):
        random_valid_mesh(np.random.default_rng(seed))


def test_values_a_generator_does_not_use_are_not_checked():
    assert generate(GeneratorSpec("icosahedron", size=2.5, seed=-1)).n_elements == 20
    assert perturb_mesh(tet_grid(2), 0.0, seed=-1).n_vertices == 27
    # integer-like seeds and sizes are taken as they are
    a = generate(GeneratorSpec("tet-cube", size=np.int64(2), perturb=0.05, seed=np.uint8(3)))
    b = generate(GeneratorSpec("tet-cube", size=2, perturb=0.05, seed=3))
    assert np.array_equal(a.vertices, b.vertices)


def test_perturb_zero_is_identity():
    mesh = tet_grid(2)
    same = perturb_mesh(mesh, 0.0, seed=3)
    assert np.array_equal(mesh.vertices, same.vertices)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1])
def test_perturb_amplitude_must_be_finite_and_nonnegative(eps):
    with pytest.raises(InvalidSpec):
        perturb_mesh(tet_grid(2), eps)
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("tet-cube", perturb=eps))


def test_perturb_bounded_and_seeded():
    mesh = tet_grid(2)
    eps = 0.07
    a = perturb_mesh(mesh, eps, seed=5, fix_boundary=False)
    b = perturb_mesh(mesh, eps, seed=5, fix_boundary=False)
    assert np.array_equal(a.vertices, b.vertices)
    moved = np.linalg.norm(a.vertices - mesh.vertices, axis=1)
    assert moved.max() <= eps + 1e-15
    assert moved.max() > 0


def test_perturb_fix_boundary_keeps_boundary():
    mesh = tet_grid(2)
    p = perturb_mesh(mesh, 0.1, seed=1, fix_boundary=True)
    assert np.array_equal(p.vertices[mesh.boundary], mesh.vertices[mesh.boundary])
    interior = ~mesh.boundary
    assert np.abs(p.vertices[interior] - mesh.vertices[interior]).max() > 0


def test_icosahedron_polyhedron_regular():
    coords, faces = icosahedron_polyhedron()
    assert coords.shape == (12, 3)
    assert len(faces) == 20
    edges = set()
    for f in faces:
        for i in range(3):
            edges.add(tuple(sorted((f[i], f[(i + 1) % 3]))))
    assert len(edges) == 30
    lengths = [np.linalg.norm(coords[a] - coords[b]) for a, b in edges]
    assert np.allclose(lengths, 2.0, atol=1e-12)
    assert polyhedron_mean_volume(faces, coords) > 0


def test_icosahedron_mesh_is_valid_fan():
    mesh = icosahedron_mesh()
    assert mesh.n_vertices == 13
    assert mesh.n_elements == 20
    assert (mesh_mean_volumes(mesh) > 0).all()
    assert not mesh.boundary[12]
    assert mesh.boundary[:12].all()


def test_generate_dispatch_covers_all_names():
    from polysmooth.generators import GENERATOR_NAMES

    for name in GENERATOR_NAMES:
        mesh = generate(GeneratorSpec(name))
        assert mesh.n_elements >= 1
