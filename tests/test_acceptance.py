"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import pathlib
from contextlib import contextmanager

import numpy as np
import pytest

import polysmooth as ps
from polysmooth.fdcheck import fd_gradient, relative_error
from polysmooth.generators import (
    GENERATOR_NAMES,
    icosahedron_polyhedron,
    random_element_coords,
    random_rotation,
    random_valid_mesh,
    regular_element_coords,
)
from polysmooth.quality import (
    Combiner,
    Measure,
    QualityMeasureSpec,
    mean_ratio,
    mean_ratio_volume_equivalence,
    mesh_mean_volumes,
    mesh_quality,
)
from polysmooth.smoothing import BoundaryPolicy, SmoothingConfig, Termination

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cube_regression.json"

ALL_KINDS = list(ps.ElementKind)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    print(f"[criterion {num:2d}] {name}: PASS")


def _sum_spec(measure):
    return QualityMeasureSpec(measure, Combiner.SUM)


def test_criterion_01_gradient_identity():
    rng = np.random.default_rng(101)
    with criterion(1, "transformation field equals six times the mean-volume gradient"):
        for kind in ALL_KINDS:
            worst = 0.0
            for _ in range(100):
                x = random_element_coords(kind, rng)
                fd = fd_gradient(lambda y: ps.element_mean_volume(kind, y), x)
                worst = max(worst, relative_error(ps.element_field(kind, x) / 6.0, fd))
            assert worst <= 1e-6, f"{kind.value}: worst relative error {worst}"


def test_criterion_02_euler_identity():
    rng = np.random.default_rng(102)
    with criterion(2, "Euler identity <x, field(x)> = 18 * mean volume"):
        for kind in ALL_KINDS:
            for _ in range(100):
                x = random_element_coords(kind, rng)
                lhs = float(np.sum(x * ps.element_field(kind, x)))
                rhs = 18.0 * ps.element_mean_volume(kind, x)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_criterion_03_jacobian_symmetry():
    rng = np.random.default_rng(103)
    with criterion(3, "numerical Jacobian of the field is symmetric"):
        h = 1e-6
        for kind in ALL_KINDS:
            for _ in range(3):
                x = random_element_coords(kind, rng, transform=False)
                n = x.size
                jac = np.empty((n, n))
                flat = x.reshape(-1)
                for k in range(n):
                    plus, minus = flat.copy(), flat.copy()
                    plus[k] += h
                    minus[k] -= h
                    jac[:, k] = (
                        ps.element_field(kind, plus.reshape(-1, 3))
                        - ps.element_field(kind, minus.reshape(-1, 3))
                    ).reshape(-1) / (2 * h)
                asym = np.abs(jac - jac.T).max() / np.abs(jac).max()
                assert asym <= 1e-6, f"{kind.value}: asymmetry {asym}"


def test_criterion_04_ascent_theorem():
    rng = np.random.default_rng(104)
    measures = [
        Measure.MEAN_VOLUME_SUM,
        Measure.PRODUCT_SQUARED,
        Measure.INVERSE_SQUARED_SUM,
        Measure.ISOPERIMETRIC_QUOTIENT,
    ]
    with criterion(4, "backtracked step strictly increases quality (100/100 meshes, 4 measures)"):
        for i in range(100):
            mesh = random_valid_mesh(rng)
            for measure in measures:
                cfg = SmoothingConfig(
                    measure=_sum_spec(measure),
                    boundary_policy=BoundaryPolicy.FREE,
                    max_iterations=1,
                    field_tol=0.0,
                )
                _, report = ps.smooth(mesh, cfg)
                assert report.iterations == 1, (
                    f"mesh {i}, {measure.value}: {report.termination.value}"
                )
                assert report.quality[0] > report.initial_quality, f"mesh {i}, {measure.value}"


def test_criterion_05_inner_vertex_pathology():
    rng = np.random.default_rng(105)
    with criterion(5, "inner-vertex field cancels; product measure drives it to the centroid"):
        centroid = regular_element_coords(ps.ElementKind.TETRA).mean(axis=0)
        for _ in range(20):
            inner = centroid + rng.uniform(-0.15, 0.15, size=3)
            mesh = ps.tet_with_inner_vertex(inner)
            field = ps.assemble_field(mesh)
            diag = np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0))
            # the field carries squared-length units, hence the diag**2 scale
            assert np.linalg.norm(field[4]) <= 1e-12 * diag**2

        mesh = ps.tet_with_inner_vertex(centroid + np.array([0.05, -0.12, 0.08]))
        cfg = SmoothingConfig(
            measure=_sum_spec(Measure.PRODUCT_SQUARED),
            boundary_policy=BoundaryPolicy.FIX_BOUNDARY,
            max_iterations=400,
            field_tol=1e-14,
        )
        coords, _ = ps.smooth(mesh, cfg)
        assert np.linalg.norm(coords[4] - centroid) < 1e-6


def test_criterion_06_mean_ratio():
    rng = np.random.default_rng(106)
    with criterion(6, "mean ratio: regular value, invariance, volume equivalence"):
        assert abs(mean_ratio(regular_element_coords(ps.ElementKind.TETRA)) - 1.0) <= 1e-12

        ratios = []
        for _ in range(100):
            x = random_element_coords(ps.ElementKind.TETRA, rng)
            q = mean_ratio(x)
            moved = rng.uniform(0.2, 5.0) * (x @ random_rotation(rng).T) + rng.uniform(-8, 8, 3)
            assert abs(mean_ratio(moved) - q) <= 1e-10
            lhs, rhs = mean_ratio_volume_equivalence(x)
            ratios.append(rhs / lhs)
        ratios = np.asarray(ratios)
        assert np.ptp(ratios) / abs(ratios.mean()) <= 1e-10


def test_criterion_07_isoperimetric_quotient():
    rng = np.random.default_rng(107)
    with criterion(7, "unit-cube iq closed form; perturbed icosahedron regains roundness"):
        cube = regular_element_coords(ps.ElementKind.HEXA)
        assert abs(ps.element_iq(ps.ElementKind.HEXA, cube) - math.sqrt(math.pi / 6)) <= 1e-12

        coords, faces = icosahedron_polyhedron()
        regular_iq = ps.polyhedron_iq(faces, coords)  # oracle from exact coordinates
        edge = 2.0
        direction = rng.standard_normal(coords.shape)
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        start = coords + direction * rng.uniform(0, 0.05 * edge, size=(12, 1))
        final, report = ps.smooth_polyhedron(
            start, faces, SmoothingConfig(max_iterations=300, field_tol=1e-12)
        )
        qs = [report.initial_quality] + report.quality
        assert all(b > a for a, b in zip(qs, qs[1:])), "iq must rise every iteration"
        assert abs(qs[-1] - regular_iq) <= 1e-4


def test_criterion_08_scaling_translation_equivariance():
    rng = np.random.default_rng(108)
    with criterion(8, "step trajectories commute with scaling and translation"):
        cfg = SmoothingConfig(
            measure=_sum_spec(Measure.PRODUCT_SQUARED), boundary_policy=BoundaryPolicy.FREE
        )
        for _ in range(20):
            mesh = random_valid_mesh(rng)
            s = rng.uniform(0.1, 10.0)
            t = rng.uniform(-5.0, 5.0, size=3)
            a = ps.project_shape(mesh.vertices)
            b = s * np.asarray(mesh.vertices) + t
            for _step in range(5):
                a = ps.smoothing_step(mesh, a, cfg, 0.05)
                b = ps.smoothing_step(mesh, b, cfg, 0.05)
                assert np.abs(ps.project_shape(b) - ps.project_shape(a)).max() <= 1e-9


def test_criterion_09_regular_elements_fixed():
    with criterion(9, "regular element of each kind is a fixed point of the step"):
        cfg = SmoothingConfig(
            measure=_sum_spec(Measure.MEAN_VOLUME_SUM), boundary_policy=BoundaryPolicy.FREE
        )
        for kind in ALL_KINDS:
            mesh = ps.regular_element(kind)
            x = ps.project_shape(mesh.vertices)
            y = ps.smoothing_step(mesh, x, cfg, 0.1)
            assert np.abs(y - x).max() <= 1e-10, kind.value


def test_criterion_10_cube_smoothing_regression():
    with criterion(10, "perturbed 4x4x4 tet cube: min mean ratio improves, no inversions"):
        mesh = ps.perturb_mesh(ps.tet_grid(4), 0.3 / 4, seed=0, fix_boundary=True)
        assert mesh_mean_volumes(mesh).min() > 0, "start must be valid"
        min_ratio = QualityMeasureSpec(Measure.MEAN_RATIO, Combiner.MIN)
        before = mesh_quality(mesh, spec=min_ratio).global_value
        cfg = SmoothingConfig(
            measure=_sum_spec(Measure.PRODUCT_SQUARED),
            boundary_policy=BoundaryPolicy.FIX_BOUNDARY,
            max_iterations=200,
            field_tol=1e-12,
        )
        coords, report = ps.smooth(mesh, cfg)
        after = mesh_quality(mesh, coords, min_ratio).global_value
        assert after > before
        assert mesh_mean_volumes(mesh, coords).min() > 0
        qs = [report.initial_quality] + report.quality
        assert all(b > a for a, b in zip(qs, qs[1:]))

        record = {
            "initial_min_mean_ratio": before,
            "final_min_mean_ratio": after,
            "iterations": report.iterations,
            "termination": report.termination.value,
            "final_objective": report.quality[-1],
        }
        # a missing file fails the test: the frozen values are never regenerated
        golden = json.loads(GOLDEN.read_text())
        assert golden["iterations"] == record["iterations"]
        assert golden["termination"] == record["termination"]
        for key in ("initial_min_mean_ratio", "final_min_mean_ratio", "final_objective"):
            assert record[key] == pytest.approx(golden[key], rel=1e-9), key


def test_criterion_11_io_roundtrip(tmp_path):
    with criterion(11, "byte-stable mesh files round-trip across the generator zoo"):
        for name in GENERATOR_NAMES:
            mesh = ps.generate(ps.GeneratorSpec(name, size=2, perturb=0.04, seed=11))
            p1 = tmp_path / f"{name}-1.vtk"
            p2 = tmp_path / f"{name}-2.vtk"
            ps.write_mesh(mesh, p1)
            ps.write_mesh(mesh, p2)
            assert p1.read_bytes() == p2.read_bytes()
            back = ps.read_mesh(p1)
            assert np.array_equal(mesh.vertices, back.vertices)
            assert len(mesh.elements) == len(back.elements)
            for a, b in zip(mesh.elements, back.elements):
                assert a.kind is b.kind and a.vertices == b.vertices
