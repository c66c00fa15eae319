import dataclasses
import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysmooth import Element, ElementKind, make_mesh
from polysmooth import geometry as geometry_module
from polysmooth import mesh as mesh_module
from polysmooth import quality as quality_module
from polysmooth import smoothing as smoothing_module
from polysmooth.errors import DegenerateElement, DegenerateMesh, InvalidSpec, IsolatedVertex
from polysmooth.generators import (
    hex_grid,
    icosahedron_polyhedron,
    perturb_mesh,
    random_displacements,
    random_valid_mesh,
    regular_element,
    tet_grid,
    tet_with_inner_vertex,
    unit_element,
)
from polysmooth.geometry import element_field, polyhedron_iq, polyhedron_iq_gradient, polyhedron_mean_volume
from polysmooth.mesh import kind_groups
from polysmooth.quality import (
    Combiner,
    Measure,
    QualityMeasureSpec,
    compute_volume_shift,
    mesh_mean_volumes,
    scatter_element_fields,
)
from polysmooth.smoothing import (
    Assembly,
    BoundaryPolicy,
    SmoothingConfig,
    Termination,
    _BLOCK_PAIRS,
    _boundary_triangles,
    _build_flow,
    _closest_on_pairs,
    _closest_points,
    _drive,
    _Flow,
    _Surface,
    assemble_field,
    project_shape,
    smooth,
    smooth_polyhedron,
    smoothing_step,
)
from polysmooth.vtkio import write_mesh


def _config(measure, **kw):
    defaults = dict(
        measure=QualityMeasureSpec(measure, Combiner.SUM),
        boundary_policy=BoundaryPolicy.FIX_BOUNDARY,
    )
    defaults.update(kw)
    return SmoothingConfig(**defaults)


def _trials(report, config):
    """Backtracking trials of a run with the default step policy, read off its step sizes."""
    trials = sum(1 + round(math.log(s / config.sigma0) / math.log(config.shrink)) for s in report.sigma)
    if report.termination is Termination.BACKTRACKING_FAILED:
        trials += config.max_halvings + 1
    return trials


def _passes(report, config):
    """Volume passes of a run's trials, read off its step sizes. An iteration's first round holds its trials 0
    to (p + bool(p)) % _ROUND, p the index of the trial the iteration before accepted, and the rest rounds of
    ``_ROUND``: one past p, and ``sigma0`` alone after ``sigma0``."""
    ends = [round(math.log(s / config.sigma0) / math.log(config.shrink)) for s in report.sigma]
    if report.termination is Termination.BACKTRACKING_FAILED:
        ends.append(config.max_halvings)
    k = smoothing_module._ROUND
    return sum(1 + math.ceil(max(e - (p + bool(p)) % k, 0) / k) for p, e in zip([0] + ends, ends))


def _strictly_increasing(report):
    qs = [report.initial_quality] + report.quality
    return all(b > a for a, b in zip(qs, qs[1:]))


# -- field assembly -----------------------------------------------------------


def test_single_tet_assembly_equals_element_field():
    mesh = unit_element(ElementKind.TETRA)
    f = element_field(ElementKind.TETRA, mesh.vertices)
    assert np.allclose(assemble_field(mesh), f, rtol=1e-15)
    assert np.allclose(assemble_field(mesh, assembly=Assembly.VALENCE_AVERAGED), f, rtol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_inner_vertex_field_cancels(seed):
    rng = np.random.default_rng(seed)
    inner = np.array([0.5, 0.4, 0.3]) + rng.uniform(-0.1, 0.1, size=3)
    mesh = tet_with_inner_vertex(inner)
    field = assemble_field(mesh)
    assert np.linalg.norm(field[4]) < 1e-13
    assert np.abs(field[:4]).max() > 0.1


def test_shared_vertices_receive_sum_of_contributions():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1 / 3, 1 / 3, -1.0]])
    e1 = Element(ElementKind.TETRA, (0, 1, 2, 3))
    e2 = Element(ElementKind.TETRA, (0, 2, 1, 4))
    mesh = make_mesh(pts, [e1, e2])
    f1 = element_field(ElementKind.TETRA, pts[list(e1.vertices)])
    f2 = element_field(ElementKind.TETRA, pts[list(e2.vertices)])
    total = assemble_field(mesh)
    assert np.allclose(total[0], f1[0] + f2[0], rtol=1e-14)
    assert np.allclose(total[3], f1[3], rtol=1e-14)
    assert np.allclose(total[4], f2[3], rtol=1e-14)


def test_isolated_vertex_rejected_for_averaging():
    pts = np.vstack([np.array(unit_element(ElementKind.TETRA).vertices), [9.0, 9.0, 9.0]])
    mesh = make_mesh(pts, [Element(ElementKind.TETRA, range(4))])
    assemble_field(mesh)  # raw sum is fine, the stray vertex gets zero
    with pytest.raises(IsolatedVertex):
        assemble_field(mesh, assembly=Assembly.VALENCE_AVERAGED)


# -- shape projection -----------------------------------------------------------


def test_project_shape_two_vertices():
    out = project_shape(np.array([[1.0, 0, 0], [3.0, 0, 0]]))
    expected = np.array([[-1 / np.sqrt(2), 0, 0], [1 / np.sqrt(2), 0, 0]])
    assert np.allclose(out, expected, atol=1e-15)


def test_project_shape_idempotent(rng):
    x = rng.standard_normal((7, 3))
    once = project_shape(x)
    twice = project_shape(once)
    assert np.allclose(once, twice, atol=1e-15)
    assert abs(np.linalg.norm(once) - 1.0) < 1e-14
    assert np.abs(once.sum(axis=0)).max() < 1e-14


@settings(deadline=None, max_examples=30)
@given(
    st.floats(0.01, 100.0),
    st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)),
)
def test_project_shape_quotient_invariance(s, t):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3))
    a = project_shape(x)
    b = project_shape(s * x + np.asarray(t))
    assert np.allclose(a, b, atol=1e-9)


def test_project_shape_one_point_mesh():
    with pytest.raises(DegenerateMesh):
        project_shape(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(DegenerateMesh):
        project_shape(np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_project_shape_without_vertices_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMesh, match="no vertices"):
            project_shape(np.empty((0, 3)))
        with pytest.raises(DegenerateMesh, match="no vertices"):
            smooth_polyhedron(np.empty((0, 3)), ())


# -- homogeneity degree and scale normalization ----------------------------------


def _driven(monkeypatch, run):
    """The ``(coords, flow, vols)`` that ``run()`` hands to the driver, which is not run."""
    seen = []
    monkeypatch.setattr(smoothing_module, "_drive", lambda *args: seen.append(args) or (None, None))
    run()
    return seen[0][:3]


_FIELD_MEASURES = [m for m, entry in quality_module._MEASURES.items() if entry.vertex_field]


def _homogeneity_degree(field_fn, coords):
    """The scaling degree d with ``field(s*x) = s^d field(x)``, estimated at s = 1/2 and s = 2, which must agree."""
    base = np.linalg.norm(field_fn(coords))
    assert base > 0, "the zero field has no degree"
    estimates = [np.log(np.linalg.norm(field_fn(s * coords)) / base) / np.log(s) for s in (0.5, 2.0)]
    assert abs(estimates[0] - estimates[1]) <= 1e-8, estimates
    return float(np.mean(estimates))


def test_degree_of_transformation_field_is_two():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.3]))
    assert _homogeneity_degree(lambda c: assemble_field(mesh, c), np.array(mesh.vertices)) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("measure", _FIELD_MEASURES)
def test_measure_field_degrees(measure, monkeypatch):
    # the flow declares the table's closed-form degree; the numeric estimate of its field's is the oracle
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.3]))
    # the free policy leaves the field unmasked
    coords, flow, _ = _driven(monkeypatch, lambda: smooth(mesh, _config(measure, boundary_policy=BoundaryPolicy.FREE)))
    assert flow.degree == quality_module._MEASURES[measure].degree
    degree = _homogeneity_degree(lambda c: flow.field(c, flow.volumes(c[None])[0]), coords)
    assert degree == pytest.approx(flow.degree, abs=1e-8)


@pytest.mark.parametrize("measure", [*_FIELD_MEASURES, "polyhedron"])
def test_the_driver_steps_along_a_direction_of_degree_one(measure, monkeypatch):
    # the step commutes with scaling: what the driver steps along has degree 1, for the mesh measures
    # (no shift; the free policy, as the mean volume's field vanishes with the boundary fixed) and the polyhedron's iq
    if measure == "polyhedron":
        coords, faces = icosahedron_polyhedron()
        start = coords + 0.1 * np.random.default_rng(0).standard_normal(coords.shape)
        coords, flow, _ = _driven(monkeypatch, lambda: smooth_polyhedron(start, faces))
    else:
        mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.3]))
        config = _config(measure, boundary_policy=BoundaryPolicy.FREE)
        coords, flow, _ = _driven(monkeypatch, lambda: smooth(mesh, config))
    degree = _homogeneity_degree(lambda c: flow.direction(c, flow.volumes(c[None])[0])[0], coords)
    assert degree == pytest.approx(1.0, abs=1e-8)


def test_normalized_examples():
    x = np.zeros((4, 3))
    x[0, 0] = 4.0  # norm 4
    assert np.allclose(smoothing_module._normalized(x, 4.0, 2.0), x / 2.0)
    y = np.zeros((4, 3))
    y[1, 2] = 2.0  # norm 2
    assert np.allclose(smoothing_module._normalized(y, 2.0, -1.0), y / 4.0)
    assert not smoothing_module._normalized(np.zeros((4, 3)), 0.0, 2.0).any()


@pytest.mark.parametrize("degree", [-2.0, -1.0, 0.5, 2.0, 3.0])
def test_normalized_field_has_degree_one(degree):
    # |x|^(d-1) x has degree d, and normalized it is x itself
    coords = np.arange(12.0).reshape(4, 3) - 5.0

    def normalized(c):
        f = np.linalg.norm(c) ** (degree - 1.0) * c
        return smoothing_module._normalized(f, np.linalg.norm(f), degree)

    assert np.allclose(normalized(coords), coords, rtol=1e-12, atol=0)
    assert _homogeneity_degree(normalized, coords) == pytest.approx(1.0, abs=1e-8)


def test_normalized_transformation_field_has_degree_one():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.3]))
    coords = np.array(mesh.vertices)

    def normalized(c):
        f = assemble_field(mesh, c)
        return smoothing_module._normalized(f, np.linalg.norm(f), 2.0)

    for s in (0.5, 3.0):
        assert np.linalg.norm(normalized(s * coords)) == pytest.approx(s * np.linalg.norm(normalized(coords)), rel=1e-9)


# the degree oracle above: a wrong one would let the closed-form degrees pass unchecked


def test_homogeneity_oracle_reads_degree_zero_for_a_constant_field():
    coords = np.ones((3, 3)) + np.eye(3)
    assert _homogeneity_degree(lambda c: np.full_like(c, 2.0), coords) == pytest.approx(0.0, abs=1e-12)


def test_homogeneity_oracle_rejects_the_zero_field():
    with pytest.raises(AssertionError, match="the zero field has no degree"):
        _homogeneity_degree(lambda c: np.zeros_like(c), np.ones((4, 3)))


def test_homogeneity_oracle_rejects_an_inhomogeneous_field():
    coords = np.arange(12.0).reshape(4, 3)
    with pytest.raises(AssertionError):
        _homogeneity_degree(lambda c: c**2 + 1.0, coords)


# -- the step operator -------------------------------------------------------------


@pytest.mark.parametrize("kind", list(ElementKind))
def test_regular_elements_are_fixed_points(kind):
    mesh = regular_element(kind)
    cfg = _config(Measure.MEAN_VOLUME_SUM, boundary_policy=BoundaryPolicy.FREE)
    x = project_shape(mesh.vertices)
    y = smoothing_step(mesh, x, cfg, sigma=0.1)
    assert np.abs(y - x).max() < 1e-10


def test_sigma_zero_is_identity():
    mesh = tet_with_inner_vertex(np.array([0.52, 0.31, 0.33]))
    cfg = _config(Measure.PRODUCT_SQUARED, boundary_policy=BoundaryPolicy.FREE)
    x = project_shape(mesh.vertices)
    assert np.array_equal(smoothing_step(mesh, x, cfg, 0.0), x)


def test_step_commutes_with_scaling_and_translation():
    mesh = tet_with_inner_vertex(np.array([0.52, 0.31, 0.33]))
    cfg = _config(Measure.PRODUCT_SQUARED, boundary_policy=BoundaryPolicy.FREE)
    x = project_shape(mesh.vertices)
    y = smoothing_step(mesh, x, cfg, 0.05)
    z = smoothing_step(mesh, 2.5 * x + np.array([1.0, -2.0, 0.5]), cfg, 0.05)
    assert np.allclose(y, z, atol=1e-12)


def test_fix_boundary_step_keeps_boundary_bitwise():
    mesh = perturb_mesh(hex_grid(2), 0.05, seed=2)
    cfg = _config(Measure.PRODUCT_SQUARED)
    x = np.array(mesh.vertices)
    y = smoothing_step(mesh, x, cfg, 0.01)
    assert np.array_equal(y[mesh.boundary], x[mesh.boundary])
    assert np.abs(y[~mesh.boundary] - x[~mesh.boundary]).max() > 0


# -- the driver ----------------------------------------------------------------------


def test_inner_vertex_converges_to_centroid_under_product_measure():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    cfg = _config(Measure.PRODUCT_SQUARED, max_iterations=300, field_tol=1e-14)
    coords, report = smooth(mesh, cfg)
    centroid = mesh.vertices[:4].mean(axis=0)
    assert np.linalg.norm(coords[4] - centroid) < 1e-6
    assert _strictly_increasing(report)
    assert np.array_equal(coords[:4], mesh.vertices[:4])


def test_inner_vertex_fixed_under_mean_volume_measure():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    coords, report = smooth(mesh, _config(Measure.MEAN_VOLUME_SUM))
    assert report.termination is Termination.FIELD_BELOW_TOL
    assert report.iterations == 0
    assert np.array_equal(coords, mesh.vertices)


@pytest.mark.parametrize(
    "measure",
    [Measure.MEAN_VOLUME_SUM, Measure.PRODUCT_SQUARED,
     Measure.INVERSE_SQUARED_SUM, Measure.ISOPERIMETRIC_QUOTIENT],
)
def test_single_backtracked_step_increases_quality(measure, rng):
    for _ in range(10):
        mesh = random_valid_mesh(rng)
        cfg = _config(measure, boundary_policy=BoundaryPolicy.FREE, max_iterations=1)
        coords, report = smooth(mesh, cfg)
        if report.termination is Termination.FIELD_BELOW_TOL:
            continue  # started at a critical point
        assert report.iterations == 1
        assert report.quality[0] > report.initial_quality


def test_no_inversion_with_aggressive_step(rng):
    mesh = perturb_mesh(hex_grid(2), 0.12, seed=8)
    assert mesh_mean_volumes(mesh).min() > 0
    cfg = _config(Measure.INVERSE_SQUARED_SUM, sigma0=50.0, max_iterations=40)
    coords, report = smooth(mesh, cfg)
    assert _strictly_increasing(report)
    assert mesh_mean_volumes(mesh, coords).min() > 0


def test_zero_field_with_zero_tolerance_stops_at_once():
    mesh = unit_element(ElementKind.TETRA)  # every vertex is on the fixed boundary
    coords, report = smooth(mesh, _config(Measure.PRODUCT_SQUARED, field_tol=0.0))
    assert report.termination is Termination.FIELD_BELOW_TOL
    assert report.iterations == 0
    assert np.array_equal(coords, mesh.vertices)


def test_mesh_without_elements_has_no_shift_and_stops_at_once():
    mesh = make_mesh(np.zeros((3, 3)), [])
    assert compute_volume_shift(mesh) == 0.0
    coords, report = smooth(mesh, SmoothingConfig(measure=QualityMeasureSpec(Measure.PRODUCT_SQUARED)))
    assert report.termination is Termination.FIELD_BELOW_TOL
    assert report.iterations == 0
    assert np.array_equal(coords, mesh.vertices)


def test_shifted_q1_ascends_out_of_inversion():
    # the inner vertex lies above the apex, so some elements start inverted
    # and the automatic volume shift applies: the first step moves along the
    # raw shifted field (degree 1)
    mesh = tet_with_inner_vertex([0.5, 0.29, 0.9])
    vols = mesh_mean_volumes(mesh)
    assert vols.min() < 0
    first, step = smooth(mesh, _config(Measure.PRODUCT_SQUARED, max_iterations=1))
    # the gradient of 2 sum log(v + shift): the fields scattered over 3 (v + shift)
    raw = scatter_element_fields(mesh, mesh.vertices, 1.0 / (vols + compute_volume_shift(mesh))) / 3.0
    expected = mesh.vertices[4] + step.sigma[0] * raw[4]
    assert np.allclose(first[4], expected, rtol=1e-12, atol=0)
    coords, report = smooth(mesh, _config(Measure.PRODUCT_SQUARED, max_iterations=200))
    assert report.iterations > 0
    assert _strictly_increasing(report)
    assert mesh_mean_volumes(mesh, coords).min() > 0


def test_quality_stall_termination():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    cfg = _config(Measure.PRODUCT_SQUARED, quality_tol=1e9, max_iterations=50)
    _, report = smooth(mesh, cfg)
    assert report.termination is Termination.QUALITY_STALLED
    assert report.iterations == 1


def test_max_iterations_termination():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    cfg = _config(Measure.PRODUCT_SQUARED, max_iterations=2)
    _, report = smooth(mesh, cfg)
    assert report.termination is Termination.MAX_ITERATIONS
    assert report.iterations == 2


def test_backtracking_exhaustion_returns_partial_result():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    cfg = _config(Measure.PRODUCT_SQUARED, max_iterations=500, field_tol=0.0)
    coords, report = smooth(mesh, cfg)
    assert report.termination is Termination.BACKTRACKING_FAILED
    assert report.iterations > 0
    assert np.isfinite(coords).all()


def test_project_policy_keeps_boundary_on_original_surface():
    mesh = perturb_mesh(hex_grid(2), 0.06, seed=4)
    cfg = _config(
        Measure.INVERSE_SQUARED_SUM,
        boundary_policy=BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY,
        max_iterations=10,
    )
    coords, report = smooth(mesh, cfg)
    assert _strictly_increasing(report)
    surface = _Surface.of(_boundary_triangles(mesh, np.array(mesh.vertices)))
    on_boundary = coords[mesh.boundary]
    assert np.linalg.norm(_closest_points(surface, on_boundary) - on_boundary, axis=1).max() < 1e-12


def test_valence_averaged_assembly_still_ascends():
    mesh = perturb_mesh(hex_grid(2), 0.08, seed=11)
    cfg = _config(Measure.PRODUCT_SQUARED, assembly=Assembly.VALENCE_AVERAGED, max_iterations=15)
    _, report = smooth(mesh, cfg)
    assert report.iterations > 0
    assert _strictly_increasing(report)


def test_smooth_polyhedron_strictly_increases_iq(rng):
    coords, faces = icosahedron_polyhedron()
    start = coords + rng.uniform(-0.08, 0.08, coords.shape)
    final, report = smooth_polyhedron(start, faces, SmoothingConfig(max_iterations=60))
    assert _strictly_increasing(report)
    assert report.quality[-1] > report.initial_quality


def test_smooth_polyhedron_converges_to_regular_shape(rng):
    # up to similarity: all 30 edges of the limit shape have equal length
    coords, faces = icosahedron_polyhedron()
    start = coords + rng.uniform(-0.08, 0.08, coords.shape)
    final, _ = smooth_polyhedron(
        start, faces, SmoothingConfig(max_iterations=300, field_tol=1e-12)
    )
    edges = {tuple(sorted((f[i], f[(i + 1) % 3]))) for f in faces for i in range(3)}
    lengths = np.array([np.linalg.norm(final[a] - final[b]) for a, b in edges])
    assert np.ptp(lengths) / lengths.mean() < 1e-5


def test_report_serialization_roundtrip():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    _, report = smooth(mesh, _config(Measure.PRODUCT_SQUARED, max_iterations=3))
    doc = report.to_json_dict()
    assert doc["iterations"] == 3
    assert len(doc["quality"]) == len(doc["sigma"]) == len(doc["field_norm"]) == 3
    csv = report.to_csv_text().splitlines()
    assert csv[0] == "iteration,quality,sigma,field_norm"
    assert len(csv) == 4


def test_config_validation():
    with pytest.raises(InvalidSpec):
        SmoothingConfig(sigma0=0.0)
    with pytest.raises(InvalidSpec):
        SmoothingConfig(shrink=1.0)
    with pytest.raises(InvalidSpec):
        SmoothingConfig(max_iterations=-1)
    for non_finite in ({"sigma0": math.inf}, {"sigma0": math.nan}, {"field_tol": math.nan},
                       {"quality_tol": math.nan}):
        with pytest.raises(InvalidSpec):
            SmoothingConfig(**non_finite)


@pytest.mark.parametrize("caps", [{"max_iterations": 2.5}, {"max_halvings": 3.0}, {"max_iterations": "3"},
                                  {"max_halvings": None}])
def test_config_rejects_non_integer_caps(caps):
    with pytest.raises(InvalidSpec, match=next(iter(caps))):
        SmoothingConfig(**caps)


def test_config_accepts_numpy_integer_caps():
    config = SmoothingConfig(max_iterations=np.int64(2), max_halvings=np.uint8(3))
    _, report = smooth(tet_grid(2), config)
    assert report.iterations <= 2


@pytest.mark.parametrize("entry", ["smooth", "smoothing_step", "mesh_quality", "quality_gradient_field",
                                   "compute_volume_shift", "assemble_field", "write_mesh"])
@pytest.mark.parametrize("bad", ["short", "two-column", "nan", "inf"])
def test_entry_points_reject_bad_coordinates(entry, bad, tmp_path):
    mesh = tet_grid(2)
    assert mesh.n_vertices == 27
    coords = {"short": mesh.vertices[:3], "two-column": mesh.vertices[:, :2]}.get(bad, mesh.vertices.copy())
    if bad in ("nan", "inf"):
        coords[5, 1] = float(bad)
    config = SmoothingConfig()
    call = {
        "smooth": lambda: smooth(mesh, config, coords=coords),
        "smoothing_step": lambda: smoothing_step(mesh, coords, config, 0.1),
        "mesh_quality": lambda: quality_module.mesh_quality(mesh, coords),
        "quality_gradient_field": lambda: quality_module.quality_gradient_field(mesh, coords),
        "compute_volume_shift": lambda: compute_volume_shift(mesh, coords),
        "assemble_field": lambda: assemble_field(mesh, coords),
        "write_mesh": lambda: write_mesh(mesh, tmp_path / "out.vtk", coords=coords),
    }[entry]
    with pytest.raises(InvalidSpec):
        call()
    assert not any(tmp_path.iterdir())  # checked before any file is opened


def test_closest_point_on_triangles_regions():
    tris = np.array([[[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]])
    points = np.array([[0.5, 0.5, 1.0], [-1.0, -1.0, 0.5], [1.0, -3.0, 0.0], [3.0, 3.0, 0.0]])
    assert np.allclose(_closest_points(_Surface.of(tris), points), [[0.5, 0.5, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0]])


def _closest_on_triangles_per_point(tris: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closest point to p over a triangle soup (T, 3, 3)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac = b - a, c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe(x, cond):
        return np.where(cond, x, 1.0)

    on_a = (d1 <= 0) & (d2 <= 0)
    on_b = (d3 >= 0) & (d4 <= d3)
    on_c = (d6 >= 0) & (d5 <= d6)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)

    t_ab = d1 / safe(d1 - d3, on_ab)
    t_ac = d2 / safe(d2 - d6, on_ac)
    t_bc = (d4 - d3) / safe((d4 - d3) + (d5 - d6), on_bc)
    denom = safe(va + vb + vc, ~(on_a | on_b | on_c | on_ab | on_ac | on_bc))
    v_face = vb / denom
    w_face = vc / denom

    cand = a + v_face[:, None] * ab + w_face[:, None] * ac
    cand = np.where(on_bc[:, None], b + t_bc[:, None] * (c - b), cand)
    cand = np.where(on_ac[:, None], a + t_ac[:, None] * ac, cand)
    cand = np.where(on_ab[:, None], a + t_ab[:, None] * ab, cand)
    cand = np.where(on_c[:, None], c, cand)
    cand = np.where(on_b[:, None], b, cand)
    cand = np.where(on_a[:, None], a, cand)

    dist = np.linalg.norm(cand - p, axis=1)
    return cand[int(np.argmin(dist))]


def _boundary_triangles_per_face(mesh, coords):
    """Boundary surface as triangles; quads split along their shorter diagonal."""
    tris = []
    for face in mesh_module.boundary_faces(mesh):
        if len(face) == 3:
            tris.append(face)
        else:
            a, b, c, d = face
            if np.linalg.norm(coords[a] - coords[c]) <= np.linalg.norm(coords[b] - coords[d]):
                tris += [(a, b, c), (a, c, d)]
            else:
                tris += [(a, b, d), (b, c, d)]
    if not tris:
        return np.zeros((0, 3, 3))
    return coords[np.asarray(tris, dtype=np.int64)]


def _bumpy_surface():
    """A hex grid's boundary with its vertices moved: 108 triangles of varied shape."""
    mesh = perturb_mesh(hex_grid(3), 0.1, seed=3, fix_boundary=False)
    coords = np.array(mesh.vertices)
    return coords[mesh.boundary], _boundary_triangles(mesh, coords)


def _cube_surface():
    """A 10^3 tet cube's boundary with its vertices moved: 1,200 triangles."""
    mesh = perturb_mesh(tet_grid(10), 0.03, seed=0, fix_boundary=False)
    coords = np.array(mesh.vertices)
    return coords[mesh.boundary], _boundary_triangles(mesh, coords)


def _moved(points, length, rng):
    """Each point moved by ``length`` (its row, or one for all) in a random direction."""
    step = rng.standard_normal(points.shape)
    return points + np.reshape(length, (-1, 1)) * step / np.linalg.norm(step, axis=1, keepdims=True)


def _surface_points(case, rng):
    if case == "cube moved by 1e-4, 1e-2, 0.3, 3 and 10 cells":
        # the last moves reach past the first grid's neighbourhoods: coarser grids settle them in the same call
        corners, tris = _cube_surface()
        return tris, _moved(corners, 0.1 * rng.choice([1e-4, 1e-2, 0.3, 3.0, 10.0], len(corners)), rng)
    corners, tris = _bumpy_surface()
    near = corners + rng.normal(scale=0.05, size=corners.shape)
    if case == "corners and shared edges":
        return tris, np.concatenate([corners, (tris + np.roll(tris, 1, axis=1)).reshape(-1, 3) / 2])
    if case == "far outside":
        return tris, 1e3 * rng.standard_normal((50, 3)) + 10 * corners[:50]
    if case == "translated by 1e6":
        return tris + 1e6, near + 1e6
    if case == "scaled by 1e-6":
        return tris * 1e-6, near * 1e-6
    if case == "block remainder":
        block = _BLOCK_PAIRS // len(tris)
        return tris, corners[rng.integers(len(corners), size=2 * block + 5)] + rng.normal(scale=0.05, size=3)
    if case == "a large triangle among small ones":
        # the small triangles' spheres bound the distance more tightly than
        # the large one's centroid, yet the large triangle is the closest
        big = np.array([[[0.0, 0, 0], [10, 0, 0], [0, 10, 0]]])
        small = np.array([5.0, 0, 2.2]) + 0.1 * rng.standard_normal((20, 3, 3))
        band = np.column_stack([rng.uniform(2, 8, 30), rng.uniform(-0.3, 0.3, 30), rng.uniform(0.8, 1.2, 30)])
        return np.concatenate([small, big]), band
    if case == "duplicated triangles":
        # the copy lists each triangle's corners in another order, so that
        # equal distances need not come with equal closest points
        return np.concatenate([tris, np.roll(tris, 1, axis=1)]), np.concatenate([corners, near])
    if case == "all triangles in one cell":
        shapes = rng.standard_normal((20, 3, 3))
        tris = np.array([0.3, -0.2, 0.5]) + shapes - shapes.mean(axis=1, keepdims=True)
        surface = _Surface.of(tris)
        assert len(np.unique(np.floor((surface.g.T - surface.grid(0).lo) / surface.grid(0).h), axis=0)) == 1
        return tris, np.concatenate([rng.standard_normal((40, 3)), tris[:, 0] + 0.01])
    if case == "zero-radius triangles among others":
        return np.concatenate([np.repeat(corners[::3, None], 3, axis=1), tris]), near
    if case == "only zero-radius triangles":
        return np.repeat(corners[:, None], 3, axis=1), near
    if case == "one point as every triangle":
        return np.full((5, 3, 3), 0.7), near
    if case == "points on cell faces":
        grid = _Surface.of(tris).grid(0)
        axis = rng.integers(3, size=len(near))
        rows = np.arange(len(near))
        cells = np.round((near[rows, axis] - grid.lo[axis]) / grid.h)
        near[rows, axis] = grid.lo[axis] + cells * grid.h
        assert np.mean((near[rows, axis] - grid.lo[axis]) / grid.h == cells) > 0.5
        return tris, near
    if case == "single point":
        return tris, near[:1]
    if case == "no point":
        return tris, near[:0]
    if case == "non-finite points":
        near[[3, 7], [1, 0]] = np.nan, np.inf
        return tris, near
    raise ValueError(case)


@pytest.mark.parametrize("case", [
    "corners and shared edges", "far outside", "translated by 1e6", "scaled by 1e-6",
    "block remainder", "a large triangle among small ones", "single point", "no point", "non-finite points",
    "cube moved by 1e-4, 1e-2, 0.3, 3 and 10 cells", "duplicated triangles", "all triangles in one cell",
    "zero-radius triangles among others", "only zero-radius triangles", "one point as every triangle",
    "points on cell faces",
])
def test_batched_closest_points_match_the_per_point_search(case, rng):
    tris, points = _surface_points(case, rng)
    with np.errstate(invalid="ignore"):  # NaN and inf points, as in the per-point search
        expected = np.array([_closest_on_triangles_per_point(tris, p) for p in points]).reshape(-1, 3)
        found = _closest_points(_Surface.of(tris), points)
    assert np.array_equal(found, expected, equal_nan=True)


def _exact_pairs_per_point(monkeypatch, rng, move):
    """Exact point-triangle tests per point when the 10^3 cube's boundary points move by ``move``."""
    corners, tris = _cube_surface()
    surface = _Surface.of(tris)
    pairs = []

    def counting(a, b, c, p):
        pairs.append(len(p))
        return _closest_on_pairs(a, b, c, p)

    monkeypatch.setattr(smoothing_module, "_closest_on_pairs", counting)
    _closest_points(surface, _moved(corners, move, rng))
    return sum(pairs) / len(corners)


def test_closest_points_test_few_pairs_exactly(monkeypatch, rng):
    # about 7 a point: one for the exact upper bound, and the grid candidates within it
    assert _exact_pairs_per_point(monkeypatch, rng, 1e-3) <= 10


def test_closest_points_test_few_pairs_exactly_after_a_3_cell_move(monkeypatch, rng):
    # about 23 a point: a bound and the candidates within it on each grid the point reaches
    assert _exact_pairs_per_point(monkeypatch, rng, 0.3) <= 30


def test_boundary_triangles_match_the_per_face_split(rng):
    meshes = [perturb_mesh(hex_grid(3), 0.1, seed=3, fix_boundary=False), hex_grid(2)]
    meshes += [random_valid_mesh(rng) for _ in range(30)]
    for mesh in meshes:
        coords = np.array(mesh.vertices)
        assert np.array_equal(_boundary_triangles(mesh, coords), _boundary_triangles_per_face(mesh, coords))


def test_project_set_up_matches_only_faces_on_the_boundary(monkeypatch):
    import polysmooth.mesh as mesh_module

    mesh = tet_grid(20)
    boundary = len(mesh_module.boundary_faces(mesh))
    once, sorted_faces = mesh_module._once, []
    monkeypatch.setattr(mesh_module, "_once", lambda cols: sorted_faces.append(cols.shape[1]) or once(cols))
    _build_flow(mesh, _config(Measure.PRODUCT_SQUARED, boundary_policy=BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY),
                np.array(mesh.vertices))
    # 5,952 faces with every vertex on the boundary, of 96,000 element faces, for 4,800 boundary faces
    assert boundary == 4_800 and 0 < sum(sorted_faces) <= 2 * boundary


def test_project_policy_contract_on_a_10_cube():
    mesh = perturb_mesh(tet_grid(10), 0.03, seed=0, fix_boundary=False)
    start = np.array(mesh.vertices)
    assert mesh_mean_volumes(mesh).min() > 0
    # a long first step, so that trials backtrack and the boundary moves by a fifth of a cell
    config = _config(Measure.INVERSE_SQUARED_SUM, max_iterations=3, sigma0=100.0,
                     boundary_policy=BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY)
    coords, report = smooth(mesh, config)
    assert report.iterations == 3
    assert report.sigma[0] < config.sigma0
    assert _strictly_increasing(report)
    assert mesh_mean_volumes(mesh, coords).min() > 0
    tris = _boundary_triangles_per_face(mesh, start)
    boundary = np.flatnonzero(mesh.boundary)
    assert np.abs(coords[boundary] - start[boundary]).max() > 0.02
    for i in boundary:
        assert np.linalg.norm(_closest_on_triangles_per_point(tris, coords[i]) - coords[i]) <= 1e-12


@pytest.fixture
def counts(monkeypatch):
    """Builds of the per-kind groups, calls of the mean-volume pass and of the geometry kernels, by name."""
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    volumes = counting("volume_passes", quality_module.mesh_mean_volumes)
    monkeypatch.setattr(mesh_module, "_group_by_kind", counting("groups_built", mesh_module._group_by_kind))
    for module in (quality_module, smoothing_module):
        monkeypatch.setattr(module, "mesh_mean_volumes", volumes)
    for name in ("element_mean_volumes", "element_fields", "_div_volumes", "_face_triangles"):
        monkeypatch.setattr(geometry_module, name, counting(name, getattr(geometry_module, name)))
    return counts


@pytest.mark.parametrize(
    "measure,policy",
    [
        (Measure.PRODUCT_SQUARED, BoundaryPolicy.FIX_BOUNDARY),
        (Measure.INVERSE_SQUARED_SUM, BoundaryPolicy.FIX_BOUNDARY),
        # with the boundary fixed its field vanishes
        (Measure.MEAN_VOLUME_SUM, BoundaryPolicy.FREE),
        (Measure.ISOPERIMETRIC_QUOTIENT, BoundaryPolicy.FIX_BOUNDARY),
    ],
)
def test_connectivity_once_per_smooth_and_one_volume_pass_per_round(measure, policy, counts):
    mesh = perturb_mesh(tet_grid(3), 0.1, seed=1)
    config = _config(measure, max_iterations=20, sigma0=2.0, boundary_policy=policy)
    _, report = smooth(mesh, config)
    passes = _passes(report, config)
    assert _trials(report, config) > passes > report.iterations > 0  # rounds of several trials happened
    assert counts["groups_built"] == 1
    # besides the rounds, only the flow set-up, whose pass also gives the initial objective
    assert counts["volume_passes"] == passes + 1


def test_iq_smooth_of_a_mixed_mesh_reads_one_volume_pass_per_round(interleaved_mesh, counts):
    mesh = perturb_mesh(interleaved_mesh, 0.1, seed=1)
    kinds = len(kind_groups(mesh))
    assert kinds == 4
    config = _config(Measure.ISOPERIMETRIC_QUOTIENT, max_iterations=8, sigma0=2.0)
    _, report = smooth(mesh, config)
    passes = _passes(report, config)
    assert _trials(report, config) > passes > report.iterations > 0
    # the iq values and gradients read the pass's volumes instead of computing their own; a round's stack
    # takes one block a kind, as one trial does
    assert counts["element_mean_volumes"] == (passes + 1) * kinds


def test_iq_field_evaluates_the_field_once_per_kind(interleaved_mesh, counts):
    mesh = perturb_mesh(interleaved_mesh, 0.1, seed=1)
    counts.clear()
    smoothing_step(mesh, mesh.vertices, _config(Measure.ISOPERIMETRIC_QUOTIENT), 0.1)
    kinds = len(kind_groups(mesh))
    assert counts["element_fields"] == kinds
    # only the set-up's volume pass: the iq field reads its volumes
    assert counts["element_mean_volumes"] == kinds


def test_smooth_polyhedron_makes_one_volume_pass_per_round(counts):
    geometry_module._checked_tables.cache_clear()  # the face tables are built once, on the first use
    coords, faces = icosahedron_polyhedron()
    start = coords + 0.1 * np.random.default_rng(0).standard_normal(coords.shape)
    config = SmoothingConfig(max_iterations=40, field_tol=1e-10)
    _, report = smooth_polyhedron(start, faces, config)
    passes = _passes(report, config)
    assert _trials(report, config) > passes > report.iterations > 0
    assert counts["_div_volumes"] == passes + 1
    assert counts["_face_triangles"] == 1


@pytest.mark.parametrize("measure", [Measure.MEAN_VOLUME_SUM, Measure.PRODUCT_SQUARED, Measure.ISOPERIMETRIC_QUOTIENT])
def test_driver_rejects_the_min_combiner(measure):
    # the driver ascends the sum form, so a min spec would run the sum ascent under another name
    mesh = perturb_mesh(tet_grid(3), 0.1, seed=1)
    config = SmoothingConfig(measure=QualityMeasureSpec(measure, Combiner.MIN))
    with pytest.raises(InvalidSpec, match="^the min combiner has no gradient$"):
        smooth(mesh, config)
    with pytest.raises(InvalidSpec, match="^the min combiner has no gradient$"):
        smoothing_step(mesh, mesh.vertices, config, 0.1)


def test_polyhedron_tables_are_built_once_per_face_list():
    coords, faces = icosahedron_polyhedron()
    start = coords + 0.1 * np.random.default_rng(0).standard_normal(coords.shape)
    geometry_module._checked_tables.cache_clear()
    polyhedron_iq(faces, start)
    polyhedron_iq_gradient([list(f) for f in faces], start)
    for _ in range(2):
        smooth_polyhedron(start, np.array(faces), SmoothingConfig(max_iterations=2))
    info = geometry_module._checked_tables.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("mirror", [1.0, -1.0])
def test_smooth_polyhedron_is_the_drive_over_the_polyhedron_functions(mirror):
    # the reference flow recomputes the volume for every use and triangulates on every call;
    # a mirrored start is invalid, so as for a mesh the driver guards no step, and its initial objective is its iq
    coords, faces = icosahedron_polyhedron()
    start = (coords + 0.1 * np.random.default_rng(3).standard_normal(coords.shape)) * [mirror, 1.0, 1.0]
    config = SmoothingConfig(max_iterations=30, field_tol=1e-10)
    shape = project_shape(start)
    # and it evaluates one trial at a time
    flow = _Flow(lambda c: np.array([[polyhedron_mean_volume(faces, x)] for x in c]),
                 lambda c, _vols: np.array([polyhedron_iq(faces, x) for x in c]),
                 lambda c, _vols: polyhedron_iq_gradient(faces, c), -1.0,
                 lambda c: np.array([project_shape(x) for x in c]))
    assert flow.stack == 1
    expected_coords, expected = _drive(shape, flow, flow.volumes(shape[None])[0], config)
    got_coords, got = smooth_polyhedron(start, faces, config)
    assert got_coords.tobytes() == expected_coords.tobytes()
    assert got.to_json_dict() == expected.to_json_dict()
    assert np.sign(got.initial_quality) == mirror


def test_smooth_polyhedron_ascends_from_an_inverted_start():
    # the start's volume is negative, so no trial is guarded: the flow passes through volume 0
    coords, faces = icosahedron_polyhedron()
    start = (coords + 0.1 * np.random.default_rng(3).standard_normal(coords.shape)) * [-1.0, 1.0, 1.0]
    _, report = smooth_polyhedron(start, faces)
    assert report.initial_quality < 0.0
    assert report.iterations > 0
    assert np.all(np.diff([report.initial_quality, *report.quality]) > 0.0)
    assert report.quality[-1] > 0.0


def test_project_policy_builds_connectivity_once(monkeypatch):
    # the groups are cached with the connectivity: built with the mesh,
    # shared by its perturbation, and never built again by a smooth
    calls = Counter()
    build = mesh_module._group_by_kind

    def counting(cells):
        calls["built"] += 1
        return build(cells)

    monkeypatch.setattr(mesh_module, "_group_by_kind", counting)
    mesh = perturb_mesh(hex_grid(2), 0.05, seed=2)
    assert calls["built"] == 1
    config = _config(Measure.INVERSE_SQUARED_SUM, max_iterations=2,
                     boundary_policy=BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY)
    first, _ = smooth(mesh, config)
    second, _ = smooth(mesh, config)
    assert np.array_equal(first, second)
    assert calls["built"] == 1


def test_block_plan_is_built_once_per_connectivity(monkeypatch):
    # the plans are cached with the groups: shared by copies and by meshes built on the connectivity
    calls = Counter()
    build = quality_module._block_plan

    def counting(groups, rows, copies, n):
        calls[id(rows), copies] += 1
        return build(groups, rows, copies, n)

    monkeypatch.setattr(quality_module, "_block_plan", counting)
    mesh = perturb_mesh(tet_grid(3), 0.1, seed=1)
    # a long first step: every run backtracks in rounds
    q1 = _config(Measure.PRODUCT_SQUARED, max_iterations=5, sigma0=2.0)
    first, _ = smooth(mesh, q1)
    second, _ = smooth(mesh, q1)
    assert np.array_equal(first, second)
    smooth(perturb_mesh(mesh, 0.05, seed=2), q1)
    smooth(make_mesh(first, mesh.elements), q1)
    iq = _config(Measure.ISOPERIMETRIC_QUOTIENT, max_iterations=3, sigma0=2.0)
    smooth(mesh, iq)
    smooth(make_mesh(first, mesh.elements), iq)
    # one plan for each row table and stack size: the volume and field kernels' and the iq kernels', for one
    # copy and for rounds of up to k, and the iq score's for the rows of a round that the guard keeps
    gathered, iq_rows, k = id(geometry_module.GATHERED_ROWS), id(geometry_module.IQ_ROWS), smoothing_module._ROUND
    assert set(calls.values()) == {1}
    assert {(gathered, 1), (gathered, k), (iq_rows, 1), (iq_rows, k)} <= set(calls) <= {
        *((gathered, size) for size in range(1, k + 1)), *((iq_rows, size) for size in range(1, k + 1))}


def test_a_round_the_guard_wholly_rejects_is_not_scored():
    # the first round, sigma0 = 50 alone, inverts an element: no trial is left to score
    mesh = perturb_mesh(hex_grid(3), 0.05, seed=0)
    _, report = smooth(mesh, _config(Measure.ISOPERIMETRIC_QUOTIENT, sigma0=50.0, max_iterations=3))
    assert report.iterations == 3 and report.sigma[0] == 50.0 * 0.5**8
    assert all(copies > 0 for _, copies, _ in mesh.elements.plans)


@pytest.mark.parametrize("measure,most", [(Measure.PRODUCT_SQUARED, 1024), (Measure.ISOPERIMETRIC_QUOTIENT, 315)])
def test_rounds_stack_as_many_trials_as_one_block_holds(measure, most):
    # a round of 8 trials stays one block of the measure's kernels, whose rows bound its volume pass too
    grid = tet_grid(6)
    for n, stack in ((1, 8), (most, 8), (most + 1, 7)):
        mesh = make_mesh(grid.vertices, list(grid.elements)[:n])
        flow, _ = _build_flow(mesh, _config(measure, boundary_policy=BoundaryPolicy.FREE), np.array(mesh.vertices))
        assert flow.stack == stack, n


def _inner_vertex_above_the_apex(mesh):
    """``mesh.vertices`` of :func:`tet_with_inner_vertex` with the inner vertex moved out: three tets invert."""
    inverted = np.array(mesh.vertices)
    inverted[4] = [0.5, 0.29, 0.9]
    assert np.sum(mesh_mean_volumes(mesh, inverted) <= 0.0) == 3
    return inverted


def _sent_to(flow, target):
    """``flow`` with every trial moved to ``target`` and scored by its distance from there: finite, and best at it."""
    return dataclasses.replace(flow, constrain=lambda moved: np.repeat(target[None], len(moved), axis=0),
                               score=lambda c, _vols: -np.abs(c - target).sum(axis=(1, 2)))


def _scored(flow, coords):
    """The flow's volumes and score of one configuration, as a stack of one."""
    vols = flow.volumes(coords[None])
    return vols[0], float(flow.score(coords[None], vols)[0])


@pytest.mark.parametrize("measure", [Measure.PRODUCT_SQUARED, Measure.INVERSE_SQUARED_SUM])
def test_unshifted_q1_and_q2_reject_an_inverting_trial_by_their_objective(measure, monkeypatch):
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    inverted = _inner_vertex_above_the_apex(mesh)
    config = _config(measure, sigma0=50.0, max_iterations=1)
    start, flow, vols = _driven(monkeypatch, lambda: smooth(mesh, config))
    monkeypatch.undo()
    assert not flow.guarded
    assert _scored(flow, inverted)[1] == -np.inf
    # a first trial at sigma0 inverts, so the accepted step is a shorter one
    direction, _ = flow.direction(start, vols)
    assert mesh_mean_volumes(mesh, start + config.sigma0 * direction).min() < 0.0
    coords, report = smooth(mesh, config)
    assert report.iterations == 1 and report.sigma[0] < config.sigma0
    assert mesh_mean_volumes(mesh, coords).min() > 0.0
    # no other guard: a score that rates the inversion best lets it through
    _, report = _drive(start, _sent_to(flow, inverted), vols, config)
    assert report.iterations == 1


@pytest.mark.parametrize("measure,shift", [
    (Measure.MEAN_VOLUME_SUM, None),
    (Measure.ISOPERIMETRIC_QUOTIENT, None),
    (Measure.PRODUCT_SQUARED, 0.5),
])
def test_guard_rejects_an_inverting_trial_the_objective_would_score(measure, shift, monkeypatch):
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    inverted = _inner_vertex_above_the_apex(mesh)
    further = inverted.copy()
    further[4, 2] = 1.0  # the inner vertex higher still: the same three tets inverted
    # the free policy: with the boundary fixed the mean volume's field vanishes
    config = SmoothingConfig(measure=QualityMeasureSpec(measure, Combiner.SUM, shift),
                             boundary_policy=BoundaryPolicy.FREE, max_iterations=1, max_halvings=2)
    start, flow, vols = _driven(monkeypatch, lambda: smooth(mesh, config))
    assert flow.guarded and np.isfinite(_scored(flow, inverted)[1])
    # from a valid start every trial is the inversion, which the driver rejects though it scores best
    _, report = _drive(start, _sent_to(flow, inverted), vols, config)
    assert report.termination is Termination.BACKTRACKING_FAILED and report.iterations == 0
    # an inverted start is not guarded: a trial that keeps the inversion is accepted
    assert mesh_mean_volumes(mesh, further).min() < 0.0
    _, report = _drive(inverted, _sent_to(flow, further), _scored(flow, inverted)[0], config)
    assert report.iterations == 1


def test_polyhedron_guard_rejects_an_inverting_trial_its_iq_would_score(monkeypatch):
    coords, faces = icosahedron_polyhedron()
    perturbed = coords + 0.1 * np.random.default_rng(3).standard_normal(coords.shape)
    config = SmoothingConfig(max_iterations=1, max_halvings=2)
    start, flow, vols = _driven(monkeypatch, lambda: smooth_polyhedron(perturbed, faces, config))
    mirrored = start * [-1.0, 1.0, 1.0]
    mirrored_vols, mirrored_score = _scored(flow, mirrored)
    assert vols[0] > 0.0 > mirrored_vols[0] and np.isfinite(mirrored_score)
    _, report = _drive(start, _sent_to(flow, mirrored), vols, config)
    assert report.termination is Termination.BACKTRACKING_FAILED and report.iterations == 0
    # from the mirrored start no trial is guarded: a trial that stays inverted is accepted
    _, report = _drive(mirrored, _sent_to(flow, 0.9 * mirrored), mirrored_vols, config)
    assert report.iterations == 1


def test_smoothing_step_makes_one_volume_pass(counts):
    mesh = perturb_mesh(tet_grid(3), 0.1, seed=1)
    smoothing_step(mesh, mesh.vertices, _config(Measure.PRODUCT_SQUARED), 0.1)
    assert counts["groups_built"] == 1
    assert counts["volume_passes"] == 1


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -0.1])
def test_smoothing_step_rejects_a_step_size_that_is_not_finite_and_nonnegative(sigma, counts):
    mesh = perturb_mesh(tet_grid(2), 0.05, seed=1)
    with pytest.raises(InvalidSpec, match="^sigma must be finite and >= 0"):
        smoothing_step(mesh, mesh.vertices, _config(Measure.PRODUCT_SQUARED), sigma)
    assert counts["volume_passes"] == 0  # raised before the set-up


@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_smoothing_step_is_the_first_step_of_smooth(policy):
    mesh = perturb_mesh(hex_grid(2), 0.05, seed=2)
    config = _config(Measure.INVERSE_SQUARED_SUM, boundary_policy=policy, max_iterations=1)
    first, report = smooth(mesh, config)
    assert report.iterations == 1
    start = project_shape(mesh.vertices) if policy is BoundaryPolicy.FREE else mesh.vertices
    assert np.array_equal(smoothing_step(mesh, start, config, report.sigma[0]), first)


@pytest.mark.parametrize("measure", [Measure.PRODUCT_SQUARED, Measure.INVERSE_SQUARED_SUM])
def test_free_policy_with_volume_shift_is_scale_invariant(measure):
    # the start has inverted elements, so the automatic volume shift applies;
    # the run is set up on the shape representative, whatever the input scale
    base = tet_with_inner_vertex([0.5, 0.29, 0.9])
    config = _config(measure, boundary_policy=BoundaryPolicy.FREE, max_iterations=30)
    reports = []
    for s in (0.01, 1.0, 10.0):
        mesh = make_mesh(s * np.asarray(base.vertices), base.elements)
        coords, report = smooth(mesh, config)
        assert mesh_mean_volumes(mesh, coords).min() > 0
        reports.append(report)
    ref = reports[1]
    for report in reports:
        assert report.termination is ref.termination
        assert report.iterations == ref.iterations
        assert report.sigma == ref.sigma
        assert np.allclose(report.quality, ref.quality, rtol=1e-12, atol=0)
        assert report.initial_quality == pytest.approx(ref.initial_quality, rel=1e-12)
        # q2 weighs each element by v**-3, which amplifies the rounding of the start
        assert np.allclose(report.field_norm, ref.field_norm, rtol=1e-10, atol=0)


# -- backtracking rounds --------------------------------------------------------------


def _inverted_start():
    """:func:`tet_with_inner_vertex` with the inner vertex above the apex: three tets start inverted."""
    base = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    return make_mesh(_inner_vertex_above_the_apex(base), base.elements)


_ROUND_CASES = {  # mesh, measure, volume shift, policy, other settings
    "q1-fix": (lambda: perturb_mesh(tet_grid(3), 0.1, seed=1), Measure.PRODUCT_SQUARED, None,
               BoundaryPolicy.FIX_BOUNDARY, {}),
    "q2-fix": (lambda: perturb_mesh(tet_grid(3), 0.1, seed=1), Measure.INVERSE_SQUARED_SUM, None,
               BoundaryPolicy.FIX_BOUNDARY, {}),
    "q2-free": (lambda: perturb_mesh(hex_grid(2), 0.1, seed=2, fix_boundary=False), Measure.INVERSE_SQUARED_SUM, None,
                BoundaryPolicy.FREE, {}),
    "q1-project": (lambda: perturb_mesh(tet_grid(3), 0.1, seed=3, fix_boundary=False), Measure.PRODUCT_SQUARED, None,
                   BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY, {"sigma0": 5000.0}),
    # guarded: the mean volume and the iq score an inverting trial unless the guard rejects it
    "mean-volume-free": (lambda: perturb_mesh(tet_grid(3), 0.1, seed=1), Measure.MEAN_VOLUME_SUM, None,
                         BoundaryPolicy.FREE, {}),
    "iq-fix": (lambda: perturb_mesh(hex_grid(3), 0.1, seed=1), Measure.ISOPERIMETRIC_QUOTIENT, None,
               BoundaryPolicy.FIX_BOUNDARY, {}),
    "iq-project": (lambda: perturb_mesh(hex_grid(3), 0.1, seed=4, fix_boundary=False), Measure.ISOPERIMETRIC_QUOTIENT,
                   None, BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY, {}),
    "iq-free": (lambda: perturb_mesh(tet_grid(3), 0.1, seed=1), Measure.ISOPERIMETRIC_QUOTIENT, None,
                BoundaryPolicy.FREE, {}),
    # shifted: an inverted start with its automatic shift, unguarded; a valid start with an explicit one, guarded
    "q1-shifted-inverted": (_inverted_start, Measure.PRODUCT_SQUARED, None, BoundaryPolicy.FREE, {}),
    "q2-shift-fix": (lambda: perturb_mesh(tet_grid(3), 0.1, seed=1), Measure.INVERSE_SQUARED_SUM, 1e-3,
                     BoundaryPolicy.FIX_BOUNDARY, {}),
    # every step size down to 0.0 rejected in the last iteration
    "q1-backtracking-failed": (lambda: tet_with_inner_vertex(np.array([0.5, 0.35, 0.30])), Measure.PRODUCT_SQUARED,
                               None, BoundaryPolicy.FIX_BOUNDARY, {"field_tol": 1e-14, "max_halvings": 1100}),
}


@pytest.mark.parametrize("case", list(_ROUND_CASES))
def test_rounds_give_the_run_of_one_trial_at_a_time(case, monkeypatch):
    make, measure, shift, policy, other = _ROUND_CASES[case]
    mesh = make()
    config = SmoothingConfig(measure=QualityMeasureSpec(measure, Combiner.SUM, shift), boundary_policy=policy,
                             max_iterations=25, **{"sigma0": 5.0, **other})
    coords, report = smooth(mesh, config)
    assert _trials(report, config) > _passes(report, config)  # rounds of several trials happened
    monkeypatch.setattr(smoothing_module, "_ROUND", 1)
    alone, expected = smooth(mesh, config)
    assert coords.tobytes() == alone.tobytes()
    assert report.to_json_dict() == expected.to_json_dict()
    if case == "q1-backtracking-failed":
        assert report.termination is Termination.BACKTRACKING_FAILED


def test_polyhedron_rounds_give_the_run_of_one_trial_at_a_time(monkeypatch):
    # the icosahedron demo's start: long bursts of halvings, and a last iteration that rejects all 41 trials
    coords, faces = icosahedron_polyhedron()
    start = coords + random_displacements(len(coords), 0.1, 0)
    config = SmoothingConfig(max_iterations=200, field_tol=1e-10)
    final, report = smooth_polyhedron(start, faces, config)
    assert report.termination is Termination.BACKTRACKING_FAILED and _trials(report, config) > _passes(report, config)
    monkeypatch.setattr(smoothing_module, "_ROUND", 1)
    alone, expected = smooth_polyhedron(start, faces, config)
    assert final.tobytes() == alone.tobytes()
    assert report.to_json_dict() == expected.to_json_dict()


@pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 129, 1000])
@pytest.mark.parametrize("measure", [Measure.MEAN_VOLUME_SUM, Measure.PRODUCT_SQUARED, Measure.INVERSE_SQUARED_SUM])
def test_row_wise_objectives_are_their_one_dimensional_forms_bit_for_bit(measure, m, rng):
    objective = quality_module._MEASURES[measure].objective
    v = rng.uniform(1e-3, 2.0, size=(9, m))
    v[2, m // 2] = -v[2, m // 2]  # a row with an inverted element
    v[5, 0] = 0.0
    rows = objective(None, None, v)
    assert rows.shape == (9,)
    for row, expected in zip(rows.tolist(), (float(objective(None, None, x)) for x in v)):
        assert np.float64(row).tobytes() == np.float64(expected).tobytes()
    if measure is not Measure.MEAN_VOLUME_SUM:
        assert rows[2] == rows[5] == -np.inf and np.isfinite(np.delete(rows, [2, 5])).all()


def test_a_round_whose_later_trial_raises_ends_as_the_search_one_trial_at_a_time(monkeypatch):
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    config = _config(Measure.PRODUCT_SQUARED, sigma0=50.0, max_iterations=1)
    start, flow, vols = _driven(monkeypatch, lambda: smooth(mesh, config))
    monkeypatch.undo()
    expected_coords, expected = _drive(start, flow, vols, config)
    # the fifth halving is accepted, the fifth trial of the first round of 8 after sigma0
    assert _trials(expected, config) == 6 and flow.stack == smoothing_module._ROUND == 8
    reach = expected.sigma[0] * np.abs(flow.direction(start, vols)[0]).max()

    def raising_below(limit):
        """``flow`` whose score raises for a stack with a trial that moves no vertex by ``limit``."""
        def score(c, v):
            moved = np.abs(c - start).max(axis=(1, 2))
            if ((0.0 < moved) & (moved < limit)).any():
                raise DegenerateElement("a trial too close to the start")
            return flow.score(c, v)
        return dataclasses.replace(flow, score=score)

    # the round's last three trials raise; one at a time, the search accepts the trial before them
    coords, report = _drive(start, raising_below(0.75 * reach), vols, config)
    assert coords.tobytes() == expected_coords.tobytes()
    assert report.to_json_dict() == expected.to_json_dict()
    # the accepted trial raises too: then so does the search one trial at a time
    with pytest.raises(DegenerateElement, match="^a trial too close to the start$"):
        _drive(start, raising_below(1.5 * reach), vols, config)


def test_a_mesh_of_two_blocks_makes_one_volume_pass_per_trial(counts):
    mesh = perturb_mesh(tet_grid(13), 0.3 / 13, seed=1)
    assert mesh.n_elements == 13_182  # two blocks of the volume kernels: a round of two would take four
    config = _config(Measure.PRODUCT_SQUARED, sigma0=2e4, max_iterations=2)
    flow, _ = _build_flow(mesh, config, np.array(mesh.vertices))
    assert flow.stack == 1
    counts.clear()
    _, report = smooth(mesh, config)
    trials = _trials(report, config)
    assert trials > report.iterations == 2
    assert counts["volume_passes"] == trials + 1


@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_a_trial_that_overflows_is_rejected_under_every_policy(policy):
    # under the free policy the overflowed trial has no shape representative; it is rejected, not raised
    mesh = perturb_mesh(tet_grid(2), 0.1, seed=1)
    config = _config(Measure.PRODUCT_SQUARED, sigma0=1e300, boundary_policy=policy)
    with np.errstate(over="ignore", invalid="ignore"):
        coords, report = smooth(mesh, config)
    assert report.termination is Termination.BACKTRACKING_FAILED and report.iterations == 0
    start = project_shape(mesh.vertices) if policy is BoundaryPolicy.FREE else mesh.vertices
    assert np.array_equal(coords, start)


def test_a_degenerate_start_still_raises_under_the_free_policy():
    mesh = tet_grid(2)
    coincident = make_mesh(np.ones_like(mesh.vertices), mesh.elements)
    with pytest.raises(DegenerateMesh, match="^all vertices coincide; shape projection undefined$"):
        smooth(coincident, _config(Measure.MEAN_VOLUME_SUM, boundary_policy=BoundaryPolicy.FREE))


def test_halving_ends_at_a_step_size_of_zero():
    # about 1,075 halvings take 0.1 to 0.0; every trial after that one would repeat it
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    expected = smooth(mesh, _config(Measure.PRODUCT_SQUARED, field_tol=1e-14, max_halvings=1100))[1]
    assert expected.termination is Termination.BACKTRACKING_FAILED
    began = time.perf_counter()
    _, report = smooth(mesh, _config(Measure.PRODUCT_SQUARED, field_tol=1e-14, max_halvings=10**6))
    assert time.perf_counter() - began < 1.0
    assert report.to_json_dict() == expected.to_json_dict()


def test_halving_ends_at_a_step_size_that_shrinking_leaves_unchanged(monkeypatch):
    # a factor of 0.9 takes 0.1 down to the subnormal 2.5e-323 in 7,028 steps, then rounds it back to itself
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.30]))
    evaluated = []
    trials = smoothing_module._trials

    def counting(flow, guard, coords, direction, sigmas, q):
        evaluated.extend(sigmas)
        return trials(flow, guard, coords, direction, sigmas, q)

    monkeypatch.setattr(smoothing_module, "_trials", counting)
    runs = []
    for halvings in (8000, 10**6):
        evaluated.clear()
        config = _config(Measure.PRODUCT_SQUARED, field_tol=0.0, shrink=0.9, max_iterations=2000, max_halvings=halvings)
        report = smooth(mesh, config)[1]
        runs.append((report.to_json_dict(), len(evaluated), evaluated[-1]))
    assert runs[0] == runs[1]
    assert runs[0][0]["termination"] == "backtracking_failed" and runs[0][2] * 0.9 == runs[0][2] == 2.5e-323
