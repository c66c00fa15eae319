import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysmooth import Element, ElementKind, make_mesh
from polysmooth import mesh as mesh_module
from polysmooth import quality as quality_module
from polysmooth import smoothing as smoothing_module
from polysmooth.errors import (
    DegenerateMesh,
    InvalidDegree,
    InvalidSpec,
    IsolatedVertex,
    NonHomogeneous,
    ZeroField,
)
from polysmooth.generators import (
    hex_grid,
    icosahedron_polyhedron,
    perturb_mesh,
    random_valid_mesh,
    regular_element,
    tet_grid,
    tet_with_inner_vertex,
    unit_element,
)
from polysmooth.geometry import element_field
from polysmooth.quality import (
    Combiner,
    Measure,
    QualityMeasureSpec,
    compute_volume_shift,
    mesh_mean_volumes,
)
from polysmooth.smoothing import (
    Assembly,
    BoundaryPolicy,
    SmoothingConfig,
    Termination,
    _BLOCK_PAIRS,
    _boundary_triangles,
    _build_flow,
    _closest_on_triangles,
    _closest_points,
    _Surface,
    assemble_field,
    homogeneity_degree,
    project_shape,
    scale_normalize,
    smooth,
    smooth_polyhedron,
    smoothing_step,
)


def _config(measure, **kw):
    defaults = dict(
        measure=QualityMeasureSpec(measure, Combiner.SUM),
        boundary_policy=BoundaryPolicy.FIX_BOUNDARY,
    )
    defaults.update(kw)
    return SmoothingConfig(**defaults)


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


# -- homogeneity degree and scale normalization ----------------------------------


def _measure_field(mesh, measure):
    # the free policy leaves the field unmasked
    config = _config(measure, boundary_policy=BoundaryPolicy.FREE)
    flow, _, _ = _build_flow(mesh, config, np.array(mesh.vertices))
    return lambda c: flow.field(c, mesh_mean_volumes(mesh, c))


def test_degree_of_transformation_field_is_two():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.3]))
    assert homogeneity_degree(lambda c: assemble_field(mesh, c), np.array(mesh.vertices)) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize(
    "measure,degree",
    [(m, entry.degree) for m, entry in quality_module._MEASURES.items() if entry.vertex_field],
)
def test_measure_field_degrees(measure, degree):
    # the driver steps with the table's closed-form degree; the numeric
    # estimate is the oracle
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.3]))
    field = _measure_field(mesh, measure)
    assert homogeneity_degree(field, np.array(mesh.vertices)) == pytest.approx(degree, abs=1e-8)


def test_constant_field_degree_zero():
    coords = np.ones((3, 3)) + np.eye(3)
    assert homogeneity_degree(lambda c: np.full_like(c, 2.0), coords) == pytest.approx(0.0, abs=1e-12)


def test_zero_field_rejected():
    with pytest.raises(ZeroField):
        homogeneity_degree(lambda c: np.zeros_like(c), np.ones((4, 3)))


def test_inhomogeneous_field_rejected():
    coords = np.arange(12.0).reshape(4, 3)
    with pytest.raises(NonHomogeneous):
        homogeneity_degree(lambda c: c**2 + 1.0, coords)


def test_scale_normalize_examples():
    x = np.zeros((4, 3))
    x[0, 0] = 4.0  # norm 4
    assert np.allclose(scale_normalize(x, 2.0), x / 2.0)
    y = np.zeros((4, 3))
    y[1, 2] = 2.0  # norm 2
    assert np.allclose(scale_normalize(y, -1.0), y / 4.0)
    assert not scale_normalize(np.zeros((4, 3)), 2.0).any()
    with pytest.raises(InvalidDegree):
        scale_normalize(x, 0.0)


def test_scale_normalize_output_degree_one():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.35, 0.3]))
    coords = np.array(mesh.vertices)
    for s in (0.5, 3.0):
        a = scale_normalize(assemble_field(mesh, coords), 2.0)
        b = scale_normalize(assemble_field(mesh, s * coords), 2.0)
        assert np.linalg.norm(b) == pytest.approx(s * np.linalg.norm(a), rel=1e-9)


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


def test_shifted_q1_ascends_out_of_inversion():
    # the inner vertex lies above the apex, so some elements start inverted
    # and the automatic volume shift applies: the first step moves along the
    # raw shifted field (degree 1)
    mesh = tet_with_inner_vertex([0.5, 0.29, 0.9])
    assert mesh_mean_volumes(mesh).min() < 0
    spec = QualityMeasureSpec(Measure.PRODUCT_SQUARED, Combiner.SUM, compute_volume_shift(mesh))
    shifted, _, vols = _build_flow(mesh, SmoothingConfig(measure=spec), np.array(mesh.vertices))
    first, step = smooth(mesh, _config(Measure.PRODUCT_SQUARED, max_iterations=1))
    expected = mesh.vertices[4] + step.sigma[0] * shifted.field(np.array(mesh.vertices), vols)[4]
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
    tris = _boundary_triangles(mesh, np.array(mesh.vertices))
    for i in np.nonzero(mesh.boundary)[0]:
        foot = _closest_on_triangles(tris, coords[i])
        assert np.linalg.norm(foot - coords[i]) < 1e-12


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


def test_closest_point_on_triangles_regions():
    tris = np.array([[[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]])
    assert np.allclose(_closest_on_triangles(tris, np.array([0.5, 0.5, 1.0])), [0.5, 0.5, 0])
    assert np.allclose(_closest_on_triangles(tris, np.array([-1.0, -1.0, 0.5])), [0, 0, 0])
    assert np.allclose(_closest_on_triangles(tris, np.array([1.0, -3.0, 0.0])), [1, 0, 0])
    assert np.allclose(_closest_on_triangles(tris, np.array([3.0, 3.0, 0.0])), [1, 1, 0])


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


def _surface_points(case, rng):
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
])
def test_batched_closest_points_match_the_per_point_search(case, rng):
    tris, points = _surface_points(case, rng)
    with np.errstate(invalid="ignore"):  # NaN and inf points, as in the per-point search
        expected = np.array([_closest_on_triangles_per_point(tris, p) for p in points]).reshape(-1, 3)
        found = _closest_points(_Surface.of(tris), points)
    assert np.array_equal(found, expected, equal_nan=True)


def test_boundary_triangles_match_the_per_face_split(rng):
    meshes = [perturb_mesh(hex_grid(3), 0.1, seed=3, fix_boundary=False), hex_grid(2)]
    meshes += [random_valid_mesh(rng) for _ in range(30)]
    for mesh in meshes:
        coords = np.array(mesh.vertices)
        assert np.array_equal(_boundary_triangles(mesh, coords), _boundary_triangles_per_face(mesh, coords))


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
    """Calls of ``kind_groups`` and of the mean-volume pass, by name."""
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    groups = counting("kind_groups", mesh_module.kind_groups)
    volumes = counting("volume_passes", quality_module.mesh_mean_volumes)
    for module in (mesh_module, quality_module, smoothing_module):
        monkeypatch.setattr(module, "kind_groups", groups)
    for module in (quality_module, smoothing_module):
        monkeypatch.setattr(module, "mesh_mean_volumes", volumes)
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
def test_connectivity_once_per_smooth_and_one_volume_pass_per_trial(measure, policy, counts):
    mesh = perturb_mesh(tet_grid(3), 0.1, seed=1)
    config = _config(measure, max_iterations=20, sigma0=2.0, boundary_policy=policy)
    _, report = smooth(mesh, config)
    trials = sum(1 + round(math.log(s / config.sigma0) / math.log(config.shrink)) for s in report.sigma)
    if report.termination is Termination.BACKTRACKING_FAILED:
        trials += config.max_halvings + 1
    assert trials > report.iterations > 0  # backtracking happened
    assert counts["kind_groups"] == 1
    # besides the trials, only the flow set-up, which also gives the initial objective
    assert counts["volume_passes"] == trials + 1


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


def test_smoothing_step_makes_one_volume_pass(counts):
    mesh = perturb_mesh(tet_grid(3), 0.1, seed=1)
    smoothing_step(mesh, mesh.vertices, _config(Measure.PRODUCT_SQUARED), 0.1)
    assert counts["kind_groups"] == 1
    assert counts["volume_passes"] == 1


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
