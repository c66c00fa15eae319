import itertools
import json
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from polysmooth import Element, ElementKind, geometry, make_mesh
from polysmooth.errors import InvalidSpec, MixedMeshMeanRatio, NonPositiveVolume, ProductOverflow, ProductUnderflow
from polysmooth.fdcheck import fd_gradient, relative_error
from polysmooth.generators import (
    _house_mesh,
    hex_grid,
    perturb_mesh,
    random_element_coords,
    random_rotation,
    regular_element,
    regular_element_coords,
    tet_grid,
    tet_with_inner_vertex,
    unit_element,
)
from polysmooth.geometry import element_field, element_fields, element_iq_gradients, element_iqs
from polysmooth.mesh import kind_groups
from polysmooth.quality import (
    Combiner,
    Measure,
    QualityMeasureSpec,
    ReferenceFrame,
    compute_volume_shift,
    mean_ratio,
    mean_ratio_volume_equivalence,
    mesh_mean_volumes,
    mesh_quality,
    quality_gradient_field,
    scatter_element_fields,
)
from polysmooth.quality import _blocks, _per_kind, _scatter


def _random_valid_tet(rng):
    return random_element_coords(ElementKind.TETRA, rng)


def _tet_with_volume(v):
    """Unit tetra scaled to signed volume v (v > 0)."""
    base = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return base * (6.0 * v) ** (1.0 / 3.0)


# -- mean ratio ---------------------------------------------------------------


def test_regular_tet_mean_ratio_one():
    assert mean_ratio(regular_element_coords(ElementKind.TETRA)) == pytest.approx(1.0, abs=1e-12)


def test_coplanar_tet_mean_ratio_zero():
    x = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    assert mean_ratio(x) == 0.0


def test_inverted_tet_mean_ratio_zero():
    x = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -1]], dtype=float)
    assert mean_ratio(x) == 0.0


def test_mean_ratio_in_unit_interval_and_invariant(rng):
    for _ in range(100):
        x = _random_valid_tet(rng)
        q = mean_ratio(x)
        assert 0.0 < q <= 1.0 + 1e-12
        r = random_rotation(rng)
        s = rng.uniform(0.2, 5.0)
        t = rng.uniform(-10, 10, size=3)
        q2 = mean_ratio(s * (x @ r.T) + t)
        assert q2 == pytest.approx(q, abs=1e-10)


def test_mean_ratio_volume_equivalence_constant(rng):
    ratios = []
    for _ in range(50):
        lhs, rhs = mean_ratio_volume_equivalence(_random_valid_tet(rng))
        ratios.append(rhs / lhs)
    ratios = np.array(ratios)
    assert np.ptp(ratios) / abs(ratios.mean()) < 1e-10


def test_equivalence_regular_case():
    x = regular_element_coords(ElementKind.TETRA)
    lhs, rhs = mean_ratio_volume_equivalence(x)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    # rhs is then the volume of the norm-rescaled regular tetra
    s = np.column_stack([x[1] - x[0], x[2] - x[0], x[3] - x[0]]) @ ReferenceFrame.regular().inverse
    frob = np.sqrt(np.sum(s * s))
    assert rhs == pytest.approx((np.sqrt(2) / 12) / frob**3, rel=1e-12)


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _minor(m, r, c):
    """The determinant of the 3x3 ``m`` without row r and column c."""
    (a, b), (d, e) = [[v for k, v in enumerate(row) if k != c] for i, row in enumerate(m) if i != r]
    return a * e - b * d


def _exact_mean_ratio(x, frame=None):
    """The mean ratio of the float coordinates ``x`` in exact rational arithmetic, to the nearest float.

    q^3 is rational: ``432 det(E)^2 / (sum l_ij^2)^3`` for the regular frame,
    ``27 det(S)^2 / |S|_F^6`` with ``S = E W^-1``, W exactly inverted, for a
    frame W; only its cube root is taken in 50-digit decimals.
    """
    x = [[Fraction(float(v)) for v in p] for p in x]
    e = [[x[j][c] - x[0][c] for j in (1, 2, 3)] for c in range(3)]
    if frame is None:
        det = _det3(e)
        cubed = 432 * det**2 / sum((p[c] - q[c]) ** 2 for p, q in itertools.combinations(x, 2) for c in range(3)) ** 3
    else:
        w = [[Fraction(float(v)) for v in row] for row in frame]
        w_inv = [[(-1) ** (i + j) * _minor(w, j, i) / _det3(w) for j in range(3)] for i in range(3)]
        s = [[sum(e[c][j] * w_inv[j][k] for j in range(3)) for k in range(3)] for c in range(3)]
        det = _det3(s)
        cubed = 27 * det**2 / sum(v * v for row in s for v in row) ** 3
    if det <= 0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        return float((Decimal(cubed.numerator) / cubed.denominator) ** (Decimal(1) / 3))


_OTHER_FRAME = np.array([[2.0, 0.5, 0.3], [0.0, 1.5, 0.2], [0.1, 0.0, 1.0]])


@pytest.mark.parametrize("frame", [None, np.eye(3), _OTHER_FRAME])
def test_mean_ratio_is_the_exact_value_within_a_few_ulp(frame, rng):
    reference = None if frame is None else ReferenceFrame(frame)
    for _ in range(100):
        x = _random_valid_tet(rng)
        q, exact = mean_ratio(x, reference), _exact_mean_ratio(x, frame)
        assert 0.3 < exact and abs(q - exact) <= 8 * np.spacing(exact)


def test_default_mean_ratio_is_the_edge_length_closed_form(rng):
    for _ in range(200):
        x = _random_valid_tet(rng)
        volume = np.linalg.det((x[1:] - x[0]).T) / 6.0
        lengths2 = sum(np.sum((x[i] - x[j]) ** 2) for i, j in itertools.combinations(range(4), 2))
        assert mean_ratio(x) == pytest.approx(12.0 * (3.0 * volume) ** (2.0 / 3.0) / lengths2, rel=1e-14)


def test_mean_ratio_in_another_frame_is_one_on_its_reference(rng):
    reference = ReferenceFrame(_OTHER_FRAME)
    corner = np.vstack([np.zeros(3), _OTHER_FRAME.T])  # the frame's columns are the edges from vertex 0
    for _ in range(20):
        moved = rng.uniform(0.2, 5.0) * corner @ random_rotation(rng).T + rng.uniform(-10, 10, size=3)
        assert mean_ratio(moved, reference) == pytest.approx(1.0, abs=1e-12)
        assert mean_ratio(moved) < 1.0 - 1e-3  # not regular
        assert mean_ratio(moved[[0, 2, 1, 3]], reference) == 0.0  # inverted


def test_default_reference_determinant():
    assert ReferenceFrame.regular().determinant == pytest.approx(1 / np.sqrt(2), rel=1e-14)


def test_degenerate_reference_rejected():
    with pytest.raises(InvalidSpec):
        ReferenceFrame(np.zeros((3, 3)))


def test_reference_of_another_shape_rejected():
    with pytest.raises(InvalidSpec, match=r"reference matrix must be 3x3, got \(2, 2\)"):
        ReferenceFrame(np.eye(2))


# -- mesh quality ----------------------------------------------------------------


def test_single_regular_tet_mean_ratio_min():
    mesh = regular_element(ElementKind.TETRA)
    rep = mesh_quality(mesh, spec=QualityMeasureSpec(Measure.MEAN_RATIO, Combiner.MIN))
    assert rep.global_value == pytest.approx(1.0, abs=1e-12)
    assert rep.invalid_count == 0


def test_inner_tet_mean_volume_sum_partitions_outer():
    mesh = tet_with_inner_vertex()
    rep = mesh_quality(mesh, spec=QualityMeasureSpec(Measure.MEAN_VOLUME_SUM, Combiner.SUM))
    assert rep.global_value == pytest.approx(np.sqrt(2) / 12, rel=1e-13)


def test_half_volume_tet_product_and_inverse_measures():
    mesh = make_mesh(_tet_with_volume(0.5), [Element(ElementKind.TETRA, range(4))])
    q1 = mesh_quality(mesh, spec=QualityMeasureSpec(Measure.PRODUCT_SQUARED))
    assert q1.global_value == pytest.approx(0.25, rel=1e-12)
    q2 = mesh_quality(mesh, spec=QualityMeasureSpec(Measure.INVERSE_SQUARED_SUM, Combiner.SUM))
    assert q2.global_value == pytest.approx(-4.0, rel=1e-12)


def test_report_json_schema():
    mesh = unit_element(ElementKind.HEXA)
    rep = mesh_quality(mesh, spec=QualityMeasureSpec(Measure.ISOPERIMETRIC_QUOTIENT))
    doc = json.loads(json.dumps(rep.to_json_dict()))
    assert set(doc) == {"measure", "combiner", "global", "min", "max", "mean",
                        "invalid_count", "per_element"}
    assert doc["per_element"] == [doc["global"]]


def test_batched_mean_ratio_matches_per_element_formula():
    mesh = perturb_mesh(tet_grid(4), 0.9 / 4, seed=0)
    w = ReferenceFrame.regular().inverse.tolist()
    scale = 6.0 * float(np.linalg.det(ReferenceFrame.regular().inverse))

    def scalar(x):
        """3 det(S)^(2/3) / |S|_F^2 in Python floats, S = E W^-1, det S = 6 vol det W^-1, in the kernel's order."""
        e = [[x[j][c] - x[0][c] for j in (1, 2, 3)] for c in range(3)]  # component c of edge j
        (ax, bx, cx), (ay, by, cy), (az, bz, cz) = e
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        det = (((0.0 + nx * cx) + nz * cz) + ny * cy) / 6.0 * scale
        norm2 = 0.0
        for c in range(3):
            for k in range(3):
                s = (e[c][0] * w[0][k] + e[c][1] * w[1][k]) + e[c][2] * w[2][k]
                norm2 += s * s
        return 0.0 if det <= 0.0 else 3.0 * det ** (2.0 / 3.0) / norm2

    expected = np.array([scalar(mesh.vertices[list(e.vertices)].tolist()) for e in mesh.elements])
    got = mesh_quality(mesh, spec=QualityMeasureSpec(Measure.MEAN_RATIO)).per_element
    assert 0 < np.sum(expected == 0.0) < mesh.n_elements  # some elements are inverted
    assert np.all(np.abs(got - expected) <= 2 * np.spacing(expected))


def test_mean_ratio_rejects_mixed_mesh():
    with pytest.raises(MixedMeshMeanRatio):
        mesh_quality(_house_mesh(), spec=QualityMeasureSpec(Measure.MEAN_RATIO))


def test_product_measure_needs_positive_volumes():
    pts = np.array(unit_element(ElementKind.TETRA).vertices)
    inverted = make_mesh(pts[[0, 1, 3, 2]], [Element(ElementKind.TETRA, range(4))])
    with pytest.raises(NonPositiveVolume) as err:
        mesh_quality(inverted, spec=QualityMeasureSpec(Measure.PRODUCT_SQUARED))
    assert err.value.element_id == 0
    # a sufficient shift restores the measure
    rep = mesh_quality(
        inverted, spec=QualityMeasureSpec(Measure.PRODUCT_SQUARED, volume_shift=1.0)
    )
    assert rep.global_value > 0
    assert rep.invalid_count == 1


def test_volume_shift_only_for_q1_q2():
    with pytest.raises(InvalidSpec):
        QualityMeasureSpec(Measure.MEAN_RATIO, volume_shift=0.5)


@pytest.mark.parametrize("shift", [float("nan"), float("inf"), -1.0])
def test_volume_shift_must_be_finite_and_nonnegative(shift):
    with pytest.raises(InvalidSpec):
        QualityMeasureSpec(Measure.PRODUCT_SQUARED, volume_shift=shift)


def test_invalid_count_reports_nonpositive_means():
    pts = np.array(unit_element(ElementKind.TETRA).vertices)
    mesh = make_mesh(pts[[0, 1, 3, 2]], [Element(ElementKind.TETRA, range(4))])
    rep = mesh_quality(mesh, spec=QualityMeasureSpec(Measure.MEAN_VOLUME_SUM))
    assert rep.invalid_count == 1


# -- gradient field ---------------------------------------------------------------


@pytest.mark.parametrize(
    "measure,combiner",
    [
        (Measure.MEAN_VOLUME_SUM, Combiner.SUM),
        (Measure.MEAN_VOLUME_SUM, Combiner.ARITHMETIC_MEAN),
        (Measure.PRODUCT_SQUARED, Combiner.ARITHMETIC_MEAN),
        (Measure.INVERSE_SQUARED_SUM, Combiner.SUM),
        (Measure.INVERSE_SQUARED_SUM, Combiner.ARITHMETIC_MEAN),
        (Measure.ISOPERIMETRIC_QUOTIENT, Combiner.SUM),
        (Measure.ISOPERIMETRIC_QUOTIENT, Combiner.ARITHMETIC_MEAN),
    ],
)
def test_gradient_matches_fd(measure, combiner, rng):
    mesh = tet_with_inner_vertex(np.array([0.55, 0.33, 0.28]))
    spec = QualityMeasureSpec(measure, combiner)
    grad = quality_gradient_field(mesh, spec=spec)
    fd = fd_gradient(lambda c: mesh_quality(mesh, c, spec).global_value, np.array(mesh.vertices))
    assert relative_error(grad, fd) < 1e-6


def test_gradient_matches_fd_mixed_mesh(rng):
    mesh = _house_mesh()
    for measure in (Measure.MEAN_VOLUME_SUM, Measure.PRODUCT_SQUARED,
                    Measure.INVERSE_SQUARED_SUM, Measure.ISOPERIMETRIC_QUOTIENT):
        spec = QualityMeasureSpec(measure, Combiner.SUM if measure is not Measure.PRODUCT_SQUARED else Combiner.ARITHMETIC_MEAN)
        grad = quality_gradient_field(mesh, spec=spec)
        fd = fd_gradient(lambda c: mesh_quality(mesh, c, spec).global_value, np.array(mesh.vertices))
        assert relative_error(grad, fd) < 1e-6


def test_mean_volume_gradient_is_scattered_field_over_six():
    mesh = tet_with_inner_vertex()
    from polysmooth.quality import scatter_element_fields

    grad = quality_gradient_field(mesh, spec=QualityMeasureSpec(Measure.MEAN_VOLUME_SUM, Combiner.SUM))
    assert np.allclose(grad, scatter_element_fields(mesh, None) / 6.0, rtol=1e-15)


def test_q2_single_tet_closed_form(rng):
    x = _random_valid_tet(rng)
    mesh = make_mesh(x, [Element(ElementKind.TETRA, range(4))])
    v = mesh_mean_volumes(mesh)[0]
    grad = quality_gradient_field(mesh, spec=QualityMeasureSpec(Measure.INVERSE_SQUARED_SUM, Combiner.SUM))
    # differentiate -v^-2 by hand: 2 v^-3 * grad(v) = (1/3) v^-3 * field
    assert np.allclose(grad, element_field(ElementKind.TETRA, x) / (3 * v**3), rtol=1e-12)


@pytest.mark.parametrize("measure,power", [(Measure.PRODUCT_SQUARED, 1), (Measure.INVERSE_SQUARED_SUM, 3)])
def test_gradient_collinear_with_scaled_field_scatter(measure, power):
    # per-element contributions are (global positive constant) * vol^-power * field
    mesh = tet_with_inner_vertex(np.array([0.52, 0.30, 0.33]))
    from polysmooth.quality import scatter_element_fields

    v = mesh_mean_volumes(mesh)
    direction = scatter_element_fields(mesh, None, per_element_scale=v ** -float(power))
    grad = quality_gradient_field(mesh, spec=QualityMeasureSpec(measure, Combiner.SUM))
    c = float(np.sum(grad * direction) / np.sum(direction * direction))
    assert c > 0
    assert np.abs(grad - c * direction).max() <= 1e-12 * np.abs(grad).max()


def test_gradient_translation_invariant():
    mesh = tet_with_inner_vertex(np.array([0.5, 0.3, 0.35]))
    spec = QualityMeasureSpec(Measure.PRODUCT_SQUARED)
    g0 = quality_gradient_field(mesh, spec=spec)
    g1 = quality_gradient_field(mesh, np.array(mesh.vertices) + np.array([4.0, -1.0, 2.0]), spec)
    assert np.allclose(g0, g1, atol=1e-10 * np.abs(g0).max())


@pytest.mark.parametrize("entry", [mesh_mean_volumes, scatter_element_fields])
@pytest.mark.parametrize("shape", [(3, 3), (27, 2), (28, 3)])
def test_unscanned_entry_points_reject_wrong_shapes(entry, shape):
    mesh = tet_grid(2)
    assert mesh.n_vertices == 27
    with pytest.raises(InvalidSpec):
        entry(mesh, np.zeros(shape))


@pytest.mark.parametrize("shape", [(3,), (48, 2), (53,)])
def test_scatter_rejects_a_scale_of_the_wrong_shape(shape):
    mesh = tet_grid(2)
    assert mesh.n_elements == 48
    with pytest.raises(InvalidSpec, match="per_element_scale"):
        scatter_element_fields(mesh, None, np.ones(shape))


def test_scaled_field_pass_holds_no_whole_mesh_weight_array():
    mesh = tet_grid(20)
    scale = 1.0 / mesh_mean_volumes(mesh)
    scatter_element_fields(mesh, mesh.vertices, scale)  # builds the cached groups
    tracemalloc.start()
    try:
        scatter_element_fields(mesh, mesh.vertices, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (3, 192,000) weight array of all 48,000 fields took 4.6 MB by itself
    assert peak < 5e6


def test_iq_gradient_field_memory_of_a_20_cube():
    mesh = perturb_mesh(tet_grid(20), 0.015, seed=0)
    spec = QualityMeasureSpec(Measure.ISOPERIMETRIC_QUOTIENT)
    quality_gradient_field(mesh, spec=spec)  # builds the cached groups
    tracemalloc.start()
    try:
        quality_gradient_field(mesh, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # iq blocks of 8,192 tets, each gathering its 12-row boundary triangulation, peaked at 14.4 MB here
    assert peak < 6e6


def test_vertex_fields_are_c_contiguous(interleaved_mesh):
    from polysmooth.smoothing import Assembly, assemble_field

    mesh = interleaved_mesh
    coords = 3.0 * mesh.vertices  # unit cells: the q1 product does not underflow
    scale = np.linspace(0.5, 2.0, mesh.n_elements)
    fields = [scatter_element_fields(mesh, coords), scatter_element_fields(mesh, coords, scale)]
    fields += [assemble_field(mesh, coords, assembly) for assembly in Assembly]
    fields += [quality_gradient_field(mesh, coords, QualityMeasureSpec(measure))
               for measure in Measure if measure is not Measure.MEAN_RATIO]
    for f in fields:
        assert f.shape == mesh.vertices.shape and f.flags.c_contiguous


def test_min_combiner_has_no_gradient():
    mesh = unit_element(ElementKind.TETRA)
    with pytest.raises(InvalidSpec):
        quality_gradient_field(mesh, spec=QualityMeasureSpec(Measure.MEAN_VOLUME_SUM, Combiner.MIN))


def test_mean_ratio_has_no_gradient():
    mesh = unit_element(ElementKind.TETRA)
    with pytest.raises(InvalidSpec):
        quality_gradient_field(mesh, spec=QualityMeasureSpec(Measure.MEAN_RATIO))


# -- volume shift ------------------------------------------------------------------


def test_shift_zero_for_valid_mesh():
    assert compute_volume_shift(tet_with_inner_vertex()) == 0.0


def test_shift_twice_worst_inversion():
    good = _tet_with_volume(0.3)
    bad = _tet_with_volume(0.1)[[0, 1, 3, 2]] + np.array([5.0, 0, 0])
    pts = np.vstack([good, bad])
    mesh = make_mesh(pts, [Element(ElementKind.TETRA, range(4)),
                           Element(ElementKind.TETRA, range(4, 8))])
    assert compute_volume_shift(mesh) == pytest.approx(0.2, rel=1e-12)
    scaled = make_mesh(2.0 * pts, mesh.elements)
    assert compute_volume_shift(scaled) == pytest.approx(1.6, rel=1e-12)


def test_shift_positive_for_exactly_degenerate():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    mesh = make_mesh(flat, [Element(ElementKind.TETRA, range(4))])
    s = compute_volume_shift(mesh)
    assert s > 0
    assert mesh_mean_volumes(mesh)[0] + s > 0


@pytest.mark.parametrize("measure,combiner", [
    (Measure.PRODUCT_SQUARED, Combiner.ARITHMETIC_MEAN),
    (Measure.INVERSE_SQUARED_SUM, Combiner.SUM),
    (Measure.INVERSE_SQUARED_SUM, Combiner.ARITHMETIC_MEAN),
])
def test_shifted_gradient_matches_finite_differences(measure, combiner):
    mesh = tet_with_inner_vertex([0.5, 0.29, 0.9])
    assert np.sum(mesh_mean_volumes(mesh) <= 0.0) == 3
    spec = QualityMeasureSpec(measure, combiner, volume_shift=0.2)
    fd = fd_gradient(lambda c: mesh_quality(mesh, c, spec).global_value, mesh.vertices)
    assert relative_error(quality_gradient_field(mesh, spec=spec), fd) <= 1e-6


def test_scatter_matches_add_at_bit_for_bit(interleaved_mesh, rng):
    mesh = interleaved_mesh
    kinds = [e.kind for e in mesh.elements]
    assert len(set(kinds)) == 4
    assert sum(a is not b for a, b in zip(kinds, kinds[1:])) > 8  # the kinds interleave
    coords = mesh.vertices + rng.uniform(-0.1, 0.1, size=mesh.vertices.shape)
    scale = rng.uniform(0.5, 2.0, size=mesh.n_elements)
    groups = kind_groups(mesh)

    def add_at(per_element):
        out = np.zeros_like(coords)
        for kind, (ids, conn) in groups.items():
            np.add.at(out, conn.ravel(), per_element(kind, ids, coords[conn]).reshape(-1, 3))
        return out

    assert np.array_equal(
        scatter_element_fields(mesh, coords), add_at(lambda k, ids, x: element_fields(k, x)))
    assert np.array_equal(
        scatter_element_fields(mesh, coords, per_element_scale=scale),
        add_at(lambda k, ids, x: element_fields(k, x) * scale[ids][:, None, None]))
    assert np.array_equal(
        _scatter(element_iq_gradients, mesh, coords), add_at(lambda k, ids, x: element_iq_gradients(k, x)))


def test_a_mesh_of_one_block_gets_the_kernels_own_volumes(monkeypatch):
    returned = []
    kernel = geometry.element_mean_volumes

    def recording(kind, x):
        returned.append(kernel(kind, x))
        return returned[-1]

    monkeypatch.setattr(geometry, "element_mean_volumes", recording)
    for mesh in (tet_grid(4), hex_grid(3), unit_element(ElementKind.PRISM)):  # 384 tets, 27 hexa, 1 prism
        assert len(_blocks(mesh, geometry.GATHERED_ROWS)) == 1
        assert mesh_mean_volumes(mesh) is returned[-1]
    mesh = tet_grid(12)  # 10,368 tets: two blocks
    assert len(_blocks(mesh, geometry.GATHERED_ROWS)) == 2
    vols = mesh_mean_volumes(mesh)
    assert vols is not returned[-1] and np.array_equal(vols[-len(returned[-1]):], returned[-1])


@pytest.mark.parametrize("combiner", [Combiner.SUM, Combiner.ARITHMETIC_MEAN])
def test_iq_reads_the_volume_pass_bit_for_bit(interleaved_mesh, rng, combiner):
    # the reference path: every iq kernel computes its batch's volumes itself
    mesh = interleaved_mesh
    coords = mesh.vertices + rng.uniform(-0.1, 0.1, size=mesh.vertices.shape)
    spec = QualityMeasureSpec(Measure.ISOPERIMETRIC_QUOTIENT, combiner)
    values = _per_kind(element_iqs, mesh, coords)
    report = mesh_quality(mesh, coords, spec)
    assert report.per_element.tobytes() == values.tobytes()
    assert report.global_value == float((np.sum if combiner is Combiner.SUM else np.mean)(values))
    scale = 1.0 if combiner is Combiner.SUM else 1.0 / mesh.n_elements
    expected = scale / 1.0 * _scatter(element_iq_gradients, mesh, coords)
    assert quality_gradient_field(mesh, coords, spec).tobytes() == expected.tobytes()


def test_q1_product_underflow_is_reported_in_logs_and_raised_by_the_gradient():
    mesh = perturb_mesh(tet_grid(8), 0.3 / 8, seed=0)
    vols = mesh_mean_volumes(mesh)
    assert vols.min() > 0
    spec = QualityMeasureSpec(Measure.PRODUCT_SQUARED)
    report = mesh_quality(mesh, spec=spec)
    assert report.global_value == 0.0  # the product of 3,072 squared volumes underflows
    assert report.log_global == float(2.0 * np.log(vols).sum())
    assert np.isfinite(report.log_global) and report.log_global < -1e4
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert list(doc)[:4] == ["measure", "combiner", "global", "log_global"]
    assert doc["log_global"] == report.log_global
    with pytest.raises(ProductUnderflow, match="underflows"):
        quality_gradient_field(mesh, spec=spec)
    # without underflow the log is still reported, and the gradient is defined
    small = perturb_mesh(tet_grid(2), 0.05, seed=0)
    report = mesh_quality(small, spec=spec)
    assert report.global_value > 0
    assert report.log_global == pytest.approx(np.log(report.global_value), rel=1e-12)
    assert np.any(quality_gradient_field(small, spec=spec))
    assert "log_global" not in mesh_quality(small).to_json_dict()


def test_q1_product_overflow_is_reported_as_inf_beside_its_finite_log():
    mesh = tet_grid(2)
    big = make_mesh(mesh.vertices * 1e20, mesh.elements)  # 48 squared volumes near 1e118 each
    report = mesh_quality(big, spec=QualityMeasureSpec(Measure.PRODUCT_SQUARED))
    assert report.global_value == np.inf
    assert report.log_global == float(2.0 * np.log(mesh_mean_volumes(big)).sum()) > 709.8


def test_q1_gradient_of_an_overflowing_product_raises_a_named_error():
    mesh = tet_grid(2)
    big = make_mesh(mesh.vertices * 1e20, mesh.elements)
    spec = QualityMeasureSpec(Measure.PRODUCT_SQUARED)
    assert mesh_quality(big, spec=spec).log_global > 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no inf times 0 on the way
        with pytest.raises(ProductOverflow, match="^the q1 product overflows"):
            quality_gradient_field(big, spec=spec)
