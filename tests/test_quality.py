import json

import numpy as np
import pytest

from polysmooth import Element, ElementKind, make_mesh
from polysmooth.errors import InvalidSpec, MixedMeshMeanRatio, NonPositiveVolume, ProductUnderflow
from polysmooth.fdcheck import fd_gradient, relative_error
from polysmooth.generators import (
    _house_mesh,
    perturb_mesh,
    random_element_coords,
    random_rotation,
    regular_element,
    regular_element_coords,
    tet_grid,
    tet_with_inner_vertex,
    unit_element,
)
from polysmooth.geometry import element_field, element_fields, element_iq_gradients
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
from polysmooth.quality import _scatter_iq_gradients


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


def test_default_reference_determinant():
    assert ReferenceFrame.regular().determinant == pytest.approx(1 / np.sqrt(2), rel=1e-14)


def test_degenerate_reference_rejected():
    with pytest.raises(InvalidSpec):
        ReferenceFrame(np.zeros((3, 3)))


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
    inverse = ReferenceFrame.regular().inverse

    def scalar(x):
        s = np.column_stack([x[1] - x[0], x[2] - x[0], x[3] - x[0]]) @ inverse
        det = np.linalg.det(s)
        return 0.0 if det <= 0.0 else float(3.0 * det ** (2.0 / 3.0) / np.sum(s * s))

    expected = np.array([scalar(mesh.vertices[list(e.vertices)]) for e in mesh.elements])
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
        _scatter_iq_gradients(mesh, coords, groups), add_at(lambda k, ids, x: element_iq_gradients(k, x)))


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
