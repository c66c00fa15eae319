"""Element and mesh quality: mean ratio, volume-based measures, gradients.

Every :class:`Measure` is defined once, in the table ``_MEASURES``, which
:func:`mesh_quality`, :func:`quality_gradient_field` and the smoothing
driver all read. Per-element contributions are summed in element order, so
repeated runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import geometry
from .errors import InvalidSpec, MixedMeshMeanRatio, NonPositiveVolume, ProductUnderflow
from .geometry import REGULAR_TETRA
from .mesh import ElementKind, Mesh, kind_groups


def _difference_matrix(x: np.ndarray) -> np.ndarray:
    """Edge vectors from the first vertex as columns, (..., 4, 3) -> (..., 3, 3)."""
    return np.swapaxes(x[..., 1:, :] - x[..., :1, :], -1, -2)


@dataclass(frozen=True)
class ReferenceFrame:
    """Difference matrix of the reference tetrahedron for the mean ratio.

    Columns are the edge vectors from the first vertex. The default frame is
    the unit-edge regular tetrahedron, determinant 1/sqrt(2).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidSpec(f"reference matrix must be 3x3, got {m.shape}")
        if abs(np.linalg.det(m)) < 1e-300:
            raise InvalidSpec("reference tetrahedron is degenerate")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_inverse", np.linalg.inv(m))

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def inverse(self) -> np.ndarray:
        return self._inverse

    @classmethod
    def regular(cls) -> "ReferenceFrame":
        return cls(_difference_matrix(REGULAR_TETRA))


_DEFAULT_FRAME = ReferenceFrame.regular()


def _mean_ratios(x: np.ndarray, reference: ReferenceFrame = _DEFAULT_FRAME) -> np.ndarray:
    """Mean ratios of a batch of tetrahedra, (m, 4, 3) -> (m,).

    ``np.float_power`` calls the same ``pow`` as a scalar power, so each
    value is bit for bit the single-element formula.
    """
    s = np.matmul(_difference_matrix(x), reference.inverse)
    det = np.linalg.det(s)
    q = np.zeros(len(x))
    ok = ~(det <= 0.0)
    s = s[ok]
    q[ok] = 3.0 * np.float_power(det[ok], 2.0 / 3.0) / np.sum((s * s).reshape(-1, 9), axis=1)
    return q


def mean_ratio(x, reference: ReferenceFrame | None = None) -> float:
    """Mean ratio of a tetrahedron: 1 when similar to the reference, 0 when flat.

    Invalid orientations (nonpositive determinant) map to 0 by convention.
    """
    x = np.asarray(x, dtype=float)
    return float(_mean_ratios(x[None], reference or _DEFAULT_FRAME)[0])


def mean_ratio_volume_equivalence(x, reference: ReferenceFrame | None = None) -> tuple[float, float]:
    """Return ``(q^(3/2), vol(x / |S|_F))``; their ratio depends only on the frame."""
    ref = reference or _DEFAULT_FRAME
    x = np.asarray(x, dtype=float)
    s = _difference_matrix(x) @ ref.inverse
    frob = math.sqrt(np.sum(s * s))
    lhs = mean_ratio(x, ref) ** 1.5
    rhs = geometry.tet_signed_volume(x / frob)
    return lhs, rhs


class Measure(Enum):
    MEAN_VOLUME_SUM = "mean-volume"
    PRODUCT_SQUARED = "q1"
    INVERSE_SQUARED_SUM = "q2"
    MEAN_RATIO = "mean-ratio"
    ISOPERIMETRIC_QUOTIENT = "iq"


class Combiner(Enum):
    ARITHMETIC_MEAN = "mean"
    SUM = "sum"
    MIN = "min"


@dataclass(frozen=True)
class QualityMeasureSpec:
    """Which element measure and combiner assemble the global quality."""

    measure: Measure
    combiner: Combiner = Combiner.ARITHMETIC_MEAN
    volume_shift: float | None = None

    def __post_init__(self):
        if self.volume_shift is not None:
            if not _MEASURES[self.measure].shifted:
                raise InvalidSpec("volume_shift applies to the q1/q2 measures only")
            if self.volume_shift < 0:
                raise InvalidSpec("volume_shift must be >= 0")


@dataclass
class QualityReport:
    """One measure over a mesh. ``log_global`` is set for a product measure:
    the sum of the logs of its factors, finite where ``global_value``
    underflows to 0."""

    measure: Measure
    combiner: Combiner
    global_value: float
    minimum: float
    maximum: float
    mean: float
    invalid_count: int
    per_element: np.ndarray = field(repr=False)
    log_global: float | None = None

    def to_json_dict(self) -> dict:
        logs = {} if self.log_global is None else {"log_global": self.log_global}
        return {
            "measure": self.measure.value,
            "combiner": self.combiner.value,
            "global": self.global_value,
            **logs,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "invalid_count": self.invalid_count,
            "per_element": self.per_element.tolist(),
        }


def _per_kind(kernel, mesh: Mesh, coords, groups) -> np.ndarray:
    """``kernel(kind, x)`` of every element, in element order."""
    values = np.empty(mesh.n_elements)
    for kind, (ids, conn) in groups.items():
        values[ids] = kernel(kind, coords[conn])
    return values


def mesh_mean_volumes(mesh: Mesh, coords=None) -> np.ndarray:
    """Mean volume of every element, in element order."""
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    return _per_kind(geometry.element_mean_volumes, mesh, coords, mesh.elements.groups)


def _require_positive(v: np.ndarray) -> np.ndarray:
    """``v`` itself, or ``NonPositiveVolume`` naming its first entry <= 0."""
    bad = np.nonzero(v <= 0.0)[0]
    if bad.size:
        raise NonPositiveVolume(int(bad[0]), float(v[bad[0]]))
    return v


def _scatter(n: int, conns, values) -> np.ndarray:
    """Sum per-element vertex vectors onto ``n`` vertices.

    ``conns`` and ``values`` list, per kind, (m, n_e) vertex indices and the
    matching (m, n_e, 3) vectors. ``np.bincount`` adds them in the order of
    the concatenation, which is the order ``np.add.at`` would use, so the
    sums are bit for bit the same.
    """
    if not conns:
        return np.zeros((n, 3))
    idx = np.concatenate([conn.ravel() for conn in conns])
    vectors = np.concatenate([v.reshape(-1, 3) for v in values])
    return np.stack([np.bincount(idx, vectors[:, j], minlength=n) for j in range(3)], axis=1)


def scatter_element_fields(mesh: Mesh, coords, per_element_scale=None) -> np.ndarray:
    """Sum per-element transformation fields onto mesh vertices.

    ``per_element_scale`` optionally multiplies each element's field before
    the scatter (indexed in element order).
    """
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    conns, fields = [], []
    for kind, (ids, conn) in mesh.elements.groups.items():
        f = geometry.element_fields(kind, coords[conn])
        if per_element_scale is not None:
            f = f * np.asarray(per_element_scale)[ids][:, None, None]
        conns.append(conn)
        fields.append(f)
    return _scatter(len(coords), conns, fields)


def _scatter_iq_gradients(mesh: Mesh, coords, groups, v=None) -> np.ndarray:
    conns = [conn for _, conn in groups.values()]
    grads = [geometry.element_iq_gradients(kind, coords[conn]) for kind, (_, conn) in groups.items()]
    return _scatter(len(coords), conns, grads)


def _mesh_iqs(mesh: Mesh, coords, groups, v=None) -> np.ndarray:
    return _per_kind(geometry.element_iqs, mesh, coords, groups)


def _mesh_mean_ratios(mesh: Mesh, coords, groups, v=None) -> np.ndarray:
    if any(kind is not ElementKind.TETRA for kind in groups):
        raise MixedMeshMeanRatio("mean ratio is defined for all-tetrahedra meshes")
    return _per_kind(lambda kind, x: _mean_ratios(x), mesh, coords, groups)


def _transformation_field(weight=None):
    """Scatter of the element transformation fields, each scaled by ``weight(v)``."""

    def scatter(mesh: Mesh, coords, groups, v) -> np.ndarray:
        scale = None if weight is None else weight(_require_positive(v))
        return scatter_element_fields(mesh, coords, per_element_scale=scale)

    return scatter


@dataclass(frozen=True)
class _MeasureDef:
    """One measure. Its functions take ``(mesh, coords, groups, v)``, with
    ``v`` the element mean volumes plus any volume shift (None is allowed
    when ``volumes`` is False: the measure does not read them).

    ``values`` are the per-element values, ``objective`` the sum or log
    objective the driver ascends. ``vertex_field`` scatters the weighted
    per-element fields; over ``divisor`` it is the objective's gradient, of
    scaling degree ``degree`` when there is no shift. ``product``: the global
    value multiplies the values; ``shifted``: the measure takes a shift.
    """

    values: Callable
    objective: Callable | None = None
    vertex_field: Callable | None = None
    divisor: float = 1.0
    degree: float | None = None
    volumes: bool = False
    shifted: bool = False
    product: bool = False


_MEASURES: dict[Measure, _MeasureDef] = {
    Measure.MEAN_VOLUME_SUM: _MeasureDef(
        values=lambda mesh, c, groups, v: v,
        objective=lambda mesh, c, groups, v: float(v.sum()),
        vertex_field=_transformation_field(), divisor=6.0, degree=2.0,
        volumes=True,
    ),
    Measure.PRODUCT_SQUARED: _MeasureDef(
        values=lambda mesh, c, groups, v: _require_positive(v) ** 2,
        objective=lambda mesh, c, groups, v: (
            -np.inf if np.any(v <= 0.0) else float(2.0 * np.log(v).sum())),
        vertex_field=_transformation_field(lambda v: 1.0 / v), divisor=3.0, degree=-1.0,
        volumes=True, shifted=True, product=True,
    ),
    Measure.INVERSE_SQUARED_SUM: _MeasureDef(
        values=lambda mesh, c, groups, v: -1.0 / _require_positive(v) ** 2,
        objective=lambda mesh, c, groups, v: (
            -np.inf if np.any(v <= 0.0) else float(-np.sum(v**-2))),
        vertex_field=_transformation_field(lambda v: v**-3), divisor=3.0, degree=-7.0,
        volumes=True, shifted=True,
    ),
    Measure.MEAN_RATIO: _MeasureDef(values=_mesh_mean_ratios),
    Measure.ISOPERIMETRIC_QUOTIENT: _MeasureDef(
        values=_mesh_iqs,
        objective=lambda mesh, c, groups, v: float(_mesh_iqs(mesh, c, groups).sum()),
        vertex_field=_scatter_iq_gradients, degree=-1.0,
    ),
}


_COMBINE = {Combiner.ARITHMETIC_MEAN: np.mean, Combiner.SUM: np.sum, Combiner.MIN: np.min}


def _shifted(vols: np.ndarray | None, shift: float | None) -> np.ndarray | None:
    return vols + shift if shift and vols is not None else vols


def mesh_quality(mesh: Mesh, coords=None, spec: QualityMeasureSpec | None = None) -> QualityReport:
    """Evaluate the configured measure over the mesh.

    The product measure combines per-element values multiplicatively (that is
    its definition); every other measure is combined by ``spec.combiner``.
    """
    spec = spec or QualityMeasureSpec(Measure.MEAN_VOLUME_SUM)
    if mesh.n_elements == 0:
        raise InvalidSpec("a mesh without elements has no quality")
    measure = _MEASURES[spec.measure]
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    groups = kind_groups(mesh)
    vols = mesh_mean_volumes(mesh, coords)
    v = _shifted(vols, spec.volume_shift)
    values = measure.values(mesh, coords, groups, v)
    combine = np.prod if measure.product else _COMBINE[spec.combiner]
    return QualityReport(
        measure=spec.measure,
        combiner=spec.combiner,
        global_value=float(combine(values)),
        minimum=float(values.min()),
        maximum=float(values.max()),
        mean=float(values.mean()),
        invalid_count=int(np.sum(vols <= 0.0)),
        per_element=values,
        log_global=measure.objective(mesh, coords, groups, v) if measure.product else None,
    )


def quality_gradient_field(mesh: Mesh, coords=None, spec: QualityMeasureSpec | None = None) -> np.ndarray:
    """Exact gradient of :func:`mesh_quality`'s global value, shape (n, 3).

    Matches central finite differences of the global value. Undefined for the
    min combiner (nonsmooth) and for the mean ratio (no gradient is provided
    for it); both raise ``InvalidSpec``.
    """
    spec = spec or QualityMeasureSpec(Measure.MEAN_VOLUME_SUM)
    if spec.combiner is Combiner.MIN:
        raise InvalidSpec("the min combiner has no gradient")
    measure = _MEASURES[spec.measure]
    if measure.vertex_field is None:
        raise InvalidSpec(f"no gradient field is defined for the {spec.measure.value} measure")
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    groups = kind_groups(mesh)
    vols = mesh_mean_volumes(mesh, coords) if measure.volumes else None
    v = _shifted(vols, spec.volume_shift)
    if measure.product:
        # d(prod)/dx = prod * d(log prod)/dx
        scale = np.prod(measure.values(mesh, coords, groups, v))
        if scale == 0.0:  # every factor is positive: the product underflowed
            raise ProductUnderflow(
                f"the {spec.measure.value} product underflows to 0 (log "
                f"{measure.objective(mesh, coords, groups, v)!r}); its gradient is not representable")
    else:
        scale = 1.0 / mesh.n_elements if spec.combiner is Combiner.ARITHMETIC_MEAN else 1.0
    return scale / measure.divisor * measure.vertex_field(mesh, coords, groups, v)


def compute_volume_shift(mesh: Mesh, coords=None) -> float:
    """Shift making every shifted mean volume positive: 0 for valid meshes,
    twice the worst inversion otherwise."""
    return _volume_shift(mesh_mean_volumes(mesh, coords), mesh.vertices if coords is None else coords)


def _volume_shift(vols: np.ndarray, coords) -> float:
    if vols.size == 0:
        return 0.0
    worst = float(vols.min())
    if worst > 0.0:
        return 0.0
    if worst < 0.0:
        return 2.0 * abs(worst)
    # exactly degenerate: any positive value restores positivity
    coords = np.asarray(coords, dtype=float)
    diag = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    return max(1e-12 * diag**3, np.finfo(float).tiny)
